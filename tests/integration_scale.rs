//! Scale-layer acceptance: the streaming `mfd_graph::gen` generators and the
//! sharded executor.
//!
//! Four properties are pinned here rather than in unit tests because they
//! span crates: (1) the streaming generators are pure functions of their
//! parameters that always emit *valid* CSR rows (sorted, deduplicated,
//! symmetric, loop-free) and agree with the edge-list construction path at
//! small n; (2) the sharded executor is bit-identical to the reference
//! stepper — states, meters and digest chains — across shard and thread
//! counts; (3) the entry points of `mfd-core` return exactly what the
//! reference stepper computes; and (4) a step-able session's checkpoints are
//! independent of the shard/thread layout, resume bit-identically on any
//! layout, and are refused with a typed error when they do not fit.

use mfd_congest::{primitives, RoundMeter};
use mfd_core::clustering::Clustering;
use mfd_core::programs::{
    run_bfs, run_voronoi_ldd, BfsProgram, ColeVishkinProgram, VoronoiLddProgram,
};
use mfd_graph::properties::splitmix64;
use mfd_graph::{gen, generators, Graph, WeightedGraph};
use mfd_runtime::{
    Envelope, ExecCheckpoint, Executor, ExecutorConfig, NodeProgram, RuntimeError, SessionEngine,
    ShardedConfig, ShardedExecutor,
};
use mfd_trace::{DigestSink, DigestState, NullSink};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Structural validity of a graph's CSR rows: monotone offsets, strictly
/// ascending neighbor rows (sorted + deduplicated), no self-loops, symmetry,
/// and a consistent edge count.
fn assert_valid_csr(g: &Graph) {
    let offsets = g.offsets();
    assert_eq!(offsets.len(), g.n() + 1);
    assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
    let mut degree_sum = 0usize;
    for v in 0..g.n() {
        let row = g.neighbors(v);
        degree_sum += row.len();
        assert!(
            row.windows(2).all(|w| w[0] < w[1]),
            "row {v} not strictly ascending"
        );
        for &u in row {
            assert!(u < g.n(), "neighbor {u} of {v} out of range");
            assert_ne!(u, v, "self-loop at {v}");
            assert!(
                g.neighbors(u).binary_search(&v).is_ok(),
                "edge {v}-{u} not symmetric"
            );
        }
    }
    assert_eq!(degree_sum, 2 * g.m());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Streaming generators are pure functions of `(parameters, seed)` and
    /// always emit structurally valid CSR.
    #[test]
    fn streaming_generators_are_deterministic_and_valid(
        scale in 3u32..7,
        edge_factor in 1usize..5,
        nexp in 4u32..9,
        alpha in 15u32..30,
        seed in 0u64..1000,
    ) {
        let alpha = alpha as f64 / 10.0;
        let n = 1usize << nexp;
        for g in [
            gen::rmat(scale, edge_factor, seed),
            gen::power_law(n, edge_factor * n, alpha, seed),
            gen::mesh(1 + (seed as usize % 7), 1 + (edge_factor * 3)),
        ] {
            assert_valid_csr(&g);
        }
        prop_assert_eq!(
            gen::rmat(scale, edge_factor, seed),
            gen::rmat(scale, edge_factor, seed)
        );
        prop_assert_eq!(
            gen::power_law(n, edge_factor * n, alpha, seed),
            gen::power_law(n, edge_factor * n, alpha, seed)
        );
    }

    /// At small n the streaming emitters agree with the construction path
    /// every other generator takes: the emitted edges handed back to
    /// `Graph::from_edges` reversed, flipped and doubled rebuild the
    /// identical graph — the build drops the same duplicates whatever order
    /// and orientation they come in.
    #[test]
    fn streaming_generators_match_the_adjacency_map_path(
        scale in 3u32..6,
        edge_factor in 1usize..4,
        seed in 0u64..1000,
    ) {
        for g in [
            gen::rmat(scale, edge_factor, seed),
            gen::power_law(1 << scale, edge_factor << scale, 2.5, seed),
        ] {
            let mut edges: Vec<(usize, usize)> = g.edges().flat_map(|(u, v)| [(v, u), (u, v)]).collect();
            edges.reverse();
            prop_assert_eq!(Graph::from_edges(g.n(), edges), g);
        }
    }

    /// `Graph::induced_subgraph` numbers vertex `i` of the subgraph
    /// `members[i]` and keeps exactly the ambient edges between members, for
    /// member lists in any order, small (`9·|S| ≤ n`) and large against `n`;
    /// it rejects duplicate and out-of-range members.
    #[test]
    fn induced_subgraph_matches_the_filtered_edge_list(
        n in 2usize..120,
        edge_factor in 1usize..4,
        keep in 1usize..100,
        seed in 0u64..1000,
    ) {
        let g = generators::random_gnm(n, edge_factor * n, seed);
        // A shuffled subset: order the vertices by a seeded hash, keep a
        // prefix (down to a single vertex, up to every one).
        let mut members: Vec<usize> = (0..n).collect();
        members.sort_unstable_by_key(|&v| splitmix64(seed ^ ((v as u64) << 20)));
        members.truncate((keep * n).div_ceil(100));
        for take in [members.len(), members.len().min(n / 9)] {
            let members = &members[..take];
            let (sub, map) = g.induced_subgraph(members);
            let mut local = vec![usize::MAX; n];
            for (i, &v) in members.iter().enumerate() {
                local[v] = i;
            }
            let kept = g
                .edges()
                .map(|(u, v)| (local[u], local[v]))
                .filter(|&(i, j)| i != usize::MAX && j != usize::MAX);
            assert_valid_csr(&sub);
            prop_assert_eq!(sub, Graph::from_edges(take, kept));
            prop_assert_eq!(map, members.to_vec());
        }
        let rejected = |bad: usize| {
            let mut members = members.clone();
            members.push(bad);
            std::panic::catch_unwind(|| g.induced_subgraph(&members)).is_err()
        };
        prop_assert!(rejected(members[0]), "duplicate member");
        prop_assert!(rejected(n), "out-of-range member");
    }

    /// `WeightedGraph::from_edges` agrees with a `BTreeMap` fold of the same
    /// `(u, v, w)` contributions on every pair's weight, the edge count, the
    /// total weight and every vertex's heaviest neighbour. The contributions
    /// come in both orientations, repeat, include loops and zero weights,
    /// and leave the last quarter of the vertices isolated (`n = 0` too).
    #[test]
    fn weighted_graph_matches_a_btreemap_fold(
        n in 0usize..40,
        len in 0usize..120,
        seed in 0u64..1000,
    ) {
        let span = (n - n / 4).max(1);
        let contributions: Vec<(usize, usize, u64)> = (0..if n == 0 { 0 } else { len })
            .map(|i| {
                let h = splitmix64(seed ^ ((i as u64) << 24));
                (h as usize % span, (h >> 20) as usize % span, (h >> 40) % 4)
            })
            .collect();
        let wg = WeightedGraph::from_edges(n, contributions.iter().copied());
        let mut fold: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for &(u, v, w) in &contributions {
            if u != v && w > 0 {
                *fold.entry((u.min(v), u.max(v))).or_insert(0) += w;
            }
        }
        let expected = |u: usize, v: usize| fold.get(&(u.min(v), u.max(v))).copied().unwrap_or(0);
        prop_assert_eq!(wg.n(), n);
        prop_assert_eq!(wg.edge_count(), fold.len());
        prop_assert_eq!(wg.total_weight(), fold.values().sum::<u64>());
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(wg.weight(u, v), expected(u, v), "weight({}, {})", u, v);
            }
            // Heaviest by weight, then smallest index.
            let heaviest = (0..n)
                .filter(|&v| expected(u, v) > 0)
                .map(|v| (v, expected(u, v)))
                .fold(None, |best: Option<(usize, u64)>, c| match best {
                    Some(b) if b.1 >= c.1 => Some(b),
                    _ => Some(c),
                });
            prop_assert_eq!(wg.heaviest_neighbor(u), heaviest, "heaviest_neighbor({})", u);
        }
    }

    /// `Graph::quotient` on a random labeling weighs each pair of clusters by
    /// a plain count of the edges crossing between them.
    #[test]
    fn quotient_counts_the_crossing_edges(
        n in 1usize..60,
        k in 1usize..12,
        seed in 0u64..1000,
    ) {
        let g = generators::random_gnm(n, 2 * n, seed);
        let labels: Vec<usize> = (0..n as u64).map(|v| splitmix64(seed ^ v) as usize % k).collect();
        let q = g.quotient(&labels);
        let clusters = labels.iter().max().unwrap() + 1;
        prop_assert_eq!(q.n(), clusters);
        let mut pairs = 0;
        for a in 0..clusters {
            for b in 0..clusters {
                let crossing = g
                    .edges()
                    .filter(|&(u, v)| {
                        let (x, y) = (labels[u], labels[v]);
                        a != b && (x.min(y), x.max(y)) == (a.min(b), a.max(b))
                    })
                    .count();
                prop_assert_eq!(q.weight(a, b), crossing as u64, "weight({}, {})", a, b);
                pairs += usize::from(a < b && crossing > 0);
            }
        }
        prop_assert_eq!(q.edge_count(), pairs);
        prop_assert_eq!(q.total_weight(), g.inter_cluster_edges(&labels) as u64);
    }
    /// The sharded executor is bit-identical to the reference stepper on
    /// arbitrary graphs (sparse enough to be disconnected about as often as
    /// not), whatever the shard count — for a dense program that schedules
    /// every live vertex every round (Cole–Vishkin on a BFS forest, default
    /// `quiescent`), and for the two wave programs, whose thin frontiers and
    /// fixpoint exit (unreached components never halt) exercise the sharded
    /// engine's wake-set scheduling.
    #[test]
    fn sharded_executor_matches_unsharded_on_random_graphs(
        n in 2usize..40,
        edges in 0usize..80,
        seed in 0u64..1000,
        shards in 1usize..9,
        program in 0usize..3,
    ) {
        let g = generators::random_gnm(n, edges, seed);
        let root = seed as usize % n;
        match program {
            0 => {
                let forest = primitives::build_bfs_tree(&g, None, root, &mut RoundMeter::new());
                let id = (0..n as u64).map(splitmix64).collect();
                let cv = ColeVishkinProgram::new(forest.parent, id);
                sharded_matches_unsharded(&g, &cv, shards);
            }
            1 => sharded_matches_unsharded(&g, &BfsProgram { root }, shards),
            _ => {
                let centers = [root, (seed / 7) as usize % n];
                sharded_matches_unsharded(&g, &VoronoiLddProgram::new(n, &centers), shards);
            }
        }
    }
}

/// One differential run: `program` on the reference stepper against the
/// sharded engine at `shards` shards and 2 threads.
fn sharded_matches_unsharded<P>(g: &Graph, program: &P, shards: usize)
where
    P: NodeProgram,
    P::State: PartialEq + std::fmt::Debug,
{
    let reference = Executor::new(ExecutorConfig::default())
        .run(g, program)
        .unwrap();
    let run = ShardedExecutor::new(ShardedConfig::with_shards_threads(shards, 2))
        .run(g, program)
        .unwrap();
    assert_eq!(run.states, reference.states);
    assert_eq!(run.rounds, reference.rounds);
    assert_eq!(run.messages, reference.messages);
    assert_eq!(
        run.meter.max_words_on_edge(),
        reference.meter.max_words_on_edge()
    );
}

/// The mesh family, pinned against a hand-built edge list.
#[test]
fn mesh_generator_matches_a_hand_built_grid() {
    let (rows, cols) = (5, 7);
    let mut manual = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                manual.push((v, v + 1));
            }
            if r + 1 < rows {
                manual.push((v, v + cols));
            }
            if c + 1 < cols && r + 1 < rows {
                manual.push((v, v + cols + 1)); // the triangulating diagonal
            }
        }
    }
    assert_eq!(
        gen::mesh(rows, cols),
        Graph::from_edges(rows * cols, manual)
    );
}

/// Digest chains — not just final states — agree between engines and across
/// shard and thread counts on a generated power-law graph.
#[test]
fn digest_chains_are_shard_and_thread_invariant() {
    let g = gen::power_law(256, 1024, 2.5, 0xC5A1E);
    let program = BfsProgram { root: 0 };

    let mut reference = DigestSink::new();
    let expected = Executor::new(ExecutorConfig::default())
        .run_traced(&g, &program, &mut reference)
        .unwrap();

    for shards in [1, 3, 16, 256] {
        for threads in [1, 3] {
            let mut sink = DigestSink::new();
            let run = ShardedExecutor::new(ShardedConfig::with_shards_threads(shards, threads))
                .run_traced(&g, &program, &mut sink)
                .unwrap();
            assert_eq!(
                run.states, expected.states,
                "shards={shards} threads={threads}"
            );
            assert_eq!(
                sink.heads(),
                reference.heads(),
                "shards={shards} threads={threads}"
            );
        }
    }
}

/// The `mfd-core` entry points return what the reference stepper computes
/// on the same program: outputs, full meters, and — run traced on the
/// sharded engine they use — digest chains.
#[test]
fn core_entry_points_match_the_reference_stepper() {
    let reference = Executor::new(ExecutorConfig::default());
    let sharded = ShardedExecutor::new(ShardedConfig::default());
    for g in [
        generators::triangulated_grid(9, 6),
        generators::wheel(48),
        gen::rmat(6, 3, 7),
    ] {
        let bfs_program = BfsProgram { root: 0 };
        let mut ref_sink = DigestSink::new();
        let bfs_ref = reference
            .run_traced(&g, &bfs_program, &mut ref_sink)
            .unwrap();
        let (bfs, meter) = run_bfs(&g, 0, &sharded).unwrap();
        let unreached = usize::MAX;
        for (v, state) in bfs_ref.states.iter().enumerate() {
            assert_eq!(bfs.parent[v], state.parent.unwrap_or(unreached));
            assert_eq!(bfs.depth[v], state.depth.map_or(unreached, |d| d as usize));
        }
        assert_eq!(meter.to_parts(), bfs_ref.meter.to_parts());
        let mut sink = DigestSink::new();
        let traced = sharded.run_traced(&g, &bfs_program, &mut sink).unwrap();
        assert_eq!(traced.states, bfs_ref.states);
        assert_eq!(sink.chain(), ref_sink.chain());

        let centers = [0, g.n() / 3, g.n() - 1];
        let ldd_program = VoronoiLddProgram::new(g.n(), &centers);
        let mut ref_sink = DigestSink::new();
        let ldd_ref = reference
            .run_traced(&g, &ldd_program, &mut ref_sink)
            .unwrap();
        let (clustering, lmeter) = run_voronoi_ldd(&g, &centers, &sharded).unwrap();
        let labels = (ldd_ref.states.iter().enumerate())
            .map(|(v, state)| state.center.map_or(v, |c| c as usize))
            .collect();
        assert_eq!(clustering, Clustering::from_labels(&g, labels));
        assert_eq!(lmeter.to_parts(), ldd_ref.meter.to_parts());
        let mut sink = DigestSink::new();
        let traced = sharded.run_traced(&g, &ldd_program, &mut sink).unwrap();
        assert_eq!(traced.states, ldd_ref.states);
        assert_eq!(sink.chain(), ref_sink.chain());
    }
}

// ---------------------------------------------------------------------------
// Step-able sessions: checkpoint / restore
// ---------------------------------------------------------------------------

/// The layouts the checkpoint tests cross: shards {1, 3, 64} × threads {1, 4}
/// (64 shards on the 64-vertex families is one vertex per shard).
const LAYOUTS: [(usize, usize); 6] = [(1, 1), (1, 4), (3, 1), (3, 4), (64, 1), (64, 4)];

fn engine((shards, threads): (usize, usize)) -> ShardedExecutor {
    ShardedExecutor::new(ShardedConfig::with_shards_threads(shards, threads))
}

/// The families every executed-program claim is pinned on.
fn session_families() -> Vec<(&'static str, Graph)> {
    vec![
        ("tri-grid-8x8", generators::triangulated_grid(8, 8)),
        ("wheel-64", generators::wheel(64)),
        ("hypercube-6", generators::hypercube(6)),
    ]
}

/// The checkpoint after every sealed round of a session stepped to the end,
/// each paired with the digest sink's export at that instant.
type Captures<P> = Vec<(
    ExecCheckpoint<<P as NodeProgram>::State, <P as NodeProgram>::Msg>,
    DigestState,
)>;

/// (i) + (ii) for one program on one graph. `encode` renders a checkpoint as
/// bytes: the `Snapshot` codec where the state type has one, the `Debug`
/// rendering (every field, private ones included) where it does not.
fn checkpoints_are_layout_free_and_resume_anywhere<P>(
    case: &str,
    g: &Graph,
    program: &P,
    encode: impl Fn(&ExecCheckpoint<P::State, P::Msg>) -> Vec<u8>,
) where
    P: NodeProgram,
    P::State: Clone + PartialEq + std::fmt::Debug + std::hash::Hash,
{
    let mut ref_sink = DigestSink::new();
    let full = Executor::new(ExecutorConfig::default())
        .run_traced(g, program, &mut ref_sink)
        .unwrap();
    let chain = ref_sink.chain();

    let mut first: Option<Vec<Vec<u8>>> = None;
    for (i, &layout) in LAYOUTS.iter().enumerate() {
        let at = format!("{case} captured on {layout:?}");
        let exec = engine(layout);
        let mut sink = DigestSink::new();
        let mut captures: Captures<P> = Vec::new();
        let mut session = exec.open(g, program, None, &mut sink).unwrap();
        while let Some(round) = session.step().unwrap() {
            assert_eq!(round, captures.len() as u64 + 1, "{at}");
            captures.push((session.checkpoint(), session.observer().export()));
        }
        let run = session.finish();
        assert_eq!(run.states, full.states, "{at}");
        assert_eq!(run.meter.to_parts(), full.meter.to_parts(), "{at}");
        assert_eq!(sink.chain(), chain, "{at}");
        assert_eq!(captures.len() as u64, full.rounds, "{at}");

        // (i) Every round's checkpoint has the same bytes on every layout.
        let bytes: Vec<Vec<u8>> = captures.iter().map(|(cp, _)| encode(cp)).collect();
        match &first {
            None => first = Some(bytes),
            Some(first) => assert_eq!(&bytes, first, "{at}: checkpoint bytes"),
        }

        // (ii) Every checkpoint resumes to the uninterrupted run — rotating
        // through the layouts, so captures resume both on the layout that
        // took them and on every other one.
        for (k, (cp, digests)) in captures.into_iter().enumerate() {
            let onto = LAYOUTS[(i + k) % LAYOUTS.len()];
            let at = format!("{at} at round {}, resumed on {onto:?}", cp.round);
            let from = cp.round;
            let exec = engine(onto);
            let mut sink = DigestSink::restore(digests);
            let mut session = exec.open(g, program, Some(cp), &mut sink).unwrap();
            let mut next = from;
            while let Some(round) = session.step().unwrap() {
                next += 1;
                assert_eq!(round, next, "{at}");
            }
            let resumed = session.finish();
            assert_eq!(resumed.states, full.states, "{at}");
            assert_eq!(resumed.meter.to_parts(), full.meter.to_parts(), "{at}");
            assert_eq!(sink.chain(), chain, "{at}");
        }
    }
}

/// (i) The checkpoint at every round is byte-identical across shard/thread
/// layouts, and (ii) resuming from every checkpoint — on the capturing
/// layout or any other — reproduces the uninterrupted reference run's
/// states, full meter and digest chain: BFS, Voronoi-LDD and the divergence
/// probe on the acceptance families.
#[test]
fn session_checkpoints_are_layout_independent_and_resume_bit_identically() {
    use mfd_bench::trace::DivergenceProbe;
    fn debug<S: std::fmt::Debug, M: std::fmt::Debug>(cp: &ExecCheckpoint<S, M>) -> Vec<u8> {
        format!("{cp:?}").into_bytes()
    }
    for (name, g) in session_families() {
        let bfs = BfsProgram { root: 0 };
        checkpoints_are_layout_free_and_resume_anywhere(&format!("{name}/bfs"), &g, &bfs, debug);
        let centers = [0, g.n() / 3, (2 * g.n()) / 3];
        let ldd = VoronoiLddProgram::new(g.n(), &centers);
        checkpoints_are_layout_free_and_resume_anywhere(&format!("{name}/ldd"), &g, &ldd, debug);
        let probe = DivergenceProbe::clean(9);
        checkpoints_are_layout_free_and_resume_anywhere(
            &format!("{name}/probe"),
            &g,
            &probe,
            mfd_replay::to_bytes,
        );
    }
}

/// A probe session on the 8x8 triangulated grid captured after `round`.
fn probe_checkpoint(rounds: u64, round: u64) -> (Graph, ExecCheckpoint<u64, u64>) {
    let g = generators::triangulated_grid(8, 8);
    let probe = mfd_bench::trace::DivergenceProbe::clean(rounds);
    let exec = engine((3, 1));
    let mut sink = NullSink;
    let mut session = exec.open(&g, &probe, None, &mut sink).unwrap();
    while session
        .step()
        .unwrap()
        .expect("the probe runs past `round`")
        < round
    {}
    let checkpoint = session.checkpoint();
    (g, checkpoint)
}

/// (iii) The round budget keeps counting total rounds across a resume: a
/// budget the full run exceeds still trips after restoring from round 5.
#[test]
fn resumed_round_budget_counts_total_rounds() {
    let (g, checkpoint) = probe_checkpoint(20, 5);
    let probe = mfd_bench::trace::DivergenceProbe::clean(20);
    let tight = ShardedExecutor::new(ShardedConfig {
        max_rounds: 10,
        ..ShardedConfig::with_shards_threads(3, 4)
    });
    let mut sink = NullSink;
    let mut session = tight.open(&g, &probe, Some(checkpoint), &mut sink).unwrap();
    for round in 6..=10 {
        assert_eq!(session.step(), Ok(Some(round)));
    }
    assert_eq!(session.step(), Err(RuntimeError::RoundLimit { limit: 10 }));
}

/// (iv) A checkpoint is outside input: one that does not fit the graph or
/// the round budget is a typed `CheckpointMismatch`, never a panic or an
/// out-of-bounds index.
#[test]
fn hostile_checkpoints_are_refused_with_a_typed_error() {
    let (g, checkpoint) = probe_checkpoint(12, 4);
    let probe = mfd_bench::trace::DivergenceProbe::clean(12);
    let exec = engine((3, 4));
    let refused = |g: &Graph, cp: ExecCheckpoint<u64, u64>, exec: &ShardedExecutor| {
        refusal(exec, g, &probe, cp)
    };
    // The intact checkpoint is accepted.
    let mut sink = NullSink;
    assert!(exec
        .open(&g, &probe, Some(checkpoint.clone()), &mut sink)
        .is_ok());

    // Wrong n: a graph with fewer, and with more, vertices.
    for other in [generators::wheel(32), generators::wheel(100)] {
        let (what, expected, found) = refused(&other, checkpoint.clone(), &exec);
        assert_eq!(
            (what, expected, found),
            ("states length", other.n() as u64, 64)
        );
    }
    // Truncated per-vertex arrays.
    let mut cp = checkpoint.clone();
    cp.inbox.pop();
    assert_eq!(refused(&g, cp, &exec), ("inbox length", 64, 63));
    let mut cp = checkpoint.clone();
    cp.halted.truncate(10);
    assert_eq!(refused(&g, cp, &exec), ("halted length", 64, 10));
    // Mail from a non-neighbour: forged into one mailbox (in range, and out
    // of range), and wholesale by restoring onto another 64-vertex graph.
    for src in [63, 1 << 40] {
        let mut cp = checkpoint.clone();
        cp.inbox[0].push(Envelope { src, msg: 7 });
        let (_, receiver, sender) = refused(&g, cp, &exec);
        assert_eq!((receiver, sender), (0, src as u64));
    }
    let hypercube = generators::hypercube(6);
    let (what, receiver, sender) = refused(&hypercube, checkpoint.clone(), &exec);
    assert!(what.contains("non-neighbour"), "{what}");
    assert!(!hypercube
        .neighbors(receiver as usize)
        .contains(&(sender as usize)));
    // A round already past the budget — the configured one, and the
    // program's own hint (a 1-round probe allows 3).
    let tight = ShardedExecutor::new(ShardedConfig {
        max_rounds: 3,
        ..ShardedConfig::default()
    });
    let (_, expected, found) = refused(&g, checkpoint.clone(), &tight);
    assert_eq!((expected, found), (3, 4));
    let short = mfd_bench::trace::DivergenceProbe::clean(1);
    let mut sink = NullSink;
    assert!(matches!(
        exec.open(&g, &short, Some(checkpoint), &mut sink),
        Err(RuntimeError::CheckpointMismatch {
            expected: 3,
            found: 4,
            ..
        })
    ));
    // Program states that do not fit their vertex.
    unfit_reliable_states_are_refused(&exec, |cp| &mut cp.states);
}

/// The event engine's twin of the test above: a `SimCheckpoint` is decoded
/// from bytes just the same, and `SimEngine`'s `open` follows its indices
/// into the graph's edge list and trusts its counters — so one that does not
/// fit is a typed error too, never a panic (or an allocation, or a hang).
/// The engine adopts a checkpoint's sorted lists as its own state, so lists
/// out of that form are refused as well.
#[test]
fn hostile_sim_checkpoints_are_refused_with_a_typed_error() {
    use mfd_sim::{
        LatencyModel, NoFaults, PacketCheckpoint, SimCheckpoint, SimConfig, SimEngine, Simulator,
        VertexCheckpoint,
    };

    let g = generators::triangulated_grid(8, 8);
    let probe = mfd_bench::trace::DivergenceProbe::clean(12);
    let config = SimConfig::default().with_latency(LatencyModel::Uniform { lo: 1, hi: 3 });
    let sim = SimEngine(Simulator::new(config.clone()), NoFaults);
    let mut sink = NullSink;
    let mut session = sim.open(&g, &probe, None, &mut sink).unwrap();
    while session
        .step()
        .unwrap()
        .expect("the probe runs past round 4")
        < 4
    {}
    let checkpoint = session.checkpoint();
    assert!(!checkpoint.queue.is_empty(), "nothing in flight to forge");

    let refused = |g: &Graph, cp: SimCheckpoint<u64, u64>, sim: &SimEngine<NoFaults>| {
        refusal(sim, g, &probe, cp)
    };
    // The intact checkpoint is accepted.
    assert!(sim
        .open(&g, &probe, Some(checkpoint.clone()), &mut sink)
        .is_ok());

    // Wrong n; and the right n with the wrong m (161 edges against 192).
    for other in [generators::wheel(32), generators::wheel(100)] {
        let verdict = refused(&other, checkpoint.clone(), &sim);
        assert_eq!(verdict, ("states length", other.n() as u64, 64));
    }
    let verdict = refused(&generators::hypercube(6), checkpoint.clone(), &sim);
    assert_eq!(verdict, ("in_flight length", 192, 161));
    // Truncated per-vertex and per-edge arrays.
    let mut cp = checkpoint.clone();
    cp.vx.pop();
    assert_eq!(refused(&g, cp, &sim), ("vx length", 64, 63));
    let mut cp = checkpoint.clone();
    cp.edge_peak.truncate(10);
    assert_eq!(refused(&g, cp, &sim), ("edge_peak length", 161, 10));
    // A packet in flight along a non-edge (four grid rows away, and out of
    // range), and a buffered sender that is no neighbour of its receiver.
    let dst = checkpoint.queue[0].dst;
    for src in [(dst + 32) % 64, 1 << 40] {
        let mut cp = checkpoint.clone();
        let forged = PacketCheckpoint {
            src,
            ..cp.queue[0].clone()
        };
        cp.queue.push(forged);
        let (what, receiver, sender) = refused(&g, cp, &sim);
        assert!(what.contains("non-neighbour"), "{what}");
        assert_eq!((receiver, sender), (dst as u64, src as u64));
    }
    let mut cp = checkpoint.clone();
    cp.vx[0].pending.push((4, vec![(63, Vec::new())]));
    let (_, receiver, sender) = refused(&g, cp, &sim);
    assert_eq!((receiver, sender), (0, 63));
    // A round past the budget (the probe's own hint: 12 rounds allow 14) —
    // which used to be that many empty buckets, allocated.
    let mut cp = checkpoint.clone();
    cp.round = u64::MAX;
    let (_, expected, found) = refused(&g, cp, &sim);
    assert_eq!((expected, found), (14, u64::MAX));
    let tight = SimConfig {
        max_rounds: 3,
        ..config.clone()
    };
    let tight = SimEngine(Simulator::new(tight), NoFaults);
    let (_, expected, found) = refused(&g, checkpoint.clone(), &tight);
    assert_eq!((expected, found), (3, checkpoint.round));
    // Counters that disagree with the lists they are derived from: one would
    // underflow on the next arrival, the other never let the frontier settle.
    let mut cp = checkpoint.clone();
    cp.in_flight[0] += 1;
    let (what, expected, found) = refused(&g, cp, &sim);
    assert_eq!(what, "in-flight packets on an edge");
    assert_eq!(found, expected + 1);
    let mut cp = checkpoint.clone();
    cp.live += 1;
    let (what, expected, found) = refused(&g, cp, &sim);
    assert!(what.starts_with("live vertices"), "{what}");
    assert_eq!((expected, found), (64, 65));
    let mut cp = checkpoint.clone();
    cp.vx[0].next_round = 0;
    assert_eq!(refused(&g, cp, &sim).0, "a live vertex's next round");
    let mut cp = checkpoint.clone();
    cp.round_pop.clear();
    assert!(refused(&g, cp, &sim).0.starts_with("live vertices"));
    // A live vertex ahead of every reconstructed round.
    let mut cp = checkpoint.clone();
    cp.vx[0].next_round = checkpoint.round + checkpoint.pending_rounds.len() as u64 + 2;
    assert_eq!(refused(&g, cp, &sim).0, "a live vertex's next round");

    // In-flight round packets that the receiver would never read, or that
    // the clock cannot take past. A tag beyond the receiver's window would
    // break the synchronizer's skew, and be buffered under a tag no round
    // reads.
    let at = checkpoint
        .queue
        .iter()
        .position(|p| p.tag >= 1 && !checkpoint.vx[p.dst].halted)
        .expect("a round packet to a live receiver is in flight");
    let (dst, tag) = (checkpoint.queue[at].dst, checkpoint.queue[at].tag);
    let mut cp = checkpoint.clone();
    cp.queue[at].tag += 5;
    let (what, expected, found) = refused(&g, cp, &sim);
    assert!(what.starts_with("a queued packet's tag"), "{what}");
    assert_eq!((expected, found), (checkpoint.vx[dst].next_round, tag + 5));
    // Opened, these two run into the end of the event queue: one arrives at
    // the last tick and its receiver's next sends overflow the clock; the
    // other never arrives, and its receiver waits on it forever.
    let stepped = |cp: SimCheckpoint<u64, u64>| {
        let mut sink = NullSink;
        let mut session = sim.open(&g, &probe, Some(cp), &mut sink).unwrap();
        loop {
            match session.step() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("a forged run completed"),
                Err(e) => break e,
            }
        }
    };
    let mut cp = checkpoint.clone();
    cp.queue[at].time = u64::MAX;
    assert!(
        matches!(
            stepped(cp),
            RuntimeError::ClockOverflow { now: u64::MAX, .. }
        ),
        "the clock overflowed without a typed error"
    );
    let mut cp = checkpoint.clone();
    let lost = cp.queue.remove(at);
    let ends = (lost.src.min(lost.dst), lost.src.max(lost.dst));
    let e = g.edges().position(|edge| edge == ends).unwrap();
    (cp.in_flight[e], cp.cur_in_flight) = (cp.in_flight[e] - 1, cp.cur_in_flight - 1);
    assert!(sim.open(&g, &probe, Some(cp.clone()), &mut sink).is_ok());
    match stepped(cp) {
        RuntimeError::CheckpointMismatch { what, expected, .. } => {
            assert!(what.starts_with("live vertices when"), "{what}");
            assert_eq!(expected, 0);
        }
        other => panic!("expected a CheckpointMismatch, got {other}"),
    }

    // A vertex's buffers out of the engine's form, every forged sender a
    // neighbour: unsorted or repeated keys, a pending bucket naming one
    // sender twice, a pending tag outside the window, empty entries.
    let v = 0;
    let (u0, u1) = (g.neighbors(v)[0], g.neighbors(v)[1]);
    let r = checkpoint.vx[v].next_round;
    let bucket = |senders: &[usize]| senders.iter().map(|&u| (u, Vec::new())).collect();
    let forged = |forge: &dyn Fn(&mut VertexCheckpoint<u64>)| {
        let mut cp = checkpoint.clone();
        forge(&mut cp.vx[v]);
        cp
    };
    let forgeries = [
        forged(&|x| x.pending = vec![(r, bucket(&[u0])), (r - 1, bucket(&[u0]))]),
        forged(&|x| x.pending = vec![(r, bucket(&[u0])), (r, bucket(&[u1]))]),
        forged(&|x| x.pending = vec![(r, bucket(&[u1, u0]))]),
        forged(&|x| x.pending = vec![(r, bucket(&[u0, u0]))]),
        forged(&|x| x.pending = vec![(r + 1, bucket(&[u0]))]),
        forged(&|x| x.pending = vec![(r - 2, bucket(&[u0]))]),
        forged(&|x| x.pending = vec![(r, Vec::new())]),
        forged(&|x| x.late = vec![(r + 2, vec![(u0, r, 0, 7)]), (r + 1, vec![(u0, r, 1, 7)])]),
        forged(&|x| x.late = vec![(r + 1, vec![(u0, r, 0, 7)]), (r + 1, vec![(u0, r, 1, 7)])]),
        forged(&|x| x.late = vec![(r + 1, vec![(u0, r, 0, 7), (u0, r, 0, 7)])]),
        forged(&|x| x.late = vec![(r + 1, Vec::new())]),
        forged(&|x| x.nbr_final_tag = vec![(u1, 0), (u0, 0)]),
        forged(&|x| x.nbr_final_tag = vec![(u0, 0), (u0, 0)]),
    ];
    for (i, cp) in forgeries.into_iter().enumerate() {
        let (what, vertex, next_round) = refused(&g, cp, &sim);
        assert!(what.starts_with("buffers of vertex"), "forgery {i}: {what}");
        assert_eq!((vertex, next_round), (v as u64, r), "forgery {i}");
    }

    // Round populations out of order, or one round listed twice, at a cut
    // where the skewed links spread the live vertices over two rounds.
    let mut sink = NullSink;
    let mut session = sim.open(&g, &probe, None, &mut sink).unwrap();
    let checkpoint = loop {
        session
            .step()
            .unwrap()
            .expect("the probe reaches a skewed cut");
        let cp = session.checkpoint();
        if cp.round_pop.len() >= 2 {
            break cp;
        }
    };
    let mut cp = checkpoint.clone();
    cp.round_pop.reverse();
    assert!(refused(&g, cp, &sim).0.starts_with("live vertices"));
    let mut cp = checkpoint.clone();
    cp.round_pop.insert(0, cp.round_pop[0]);
    assert!(refused(&g, cp, &sim).0.starts_with("live vertices"));

    // Program states that do not fit their vertex, in a faulted run.
    let lossy = SimEngine(
        Simulator::new(config),
        mfd_faults::FaultModel::iid_loss(0.2),
    );
    unfit_reliable_states_are_refused(&lossy, |cp| &mut cp.states);
}

/// What `engine`'s `open` refuses `cp` with, as `(what, expected, found)`.
fn refusal<P: NodeProgram, E: SessionEngine<P>>(
    engine: &E,
    g: &Graph,
    program: &P,
    cp: E::Checkpoint,
) -> (&'static str, u64, u64) {
    let mut sink = NullSink;
    let refused = engine.open(g, program, Some(cp), &mut sink).err();
    match refused {
        Some(RuntimeError::CheckpointMismatch {
            what,
            expected,
            found,
        }) => (what, expected, found),
        Some(other) => panic!("expected a CheckpointMismatch, got {other}"),
        None => panic!("a hostile checkpoint was accepted"),
    }
}

/// A vertex state of `Reliable<DivergenceProbe>`.
type ReliableProbeState = mfd_faults::ReliableState<u64, u64>;

/// `Reliable<probe>` on the 8x8 grid: every cut of the run reopens, to the
/// last round. The cut after round 6 then has vertex 0's state forged ten
/// ways: each is refused by `engine`'s `open` as a program state that does
/// not fit vertex 0 (`Reliable`'s `fits`), before the first step. The first
/// four would index out of range in the adapter's round, or underflow in
/// `Reliable::stats`: one send or receive window short of the degree, a
/// retransmission window past the messages sent, more payload frames than
/// frames. The next four break an order every run keeps — one window too
/// many, an ack past what was sent, deliveries past the received prefix, a
/// pending message below the delivered count — and would run on silently, or
/// wedge. The last two hold counters no run of six rounds reaches, at
/// `u64::MAX`: the next round's `frames_sent + 1` or `inner_round + 1` would
/// overflow.
fn unfit_reliable_states_are_refused<E>(
    engine: &E,
    states: fn(&mut E::Checkpoint) -> &mut Vec<ReliableProbeState>,
) where
    E: SessionEngine<mfd_faults::Reliable<mfd_bench::trace::DivergenceProbe>>,
    E::Checkpoint: Clone,
{
    let g = generators::triangulated_grid(8, 8);
    let program = mfd_faults::Reliable::new(mfd_bench::trace::DivergenceProbe::clean(12));
    let (mut sink, mut reopened) = (NullSink, NullSink);
    let mut session = engine.open(&g, &program, None, &mut sink).unwrap();
    let mut at_6 = None;
    while let Some(round) = E::step(&mut session).unwrap() {
        let cp = E::checkpoint(&session);
        let reopen = engine.open(&g, &program, Some(cp.clone()), &mut reopened);
        assert!(
            reopen.is_ok(),
            "the cut after round {round} was refused: {:?}",
            reopen.err()
        );
        if round >= 6 && at_6.is_none() {
            at_6 = Some(cp);
        }
    }
    drop(session);
    let mut checkpoint = at_6.expect("the probe runs past round 6");

    let v = 0;
    let intact = &states(&mut checkpoint)[v];
    assert!(!intact.done, "vertex {v} has halted; nothing steps it");
    let e = intact.rx.iter().position(|rx| rx.delivered > 0);
    let e = e.expect("vertex 0 had mail delivered by round 6");
    let forged = |forge: &dyn Fn(&mut ReliableProbeState)| {
        let mut cp = checkpoint.clone();
        forge(&mut states(&mut cp)[v]);
        cp
    };
    let forgeries = [
        forged(&|s| drop(s.tx.pop())),
        forged(&|s| drop(s.rx.pop())),
        forged(&|s| {
            let tx = &mut s.tx[0];
            (tx.acked, tx.last_progress) = (tx.sent.len() as u64 + 100, 0);
            tx.tx_next = tx.acked + 1;
        }),
        forged(&|s| s.payload_frames = s.frames_sent + (1 << 40)),
        forged(&|s| s.tx.push(s.tx[0].clone())),
        forged(&|s| s.tx[0].acked = s.tx[0].tx_next + 1),
        forged(&|s| s.rx[e].delivered = s.rx[e].prefix + 1),
        forged(&|s| {
            let below = s.rx[e].delivered - 1;
            s.rx[e].pending.insert(below, (1, 7));
        }),
        forged(&|s| (s.frames_sent, s.payload_frames) = (u64::MAX, u64::MAX)),
        forged(&|s| s.inner_round = u64::MAX),
    ];
    for (i, cp) in forgeries.into_iter().enumerate() {
        let verdict = refusal(engine, &g, &program, cp);
        let degree = g.degree(v) as u64;
        assert_eq!(verdict, ("program state", v as u64, degree), "forgery {i}");
    }
}
