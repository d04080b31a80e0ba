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
use mfd_graph::{gen, generators, Graph};
use mfd_runtime::{
    Envelope, ExecCheckpoint, Executor, ExecutorConfig, NodeProgram, RuntimeError, ShardedConfig,
    ShardedExecutor,
};
use mfd_trace::{DigestSink, DigestState, NullSink};
use proptest::prelude::*;

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
    /// member lists in any order, on the hash-map path (`8·|S| < n`) and on
    /// the dense one; it rejects duplicate and out-of-range members.
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
        let mut session = exec.start(g, program, &mut sink);
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
            let mut session = exec.restore(g, program, cp, &mut sink).unwrap();
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
    let mut session = exec.start(&g, &probe, &mut sink);
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
    let mut session = tight.restore(&g, &probe, checkpoint, &mut sink).unwrap();
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
        let mut sink = NullSink;
        match exec.restore(g, &probe, cp, &mut sink) {
            Err(RuntimeError::CheckpointMismatch {
                what,
                expected,
                found,
            }) => (what, expected, found),
            Err(other) => panic!("expected a CheckpointMismatch, got {other}"),
            Ok(_) => panic!("a hostile checkpoint was accepted"),
        }
    };
    // The intact checkpoint is accepted.
    let mut sink = NullSink;
    assert!(exec
        .restore(&g, &probe, checkpoint.clone(), &mut sink)
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
        exec.restore(&g, &short, checkpoint, &mut sink),
        Err(RuntimeError::CheckpointMismatch {
            expected: 3,
            found: 4,
            ..
        })
    ));
}

/// The event engine's twin of the test above: a `SimCheckpoint` is decoded
/// from bytes just the same, and `Simulator::restore` follows its indices
/// into the graph's edge list and trusts its counters — so one that does not
/// fit is a typed error too, never a panic (or an allocation, or a hang).
#[test]
fn hostile_sim_checkpoints_are_refused_with_a_typed_error() {
    use mfd_sim::{LatencyModel, NoFaults, PacketCheckpoint, SimCheckpoint, SimConfig, Simulator};

    let g = generators::triangulated_grid(8, 8);
    let probe = mfd_bench::trace::DivergenceProbe::clean(12);
    let config = SimConfig::default().with_latency(LatencyModel::Uniform { lo: 1, hi: 3 });
    let sim = Simulator::new(config.clone());
    let mut sink = NullSink;
    let mut session = sim.start(&g, &probe, &NoFaults, &mut sink).unwrap();
    while session
        .step()
        .unwrap()
        .expect("the probe runs past round 4")
        < 4
    {}
    let checkpoint = session.checkpoint();
    assert!(!checkpoint.queue.is_empty(), "nothing in flight to forge");

    let refused = |g: &Graph, cp: SimCheckpoint<u64, u64>, sim: &Simulator| {
        let mut sink = NullSink;
        match sim.restore(g, &probe, &NoFaults, cp, &mut sink) {
            Err(RuntimeError::CheckpointMismatch {
                what,
                expected,
                found,
            }) => (what, expected, found),
            Err(other) => panic!("expected a CheckpointMismatch, got {other}"),
            Ok(_) => panic!("a hostile checkpoint was accepted"),
        }
    };
    // The intact checkpoint is accepted.
    assert!(sim
        .restore(&g, &probe, &NoFaults, checkpoint.clone(), &mut sink)
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
    let tight = Simulator::new(SimConfig {
        max_rounds: 3,
        ..config
    });
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
}
