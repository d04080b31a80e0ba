//! Scale-layer acceptance: the streaming `mfd_graph::gen` generators and the
//! sharded CSR executor.
//!
//! Three properties are pinned here rather than in unit tests because they
//! span crates: (1) the streaming generators are pure functions of their
//! parameters that always emit *valid* CSR (sorted, deduplicated, symmetric,
//! loop-free) and agree with the adjacency-map construction path at small n;
//! (2) the sharded executor is bit-identical to the unsharded engine —
//! states, meters and digest chains — across shard and thread counts; and
//! (3) the `*_csr` entry points of `mfd-core` are a pure representation
//! boundary, returning exactly what their adjacency-map twins return.

use mfd_congest::{primitives, RoundMeter};
use mfd_core::clustering::Clustering;
use mfd_core::edt::{build_edt, build_edt_csr, build_edt_with, EdtConfig};
use mfd_core::programs::{
    run_bfs, run_bfs_csr, run_voronoi_ldd, run_voronoi_ldd_csr, BfsProgram, ColeVishkinProgram,
    VoronoiLddProgram,
};
use mfd_graph::properties::splitmix64;
use mfd_graph::{gen, generators, CsrGraph, Graph};
use mfd_routing::backend::{Executed, Metered};
use mfd_runtime::{Executor, ExecutorConfig, NodeProgram, ShardedConfig, ShardedExecutor};
use mfd_trace::DigestSink;
use proptest::prelude::*;

/// Structural validity of a CSR graph: monotone offsets, strictly ascending
/// neighbor rows (sorted + deduplicated), no self-loops, symmetry, and a
/// consistent edge count.
fn assert_valid_csr(g: &CsrGraph) {
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

    /// At small n the streaming emitters agree with the adjacency-map
    /// construction path: rebuilding the emitted edge list through `Graph`
    /// (whose `add_edge` deduplicates one insert at a time) and converting
    /// back yields the identical CSR — both paths drop the same self-loops
    /// and duplicates.
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
            let mut adjacency = Graph::new(g.n());
            for (u, v) in g.edges() {
                adjacency.add_edge(u, v);
            }
            prop_assert_eq!(CsrGraph::from_graph(&adjacency), g.clone());
            prop_assert_eq!(CsrGraph::from_graph(&g.to_graph()), g);
        }
    }

    /// `CsrGraph::induced_subgraph` is `Graph::induced_subgraph` followed by
    /// the conversion, for member lists in any order, on the hash-map path
    /// (`8·|S| < n`) and on the dense one — and rejects what its twin rejects.
    #[test]
    fn csr_induced_subgraph_matches_the_adjacency_map_twin(
        n in 2usize..120,
        edge_factor in 1usize..4,
        keep in 1usize..100,
        seed in 0u64..1000,
    ) {
        let g = generators::random_gnm(n, edge_factor * n, seed);
        let csr = CsrGraph::from_graph(&g);
        // A shuffled subset: order the vertices by a seeded hash, keep a
        // prefix (down to a single vertex, up to every one).
        let mut members: Vec<usize> = (0..n).collect();
        members.sort_unstable_by_key(|&v| splitmix64(seed ^ ((v as u64) << 20)));
        members.truncate((keep * n).div_ceil(100));
        for take in [members.len(), members.len().min(n / 9)] {
            let members = &members[..take];
            let (sub, map) = csr.induced_subgraph(members);
            let (expected, expected_map) = g.induced_subgraph(members);
            assert_valid_csr(&sub);
            prop_assert_eq!(sub, CsrGraph::from_graph(&expected));
            prop_assert_eq!(map, expected_map);
        }
        let rejected = |bad: usize| {
            let mut members = members.clone();
            members.push(bad);
            let by_csr = std::panic::catch_unwind(|| csr.induced_subgraph(&members)).is_err();
            let by_graph = std::panic::catch_unwind(|| g.induced_subgraph(&members)).is_err();
            by_csr && by_graph
        };
        prop_assert!(rejected(members[0]), "duplicate member");
        prop_assert!(rejected(n), "out-of-range member");
    }

    /// The sharded executor is bit-identical to the unsharded engine on
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

/// One differential run: `program` on the unsharded executor against the
/// sharded one at `shards` shards and 2 threads.
fn sharded_matches_unsharded<P>(g: &Graph, program: &P, shards: usize)
where
    P: NodeProgram,
    P::State: PartialEq + std::fmt::Debug,
{
    let reference = Executor::new(ExecutorConfig::default())
        .run(g, program)
        .unwrap();
    let run = ShardedExecutor::new(ShardedConfig::with_shards_threads(shards, 2))
        .run(&CsrGraph::from_graph(g), program)
        .unwrap();
    assert_eq!(run.states, reference.states);
    assert_eq!(run.rounds, reference.rounds);
    assert_eq!(run.messages, reference.messages);
    assert_eq!(
        run.meter.max_words_on_edge(),
        reference.meter.max_words_on_edge()
    );
}

/// The mesh family, pinned against a hand-built adjacency construction.
#[test]
fn mesh_generator_matches_a_hand_built_grid() {
    let (rows, cols) = (5, 7);
    let mut manual = Graph::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                manual.add_edge(v, v + 1);
            }
            if r + 1 < rows {
                manual.add_edge(v, v + cols);
            }
            if c + 1 < cols && r + 1 < rows {
                manual.add_edge(v, v + cols + 1); // the triangulating diagonal
            }
        }
    }
    assert_eq!(gen::mesh(rows, cols), CsrGraph::from_graph(&manual));
}

/// Digest chains — not just final states — agree between engines and across
/// shard and thread counts on a generated power-law graph.
#[test]
fn digest_chains_are_shard_and_thread_invariant() {
    let csr = gen::power_law(256, 1024, 2.5, 0xC5A1E);
    let g = csr.to_graph();
    let program = BfsProgram { root: 0 };

    let mut reference = DigestSink::new();
    let expected = Executor::new(ExecutorConfig::default())
        .run_traced(&g, &program, &mut reference)
        .unwrap();

    for shards in [1, 3, 16, 256] {
        for threads in [1, 3] {
            let mut sink = DigestSink::new();
            let run = ShardedExecutor::new(ShardedConfig::with_shards_threads(shards, threads))
                .run_traced(&csr, &program, &mut sink)
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

/// The `*_csr` entry points are a pure representation boundary: identical
/// results and identical meters to their adjacency-map twins.
#[test]
fn csr_entry_points_match_their_adjacency_map_twins() {
    let executor = Executor::new(ExecutorConfig::default());
    let sharded = ShardedExecutor::new(ShardedConfig::default());
    for g in [
        generators::triangulated_grid(9, 6),
        generators::wheel(48),
        gen::rmat(6, 3, 7).to_graph(),
    ] {
        let csr = CsrGraph::from_graph(&g);

        let (bfs, meter) = run_bfs(&g, 0, &executor).unwrap();
        let (bfs_csr, meter_csr) = run_bfs_csr(&csr, 0, &sharded).unwrap();
        assert_eq!(bfs_csr.parent, bfs.parent);
        assert_eq!(bfs_csr.depth, bfs.depth);
        assert_eq!(bfs_csr.height, bfs.height);
        assert_eq!(meter_csr.rounds(), meter.rounds());
        assert_eq!(meter_csr.messages(), meter.messages());

        let centers = [0, g.n() / 3, g.n() - 1];
        let (clustering, lmeter) = run_voronoi_ldd(&g, &centers, &executor).unwrap();
        let (labels, lmeter_csr) = run_voronoi_ldd_csr(&csr, &centers, &sharded).unwrap();
        // `run_voronoi_ldd` canonicalizes labels through `Clustering`;
        // materializing the raw CSR labels the same way must coincide.
        assert_eq!(Clustering::from_labels(&g, labels), clustering);
        assert_eq!(lmeter_csr.rounds(), lmeter.rounds());
        assert_eq!(lmeter_csr.messages(), lmeter.messages());

        let (edt, emeter) = build_edt(&g, &EdtConfig::new(0.3));
        let (edt_csr, emeter_csr) = build_edt_csr(&csr, &EdtConfig::new(0.3), &Metered);
        assert_eq!(edt_csr.clustering, edt.clustering);
        assert_eq!(edt_csr.epsilon_achieved, edt.epsilon_achieved);
        assert_eq!(emeter_csr.rounds(), emeter.rounds());
        assert_eq!(emeter_csr.messages(), emeter.messages());

        // Executed, the CSR input is more than a detour: the whole-graph
        // cluster rounds run on it as handed in.
        let backend = Executed::default();
        let (run, rmeter) = build_edt_with(&csr.to_graph(), &EdtConfig::new(0.3), &backend);
        let (run_csr, rmeter_csr) = build_edt_csr(&csr, &EdtConfig::new(0.3), &backend);
        assert_eq!(run_csr.clustering, run.clustering);
        assert_eq!(run_csr.routing_rounds, run.routing_rounds);
        assert_eq!(rmeter_csr.rounds(), rmeter.rounds());
        assert_eq!(rmeter_csr.messages(), rmeter.messages());
        assert_eq!(rmeter_csr.max_words_on_edge(), rmeter.max_words_on_edge());
    }
}
