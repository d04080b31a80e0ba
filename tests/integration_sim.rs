//! Cross-engine integration tests for the `mfd-sim` asynchronous simulator:
//! property tests that unit-latency simulation is indistinguishable from
//! synchronous execution on random graphs and seeds, that simulations are
//! deterministic and independent of event-queue tie-breaking under every
//! latency model, and that the synchronizer handles disconnected inputs.

use mfd_congest::{primitives, RoundMeter};
use mfd_core::programs::{BfsProgram, ColeVishkinProgram, VoronoiLddProgram};
use mfd_graph::properties::splitmix64;
use mfd_graph::{generators, Graph, WeightedGraph};
use mfd_runtime::ExecutorConfig;
use mfd_sim::{run_both, LatencyModel, SimConfig, Simulator, TieBreak};
use proptest::prelude::*;

/// A random connected graph: a uniform random tree plus random chords.
fn random_connected(n: usize, extra: usize, seed: u64) -> Graph {
    let tree = generators::random_tree(n, seed);
    generators::with_random_chords(&tree, extra, splitmix64(seed))
}

/// BFS spanning-forest parent pointers, for Cole–Vishkin instances.
fn spanning_forest(g: &Graph) -> Vec<usize> {
    let mut meter = RoundMeter::new();
    primitives::build_bfs_tree(g, None, 0, &mut meter)
        .parent
        .clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// With `Fixed(1)` latency the simulator matches the synchronous
    /// executor state-for-state (public outputs), round-for-round and
    /// message-for-message, for all three ported programs, on random
    /// connected graphs across random sizes, densities and seeds.
    #[test]
    fn unit_latency_simulation_equals_synchronous_execution(
        n in 2usize..32,
        extra in 0usize..40,
        seed in 0u64..1_000_000,
    ) {
        let g = random_connected(n, extra, seed);
        let cfg = ExecutorConfig {
            seed: splitmix64(seed ^ 0xC0FFEE),
            ..ExecutorConfig::default()
        };

        let (sync, sim) =
            run_both(&g, &BfsProgram { root: 0 }, &cfg, LatencyModel::Fixed(1)).unwrap();
        prop_assert!(sync
            .states
            .iter()
            .zip(&sim.states)
            .all(|(a, b)| a.depth == b.depth && a.parent == b.parent));
        prop_assert_eq!(sync.rounds, sim.rounds);
        prop_assert_eq!(sync.messages, sim.messages);
        prop_assert_eq!(sync.meter.max_words_on_edge(), sim.meter.max_words_on_edge());

        let centers = [0, n / 2];
        let voronoi = VoronoiLddProgram::new(g.n(), &centers);
        let (sync, sim) = run_both(&g, &voronoi, &cfg, LatencyModel::Fixed(1)).unwrap();
        prop_assert!(sync
            .states
            .iter()
            .zip(&sim.states)
            .all(|(a, b)| a.center == b.center && a.dist == b.dist));
        prop_assert_eq!(sync.rounds, sim.rounds);
        prop_assert_eq!(sync.messages, sim.messages);

        let id: Vec<u64> = (0..g.n() as u64).map(splitmix64).collect();
        let cv = ColeVishkinProgram::new(spanning_forest(&g), id);
        let (sync, sim) = run_both(&g, &cv, &cfg, LatencyModel::Fixed(1)).unwrap();
        prop_assert!(sync
            .states
            .iter()
            .zip(&sim.states)
            .all(|(a, b)| a.color == b.color && a.old_color == b.old_color));
        prop_assert_eq!(sync.rounds, sim.rounds);
        prop_assert_eq!(sync.messages, sim.messages);
    }

    /// Simulator results are a pure function of `(graph, program, config)`:
    /// re-running is bit-identical, and flipping the event-queue tie-break
    /// order changes nothing — states, times, congestion peaks, packet
    /// counts all agree.
    #[test]
    fn simulation_is_deterministic_and_tie_break_independent(
        n in 2usize..24,
        extra in 0usize..24,
        seed in 0u64..1_000_000,
    ) {
        let g = random_connected(n, extra, seed);
        for latency in [
            LatencyModel::Fixed(2),
            LatencyModel::Uniform { lo: 1, hi: 7 },
            LatencyModel::HeavyTail { min: 1, alpha: 1.4, cap: 32 },
        ] {
            let base = SimConfig::default().with_latency(latency);
            let a = Simulator::new(base.clone())
                .run(&g, &BfsProgram { root: 0 })
                .unwrap();
            let b = Simulator::new(base.clone())
                .run(&g, &BfsProgram { root: 0 })
                .unwrap();
            let c = Simulator::new(SimConfig { tie_break: TieBreak::ReverseInsertion, ..base })
                .run(&g, &BfsProgram { root: 0 })
                .unwrap();
            for other in [&b, &c] {
                prop_assert!(a
                    .states
                    .iter()
                    .zip(&other.states)
                    .all(|(x, y)| x.depth == y.depth && x.parent == y.parent));
                prop_assert_eq!(a.makespan, other.makespan);
                prop_assert_eq!(&a.completion, &other.completion);
                prop_assert_eq!(a.rounds, other.rounds);
                prop_assert_eq!(a.messages, other.messages);
                prop_assert_eq!(a.stats.packets, other.stats.packets);
                prop_assert_eq!(a.stats.peak_in_flight, other.stats.peak_in_flight);
                prop_assert_eq!(&a.stats.edge_in_flight_peak, &other.stats.edge_in_flight_peak);
            }
            // Rounds are a property of the algorithm, not the network;
            // the virtual clock can only run at least as long.
            prop_assert!(a.makespan + 1 >= a.rounds);
        }
    }
}

/// On a disconnected graph the two engines end differently — the frontier
/// executor breaks at the quiescence fixpoint, the simulator runs the
/// unreachability timeout — but the public outputs must agree exactly.
#[test]
fn disconnected_graphs_agree_on_public_outputs() {
    let g = generators::path(5).disjoint_union(&generators::cycle(4));
    let (sync, sim) = run_both(
        &g,
        &BfsProgram { root: 0 },
        &ExecutorConfig::default(),
        LatencyModel::Fixed(1),
    )
    .unwrap();
    assert!(sync
        .states
        .iter()
        .zip(&sim.states)
        .all(|(a, b)| a.depth == b.depth && a.parent == b.parent));
    assert!(sync.states[5..].iter().all(|s| s.depth.is_none()));
    // The executor stops as soon as the reachable component is done and the
    // rest of the graph is quiescent; the simulator's unreached vertices run
    // the full `round > n` timeout before halting.
    assert!(sync.rounds <= sim.rounds);
}

/// Per-edge latencies drawn from a weighted graph: the heavier the link on
/// the wave's path, the later the completion, while results stay identical.
#[test]
fn per_edge_latency_orders_completions_along_the_path() {
    let g = generators::path(4);
    let weights = WeightedGraph::from_edges(4, [(0, 1, 1), (1, 2, 8), (2, 3, 2)]);
    let sim = Simulator::new(SimConfig::default().with_latency(LatencyModel::PerEdge(weights)));
    let run = sim.run(&g, &BfsProgram { root: 0 }).unwrap();
    assert_eq!(
        run.states.iter().map(|s| s.depth).collect::<Vec<_>>(),
        vec![Some(0), Some(1), Some(2), Some(3)]
    );
    // The wave crosses the 8-tick middle edge exactly once.
    assert!(run.completion[2] > run.completion[1]);
    assert!(run.completion[3] > run.completion[2]);
}
