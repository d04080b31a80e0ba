//! Cross-crate integration tests for the §2 information-gathering machinery,
//! including property-based tests (proptest) on the metering and gathering
//! invariants.

use mfd_congest::{primitives, Message, RoundMeter};
use mfd_graph::{generators, Graph};
use mfd_routing::gather::{gather_to_leader, GatherStrategy};
use mfd_routing::split::ExpanderSplit;
use mfd_routing::walks::{plan_walk_schedule, WalkParams};
use proptest::prelude::*;

#[test]
fn every_strategy_delivers_on_minor_free_expanders() {
    // Wheels are the canonical planar graphs with a Θ(n)-degree vertex — exactly the
    // structure Lemma 2.7 guarantees inside minor-free expanders.
    let g = generators::wheel(96);
    for (strategy, floor) in [
        (GatherStrategy::TreePipeline, 1.0),
        (GatherStrategy::LoadBalance, 0.9),
        (GatherStrategy::WalkSchedule(WalkParams::default()), 0.8),
    ] {
        let mut meter = RoundMeter::new();
        let report = gather_to_leader(&g, 0, 0.1, &strategy, &mut meter);
        assert!(
            report.delivered_fraction >= floor,
            "{} delivered only {}",
            report.strategy,
            report.delivered_fraction
        );
        assert_eq!(report.rounds, meter.rounds());
    }
}

#[test]
fn walk_schedules_are_deterministic_and_reusable() {
    let g = generators::hypercube(5);
    let p1 = plan_walk_schedule(&g, 0, 0.1, &WalkParams::default());
    let p2 = plan_walk_schedule(&g, 0, 0.1, &WalkParams::default());
    assert_eq!(p1.schedule, p2.schedule);
    assert!(p1.good_fraction >= 0.85);
}

#[test]
fn expander_split_of_planar_graphs_has_bounded_degree() {
    for g in [
        generators::random_apollonian(200, 3),
        generators::wheel(150),
        generators::triangulated_grid(10, 10),
    ] {
        let split = ExpanderSplit::build(&g);
        assert!(split.max_degree() <= 10);
        assert_eq!(split.external.len(), g.m());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The meter counts exactly one round per submitted round and never accepts a
    /// message along a non-edge.
    #[test]
    fn meter_counts_rounds_and_rejects_non_edges(n in 4usize..40, seed in 0u64..1000) {
        let g = generators::random_gnm(n, 2 * n, seed);
        let mut meter = RoundMeter::new();
        let mut expected = 0u64;
        for (u, v) in g.edges().take(10) {
            meter.round(&g, &[Message::word(u, v)]).unwrap();
            expected += 1;
        }
        prop_assert_eq!(meter.rounds(), expected);
        // A self-loop message is never a valid edge.
        let err = meter.round(&g, &[Message::word(0, 0)]);
        prop_assert!(err.is_err());
    }

    /// Pipelined tree gather always delivers every message of a connected graph, and
    /// uses at least max(height, messages-through-root-bottleneck) rounds.
    #[test]
    fn tree_gather_delivers_everything(rows in 2usize..6, cols in 2usize..6) {
        let g = generators::grid(rows, cols);
        let mut meter = RoundMeter::new();
        let tree = primitives::build_bfs_tree(&g, None, 0, &mut meter);
        let counts: Vec<usize> = (0..g.n()).map(|v| g.degree(v)).collect();
        let delivered = primitives::upcast_pipeline(&g, &tree, &counts, &mut meter);
        prop_assert_eq!(delivered as usize, 2 * g.m());
        prop_assert!(meter.rounds() >= tree.height as u64);
    }

    /// The gather API reports per-vertex deliveries that sum to the global count and
    /// never exceed the vertex degree.
    #[test]
    fn gather_reports_are_internally_consistent(n in 5usize..30, seed in 0u64..500) {
        let g = generators::random_apollonian(n.max(4), seed);
        let leader = (0..g.n()).max_by_key(|&v| g.degree(v)).unwrap();
        let mut meter = RoundMeter::new();
        let report = gather_to_leader(&g, leader, 0.2, &GatherStrategy::TreePipeline, &mut meter);
        let sum: usize = report.per_vertex_delivered.iter().sum();
        prop_assert_eq!(sum, 2 * g.m());
        for v in 0..g.n() {
            prop_assert!(report.per_vertex_delivered[v] <= g.degree(v));
        }
    }

    /// The expander split is always a simple graph with one port per edge endpoint
    /// and constant-degree gadgets, for arbitrary (not necessarily minor-free)
    /// inputs.
    #[test]
    fn expander_split_structure(n in 2usize..40, extra in 0usize..60, seed in 0u64..100) {
        let g = generators::random_gnm(n, n + extra, seed);
        let split = ExpanderSplit::build(&g);
        prop_assert_eq!(split.external.len(), g.m());
        let expected_ports: usize = (0..g.n()).map(|v| g.degree(v).max(1)).sum();
        prop_assert_eq!(split.num_ports(), expected_ports);
        for &((u, v), (pu, pv)) in &split.external {
            prop_assert_eq!(split.owner[pu], u);
            prop_assert_eq!(split.owner[pv], v);
        }
    }
}

#[test]
fn congest_bandwidth_is_never_exceeded_by_bfs_and_convergecast() {
    // The primitives promise ≤ 1 word per directed edge per round; RoundMeter::round
    // enforces it, so simply running them is the test.
    for g in [
        generators::triangulated_grid(8, 8),
        generators::wheel(60),
        generators::random_tree(120, 3),
    ] {
        let mut meter = RoundMeter::new();
        let tree = primitives::build_bfs_tree(&g, None, 0, &mut meter);
        let degrees: Vec<u64> = (0..g.n()).map(|v| g.degree(v) as u64).collect();
        primitives::convergecast_argmax(&g, &tree, &degrees, &mut meter);
        primitives::convergecast_sum(&g, &tree, &degrees, &mut meter);
        assert!(meter.max_words_on_edge() <= meter.capacity_words());
    }
}

#[test]
fn gather_works_on_disconnected_and_tiny_graphs() {
    let mut meter = RoundMeter::new();
    let g = Graph::new(1);
    let report = gather_to_leader(&g, 0, 0.1, &GatherStrategy::TreePipeline, &mut meter);
    assert!((report.delivered_fraction - 1.0).abs() < 1e-12);
    assert_eq!(report.rounds, 0);
}
