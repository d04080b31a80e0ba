//! Cross-crate integration tests for the decomposition pipeline: graph generators →
//! CONGEST metering → routing → (ε, D, T)-decomposition, exercised end to end on the
//! graph families the paper's theorems quantify over.

use mfd_congest::RoundMeter;
use mfd_core::edt::{build_edt, build_edt_with, EdtConfig};
use mfd_core::expander::{min_cluster_conductance, minor_free_expander_decomposition};
use mfd_core::ldd::{chop_ldd, measure_ldd};
use mfd_core::overlap::{overlap_expander_decomposition, OverlapParams};
use mfd_graph::{generators, planarity, Graph};
use mfd_routing::backend::Executed;
use mfd_routing::gather::GatherStrategy;
use mfd_routing::walks::WalkParams;
use mfd_sim::SimConfig;
use proptest::prelude::*;

fn planar_instances() -> Vec<(&'static str, Graph)> {
    vec![
        (
            "triangulated-grid-12x12",
            generators::triangulated_grid(12, 12),
        ),
        ("apollonian-300", generators::random_apollonian(300, 17)),
        ("grid-15x15", generators::grid(15, 15)),
        ("wheel-120", generators::wheel(120)),
        ("outerplanar-150", generators::random_outerplanar(150, 9)),
        ("k-tree-2-200", generators::k_tree(200, 2, 21)),
        ("random-tree-250", generators::random_tree(250, 33)),
    ]
}

#[test]
fn generators_produce_minor_free_graphs() {
    for (name, g) in planar_instances() {
        assert!(g.is_connected(), "{name} must be connected");
        if !name.starts_with("k-tree") {
            assert!(planarity::is_planar(&g), "{name} must be planar");
        }
        assert!(
            mfd_graph::properties::degeneracy(&g) <= 5,
            "{name} must have planar-grade degeneracy"
        );
    }
}

#[test]
fn edt_is_valid_on_every_planar_instance() {
    for (name, g) in planar_instances() {
        for epsilon in [0.4, 0.2] {
            let (d, meter) = build_edt(&g, &EdtConfig::new(epsilon));
            assert!(
                d.is_valid(&g),
                "{name} eps {epsilon}: invalid decomposition"
            );
            assert!(
                d.epsilon_achieved <= epsilon + 1e-9,
                "{name} eps {epsilon}: fraction {}",
                d.epsilon_achieved
            );
            assert!(
                d.clustering.all_clusters_connected(&g),
                "{name}: disconnected cluster"
            );
            assert!(meter.rounds() > 0, "{name}: no rounds charged");
            assert!(
                (d.min_delivered_fraction - 1.0).abs() < 1e-9,
                "{name}: tree routing must deliver everything"
            );
        }
    }
}

#[test]
fn edt_diameter_tracks_one_over_epsilon_on_large_thin_graphs() {
    // A long path has huge diameter, so the decomposition must actually cut it into
    // O(1/ε)-diameter pieces.
    let g = generators::path(2000);
    for epsilon in [0.4, 0.2, 0.1] {
        let config = EdtConfig::new(epsilon);
        let (d, _) = build_edt(&g, &config);
        assert!(d.epsilon_achieved <= epsilon + 1e-9);
        assert!(
            d.diameter <= config.diameter_target(),
            "eps {epsilon}: diameter {} exceeds target {}",
            d.diameter,
            config.diameter_target()
        );
    }
}

#[test]
fn edt_with_walk_schedule_routing_still_validates() {
    let g = generators::triangulated_grid(9, 9);
    let config = EdtConfig::new(0.3)
        .with_routing_gather(GatherStrategy::WalkSchedule(WalkParams::default()));
    let (d, meter) = build_edt(&g, &config);
    assert!(d.epsilon_achieved <= 0.3 + 1e-9);
    assert!(d.routing_rounds > 0);
    assert!(meter.rounds() >= d.routing_rounds);
    // Grid clusters are not expanders, so the walk gatherer legitimately delivers
    // only part of the messages in one execution (the paper's guarantee assumes
    // φ-expander clusters); it must still deliver a solid majority.
    assert!(
        d.min_delivered_fraction >= 0.5,
        "delivered {}",
        d.min_delivered_fraction
    );
}

#[test]
fn ldd_and_overlap_and_expander_decompositions_compose() {
    let g = generators::random_apollonian(250, 8);
    // Corollary 6.1-style LDD.
    let ldd = chop_ldd(&g, 0.25, 3);
    let q = measure_ldd(&g, &ldd);
    assert!(q.edge_fraction <= 0.25 + 1e-9);
    assert!(q.max_diameter < usize::MAX);

    // §4 overlap decomposition.
    let mut meter = RoundMeter::new();
    let overlap = overlap_expander_decomposition(&g, 0.35, &OverlapParams::default(), &mut meter);
    assert!(overlap.edge_fraction <= 0.35 + 1e-9);
    assert!(overlap.check_invariants(&g));

    // Observation 3.1 expander decomposition.
    let exp = minor_free_expander_decomposition(&g, 0.5);
    assert!(exp.clustering.all_clusters_connected(&g));
    let phi = min_cluster_conductance(&g, &exp.clustering, 60);
    assert!(phi > 0.0);
}

/// The executed-decomposition acceptance families: every `build_edt` claim
/// about the `Executed` backend is pinned on these (mirrors the executed
/// gather layer's acceptance set).
fn edt_acceptance_families() -> Vec<(&'static str, Graph, f64)> {
    mfd_bench::edt_acceptance_families()
}

/// Acceptance bar of the executed construction: on every acceptance
/// family the `Executed` backend yields the *same decomposition* as the
/// `Metered` one, valid, with every executed round inside the metered
/// charge — construction and routing separately.
#[test]
fn executed_decomposition_within_metered_charge_on_acceptance_families() {
    for (name, g, eps) in edt_acceptance_families() {
        let config = EdtConfig::new(eps);
        let (metered, charged) = build_edt(&g, &config);
        let (executed, spent) = build_edt_with(&g, &config, &Executed::default());
        assert!(
            executed.is_valid(&g),
            "{name}: executed decomposition invalid"
        );
        assert_eq!(
            metered.clustering, executed.clustering,
            "{name}: backends disagree on the partition"
        );
        assert_eq!(metered.leaders, executed.leaders, "{name}");
        assert!(
            spent.rounds() <= charged.rounds(),
            "{name}: executed {} rounds exceed the metered {}",
            spent.rounds(),
            charged.rounds()
        );
        assert!(
            executed.construction_rounds <= metered.construction_rounds,
            "{name}: construction executed {} > charged {}",
            executed.construction_rounds,
            metered.construction_rounds
        );
        assert!(
            executed.routing_rounds <= metered.routing_rounds,
            "{name}: routing executed {} > charged {}",
            executed.routing_rounds,
            metered.routing_rounds
        );
        assert!(executed.routing_rounds > 0, "{name}");
    }
}

/// The full construction is engine-invariant: running the `Executed` backend
/// on the synchronous executor and on the `Fixed(1)` event simulation gives
/// bit-identical decompositions and bit-identical accounting.
#[test]
fn executed_decomposition_is_bit_identical_across_engines() {
    for (name, g, eps) in edt_acceptance_families() {
        let config = EdtConfig::new(eps);
        let (sync, sync_meter) = build_edt_with(&g, &config, &Executed::default());
        let (sim, sim_meter) = build_edt_with(&g, &config, &Executed::sim(SimConfig::default()));
        assert_eq!(sync.clustering, sim.clustering, "{name}");
        assert_eq!(sync.leaders, sim.leaders, "{name}");
        assert_eq!(sync.construction_rounds, sim.construction_rounds, "{name}");
        assert_eq!(sync.routing_rounds, sim.routing_rounds, "{name}");
        assert_eq!(
            sync.min_delivered_fraction, sim.min_delivered_fraction,
            "{name}"
        );
        assert_eq!(sync.routing_strategy, sim.routing_strategy, "{name}");
        assert_eq!(sync_meter.rounds(), sim_meter.rounds(), "{name}");
        assert_eq!(sync_meter.messages(), sim_meter.messages(), "{name}");
        assert_eq!(
            sync_meter.max_words_on_edge(),
            sim_meter.max_words_on_edge(),
            "{name}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random apollonian clusters: the executed backend's decomposition is
    /// valid, equals the metered backend's partition (the clustering
    /// decisions are deterministic and backend-independent), and spends no
    /// more rounds than the metered path charges.
    #[test]
    fn executed_edt_matches_metered_on_random_apollonians(
        n in 24usize..120,
        seed in 0u64..300,
        eps_idx in 0usize..3,
    ) {
        let g = generators::random_apollonian(n, seed);
        let config = EdtConfig::new([0.2, 0.3, 0.4][eps_idx]);
        let (metered, charged) = build_edt(&g, &config);
        let (executed, spent) = build_edt_with(&g, &config, &Executed::default());
        prop_assert!(executed.is_valid(&g));
        prop_assert_eq!(metered.clustering, executed.clustering);
        prop_assert_eq!(metered.leaders, executed.leaders);
        prop_assert_eq!(metered.iterations, executed.iterations);
        prop_assert!(spent.rounds() <= charged.rounds(),
            "executed {} > charged {}", spent.rounds(), charged.rounds());
    }

    /// Random grid clusters, the low-conductance regime where strategy
    /// selection and the tree pipeline carry the weight.
    #[test]
    fn executed_edt_matches_metered_on_random_grids(
        rows in 4usize..10,
        cols in 4usize..10,
        triangulated in 0usize..2,
    ) {
        let g = if triangulated == 1 {
            generators::triangulated_grid(rows, cols)
        } else {
            generators::grid(rows, cols)
        };
        let config = EdtConfig::new(0.3);
        let (metered, charged) = build_edt(&g, &config);
        let (executed, spent) = build_edt_with(&g, &config, &Executed::default());
        prop_assert!(executed.is_valid(&g));
        prop_assert_eq!(metered.clustering, executed.clustering);
        prop_assert!(spent.rounds() <= charged.rounds(),
            "executed {} > charged {}", spent.rounds(), charged.rounds());
    }
}

#[test]
fn construction_rounds_scale_mildly_in_n_for_fixed_epsilon() {
    // Theorem 1.1: for fixed ε and bounded degree the construction time is
    // O(log* n / ε) + poly(1/ε) — in particular it grows far slower than n.
    let sizes = [10usize, 20, 30];
    let mut rounds = Vec::new();
    for &s in &sizes {
        let g = generators::triangulated_grid(s, s);
        let (d, _) = build_edt(&g, &EdtConfig::new(0.3));
        rounds.push(d.construction_rounds.max(1));
    }
    let n_ratio = (sizes[2] * sizes[2]) as f64 / (sizes[0] * sizes[0]) as f64; // 9x
    let r_ratio = rounds[2] as f64 / rounds[0] as f64;
    assert!(
        r_ratio < n_ratio,
        "construction rounds grew faster than n: {rounds:?}"
    );
}
