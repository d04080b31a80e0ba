//! Repo-level integration tests for the fault-injection layer:
//!
//! * **Zero-fault identity** — every `FaultModel` with all rates at zero is
//!   bit-for-bit the plain simulation, across programs, graphs, latency
//!   models and seeds (property-tested); and `Reliable<P>` over a loss-free
//!   network drives its inner program to bit-for-bit the plain final states.
//! * **Recovery** — at loss rates up to 0.2 on the acceptance families
//!   (tri-grid-8x8, wheel-64, hypercube-6), `Reliable<P>` restores the
//!   *exact* loss-free delivered set for all three gather programs, while
//!   the raw runs demonstrably degrade or starve.
//! * **Determinism** — faulty runs (losses, bursts, crashes and all) are
//!   pure functions of `(graph, program, config, model)` and independent of
//!   event-queue tie-breaking.
//! * **Crash robustness** — crash-stop the gather leader and the survivors
//!   re-elect the maximum surviving id, then re-gather completely.

use mfd_congest::{primitives, RoundMeter};
use mfd_core::programs::{BfsProgram, ColeVishkinProgram};
use mfd_faults::{crash_and_regather, FaultModel, Reliable};
use mfd_graph::properties::splitmix64;
use mfd_graph::{generators, Graph};
use mfd_routing::load_balance::LoadBalancePlan;
use mfd_routing::programs::{
    GatherProgram, LoadBalanceProgram, TreeGatherProgram, WalkScheduleProgram,
};
use mfd_routing::walks::plan_walk_schedule;
use mfd_runtime::{ExecutorConfig, NodeProgram};
use mfd_sim::{FaultOutcome, LatencyModel, NoFaults, SimConfig, Simulator, TieBreak};
use proptest::prelude::*;

/// A random connected graph: a uniform random tree plus random chords.
fn random_connected(n: usize, extra: usize, seed: u64) -> Graph {
    let tree = generators::random_tree(n, seed);
    generators::with_random_chords(&tree, extra, splitmix64(seed))
}

/// The zero-rate variants of every fault model shape.
fn zero_rate_models() -> Vec<FaultModel> {
    vec![
        FaultModel::none(),
        FaultModel::iid_loss(0.0),
        FaultModel::burst_loss(0.08, 0.3, 0.0, 0.0),
        FaultModel::chaos(0.0, 0.0, 0.0, 4),
    ]
}

/// Asserts that simulating `program` under every zero-rate fault model is
/// bit-for-bit the plain simulation, for the given latency.
fn assert_zero_fault_identity<P>(g: &Graph, program: &P, config: &SimConfig)
where
    P: NodeProgram,
    P::State: PartialEq + std::fmt::Debug,
{
    let sim = Simulator::new(config.clone());
    let plain = sim.run(g, program).unwrap();
    for model in zero_rate_models() {
        let faulted = sim.run_with_faults(g, program, &model).unwrap();
        assert_eq!(faulted.outcome, FaultOutcome::Completed);
        assert!(faulted.crashed.iter().all(|&c| !c));
        assert_eq!(plain.states, faulted.run.states);
        assert_eq!(plain.rounds, faulted.run.rounds);
        assert_eq!(plain.messages, faulted.run.messages);
        assert_eq!(plain.makespan, faulted.run.makespan);
        assert_eq!(plain.completion, faulted.run.completion);
        assert_eq!(plain.stats.packets, faulted.run.stats.packets);
        assert_eq!(faulted.run.stats.lost_messages, 0);
        assert_eq!(faulted.run.stats.slipped_messages, 0);
        assert_eq!(faulted.run.stats.duplicated_messages, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Zero-rate fault models are invisible: BFS and Cole–Vishkin on random
    /// connected graphs, random seeds, fixed and jittery latencies.
    #[test]
    fn zero_fault_models_are_bit_for_bit_invisible(
        n in 2usize..28,
        extra in 0usize..32,
        seed in 0u64..1_000_000,
    ) {
        let g = random_connected(n, extra, seed);
        for latency in [LatencyModel::Fixed(1), LatencyModel::Uniform { lo: 1, hi: 4 }] {
            let config = SimConfig {
                seed: splitmix64(seed ^ 0xFA17),
                ..SimConfig::default()
            }
            .with_latency(latency);
            assert_zero_fault_identity(&g, &BfsProgram { root: 0 }, &config);
            let mut meter = RoundMeter::new();
            let forest = primitives::build_bfs_tree(&g, None, 0, &mut meter).parent.clone();
            let id: Vec<u64> = (0..g.n() as u64).map(splitmix64).collect();
            assert_zero_fault_identity(&g, &ColeVishkinProgram::new(forest, id), &config);
        }
    }

    /// Zero-rate identity for the executed tree gather on random connected
    /// clusters, and `Reliable<TreeGather>` over a loss-free network drives
    /// the inner program to bit-for-bit the plain final states.
    #[test]
    fn zero_fault_identity_holds_for_gather_and_reliable(
        n in 2usize..20,
        extra in 0usize..16,
        seed in 0u64..1_000_000,
    ) {
        let g = random_connected(n, extra, seed);
        let leader = acceptance_leader(&g);
        let program = TreeGatherProgram::new(&g, leader);
        let config = SimConfig {
            seed: splitmix64(seed ^ 0x5AFE),
            ..SimConfig::default()
        };
        assert_zero_fault_identity(&g, &program, &config);

        let plain = Simulator::new(config.clone()).run(&g, &program).unwrap();
        let wrapped = Simulator::new(config)
            .run(&g, &Reliable::new(program.clone()))
            .unwrap();
        prop_assert_eq!(
            plain.states,
            Reliable::<TreeGatherProgram>::inner_states_cloned(&wrapped.states)
        );
        let stats = Reliable::<TreeGatherProgram>::stats(&wrapped.states);
        prop_assert_eq!(stats.retransmitted, 0, "loss-free run retransmitted");
        prop_assert_eq!(stats.fresh, plain.messages);
    }

    /// Faulty runs are deterministic and tie-break independent: same model,
    /// same seed, flipped event ordering — identical everything.
    #[test]
    fn faulty_runs_are_deterministic_and_tie_break_independent(
        n in 3usize..20,
        extra in 0usize..16,
        seed in 0u64..1_000_000,
    ) {
        let g = random_connected(n, extra, seed);
        let model = FaultModel::chaos(0.15, 0.05, 0.05, 3).with_crash(n / 2, 3);
        let base = SimConfig {
            seed: splitmix64(seed ^ 0xD1CE),
            ..SimConfig::default()
        }
        .with_latency(LatencyModel::Uniform { lo: 1, hi: 5 });
        let program = BfsProgram { root: 0 };
        let sim = Simulator::new(base.clone());
        let a = sim.run_with_faults(&g, &program, &model).unwrap();
        let b = sim.run_with_faults(&g, &program, &model).unwrap();
        let c = Simulator::new(SimConfig {
            tie_break: TieBreak::ReverseInsertion,
            ..base
        })
        .run_with_faults(&g, &program, &model)
        .unwrap();
        for other in [&b, &c] {
            prop_assert_eq!(&a.crashed, &other.crashed);
            prop_assert_eq!(a.outcome, other.outcome);
            prop_assert_eq!(a.run.rounds, other.run.rounds);
            prop_assert_eq!(a.run.messages, other.run.messages);
            prop_assert_eq!(a.run.makespan, other.run.makespan);
            prop_assert_eq!(a.run.stats.lost_messages, other.run.stats.lost_messages);
            prop_assert_eq!(a.run.stats.slipped_messages, other.run.stats.slipped_messages);
            prop_assert!(a.run.states.iter().zip(&other.run.states).all(|(x, y)| {
                x.depth == y.depth && x.parent == y.parent
            }));
        }
    }
}

// The acceptance families, leaders and walk parameters are the shared
// `mfd_bench::acceptance_*` definitions — the very configuration the
// CI-gated report sections measure, so test claims and benchmarks cannot
// drift apart.
use mfd_bench::{acceptance_families, acceptance_leader, acceptance_walk_params};

#[test]
fn zero_fault_identity_holds_for_all_gather_programs_on_acceptance_families() {
    let walk_params = acceptance_walk_params();
    for (name, g) in acceptance_families() {
        let leader = acceptance_leader(&g);
        let config = SimConfig::default();
        assert_zero_fault_identity(&g, &TreeGatherProgram::new(&g, leader), &config);
        let plan = LoadBalancePlan::new(&g);
        assert_zero_fault_identity(
            &g,
            &LoadBalanceProgram::new(&g, leader, 0.1, &plan),
            &config,
        );
        let walk_plan = plan_walk_schedule(&g, leader, 0.2, &walk_params);
        assert_zero_fault_identity(&g, &WalkScheduleProgram::new(&g, &walk_plan), &config);
        println!("zero-fault identity holds on {name}");
    }
}

/// Runs `program` raw and behind the adapter at the given loss rate,
/// asserting the adapter restores exactly the loss-free delivered set.
fn assert_recovery<P>(name: &str, g: &Graph, program: &P, loss: f64)
where
    P: GatherProgram + Clone,
    P::State: Clone + PartialEq + std::fmt::Debug,
{
    let config = SimConfig::default();
    let sim = Simulator::new(config);
    let clean = sim.run(g, program).unwrap();
    let model = FaultModel::iid_loss(loss);

    let wrapped = sim
        .run_with_faults(g, &Reliable::new(program.clone()), &model)
        .unwrap();
    assert_eq!(
        wrapped.outcome,
        FaultOutcome::Completed,
        "{name}: adapter starved at loss {loss}"
    );
    // The inner trajectory is *bit-for-bit* the loss-free one — delivered
    // sets, counters, private protocol state, everything.
    let inner = Reliable::<P>::inner_states_cloned(&wrapped.run.states);
    assert_eq!(clean.states, inner, "{name} at loss {loss}");
    assert_eq!(
        program.per_vertex_delivered(&clean.states),
        program.per_vertex_delivered(&inner),
        "{name}: delivered sets differ"
    );
    assert_eq!(
        program.leader_received(&clean.states),
        program.leader_received(&inner)
    );
    let stats = Reliable::<P>::stats(&wrapped.run.states);
    assert!(
        stats.retransmitted > 0,
        "{name}: {loss} loss caused no retransmissions"
    );
}

#[test]
fn reliable_adapter_restores_tree_gather_at_loss_up_to_020() {
    for (name, g) in acceptance_families() {
        let leader = acceptance_leader(&g);
        let program = TreeGatherProgram::new(&g, leader);
        for loss in [0.1, 0.2] {
            assert_recovery(name, &g, &program, loss);
        }
        // And the raw run demonstrably degrades: fewer leader receipts, or
        // an outright starved protocol.
        let raw = Simulator::new(SimConfig::default())
            .run_with_faults(&g, &program, &FaultModel::iid_loss(0.2))
            .unwrap();
        let received = program.leader_received(&raw.run.states);
        assert!(
            raw.outcome.is_wedged() || received < program.total_messages() as u64,
            "{name}: raw run unaffected by 20% loss"
        );
    }
}

#[test]
fn reliable_adapter_restores_walk_gather_at_loss_up_to_020() {
    let walk_params = acceptance_walk_params();
    for (name, g) in acceptance_families() {
        let leader = acceptance_leader(&g);
        let plan = plan_walk_schedule(&g, leader, 0.2, &walk_params);
        let program = WalkScheduleProgram::new(&g, &plan);
        for loss in [0.1, 0.2] {
            assert_recovery(name, &g, &program, loss);
        }
    }
}

#[test]
fn reliable_adapter_restores_load_balance_at_loss_up_to_020() {
    // The balancer is the chattiest program (tens of thousands of frames);
    // the full family × rate matrix lives in the release-mode report section
    // CI gates — here the wheel runs both rates and the others one.
    for (name, g, losses) in [
        ("wheel-64", generators::wheel(64), &[0.1, 0.2][..]),
        ("hypercube-6", generators::hypercube(6), &[0.2][..]),
        (
            "tri-grid-8x8",
            generators::triangulated_grid(8, 8),
            &[0.05][..],
        ),
    ] {
        let leader = acceptance_leader(&g);
        let plan = LoadBalancePlan::new(&g);
        let program = LoadBalanceProgram::new(&g, leader, 0.1, &plan);
        for &loss in losses {
            assert_recovery(name, &g, &program, loss);
        }
    }
}

#[test]
fn crashing_the_gather_leader_reelects_and_regathers_on_every_family() {
    for (name, g) in acceptance_families() {
        let leader = acceptance_leader(&g);
        let out = crash_and_regather(
            &g,
            leader,
            5,
            2,
            &SimConfig::default(),
            &ExecutorConfig::default(),
        )
        .unwrap();
        assert_eq!(out.crashed, vec![leader], "{name}");
        assert!(out.agreement, "{name}: survivors disagree");
        let max_survivor = *out.survivors.last().unwrap();
        assert_eq!(out.elected, max_survivor, "{name}");
        // Removing one vertex of these families leaves the survivors
        // connected, so the re-gather is complete.
        assert!(
            (out.regather.delivered_fraction - 1.0).abs() < 1e-12,
            "{name}: re-gather delivered {}",
            out.regather.delivered_fraction
        );
    }
}

#[test]
fn run_with_no_faults_is_the_plain_simulation_for_reliable_wrappers_too() {
    // Belt and braces for the adapter's own determinism: NoFaults through
    // run_with_faults equals run() wholesale, wrapper state included.
    let g = generators::triangulated_grid(4, 6);
    let program = Reliable::new(TreeGatherProgram::new(&g, 0));
    let sim = Simulator::new(SimConfig::default());
    let plain = sim.run(&g, &program).unwrap();
    let faulted = sim.run_with_faults(&g, &program, &NoFaults).unwrap();
    assert_eq!(faulted.outcome, FaultOutcome::Completed);
    assert_eq!(plain.rounds, faulted.run.rounds);
    assert_eq!(plain.messages, faulted.run.messages);
    assert_eq!(plain.makespan, faulted.run.makespan);
    assert_eq!(
        Reliable::<TreeGatherProgram>::stats(&plain.states),
        Reliable::<TreeGatherProgram>::stats(&faulted.run.states)
    );
}
