//! Cross-crate integration tests for the `mfd-trace` observability layer:
//! property tests that observed runs (recording, metrics and digest sinks)
//! are bit-identical to untraced runs on both engines, that the per-round
//! digest chains agree across engines at unit latency, that the divergence
//! search pinpoints a seeded injected divergence to the exact round and
//! vertex, and that the reliable-delivery adapter's drained trace reconciles
//! with its own aggregate statistics.

use mfd_bench::trace::{chain, DivergenceProbe};
use mfd_bench::{acceptance_families, acceptance_leader};
use mfd_congest::{primitives, RoundMeter};
use mfd_core::programs::{BfsProgram, ColeVishkinProgram, VoronoiLddProgram};
use mfd_faults::{FaultModel, Reliable};
use mfd_graph::properties::splitmix64;
use mfd_graph::{generators, Graph};
use mfd_routing::load_balance::LoadBalancePlan;
use mfd_routing::programs::{LoadBalanceProgram, TreeGatherProgram};
use mfd_runtime::{Executor, ExecutorConfig};
use mfd_sim::{LatencyModel, NoFaults, SimConfig, Simulator};
use mfd_trace::{first_divergence, DigestSink, Event, MetricsSink, NullSink, RecordingSink, Tee};
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

    /// Observation never perturbs the run: on random connected graphs, the
    /// untraced executor and simulator runs of BFS and Cole–Vishkin are
    /// bit-identical (states, rounds, messages, congestion peak) to the
    /// same runs observed through a recording sink with digests on and
    /// through a `Tee(MetricsSink, DigestSink)` stack — the heaviest
    /// instrumentation the layer offers.
    #[test]
    fn observed_runs_are_bit_identical_to_untraced_runs(
        n in 2usize..24,
        extra in 0usize..24,
        seed in 0u64..1_000_000,
    ) {
        let g = random_connected(n, extra, seed);
        let cfg = ExecutorConfig {
            seed: splitmix64(seed ^ 0xC0FFEE),
            ..ExecutorConfig::default()
        };
        let id: Vec<u64> = (0..g.n() as u64).map(splitmix64).collect();
        let cv = ColeVishkinProgram::new(spanning_forest(&g), id);
        let bfs = BfsProgram { root: 0 };

        macro_rules! check {
            ($program:expr) => {{
                let exec = mfd_bench::sync_executor(&cfg);
                let plain = exec.run(&g, $program).unwrap();
                let mut rec = RecordingSink::with_digests();
                let recorded = exec.run_traced(&g, $program, &mut rec).unwrap();
                let mut stack = Tee::new(MetricsSink::new(), DigestSink::new());
                let stacked = exec.run_traced(&g, $program, &mut stack).unwrap();
                // What was observed is what the reference stepper emits.
                let mut reference = RecordingSink::with_digests();
                let expected = Executor::new(cfg.clone())
                    .run_traced(&g, $program, &mut reference)
                    .unwrap();
                prop_assert_eq!(&expected.states, &recorded.states);
                prop_assert_eq!(&reference.events, &rec.events);
                prop_assert_eq!(&reference.digest_log, &rec.digest_log);
                prop_assert_eq!(&plain.states, &recorded.states);
                prop_assert_eq!(&plain.states, &stacked.states);
                prop_assert_eq!(plain.rounds, recorded.rounds);
                prop_assert_eq!(plain.messages, recorded.messages);
                prop_assert_eq!(
                    plain.meter.max_words_on_edge(),
                    recorded.meter.max_words_on_edge()
                );
                // The recorder saw every vertex step the engine charged for.
                prop_assert!(!rec.of_kind("round_close").is_empty());
                prop_assert!(!rec.digest_log.is_empty());

                let sim = Simulator::new(SimConfig::matching(&cfg, LatencyModel::Fixed(1)));
                let splain = sim.run(&g, $program).unwrap();
                let mut srec = RecordingSink::with_digests();
                let srecorded = sim.run_traced(&g, $program, &mut srec).unwrap();
                prop_assert_eq!(&splain.states, &srecorded.states);
                prop_assert_eq!(splain.rounds, srecorded.rounds);
                prop_assert_eq!(splain.messages, srecorded.messages);
                prop_assert_eq!(splain.makespan, srecorded.makespan);

                // And the digest chains the two engines journaled agree.
                prop_assert_eq!(stack.b.head(), {
                    let mut d = DigestSink::new();
                    sim.run_traced(&g, $program, &mut d).unwrap();
                    d.head()
                });
            }};
        }
        check!(&bfs);
        check!(&cv);
    }

    /// The divergence hunter is exact: corrupt one random vertex at one
    /// random round and `first_divergence` lands on precisely that round,
    /// with precisely that vertex as the culprit (the chain index equals
    /// the round because round 0 is the initial configuration).
    #[test]
    fn injected_divergence_is_pinpointed_to_round_and_vertex(
        n in 4usize..24,
        extra in 0usize..16,
        seed in 0u64..1_000_000,
        rounds in 4u64..12,
        pick in 0u64..1_000_000,
    ) {
        let g = random_connected(n, extra, seed);
        let round = 1 + pick % rounds;
        let vertex = (splitmix64(pick) % n as u64) as usize;
        let exec = mfd_bench::sync_executor(&ExecutorConfig::default());

        let mut clean = DigestSink::with_snapshots();
        chain(&exec, &g, &DivergenceProbe::clean(rounds), &mut clean).unwrap();
        let probe = DivergenceProbe::perturbed(rounds, round, vertex);
        let mut bad = DigestSink::with_snapshots();
        chain(&exec, &g, &probe, &mut bad).unwrap();

        prop_assert_eq!(first_divergence(&clean.chain(), &bad.chain()), Some(round as usize));
        prop_assert_eq!(DigestSink::diverging_vertices(&clean, &bad, round as usize), vec![vertex]);
    }
}

/// Programs whose states cannot be hashed (floats in the gather protocol
/// state) still run through the traced entry points via [`NullSink`], and
/// the result is the untraced run, bit for bit, on both engines.
#[test]
fn null_sink_runs_gathers_bit_identical_to_untraced_runs() {
    for (name, g) in acceptance_families() {
        let leader = acceptance_leader(&g);
        let cfg = ExecutorConfig::default();
        let exec = mfd_bench::sync_executor(&cfg);
        let sim = Simulator::new(SimConfig::matching(&cfg, LatencyModel::Fixed(1)));

        let tree = TreeGatherProgram::new(&g, leader);
        let plan = LoadBalancePlan::new(&g);
        let lb = LoadBalanceProgram::new(&g, leader, 0.1, &plan);

        macro_rules! check {
            ($program:expr) => {{
                let plain = exec.run(&g, $program).unwrap();
                let nulled = exec.run_traced(&g, $program, &mut NullSink).unwrap();
                assert_eq!(plain.states, nulled.states, "{name}");
                assert_eq!(plain.rounds, nulled.rounds, "{name}");
                assert_eq!(plain.messages, nulled.messages, "{name}");
                let splain = sim.run(&g, $program).unwrap();
                let snulled = sim.run_traced(&g, $program, &mut NullSink).unwrap();
                assert_eq!(splain.states, snulled.states, "{name}");
                assert_eq!(splain.makespan, snulled.makespan, "{name}");
            }};
        }
        check!(&tree);
        check!(&lb);
    }
}

/// On the acceptance families the two engines journal the same per-round
/// digest chain for all three ported programs — the cross-engine
/// equivalence claim of `run_both`, strengthened from final public outputs
/// to the full round-by-round state history.
#[test]
fn digest_chains_agree_across_engines_on_acceptance_families() {
    for (name, g) in acceptance_families() {
        let cfg = ExecutorConfig::default();
        let id: Vec<u64> = (0..g.n() as u64).map(splitmix64).collect();
        let cv = ColeVishkinProgram::new(spanning_forest(&g), id);
        let bfs = BfsProgram { root: 0 };
        let voronoi = VoronoiLddProgram::new(g.n(), &[0, g.n() / 2]);
        let exec = mfd_bench::sync_executor(&cfg);
        let sim = mfd_bench::sim_engine(&cfg, LatencyModel::Fixed(1), NoFaults);

        macro_rules! check {
            ($program:expr, $label:expr) => {{
                let (mut a, mut b) = (DigestSink::new(), DigestSink::new());
                chain(&exec, &g, $program, &mut a).unwrap();
                chain(&sim, &g, $program, &mut b).unwrap();
                assert_eq!(a.chain(), b.chain(), "{name}/{}", $label);
                assert_eq!(a.head(), b.head(), "{name}/{}", $label);
            }};
        }
        check!(&bfs, "bfs");
        check!(&cv, "cole-vishkin");
        check!(&voronoi, "voronoi");
    }
}

/// The reliable-delivery adapter's drained event journal reconciles exactly
/// with its aggregate statistics: summed retransmit counts equal
/// `stats.retransmitted` and excuse events equal `stats.excused` — and
/// turning tracing on does not change the protocol (inner states match the
/// untraced wrapped run).
#[test]
fn reliable_trace_reconciles_with_stats_and_does_not_perturb() {
    type P = TreeGatherProgram;
    let g = generators::triangulated_grid(8, 8);
    let leader = acceptance_leader(&g);
    let program = TreeGatherProgram::new(&g, leader);
    let model = FaultModel::iid_loss(0.2);
    let sim = Simulator::new(SimConfig::default());

    let untraced = sim
        .run_with_faults(&g, &Reliable::new(program.clone()), &model)
        .unwrap();
    let traced = sim
        .run_with_faults(&g, &Reliable::new(program).with_trace(), &model)
        .unwrap();
    assert_eq!(
        Reliable::<P>::inner_states_cloned(&untraced.run.states),
        Reliable::<P>::inner_states_cloned(&traced.run.states),
        "tracing perturbed the adapter protocol"
    );
    let stats = Reliable::<P>::stats(&traced.run.states);
    assert!(
        stats.retransmitted > 0,
        "20% loss caused no retransmissions"
    );

    let mut rec = RecordingSink::new();
    Reliable::<P>::drain_trace(&traced.run.states, &mut rec);
    let retransmitted: u64 = rec
        .of_kind("retransmit")
        .iter()
        .map(|e| match e {
            Event::Retransmit { count, .. } => *count,
            _ => unreachable!(),
        })
        .sum();
    assert_eq!(retransmitted, stats.retransmitted);
    assert_eq!(rec.of_kind("excuse").len() as u64, stats.excused);

    // The journal is round-sorted: serialization order is deterministic.
    let rounds: Vec<u64> = rec
        .events
        .iter()
        .map(|e| match e {
            Event::Retransmit { round, .. }
            | Event::Excuse { round, .. }
            | Event::LinkClose { round, .. } => *round,
            _ => unreachable!(),
        })
        .collect();
    assert!(rounds.windows(2).all(|w| w[0] <= w[1]));

    // An untraced adapter journals nothing.
    let mut empty = RecordingSink::new();
    Reliable::<P>::drain_trace(&untraced.run.states, &mut empty);
    assert!(empty.events.is_empty());
}
