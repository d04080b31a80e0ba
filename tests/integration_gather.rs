//! Cross-crate integration tests for the executed §2 gather programs: the
//! three strategies run as real `NodeProgram`s on both engines and are
//! differentially validated against the metered implementations.

use mfd_congest::RoundMeter;
use mfd_graph::{generators, Graph};
use mfd_prof::Profile;
use mfd_routing::backend::{Executed, GatherBackend, GatherJob};
use mfd_routing::gather::{gather_to_leader, tree_gather, GatherStrategy};
use mfd_routing::load_balance::{LoadBalanceParams, LoadBalancePlan};
use mfd_routing::programs::{
    execute_gather, select_strategy_program, GatherProgram, LoadBalanceProgram, SelectedGather,
    TreeGatherProgram, TreeGatherState, TreeMsg, WalkScheduleProgram,
};
use mfd_routing::walks::{plan_walk_schedule, WalkParams, WalkPlan};
use mfd_runtime::{
    Envelope, Executor, ExecutorConfig, NodeCtx, NodeProgram, Outbox, ShardedConfig,
    ShardedExecutor,
};
use mfd_sim::{run_both, LatencyModel, SimConfig, Simulator};
use mfd_trace::{Event, NullSink, RecordingSink};
use proptest::prelude::*;

/// The acceptance families every executed strategy is validated on.
fn acceptance_families() -> Vec<(&'static str, Graph)> {
    vec![
        ("tri-grid-8x8", generators::triangulated_grid(8, 8)),
        ("wheel-64", generators::wheel(64)),
        ("hypercube-6", generators::hypercube(6)),
    ]
}

fn max_degree_vertex(g: &Graph) -> usize {
    (0..g.n()).max_by_key(|&v| g.degree(v)).unwrap()
}

/// Walk parameters with tighter caps than the defaults: the differential
/// contract is identical (metered and executed share the plan), but the
/// leader-local seed search stays cheap enough for debug-mode CI. Shared
/// with the CI-gated report sections via `mfd_bench`.
fn test_walk_params() -> WalkParams {
    mfd_bench::acceptance_walk_params()
}

#[test]
fn tree_program_matches_both_engines_bit_for_bit() {
    for (name, g) in acceptance_families() {
        let program = TreeGatherProgram::new(&g, max_degree_vertex(&g));
        let (sync, sim) = run_both(
            &g,
            &program,
            &ExecutorConfig::default(),
            LatencyModel::Fixed(1),
        )
        .unwrap();
        assert_eq!(sync.states, sim.states, "{name}");
        assert_eq!(sync.rounds, sim.rounds, "{name}");
        assert_eq!(sync.messages, sim.messages, "{name}");
        assert_eq!(
            sync.meter.max_words_on_edge(),
            sim.meter.max_words_on_edge(),
            "{name}"
        );
    }
}

#[test]
fn load_balance_program_matches_both_engines_bit_for_bit() {
    for (name, g) in acceptance_families() {
        let leader = max_degree_vertex(&g);
        let plan = LoadBalancePlan::new(&g, &LoadBalanceParams::default());
        let program = LoadBalanceProgram::new(&g, leader, 0.1, &plan);
        let (sync, sim) = run_both(
            &g,
            &program,
            &ExecutorConfig::default(),
            LatencyModel::Fixed(1),
        )
        .unwrap();
        assert_eq!(sync.states, sim.states, "{name}");
        assert_eq!(sync.rounds, sim.rounds, "{name}");
        assert_eq!(sync.messages, sim.messages, "{name}");
    }
}

#[test]
fn walk_program_matches_both_engines_bit_for_bit() {
    for (name, g) in acceptance_families() {
        let leader = max_degree_vertex(&g);
        let plan = plan_walk_schedule(&g, leader, 0.2, &test_walk_params());
        let program = WalkScheduleProgram::new(&g, &plan);
        let (sync, sim) = run_both(
            &g,
            &program,
            &ExecutorConfig::default(),
            LatencyModel::Fixed(1),
        )
        .unwrap();
        assert_eq!(sync.states, sim.states, "{name}");
        assert_eq!(sync.rounds, sim.rounds, "{name}");
        assert_eq!(sync.messages, sim.messages, "{name}");
    }
}

/// Latency changes completion *times*, never the synchronous round structure:
/// the α-synchronizer preserves each program's rounds and messages under
/// non-trivial delay distributions.
#[test]
fn gather_rounds_are_latency_invariant() {
    let g = generators::wheel(48);
    let leader = max_degree_vertex(&g);
    let program = TreeGatherProgram::new(&g, leader);
    let cfg = ExecutorConfig::default();
    let sync = mfd_runtime::Executor::new(cfg.clone())
        .run(&g, &program)
        .unwrap();
    for latency in [
        LatencyModel::Fixed(3),
        LatencyModel::Uniform { lo: 1, hi: 7 },
        LatencyModel::HeavyTail {
            min: 1,
            alpha: 1.3,
            cap: 50,
        },
    ] {
        let sim = Simulator::new(SimConfig::matching(&cfg, latency))
            .run(&g, &program)
            .unwrap();
        assert_eq!(sim.rounds, sync.rounds);
        assert_eq!(sim.messages, sync.messages);
        assert!(sim.makespan >= sim.rounds - 1);
        let report = program.executed_report(&sim.states, sim.rounds, sim.messages);
        assert!((report.delivered_fraction - 1.0).abs() < 1e-12);
    }
}

/// The acceptance bar of the executed layer: on every acceptance
/// family, every strategy's executed round count sits within the metered
/// implementation's charged bound, and the executed delivery meets the
/// metered guarantee.
#[test]
fn executed_rounds_within_charged_bound_on_acceptance_families() {
    let f = 0.1;
    for (name, g) in acceptance_families() {
        let leader = max_degree_vertex(&g);
        let cfg = ExecutorConfig::default();

        // Tree pipeline: full delivery, identical per-vertex counts.
        let mut meter = RoundMeter::new();
        let charged = tree_gather(&g, leader, &mut meter);
        let program = TreeGatherProgram::new(&g, leader);
        let (executed, _) = execute_gather(&g, &program, &cfg).unwrap();
        assert!(
            executed.rounds <= charged.rounds,
            "tree on {name}: executed {} > charged {}",
            executed.rounds,
            charged.rounds
        );
        assert_eq!(executed.per_vertex_delivered, charged.per_vertex_delivered);

        // Load balance: same plan, executed delivery within the failure
        // budget whenever the metered run met it.
        let plan = LoadBalancePlan::new(&g, &LoadBalanceParams::default());
        let mut meter = RoundMeter::new();
        let charged = mfd_routing::load_balance::load_balance_gather_with_plan(
            &g, leader, f, &plan, &mut meter,
        );
        let program = LoadBalanceProgram::new(&g, leader, f, &plan);
        let (executed, _) = execute_gather(&g, &program, &cfg).unwrap();
        assert!(
            executed.rounds <= charged.rounds,
            "load-balance on {name}: executed {} > charged {}",
            executed.rounds,
            charged.rounds
        );
        if charged.delivered_fraction >= 1.0 - f {
            assert!(
                executed.delivered_fraction >= 1.0 - f,
                "load-balance on {name}: executed delivered {}",
                executed.delivered_fraction
            );
        }

        // Walk schedule: the executed delivery equals the planned good set.
        let params = test_walk_params();
        let plan = plan_walk_schedule(&g, leader, 0.2, &params);
        let mut meter = RoundMeter::new();
        let charged = mfd_routing::walks::execute_walk_gather(&g, &plan, &params, &mut meter);
        let program = WalkScheduleProgram::new(&g, &plan);
        let (executed, _) = execute_gather(&g, &program, &cfg).unwrap();
        assert!(
            executed.rounds <= charged.rounds,
            "walk on {name}: executed {} > charged {}",
            executed.rounds,
            charged.rounds
        );
        assert_eq!(executed.per_vertex_delivered, charged.per_vertex_delivered);
    }
}

/// One cluster on the reference stepper: `Executor::run` on the concrete
/// program a selection holds, reduced to what a gather reports.
fn reference_run(sub: &Graph, selected: &SelectedGather) -> (Vec<usize>, RoundMeter) {
    fn go<P: GatherProgram>(sub: &Graph, program: &P) -> (Vec<usize>, RoundMeter) {
        let run = Executor::new(ExecutorConfig::default())
            .run(sub, program)
            .unwrap();
        (program.per_vertex_delivered(&run.states), run.meter)
    }
    match selected {
        SelectedGather::Tree(p) | SelectedGather::WalkFallbackTree(p) => go(sub, p),
        SelectedGather::LoadBalance { program, .. } => go(sub, program.as_ref()),
        SelectedGather::Walk { program, .. } => go(sub, program.as_ref()),
    }
}

/// The migration oracle of the executed backend: heterogeneous batches — the
/// balancer next to the tree pipeline it routes a low-conductance grid to,
/// the walk schedule next to its tree fallback — run by `Executed` report,
/// cluster by cluster, exactly what `Executor::run` reports for the concrete
/// selected program on `Graph::induced_subgraph`, at every thread count, on
/// both sides of the clusters-vs-threads split, and on the event engine.
#[test]
fn cluster_runner_matches_per_cluster_executor_runs_on_heterogeneous_batches() {
    // One ambient graph holding the parts side by side, consecutive parts
    // joined by an edge the induced views must drop; members are listed in a
    // scrambled order, so local numbering differs from the ambient one.
    let parts = [
        generators::triangulated_grid(10, 10),
        generators::wheel(64),
        generators::hypercube(6),
        generators::wheel(32),
    ];
    let total: usize = parts.iter().map(Graph::n).sum();
    let mut edges = Vec::new();
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    let mut offset = 0;
    for (i, g) in parts.iter().enumerate() {
        edges.extend(g.edges().map(|(u, v)| (offset + u, offset + v)));
        if offset > 0 {
            edges.push((offset - 1, offset));
        }
        let mut members: Vec<usize> = (offset..offset + g.n()).rev().collect();
        members.rotate_left(3 * i + 1);
        clusters.push(members);
        offset += g.n();
    }
    let ambient = Graph::from_edges(total, edges);
    let jobs: Vec<GatherJob> = clusters
        .iter()
        .zip(&parts)
        .map(|(members, part)| {
            let (cluster, _) = ambient.induced_subgraph(members);
            assert_eq!(cluster.m(), part.m(), "the joining edges are dropped");
            GatherJob {
                leader: max_degree_vertex(&cluster),
                cluster,
            }
        })
        .collect();

    let mut names: Vec<&str> = Vec::new();
    for strategy in [
        // Routes the grid to the tree, keeps the rest on the balancer.
        GatherStrategy::LoadBalance(LoadBalanceParams::default()),
        // The 64-spoke wheel's plan misses the failure budget under the test
        // caps (the fallback); the 32-spoke one's does not.
        GatherStrategy::WalkSchedule(test_walk_params()),
    ] {
        let selected: Vec<SelectedGather> = jobs
            .iter()
            .map(|job| select_strategy_program(&job.cluster, job.leader, 0.1, &strategy))
            .collect();
        names.extend(selected.iter().map(SelectedGather::strategy_name));
        let reference: Vec<(Vec<usize>, RoundMeter)> = jobs
            .iter()
            .zip(&selected)
            .map(|(job, selected)| reference_run(&job.cluster, selected))
            .collect();

        let check = |backend: &Executed, batch: usize, case: String| {
            let mut meter = RoundMeter::new();
            let mut sink = RecordingSink::new();
            let reports =
                backend.gather_all_traced(&jobs[..batch], 0.1, &strategy, &mut meter, &mut sink);
            assert_eq!((reports.len(), sink.events.len()), (batch, batch), "{case}");
            for (c, (delivered, expected)) in reference[..batch].iter().enumerate() {
                let run = Event::ClusterRun {
                    cluster: c,
                    rounds: expected.rounds(),
                    messages: expected.messages(),
                };
                assert_eq!(sink.events[c], run, "{case}, {c}");
                assert_eq!(reports[c].rounds, expected.rounds(), "{case}, {c}");
                assert_eq!(&reports[c].per_vertex_delivered, delivered, "{case}, {c}");
                assert_eq!(reports[c].strategy, selected[c].strategy_name(), "{case}");
            }
            let mut folded = RoundMeter::new();
            folded.merge_parallel(reference[..batch].iter().map(|(_, m)| m));
            assert_eq!(meter.rounds(), folded.rounds(), "{case}");
            assert_eq!(meter.messages(), folded.messages(), "{case}");
            assert_eq!(
                meter.max_words_on_edge(),
                folded.max_words_on_edge(),
                "{case}"
            );
        };
        // Batches of 1 and 2 clusters leave threads to spare at 2 and 4
        // threads (more than one shard inside a cluster); the full batch
        // does not.
        for batch in [1, 2, jobs.len()] {
            for threads in [1, 2, 4] {
                check(
                    &Executed::executor(ExecutorConfig::with_threads(threads)),
                    batch,
                    format!("batch of {batch}, {threads} threads"),
                );
            }
        }
        let sim = SimConfig::matching(&ExecutorConfig::default(), LatencyModel::Fixed(1));
        check(&Executed::sim(sim), jobs.len(), "event engine".into());
    }
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names,
        [
            "load-balance",
            "tree-pipeline",
            "walk-schedule",
            "walk-schedule(tree-fallback)"
        ]
    );
}

/// [`TreeGatherProgram`] with the quiescence it had before idle detection:
/// only vertices the wave has not reached are skipped, so every announced
/// vertex is stepped every round until it halts.
struct UnreachedOnly(TreeGatherProgram);

impl NodeProgram for UnreachedOnly {
    type State = TreeGatherState;
    type Msg = TreeMsg;

    fn init(&self, ctx: &NodeCtx) -> TreeGatherState {
        self.0.init(ctx)
    }

    fn round(
        &self,
        ctx: &NodeCtx,
        state: &mut TreeGatherState,
        inbox: &[Envelope<TreeMsg>],
        out: &mut Outbox<'_, TreeMsg>,
    ) {
        self.0.round(ctx, state, inbox, out);
    }

    fn halted(&self, ctx: &NodeCtx, state: &TreeGatherState) -> bool {
        self.0.halted(ctx, state)
    }

    fn round_budget_hint(&self) -> Option<u64> {
        self.0.round_budget_hint()
    }

    fn quiescent(&self, _ctx: &NodeCtx, state: &TreeGatherState) -> bool {
        state.depth.is_none()
    }
}

/// Runs the tree gather from `leader` with its exact quiescence and with the
/// unreached-only one, on the reference stepper and on the sharded engine at
/// 1 and 4 shards, and asserts every run agrees on states, rounds, messages
/// and delivery. Returns the vertex steps (`Profile::frontier_total`) of the
/// 1-shard runs, exact first.
fn compare_tree_quiescence(g: &Graph, leader: usize, case: &str) -> (u64, u64) {
    let exact = TreeGatherProgram::new(g, leader);
    let old = UnreachedOnly(exact.clone());
    let cfg = ExecutorConfig::default();
    let reference = Executor::new(cfg.clone()).run(g, &old).unwrap();
    let delivered = exact.per_vertex_delivered(&reference.states);
    let check = |states: &[TreeGatherState], rounds: u64, messages: u64, run: &str| {
        assert_eq!(states, &reference.states[..], "{case}, {run}");
        assert_eq!(rounds, reference.rounds, "{case}, {run}");
        assert_eq!(messages, reference.messages, "{case}, {run}");
        assert_eq!(
            exact.per_vertex_delivered(states),
            delivered,
            "{case}, {run}"
        );
    };
    let run = Executor::new(cfg.clone()).run(g, &exact).unwrap();
    check(&run.states, run.rounds, run.messages, "reference, exact");

    let mut steps = (0, 0);
    for shards in [1, 4] {
        let exec = ShardedExecutor::new(ShardedConfig::matching(&cfg, shards));
        let mut profile = Profile::new();
        let run = exec
            .run_profiled(g, &exact, &mut NullSink, &mut profile)
            .unwrap();
        check(&run.states, run.rounds, run.messages, "sharded, exact");
        let mut old_profile = Profile::new();
        let run = exec
            .run_profiled(g, &old, &mut NullSink, &mut old_profile)
            .unwrap();
        check(&run.states, run.rounds, run.messages, "sharded, old");
        if shards == 1 {
            steps = (profile.frontier_total(), old_profile.frontier_total());
        }
    }
    steps
}

/// The tree gather's quiescence is exact: announced vertices with nothing to
/// upcast or echo sleep too, which is a pure scheduling change — everything
/// observable equals the unreached-only predicate's run, on connected and
/// disconnected clusters, while tri-grid-8x8 steps strictly fewer vertices.
#[test]
fn exact_tree_quiescence_changes_only_the_vertex_steps() {
    let mut families = acceptance_families();
    families.push((
        "path-12+wheel-9",
        generators::path(12).disjoint_union(&generators::wheel(9)),
    ));
    for (name, g) in families {
        let (exact, old) = compare_tree_quiescence(&g, max_degree_vertex(&g), name);
        assert!(exact <= old, "{name}: {exact} > {old} vertex steps");
        if name == "tri-grid-8x8" {
            assert!(exact < old, "{name}: {exact} vertex steps, not below {old}");
        }
    }
}

/// The planners are pure: same input, same plan — including the memoized
/// split and spectral estimates.
#[test]
fn planners_are_pure() {
    let g = generators::random_apollonian(48, 7);
    let lb_params = LoadBalanceParams::default();
    let a = LoadBalancePlan::new(&g, &lb_params);
    let b = LoadBalancePlan::new(&g, &lb_params);
    assert_eq!(a, b);

    let wp = test_walk_params();
    let p1: WalkPlan = plan_walk_schedule(&g, 0, 0.15, &wp);
    let p2: WalkPlan = plan_walk_schedule(&g, 0, 0.15, &wp);
    assert_eq!(p1.schedule, p2.schedule);
    assert_eq!(p1.split, p2.split);
    assert_eq!(p1.good, p2.good);
    assert_eq!(p1.seeds_tried, p2.seeds_tried);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random connected cluster graphs and seeds: the executed tree gather
    /// always delivers everything the metered gather reports, bit-for-bit
    /// across engines.
    #[test]
    fn executed_tree_gather_delivers_on_random_clusters(n in 8usize..40, seed in 0u64..500) {
        let g = generators::random_apollonian(n, seed);
        let leader = max_degree_vertex(&g);
        let mut meter = RoundMeter::new();
        let charged = gather_to_leader(&g, leader, 0.1, &GatherStrategy::TreePipeline, &mut meter);
        let program = TreeGatherProgram::new(&g, leader);
        let (sync, sim) = run_both(
            &g,
            &program,
            &ExecutorConfig::default(),
            LatencyModel::Fixed(1),
        )
        .unwrap();
        prop_assert_eq!(sync.states, sim.states);
        prop_assert_eq!(sync.rounds, sim.rounds);
        let executed = program.executed_report(&sim.states, sim.rounds, sim.messages);
        prop_assert!(executed.rounds <= charged.rounds,
            "executed {} > charged {}", executed.rounds, charged.rounds);
        prop_assert!((executed.delivered_fraction - 1.0).abs() < 1e-12);
        prop_assert_eq!(executed.per_vertex_delivered, charged.per_vertex_delivered);
    }

    /// Random clusters and leaders: exact tree quiescence runs exactly like
    /// the unreached-only predicate on every engine and layout.
    #[test]
    fn exact_tree_quiescence_matches_unreached_only_on_random_clusters(
        n in 8usize..40,
        seed in 0u64..500,
        leader in 0usize..40,
    ) {
        let g = generators::random_apollonian(n, seed);
        let (exact, old) = compare_tree_quiescence(&g, leader % n, &format!("n={n}, seed={seed}"));
        prop_assert!(exact <= old, "{} > {} vertex steps", exact, old);
    }

    /// Random clusters: executed load-balance delivery meets the metered
    /// report's guarantee (the failure budget whenever the metered run met
    /// it), and `Fixed(1)` simulation is identical to the executor.
    #[test]
    fn executed_load_balance_meets_metered_guarantee(n in 8usize..32, seed in 0u64..500) {
        let g = generators::random_apollonian(n, seed);
        let leader = max_degree_vertex(&g);
        let f = 0.2;
        let plan = LoadBalancePlan::new(&g, &LoadBalanceParams::default());
        let mut meter = RoundMeter::new();
        let charged = mfd_routing::load_balance::load_balance_gather_with_plan(
            &g, leader, f, &plan, &mut meter,
        );
        let program = LoadBalanceProgram::new(&g, leader, f, &plan);
        let (sync, sim) = run_both(
            &g,
            &program,
            &ExecutorConfig::default(),
            LatencyModel::Fixed(1),
        )
        .unwrap();
        prop_assert_eq!(sync.states, sim.states);
        prop_assert_eq!(sync.rounds, sim.rounds);
        prop_assert_eq!(sync.messages, sim.messages);
        let executed = program.executed_report(&sync.states, sync.rounds, sync.messages);
        let guarantee = charged.delivered_fraction.min(1.0 - f);
        prop_assert!(
            executed.delivered_fraction >= guarantee - 1e-12,
            "executed delivered {} < metered guarantee {}",
            executed.delivered_fraction,
            guarantee
        );
    }

    /// Random clusters: the executed walk schedule delivers exactly the
    /// planned good set on both engines.
    #[test]
    fn executed_walk_schedule_delivers_planned_set(n in 8usize..32, seed in 0u64..500) {
        let g = generators::random_apollonian(n, seed);
        let leader = max_degree_vertex(&g);
        let params = test_walk_params();
        let plan = plan_walk_schedule(&g, leader, 0.25, &params);
        let mut meter = RoundMeter::new();
        let charged = mfd_routing::walks::execute_walk_gather(&g, &plan, &params, &mut meter);
        let program = WalkScheduleProgram::new(&g, &plan);
        let (sync, sim) = run_both(
            &g,
            &program,
            &ExecutorConfig::default(),
            LatencyModel::Fixed(1),
        )
        .unwrap();
        prop_assert_eq!(sync.states, sim.states);
        prop_assert_eq!(sync.rounds, sim.rounds);
        let executed = program.executed_report(&sync.states, sync.rounds, sync.messages);
        prop_assert_eq!(executed.per_vertex_delivered, charged.per_vertex_delivered);
        prop_assert!(executed.rounds <= charged.rounds);
    }
}
