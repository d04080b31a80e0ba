//! Interchangeable gather backends: *charge* the paper's round bounds or
//! *spend* real executed rounds, behind one interface.
//!
//! The (ε, D, T)-decomposition needs one in-cluster gather per construction
//! phase and one execution of the routing algorithm `A`. Historically those
//! were always **metered** — [`crate::gather::gather_to_leader`] simulates
//! the communication centrally and charges rounds on a
//! [`mfd_congest::RoundMeter`]. Since the §2 strategies exist as real
//! [`mfd_runtime::NodeProgram`]s, the decomposition can instead **execute**
//! every gather. [`GatherBackend`] abstracts over the two modes so the
//! decomposition layer (`mfd_core::edt`) is generic in which one it runs:
//!
//! * [`Metered`] — today's charged upper bounds. Cheap, centralized, and the
//!   *oracle*: every executed round count is validated against it.
//! * [`Executed`] — program-level strategy selection
//!   ([`crate::programs::select_strategy_program`]: tree pipeline, Lemma 2.2
//!   balancer with conductance routing, walk schedule with tree fallback)
//!   run for real on the synchronous engine or on the `mfd-sim`
//!   discrete-event engine. The synchronous engine is the sharded CSR one
//!   ([`mfd_runtime::ShardedExecutor`]): each cluster is induced once, its
//!   CSR view is derived from that, and a batch of clusters runs on one
//!   engine through [`mfd_runtime::run_on_induced`]; no adjacency-map
//!   `Executor` is built on this path. Rounds and messages come from the
//!   engines' meters; with
//!   [`Executed::check_charge`] (on by default) every cluster's executed
//!   round count is asserted `≤` the metered charge of the same effective
//!   strategy, so the charged path is demoted from product to cross-checked
//!   upper bound.
//!
//! Both backends report through the metered vocabulary
//! ([`crate::gather::GatherReport`]) and fold sub-meters with the paper's
//! parallel-composition rule, so swapping one for the other changes *how*
//! rounds are obtained, never how they compose.

use mfd_congest::RoundMeter;
use mfd_graph::{CsrGraph, Graph};
use mfd_runtime::{run_on_induced, ExecutorConfig, ShardedConfig, ShardedExecutor};
use mfd_sim::{SimConfig, Simulator};
use mfd_trace::{Event, TraceSink};

use crate::gather::{gather_to_leader, tree_gather, GatherReport, GatherStrategy};
use crate::load_balance::load_balance_gather_with_plan;
use crate::programs::{
    select_strategy_program_with_plans, GatherProgram, SelectedGather, SelectionPlans,
};
use crate::walks::execute_walk_gather;

/// One in-cluster gather to run: the cluster's members (original vertex ids
/// of the ambient graph) and its leader (also an original id, a member).
#[derive(Debug, Clone)]
pub struct GatherJob {
    /// Cluster members, original vertex ids.
    pub members: Vec<usize>,
    /// Leader vertex, an element of `members`.
    pub leader: usize,
}

/// A way to obtain the rounds of the decomposition's in-cluster gathers:
/// charge them ([`Metered`]) or execute them ([`Executed`]).
pub trait GatherBackend: Sync {
    /// Backend name for reports (`"metered"`, `"executed"`, …).
    fn name(&self) -> &'static str;

    /// Gathers `deg(v)` messages from every vertex of `cluster` to `leader`
    /// with `strategy`, accounting rounds and messages on `meter`.
    ///
    /// # Panics
    ///
    /// Panics if `leader` is out of range, or (executed backends) if the
    /// selected program violates the CONGEST model or starves against its
    /// round budget.
    fn gather(
        &self,
        cluster: &Graph,
        leader: usize,
        f: f64,
        strategy: &GatherStrategy,
        meter: &mut RoundMeter,
    ) -> GatherReport;

    /// Runs one gather per job — clusters are vertex-disjoint, so the
    /// sub-meters fold into `meter` with the parallel-composition rule
    /// (rounds by max, messages by sum). Returns one report per job, in
    /// order.
    ///
    /// # Panics
    ///
    /// Same conditions as [`GatherBackend::gather`], plus a leader outside
    /// its members list.
    fn gather_all(
        &self,
        g: &Graph,
        jobs: &[GatherJob],
        f: f64,
        strategy: &GatherStrategy,
        meter: &mut RoundMeter,
    ) -> Vec<GatherReport> {
        self.gather_all_traced(g, jobs, f, strategy, meter, &mut ())
    }

    /// [`GatherBackend::gather_all`] with per-cluster observability: emits
    /// one [`Event::ClusterRun`] per job (in job order) into `sink` with
    /// that cluster's own rounds and messages — the per-cluster costs the
    /// parallel fold otherwise collapses into a single max/sum.
    ///
    /// `&mut ()` is the no-op sink; `gather_all` is exactly that call.
    ///
    /// # Panics
    ///
    /// Same conditions as [`GatherBackend::gather_all`].
    fn gather_all_traced(
        &self,
        g: &Graph,
        jobs: &[GatherJob],
        f: f64,
        strategy: &GatherStrategy,
        meter: &mut RoundMeter,
        sink: &mut dyn TraceSink,
    ) -> Vec<GatherReport> {
        gather_all_sequential(self, g, jobs, f, strategy, meter, sink)
    }
}

/// The shared per-job loop behind [`GatherBackend::gather_all`]: induce each
/// cluster, gather on a fresh sub-meter, fold the sub-meters in parallel.
fn gather_all_sequential<B: GatherBackend + ?Sized>(
    backend: &B,
    g: &Graph,
    jobs: &[GatherJob],
    f: f64,
    strategy: &GatherStrategy,
    meter: &mut RoundMeter,
    sink: &mut dyn TraceSink,
) -> Vec<GatherReport> {
    let mut reports = Vec::with_capacity(jobs.len());
    let mut sub_meters: Vec<RoundMeter> = Vec::with_capacity(jobs.len());
    for (idx, job) in jobs.iter().enumerate() {
        let (sub, map) = g.induced_subgraph(&job.members);
        let leader_local = local_leader(&map, job.leader);
        let mut sm = RoundMeter::new();
        reports.push(backend.gather(&sub, leader_local, f, strategy, &mut sm));
        sink.event(&Event::ClusterRun {
            cluster: idx,
            rounds: sm.rounds(),
            messages: sm.messages(),
        });
        sub_meters.push(sm);
    }
    meter.merge_parallel(sub_meters.iter());
    reports
}

fn local_leader(map: &[usize], leader: usize) -> usize {
    map.iter()
        .position(|&v| v == leader)
        .expect("leader belongs to its cluster")
}

/// The charged backend: [`crate::gather::gather_to_leader`], exactly as the
/// decomposition always accounted its gathers.
#[derive(Debug, Clone, Copy, Default)]
pub struct Metered;

impl GatherBackend for Metered {
    fn name(&self) -> &'static str {
        "metered"
    }

    fn gather(
        &self,
        cluster: &Graph,
        leader: usize,
        f: f64,
        strategy: &GatherStrategy,
        meter: &mut RoundMeter,
    ) -> GatherReport {
        gather_to_leader(cluster, leader, f, strategy, meter)
    }
}

/// The engine an [`Executed`] backend runs its programs on.
#[derive(Debug, Clone)]
pub enum GatherEngine {
    /// The synchronous `mfd-runtime` engine, configured like an `Executor`
    /// (seed, capacity, budget, thread count) and run on the sharded CSR
    /// engine; cluster batches run in parallel through
    /// [`mfd_runtime::run_on_induced`].
    Executor(ExecutorConfig),
    /// The `mfd-sim` discrete-event engine (any latency model; the round
    /// accounting is latency-invariant).
    Sim(SimConfig),
}

/// The executed backend: strategy selection at the program level, real
/// engine runs, meter numbers from the engines.
#[derive(Debug, Clone)]
pub struct Executed {
    /// Engine to run the selected programs on.
    pub engine: GatherEngine,
    /// Assert, per cluster, that the executed round count stays within the
    /// metered charge of the same effective strategy (the differential
    /// contract; on by default).
    pub check_charge: bool,
}

impl Default for Executed {
    fn default() -> Self {
        Executed::executor(ExecutorConfig::default())
    }
}

impl Executed {
    /// Executed backend on the synchronous engine (see
    /// [`GatherEngine::Executor`]).
    pub fn executor(config: ExecutorConfig) -> Self {
        Executed {
            engine: GatherEngine::Executor(config),
            check_charge: true,
        }
    }

    /// Executed backend on the `mfd-sim` engine.
    pub fn sim(config: SimConfig) -> Self {
        Executed {
            engine: GatherEngine::Sim(config),
            check_charge: true,
        }
    }

    /// Disables the per-cluster executed-within-charge assertion.
    pub fn without_charge_check(mut self) -> Self {
        self.check_charge = false;
        self
    }

    /// The metered charge of the *effective* strategy the selection picked —
    /// the oracle the executed rounds are validated against. When the
    /// selection overrode the strategy (conductance-routed the balancer to
    /// the tree, or fell back from an unplannable walk schedule), the oracle
    /// is the metered cost of the program that actually ran. The selection's
    /// own plans are reused, so the oracle never replans.
    fn charged_rounds(
        cluster: &Graph,
        leader: usize,
        f: f64,
        strategy: &GatherStrategy,
        selected: &SelectedGather,
        plans: &SelectionPlans,
    ) -> u64 {
        let mut oracle = RoundMeter::new();
        match selected {
            SelectedGather::Tree(_) | SelectedGather::WalkFallbackTree(_) => {
                tree_gather(cluster, leader, &mut oracle);
            }
            SelectedGather::LoadBalance(_) => {
                let plan = plans
                    .load_balance
                    .as_ref()
                    .expect("balancer selection keeps its plan");
                load_balance_gather_with_plan(cluster, leader, f, plan, &mut oracle);
            }
            SelectedGather::Walk(_) => {
                let GatherStrategy::WalkSchedule(params) = strategy else {
                    unreachable!("the walk schedule is only selected for its own strategy");
                };
                let plan = plans.walk.as_ref().expect("walk selection keeps its plan");
                execute_walk_gather(cluster, plan, params, &mut oracle);
            }
        }
        oracle.rounds()
    }

    /// Runs one already-selected program on the configured engine, returning
    /// its report and the engine's meter.
    fn run_selected(
        &self,
        cluster: &Graph,
        selected: &SelectedGather,
    ) -> (GatherReport, RoundMeter) {
        let (states, rounds, messages, engine_meter) = match &self.engine {
            GatherEngine::Executor(config) => {
                let run = ShardedExecutor::new(ShardedConfig::per_thread(config))
                    .run(&CsrGraph::from_graph(cluster), selected)
                    .expect("selected gather program is model-compliant");
                (run.states, run.rounds, run.messages, run.meter)
            }
            GatherEngine::Sim(config) => {
                let run = Simulator::new(config.clone())
                    .run(cluster, selected)
                    .expect("selected gather program is model-compliant");
                (run.states, run.rounds, run.messages, run.meter)
            }
        };
        let executed = selected.executed_report(&states, rounds, messages);
        (executed.into(), engine_meter)
    }

    /// Validates the executed rounds against the metered oracle.
    #[allow(clippy::too_many_arguments)]
    fn check(
        &self,
        cluster: &Graph,
        leader: usize,
        f: f64,
        strategy: &GatherStrategy,
        selected: &SelectedGather,
        plans: &SelectionPlans,
        executed_rounds: u64,
    ) {
        if !self.check_charge {
            return;
        }
        let charged = Self::charged_rounds(cluster, leader, f, strategy, selected, plans);
        assert!(
            executed_rounds <= charged,
            "{}: executed {} rounds exceed the metered charge {} (n={}, m={})",
            selected.strategy_name(),
            executed_rounds,
            charged,
            cluster.n(),
            cluster.m()
        );
    }
}

impl GatherBackend for Executed {
    fn name(&self) -> &'static str {
        "executed"
    }

    fn gather(
        &self,
        cluster: &Graph,
        leader: usize,
        f: f64,
        strategy: &GatherStrategy,
        meter: &mut RoundMeter,
    ) -> GatherReport {
        let (selected, plans) = select_strategy_program_with_plans(cluster, leader, f, strategy);
        let (report, engine_meter) = self.run_selected(cluster, &selected);
        self.check(
            cluster,
            leader,
            f,
            strategy,
            &selected,
            &plans,
            report.rounds,
        );
        meter.merge_sequential(&engine_meter);
        report
    }

    fn gather_all_traced(
        &self,
        g: &Graph,
        jobs: &[GatherJob],
        f: f64,
        strategy: &GatherStrategy,
        meter: &mut RoundMeter,
        sink: &mut dyn TraceSink,
    ) -> Vec<GatherReport> {
        let GatherEngine::Executor(config) = &self.engine else {
            // The event engine has no batched cluster runner; per-cluster
            // runs with parallel meter folding are equivalent.
            return gather_all_sequential(self, g, jobs, f, strategy, meter, sink);
        };
        // Induce and select once per cluster up front (planning is
        // deterministic but not free), then batch the heterogeneous programs
        // — `SelectedGather` is itself a `NodeProgram` — on the CSR views of
        // the subgraphs the selection planned on.
        let mut prepared: Vec<(Graph, usize, SelectionPlans)> = Vec::with_capacity(jobs.len());
        let mut clusters: Vec<(CsrGraph, SelectedGather)> = Vec::with_capacity(jobs.len());
        for job in jobs {
            let (sub, map) = g.induced_subgraph(&job.members);
            let leader_local = local_leader(&map, job.leader);
            let (selected, plans) =
                select_strategy_program_with_plans(&sub, leader_local, f, strategy);
            clusters.push((CsrGraph::from_graph(&sub), selected));
            prepared.push((sub, leader_local, plans));
        }
        let members: Vec<Vec<usize>> = jobs.iter().map(|j| j.members.clone()).collect();
        let run = run_on_induced(&clusters, members, config)
            .expect("selected gather programs are model-compliant");
        let mut reports = Vec::with_capacity(jobs.len());
        for (idx, ((sub, leader_local, plans), (_, selected))) in
            prepared.iter().zip(&clusters).enumerate()
        {
            let executed = selected.executed_report(
                &run.cluster_states[idx],
                run.cluster_rounds[idx],
                run.cluster_messages[idx],
            );
            sink.event(&Event::ClusterRun {
                cluster: idx,
                rounds: run.cluster_rounds[idx],
                messages: run.cluster_messages[idx],
            });
            self.check(
                sub,
                *leader_local,
                f,
                strategy,
                selected,
                plans,
                executed.rounds,
            );
            reports.push(executed.into());
        }
        meter.merge_sequential(&run.meter);
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load_balance::LoadBalanceParams;
    use crate::programs::select_strategy_program;
    use crate::walks::WalkParams;
    use mfd_graph::generators;
    use mfd_sim::LatencyModel;

    fn leader_of(g: &Graph) -> usize {
        (0..g.n()).max_by_key(|&v| g.degree(v)).expect("non-empty")
    }

    #[test]
    fn executed_tree_gather_stays_within_the_metered_backend() {
        for g in [
            generators::triangulated_grid(6, 6),
            generators::wheel(32),
            generators::hypercube(4),
        ] {
            let leader = leader_of(&g);
            let strategy = GatherStrategy::TreePipeline;
            let mut charged = RoundMeter::new();
            let metered = Metered.gather(&g, leader, 0.1, &strategy, &mut charged);
            let mut spent = RoundMeter::new();
            let executed = Executed::default().gather(&g, leader, 0.1, &strategy, &mut spent);
            assert!(executed.rounds <= metered.rounds);
            assert!(spent.rounds() <= charged.rounds());
            assert!((executed.delivered_fraction - 1.0).abs() < 1e-12);
            assert_eq!(executed.per_vertex_delivered, metered.per_vertex_delivered);
        }
    }

    #[test]
    fn executed_backend_is_engine_invariant_in_rounds() {
        let g = generators::wheel(24);
        let leader = leader_of(&g);
        let strategy = GatherStrategy::LoadBalance(LoadBalanceParams::default());
        let mut m1 = RoundMeter::new();
        let sync = Executed::default().gather(&g, leader, 0.1, &strategy, &mut m1);
        let mut m2 = RoundMeter::new();
        let sim = Executed::sim(SimConfig::default().with_latency(LatencyModel::Fixed(3)))
            .gather(&g, leader, 0.1, &strategy, &mut m2);
        assert_eq!(sync.rounds, sim.rounds);
        assert_eq!(m1.rounds(), m2.rounds());
        assert_eq!(m1.messages(), m2.messages());
        assert_eq!(sync.per_vertex_delivered, sim.per_vertex_delivered);
    }

    #[test]
    fn walk_strategy_selects_the_walk_program_or_the_tree_fallback() {
        // The wheel's hub leader is walk-friendly; the grid's is not and
        // must fall back, exactly like the metered path.
        let params = WalkParams {
            max_seed_tries: 6,
            max_walks_per_message: 16,
            max_steps: 256,
            ..WalkParams::default()
        };
        let wheel = generators::wheel(32);
        let sel = select_strategy_program(&wheel, 0, 0.1, &GatherStrategy::WalkSchedule(params));
        assert_eq!(sel.strategy_name(), "walk-schedule");
        let grid = generators::triangulated_grid(6, 6);
        let params = WalkParams {
            max_seed_tries: 6,
            max_walks_per_message: 16,
            max_steps: 256,
            ..WalkParams::default()
        };
        let leader = leader_of(&grid);
        let sel =
            select_strategy_program(&grid, leader, 0.1, &GatherStrategy::WalkSchedule(params));
        assert_eq!(sel.strategy_name(), "walk-schedule(tree-fallback)");
        let mut meter = RoundMeter::new();
        let report = Executed::default().gather(
            &grid,
            leader,
            0.1,
            &GatherStrategy::WalkSchedule(WalkParams {
                max_seed_tries: 6,
                max_walks_per_message: 16,
                max_steps: 256,
                ..WalkParams::default()
            }),
            &mut meter,
        );
        assert_eq!(report.strategy, "walk-schedule(tree-fallback)");
        assert!((report.delivered_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gather_all_batches_match_per_cluster_runs() {
        // Two disjoint clusters inside one ambient graph: the batched
        // executor path must report exactly what per-cluster runs report,
        // and fold rounds by max.
        let g = generators::triangulated_grid(4, 8);
        let left: Vec<usize> = (0..g.n()).filter(|v| v % 8 < 4).collect();
        let right: Vec<usize> = (0..g.n()).filter(|v| v % 8 >= 4).collect();
        let jobs = [&left, &right].map(|members| {
            let leader = members
                .iter()
                .copied()
                .max_by_key(|&v| g.degree(v))
                .expect("non-empty");
            GatherJob {
                members: members.clone(),
                leader,
            }
        });
        let strategy = GatherStrategy::TreePipeline;
        let backend = Executed::default();
        let mut batched_meter = RoundMeter::new();
        let batched = backend.gather_all(&g, &jobs, 0.1, &strategy, &mut batched_meter);
        let mut loop_meter = RoundMeter::new();
        let looped = gather_all_sequential(
            &backend,
            &g,
            &jobs,
            0.1,
            &strategy,
            &mut loop_meter,
            &mut (),
        );
        assert_eq!(batched.len(), 2);
        for (a, b) in batched.iter().zip(&looped) {
            assert_eq!(a.rounds, b.rounds);
            assert_eq!(a.per_vertex_delivered, b.per_vertex_delivered);
            assert_eq!(a.strategy, b.strategy);
        }
        assert_eq!(batched_meter.rounds(), loop_meter.rounds());
        assert_eq!(batched_meter.messages(), loop_meter.messages());
    }
}
