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
//!   run for real. Every cluster of a batch is selected for, then run: on
//!   the synchronous engine all of them share one sharded engine through
//!   [`mfd_runtime::run_each`], each cluster dispatching once to
//!   `engine.run(cluster, &its_concrete_program)` on the graph its job
//!   carries — nothing is converted; on the `mfd-sim`
//!   discrete-event engine they run one after the other. Rounds and messages
//!   come from the engines' meters, and every cluster's executed round count
//!   is asserted `≤` the metered charge of the program that ran
//!   (`crate::programs::SelectedGather::charged_rounds`). That check is
//!   the differential contract that demotes the charged path from product
//!   to cross-checked upper bound; it is not an option and cannot be
//!   switched off.
//!
//! Both backends take their clusters already induced ([`GatherJob`]), report
//! through the metered vocabulary ([`crate::gather::GatherReport`]) and fold
//! sub-meters with the paper's parallel-composition rule, so swapping one
//! for the other changes *how* rounds are obtained, never how they compose.

use mfd_congest::RoundMeter;
use mfd_graph::Graph;
use mfd_runtime::{run_each, ExecutorConfig};
use mfd_sim::{NoFaults, SimConfig, SimEngine, Simulator};
use mfd_trace::{Event, TraceSink};

use crate::gather::{gather_to_leader, GatherReport, GatherStrategy};
use crate::programs::{select_strategy_program, SelectedGather};

/// One in-cluster gather to run: the induced cluster itself. Whoever builds
/// the job has induced the cluster already (to pick its leader, to refine
/// it), so the backends never see the ambient graph.
#[derive(Debug, Clone)]
pub struct GatherJob {
    /// The cluster's induced subgraph, vertices `0..k`.
    pub cluster: Graph,
    /// Leader, a vertex of `cluster`.
    pub leader: usize,
}

/// A way to obtain the rounds of the decomposition's in-cluster gathers:
/// charge them ([`Metered`]) or execute them ([`Executed`]).
pub trait GatherBackend: Sync {
    /// Backend name for reports (`"metered"`, `"executed"`, …).
    fn name(&self) -> &'static str;

    /// Gathers `deg(v)` messages from every vertex of `cluster` to `leader`
    /// with `strategy`, accounting rounds and messages on `meter`. A cluster
    /// without edges has nothing to gather: the report is free and fully
    /// delivered whatever the strategy.
    ///
    /// # Panics
    ///
    /// Panics if `leader` is out of range, or (executed backends) if the
    /// selected program violates the CONGEST model, starves against its
    /// round budget or overruns its metered charge.
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
    /// Same conditions as [`GatherBackend::gather`].
    fn gather_all(
        &self,
        jobs: &[GatherJob],
        f: f64,
        strategy: &GatherStrategy,
        meter: &mut RoundMeter,
    ) -> Vec<GatherReport> {
        self.gather_all_traced(jobs, f, strategy, meter, &mut ())
    }

    /// [`GatherBackend::gather_all`] with per-cluster observability: emits
    /// one [`Event::ClusterRun`] per job (in job order) into `sink` with
    /// that cluster's own rounds and messages — the per-cluster costs the
    /// parallel fold otherwise collapses into a single max/sum.
    ///
    /// `&mut ()` is the no-op sink; `gather_all` is exactly that call. The
    /// default gathers job by job through [`GatherBackend::gather`];
    /// [`Executed`] runs the whole batch on one engine instead.
    ///
    /// # Panics
    ///
    /// Same conditions as [`GatherBackend::gather`].
    fn gather_all_traced(
        &self,
        jobs: &[GatherJob],
        f: f64,
        strategy: &GatherStrategy,
        meter: &mut RoundMeter,
        sink: &mut dyn TraceSink,
    ) -> Vec<GatherReport> {
        let mut sub_meters: Vec<RoundMeter> = Vec::with_capacity(jobs.len());
        let mut reports = Vec::with_capacity(jobs.len());
        for (idx, job) in jobs.iter().enumerate() {
            let mut sm = RoundMeter::new();
            reports.push(self.gather(&job.cluster, job.leader, f, strategy, &mut sm));
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
    /// [`mfd_runtime::run_each`].
    Executor(ExecutorConfig),
    /// The `mfd-sim` discrete-event engine (any latency model; the round
    /// accounting is latency-invariant).
    Sim(SimConfig),
}

/// The executed backend: strategy selection at the program level, real
/// engine runs, meter numbers from the engines, every run validated against
/// its metered charge.
#[derive(Debug, Clone)]
pub struct Executed {
    /// Engine to run the selected programs on.
    pub engine: GatherEngine,
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
        }
    }

    /// Executed backend on the `mfd-sim` engine.
    pub fn sim(config: SimConfig) -> Self {
        Executed {
            engine: GatherEngine::Sim(config),
        }
    }

    /// The one body behind [`GatherBackend::gather`] (a batch of one) and
    /// [`GatherBackend::gather_all_traced`], for `(cluster, leader)` pairs:
    /// select a program per cluster, run them all on the configured engine,
    /// fold the engines' meters in parallel composition, then — in cluster
    /// order — emit the `ClusterRun`, hold the executed rounds to the
    /// metered charge of the selected program, and report.
    fn gather_each(
        &self,
        clusters: &[(&Graph, usize)],
        f: f64,
        strategy: &GatherStrategy,
        meter: &mut RoundMeter,
        sink: &mut dyn TraceSink,
    ) -> Vec<GatherReport> {
        let selected: Vec<SelectedGather> = clusters
            .iter()
            .map(|&(cluster, leader)| select_strategy_program(cluster, leader, f, strategy))
            .collect();
        let runs = match &self.engine {
            GatherEngine::Executor(config) => run_each(clusters.len(), config, |idx, engine| {
                selected[idx].run_on(engine, clusters[idx].0)
            }),
            GatherEngine::Sim(config) => {
                let sim = SimEngine(Simulator::new(config.clone()), NoFaults);
                (clusters.iter().zip(&selected))
                    .map(|(&(cluster, _), selected)| selected.run_on(&sim, cluster))
                    .collect()
            }
        }
        .expect("selected gather programs are model-compliant");
        meter.merge_parallel(runs.iter().map(|(_, run_meter)| run_meter));
        let mut reports = Vec::with_capacity(runs.len());
        for (idx, ((executed, run_meter), selected)) in runs.into_iter().zip(&selected).enumerate()
        {
            sink.event(&Event::ClusterRun {
                cluster: idx,
                rounds: run_meter.rounds(),
                messages: run_meter.messages(),
            });
            let (cluster, leader) = clusters[idx];
            let charged = selected.charged_rounds(cluster, leader, f);
            assert!(
                executed.rounds <= charged,
                "{}: executed {} rounds exceed the metered charge {} (n={}, m={})",
                executed.strategy,
                executed.rounds,
                charged,
                cluster.n(),
                cluster.m()
            );
            reports.push(executed.into());
        }
        reports
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
        self.gather_each(&[(cluster, leader)], f, strategy, meter, &mut ())
            .pop()
            .expect("one report per cluster")
    }

    fn gather_all_traced(
        &self,
        jobs: &[GatherJob],
        f: f64,
        strategy: &GatherStrategy,
        meter: &mut RoundMeter,
        sink: &mut dyn TraceSink,
    ) -> Vec<GatherReport> {
        let clusters: Vec<(&Graph, usize)> =
            jobs.iter().map(|job| (&job.cluster, job.leader)).collect();
        self.gather_each(&clusters, f, strategy, meter, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let strategy = GatherStrategy::LoadBalance;
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
            let (cluster, _) = g.induced_subgraph(members);
            GatherJob {
                leader: leader_of(&cluster),
                cluster,
            }
        });
        let strategy = GatherStrategy::TreePipeline;
        let backend = Executed::default();
        let mut batched_meter = RoundMeter::new();
        let batched = backend.gather_all(&jobs, 0.1, &strategy, &mut batched_meter);
        let looped: Vec<(GatherReport, RoundMeter)> = (jobs.iter())
            .map(|job| {
                let mut sm = RoundMeter::new();
                let report = backend.gather(&job.cluster, job.leader, 0.1, &strategy, &mut sm);
                (report, sm)
            })
            .collect();
        let mut loop_meter = RoundMeter::new();
        loop_meter.merge_parallel(looped.iter().map(|(_, sm)| sm));
        assert_eq!(batched.len(), 2);
        for (a, (b, _)) in batched.iter().zip(&looped) {
            assert_eq!(a.rounds, b.rounds);
            assert_eq!(a.per_vertex_delivered, b.per_vertex_delivered);
            assert_eq!(a.strategy, b.strategy);
        }
        assert_eq!(batched_meter.rounds(), loop_meter.rounds());
        assert_eq!(batched_meter.messages(), loop_meter.messages());
    }

    /// `gather_to_leader`'s guard (`leader < n.max(1)`) admits the empty
    /// cluster, and a cluster without edges holds no message: every strategy
    /// on every backend must report it free and fully delivered, not panic
    /// on a leader that does not exist or charge a schedule nobody runs.
    #[test]
    fn a_gather_with_nothing_to_deliver_is_free_on_every_strategy_and_backend() {
        let backends: [(&str, &dyn GatherBackend); 3] = [
            ("metered", &Metered),
            ("executed", &Executed::default()),
            ("simulated", &Executed::sim(SimConfig::default())),
        ];
        for n in [0, 1, 3] {
            let cluster = Graph::new(n);
            for strategy in [
                GatherStrategy::TreePipeline,
                GatherStrategy::LoadBalance,
                GatherStrategy::WalkSchedule(WalkParams::default()),
            ] {
                for (name, backend) in backends {
                    let case = format!("n={n}, {strategy:?}, {name}");
                    let mut meter = RoundMeter::new();
                    let report = backend.gather(&cluster, 0, 0.1, &strategy, &mut meter);
                    assert_eq!((meter.rounds(), meter.messages()), (0, 0), "{case}");
                    assert_eq!((report.rounds, report.total_messages), (0, 0), "{case}");
                    assert_eq!(report.delivered_fraction, 1.0, "{case}");
                    assert_eq!(report.per_vertex_delivered, vec![0; n], "{case}");
                }
            }
        }
    }
}
