//! The §2 gather strategies as *executed* message-passing programs.
//!
//! Everything else in this crate is **metered**: a centralized computation
//! that simulates the communication pattern and charges rounds on a
//! [`mfd_congest::RoundMeter`]. The programs in this module are the
//! **executed** counterparts — genuine [`mfd_runtime::NodeProgram`]s whose
//! vertices only ever see their own state and their inboxes, runnable
//! unmodified on the synchronous [`mfd_runtime::ShardedExecutor`] and on the
//! `mfd-sim` discrete-event engine:
//!
//! * [`TreeGatherProgram`] ⇔ [`crate::gather::tree_gather`] — BFS-tree
//!   construction by flooding, pipelined convergecast of `deg(v)` unit
//!   messages per vertex with in-band termination detection, and a pipelined
//!   echo that distributes the answers back down the tree.
//! * [`LoadBalanceProgram`] ⇔ [`crate::load_balance::load_balance_gather_with_plan`] —
//!   the Lemma 2.2 token balancing on the expander split, with per-edge load
//!   gossip packed into the same O(log n)-bit message that carries a moving
//!   token, sized by the shared [`crate::load_balance::LoadBalancePlan`].
//! * [`WalkScheduleProgram`] ⇔ [`crate::walks::execute_walk_gather`] —
//!   store-and-forward token routing along the walk trajectories of a
//!   [`crate::walks::WalkPlan`], released by a schedule-broadcast wave and
//!   terminated by a stop wave from the leader.
//!
//! # Metered vs executed accounting
//!
//! The metered paths *charge* the paper's round bounds; the executed programs
//! *spend* rounds, one per synchronous step, policed by the engines'
//! [`mfd_congest::RoundMeter`] (one O(log n)-bit word per edge per direction
//! per round). The differential contract, validated by the integration tests
//! and the `report gather` benchmark section, is:
//!
//! * **rounds**: executed ≤ charged. The metered bound includes the reverse
//!   notification run (always charged); the executed
//!   programs overlap their phases (tokens start flowing while the BFS wave
//!   is still spreading, answers are echoed while the gather is still
//!   draining) and terminate by in-band detection, so they land well inside
//!   the charged budget on every acceptance family.
//! * **delivered fraction**: executed ≥ the metered guarantee. The tree
//!   pipeline delivers everything; the walk schedule delivers *exactly* the
//!   planned good set (both engines route the same trajectories); the load
//!   balancer runs the same token budgets with one-round-stale neighbor
//!   loads, which the `2Δ⋄ + 1` threshold absorbs.
//! * **messages**: executed counts are reported next to the charged counts in
//!   `BENCH_gather.json`. The executed programs pay for what the metered
//!   paths idealize away (parent adoption, done markers, load gossip), so
//!   their message counts sit above the charged ones by design; CI's
//!   regression gate pins both.

use mfd_congest::RoundMeter;
use mfd_graph::{properties, Graph};
use mfd_runtime::{
    ExecutorConfig, NodeProgram, RuntimeError, SessionEngine, ShardedConfig, ShardedExecution,
    ShardedExecutor,
};
use mfd_trace::NullSink;

use crate::gather::{tree_gather, GatherStrategy};
use crate::load_balance::{load_balance_gather_with_plan, LoadBalancePlan};
use crate::walks::{execute_walk_gather, plan_walk_schedule, WalkParams, WalkPlan};

mod load_balance;
mod tree;
mod walks;

pub use load_balance::{LbMsg, LoadBalanceProgram, LoadBalanceState};
pub use tree::{TreeGatherProgram, TreeGatherState, TreeMsg};
pub use walks::{WalkMsg, WalkScheduleProgram, WalkScheduleState};

/// Outcome of one executed gather, in the vocabulary of
/// [`crate::gather::GatherReport`] so the two modes compare directly.
#[derive(Debug, Clone)]
pub struct ExecutedGather {
    /// Rounds actually executed (and validated) by the engine.
    pub rounds: u64,
    /// Program messages actually delivered.
    pub messages: u64,
    /// Fraction of the `2|E(S)|` messages delivered to the leader.
    pub delivered_fraction: f64,
    /// Delivered message count per cluster vertex.
    pub per_vertex_delivered: Vec<usize>,
    /// Total number of gatherable messages.
    pub total_messages: usize,
    /// Strategy name (matches the metered report's).
    pub strategy: &'static str,
}

impl From<ExecutedGather> for crate::gather::GatherReport {
    /// Repackages an executed run in the metered report vocabulary (the
    /// engine-only `messages` count has no metered counterpart and is
    /// dropped; it lives on the meters).
    fn from(executed: ExecutedGather) -> Self {
        crate::gather::GatherReport {
            rounds: executed.rounds,
            delivered_fraction: executed.delivered_fraction,
            per_vertex_delivered: executed.per_vertex_delivered,
            total_messages: executed.total_messages,
            strategy: executed.strategy,
        }
    }
}

/// Common reporting surface of the three gather programs.
///
/// The extraction is a pure function of the final states, so it applies to
/// any engine's output: pass `ShardedExecution::states` from the synchronous
/// executor or `SimExecution::states` from `mfd-sim`.
pub trait GatherProgram: NodeProgram {
    /// Strategy name, matching the metered [`crate::gather::GatherReport`].
    fn strategy_name(&self) -> &'static str;

    /// Total number of gatherable messages (`2|E|` of the cluster).
    fn total_messages(&self) -> usize;

    /// Per-vertex delivered counts, extracted from the final states.
    fn per_vertex_delivered(&self, states: &[Self::State]) -> Vec<usize>;

    /// Unit messages that *physically reached the leader*, extracted from
    /// the final states.
    ///
    /// On completed fault-free runs this equals the summed per-vertex counts
    /// (the default). The distinction matters to the fault experiments: a
    /// run starved by injected losses leaves source-side bookkeeping (e.g.
    /// the tree wave's coverage) looking complete while the leader-side
    /// truth is not — implementations whose per-vertex counts are
    /// source-side override this with the leader's own receipts.
    fn leader_received(&self, states: &[Self::State]) -> u64 {
        self.per_vertex_delivered(states).iter().sum::<usize>() as u64
    }

    /// Packages an engine's output as an [`ExecutedGather`].
    fn executed_report(
        &self,
        states: &[Self::State],
        rounds: u64,
        messages: u64,
    ) -> ExecutedGather {
        let per_vertex_delivered = self.per_vertex_delivered(states);
        let delivered: usize = per_vertex_delivered.iter().sum();
        let total_messages = self.total_messages();
        ExecutedGather {
            rounds,
            messages,
            delivered_fraction: if total_messages == 0 {
                1.0
            } else {
                delivered as f64 / total_messages as f64
            },
            per_vertex_delivered,
            total_messages,
            strategy: self.strategy_name(),
        }
    }
}

/// Asserts that a plan's expander split was built for exactly this cluster:
/// the per-vertex port ranges must reproduce the cluster's degree sequence
/// (a total-count check alone would accept any graph with the same degree
/// sum and then build garbage routing tables).
pub(crate) fn assert_plan_matches(cluster: &Graph, split: &crate::split::ExpanderSplit) {
    assert_eq!(
        split.port_offset.len(),
        cluster.n(),
        "plan does not match the cluster"
    );
    let mut expected = 0usize;
    for v in 0..cluster.n() {
        assert_eq!(
            split.port_offset[v], expected,
            "plan does not match the cluster"
        );
        expected += cluster.degree(v).max(1);
    }
    assert_eq!(
        split.num_ports(),
        expected,
        "plan does not match the cluster"
    );
}

/// Conductance below which a grid-like cluster's token balancer end-game is
/// known to be reseed-window sensitive (φ ≲ 0.07 — the tri-grid-10x10
/// overrun the ROADMAP documents, whose sweep-cut estimate sits at ≈ 0.073);
/// `select_gather_program` routes such clusters to the tree pipeline. The
/// nearest keep-the-balancer families are comfortably above (tri-grid-8x8
/// ≈ 0.093, hypercube-6 ≈ 0.31).
pub(crate) const TREE_ROUTE_PHI: f64 = 0.08;

/// The executed gather program `select_gather_program` or
/// [`select_strategy_program`] chose for one cluster, together with the plan
/// that sized it.
///
/// A selection is a plain value, not a program: a heterogeneous set of
/// clusters — each routed to whichever strategy fits it — is a list of
/// selections, and each cluster run dispatches **once**, outside the
/// program, to a run of the concrete program on either engine
/// (`SelectedGather::run_on`). The
/// carried plan is what the metered oracle of the same cluster replays
/// (`SelectedGather::charged_rounds`): planning is deterministic but not
/// free (spectral estimates, walk seed search), so nothing plans twice.
#[derive(Debug, Clone)]
pub enum SelectedGather {
    /// The tree pipeline: always delivers everything; the right call on
    /// low-conductance clusters whose leader is no hub.
    Tree(TreeGatherProgram),
    /// The Lemma 2.2 token balancer (boxed: both halves are large).
    LoadBalance {
        /// The program, sized by `plan`.
        program: Box<LoadBalanceProgram>,
        /// The plan the selection computed.
        plan: Box<LoadBalancePlan>,
    },
    /// The Lemma 2.5 walk schedule (boxed: it carries its path table).
    Walk {
        /// The program, routing `plan`'s good messages.
        program: Box<WalkScheduleProgram>,
        /// The plan the selection computed.
        plan: Box<WalkPlan>,
        /// The parameters the plan was searched under (the metered charge
        /// reads its congestion factor and reverse-run switch).
        params: WalkParams,
    },
    /// The tree pipeline standing in for a walk schedule whose plan missed
    /// the failure budget (the cluster is not expander enough — planning is
    /// free leader-local work, so the selection can tell up front).
    WalkFallbackTree(TreeGatherProgram),
}

impl SelectedGather {
    /// Strategy name, matching the metered [`crate::gather::GatherReport`].
    pub fn strategy_name(&self) -> &'static str {
        match self {
            SelectedGather::Tree(p) => p.strategy_name(),
            SelectedGather::LoadBalance { program, .. } => program.strategy_name(),
            SelectedGather::Walk { program, .. } => program.strategy_name(),
            SelectedGather::WalkFallbackTree(_) => "walk-schedule(tree-fallback)",
        }
    }

    /// Runs the selected program on `cluster` — the graph the selection was
    /// made on — on `engine` (the executor, or the event engine under any
    /// fault hook), and returns its report and the engine's meter.
    ///
    /// # Errors
    ///
    /// Propagates any [`RuntimeError`] from the engine.
    pub(crate) fn run_on<E>(
        &self,
        engine: &E,
        cluster: &Graph,
    ) -> Result<(ExecutedGather, RoundMeter), RuntimeError>
    where
        E: SessionEngine<TreeGatherProgram>
            + SessionEngine<LoadBalanceProgram>
            + SessionEngine<WalkScheduleProgram>,
    {
        match self {
            SelectedGather::Tree(p) | SelectedGather::WalkFallbackTree(p) => {
                self.run_program(engine, cluster, p)
            }
            SelectedGather::LoadBalance { program: p, .. } => {
                self.run_program(engine, cluster, p.as_ref())
            }
            SelectedGather::Walk { program: p, .. } => {
                self.run_program(engine, cluster, p.as_ref())
            }
        }
    }

    /// The concrete program run to the end on `engine`, and its report —
    /// under the selection's strategy name (the fallback tree reports as the
    /// walk schedule it stands in for) — next to the engine meter it was
    /// read from.
    fn run_program<E, P>(
        &self,
        engine: &E,
        cluster: &Graph,
        program: &P,
    ) -> Result<(ExecutedGather, RoundMeter), RuntimeError>
    where
        E: SessionEngine<P>,
        P: GatherProgram,
    {
        let mut sink = NullSink;
        let mut session = engine.open(cluster, program, None, &mut sink)?;
        while E::step(&mut session)?.is_some() {}
        let run = E::finish(session)?;
        let (states, meter) = E::outcome(&run);
        let report = ExecutedGather {
            strategy: self.strategy_name(),
            ..program.executed_report(states, meter.rounds(), meter.messages())
        };
        Ok((report, meter.clone()))
    }

    /// The metered charge of the program that was *selected* — the oracle
    /// executed rounds are validated against. When the selection overrode
    /// the requested strategy (conductance-routed the balancer to the tree,
    /// or fell back from an unplannable walk schedule), this is the metered
    /// cost of what actually runs, replayed from the carried plan.
    pub(crate) fn charged_rounds(&self, cluster: &Graph, leader: usize, f: f64) -> u64 {
        let mut oracle = RoundMeter::new();
        match self {
            SelectedGather::Tree(_) | SelectedGather::WalkFallbackTree(_) => {
                tree_gather(cluster, leader, &mut oracle);
            }
            SelectedGather::LoadBalance { plan, .. } => {
                load_balance_gather_with_plan(cluster, leader, f, plan, &mut oracle);
            }
            SelectedGather::Walk { plan, params, .. } => {
                execute_walk_gather(cluster, plan, params, &mut oracle);
            }
        }
        oracle.rounds()
    }
}

/// A cheap conductance estimate: exact on small clusters, spectral sweep
/// (an upper bound on φ) otherwise, 1.0 when neither applies.
fn conductance_estimate(cluster: &Graph) -> f64 {
    properties::conductance_exact(cluster)
        .or_else(|| properties::spectral_sweep_cut(cluster, 80))
        .map_or(1.0, |c| c.conductance)
}

/// Picks the executed gather program for a cluster that would otherwise run
/// the load balancer: low-conductance (φ ≲ `TREE_ROUTE_PHI`) clusters
/// whose leader has no hub degree (`deg(leader)² ≤ n`) are routed to
/// [`TreeGatherProgram`] — on such grid-like clusters the balancer's
/// end-game is reseed-window sensitive while the tree pipeline is both
/// cheaper and complete; everything else gets [`LoadBalanceProgram`] sized
/// by a fresh [`LoadBalancePlan`], which the selection keeps.
///
/// # Panics
///
/// Panics if `leader` is out of range.
pub(crate) fn select_gather_program(cluster: &Graph, leader: usize, f: f64) -> SelectedGather {
    assert!(leader < cluster.n(), "leader out of range");
    let hub_degree = cluster.degree(leader).pow(2) > cluster.n();
    if !hub_degree && conductance_estimate(cluster) < TREE_ROUTE_PHI {
        SelectedGather::Tree(TreeGatherProgram::new(cluster, leader))
    } else {
        let plan = Box::new(LoadBalancePlan::new(cluster));
        let program = Box::new(LoadBalanceProgram::new(cluster, leader, f, &plan));
        SelectedGather::LoadBalance { program, plan }
    }
}

/// Program-level counterpart of [`crate::gather::gather_to_leader`]: picks
/// the executed program realizing `strategy` on this cluster, including
/// every fallback the metered path applies —
///
/// * a cluster without edges has nothing to gather → the (free)
///   [`TreeGatherProgram`], whatever the strategy;
/// * [`GatherStrategy::TreePipeline`] → [`TreeGatherProgram`];
/// * [`GatherStrategy::LoadBalance`] → `select_gather_program`'s
///   conductance/leader-degree routing between the balancer and the tree;
/// * [`GatherStrategy::WalkSchedule`] → [`WalkScheduleProgram`] when the
///   plan meets the failure budget, the tree pipeline otherwise (the same
///   free leader-local planning verdict the metered path falls back on).
///
/// # Panics
///
/// Panics if `leader` is out of range.
pub fn select_strategy_program(
    cluster: &Graph,
    leader: usize,
    f: f64,
    strategy: &GatherStrategy,
) -> SelectedGather {
    assert!(leader < cluster.n().max(1), "leader out of range");
    if cluster.m() == 0 {
        return SelectedGather::Tree(TreeGatherProgram::new(cluster, leader));
    }
    match strategy {
        GatherStrategy::TreePipeline => {
            SelectedGather::Tree(TreeGatherProgram::new(cluster, leader))
        }
        GatherStrategy::LoadBalance => select_gather_program(cluster, leader, f),
        GatherStrategy::WalkSchedule(params) => {
            let plan = Box::new(plan_walk_schedule(cluster, leader, f, params));
            if plan.good_fraction < 1.0 - f {
                SelectedGather::WalkFallbackTree(TreeGatherProgram::new(cluster, leader))
            } else {
                let program = Box::new(WalkScheduleProgram::new(cluster, &plan));
                SelectedGather::Walk {
                    program,
                    plan,
                    params: params.clone(),
                }
            }
        }
    }
}

/// Runs a gather program on the synchronous executor and reports it.
///
/// # Errors
///
/// Propagates any [`RuntimeError`] from the executor.
pub fn execute_gather<P: GatherProgram>(
    cluster: &Graph,
    program: &P,
    config: &ExecutorConfig,
) -> Result<(ExecutedGather, ShardedExecution<P::State>), RuntimeError> {
    let run = ShardedExecutor::new(ShardedConfig::per_thread(config)).run(cluster, program)?;
    let report = program.executed_report(&run.states, run.rounds, run.messages);
    Ok((report, run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_graph::generators;

    fn run(selected: &SelectedGather, cluster: &Graph) -> ExecutedGather {
        let (report, _) = selected
            .run_on(&ShardedExecutor::default(), cluster)
            .unwrap();
        report
    }

    /// The ROADMAP-documented sensitivity: tri-grid-10x10's token-balancer
    /// end-game overruns the charge, so selection must route it (and its
    /// grid siblings) to the tree pipeline, whose executed rounds are pinned
    /// against the metered charge.
    #[test]
    fn selection_routes_low_conductance_grids_to_the_tree_pipeline() {
        for (rows, cols) in [(10, 10), (12, 12)] {
            let g = generators::triangulated_grid(rows, cols);
            let leader = (0..g.n()).max_by_key(|&v| g.degree(v)).unwrap();
            let sel = select_gather_program(&g, leader, 0.1);
            assert_eq!(sel.strategy_name(), "tree-pipeline", "{rows}x{cols}");
            let mut meter = RoundMeter::new();
            let charged = crate::gather::tree_gather(&g, leader, &mut meter);
            let report = run(&sel, &g);
            assert!(
                report.rounds <= charged.rounds,
                "{rows}x{cols}: executed {} > charged {}",
                report.rounds,
                charged.rounds
            );
            assert!((report.delivered_fraction - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn selection_keeps_hubs_and_expanders_on_the_balancer() {
        // The wheel's leader is a Θ(n)-degree hub; the hypercube is a
        // bona-fide expander (φ ≈ 0.31) — both stay on Lemma 2.2, and both
        // deliver within the failure budget.
        for (name, g) in [
            ("wheel-64", generators::wheel(64)),
            ("hypercube-6", generators::hypercube(6)),
        ] {
            let leader = (0..g.n()).max_by_key(|&v| g.degree(v)).unwrap();
            let f = 0.1;
            let sel = select_gather_program(&g, leader, f);
            assert_eq!(sel.strategy_name(), "load-balance", "{name}");
            let report = run(&sel, &g);
            assert!(
                report.delivered_fraction >= 1.0 - f,
                "{name}: delivered {}",
                report.delivered_fraction
            );
        }
    }

    /// The selection keeps the plan it sized its program by — exactly what a
    /// direct planner call computes (planners are pure) — and the metered
    /// oracle replays *that* plan: tampering with the carried copy moves the
    /// charge, which a replanning oracle would not notice.
    #[test]
    fn the_selection_carries_the_plan_it_was_sized_by() {
        let f = 0.1;
        let walk = WalkParams {
            max_seed_tries: 6,
            max_walks_per_message: 16,
            max_steps: 256,
            ..WalkParams::default()
        };
        let rounds = |charge: &dyn Fn(&mut RoundMeter)| {
            let mut meter = RoundMeter::new();
            charge(&mut meter);
            meter.rounds()
        };
        let mut variants = Vec::new();
        for (name, g) in [
            ("wheel-32", generators::wheel(32)),
            ("tri-grid-6x6", generators::triangulated_grid(6, 6)),
            ("hypercube-4", generators::hypercube(4)),
        ] {
            let leader = (0..g.n()).max_by_key(|&v| g.degree(v)).unwrap();
            let tree_charge = rounds(&|m| drop(tree_gather(&g, leader, m)));
            for strategy in [
                GatherStrategy::TreePipeline,
                GatherStrategy::LoadBalance,
                GatherStrategy::WalkSchedule(walk.clone()),
            ] {
                let selected = select_strategy_program(&g, leader, f, &strategy);
                variants.push(selected.strategy_name());
                let charged = selected.charged_rounds(&g, leader, f);
                match selected {
                    // The tree variants carry no plan: the oracle is the tree's.
                    SelectedGather::Tree(_) | SelectedGather::WalkFallbackTree(_) => {
                        assert_eq!(charged, tree_charge, "{name}");
                    }
                    SelectedGather::LoadBalance { program, mut plan } => {
                        assert_eq!(*plan, LoadBalancePlan::new(&g), "{name}");
                        let direct = |m: &mut _| {
                            drop(load_balance_gather_with_plan(&g, leader, f, &plan, m))
                        };
                        assert_eq!(charged, rounds(&direct), "{name}");
                        // One balancing step per phase moves the charge.
                        plan.steps_per_phase = 1;
                        let tampered = SelectedGather::LoadBalance { program, plan };
                        assert_ne!(tampered.charged_rounds(&g, leader, f), charged, "{name}");
                    }
                    SelectedGather::Walk {
                        program,
                        mut plan,
                        params,
                    } => {
                        assert_eq!(*plan, plan_walk_schedule(&g, leader, f, &walk), "{name}");
                        let direct = |m: &mut _| drop(execute_walk_gather(&g, &plan, &walk, m));
                        assert_eq!(charged, rounds(&direct), "{name}");
                        // One more step per walk: `2 · factor · r` more rounds.
                        plan.schedule.steps += 1;
                        let r = plan.schedule.walks_per_message;
                        let tampered = SelectedGather::Walk {
                            program,
                            plan,
                            params,
                        };
                        assert_eq!(
                            tampered.charged_rounds(&g, leader, f),
                            charged + 2 * (walk.congestion_factor * r) as u64
                        );
                    }
                }
            }
        }
        variants.sort_unstable();
        variants.dedup();
        assert_eq!(
            variants,
            [
                "load-balance",
                "tree-pipeline",
                "walk-schedule",
                "walk-schedule(tree-fallback)"
            ]
        );
    }
}
