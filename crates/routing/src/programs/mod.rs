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
//! * [`LoadBalanceProgram`] ⇔ [`crate::load_balance::load_balance_gather`] —
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
//!   notification run (`charge_reverse`, on by default); the executed
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

use mfd_graph::{properties, CsrGraph, Graph};
use mfd_runtime::{
    Envelope, ExecutorConfig, NodeCtx, NodeProgram, Outbox, RuntimeError, RuntimeMessage,
    ShardedConfig, ShardedExecution, ShardedExecutor,
};

use crate::gather::GatherStrategy;
use crate::load_balance::{LoadBalanceParams, LoadBalancePlan};
use crate::walks::plan_walk_schedule;

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
/// [`select_gather_program`] routes such clusters to the tree pipeline. The
/// nearest keep-the-balancer families are comfortably above (tri-grid-8x8
/// ≈ 0.093, hypercube-6 ≈ 0.31).
pub const TREE_ROUTE_PHI: f64 = 0.08;

/// An executed gather program chosen by [`select_gather_program`] or
/// [`select_strategy_program`].
///
/// `SelectedGather` is itself a [`NodeProgram`] (state and message enums
/// dispatch to the chosen program), so a *heterogeneous* set of clusters —
/// each routed to whichever strategy fits it — can run under one program
/// type, e.g. through [`mfd_runtime::run_on_clusters`]. This is what lets
/// the decomposition layer swap metered gathers for executed ones wholesale.
#[derive(Debug, Clone)]
pub enum SelectedGather {
    /// The tree pipeline: always delivers everything; the right call on
    /// low-conductance clusters whose leader is no hub.
    Tree(TreeGatherProgram),
    /// The Lemma 2.2 token balancer (boxed: it carries its whole plan).
    LoadBalance(Box<LoadBalanceProgram>),
    /// The Lemma 2.5 walk schedule (boxed: it carries its path table).
    Walk(Box<WalkScheduleProgram>),
    /// The tree pipeline standing in for a walk schedule whose plan missed
    /// the failure budget (the cluster is not expander enough — planning is
    /// free leader-local work, so the selection can tell up front).
    WalkFallbackTree(TreeGatherProgram),
}

/// Message vocabulary of [`SelectedGather`]: the chosen program's messages,
/// wrapped. All vertices of a cluster run the same selection, so the variant
/// is uniform within a run; word counts delegate to the payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectedMsg {
    /// A [`TreeGatherProgram`] message.
    Tree(TreeMsg),
    /// A [`LoadBalanceProgram`] message.
    LoadBalance(LbMsg),
    /// A [`WalkScheduleProgram`] message.
    Walk(WalkMsg),
}

impl RuntimeMessage for SelectedMsg {
    fn words(&self) -> usize {
        match self {
            SelectedMsg::Tree(m) => m.words(),
            SelectedMsg::LoadBalance(m) => m.words(),
            SelectedMsg::Walk(m) => m.words(),
        }
    }
}

/// Per-vertex state of [`SelectedGather`]: the chosen program's state.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectedState {
    /// State of a [`TreeGatherProgram`] vertex.
    Tree(TreeGatherState),
    /// State of a [`LoadBalanceProgram`] vertex.
    LoadBalance(LoadBalanceState),
    /// State of a [`WalkScheduleProgram`] vertex.
    Walk(WalkScheduleState),
}

/// Drives one inner round through the adapter surface ([`Outbox::new`] /
/// [`Outbox::into_sends`] / [`Outbox::violation`]) and re-wraps the sends.
/// On an inner model violation the illegal destination is replayed on the
/// outer outbox so the engine aborts with the same verdict.
fn dispatch_round<P: NodeProgram>(
    program: &P,
    ctx: &NodeCtx,
    state: &mut P::State,
    inbox: Vec<Envelope<P::Msg>>,
    out: &mut Outbox<'_, SelectedMsg>,
    wrap: impl Fn(P::Msg) -> SelectedMsg,
    replay: SelectedMsg,
) {
    let mut inner: Outbox<'_, P::Msg> = Outbox::new(ctx.id, ctx.neighbors);
    program.round(ctx, state, &inbox, &mut inner);
    if let Some(mfd_congest::CongestError::NotAnEdge { dst, .. }) = inner.violation() {
        out.send(*dst, replay);
        return;
    }
    for (dst, msg, _words) in inner.into_sends() {
        out.send(dst, wrap(msg));
    }
}

impl NodeProgram for SelectedGather {
    type State = SelectedState;
    type Msg = SelectedMsg;

    fn init(&self, ctx: &NodeCtx) -> SelectedState {
        match self {
            SelectedGather::Tree(p) | SelectedGather::WalkFallbackTree(p) => {
                SelectedState::Tree(p.init(ctx))
            }
            SelectedGather::LoadBalance(p) => SelectedState::LoadBalance(p.init(ctx)),
            SelectedGather::Walk(p) => SelectedState::Walk(p.init(ctx)),
        }
    }

    fn round(
        &self,
        ctx: &NodeCtx,
        state: &mut SelectedState,
        inbox: &[Envelope<SelectedMsg>],
        out: &mut Outbox<'_, SelectedMsg>,
    ) {
        // Mismatched envelopes cannot arise (every vertex runs the same
        // selection); they are dropped rather than trusted, in line with the
        // gather programs' own degrade-don't-panic inbox handling.
        match (self, state) {
            (
                SelectedGather::Tree(p) | SelectedGather::WalkFallbackTree(p),
                SelectedState::Tree(s),
            ) => {
                let inbox: Vec<Envelope<TreeMsg>> = inbox
                    .iter()
                    .filter_map(|e| match e.msg {
                        SelectedMsg::Tree(m) => Some(Envelope { src: e.src, msg: m }),
                        _ => None,
                    })
                    .collect();
                dispatch_round(
                    p,
                    ctx,
                    s,
                    inbox,
                    out,
                    SelectedMsg::Tree,
                    SelectedMsg::Tree(TreeMsg::Done),
                );
            }
            (SelectedGather::LoadBalance(p), SelectedState::LoadBalance(s)) => {
                let inbox: Vec<Envelope<LbMsg>> = inbox
                    .iter()
                    .filter_map(|e| match e.msg {
                        SelectedMsg::LoadBalance(m) => Some(Envelope { src: e.src, msg: m }),
                        _ => None,
                    })
                    .collect();
                dispatch_round(
                    p.as_ref(),
                    ctx,
                    s,
                    inbox,
                    out,
                    SelectedMsg::LoadBalance,
                    SelectedMsg::LoadBalance(LbMsg::Stop),
                );
            }
            (SelectedGather::Walk(p), SelectedState::Walk(s)) => {
                let inbox: Vec<Envelope<WalkMsg>> = inbox
                    .iter()
                    .filter_map(|e| match e.msg {
                        SelectedMsg::Walk(m) => Some(Envelope { src: e.src, msg: m }),
                        _ => None,
                    })
                    .collect();
                dispatch_round(
                    p.as_ref(),
                    ctx,
                    s,
                    inbox,
                    out,
                    SelectedMsg::Walk,
                    SelectedMsg::Walk(WalkMsg::Stop),
                );
            }
            _ => unreachable!("selection state matches the selected program"),
        }
    }

    fn halted(&self, ctx: &NodeCtx, state: &SelectedState) -> bool {
        match (self, state) {
            (
                SelectedGather::Tree(p) | SelectedGather::WalkFallbackTree(p),
                SelectedState::Tree(s),
            ) => p.halted(ctx, s),
            (SelectedGather::LoadBalance(p), SelectedState::LoadBalance(s)) => p.halted(ctx, s),
            (SelectedGather::Walk(p), SelectedState::Walk(s)) => p.halted(ctx, s),
            _ => unreachable!("selection state matches the selected program"),
        }
    }

    fn round_budget_hint(&self) -> Option<u64> {
        match self {
            SelectedGather::Tree(p) | SelectedGather::WalkFallbackTree(p) => p.round_budget_hint(),
            SelectedGather::LoadBalance(p) => p.round_budget_hint(),
            SelectedGather::Walk(p) => p.round_budget_hint(),
        }
    }

    fn quiescent(&self, ctx: &NodeCtx, state: &SelectedState) -> bool {
        match (self, state) {
            (
                SelectedGather::Tree(p) | SelectedGather::WalkFallbackTree(p),
                SelectedState::Tree(s),
            ) => p.quiescent(ctx, s),
            (SelectedGather::LoadBalance(p), SelectedState::LoadBalance(s)) => p.quiescent(ctx, s),
            (SelectedGather::Walk(p), SelectedState::Walk(s)) => p.quiescent(ctx, s),
            _ => unreachable!("selection state matches the selected program"),
        }
    }
}

impl GatherProgram for SelectedGather {
    fn strategy_name(&self) -> &'static str {
        match self {
            SelectedGather::Tree(p) => p.strategy_name(),
            SelectedGather::LoadBalance(p) => p.strategy_name(),
            SelectedGather::Walk(p) => p.strategy_name(),
            SelectedGather::WalkFallbackTree(_) => "walk-schedule(tree-fallback)",
        }
    }

    fn total_messages(&self) -> usize {
        match self {
            SelectedGather::Tree(p) | SelectedGather::WalkFallbackTree(p) => p.total_messages(),
            SelectedGather::LoadBalance(p) => p.total_messages(),
            SelectedGather::Walk(p) => p.total_messages(),
        }
    }

    fn per_vertex_delivered(&self, states: &[SelectedState]) -> Vec<usize> {
        match self {
            SelectedGather::Tree(p) | SelectedGather::WalkFallbackTree(p) => {
                let inner: Vec<TreeGatherState> = states
                    .iter()
                    .map(|s| match s {
                        SelectedState::Tree(t) => t.clone(),
                        _ => unreachable!("selection state matches the selected program"),
                    })
                    .collect();
                p.per_vertex_delivered(&inner)
            }
            SelectedGather::LoadBalance(p) => {
                let inner: Vec<LoadBalanceState> = states
                    .iter()
                    .map(|s| match s {
                        SelectedState::LoadBalance(t) => t.clone(),
                        _ => unreachable!("selection state matches the selected program"),
                    })
                    .collect();
                p.per_vertex_delivered(&inner)
            }
            SelectedGather::Walk(p) => {
                let inner: Vec<WalkScheduleState> = states
                    .iter()
                    .map(|s| match s {
                        SelectedState::Walk(t) => t.clone(),
                        _ => unreachable!("selection state matches the selected program"),
                    })
                    .collect();
                p.per_vertex_delivered(&inner)
            }
        }
    }
}

impl SelectedGather {
    /// Runs the chosen program on the synchronous executor and reports it.
    ///
    /// # Errors
    ///
    /// Propagates any [`RuntimeError`] from the executor.
    pub fn execute(
        &self,
        cluster: &Graph,
        config: &ExecutorConfig,
    ) -> Result<ExecutedGather, RuntimeError> {
        execute_gather(cluster, self, config).map(|(r, _)| r)
    }
}

/// A cheap conductance estimate: exact on small clusters, spectral sweep
/// (an upper bound on φ) otherwise, 1.0 when neither applies.
fn conductance_estimate(cluster: &Graph) -> f64 {
    properties::conductance_exact(cluster)
        .or_else(|| properties::spectral_sweep_cut(cluster, 80).map(|c| c.conductance))
        .unwrap_or(1.0)
}

/// Picks the executed gather program for a cluster that would otherwise run
/// the load balancer: low-conductance (φ ≲ [`TREE_ROUTE_PHI`]) clusters
/// whose leader has no hub degree (`deg(leader)² ≤ n`) are routed to
/// [`TreeGatherProgram`] — on such grid-like clusters the balancer's
/// end-game is reseed-window sensitive while the tree pipeline is both
/// cheaper and complete; everything else gets [`LoadBalanceProgram`] sized
/// by a fresh [`LoadBalancePlan`].
///
/// # Panics
///
/// Panics if `leader` is out of range.
pub fn select_gather_program(
    cluster: &Graph,
    leader: usize,
    f: f64,
    params: &LoadBalanceParams,
) -> SelectedGather {
    select_for_load_balance(cluster, leader, f, params).0
}

/// The balancer-vs-tree routing behind [`select_gather_program`], keeping
/// the plan it computed for callers that also need the metered oracle.
fn select_for_load_balance(
    cluster: &Graph,
    leader: usize,
    f: f64,
    params: &LoadBalanceParams,
) -> (SelectedGather, Option<LoadBalancePlan>) {
    assert!(leader < cluster.n().max(1), "leader out of range");
    let hub_degree = cluster.degree(leader).pow(2) > cluster.n();
    if !hub_degree && conductance_estimate(cluster) < TREE_ROUTE_PHI {
        (
            SelectedGather::Tree(TreeGatherProgram::new(cluster, leader)),
            None,
        )
    } else {
        let plan = LoadBalancePlan::new(cluster, params);
        let program = LoadBalanceProgram::new(cluster, leader, f, &plan);
        (SelectedGather::LoadBalance(Box::new(program)), Some(plan))
    }
}

/// The plans a selection computed along the way — [`LoadBalancePlan`] /
/// [`crate::walks::WalkPlan`] are deterministic but not free (spectral
/// estimates, walk seed search), so callers that also run the metered
/// oracle on the same cluster (the `Executed` backend's charge check) reuse
/// them instead of replanning.
#[derive(Debug, Default)]
pub struct SelectionPlans {
    /// The balancer plan, present exactly when the balancer was selected.
    pub load_balance: Option<LoadBalancePlan>,
    /// The walk plan, present exactly when the walk schedule was selected.
    pub walk: Option<crate::walks::WalkPlan>,
}

/// Program-level counterpart of [`crate::gather::gather_to_leader`]: picks
/// the executed program realizing `strategy` on this cluster, including
/// every fallback the metered path applies —
///
/// * [`GatherStrategy::TreePipeline`] → [`TreeGatherProgram`];
/// * [`GatherStrategy::LoadBalance`] → [`select_gather_program`]'s
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
    select_strategy_program_with_plans(cluster, leader, f, strategy).0
}

/// [`select_strategy_program`] plus the plans the selection computed
/// ([`SelectionPlans`]).
pub fn select_strategy_program_with_plans(
    cluster: &Graph,
    leader: usize,
    f: f64,
    strategy: &GatherStrategy,
) -> (SelectedGather, SelectionPlans) {
    assert!(leader < cluster.n().max(1), "leader out of range");
    match strategy {
        GatherStrategy::TreePipeline => (
            SelectedGather::Tree(TreeGatherProgram::new(cluster, leader)),
            SelectionPlans::default(),
        ),
        GatherStrategy::LoadBalance(params) => {
            let (selected, plan) = select_for_load_balance(cluster, leader, f, params);
            (
                selected,
                SelectionPlans {
                    load_balance: plan,
                    walk: None,
                },
            )
        }
        GatherStrategy::WalkSchedule(params) => {
            let plan = plan_walk_schedule(cluster, leader, f, params);
            if plan.good_fraction < 1.0 - f {
                (
                    SelectedGather::WalkFallbackTree(TreeGatherProgram::new(cluster, leader)),
                    SelectionPlans::default(),
                )
            } else {
                let program = WalkScheduleProgram::new(cluster, &plan);
                (
                    SelectedGather::Walk(Box::new(program)),
                    SelectionPlans {
                        load_balance: None,
                        walk: Some(plan),
                    },
                )
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
    let run = ShardedExecutor::new(ShardedConfig::per_thread(config))
        .run(&CsrGraph::from_graph(cluster), program)?;
    let report = program.executed_report(&run.states, run.rounds, run.messages);
    Ok((report, run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_congest::RoundMeter;
    use mfd_graph::generators;

    /// The ROADMAP-documented sensitivity: tri-grid-10x10's token-balancer
    /// end-game overruns the charge, so selection must route it (and its
    /// grid siblings) to the tree pipeline, whose executed rounds are pinned
    /// against the metered charge.
    #[test]
    fn selection_routes_low_conductance_grids_to_the_tree_pipeline() {
        for (rows, cols) in [(10, 10), (12, 12)] {
            let g = generators::triangulated_grid(rows, cols);
            let leader = (0..g.n()).max_by_key(|&v| g.degree(v)).unwrap();
            let sel = select_gather_program(&g, leader, 0.1, &LoadBalanceParams::default());
            assert_eq!(sel.strategy_name(), "tree-pipeline", "{rows}x{cols}");
            let mut meter = RoundMeter::new();
            let charged = crate::gather::tree_gather(&g, leader, &mut meter);
            let report = sel.execute(&g, &ExecutorConfig::default()).unwrap();
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
            let sel = select_gather_program(&g, leader, f, &LoadBalanceParams::default());
            assert_eq!(sel.strategy_name(), "load-balance", "{name}");
            let report = sel.execute(&g, &ExecutorConfig::default()).unwrap();
            assert!(
                report.delivered_fraction >= 1.0 - f,
                "{name}: delivered {}",
                report.delivered_fraction
            );
        }
    }
}
