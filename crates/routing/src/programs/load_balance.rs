//! The executed load-balancing gatherer (Lemma 2.2).
//!
//! Every vertex locally simulates its own expander-split gadget: the ports,
//! their tokens and the gadget-internal balancing moves are free local work,
//! exactly as the split construction promises. Only moves across *external*
//! split edges — which correspond one-to-one to cluster edges — become
//! messages. One round carries at most one [`LbMsg::Update`] per edge per
//! direction, packing the boundary port's current load together with the
//! token (if any) the balancing rule pushes across, the classic O(log n)-bit
//! piggyback the metered path idealizes away.
//!
//! Differences from the metered [`crate::load_balance::load_balance_gather`]
//! (both run from the same [`LoadBalancePlan`], so budgets and thresholds are
//! identical):
//!
//! * Neighbor loads across external edges are one round stale (a vertex knows
//!   what its neighbor advertised last round, not its live load). The
//!   `2Δ⋄ + 1` threshold absorbs the staleness; the executed delivered
//!   fraction is validated against the metered guarantee, not against an
//!   identical trajectory.
//! * Instead of the metered path's per-phase reseeding of *undelivered*
//!   messages (which would require the reverse notification mid-run), every
//!   vertex blindly reseeds its own messages at each phase boundary — a
//!   superset of the metered token population.
//! * Termination is distributed: the leader watches its absorbed fraction and
//!   floods a [`LbMsg::Stop`] wave once the failure budget is met or no new
//!   message has arrived for two phases; a round budget derived from the plan
//!   backstops everything.

use mfd_graph::Graph;
use mfd_runtime::{Envelope, NodeCtx, NodeProgram, Outbox, RuntimeMessage};

use crate::load_balance::{LoadBalancePlan, MAX_PHASES};

use super::GatherProgram;

/// Message vocabulary of the executed load balancer; one O(log n)-bit word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LbMsg {
    /// Per-edge gossip: the sender's boundary-port load after this round's
    /// moves, plus the token (a message id) moved across the edge, if any.
    Update {
        /// Load of the sending port.
        load: u32,
        /// Token pushed across this external edge this round.
        token: Option<u32>,
    },
    /// The leader's failure budget is met: halt after forwarding.
    Stop,
}

impl RuntimeMessage for LbMsg {}

/// How a split neighbor of a port is reached: inside the gadget (free) or
/// across the one external edge the port hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SplitNbr {
    /// Gadget-internal neighbor, by local port index.
    Internal(u32),
    /// The external counterpart across the cluster edge this port hosts.
    External,
}

/// Per-vertex state of [`LoadBalanceProgram`].
#[derive(Debug, Clone, PartialEq)]
pub struct LoadBalanceState {
    /// Token stacks per local port (token = originating global port id).
    tokens: Vec<Vec<u32>>,
    /// Last advertised load of each local port's external counterpart
    /// (`u64::MAX` until the first gossip arrives).
    ext_load: Vec<u64>,
    /// Last load this vertex advertised per local port (delta gossip).
    advertised: Vec<Option<u64>>,
    /// For ports facing the leader: message ids already pushed into the sink
    /// (resending a clone the leader has absorbed is wasted bandwidth, so
    /// unseen tokens are preferred).
    sink_sent: Vec<Vec<bool>>,
    reseeds: u32,
    /// Last round any token moved at this vertex (in, out, or between its
    /// gadget ports) — the local analogue of the metered path's
    /// balanced-fixpoint phase break.
    last_activity: u64,
    /// Leader only: per-global-port delivery flags.
    pub delivered: Vec<bool>,
    /// Leader only: delivered message count (its own included).
    pub delivered_count: u64,
    last_progress: u64,
    stop_sent: bool,
    stop_seen: bool,
    done: bool,
}

/// The Lemma 2.2 load-balancing gatherer as a real message-passing program;
/// executed counterpart of [`crate::load_balance::load_balance_gather_with_plan`],
/// sized by the same [`LoadBalancePlan`].
#[derive(Debug, Clone)]
pub struct LoadBalanceProgram {
    target: usize,
    f: f64,
    degrees: Vec<usize>,
    total_messages: usize,
    threshold: u64,
    tokens_per_message: usize,
    steps_per_phase: u64,
    max_reseeds: u32,
    reseed_window: u64,
    round_budget: u64,
    /// Global port range start per vertex.
    port_offset: Vec<usize>,
    /// Owner vertex per global port.
    owner: Vec<usize>,
    /// Per vertex, per local port: split neighbors in split-adjacency order.
    nbrs: Vec<Vec<Vec<SplitNbr>>>,
    /// Per vertex: (neighbor vertex, local port facing it), ascending by
    /// neighbor for O(log deg) lookup.
    port_of_nbr: Vec<Vec<(usize, u32)>>,
    /// Per vertex, per local port: whether the external counterpart belongs
    /// to the leader (such ports push unconditionally — the leader drains
    /// its ports every round, so idle sink capacity is pure waste).
    faces_target: Vec<Vec<bool>>,
    num_ports: usize,
}

impl LoadBalanceProgram {
    /// Builds the executed gatherer for `cluster` towards `target`,
    /// tolerating failure fraction `f`, from a shared plan.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range or `plan` was built for a different
    /// cluster.
    pub fn new(cluster: &Graph, target: usize, f: f64, plan: &LoadBalancePlan) -> Self {
        assert!(target < cluster.n().max(1), "target out of range");
        let split = &plan.split;
        let n = cluster.n();
        let num_ports = split.num_ports();
        super::assert_plan_matches(cluster, split);
        let mut nbrs: Vec<Vec<Vec<SplitNbr>>> = (0..n)
            .map(|v| vec![Vec::new(); cluster.degree(v).max(1)])
            .collect();
        let mut port_of_nbr: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
        // External pairings: vertex v's local port facing each neighbor.
        let mut ext_of_port: Vec<Option<usize>> = vec![None; num_ports];
        for &((u, v), (pu, pv)) in &split.external {
            ext_of_port[pu] = Some(pv);
            ext_of_port[pv] = Some(pu);
            port_of_nbr[u].push((v, (pu - split.port_offset[u]) as u32));
            port_of_nbr[v].push((u, (pv - split.port_offset[v]) as u32));
        }
        for list in &mut port_of_nbr {
            list.sort_unstable();
        }
        let mut faces_target: Vec<Vec<bool>> = (0..n)
            .map(|v| vec![false; cluster.degree(v).max(1)])
            .collect();
        for v in 0..n {
            let start = split.port_offset[v];
            for lp in 0..cluster.degree(v).max(1) {
                let p = start + lp;
                for &q in split.split.neighbors(p) {
                    if split.owner[q] == v {
                        nbrs[v][lp].push(SplitNbr::Internal((q - start) as u32));
                    } else {
                        debug_assert_eq!(ext_of_port[p], Some(q));
                        nbrs[v][lp].push(SplitNbr::External);
                        faces_target[v][lp] = split.owner[q] == target;
                    }
                }
            }
        }
        let steps = plan.steps_per_phase as u64;
        let max_reseeds = MAX_PHASES.min(6) as u32;
        LoadBalanceProgram {
            target,
            f,
            degrees: (0..n).map(|v| cluster.degree(v)).collect(),
            total_messages: 2 * cluster.m(),
            threshold: plan.threshold as u64,
            tokens_per_message: plan.tokens_per_message,
            steps_per_phase: steps,
            max_reseeds,
            // A token crosses a threshold gap within ~Δ⋄ rounds of gossip
            // settling, so 4 thresholds of silence means the neighborhood is
            // genuinely stalled; on large clusters the window scales with the
            // plan's step budget so reseeding stays as patient as the metered
            // phases it mirrors.
            reseed_window: (steps / 8).max(4 * plan.threshold as u64),
            round_budget: 1 + steps * (1 + max_reseeds as u64) + 2 * n as u64,
            port_offset: split.port_offset.clone(),
            owner: split.owner.clone(),
            nbrs,
            port_of_nbr,
            faces_target,
            num_ports,
        }
    }

    fn local_port_facing(&self, v: usize, nbr: usize) -> usize {
        let list = &self.port_of_nbr[v];
        let i = list
            .binary_search_by_key(&nbr, |&(u, _)| u)
            .expect("gossip only arrives from cluster neighbors");
        list[i].1 as usize
    }

    fn seed_own_tokens(&self, v: usize, tokens: &mut [Vec<u32>]) {
        if v == self.target || self.degrees[v] == 0 {
            return;
        }
        let start = self.port_offset[v];
        for (lp, stack) in tokens.iter_mut().enumerate() {
            let global = (start + lp) as u32;
            stack.extend(std::iter::repeat_n(global, self.tokens_per_message));
        }
    }
}

impl NodeProgram for LoadBalanceProgram {
    type State = LoadBalanceState;
    type Msg = LbMsg;

    fn init(&self, ctx: &NodeCtx) -> LoadBalanceState {
        let v = ctx.id;
        let deg = self.degrees[v];
        let is_target = v == self.target;
        let mut tokens = vec![Vec::new(); deg.max(1)];
        self.seed_own_tokens(v, &mut tokens);
        let mut delivered = Vec::new();
        let mut delivered_count = 0;
        if is_target {
            delivered = vec![false; self.num_ports];
            // The leader's own messages never travel.
            let start = self.port_offset[v];
            for flag in &mut delivered[start..start + deg] {
                *flag = true;
            }
            delivered_count = deg as u64;
        }
        LoadBalanceState {
            tokens,
            ext_load: vec![u64::MAX; deg.max(1)],
            advertised: vec![None; deg.max(1)],
            sink_sent: self.faces_target[v]
                .iter()
                .map(|&facing| {
                    if facing {
                        vec![false; self.num_ports]
                    } else {
                        Vec::new()
                    }
                })
                .collect(),
            reseeds: 0,
            last_activity: 0,
            delivered,
            delivered_count,
            last_progress: 0,
            stop_sent: false,
            stop_seen: false,
            done: deg == 0,
        }
    }

    fn round(
        &self,
        ctx: &NodeCtx,
        state: &mut LoadBalanceState,
        inbox: &[Envelope<LbMsg>],
        out: &mut Outbox<'_, LbMsg>,
    ) {
        let v = ctx.id;
        let r = ctx.round;
        let is_target = v == self.target;
        let mut acked = vec![false; state.tokens.len()];
        for env in inbox {
            match env.msg {
                LbMsg::Update { load, token } => {
                    let lp = self.local_port_facing(v, env.src);
                    state.ext_load[lp] = load as u64;
                    if let Some(tok) = token {
                        state.tokens[lp].push(tok);
                        state.last_activity = r;
                        // A token landed here: re-advertise this port even if
                        // its load ends up unchanged (the sender folded the
                        // in-flight token into its view of us and needs the
                        // true value back — without the ack a draining leader
                        // port would look ever fuller to its neighbors).
                        acked[lp] = true;
                    }
                }
                LbMsg::Stop => state.stop_seen = true,
            }
        }

        if state.stop_seen {
            if !state.stop_sent {
                out.broadcast(LbMsg::Stop);
                state.stop_sent = true;
            }
            state.done = true;
            return;
        }

        if is_target {
            // Absorb: any token at a leader port delivers its message, and
            // the token is consumed. Draining keeps the leader's ports at
            // load zero, so they are a permanent gradient sink the balancing
            // rule keeps pushing tokens into — the executed substitute for
            // the metered path's targeted per-phase reseeding, which would
            // need the reverse notification run mid-protocol.
            for stack in &mut state.tokens {
                for tok in stack.drain(..) {
                    let msg = tok as usize;
                    if !state.delivered[msg] {
                        state.delivered[msg] = true;
                        state.delivered_count += 1;
                        state.last_progress = r;
                    }
                }
            }
            let total = self.total_messages as u64;
            let remaining = total - state.delivered_count.min(total);
            let budget_met = total == 0 || (remaining as f64 / total as f64) <= self.f;
            let stalled = r.saturating_sub(state.last_progress) > 2 * self.steps_per_phase;
            if budget_met || stalled {
                out.broadcast(LbMsg::Stop);
                state.stop_sent = true;
                state.done = true;
                return;
            }
        }

        if r >= self.round_budget {
            // Every vertex reads the same round counter, so the whole cluster
            // gives up in lockstep.
            state.done = true;
            return;
        }

        // Local phase boundary: when no token has moved here for a while the
        // neighborhood is balance-stalled (the local analogue of the metered
        // path's `moves.is_empty()` phase break), so reseed this vertex's own
        // messages to re-establish gradients — blind reseeding is a superset
        // of the metered path's undelivered-only reseeding (see module docs).
        if r.saturating_sub(state.last_activity) >= self.reseed_window
            && state.reseeds < self.max_reseeds
            && !is_target
        {
            state.reseeds += 1;
            state.last_activity = r;
            self.seed_own_tokens(v, &mut state.tokens);
        }

        // Balancing moves from a start-of-round snapshot, in the metered
        // path's port-then-neighbor order. Gadget-internal moves are free
        // local work; the external move (at most one per port) rides the
        // gossip message.
        let loads: Vec<u64> = state.tokens.iter().map(|s| s.len() as u64).collect();
        let mut outgoing: Vec<Option<u32>> = vec![None; loads.len()];
        if r >= 2 {
            let mut moves: Vec<(usize, SplitNbr)> = Vec::new();
            for (lp, port_nbrs) in self.nbrs[v].iter().enumerate() {
                if loads[lp] == 0 {
                    continue;
                }
                for &nb in port_nbrs {
                    let (nbr_load, threshold) = match nb {
                        SplitNbr::Internal(q) => (loads[q as usize], self.threshold),
                        // A port facing the leader pushes whenever it holds
                        // anything: the sink drains to zero every round.
                        SplitNbr::External if self.faces_target[v][lp] => (0, 1),
                        SplitNbr::External => (state.ext_load[lp], self.threshold),
                    };
                    if loads[lp] >= nbr_load.saturating_add(threshold) {
                        moves.push((lp, nb));
                    }
                }
            }
            for (lp, nb) in moves {
                let tok = if nb == SplitNbr::External && self.faces_target[v][lp] {
                    // Prefer a token the sink has not seen from this port:
                    // scan from the top of the stack, fall back to the top.
                    let stack = &mut state.tokens[lp];
                    let pick = stack
                        .iter()
                        .rposition(|&t| !state.sink_sent[lp][t as usize])
                        .unwrap_or(stack.len().wrapping_sub(1));
                    if pick >= stack.len() {
                        continue;
                    }
                    let tok = stack.swap_remove(pick);
                    state.sink_sent[lp][tok as usize] = true;
                    Some(tok)
                } else {
                    state.tokens[lp].pop()
                };
                let Some(tok) = tok else {
                    continue;
                };
                state.last_activity = r;
                match nb {
                    SplitNbr::Internal(q) => state.tokens[q as usize].push(tok),
                    SplitNbr::External => {
                        debug_assert!(outgoing[lp].is_none());
                        outgoing[lp] = Some(tok);
                        // The counterpart is about to gain this token;
                        // folding it into the stale view now stops the edge
                        // from re-firing on the same gradient next round.
                        state.ext_load[lp] = state.ext_load[lp].saturating_add(1);
                    }
                }
            }
        }

        // Gossip: advertise a port's post-move load whenever it changed or a
        // token crosses (delta gossip keeps the message count proportional to
        // actual balancing activity, not to wall-clock rounds).
        for (nbr_vertex, lp) in self.port_of_nbr[v].iter().map(|&(u, lp)| (u, lp as usize)) {
            let load = (state.tokens[lp].len() as u64).min(u32::MAX as u64);
            let token = outgoing[lp];
            if token.is_some() || acked[lp] || state.advertised[lp] != Some(load) {
                out.send(
                    nbr_vertex,
                    LbMsg::Update {
                        load: load as u32,
                        token,
                    },
                );
                state.advertised[lp] = Some(load);
            }
        }
    }

    fn halted(&self, _ctx: &NodeCtx, state: &LoadBalanceState) -> bool {
        state.done
    }

    fn round_budget_hint(&self) -> Option<u64> {
        Some(self.round_budget + 2 * self.degrees.len() as u64 + 8)
    }
}

impl GatherProgram for LoadBalanceProgram {
    fn strategy_name(&self) -> &'static str {
        "load-balance"
    }

    fn total_messages(&self) -> usize {
        self.total_messages
    }

    fn per_vertex_delivered(&self, states: &[LoadBalanceState]) -> Vec<usize> {
        let mut per_vertex = vec![0usize; self.degrees.len()];
        if let Some(target_state) = states.get(self.target) {
            for (p, &d) in target_state.delivered.iter().enumerate() {
                let v = self.owner[p];
                if d && self.degrees[v] > 0 {
                    per_vertex[v] += 1;
                }
            }
        }
        per_vertex
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load_balance::load_balance_gather_with_plan;
    use mfd_congest::RoundMeter;
    use mfd_graph::generators;
    use mfd_runtime::ExecutorConfig;

    fn run(g: &Graph, target: usize, f: f64) -> super::super::ExecutedGather {
        let plan = LoadBalancePlan::new(g);
        let program = LoadBalanceProgram::new(g, target, f, &plan);
        super::super::execute_gather(g, &program, &ExecutorConfig::default())
            .unwrap()
            .0
    }

    #[test]
    fn delivers_within_budget_on_expanders() {
        for (g, f) in [
            (generators::complete(8), 0.05),
            (generators::hypercube(4), 0.1),
            (generators::wheel(32), 0.1),
        ] {
            let report = run(&g, 0, f);
            assert!(
                report.delivered_fraction >= 1.0 - f,
                "delivered {} on n={} m={}",
                report.delivered_fraction,
                g.n(),
                g.m()
            );
            assert_eq!(report.total_messages, 2 * g.m());
        }
    }

    #[test]
    fn executed_rounds_fit_the_metered_charge() {
        for g in [
            generators::complete(8),
            generators::hypercube(4),
            generators::wheel(32),
        ] {
            let f = 0.1;
            let plan = LoadBalancePlan::new(&g);
            let mut meter = RoundMeter::new();
            let charged = load_balance_gather_with_plan(&g, 0, f, &plan, &mut meter);
            let report = run(&g, 0, f);
            assert!(
                report.rounds <= charged.rounds,
                "executed {} > charged {} on n={}",
                report.rounds,
                charged.rounds,
                g.n()
            );
            assert!(report.delivered_fraction >= charged.delivered_fraction.min(1.0 - f));
        }
    }

    #[test]
    fn leader_messages_count_as_delivered() {
        let g = generators::star(6);
        let report = run(&g, 0, 0.5);
        assert_eq!(report.per_vertex_delivered[0], 5);
        assert!(report.delivered_fraction >= 0.5);
    }

    #[test]
    fn empty_cluster_is_free() {
        let g = Graph::new(3);
        let report = run(&g, 0, 0.1);
        assert_eq!(report.rounds, 0);
        assert!((report.delivered_fraction - 1.0).abs() < 1e-12);
    }
}
