//! The load-balancing information gatherer of Lemma 2.2 (Ghosh et al. [GLM+99]).
//!
//! Every vertex `v` of a φ-expander cluster holds `deg(v)` messages destined for the
//! maximum-degree vertex `v*`. Each message is associated with one port of the
//! expander split; ports create several tokens carrying their message and the natural
//! local balancing rule (send one token across an edge whenever the load difference
//! exceeds `2Δ⋄ + 1`) spreads tokens until the ports of `v*` hold a proportional
//! share, at which point a `Δ/Θ(|E|)` fraction of the messages has provably arrived.
//! Phases repeat on the undelivered messages until a `1 − f` fraction has been
//! delivered.
//!
//! The implementation follows the paper's structure but uses much smaller token
//! counts and step budgets than the worst-case constants of Lemma 2.2; delivery is
//! *checked*, not assumed, and the reported round counts are the rounds actually
//! simulated. See docs/ARCHITECTURE.md ("mfd-routing", Invariants).

use mfd_congest::RoundMeter;
use mfd_graph::properties::spectral_sweep_cut;
use mfd_graph::Graph;

use crate::split::ExpanderSplit;

/// Maximum number of phases before the gatherer gives up.
pub(crate) const MAX_PHASES: usize = 48;
/// Hard cap on the tokens created per undelivered message.
const MAX_TOKENS_PER_MESSAGE: usize = 1024;
/// Hard cap on the balancing steps per phase.
const MAX_STEPS_PER_PHASE: usize = 20_000;

/// A fully sized load-balancing run: everything the gatherer derives from the
/// cluster topology, computed **once** and reused.
///
/// Both the metered simulation ([`load_balance_gather_with_plan`]) and the executed
/// [`crate::programs::LoadBalanceProgram`] run from the same plan, so their
/// token counts, thresholds and step schedules cannot drift apart — and the
/// (comparatively expensive) spectral conductance estimate runs exactly once
/// per cluster instead of once per call site. Planning is pure: the same
/// cluster and parameters always produce the same plan (asserted by unit
/// test), which is what makes cross-engine runs reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadBalancePlan {
    /// The expander split the tokens balance on.
    pub split: ExpanderSplit,
    /// Conductance estimate used to size the token/step budgets.
    pub phi: f64,
    /// Load-difference threshold `2Δ⋄ + 1` of the balancing rule.
    pub threshold: usize,
    /// Tokens created per undelivered message at the start of each phase.
    pub tokens_per_message: usize,
    /// Balancing steps per phase.
    pub steps_per_phase: usize,
}

impl LoadBalancePlan {
    /// Sizes a load-balancing run for `cluster`: a spectral estimate of its
    /// conductance φ̂ gives `≈ 4·(2Δ⋄+1)/φ̂` tokens per message and
    /// `≈ 4·tokens/φ̂` steps per phase, both capped.
    pub fn new(cluster: &Graph) -> Self {
        let split = ExpanderSplit::build(cluster);
        let delta_split = split.max_degree().max(1);
        let threshold = 2 * delta_split + 1;
        let phi = estimate_conductance(cluster);
        let tokens_per_message = ((4.0 * threshold as f64 / phi).ceil() as usize)
            .clamp(threshold + 1, MAX_TOKENS_PER_MESSAGE);
        let steps_per_phase = ((4.0 * tokens_per_message as f64 / phi).ceil() as usize)
            .clamp(16, MAX_STEPS_PER_PHASE);
        LoadBalancePlan {
            split,
            phi,
            threshold,
            tokens_per_message,
            steps_per_phase,
        }
    }
}

/// Outcome of a load-balancing gather.
#[derive(Debug, Clone)]
pub struct LoadBalanceReport {
    /// Rounds charged on the meter by this gather.
    pub rounds: u64,
    /// Total number of messages (2·|E| of the cluster, the target's own messages
    /// count as delivered from the start).
    pub total_messages: usize,
    /// Per-message delivery flags, indexed by split port.
    pub delivered: Vec<bool>,
    /// Fraction of messages delivered.
    pub delivered_fraction: f64,
    /// Number of delivered messages per original cluster vertex.
    pub per_vertex_delivered: Vec<usize>,
    /// Number of phases executed.
    pub phases: usize,
    /// Conductance estimate used to size the token/step budgets.
    pub phi_estimate: f64,
}

/// Runs the load-balancing gatherer on a cluster graph.
///
/// `cluster` is the cluster's own graph (vertices `0..k`); `target` is the designated
/// sink `v*` (normally the maximum-degree vertex); `f` is the tolerated failure
/// fraction. Rounds are charged on `meter`: one CONGEST round per balancing step (the
/// balancing rule moves at most one token per split edge per step, and gadget-internal
/// moves are free), plus the reverse run that tells every vertex which of its
/// messages were delivered (needed by the decomposition algorithms).
pub(crate) fn load_balance_gather(
    cluster: &Graph,
    target: usize,
    f: f64,
    meter: &mut RoundMeter,
) -> LoadBalanceReport {
    let plan = LoadBalancePlan::new(cluster);
    load_balance_gather_with_plan(cluster, target, f, &plan, meter)
}

/// Runs the load-balancing gatherer from a pre-computed [`LoadBalancePlan`]
/// (the memoized form of `load_balance_gather`: call sites that gather from
/// the same cluster repeatedly, or compare the metered run against the
/// executed [`crate::programs::LoadBalanceProgram`], plan once and reuse).
pub fn load_balance_gather_with_plan(
    cluster: &Graph,
    target: usize,
    f: f64,
    plan: &LoadBalancePlan,
    meter: &mut RoundMeter,
) -> LoadBalanceReport {
    assert!(target < cluster.n());
    let split = &plan.split;
    let ports = split.num_ports();
    let threshold = plan.threshold;
    let phi = plan.phi;
    let tokens_per_message = plan.tokens_per_message;
    let steps_per_phase = plan.steps_per_phase;

    // Message IDs are split ports. Messages belonging to the target are delivered by
    // definition.
    let target_ports: Vec<usize> = split.ports(target, cluster).collect();
    let is_target_port: Vec<bool> = {
        let mut v = vec![false; ports];
        for &p in &target_ports {
            v[p] = true;
        }
        v
    };
    let mut delivered: Vec<bool> = (0..ports).map(|p| is_target_port[p]).collect();
    // Ports of isolated representation (degree-0 vertices get one dummy port) carry no
    // real message; mark them delivered so they do not distort the fraction.
    for v in cluster.vertices() {
        if cluster.degree(v) == 0 {
            for p in split.ports(v, cluster) {
                delivered[p] = true;
            }
        }
    }
    let real_messages: usize = 2 * cluster.m();

    let rounds_before = meter.rounds();
    let mut phases = 0usize;

    while phases < MAX_PHASES {
        let undelivered: Vec<usize> = (0..ports).filter(|&p| !delivered[p]).collect();
        let remaining = undelivered.len();
        if remaining == 0 {
            break;
        }
        let frac_remaining = remaining as f64 / real_messages.max(1) as f64;
        if frac_remaining <= f {
            break;
        }
        phases += 1;

        // Seed tokens at the home ports of the undelivered messages.
        let mut tokens: Vec<Vec<u32>> = vec![Vec::new(); ports];
        for &p in &undelivered {
            tokens[p] = vec![p as u32; tokens_per_message];
        }
        let mut total_tokens = undelivered.len() * tokens_per_message;
        let token_budget = ports * tokens_per_message;

        let mut newly_delivered = 0usize;
        // Alternate load-balancing runs with token splitting (Lemma 2.2, "token
        // splitting"): splitting is a local operation and costs no rounds.
        loop {
            for _step in 0..steps_per_phase {
                // Determine moves from the loads at the beginning of the step.
                let loads: Vec<usize> = tokens.iter().map(Vec::len).collect();
                let mut moves: Vec<(usize, usize)> = Vec::new();
                let mut external_moves = 0u64;
                for x in 0..ports {
                    if loads[x] == 0 {
                        continue;
                    }
                    for &y in split.split.neighbors(x) {
                        if loads[x] >= loads[y] + threshold {
                            moves.push((x, y));
                            if !split.is_internal(x, y) {
                                external_moves += 1;
                            }
                        }
                    }
                }
                meter.charge_rounds(1);
                meter.charge_messages(external_moves);
                if moves.is_empty() {
                    break;
                }
                for (x, y) in moves {
                    if let Some(tok) = tokens[x].pop() {
                        tokens[y].push(tok);
                    }
                }
            }

            // Absorb: messages with a token at a target port are delivered.
            for &p in &target_ports {
                for &tok in &tokens[p] {
                    let msg = tok as usize;
                    if !delivered[msg] {
                        delivered[msg] = true;
                        newly_delivered += 1;
                    }
                }
            }

            if total_tokens >= token_budget {
                break;
            }
            // Split every token in place and balance again.
            for port_tokens in tokens.iter_mut() {
                let len = port_tokens.len();
                port_tokens.extend_from_within(0..len);
            }
            total_tokens *= 2;
        }

        if newly_delivered == 0 {
            // No progress: further phases would repeat the same outcome.
            break;
        }
    }

    // Running the schedule in reverse tells every vertex which of its messages
    // arrived; it costs the same number of rounds.
    let forward_rounds = meter.rounds() - rounds_before;
    meter.charge_rounds(forward_rounds);

    let mut per_vertex_delivered = vec![0usize; cluster.n()];
    let mut delivered_count = 0usize;
    for (p, &v) in split.owner.iter().enumerate().take(ports) {
        if cluster.degree(v) == 0 {
            continue;
        }
        if delivered[p] {
            per_vertex_delivered[v] += 1;
            delivered_count += 1;
        }
    }

    LoadBalanceReport {
        rounds: meter.rounds() - rounds_before,
        total_messages: real_messages,
        delivered,
        delivered_fraction: if real_messages == 0 {
            1.0
        } else {
            delivered_count as f64 / real_messages as f64
        },
        per_vertex_delivered,
        phases,
        phi_estimate: phi,
    }
}

/// Cheap conductance estimate used only for sizing token/step budgets: the
/// conductance of the best spectral sweep cut (an upper bound on Φ(G), within a
/// quadratic factor by Cheeger's inequality).
fn estimate_conductance(g: &Graph) -> f64 {
    if g.n() < 2 || g.m() == 0 {
        return 1.0;
    }
    match spectral_sweep_cut(g, 60) {
        Some(cut) => cut.conductance.clamp(1e-3, 1.0),
        None => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_graph::generators;

    #[test]
    fn gathers_everything_on_a_clique() {
        let g = generators::complete(8);
        let mut meter = RoundMeter::new();
        let report = load_balance_gather(&g, 0, 0.0, &mut meter);
        assert_eq!(report.total_messages, 2 * g.m());
        assert!(
            report.delivered_fraction > 0.99,
            "fraction {}",
            report.delivered_fraction
        );
        assert!(report.rounds > 0);
        assert_eq!(meter.rounds(), report.rounds);
    }

    #[test]
    fn gathers_most_messages_on_a_hypercube() {
        let g = generators::hypercube(4);
        let target = 0;
        let mut meter = RoundMeter::new();
        let report = load_balance_gather(&g, target, 0.1, &mut meter);
        assert!(
            report.delivered_fraction >= 0.9,
            "fraction {}",
            report.delivered_fraction
        );
    }

    #[test]
    fn target_vertex_messages_count_as_delivered() {
        let g = generators::star(6);
        let mut meter = RoundMeter::new();
        let report = load_balance_gather(&g, 0, 0.5, &mut meter);
        // The hub owns half of all messages, so at least half are delivered for free.
        assert!(report.delivered_fraction >= 0.5);
        assert_eq!(report.per_vertex_delivered[0], 5);
    }

    #[test]
    fn planning_is_pure_and_memoized() {
        let g = generators::hypercube(4);
        // Same input → same plan: the planner holds no hidden state.
        let a = LoadBalancePlan::new(&g);
        let b = LoadBalancePlan::new(&g);
        assert_eq!(a, b);
        assert!(a.tokens_per_message > a.threshold);
        assert!(a.steps_per_phase >= 16);
        // Gathering from the memoized plan is identical to re-planning inside
        // the gather call.
        let mut m1 = RoundMeter::new();
        let mut m2 = RoundMeter::new();
        let r1 = load_balance_gather(&g, 0, 0.1, &mut m1);
        let r2 = load_balance_gather_with_plan(&g, 0, 0.1, &a, &mut m2);
        assert_eq!(r1.rounds, r2.rounds);
        assert_eq!(r1.delivered, r2.delivered);
        assert_eq!(r1.phases, r2.phases);
    }

    #[test]
    fn empty_cluster_is_trivially_done() {
        let g = Graph::new(3);
        let mut meter = RoundMeter::new();
        let report = load_balance_gather(&g, 0, 0.1, &mut meter);
        assert_eq!(report.total_messages, 0);
        assert!((report.delivered_fraction - 1.0).abs() < 1e-12);
        assert_eq!(report.rounds, 0);
    }
}
