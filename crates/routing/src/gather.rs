//! A uniform interface over the three information-gathering strategies.
//!
//! The (ε, D, T)-decomposition needs, per cluster, a routing algorithm `A` that sends
//! `deg(v)` messages from every vertex `v` to the cluster leader (and back). This
//! module exposes the three ways this library can realize `A`:
//!
//! * [`GatherStrategy::TreePipeline`] — pipelined upcast along a BFS tree of the
//!   cluster. Always delivers everything; costs `O(depth + vol(S)/deg_tree(root))`
//!   rounds, which is fine for small or low-volume clusters and is the strategy that
//!   the O(1/ε)-diameter clusters produced by Theorem 1.1 end up using most often.
//! * [`GatherStrategy::LoadBalance`] — Lemma 2.2 (expander-split load balancing).
//! * [`GatherStrategy::WalkSchedule`] — Lemmas 2.5/2.6 (derandomized random-walk
//!   schedules computed by a topology-aware leader).

use mfd_congest::{primitives, RoundMeter};
use mfd_graph::Graph;

use crate::load_balance::load_balance_gather;
use crate::walks::{execute_walk_gather, plan_walk_schedule, WalkParams};

/// Strategy used to gather `deg(v)` messages from every cluster vertex to the leader.
#[derive(Debug, Clone, Default)]
pub enum GatherStrategy {
    /// Pipelined upcast along a BFS tree rooted at the leader.
    #[default]
    TreePipeline,
    /// Expander-split load balancing (Lemma 2.2).
    LoadBalance,
    /// Derandomized random-walk schedule (Lemma 2.5).
    WalkSchedule(WalkParams),
}

/// Report of one gather execution.
#[derive(Debug, Clone)]
pub struct GatherReport {
    /// Rounds charged on the meter.
    pub rounds: u64,
    /// Fraction of the `2|E(S)|` messages delivered to the leader.
    pub delivered_fraction: f64,
    /// Number of delivered messages per cluster vertex.
    pub per_vertex_delivered: Vec<usize>,
    /// Total number of messages.
    pub total_messages: usize,
    /// Human-readable name of the strategy used.
    pub strategy: &'static str,
}

/// Gathers `deg(v)` messages from every vertex of `cluster` to `leader`, tolerating a
/// failure fraction `f`, with the chosen strategy. Rounds are charged on `meter`.
/// A cluster without edges has nothing to gather: whatever the strategy, the report
/// is [`tree_gather`]'s free, fully-delivered one.
///
/// # Panics
///
/// Panics if `leader` is out of range.
pub fn gather_to_leader(
    cluster: &Graph,
    leader: usize,
    f: f64,
    strategy: &GatherStrategy,
    meter: &mut RoundMeter,
) -> GatherReport {
    assert!(leader < cluster.n().max(1), "leader out of range");
    if cluster.m() == 0 {
        return tree_gather(cluster, leader, meter);
    }
    match strategy {
        GatherStrategy::TreePipeline => tree_gather(cluster, leader, meter),
        GatherStrategy::LoadBalance => {
            let report = load_balance_gather(cluster, leader, f, meter);
            GatherReport {
                rounds: report.rounds,
                delivered_fraction: report.delivered_fraction,
                per_vertex_delivered: report.per_vertex_delivered,
                total_messages: report.total_messages,
                strategy: "load-balance",
            }
        }
        GatherStrategy::WalkSchedule(params) => {
            let plan = plan_walk_schedule(cluster, leader, f, params);
            if plan.good_fraction < 1.0 - f {
                // The cluster is not a good enough expander for the walk schedule to
                // meet the failure budget (planning is free local computation at the
                // leader, so it can tell); fall back to the always-correct tree
                // pipeline, exactly as the decomposition would pick a different
                // routing scheme for such clusters.
                let mut report = tree_gather(cluster, leader, meter);
                report.strategy = "walk-schedule(tree-fallback)";
                return report;
            }
            let report = execute_walk_gather(cluster, &plan, params, meter);
            GatherReport {
                rounds: report.rounds,
                delivered_fraction: report.delivered_fraction,
                per_vertex_delivered: report.per_vertex_delivered,
                total_messages: report.total_messages,
                strategy: "walk-schedule",
            }
        }
    }
}

/// The BFS-tree pipelined gather: always delivers every message.
pub fn tree_gather(cluster: &Graph, leader: usize, meter: &mut RoundMeter) -> GatherReport {
    let n = cluster.n();
    let total_messages = 2 * cluster.m();
    if n == 0 || cluster.m() == 0 {
        return GatherReport {
            rounds: 0,
            delivered_fraction: 1.0,
            per_vertex_delivered: vec![0; n],
            total_messages,
            strategy: "tree-pipeline",
        };
    }
    let rounds_before = meter.rounds();
    let tree = primitives::build_bfs_tree(cluster, None, leader, meter);
    let counts: Vec<usize> = (0..n)
        .map(|v| {
            if tree.contains(v) {
                cluster.degree(v)
            } else {
                0
            }
        })
        .collect();
    primitives::upcast_pipeline(cluster, &tree, &counts, meter);
    // The reverse (leader-to-vertices) distribution costs the same by reversibility.
    primitives::downcast_pipeline(cluster, &tree, &counts, meter);
    // Control cost of the real protocol (executed by
    // [`crate::programs::TreeGatherProgram`]): one adoption round joining the
    // wave, an in-band termination-detection tail of at most `height` rounds
    // (the done flags ride the pipeline one level per round), and the leader's
    // echo handshake. Charging it keeps this metered bound an upper bound on
    // the executed round count, which the differential tests pin.
    meter.charge_rounds(tree.height as u64 + 2);
    let per_vertex_delivered: Vec<usize> = counts.clone();
    let delivered: usize = counts.iter().sum();
    GatherReport {
        rounds: meter.rounds() - rounds_before,
        delivered_fraction: if total_messages == 0 {
            1.0
        } else {
            delivered as f64 / total_messages as f64
        },
        per_vertex_delivered,
        total_messages,
        strategy: "tree-pipeline",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_graph::generators;

    #[test]
    fn tree_gather_delivers_everything() {
        let g = generators::grid(4, 4);
        let mut meter = RoundMeter::new();
        let report = gather_to_leader(&g, 0, 0.1, &GatherStrategy::TreePipeline, &mut meter);
        assert!((report.delivered_fraction - 1.0).abs() < 1e-12);
        assert_eq!(report.total_messages, 2 * g.m());
        assert!(report.rounds > 0);
        assert_eq!(report.strategy, "tree-pipeline");
    }

    #[test]
    fn strategies_report_consistent_totals() {
        let g = generators::complete(7);
        for strategy in [
            GatherStrategy::TreePipeline,
            GatherStrategy::LoadBalance,
            GatherStrategy::WalkSchedule(WalkParams::default()),
        ] {
            let mut meter = RoundMeter::new();
            let report = gather_to_leader(&g, 0, 0.2, &strategy, &mut meter);
            assert_eq!(report.total_messages, 2 * g.m());
            assert!(report.delivered_fraction >= 0.8, "{}", report.strategy);
            assert_eq!(report.rounds, meter.rounds());
        }
    }

    #[test]
    fn tree_gather_cost_scales_with_cluster_volume_over_root_degree() {
        // On a star rooted at the hub, everything arrives in O(1) pipelined rounds per
        // message of the leaves; on a path it takes Ω(n) rounds.
        let star = generators::star(50);
        let path = generators::path(50);
        let mut m1 = RoundMeter::new();
        let mut m2 = RoundMeter::new();
        let r1 = tree_gather(&star, 0, &mut m1);
        let r2 = tree_gather(&path, 0, &mut m2);
        assert!(r1.rounds < r2.rounds);
    }

    #[test]
    fn empty_cluster_gather_is_free() {
        let g = Graph::new(4);
        let mut meter = RoundMeter::new();
        let report = gather_to_leader(&g, 0, 0.1, &GatherStrategy::TreePipeline, &mut meter);
        assert_eq!(report.rounds, 0);
        assert!((report.delivered_fraction - 1.0).abs() < 1e-12);
    }
}
