//! (1 − ε)-approximate maximum matching (paper Corollary 6.4).
//!
//! Pipeline: Solomon's matching sparsifier bounds the maximum degree by `O(α/ε)` in
//! one round; an (ε*, D, T)-decomposition of the sparsified graph is built with
//! ε* = ε/(2Δ−1) (any maximal matching has size ≥ m/(2Δ−1), so dropping the
//! inter-cluster edges costs at most an ε fraction of OPT); every cluster leader
//! solves maximum matching exactly with the blossom algorithm; the union of the
//! per-cluster matchings is returned (it is automatically a matching because clusters
//! are vertex-disjoint).

use mfd_congest::RoundMeter;
use mfd_core::edt::{build_edt, EdtConfig};
use mfd_graph::Graph;

use crate::solvers;
use crate::sparsifier;

/// Configuration for [`approximate_maximum_matching`].
#[derive(Debug, Clone)]
pub struct MatchingConfig {
    /// Approximation parameter ε.
    pub epsilon: f64,
    /// Arboricity bound (3 for planar families).
    pub alpha: usize,
}

/// Lower bound on the decomposition parameter ε* (guards against degenerate, overly
/// fine decompositions on tiny ε).
const MIN_EPSILON_STAR: f64 = 0.01;

impl MatchingConfig {
    /// Default configuration for a given ε.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0);
        MatchingConfig { epsilon, alpha: 3 }
    }
}

/// Result of the distributed approximate matching computation.
#[derive(Debug, Clone)]
pub struct MatchingResult {
    /// The matching found, as an edge list.
    pub matching: Vec<(usize, usize)>,
    /// Total rounds.
    pub rounds: u64,
    /// Rounds spent building the decomposition.
    pub construction_rounds: u64,
    /// Rounds spent on routing.
    pub routing_rounds: u64,
    /// Number of clusters.
    pub clusters: usize,
}

/// Computes a (1 − O(ε))-approximate maximum matching.
///
/// # Example
///
/// ```
/// use mfd_apps::matching::{approximate_maximum_matching, MatchingConfig};
/// use mfd_apps::solvers::is_matching;
/// use mfd_graph::generators;
///
/// let g = generators::grid(8, 8);
/// let r = approximate_maximum_matching(&g, &MatchingConfig::new(0.3));
/// assert!(is_matching(&g, &r.matching));
/// ```
pub fn approximate_maximum_matching(g: &Graph, config: &MatchingConfig) -> MatchingResult {
    let mut extra = RoundMeter::new();
    extra.charge_rounds(1);
    extra.charge_messages(2 * g.m() as u64);
    let d = sparsifier::cover_threshold(config.alpha, config.epsilon);
    let working = sparsifier::matching_sparsifier(g, d);

    let delta = working.max_degree().max(1) as f64;
    let eps_star = (config.epsilon / (2.0 * delta - 1.0)).max(MIN_EPSILON_STAR);
    let (decomposition, meter) = build_edt(&working, &EdtConfig::new(eps_star.min(0.9)));

    let mut matching = Vec::new();
    for c in 0..decomposition.clustering.num_clusters() {
        let members = decomposition.clustering.members(c);
        if members.len() < 2 {
            continue;
        }
        let (sub, map) = working.induced_subgraph(members);
        let partner = solvers::maximum_matching(&sub);
        for (u, v) in solvers::matching_edges(&partner) {
            matching.push((map[u], map[v]));
        }
    }
    // Announce the matching back to the vertices: one more routing execution.
    extra.charge_rounds(decomposition.routing_rounds);
    debug_assert!(solvers::is_matching(g, &matching));

    MatchingResult {
        matching,
        rounds: meter.rounds() + extra.rounds(),
        construction_rounds: decomposition.construction_rounds,
        routing_rounds: decomposition.routing_rounds + extra.rounds(),
        clusters: decomposition.clustering.num_clusters(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::{greedy_matching, is_matching, matching_edges, maximum_matching};
    use mfd_graph::generators;

    #[test]
    fn result_is_a_valid_matching() {
        for g in [
            generators::triangulated_grid(8, 8),
            generators::random_apollonian(120, 3),
            generators::grid(10, 10),
            generators::wheel(50),
        ] {
            let r = approximate_maximum_matching(&g, &MatchingConfig::new(0.3));
            assert!(is_matching(&g, &r.matching));
            assert!(!r.matching.is_empty());
            assert!(r.rounds > 0);
        }
    }

    #[test]
    fn quality_close_to_optimal_on_moderate_graphs() {
        for (g, eps) in [
            (generators::grid(8, 8), 0.25),
            (generators::random_apollonian(100, 4), 0.25),
            (generators::path(120), 0.2),
        ] {
            let opt = matching_edges(&maximum_matching(&g)).len();
            let r = approximate_maximum_matching(&g, &MatchingConfig::new(eps));
            assert!(
                r.matching.len() as f64 >= (1.0 - 2.0 * eps) * opt as f64,
                "approx {} opt {} on n={}",
                r.matching.len(),
                opt,
                g.n()
            );
            // Should also beat the greedy 1/2-approximation in the typical case.
            assert!(r.matching.len() * 2 >= greedy_matching(&g).len());
        }
    }
}
