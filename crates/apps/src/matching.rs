//! (1 − ε)-approximate maximum matching (paper Corollary 6.4).
//!
//! Pipeline: Solomon's matching sparsifier bounds the maximum degree by `O(α/ε)` in
//! one round; the shared decompose → solve → announce pipeline
//! (`crate::decompose_and_solve`) runs on the sparsified graph with ε* = ε/(2Δ−1)
//! (any maximal matching has size ≥ m/(2Δ−1), so dropping the inter-cluster edges
//! costs at most an ε fraction of OPT), every cluster leader solving maximum
//! matching exactly with the blossom algorithm; the union of the per-cluster
//! matchings is returned (it is automatically a matching because clusters are
//! vertex-disjoint).

use mfd_graph::Graph;

use crate::{decompose_and_solve, degree_epsilon_star, solvers, sparsifier};

/// Result of the distributed approximate matching computation.
#[derive(Debug, Clone)]
pub struct MatchingResult {
    /// The matching found, as an edge list.
    pub matching: Vec<(usize, usize)>,
    /// Total rounds.
    pub rounds: u64,
    /// Number of clusters.
    pub clusters: usize,
}

/// Computes a (1 − O(ε))-approximate maximum matching.
///
/// # Example
///
/// ```
/// use mfd_apps::matching::approximate_maximum_matching;
/// use mfd_apps::solvers::is_matching;
/// use mfd_graph::generators;
///
/// let g = generators::grid(8, 8);
/// let r = approximate_maximum_matching(&g, 0.3);
/// assert!(is_matching(&g, &r.matching));
/// ```
pub fn approximate_maximum_matching(g: &Graph, epsilon: f64) -> MatchingResult {
    assert!(epsilon > 0.0 && epsilon < 1.0);
    let working = sparsifier::matching_sparsifier(g, sparsifier::cover_threshold(epsilon));

    let mut matching = Vec::new();
    let eps_star = degree_epsilon_star(&working, epsilon);
    let (rounds, clusters) = decompose_and_solve(&working, eps_star, |sub, map| {
        let partner = solvers::maximum_matching(sub);
        for (u, v) in solvers::matching_edges(&partner) {
            matching.push((map[u], map[v]));
        }
    });
    debug_assert!(solvers::is_matching(g, &matching));

    MatchingResult {
        matching,
        // The sparsifier's round, then the pipeline.
        rounds: 1 + rounds,
        clusters,
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
            let r = approximate_maximum_matching(&g, 0.3);
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
            let r = approximate_maximum_matching(&g, eps);
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
