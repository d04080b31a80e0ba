//! (1 − ε)-approximate maximum cut (paper Corollary 6.3).
//!
//! The simplest application of the (ε, D, T)-decomposition: the shared
//! decompose → solve → announce pipeline (`crate::decompose_and_solve`) runs with
//! ε* = ε/2, every cluster leader computing a maximum cut of its cluster locally,
//! and the union of the per-cluster sides is returned. Since OPT ≥ m/2, ignoring
//! the ≤ (ε/2)·m inter-cluster edges costs at most an ε fraction of OPT.

use mfd_graph::Graph;

use crate::{decompose_and_solve, solvers};

/// Result of the distributed approximate max-cut computation.
#[derive(Debug, Clone)]
pub struct MaxCutResult {
    /// Side assignment (`true` = side S).
    pub side: Vec<bool>,
    /// Number of edges cut.
    pub cut_edges: usize,
    /// Total rounds.
    pub rounds: u64,
    /// Number of clusters.
    pub clusters: usize,
    /// Whether every cluster's cut was computed exactly.
    pub all_clusters_exact: bool,
}

/// Computes a (1 − ε)-approximate maximum cut.
///
/// # Example
///
/// ```
/// use mfd_apps::max_cut::approximate_max_cut;
/// use mfd_graph::generators;
///
/// let g = generators::grid(6, 6);
/// let r = approximate_max_cut(&g, 0.3);
/// assert!(r.cut_edges * 2 >= g.m());
/// ```
pub fn approximate_max_cut(g: &Graph, epsilon: f64) -> MaxCutResult {
    assert!(epsilon > 0.0 && epsilon < 1.0);
    let mut side = vec![false; g.n()];
    let mut all_exact = true;
    let eps_star = (epsilon / 2.0).clamp(1e-4, 0.9);
    let (rounds, clusters) = decompose_and_solve(g, eps_star, |sub, map| {
        let cut = solvers::maximum_cut(sub);
        all_exact &= cut.exact;
        for (local, &s) in cut.side.iter().enumerate() {
            side[map[local]] = s;
        }
    });

    let cut_edges = g.edges().filter(|&(u, v)| side[u] != side[v]).count();
    MaxCutResult {
        side,
        cut_edges,
        rounds,
        clusters,
        all_clusters_exact: all_exact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_graph::generators;

    #[test]
    fn cut_is_at_least_half_the_edges_on_planar_families() {
        for g in [
            generators::triangulated_grid(8, 8),
            generators::random_apollonian(100, 3),
            generators::wheel(40),
        ] {
            let r = approximate_max_cut(&g, 0.3);
            assert!(
                r.cut_edges * 2 >= g.m(),
                "cut {} of {} edges",
                r.cut_edges,
                g.m()
            );
            assert!(r.rounds > 0);
        }
    }

    #[test]
    fn bipartite_graphs_get_nearly_all_edges() {
        // Grids are bipartite, so OPT = m; the algorithm loses only the inter-cluster
        // edges (≤ ε/2 of them) plus nothing inside clusters (exact or local search
        // on bipartite pieces finds the full cut).
        let g = generators::grid(10, 10);
        let eps = 0.25;
        let r = approximate_max_cut(&g, eps);
        assert!(
            r.cut_edges as f64 >= (1.0 - eps) * g.m() as f64,
            "cut {} of {}",
            r.cut_edges,
            g.m()
        );
    }

    #[test]
    fn trees_are_cut_completely_or_nearly() {
        let g = generators::random_tree(150, 5);
        let r = approximate_max_cut(&g, 0.2);
        assert!(r.cut_edges as f64 >= 0.8 * g.m() as f64);
    }
}
