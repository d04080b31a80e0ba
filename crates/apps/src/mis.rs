//! (1 − ε)-approximate maximum independent set (paper Corollary 6.5).
//!
//! Pipeline: Solomon's MIS sparsifier bounds the maximum degree by `O(α²/ε)` in one
//! round; the shared decompose → solve → announce pipeline
//! (`crate::decompose_and_solve`) runs on the sparsified graph with
//! ε* = ε/(α(2α−1)), every cluster leader solving MIS exactly (budget-guarded
//! branch and bound); finally, one endpoint of every violated inter-cluster edge is
//! dropped. Since a bounded-arboricity graph has OPT ≥ m/(α(2α−1)), dropping the
//! ≤ ε*·m inter-cluster edges costs only an O(ε) fraction of OPT.

use mfd_graph::Graph;

use crate::solvers::{self, MisSolution};
use crate::{decompose_and_solve, sparsifier, ALPHA};

/// Configuration for [`approximate_mis`].
#[derive(Debug, Clone)]
pub struct MisConfig {
    /// Approximation parameter ε.
    pub epsilon: f64,
    /// Whether to apply the bounded-degree sparsifier first.
    pub use_sparsifier: bool,
}

impl MisConfig {
    /// Default configuration for a given ε.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0);
        MisConfig {
            epsilon,
            use_sparsifier: true,
        }
    }
}

/// Result of the distributed approximate MIS computation.
#[derive(Debug, Clone)]
pub struct MisResult {
    /// The independent set found.
    pub independent_set: Vec<usize>,
    /// Total rounds (sparsifier + decomposition + announcement + repair).
    pub rounds: u64,
    /// Number of clusters of the decomposition.
    pub clusters: usize,
    /// Whether every per-cluster sub-problem was solved provably optimally.
    pub all_clusters_exact: bool,
}

/// Computes a (1 − O(ε))-approximate maximum independent set.
///
/// # Example
///
/// ```
/// use mfd_apps::mis::{approximate_mis, MisConfig};
/// use mfd_apps::solvers::is_independent_set;
/// use mfd_graph::generators;
///
/// let g = generators::triangulated_grid(8, 8);
/// let result = approximate_mis(&g, &MisConfig::new(0.3));
/// assert!(is_independent_set(&g, &result.independent_set));
/// ```
pub fn approximate_mis(g: &Graph, config: &MisConfig) -> MisResult {
    // One-round bounded-degree sparsifier (Solomon). High-degree vertices are
    // excluded from the independent set entirely (that is the reduction's contract).
    let (working, excluded) = if config.use_sparsifier {
        let s = sparsifier::low_degree_sparsifier(g, sparsifier::mis_threshold(config.epsilon));
        (s.low_subgraph, s.high_vertices)
    } else {
        (g.clone(), Vec::new())
    };

    let a = ALPHA as f64;
    let eps_star = (config.epsilon / (a * (2.0 * a - 1.0))).clamp(1e-4, 0.9);
    let mut independent = vec![false; g.n()];
    let mut all_exact = true;
    let (rounds, clusters) = decompose_and_solve(&working, eps_star, |sub, map| {
        let MisSolution { vertices, exact } =
            solvers::maximum_independent_set(sub, solvers::DEFAULT_MIS_NODE_BUDGET);
        all_exact &= exact;
        for &local in &vertices {
            independent[map[local]] = true;
        }
    });
    for &v in &excluded {
        independent[v] = false;
    }

    // Repair: drop one endpoint of every violated inter-cluster edge (one round).
    // Checked against the *original* graph so the output is unconditionally valid.
    for (u, v) in g.edges() {
        if independent[u] && independent[v] {
            independent[v.max(u)] = false;
        }
    }

    let independent_set: Vec<usize> = (0..g.n()).filter(|&v| independent[v]).collect();
    debug_assert!(solvers::is_independent_set(g, &independent_set));

    MisResult {
        independent_set,
        // The sparsifier's round (if any), the pipeline, the repair round.
        rounds: u64::from(config.use_sparsifier) + rounds + 1,
        clusters,
        all_clusters_exact: all_exact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::is_independent_set;
    use mfd_graph::generators;

    #[test]
    fn result_is_a_valid_independent_set() {
        for g in [
            generators::triangulated_grid(8, 8),
            generators::random_apollonian(120, 3),
            generators::random_tree(150, 4),
            generators::wheel(60),
        ] {
            let r = approximate_mis(&g, &MisConfig::new(0.3));
            assert!(is_independent_set(&g, &r.independent_set));
            assert!(r.rounds > 0);
            assert!(!r.independent_set.is_empty());
        }
    }

    #[test]
    fn approximation_quality_on_small_graphs() {
        // On small graphs we can afford the exact optimum for comparison.
        let g = generators::triangulated_grid(5, 5);
        let exact = crate::solvers::maximum_independent_set(&g, 1_000_000)
            .vertices
            .len();
        let r = approximate_mis(&g, &MisConfig::new(0.25));
        assert!(
            r.independent_set.len() as f64 >= (1.0 - 0.3) * exact as f64,
            "approx {} exact {}",
            r.independent_set.len(),
            exact
        );
    }

    #[test]
    fn quality_beats_or_matches_greedy_on_planar_graphs() {
        let g = generators::random_apollonian(200, 9);
        let r = approximate_mis(&g, &MisConfig::new(0.25));
        let greedy = crate::solvers::greedy_independent_set(&g).len();
        assert!(
            r.independent_set.len() as f64 >= 0.8 * greedy as f64,
            "approx {} greedy {}",
            r.independent_set.len(),
            greedy
        );
    }

    #[test]
    fn paths_achieve_near_optimal_independent_sets() {
        // Paths and cycles are the Lenzen–Wattenhofer lower-bound family; the optimum
        // of a path on n vertices is ⌈n/2⌉.
        let g = generators::path(200);
        let r = approximate_mis(&g, &MisConfig::new(0.2));
        assert!(is_independent_set(&g, &r.independent_set));
        assert!(
            r.independent_set.len() >= 80,
            "size {}",
            r.independent_set.len()
        );
    }

    #[test]
    fn sparsifier_toggle_is_respected() {
        let g = generators::wheel(80);
        let mut config = MisConfig::new(0.3);
        config.use_sparsifier = false;
        let without = approximate_mis(&g, &config);
        config.use_sparsifier = true;
        let with = approximate_mis(&g, &config);
        assert!(is_independent_set(&g, &without.independent_set));
        assert!(is_independent_set(&g, &with.independent_set));
    }
}
