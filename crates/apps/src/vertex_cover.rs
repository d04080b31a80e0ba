//! (1 + ε)-approximate minimum vertex cover (paper Corollary 6.4).
//!
//! Pipeline: Solomon's vertex-cover sparsifier puts every high-degree vertex
//! (degree ≥ O(α/ε)) straight into the cover; the shared decompose → solve →
//! announce pipeline (`crate::decompose_and_solve`) runs on the remaining
//! low-degree subgraph with ε* = ε/(2Δ−1), every cluster leader computing a minimum
//! vertex cover of its cluster (as the complement of a maximum independent set);
//! finally one endpoint of every inter-cluster edge not yet covered is added.
//! Since any vertex cover has size ≥ m/Δ, the ≤ ε*·m added endpoints cost only an
//! O(ε) fraction of OPT.

use mfd_graph::Graph;

use crate::{decompose_and_solve, degree_epsilon_star, solvers, sparsifier};

/// Result of the distributed approximate vertex-cover computation.
#[derive(Debug, Clone)]
pub struct VertexCoverResult {
    /// The cover found.
    pub cover: Vec<usize>,
    /// Total rounds.
    pub rounds: u64,
    /// Number of clusters.
    pub clusters: usize,
}

/// Computes a (1 + O(ε))-approximate minimum vertex cover.
///
/// # Example
///
/// ```
/// use mfd_apps::vertex_cover::approximate_vertex_cover;
/// use mfd_apps::solvers::is_vertex_cover;
/// use mfd_graph::generators;
///
/// let g = generators::grid(6, 6);
/// let r = approximate_vertex_cover(&g, 0.3);
/// assert!(is_vertex_cover(&g, &r.cover));
/// ```
pub fn approximate_vertex_cover(g: &Graph, epsilon: f64) -> VertexCoverResult {
    assert!(epsilon > 0.0 && epsilon < 1.0);
    let mut cover_mask = vec![false; g.n()];
    let s = sparsifier::low_degree_sparsifier(g, sparsifier::cover_threshold(epsilon));
    for &v in &s.high_vertices {
        cover_mask[v] = true;
    }
    let working = s.low_subgraph;

    let eps_star = degree_epsilon_star(&working, epsilon);
    let (rounds, clusters) = decompose_and_solve(&working, eps_star, |sub, map| {
        let mis = solvers::maximum_independent_set(sub, solvers::DEFAULT_MIS_NODE_BUDGET);
        let mut in_mis = vec![false; sub.n()];
        for &v in &mis.vertices {
            in_mis[v] = true;
        }
        for local in 0..sub.n() {
            if !in_mis[local] && sub.degree(local) > 0 {
                cover_mask[map[local]] = true;
            }
        }
    });

    // Repair: cover any still-uncovered edge (inter-cluster edges of the working
    // graph and edges incident to sparsified-away vertices are the only candidates).
    for (u, v) in g.edges() {
        if !cover_mask[u] && !cover_mask[v] {
            cover_mask[u.max(v)] = true;
        }
    }

    let cover: Vec<usize> = (0..g.n()).filter(|&v| cover_mask[v]).collect();
    debug_assert!(solvers::is_vertex_cover(g, &cover));

    VertexCoverResult {
        cover,
        // The sparsifier's round, the pipeline, the repair round.
        rounds: 1 + rounds + 1,
        clusters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::is_vertex_cover;
    use mfd_graph::generators;

    #[test]
    fn result_is_a_valid_cover() {
        for g in [
            generators::triangulated_grid(8, 8),
            generators::random_apollonian(100, 3),
            generators::wheel(40),
            generators::random_tree(100, 6),
        ] {
            let r = approximate_vertex_cover(&g, 0.3);
            assert!(is_vertex_cover(&g, &r.cover));
            assert!(r.rounds > 0);
        }
    }

    #[test]
    fn quality_close_to_optimal_on_moderate_graphs() {
        // Minimum vertex cover = n − maximum independent set (by König only for
        // bipartite graphs, but the complement identity holds for any graph when the
        // MIS is exact).
        for (g, eps) in [
            (generators::grid(6, 6), 0.3),
            (generators::path(100), 0.2),
            (generators::cycle(101), 0.2),
        ] {
            let opt = g.n()
                - crate::solvers::maximum_independent_set(&g, 1_000_000)
                    .vertices
                    .len();
            let r = approximate_vertex_cover(&g, eps);
            assert!(
                r.cover.len() as f64 <= (1.0 + 3.0 * eps) * opt as f64 + 2.0,
                "cover {} opt {}",
                r.cover.len(),
                opt
            );
        }
    }

    #[test]
    fn beats_the_greedy_two_approximation_on_planar_graphs() {
        let g = generators::random_apollonian(150, 8);
        let r = approximate_vertex_cover(&g, 0.25);
        let two_approx = crate::baselines::two_approx_vertex_cover(&g);
        assert!(is_vertex_cover(&g, &two_approx));
        assert!(r.cover.len() <= two_approx.len() + 5);
    }
}
