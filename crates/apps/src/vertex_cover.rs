//! (1 + ε)-approximate minimum vertex cover (paper Corollary 6.4).
//!
//! Pipeline: Solomon's vertex-cover sparsifier puts every high-degree vertex
//! (degree ≥ O(α/ε)) straight into the cover; an (ε*, D, T)-decomposition of the
//! remaining low-degree subgraph is built; every cluster leader computes a minimum
//! vertex cover of its cluster (as the complement of a maximum independent set);
//! finally one endpoint of every inter-cluster edge not yet covered is added.
//! Since any vertex cover has size ≥ m/Δ, the ≤ ε*·m added endpoints cost only an
//! O(ε) fraction of OPT.

use mfd_congest::RoundMeter;
use mfd_core::edt::{build_edt, EdtConfig};
use mfd_graph::Graph;

use crate::solvers;
use crate::sparsifier;

/// Configuration for [`approximate_vertex_cover`].
#[derive(Debug, Clone)]
pub struct VertexCoverConfig {
    /// Approximation parameter ε.
    pub epsilon: f64,
    /// Arboricity bound (3 for planar families).
    pub alpha: usize,
}

/// Lower bound on the decomposition parameter ε*.
const MIN_EPSILON_STAR: f64 = 0.01;

impl VertexCoverConfig {
    /// Default configuration for a given ε.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0);
        VertexCoverConfig { epsilon, alpha: 3 }
    }
}

/// Result of the distributed approximate vertex-cover computation.
#[derive(Debug, Clone)]
pub struct VertexCoverResult {
    /// The cover found.
    pub cover: Vec<usize>,
    /// Total rounds.
    pub rounds: u64,
    /// Rounds spent building the decomposition.
    pub construction_rounds: u64,
    /// Rounds spent on routing.
    pub routing_rounds: u64,
    /// Number of clusters.
    pub clusters: usize,
    /// Vertices added to repair uncovered inter-cluster edges.
    pub repaired_edges: usize,
}

/// Computes a (1 + O(ε))-approximate minimum vertex cover.
///
/// # Example
///
/// ```
/// use mfd_apps::vertex_cover::{approximate_vertex_cover, VertexCoverConfig};
/// use mfd_apps::solvers::is_vertex_cover;
/// use mfd_graph::generators;
///
/// let g = generators::grid(6, 6);
/// let r = approximate_vertex_cover(&g, &VertexCoverConfig::new(0.3));
/// assert!(is_vertex_cover(&g, &r.cover));
/// ```
pub fn approximate_vertex_cover(g: &Graph, config: &VertexCoverConfig) -> VertexCoverResult {
    let mut extra = RoundMeter::new();
    let mut cover_mask = vec![false; g.n()];

    extra.charge_rounds(1);
    extra.charge_messages(2 * g.m() as u64);
    let threshold = sparsifier::cover_threshold(config.alpha, config.epsilon);
    let s = sparsifier::low_degree_sparsifier(g, threshold);
    for &v in &s.high_vertices {
        cover_mask[v] = true;
    }
    let working = s.low_subgraph;

    let delta = working.max_degree().max(1) as f64;
    let eps_star = (config.epsilon / (2.0 * delta - 1.0)).max(MIN_EPSILON_STAR);
    let (decomposition, meter) = build_edt(&working, &EdtConfig::new(eps_star.min(0.9)));

    for c in 0..decomposition.clustering.num_clusters() {
        let members = decomposition.clustering.members(c);
        if members.len() < 2 {
            continue;
        }
        let (sub, map) = working.induced_subgraph(members);
        if sub.m() == 0 {
            continue;
        }
        let mis = solvers::maximum_independent_set(&sub, solvers::DEFAULT_MIS_NODE_BUDGET);
        let in_mis: std::collections::HashSet<usize> = mis.vertices.iter().copied().collect();
        for local in 0..sub.n() {
            if !in_mis.contains(&local) && sub.degree(local) > 0 {
                cover_mask[map[local]] = true;
            }
        }
    }
    extra.charge_rounds(decomposition.routing_rounds);

    // Repair: cover any still-uncovered edge (inter-cluster edges of the working
    // graph and edges incident to sparsified-away vertices are the only candidates).
    let mut repaired = 0usize;
    for (u, v) in g.edges() {
        if !cover_mask[u] && !cover_mask[v] {
            cover_mask[u.max(v)] = true;
            repaired += 1;
        }
    }
    extra.charge_rounds(1);

    let cover: Vec<usize> = (0..g.n()).filter(|&v| cover_mask[v]).collect();
    debug_assert!(solvers::is_vertex_cover(g, &cover));

    VertexCoverResult {
        cover,
        rounds: meter.rounds() + extra.rounds(),
        construction_rounds: decomposition.construction_rounds,
        routing_rounds: decomposition.routing_rounds + extra.rounds(),
        clusters: decomposition.clustering.num_clusters(),
        repaired_edges: repaired,
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
            let r = approximate_vertex_cover(&g, &VertexCoverConfig::new(0.3));
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
            let r = approximate_vertex_cover(&g, &VertexCoverConfig::new(eps));
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
        let r = approximate_vertex_cover(&g, &VertexCoverConfig::new(0.25));
        let two_approx = crate::baselines::two_approx_vertex_cover(&g);
        assert!(is_vertex_cover(&g, &two_approx));
        assert!(r.cover.len() <= two_approx.len() + 5);
    }
}
