//! Solomon's bounded-degree sparsifiers (paper §6.1, following \[Sol18\]).
//!
//! For maximum matching, maximum independent set and minimum vertex cover in graphs
//! of arboricity at most `α`, there is a deterministic **one-round** reduction to the
//! same problem on a subgraph with maximum degree `O(α/ε)` (or `O(α²/ε)` for MIS):
//!
//! * **vertex cover** — high-degree vertices (degree ≥ d) can simply be put in the
//!   cover; a (1+ε)-approximate cover of the low-degree part completes it;
//! * **MIS** — a (1−ε)-approximate independent set of the low-degree part is already
//!   (1−O(ε))-approximate for the whole graph;
//! * **matching** — every vertex marks up to `d` incident edges; the subgraph of
//!   doubly-marked edges has maximum degree ≤ d and preserves the maximum matching up
//!   to a (1−ε) factor.
//!
//! Each reduction costs one CONGEST round (vertices tell neighbours whether they are
//! high-degree / which incident edges they marked), added to the round count by the
//! calling application.

use mfd_graph::Graph;

use crate::ALPHA;

/// Output of a vertex sparsifier: the low-degree subgraph plus the removed
/// high-degree vertices.
#[derive(Debug, Clone)]
pub(crate) struct VertexSparsifier {
    /// The subgraph induced by the low-degree vertices (same vertex indexing as the
    /// original graph; high-degree vertices are isolated in it).
    pub low_subgraph: Graph,
    /// The high-degree vertices that were removed.
    pub high_vertices: Vec<usize>,
}

/// Degree threshold for the MIS sparsifier: `⌈c·α²/ε⌉`.
pub(crate) fn mis_threshold(epsilon: f64) -> usize {
    (((ALPHA * ALPHA) as f64) / epsilon).ceil() as usize + 1
}

/// Degree threshold for the vertex-cover / matching sparsifiers: `⌈c·α/ε⌉`.
pub(crate) fn cover_threshold(epsilon: f64) -> usize {
    ((ALPHA as f64) / epsilon).ceil() as usize + 1
}

/// Builds the low-degree vertex sparsifier `G^d_low`: vertices of degree ≥ `threshold`
/// are removed (their incident edges disappear).
pub(crate) fn low_degree_sparsifier(g: &Graph, threshold: usize) -> VertexSparsifier {
    let n = g.n();
    let high: Vec<usize> = (0..n).filter(|&v| g.degree(v) >= threshold).collect();
    let is_high: Vec<bool> = (0..n).map(|v| g.degree(v) >= threshold).collect();
    let low = g.edges().filter(|&(u, v)| !is_high[u] && !is_high[v]);
    VertexSparsifier {
        low_subgraph: Graph::from_edges(n, low),
        high_vertices: high,
    }
}

/// Builds the matching sparsifier `G_d`: every vertex marks its first
/// `min(deg, threshold)` incident edges; only edges marked by both endpoints remain.
/// The result has maximum degree ≤ `threshold`.
pub(crate) fn matching_sparsifier(g: &Graph, threshold: usize) -> Graph {
    let n = g.n();
    // `u` marked `v` when `v` is among the first `threshold` entries of
    // `u`'s sorted row.
    let marked = |u: usize, v: usize| g.neighbors(u).partition_point(|&w| w < v) < threshold;
    let both = g.edges().filter(|&(u, v)| marked(u, v) && marked(v, u));
    Graph::from_edges(n, both)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers;
    use mfd_graph::generators;

    #[test]
    fn low_degree_sparsifier_bounds_degree() {
        let g = generators::random_apollonian(200, 7);
        let threshold = 12;
        let s = low_degree_sparsifier(&g, threshold);
        assert!(s.low_subgraph.max_degree() < threshold);
        for &v in &s.high_vertices {
            assert!(g.degree(v) >= threshold);
            assert_eq!(s.low_subgraph.degree(v), 0);
        }
    }

    #[test]
    fn matching_sparsifier_bounds_degree_and_preserves_matching_size() {
        let g = generators::random_apollonian(150, 5);
        let eps = 0.2;
        let d = cover_threshold(eps);
        let sparse = matching_sparsifier(&g, d);
        assert!(sparse.max_degree() <= d);
        let full = solvers::matching_edges(&solvers::maximum_matching(&g)).len();
        let reduced = solvers::matching_edges(&solvers::maximum_matching(&sparse)).len();
        assert!(
            reduced as f64 >= (1.0 - 2.0 * eps) * full as f64,
            "reduced {reduced} vs full {full}"
        );
    }

    #[test]
    fn mis_sparsifier_preserves_independent_set_size() {
        let g = generators::random_apollonian(120, 11);
        let eps = 0.25;
        let d = mis_threshold(eps);
        let s = low_degree_sparsifier(&g, d);
        let full = solvers::maximum_independent_set(&g, solvers::DEFAULT_MIS_NODE_BUDGET)
            .vertices
            .len();
        let reduced =
            solvers::maximum_independent_set(&s.low_subgraph, solvers::DEFAULT_MIS_NODE_BUDGET)
                .vertices
                .len();
        assert!(
            reduced as f64 >= (1.0 - 2.0 * eps) * full as f64,
            "reduced {reduced} vs full {full}"
        );
    }

    #[test]
    fn vertex_cover_sparsifier_is_sound() {
        let g = generators::random_apollonian(100, 2);
        let d = cover_threshold(0.25);
        let s = low_degree_sparsifier(&g, d);
        // high vertices + a cover of the low part always form a cover of G.
        let low_cover: Vec<usize> = {
            let mis =
                solvers::maximum_independent_set(&s.low_subgraph, solvers::DEFAULT_MIS_NODE_BUDGET);
            (0..g.n())
                .filter(|&v| !mis.vertices.contains(&v) && s.low_subgraph.degree(v) > 0)
                .collect()
        };
        let mut cover = s.high_vertices.clone();
        cover.extend(low_cover);
        assert!(solvers::is_vertex_cover(&g, &cover));
    }

    #[test]
    fn thresholds_scale_with_one_over_epsilon() {
        assert!(mis_threshold(0.1) > mis_threshold(0.5));
        assert!(cover_threshold(0.05) > cover_threshold(0.2));
        assert!(mis_threshold(0.2) >= cover_threshold(0.2));
    }
}
