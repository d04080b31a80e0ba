//! Barenboim–Elkin forest decomposition (H-partition) and arboricity-based error
//! detection (paper §6.2).
//!
//! For a graph of arboricity at most `α₀`, repeatedly peeling the vertices of degree
//! at most `3α₀` removes everything in O(log n) iterations (each iteration removes at
//! least a third of the remaining vertices, by an averaging argument). Orienting
//! every edge from the earlier-peeled endpoint to the later one (ties by identifier)
//! yields an acyclic orientation of out-degree at most `3α₀`, i.e. a partition of the
//! edges into at most `3α₀` forests.
//!
//! If the arboricity exceeds `3α₀`, some vertices are never peeled; the paper's error
//! detection lets exactly those vertices (and the endpoints of the unoriented edges)
//! raise `reject`, certifying that the network is *not* H-minor-free. The property
//! tester of Corollary 6.6 relies on this to stay sound on arbitrary inputs.

use mfd_congest::RoundMeter;
use mfd_graph::Graph;

/// Result of the Barenboim–Elkin H-partition.
#[derive(Debug, Clone)]
pub struct ForestDecomposition {
    /// `partition_index[v]` = iteration in which `v` was peeled, or `usize::MAX` if
    /// `v` survived all iterations (only possible when the arboricity bound fails).
    pub partition_index: Vec<usize>,
    /// Acyclic orientation: for every oriented edge, `(from, to)`.
    pub oriented_edges: Vec<(usize, usize)>,
    /// Edges that could not be oriented (both endpoints survived); non-empty only when
    /// the arboricity bound fails.
    pub unoriented_edges: Vec<(usize, usize)>,
    /// Whether some vertex raises `reject` (arboricity certificate failed).
    pub rejected: bool,
    /// Number of peeling iterations executed.
    pub iterations: usize,
    /// The degree threshold used (`3·α₀`).
    pub threshold: usize,
}

impl ForestDecomposition {}

/// Runs the Barenboim–Elkin peeling with arboricity bound `alpha0`, charging one
/// CONGEST round per peeling iteration on `meter` (each iteration only requires every
/// vertex to announce to its neighbours whether it was peeled).
///
/// `max_iterations` caps the peeling (the paper uses O(log n)); vertices still alive
/// afterwards cause `rejected = true`.
pub(crate) fn forest_decomposition(
    g: &Graph,
    alpha0: usize,
    max_iterations: usize,
    meter: &mut RoundMeter,
) -> ForestDecomposition {
    let n = g.n();
    let threshold = 3 * alpha0.max(1);
    let mut partition_index = vec![usize::MAX; n];
    let mut remaining_degree: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let mut alive: Vec<bool> = vec![true; n];
    let mut alive_count = n;
    let mut iterations = 0usize;

    while alive_count > 0 && iterations < max_iterations {
        let peel: Vec<usize> = (0..n)
            .filter(|&v| alive[v] && remaining_degree[v] <= threshold)
            .collect();
        if peel.is_empty() {
            break;
        }
        for &v in &peel {
            partition_index[v] = iterations;
            alive[v] = false;
            alive_count -= 1;
        }
        for &v in &peel {
            for &u in g.neighbors(v) {
                if alive[u] {
                    remaining_degree[u] = remaining_degree[u].saturating_sub(1);
                }
            }
        }
        // One round: peeled vertices announce their removal to neighbours.
        meter.charge_rounds(1);
        meter.charge_messages(peel.iter().map(|&v| g.degree(v) as u64).sum());
        iterations += 1;
    }

    // Orientation: earlier partition index -> later; ties by smaller vertex id ->
    // larger (both peeled in the same iteration).
    let mut oriented_edges = Vec::new();
    let mut unoriented_edges = Vec::new();
    for (u, v) in g.edges() {
        let (iu, iv) = (partition_index[u], partition_index[v]);
        if iu == usize::MAX && iv == usize::MAX {
            unoriented_edges.push((u, v));
        } else if iu < iv || (iu == iv && u < v) {
            oriented_edges.push((u, v));
        } else {
            oriented_edges.push((v, u));
        }
    }
    let rejected = alive_count > 0;
    ForestDecomposition {
        partition_index,
        oriented_edges,
        unoriented_edges,
        rejected,
        iterations,
        threshold,
    }
}

/// Convenience wrapper: runs the decomposition with the default iteration budget
/// `4·⌈log₂(n+2)⌉ + 4`.
pub fn forest_decomposition_default(
    g: &Graph,
    alpha0: usize,
    meter: &mut RoundMeter,
) -> ForestDecomposition {
    let budget = 4 * ((g.n() + 2) as f64).log2().ceil() as usize + 4;
    forest_decomposition(g, alpha0, budget, meter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_graph::{generators, recognition};

    /// Maximum out-degree of the computed orientation.
    fn max_out_degree(fd: &ForestDecomposition) -> usize {
        let mut out = vec![0; fd.partition_index.len()];
        for &(u, _) in &fd.oriented_edges {
            out[u] += 1;
        }
        out.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn planar_graphs_are_fully_peeled() {
        for g in [
            generators::triangulated_grid(8, 8),
            generators::random_apollonian(200, 3),
            generators::wheel(50),
        ] {
            let mut meter = RoundMeter::new();
            let fd = forest_decomposition_default(&g, 3, &mut meter);
            assert!(!fd.rejected);
            assert!(fd.unoriented_edges.is_empty());
            assert_eq!(fd.oriented_edges.len(), g.m());
            assert!(max_out_degree(&fd) <= fd.threshold);
            assert!(meter.rounds() as usize >= fd.iterations);
        }
    }

    #[test]
    fn orientation_is_acyclic_and_forests_are_forests() {
        let g = generators::random_apollonian(100, 9);
        let mut meter = RoundMeter::new();
        let fd = forest_decomposition_default(&g, 3, &mut meter);
        // Every edge points from the earlier-peeled endpoint to the later one
        // (ties by identifier): a topological order, so no directed cycle.
        let rank = |v: usize| (fd.partition_index[v], v);
        assert!(fd.oriented_edges.iter().all(|&(u, v)| rank(u) < rank(v)));
        assert_eq!(fd.oriented_edges.len(), g.m());
        // Acyclic with out-degree ≤ d splits into d forests: the i-th out-edge
        // of every vertex goes to forest i.
        let d = max_out_degree(&fd);
        let mut next = vec![0; g.n()];
        let mut forests = vec![Vec::new(); d];
        for &(u, v) in &fd.oriented_edges {
            forests[next[u]].push((u, v));
            next[u] += 1;
        }
        for forest in forests {
            assert!(recognition::is_forest(&Graph::from_edges(g.n(), forest)));
        }
    }

    #[test]
    fn dense_graphs_are_rejected_with_small_alpha() {
        // K20 has arboricity 10 > 3·1, so with alpha0 = 1 (threshold 3) nothing peels.
        let g = generators::complete(20);
        let mut meter = RoundMeter::new();
        let fd = forest_decomposition_default(&g, 1, &mut meter);
        assert!(fd.rejected);
        assert!(!fd.unoriented_edges.is_empty());
    }

    #[test]
    fn hypercube_accepted_with_generous_bound_rejected_with_tight_one() {
        let g = generators::hypercube(6); // 6-regular, arboricity ~3
        let mut meter = RoundMeter::new();
        let ok = forest_decomposition_default(&g, 2, &mut meter);
        assert!(!ok.rejected);
        let mut meter2 = RoundMeter::new();
        let bad = forest_decomposition_default(&g, 1, &mut meter2);
        // Threshold 3 < regular degree 6, so no vertex ever peels.
        assert!(bad.rejected);
    }

    #[test]
    fn iterations_grow_slowly_with_size() {
        let small = generators::random_apollonian(50, 1);
        let large = generators::random_apollonian(2000, 1);
        let mut m1 = RoundMeter::new();
        let mut m2 = RoundMeter::new();
        let f1 = forest_decomposition_default(&small, 3, &mut m1);
        let f2 = forest_decomposition_default(&large, 3, &mut m2);
        assert!(!f1.rejected && !f2.rejected);
        assert!(f2.iterations <= f1.iterations + 16);
    }

    use mfd_graph::Graph;
}
