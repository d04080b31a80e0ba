//! Edge-weighted graphs, used for cluster (quotient) graphs.
//!
//! In the heavy-stars algorithm (paper §4.1) the cluster graph carries, on each edge
//! between two clusters, the number of original edges crossing them. A
//! [`WeightedGraph`] is a [`Graph`] plus one weight per arc: the rows are the
//! graph's sorted CSR rows, and the weight of arc `i` of the flat neighbour array
//! sits at index `i` of a parallel array, so both arcs of an edge carry its weight.
//! It answers exactly what the decomposition layer asks: edge weights, the total
//! weight, and each vertex's heaviest neighbour.

use crate::graph::Graph;

/// An undirected graph on vertices `0..n` with positive integer edge weights.
///
/// Built once by [`WeightedGraph::from_edges`] and never mutated afterwards.
///
/// # Example
///
/// ```
/// use mfd_graph::WeightedGraph;
///
/// let wg = WeightedGraph::from_edges(3, [(0, 1, 2), (1, 0, 3), (2, 2, 9), (1, 2, 0)]);
/// assert_eq!(wg.weight(0, 1), 5); // both orientations add up
/// assert_eq!(wg.edge_count(), 1); // the loop and the zero weight were dropped
/// assert_eq!(wg.heaviest_neighbor(1), Some((0, 5)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WeightedGraph {
    graph: Graph,
    /// `weights[i]` is the weight of arc `i` of `graph`'s flat neighbour array.
    weights: Vec<u64>,
}

impl WeightedGraph {
    /// Builds a weighted graph with `n` vertices from `(u, v, w)` contributions.
    /// Contributions to the same pair add up, in either orientation; self-loops
    /// and zero weights are dropped.
    ///
    /// The contributions are drawn once into a list, sorted, and merged per
    /// pair; the rows are [`Graph::from_edges`]', and each pair's weight is
    /// written to both of its arcs, found by binary search.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range, or if `n > 2³²`.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize, u64)>) -> Self {
        assert!(n as u64 <= 1 << 32, "a graph has at most 2^32 vertices");
        let mut list: Vec<(u32, u32, u64)> = Vec::new();
        for (u, v, w) in edges {
            assert!(u < n && v < n, "vertex out of range");
            if u != v && w > 0 {
                list.push((u.min(v) as u32, u.max(v) as u32, w));
            }
        }
        // One entry per pair, so the rows are built without duplicates.
        list.sort_unstable_by_key(|&(u, v, _)| (u, v));
        list.dedup_by(|next, kept| {
            let same = (next.0, next.1) == (kept.0, kept.1);
            kept.2 += if same { next.2 } else { 0 };
            same
        });
        let graph = Graph::from_edges(n, list.iter().map(|&(u, v, _)| (u as usize, v as usize)));
        let mut wg = WeightedGraph {
            weights: vec![0; 2 * graph.m()],
            graph,
        };
        for (u, v, w) in list {
            for (a, b) in [(u, v), (v, u)] {
                let arc = wg.arc(a as usize, b as usize).unwrap();
                wg.weights[arc] = w;
            }
        }
        wg
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Number of edges with positive weight.
    pub fn edge_count(&self) -> usize {
        self.graph.m()
    }

    /// Weight of the edge `{u, v}` (0 if absent), O(log deg u).
    pub fn weight(&self, u: usize, v: usize) -> u64 {
        self.arc(u, v).map_or(0, |i| self.weights[i])
    }

    /// Total weight over all edges.
    pub fn total_weight(&self) -> u64 {
        // Each edge's weight sits on both of its arcs.
        self.weights.iter().sum::<u64>() / 2
    }

    /// The neighbor of `u` maximizing the edge weight, ties broken by the smallest
    /// neighbor index (a deterministic stand-in for the paper's ID-sum tie-breaking).
    /// Returns `None` if `u` has no neighbors.
    pub fn heaviest_neighbor(&self, u: usize) -> Option<(usize, u64)> {
        self.row(u).max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
    }

    /// `u`'s neighbours with their weights, in increasing neighbour order.
    fn row(&self, u: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        let start = self.graph.offsets()[u];
        let row = self.graph.neighbors(u);
        row.iter()
            .copied()
            .zip(self.weights[start..start + row.len()].iter().copied())
    }

    /// Index of the arc `u → v` in the flat neighbour array, if the edge exists.
    fn arc(&self, u: usize, v: usize) -> Option<usize> {
        if u >= self.n() {
            return None;
        }
        let i = self.graph.neighbors(u).binary_search(&v).ok()?;
        Some(self.graph.offsets()[u] + i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_accumulates() {
        let wg = WeightedGraph::from_edges(4, [(0, 1, 1), (1, 0, 2), (2, 3, 7)]);
        assert_eq!(wg.weight(0, 1), 3);
        assert_eq!(wg.weight(1, 0), 3);
        assert_eq!(wg.weight(0, 2), 0);
        assert_eq!(wg.total_weight(), 10);
        assert_eq!(wg.edge_count(), 2);
    }

    #[test]
    fn self_loops_and_zero_weight_ignored() {
        let wg = WeightedGraph::from_edges(2, [(0, 0, 5), (0, 1, 0)]);
        assert_eq!(wg.edge_count(), 0);
    }

    #[test]
    fn heaviest_neighbor_breaks_ties_by_smaller_index() {
        let wg = WeightedGraph::from_edges(4, [(0, 3, 5), (0, 1, 5), (0, 2, 4)]);
        assert_eq!(wg.heaviest_neighbor(0), Some((1, 5)));
        assert_eq!(wg.heaviest_neighbor(2), Some((0, 4)));
    }
}
