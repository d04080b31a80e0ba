//! Edge-weighted graphs, used for cluster (quotient) graphs.
//!
//! In the heavy-stars algorithm (paper §4.1) the cluster graph carries, on each edge
//! between two clusters, the number of original edges crossing them. This module
//! provides a small weighted-graph type supporting exactly the operations the
//! decomposition layer needs: weight accumulation, weighted degree, and iteration.

use std::collections::HashMap;

/// An undirected graph on vertices `0..n` with non-negative integer edge weights.
///
/// Parallel weight contributions accumulate: calling [`WeightedGraph::add_weight`]
/// twice on the same pair adds the weights.
///
/// # Example
///
/// ```
/// use mfd_graph::WeightedGraph;
///
/// let mut wg = WeightedGraph::new(3);
/// wg.add_weight(0, 1, 2);
/// wg.add_weight(1, 0, 3);
/// assert_eq!(wg.weight(0, 1), 5);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WeightedGraph {
    n: usize,
    weights: HashMap<(usize, usize), u64>,
    adjacency: Vec<Vec<usize>>,
}

impl WeightedGraph {
    /// Creates an empty weighted graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        WeightedGraph {
            n,
            weights: HashMap::new(),
            adjacency: vec![Vec::new(); n],
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges with positive weight.
    pub fn edge_count(&self) -> usize {
        self.weights.len()
    }

    /// Adds `w` to the weight of the edge `{u, v}`. Zero-weight additions on absent
    /// edges are ignored; self-loops are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add_weight(&mut self, u: usize, v: usize, w: u64) {
        assert!(u < self.n && v < self.n, "vertex out of range");
        if u == v || w == 0 {
            return;
        }
        let key = Self::key(u, v);
        let entry = self.weights.entry(key).or_insert(0);
        if *entry == 0 {
            self.adjacency[u].push(v);
            self.adjacency[v].push(u);
        }
        *entry += w;
    }

    /// Weight of the edge `{u, v}` (0 if absent).
    pub fn weight(&self, u: usize, v: usize) -> u64 {
        if u == v {
            return 0;
        }
        *self.weights.get(&Self::key(u, v)).unwrap_or(&0)
    }

    /// Total weight over all edges.
    pub fn total_weight(&self) -> u64 {
        self.weights.values().sum()
    }

    /// The neighbor of `u` maximizing the edge weight, ties broken by the smallest
    /// neighbor index (a deterministic stand-in for the paper's ID-sum tie-breaking).
    /// Returns `None` if `u` has no neighbors.
    pub fn heaviest_neighbor(&self, u: usize) -> Option<(usize, u64)> {
        self.adjacency[u]
            .iter()
            .map(|&v| (v, self.weight(u, v)))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
    }

    fn key(u: usize, v: usize) -> (usize, usize) {
        if u < v {
            (u, v)
        } else {
            (v, u)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_accumulates() {
        let mut wg = WeightedGraph::new(4);
        wg.add_weight(0, 1, 1);
        wg.add_weight(1, 0, 2);
        wg.add_weight(2, 3, 7);
        assert_eq!(wg.weight(0, 1), 3);
        assert_eq!(wg.weight(1, 0), 3);
        assert_eq!(wg.weight(0, 2), 0);
        assert_eq!(wg.total_weight(), 10);
        assert_eq!(wg.edge_count(), 2);
    }

    #[test]
    fn self_loops_and_zero_weight_ignored() {
        let mut wg = WeightedGraph::new(2);
        wg.add_weight(0, 0, 5);
        wg.add_weight(0, 1, 0);
        assert_eq!(wg.edge_count(), 0);
    }

    #[test]
    fn heaviest_neighbor_breaks_ties_by_smaller_index() {
        let mut wg = WeightedGraph::new(4);
        wg.add_weight(0, 3, 5);
        wg.add_weight(0, 1, 5);
        wg.add_weight(0, 2, 4);
        assert_eq!(wg.heaviest_neighbor(0), Some((1, 5)));
        assert_eq!(wg.heaviest_neighbor(2), Some((0, 4)));
    }
}
