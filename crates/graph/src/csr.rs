//! Compressed sparse row (CSR) adjacency: the flat storage behind
//! million-vertex runs.
//!
//! [`Graph`] keeps one heap-allocated `Vec` per vertex, which is convenient
//! for structural surgery (induced subgraphs, quotients, edge insertion) but
//! costs a pointer chase per vertex and scattered cache lines on the
//! executor's hot path. [`CsrGraph`] is the read-only counterpart: all
//! neighbor lists live in one `targets` array, indexed by an `offsets` array
//! of length `n + 1`, with each vertex's slice **sorted and deduplicated**.
//! Sorted slices are exactly what the runtime's `Outbox` needs for its
//! binary-search edge checks, so a CSR graph plugs into the executor with
//! zero per-vertex preprocessing.
//!
//! Conversions are lossless in both directions: [`CsrGraph::from_graph`] /
//! [`CsrGraph::to_graph`] round-trip to an identical edge set (equivalence is
//! tested below and property-tested in `tests/integration_scale.rs`).

use crate::graph::Graph;

/// A simple undirected graph on vertices `0..n` in compressed sparse row
/// form: immutable after construction, one flat allocation for all adjacency
/// data, sorted neighbor slices.
///
/// Self-loops and parallel edges are removed during construction, so a
/// `CsrGraph` always describes the same class of simple graphs as [`Graph`].
///
/// # Example
///
/// ```
/// use mfd_graph::CsrGraph;
///
/// let g = CsrGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 2)]);
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 3); // the duplicate (1, 2) was dropped
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert!(g.has_edge(2, 3) && !g.has_edge(0, 3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v + 1]` indexes `targets`; length `n + 1`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbor lists; length `2m`.
    targets: Vec<usize>,
}

impl CsrGraph {
    /// Builds a CSR graph from an edge iterator in two O(m) passes (degree
    /// count, then fill) plus a per-vertex sort; self-loops and duplicate
    /// edges (in either orientation) are dropped.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut directed: Vec<(usize, usize)> = Vec::new();
        for (u, v) in edges {
            assert!(u < n && v < n, "edge endpoint out of range");
            if u != v {
                directed.push((u, v));
                directed.push((v, u));
            }
        }
        Self::from_directed(n, directed)
    }

    /// Shared construction from a directed arc list that already contains
    /// both orientations of every edge (possibly with duplicates).
    fn from_directed(n: usize, directed: Vec<(usize, usize)>) -> Self {
        let mut offsets = vec![0usize; n + 1];
        for &(u, _) in &directed {
            offsets[u + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0usize; directed.len()];
        for (u, v) in directed {
            targets[cursor[u]] = v;
            cursor[u] += 1;
        }
        // Sort each row, then compact duplicates in place. `write` trails the
        // read cursor, so compaction is a single O(2m) sweep.
        for v in 0..n {
            targets[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        let mut write = 0usize;
        let mut new_offsets = vec![0usize; n + 1];
        for v in 0..n {
            let (row_start, row_end) = (offsets[v], offsets[v + 1]);
            new_offsets[v] = write;
            let mut last = usize::MAX;
            for read in row_start..row_end {
                let t = targets[read];
                if t != last {
                    targets[write] = t;
                    write += 1;
                    last = t;
                }
            }
        }
        new_offsets[n] = write;
        targets.truncate(write);
        CsrGraph {
            offsets: new_offsets,
            targets,
        }
    }

    /// Converts an adjacency-map [`Graph`] into CSR form (same vertex set,
    /// same edge set, neighbors sorted).
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.n();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut targets = Vec::with_capacity(2 * g.m());
        for v in 0..n {
            let row_start = targets.len();
            targets.extend_from_slice(g.neighbors(v));
            targets[row_start..].sort_unstable();
            offsets.push(targets.len());
        }
        CsrGraph { offsets, targets }
    }

    /// Induced subgraph on the given vertices, in CSR form.
    ///
    /// The numbering contract is [`Graph::induced_subgraph`]'s: vertex `i` of
    /// the subgraph is `vertices[i]`, and the second component maps new
    /// indices back to original ones. The result equals
    /// `CsrGraph::from_graph(&g.induced_subgraph(vertices).0)` for the
    /// [`Graph`] with the same edge set, without building that graph.
    ///
    /// # Panics
    ///
    /// Panics if `vertices` contains duplicates or out-of-range indices.
    pub fn induced_subgraph(&self, vertices: &[usize]) -> (CsrGraph, Vec<usize>) {
        let n = self.n();
        // As in `Graph::induced_subgraph`: a dense index costs O(n) per call,
        // which callers inducing many small clusters cannot afford.
        let sub = if vertices.len().saturating_mul(8) < n {
            let mut new_index: std::collections::HashMap<usize, usize> =
                std::collections::HashMap::with_capacity(vertices.len());
            for (i, &v) in vertices.iter().enumerate() {
                assert!(v < n, "vertex out of range");
                assert!(
                    new_index.insert(v, i).is_none(),
                    "duplicate vertex in induced_subgraph"
                );
            }
            self.induce(vertices, |w| new_index.get(&w).copied())
        } else {
            let mut new_index = vec![usize::MAX; n];
            for (i, &v) in vertices.iter().enumerate() {
                assert!(v < n, "vertex out of range");
                assert!(
                    new_index[v] == usize::MAX,
                    "duplicate vertex in induced_subgraph"
                );
                new_index[v] = i;
            }
            self.induce(vertices, |w| {
                Some(new_index[w]).filter(|&j| j != usize::MAX)
            })
        };
        (sub, vertices.to_vec())
    }

    /// Rows of the subgraph induced on `vertices`, given the original → new
    /// index lookup. Member order is arbitrary, so each row is re-sorted.
    fn induce(&self, vertices: &[usize], new_index: impl Fn(usize) -> Option<usize>) -> CsrGraph {
        let mut offsets = Vec::with_capacity(vertices.len() + 1);
        offsets.push(0);
        let mut targets = Vec::new();
        for &v in vertices {
            let row_start = targets.len();
            targets.extend(self.neighbors(v).iter().filter_map(|&w| new_index(w)));
            targets[row_start..].sort_unstable();
            offsets.push(targets.len());
        }
        CsrGraph { offsets, targets }
    }

    /// Converts back to the adjacency-map representation; the exact inverse
    /// of [`CsrGraph::from_graph`] up to neighbor order.
    pub fn to_graph(&self) -> Graph {
        let mut g = Graph::new(self.n());
        for v in 0..self.n() {
            for &u in self.neighbors(v) {
                if v < u {
                    g.add_edge(v, u);
                }
            }
        }
        g
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (undirected) edges.
    pub fn m(&self) -> usize {
        self.targets.len() / 2
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree Δ (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Sorted neighbors of vertex `v`, as a borrow of the flat array.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Returns `true` if the edge `{u, v}` is present (O(log deg u)).
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.n() && v < self.n() && self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The offsets array (length `n + 1`).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Iterator over all edges, each reported once as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| u < v)
                .map(move |&v| (u, v))
        })
    }

    /// BFS distances from `src` (`usize::MAX` for unreachable vertices) —
    /// the centralized reference the executed programs are validated
    /// against at scale.
    pub fn bfs_distances(&self, src: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.n()];
        dist[src] = 0;
        let mut frontier = vec![src];
        let mut next = Vec::new();
        while !frontier.is_empty() {
            for &v in &frontier {
                let d = dist[v] + 1;
                for &u in self.neighbors(v) {
                    if dist[u] == usize::MAX {
                        dist[u] = d;
                        next.push(u);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn from_graph_round_trips_every_generator_family() {
        for g in [
            generators::path(7),
            generators::cycle(9),
            generators::triangulated_grid(5, 6),
            generators::wheel(12),
            generators::hypercube(4),
            Graph::new(0),
            Graph::new(3),
        ] {
            let csr = CsrGraph::from_graph(&g);
            assert_eq!(csr.n(), g.n());
            assert_eq!(csr.m(), g.m());
            for v in 0..g.n() {
                let mut expect = g.neighbors(v).to_vec();
                expect.sort_unstable();
                assert_eq!(csr.neighbors(v), &expect[..]);
            }
            assert_eq!(csr.to_graph(), {
                // Graph equality is adjacency-order-sensitive; canonicalize.
                let mut sorted = Graph::new(g.n());
                let mut edges: Vec<_> = g.edges().collect();
                edges.sort_unstable();
                for (u, v) in edges {
                    sorted.add_edge(u, v);
                }
                sorted
            });
        }
    }

    #[test]
    fn from_edges_drops_loops_and_duplicates() {
        let csr = CsrGraph::from_edges(5, [(0, 1), (1, 0), (2, 2), (3, 4), (3, 4), (4, 3)]);
        assert_eq!(csr.m(), 2);
        assert_eq!(csr.neighbors(0), &[1]);
        assert_eq!(csr.neighbors(2), &[] as &[usize]);
        assert_eq!(csr.neighbors(3), &[4]);
        assert!(!csr.has_edge(2, 2));
    }

    #[test]
    fn csr_and_graph_agree_on_structure_queries() {
        let g = generators::triangulated_grid(6, 6);
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.max_degree(), g.max_degree());
        let mut graph_edges: Vec<_> = g.edges().collect();
        graph_edges.sort_unstable();
        assert_eq!(csr.edges().collect::<Vec<_>>(), graph_edges);
        for v in 0..g.n() {
            assert_eq!(csr.bfs_distances(v), g.bfs_distances(v));
        }
    }

    #[test]
    fn induced_subgraph_follows_the_graph_numbering_contract() {
        let g = generators::triangulated_grid(6, 6);
        let csr = CsrGraph::from_graph(&g);
        // Unsorted member lists on the hash-map path (|S|·8 < n) and the
        // dense one, plus the empty and the full set.
        for members in [
            vec![14, 2, 8, 7],
            vec![35, 0, 1, 6, 7, 30, 29, 28, 22, 21, 3],
            vec![],
            (0..g.n()).rev().collect(),
        ] {
            let (sub, map) = csr.induced_subgraph(&members);
            let (expected, expected_map) = g.induced_subgraph(&members);
            assert_eq!(sub, CsrGraph::from_graph(&expected));
            assert_eq!(map, expected_map);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate vertex in induced_subgraph")]
    fn induced_subgraph_rejects_duplicates_on_the_hash_path() {
        CsrGraph::from_graph(&generators::path(64)).induced_subgraph(&[3, 4, 3]);
    }

    #[test]
    #[should_panic(expected = "duplicate vertex in induced_subgraph")]
    fn induced_subgraph_rejects_duplicates_on_the_dense_path() {
        CsrGraph::from_graph(&generators::path(4)).induced_subgraph(&[1, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "vertex out of range")]
    fn induced_subgraph_rejects_out_of_range_vertices() {
        CsrGraph::from_graph(&generators::path(4)).induced_subgraph(&[1, 4]);
    }

    #[test]
    #[should_panic(expected = "edge endpoint out of range")]
    fn out_of_range_endpoint_panics() {
        CsrGraph::from_edges(2, [(0, 2)]);
    }
}
