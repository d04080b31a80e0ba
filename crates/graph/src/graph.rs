//! Simple undirected graph representation and core structural queries.

use std::collections::VecDeque;

use crate::weighted::WeightedGraph;

/// A simple undirected graph on vertices `0..n`.
///
/// The graph stores adjacency lists. Self-loops and parallel edges are rejected by
/// [`Graph::add_edge`]. Vertices are addressed by `usize` indices; the library keeps
/// vertex identifiers and vertex indices identical (the CONGEST simulator assigns
/// distinct O(log n)-bit identifiers on top of these indices).
///
/// # Example
///
/// ```
/// use mfd_graph::Graph;
///
/// let mut g = Graph::new(4);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// g.add_edge(2, 3);
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 3);
/// assert_eq!(g.degree(1), 2);
/// assert!(g.is_connected());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<usize>>,
    m: usize,
}

impl Graph {
    /// Creates an empty graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            m: 0,
        }
    }

    /// Builds a graph with `n` vertices from an edge list. Duplicate edges and
    /// self-loops are silently ignored.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut g = Graph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Adds the undirected edge `{u, v}`. Returns `true` if the edge was inserted,
    /// `false` if it already existed or `u == v`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        assert!(u < self.n() && v < self.n(), "edge endpoint out of range");
        if u == v || self.has_edge(u, v) {
            return false;
        }
        self.adj[u].push(v);
        self.adj[v].push(u);
        self.m += 1;
        true
    }

    /// Returns `true` if the edge `{u, v}` is present.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        if u >= self.n() || v >= self.n() {
            return false;
        }
        // Scan the shorter adjacency list.
        let (a, b) = if self.adj[u].len() <= self.adj[v].len() {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[a].contains(&b)
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// Maximum degree Δ of the graph (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Minimum degree of the graph (0 for the empty graph).
    pub fn min_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Neighbors of vertex `v`.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adj[v]
    }

    /// Iterator over all vertices `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = usize> {
        0..self.n()
    }

    /// Iterator over all edges, each reported once as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(u, nbrs)| nbrs.iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
    }

    /// Volume of a vertex set: the sum of degrees (in the whole graph) of vertices
    /// where `mask[v]` is true.
    pub fn volume(&self, mask: &[bool]) -> usize {
        mask.iter()
            .enumerate()
            .filter(|&(_, &inside)| inside)
            .map(|(v, _)| self.degree(v))
            .sum()
    }

    /// Volume of the whole graph, `2m`.
    pub fn total_volume(&self) -> usize {
        2 * self.m
    }

    /// Number of edges with exactly one endpoint in the masked set, `|∂(S)|`.
    pub fn cut_size(&self, mask: &[bool]) -> usize {
        self.edges().filter(|&(u, v)| mask[u] != mask[v]).count()
    }

    /// Number of edges with both endpoints in the masked set.
    pub fn internal_edges(&self, mask: &[bool]) -> usize {
        self.edges().filter(|&(u, v)| mask[u] && mask[v]).count()
    }

    /// Conductance Φ(S) of a cut given by a membership mask, as defined in the paper:
    /// `|∂(S)| / min(vol(S), vol(V \ S))`.
    ///
    /// Returns `f64::INFINITY` if one side has zero volume.
    pub fn conductance_of_cut(&self, mask: &[bool]) -> f64 {
        let cut = self.cut_size(mask) as f64;
        let vol_s = self.volume(mask);
        let vol_rest = self.total_volume() - vol_s;
        let denom = vol_s.min(vol_rest) as f64;
        if denom == 0.0 {
            f64::INFINITY
        } else {
            cut / denom
        }
    }

    /// Sparsity Ψ(S) (edge expansion) of a cut given by a membership mask:
    /// `|∂(S)| / min(|S|, |V \ S|)`.
    pub fn sparsity_of_cut(&self, mask: &[bool]) -> f64 {
        let cut = self.cut_size(mask) as f64;
        let size_s = mask.iter().filter(|&&b| b).count();
        let denom = size_s.min(self.n() - size_s) as f64;
        if denom == 0.0 {
            f64::INFINITY
        } else {
            cut / denom
        }
    }

    /// BFS distances from `src`; unreachable vertices get `usize::MAX`.
    pub fn bfs_distances(&self, src: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.n()];
        let mut queue = VecDeque::new();
        dist[src] = 0;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            for &v in &self.adj[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// BFS restricted to vertices where `mask[v]` is true, starting from `src`
    /// (which must be inside the mask). Vertices outside the mask or unreachable
    /// inside it get `usize::MAX`.
    pub fn bfs_distances_within(&self, src: usize, mask: &[bool]) -> Vec<usize> {
        debug_assert!(mask[src]);
        let mut dist = vec![usize::MAX; self.n()];
        let mut queue = VecDeque::new();
        dist[src] = 0;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            for &v in &self.adj[u] {
                if mask[v] && dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Eccentricity of `src`: maximum finite BFS distance from `src`.
    /// Returns `None` if the graph has vertices unreachable from `src`.
    pub fn eccentricity(&self, src: usize) -> Option<usize> {
        let dist = self.bfs_distances(src);
        if dist.contains(&usize::MAX) {
            None
        } else {
            dist.into_iter().max()
        }
    }

    /// Exact diameter via all-pairs BFS.
    ///
    /// Returns `None` if the graph is disconnected or empty. Intended for the modest
    /// graph sizes used in tests and for cluster subgraphs; O(n·m).
    pub fn diameter(&self) -> Option<usize> {
        if self.n() == 0 {
            return None;
        }
        let mut best = 0;
        for v in self.vertices() {
            match self.eccentricity(v) {
                Some(e) => best = best.max(e),
                None => return None,
            }
        }
        Some(best)
    }

    /// Diameter of the subgraph induced by the masked vertices (`usize::MAX` distances
    /// within the mask mean the induced subgraph is disconnected, in which case `None`
    /// is returned). An empty mask yields `Some(0)`.
    pub fn induced_diameter(&self, mask: &[bool]) -> Option<usize> {
        let members: Vec<usize> = (0..self.n()).filter(|&v| mask[v]).collect();
        if members.is_empty() {
            return Some(0);
        }
        let mut best = 0;
        for &v in &members {
            let dist = self.bfs_distances_within(v, mask);
            for &u in &members {
                if dist[u] == usize::MAX {
                    return None;
                }
                best = best.max(dist[u]);
            }
        }
        Some(best)
    }

    /// Connected components; returns for each vertex its component index, and the
    /// number of components.
    pub fn connected_components(&self) -> (Vec<usize>, usize) {
        let mut comp = vec![usize::MAX; self.n()];
        let mut count = 0;
        for start in self.vertices() {
            if comp[start] != usize::MAX {
                continue;
            }
            let mut queue = VecDeque::new();
            comp[start] = count;
            queue.push_back(start);
            while let Some(u) = queue.pop_front() {
                for &v in &self.adj[u] {
                    if comp[v] == usize::MAX {
                        comp[v] = count;
                        queue.push_back(v);
                    }
                }
            }
            count += 1;
        }
        (comp, count)
    }

    /// Returns `true` if the graph is connected (the empty graph counts as connected).
    pub fn is_connected(&self) -> bool {
        self.n() == 0 || self.connected_components().1 == 1
    }

    /// Induced subgraph on the given vertices.
    ///
    /// Returns the subgraph (with vertices relabelled `0..k` in the order given) and
    /// the mapping from new indices to original vertex indices.
    ///
    /// # Panics
    ///
    /// Panics if `vertices` contains duplicates or out-of-range indices.
    pub fn induced_subgraph(&self, vertices: &[usize]) -> (Graph, Vec<usize>) {
        // Callers like the per-cluster gathers induce one small cluster at a
        // time; a dense index would cost O(n) per call — O(n·k) per
        // decomposition iteration — so small vertex sets go through a hash
        // map instead. Both paths visit the same edges in the same order.
        if vertices.len().saturating_mul(8) < self.n() {
            let mut new_index: std::collections::HashMap<usize, usize> =
                std::collections::HashMap::with_capacity(vertices.len());
            for (i, &v) in vertices.iter().enumerate() {
                assert!(v < self.n(), "vertex out of range");
                assert!(
                    new_index.insert(v, i).is_none(),
                    "duplicate vertex in induced_subgraph"
                );
            }
            let mut sub = Graph::new(vertices.len());
            for (i, &v) in vertices.iter().enumerate() {
                for &w in &self.adj[v] {
                    if let Some(&j) = new_index.get(&w) {
                        if i < j {
                            sub.add_edge(i, j);
                        }
                    }
                }
            }
            return (sub, vertices.to_vec());
        }
        let mut new_index = vec![usize::MAX; self.n()];
        for (i, &v) in vertices.iter().enumerate() {
            assert!(v < self.n(), "vertex out of range");
            assert!(
                new_index[v] == usize::MAX,
                "duplicate vertex in induced_subgraph"
            );
            new_index[v] = i;
        }
        let mut sub = Graph::new(vertices.len());
        for (i, &v) in vertices.iter().enumerate() {
            for &w in &self.adj[v] {
                let j = new_index[w];
                if j != usize::MAX && i < j {
                    sub.add_edge(i, j);
                }
            }
        }
        (sub, vertices.to_vec())
    }

    /// Quotient (cluster) graph for a partition of the vertex set.
    ///
    /// `cluster_of[v]` gives the cluster index of vertex `v`; cluster indices must be
    /// `0..k` for some `k`. The result has one vertex per cluster and an edge between
    /// two clusters weighted by the number of original edges crossing them.
    pub fn quotient(&self, cluster_of: &[usize]) -> WeightedGraph {
        assert_eq!(cluster_of.len(), self.n());
        let k = cluster_of.iter().copied().max().map_or(0, |x| x + 1);
        let mut wg = WeightedGraph::new(k);
        for (u, v) in self.edges() {
            let (cu, cv) = (cluster_of[u], cluster_of[v]);
            if cu != cv {
                wg.add_weight(cu, cv, 1);
            }
        }
        wg
    }

    /// Number of inter-cluster edges for a partition (edges whose endpoints lie in
    /// different clusters).
    pub fn inter_cluster_edges(&self, cluster_of: &[usize]) -> usize {
        assert_eq!(cluster_of.len(), self.n());
        self.edges()
            .filter(|&(u, v)| cluster_of[u] != cluster_of[v])
            .count()
    }

    /// Disjoint union of two graphs; vertices of `other` are shifted by `self.n()`.
    pub fn disjoint_union(&self, other: &Graph) -> Graph {
        let offset = self.n();
        let mut g = Graph::new(self.n() + other.n());
        for (u, v) in self.edges() {
            g.add_edge(u, v);
        }
        for (u, v) in other.edges() {
            g.add_edge(u + offset, v + offset);
        }
        g
    }

    /// Returns a copy of the graph with every edge subdivided into a path of
    /// `segments` edges (`segments == 1` returns a copy). Used to build the
    /// lower-bound families of Theorem 6.2.
    pub fn subdivide(&self, segments: usize) -> Graph {
        assert!(segments >= 1);
        if segments == 1 {
            return self.clone();
        }
        let extra_per_edge = segments - 1;
        let mut g = Graph::new(self.n() + self.m() * extra_per_edge);
        let mut next = self.n();
        for (u, v) in self.edges() {
            let mut prev = u;
            for _ in 0..extra_per_edge {
                g.add_edge(prev, next);
                prev = next;
                next += 1;
            }
            g.add_edge(prev, v);
        }
        g
    }

    /// Checks whether `cluster_of` is a valid partition labelling: indices in range
    /// `0..k` with every label in `0..k` used at least once.
    pub fn is_valid_partition(&self, cluster_of: &[usize]) -> bool {
        if cluster_of.len() != self.n() {
            return false;
        }
        if self.n() == 0 {
            return true;
        }
        let k = match cluster_of.iter().copied().max() {
            Some(x) => x + 1,
            None => return true,
        };
        let mut seen = vec![false; k];
        for &c in cluster_of {
            seen[c] = true;
        }
        seen.into_iter().all(|b| b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn add_edge_rejects_duplicates_and_loops() {
        let mut g = Graph::new(3);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0));
        assert!(!g.add_edge(2, 2));
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn degrees_and_edges() {
        let g = path4();
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 1);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn bfs_and_diameter() {
        let g = path4();
        assert_eq!(g.bfs_distances(0), vec![0, 1, 2, 3]);
        assert_eq!(g.diameter(), Some(3));
        assert_eq!(g.eccentricity(1), Some(2));
    }

    #[test]
    fn disconnected_graph_has_no_diameter() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(g.diameter(), None);
        assert!(!g.is_connected());
        let (comp, count) = g.connected_components();
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[1]);
        assert_ne!(comp[0], comp[2]);
    }

    #[test]
    fn volume_cut_conductance() {
        // Square: 0-1-2-3-0
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mask = vec![true, true, false, false];
        assert_eq!(g.volume(&mask), 4);
        assert_eq!(g.cut_size(&mask), 2);
        assert_eq!(g.internal_edges(&mask), 1);
        assert!((g.conductance_of_cut(&mask) - 0.5).abs() < 1e-12);
        assert!((g.sparsity_of_cut(&mask) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn conductance_of_trivial_cut_is_infinite() {
        let g = path4();
        let mask = vec![false; 4];
        assert!(g.conductance_of_cut(&mask).is_infinite());
    }

    #[test]
    fn induced_subgraph_relabels() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let (sub, map) = g.induced_subgraph(&[1, 2, 3]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 2);
        assert_eq!(map, vec![1, 2, 3]);
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(1, 2));
        assert!(!sub.has_edge(0, 2));
    }

    #[test]
    fn quotient_counts_crossing_edges() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]);
        let clusters = vec![0, 0, 0, 1, 1, 1];
        let q = g.quotient(&clusters);
        assert_eq!(q.n(), 2);
        assert_eq!(q.weight(0, 1), 3);
        assert_eq!(g.inter_cluster_edges(&clusters), 3);
    }

    #[test]
    fn induced_diameter_respects_mask() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let mask = vec![true, true, true, false, false];
        assert_eq!(g.induced_diameter(&mask), Some(2));
        let disconnected = vec![true, false, true, false, false];
        assert_eq!(g.induced_diameter(&disconnected), None);
    }

    #[test]
    fn subdivision_sizes() {
        let g = path4();
        let s = g.subdivide(3);
        assert_eq!(s.n(), 4 + 3 * 2);
        assert_eq!(s.m(), 3 * 3);
        assert!(s.is_connected());
        assert_eq!(s.diameter(), Some(9));
    }

    #[test]
    fn disjoint_union_counts() {
        let g = path4().disjoint_union(&path4());
        assert_eq!(g.n(), 8);
        assert_eq!(g.m(), 6);
        assert!(!g.is_connected());
    }

    #[test]
    fn partition_validation() {
        let g = path4();
        assert!(g.is_valid_partition(&[0, 0, 1, 1]));
        assert!(!g.is_valid_partition(&[0, 0, 2, 2]));
        assert!(!g.is_valid_partition(&[0, 1]));
    }
}
