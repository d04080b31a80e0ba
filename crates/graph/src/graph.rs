//! The one graph type: a simple undirected graph in compressed sparse row
//! form, and the structural queries every layer asks of it.

use std::collections::VecDeque;

use crate::weighted::WeightedGraph;

/// A simple undirected graph on vertices `0..n`, immutable once built.
///
/// All neighbour lists live in one `targets` array, indexed by an `offsets`
/// array of length `n + 1`; each vertex's row is **sorted and deduplicated**.
/// Sorted rows give the engines O(log deg) edge checks and their
/// increasing-sender inbox order for free, and they make the graph a pure
/// function of its edge set: two graphs with the same edges are equal,
/// whatever order the edges were given in. Vertices are addressed by `usize`
/// indices; vertex identifiers and indices coincide (the CONGEST engines
/// assign distinct O(log n)-bit identifiers on top of them).
///
/// A graph is built by [`Graph::new`] (no edges) or [`Graph::from_edges`];
/// code that grows a graph collects its edges first.
///
/// # Example
///
/// ```
/// use mfd_graph::Graph;
///
/// let g = Graph::from_edges(4, [(0, 1), (2, 1), (2, 3), (1, 2), (3, 3)]);
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 3); // the duplicate (1, 2) and the loop (3, 3) were dropped
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert!(g.has_edge(2, 3) && !g.has_edge(0, 3));
/// assert!(g.is_connected());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `targets`; length `n + 1`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbour rows; length `2m`.
    targets: Vec<usize>,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new(0)
    }
}

impl Graph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Builds a graph with `n` vertices from an edge list. Self-loops and
    /// duplicate edges (in either orientation) are dropped.
    ///
    /// The build draws the edges once, keeping each non-loop edge as one
    /// `(u32, u32)` pair in a scratch list (m × 8 bytes, the only transient
    /// the size of the graph). Two passes over that list count the degrees
    /// and then place both arcs of every edge, filling each row from its end;
    /// the list is dropped and each row is sorted and compacted in place.
    ///
    /// # Panics
    ///
    /// Panics if `n > 2³²` (checked before anything is allocated), or if an
    /// endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        assert!(n as u64 <= 1 << 32, "a graph has at most 2^32 vertices");
        let edges = edges.into_iter();
        let mut list: Vec<(u32, u32)> = Vec::with_capacity(edges.size_hint().0);
        // `for_each`, not `for`: internal iteration lets a nested `flat_map`
        // (`gen::mesh`) run as plain loops; driven by `next`, it made the
        // whole build 1.6× slower.
        edges.for_each(|(u, v)| {
            assert!(u < n && v < n, "edge endpoint out of range");
            if u != v {
                list.push((u as u32, v as u32));
            }
        });
        // Inclusive prefix sums of the degrees: `offsets[v]` starts as the
        // end of row `v` and is decremented once per arc placed, so it ends
        // as the row's start, with `offsets[n]` the total.
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &list {
            offsets[u as usize] += 1;
            offsets[v as usize] += 1;
        }
        let mut sum = 0;
        for offset in &mut offsets {
            sum += *offset;
            *offset = sum;
        }
        let mut targets = vec![0usize; 2 * list.len()];
        // Back to front, so each row ends up in arrival order: a generator
        // that emits every row in increasing order leaves nothing to sort.
        for &(u, v) in list.iter().rev() {
            let (u, v) = (u as usize, v as usize);
            offsets[u] -= 1;
            targets[offsets[u]] = v;
            offsets[v] -= 1;
            targets[offsets[v]] = u;
        }
        drop(list);
        // Sort each row, then compact duplicates in place. `write` trails the
        // read cursor, so compaction is a single O(2m) sweep.
        let mut write = 0usize;
        for v in 0..n {
            let (start, end) = (offsets[v], offsets[v + 1]);
            targets[start..end].sort_unstable();
            offsets[v] = write;
            for read in start..end {
                if read == start || targets[read] != targets[read - 1] {
                    targets[write] = targets[read];
                    write += 1;
                }
            }
        }
        offsets[n] = write;
        targets.truncate(write);
        Graph { offsets, targets }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.targets.len() / 2
    }

    /// Returns `true` if the edge `{u, v}` is present (O(log deg u)).
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.n() && v < self.n() && self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree Δ of the graph (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Neighbours of vertex `v`, in increasing order.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The offsets array (length `n + 1`): row `v` of the flat neighbour
    /// array spans `offsets[v]..offsets[v + 1]`.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Iterator over all vertices `0..n`.
    pub fn vertices(&self) -> std::ops::Range<usize> {
        0..self.n()
    }

    /// Iterator over all edges, each reported once as `(u, v)` with `u < v`,
    /// in increasing order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| u < v)
                .map(move |&v| (u, v))
        })
    }

    /// Exists only for `perf/`, which converts with it; the graph is its own
    /// conversion now, so this is a clone. The next benchmark-only change
    /// deletes it.
    pub fn to_graph(&self) -> Graph {
        self.clone()
    }

    /// Volume of a vertex set: the sum of degrees (in the whole graph) of vertices
    /// where `mask[v]` is true.
    pub(crate) fn volume(&self, mask: &[bool]) -> usize {
        mask.iter()
            .enumerate()
            .filter(|&(_, &inside)| inside)
            .map(|(v, _)| self.degree(v))
            .sum()
    }

    /// Volume of the whole graph, `2m`.
    pub(crate) fn total_volume(&self) -> usize {
        self.targets.len()
    }

    /// Number of edges with exactly one endpoint in the masked set, `|∂(S)|`.
    pub(crate) fn cut_size(&self, mask: &[bool]) -> usize {
        self.edges().filter(|&(u, v)| mask[u] != mask[v]).count()
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

    /// BFS distances from `src`; unreachable vertices get `usize::MAX`.
    pub fn bfs_distances(&self, src: usize) -> Vec<usize> {
        self.bfs_distances_within(src, &vec![true; self.n()])
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
            for &v in self.neighbors(u) {
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
    pub(crate) fn eccentricity(&self, src: usize) -> Option<usize> {
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
            best = best.max(self.eccentricity(v)?);
        }
        Some(best)
    }

    /// Diameter of the subgraph induced by the masked vertices (`usize::MAX` distances
    /// within the mask mean the induced subgraph is disconnected, in which case `None`
    /// is returned). An empty mask yields `Some(0)`.
    pub fn induced_diameter(&self, mask: &[bool]) -> Option<usize> {
        let members: Vec<usize> = self.vertices().filter(|&v| mask[v]).collect();
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
    pub(crate) fn connected_components(&self) -> (Vec<usize>, usize) {
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
                for &v in self.neighbors(u) {
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
        // Members sorted with their positions, searched once per neighbour:
        // one small cluster of a large graph costs O(vol · log k), never O(n).
        let mut position: Vec<(usize, usize)> = vertices.iter().copied().zip(0..).collect();
        position.sort_unstable();
        if let Some(&(last, _)) = position.last() {
            assert!(last < self.n(), "vertex out of range");
        }
        for pair in position.windows(2) {
            assert!(
                pair[0].0 != pair[1].0,
                "duplicate vertex in induced_subgraph"
            );
        }
        let new_index = |w: usize| {
            let i = position.binary_search_by_key(&w, |&(v, _)| v).ok()?;
            Some(position[i].1)
        };
        let mut offsets = Vec::with_capacity(vertices.len() + 1);
        offsets.push(0);
        let mut targets = Vec::new();
        for &v in vertices {
            let row_start = targets.len();
            targets.extend(self.neighbors(v).iter().filter_map(|&w| new_index(w)));
            // Member order is arbitrary, so each row is re-sorted.
            targets[row_start..].sort_unstable();
            offsets.push(targets.len());
        }
        (Graph { offsets, targets }, vertices.to_vec())
    }

    /// Quotient (cluster) graph for a partition of the vertex set.
    ///
    /// `cluster_of[v]` gives the cluster index of vertex `v`; cluster indices must be
    /// `0..k` for some `k`. The result has one vertex per cluster and an edge between
    /// two clusters weighted by the number of original edges crossing them.
    pub fn quotient(&self, cluster_of: &[usize]) -> WeightedGraph {
        assert_eq!(cluster_of.len(), self.n());
        let k = cluster_of.iter().copied().max().map_or(0, |x| x + 1);
        // An edge inside one cluster is a loop of the quotient, which the
        // build drops.
        let crossing = self.edges().map(|(u, v)| (cluster_of[u], cluster_of[v], 1));
        WeightedGraph::from_edges(k, crossing)
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
        let (shift, arcs) = (self.n(), self.targets.len());
        let mut offsets = self.offsets.clone();
        offsets.extend(other.offsets[1..].iter().map(|&o| o + arcs));
        let mut targets = self.targets.clone();
        targets.extend(other.targets.iter().map(|&t| t + shift));
        Graph { offsets, targets }
    }

    /// Returns a copy of the graph with every edge subdivided into a path of
    /// `segments` edges (`segments == 1` returns a copy); the new vertices
    /// are numbered from `n` up, edge by edge in [`Graph::edges`] order. Used
    /// to build the lower-bound families of Theorem 6.2.
    pub fn subdivide(&self, segments: usize) -> Graph {
        assert!(segments >= 1);
        let extra_per_edge = segments - 1;
        let mut edges = Vec::with_capacity(self.m() * segments);
        let mut next = self.n();
        for (u, v) in self.edges() {
            let mut prev = u;
            for _ in 0..extra_per_edge {
                edges.push((prev, next));
                prev = next;
                next += 1;
            }
            edges.push((prev, v));
        }
        Graph::from_edges(next, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn path4() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn from_edges_drops_loops_and_duplicates() {
        let g = Graph::from_edges(5, [(0, 1), (1, 0), (2, 2), (3, 4), (3, 4), (4, 3)]);
        assert_eq!(g.m(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(2), &[] as &[usize]);
        assert_eq!(g.neighbors(3), &[4]);
        assert!(!g.has_edge(2, 2));
        // The edge order does not matter: the rows are sorted either way.
        assert_eq!(g, Graph::from_edges(5, [(4, 3), (1, 0)]));
    }

    #[test]
    #[should_panic(expected = "edge endpoint out of range")]
    fn out_of_range_endpoint_panics() {
        Graph::from_edges(2, [(0, 2)]);
    }

    #[test]
    fn from_edges_builds_empty_and_loop_only_graphs_edgeless() {
        let empty = Graph::from_edges(0, []);
        assert_eq!((empty.n(), empty.m()), (0, 0));
        assert_eq!(empty.offsets(), &[0]);
        assert_eq!(empty, Graph::new(0));
        let loops = Graph::from_edges(3, [(0, 0), (2, 2), (1, 1), (2, 2)]);
        assert_eq!(loops, Graph::new(3));
    }

    #[test]
    fn from_edges_sorts_a_hub_row_and_keeps_a_trailing_isolated_vertex() {
        // Vertex 0's arcs arrive out of order and from both ends, one twice;
        // vertex 6 has no edge at all.
        let g = Graph::from_edges(7, [(0, 4), (2, 0), (0, 5), (1, 0), (3, 0), (0, 2), (4, 5)]);
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4, 5]);
        assert_eq!(g.neighbors(4), &[0, 5]);
        assert_eq!(g.neighbors(6), &[] as &[usize]);
        assert_eq!(g.offsets(), &[0, 5, 6, 7, 8, 10, 12, 12]);
        assert_eq!(g.m(), 6);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "a graph has at most 2^32 vertices")]
    fn more_than_two_to_the_thirty_two_vertices_panics_before_allocating() {
        // The offsets alone would be 32 GiB: the check must come first.
        Graph::from_edges((1 << 32) + 1, []);
    }

    #[test]
    fn degrees_and_edges() {
        let g = path4();
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
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
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
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
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mask = vec![true, true, false, false];
        assert_eq!(g.volume(&mask), 4);
        assert_eq!(g.cut_size(&mask), 2);
        assert!((g.conductance_of_cut(&mask) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn conductance_of_trivial_cut_is_infinite() {
        let g = path4();
        let mask = vec![false; 4];
        assert!(g.conductance_of_cut(&mask).is_infinite());
    }

    #[test]
    fn induced_subgraph_relabels() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let (sub, map) = g.induced_subgraph(&[1, 2, 3]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 2);
        assert_eq!(map, vec![1, 2, 3]);
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(1, 2));
        assert!(!sub.has_edge(0, 2));
    }

    #[test]
    fn induced_subgraph_follows_the_graph_numbering_contract() {
        let g = generators::triangulated_grid(6, 6);
        // Unsorted member lists, small and large against n, plus the empty
        // and the full set: vertex `i` of the
        // subgraph is `members[i]`, and its edges are exactly the ambient
        // edges between members.
        for members in [
            vec![14, 2, 8, 7],
            vec![35, 0, 1, 6, 7, 30, 29, 28, 22, 21, 3],
            vec![],
            g.vertices().rev().collect(),
        ] {
            let (sub, map) = g.induced_subgraph(&members);
            assert_eq!(map, members);
            let position = |v| members.iter().position(|&w| w == v);
            let expected = g
                .edges()
                .filter_map(|(u, v)| Some((position(u)?, position(v)?)));
            assert_eq!(sub, Graph::from_edges(members.len(), expected));
        }
    }

    // One lookup serves every size: a short list in a long path is refused
    // exactly as a list covering a short path is.
    #[test]
    #[should_panic(expected = "duplicate vertex in induced_subgraph")]
    fn induced_subgraph_rejects_duplicates_on_the_hash_path() {
        generators::path(64).induced_subgraph(&[3, 4, 3]);
    }

    #[test]
    #[should_panic(expected = "duplicate vertex in induced_subgraph")]
    fn induced_subgraph_rejects_duplicates_on_the_dense_path() {
        generators::path(4).induced_subgraph(&[1, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "vertex out of range")]
    fn induced_subgraph_rejects_out_of_range_vertices() {
        generators::path(4).induced_subgraph(&[1, 4]);
    }

    #[test]
    fn quotient_counts_crossing_edges() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]);
        let clusters = vec![0, 0, 0, 1, 1, 1];
        let q = g.quotient(&clusters);
        assert_eq!(q.n(), 2);
        assert_eq!(q.weight(0, 1), 3);
        assert_eq!(g.inter_cluster_edges(&clusters), 3);
    }

    #[test]
    fn induced_diameter_respects_mask() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
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
        assert_eq!(g.subdivide(1), g);
    }

    #[test]
    fn disjoint_union_counts() {
        let g = path4().disjoint_union(&path4());
        assert_eq!(g.n(), 8);
        assert_eq!(g.m(), 6);
        assert!(!g.is_connected());
        let p = path4();
        let shifted = p.edges().map(|(u, v)| (u + 4, v + 4));
        assert_eq!(g, Graph::from_edges(8, p.edges().chain(shifted)));
    }
}
