//! Exact planarity testing.
//!
//! Planarity is the flagship additive minor-closed property for the distributed
//! property tester (paper §6.2); cluster leaders must decide exactly whether the
//! gathered cluster subgraph is planar. We use the classical approach:
//!
//! 1. decompose the graph into biconnected components (planar iff every block is),
//! 2. test each block with Demoucron's face-embedding algorithm, which repeatedly
//!    embeds a path of an unembedded *bridge* into an admissible face; a graph is
//!    non-planar exactly when some bridge has no admissible face.
//!
//! Demoucron's algorithm is O(n·m) per embedded path and therefore roughly cubic in
//! the worst case, which is entirely adequate for the cluster sizes and test graphs
//! handled in this library (thousands of vertices).

use std::collections::{BTreeSet, VecDeque};

use crate::graph::Graph;

/// Partitions the edges of `g` into biconnected components (blocks).
///
/// Every edge appears in exactly one block; bridges form single-edge blocks.
/// Isolated vertices produce no block.
pub(crate) fn biconnected_components(g: &Graph) -> Vec<Vec<(usize, usize)>> {
    let n = g.n();
    let mut disc = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut timer = 0usize;
    let mut components = Vec::new();
    let mut edge_stack: Vec<(usize, usize)> = Vec::new();

    for start in 0..n {
        if disc[start] != usize::MAX || g.degree(start) == 0 {
            continue;
        }
        // Iterative DFS: (vertex, parent, next neighbor index).
        let mut stack: Vec<(usize, usize, usize)> = Vec::new();
        disc[start] = timer;
        low[start] = timer;
        timer += 1;
        stack.push((start, usize::MAX, 0));
        while let Some(frame) = stack.last_mut() {
            let (v, parent, idx) = (frame.0, frame.1, frame.2);
            if idx < g.degree(v) {
                frame.2 += 1;
                let u = g.neighbors(v)[idx];
                if disc[u] == usize::MAX {
                    edge_stack.push((v, u));
                    disc[u] = timer;
                    low[u] = timer;
                    timer += 1;
                    stack.push((u, v, 0));
                } else if u != parent && disc[u] < disc[v] {
                    // Back edge to an ancestor.
                    edge_stack.push((v, u));
                    low[v] = low[v].min(disc[u]);
                }
            } else {
                stack.pop();
                if let Some(parent_frame) = stack.last_mut() {
                    let p = parent_frame.0;
                    low[p] = low[p].min(low[v]);
                    if low[v] >= disc[p] {
                        // (p, v) closes a biconnected component.
                        let mut comp = Vec::new();
                        loop {
                            let e = edge_stack.pop().expect("edge stack underflow");
                            comp.push(e);
                            if e == (p, v) {
                                break;
                            }
                        }
                        components.push(comp);
                    }
                }
            }
        }
    }
    components
}

/// Returns `true` if `g` is planar.
///
/// # Example
///
/// ```
/// use mfd_graph::generators;
/// use mfd_graph::planarity::is_planar;
///
/// assert!(is_planar(&generators::grid(5, 5)));
/// assert!(!is_planar(&generators::complete(5)));
/// assert!(!is_planar(&generators::complete_bipartite(3, 3)));
/// ```
pub fn is_planar(g: &Graph) -> bool {
    let n = g.n();
    if n <= 4 {
        return true;
    }
    if g.m() > 3 * n - 6 {
        return false;
    }
    for block in biconnected_components(g) {
        if !block_is_planar(&block) {
            return false;
        }
    }
    true
}

/// Tests planarity of a single biconnected block, given as an edge list.
fn block_is_planar(block_edges: &[(usize, usize)]) -> bool {
    // Relabel the block's vertices to 0..k.
    let mut verts: Vec<usize> = block_edges.iter().flat_map(|&(u, v)| [u, v]).collect();
    verts.sort_unstable();
    verts.dedup();
    let index_of = |v: usize| verts.binary_search(&v).unwrap();
    let n = verts.len();
    let m = block_edges.len();
    if n <= 4 {
        return true;
    }
    // A biconnected graph with m <= n is a cycle (or a single edge): planar.
    if m <= n {
        return true;
    }
    if m > 3 * n - 6 {
        return false;
    }
    let g = Graph::from_edges(
        n,
        block_edges.iter().map(|&(u, v)| (index_of(u), index_of(v))),
    );
    demoucron(&g)
}

/// Demoucron's planarity algorithm on a biconnected graph with `m > n > 4`.
fn demoucron(g: &Graph) -> bool {
    let n = g.n();
    let m = g.m();

    // --- Find an initial cycle via DFS. ---
    let cycle = find_cycle(g).expect("biconnected graph with m > n must contain a cycle");

    let mut embedded_vertex = vec![false; n];
    let mut embedded_edge: BTreeSet<(usize, usize)> = BTreeSet::new();
    let norm = |u: usize, v: usize| if u < v { (u, v) } else { (v, u) };
    for &v in &cycle {
        embedded_vertex[v] = true;
    }
    for i in 0..cycle.len() {
        let u = cycle[i];
        let v = cycle[(i + 1) % cycle.len()];
        embedded_edge.insert(norm(u, v));
    }
    // Two faces, both bounded by the initial cycle.
    let mut faces: Vec<Vec<usize>> = vec![cycle.clone(), cycle.iter().rev().copied().collect()];

    while embedded_edge.len() < m {
        // --- Compute bridges. ---
        let bridges = compute_bridges(g, &embedded_vertex, &embedded_edge);
        if bridges.is_empty() {
            // No bridges but not all edges embedded: cannot happen on connected input.
            return false;
        }

        // --- Admissible faces per bridge. ---
        let face_sets: Vec<BTreeSet<usize>> =
            faces.iter().map(|f| f.iter().copied().collect()).collect();
        let mut chosen: Option<(usize, usize)> = None; // (bridge index, face index)
        let mut fallback: Option<(usize, usize)> = None;
        for (bi, bridge) in bridges.iter().enumerate() {
            let admissible: Vec<usize> = face_sets
                .iter()
                .enumerate()
                .filter(|(_, fs)| bridge.attachments.iter().all(|a| fs.contains(a)))
                .map(|(fi, _)| fi)
                .collect();
            if admissible.is_empty() {
                return false;
            }
            if admissible.len() == 1 && chosen.is_none() {
                chosen = Some((bi, admissible[0]));
            }
            if fallback.is_none() {
                fallback = Some((bi, admissible[0]));
            }
        }
        let (bi, fi) = chosen.or(fallback).expect("at least one bridge exists");
        let bridge = &bridges[bi];

        // --- Find a path through the bridge between two distinct attachments. ---
        let path = bridge_path(g, bridge, &embedded_vertex);

        // --- Embed the path, splitting face `fi`. ---
        for w in path.iter().skip(1).take(path.len().saturating_sub(2)) {
            embedded_vertex[*w] = true;
        }
        for pair in path.windows(2) {
            embedded_edge.insert(norm(pair[0], pair[1]));
        }
        let face = faces.swap_remove(fi);
        let a = path[0];
        let b = *path.last().unwrap();
        let pos_a = face.iter().position(|&x| x == a).expect("endpoint on face");
        let pos_b = face.iter().position(|&x| x == b).expect("endpoint on face");
        let arc = |from: usize, to: usize| -> Vec<usize> {
            // Vertices of `face` from index `from` to index `to`, inclusive, cyclically.
            let mut out = Vec::new();
            let len = face.len();
            let mut i = from;
            loop {
                out.push(face[i]);
                if i == to {
                    break;
                }
                i = (i + 1) % len;
            }
            out
        };
        let interior: Vec<usize> = path[1..path.len() - 1].to_vec();
        // Face 1: a -> ... -> b along the old boundary, then back b -> ... -> a
        // through the new path.
        let mut face1 = arc(pos_a, pos_b);
        face1.extend(interior.iter().rev().copied());
        // Face 2: b -> ... -> a along the old boundary, then a -> ... -> b through
        // the new path.
        let mut face2 = arc(pos_b, pos_a);
        face2.extend(interior.iter().copied());
        faces.push(face1);
        faces.push(face2);
    }
    true
}

/// A bridge (fragment) relative to the embedded subgraph.
struct Bridge {
    /// Embedded vertices this bridge attaches to (≥ 2 in a biconnected graph).
    attachments: Vec<usize>,
    /// Non-embedded vertices of the bridge (empty for a chord bridge).
    component: Vec<usize>,
    /// For chord bridges: the single unembedded edge.
    chord: Option<(usize, usize)>,
}

fn compute_bridges(
    g: &Graph,
    embedded_vertex: &[bool],
    embedded_edge: &BTreeSet<(usize, usize)>,
) -> Vec<Bridge> {
    let n = g.n();
    let norm = |u: usize, v: usize| if u < v { (u, v) } else { (v, u) };
    let mut bridges = Vec::new();

    // Chord bridges: unembedded edges between two embedded vertices.
    for (u, v) in g.edges() {
        if embedded_vertex[u] && embedded_vertex[v] && !embedded_edge.contains(&norm(u, v)) {
            bridges.push(Bridge {
                attachments: vec![u, v],
                component: Vec::new(),
                chord: Some((u, v)),
            });
        }
    }

    // Component bridges: connected components of non-embedded vertices.
    let mut comp_id = vec![usize::MAX; n];
    let mut num_comps = 0usize;
    for s in 0..n {
        if embedded_vertex[s] || comp_id[s] != usize::MAX {
            continue;
        }
        let id = num_comps;
        num_comps += 1;
        comp_id[s] = id;
        let mut queue = VecDeque::new();
        queue.push_back(s);
        while let Some(x) = queue.pop_front() {
            for &y in g.neighbors(x) {
                if !embedded_vertex[y] && comp_id[y] == usize::MAX {
                    comp_id[y] = id;
                    queue.push_back(y);
                }
            }
        }
    }
    let mut comp_vertices: Vec<Vec<usize>> = vec![Vec::new(); num_comps];
    let mut comp_attach: Vec<Vec<usize>> = vec![Vec::new(); num_comps];
    for v in 0..n {
        if comp_id[v] != usize::MAX {
            comp_vertices[comp_id[v]].push(v);
            for &u in g.neighbors(v) {
                if embedded_vertex[u] {
                    comp_attach[comp_id[v]].push(u);
                }
            }
        }
    }
    for (mut attachments, component) in comp_attach.into_iter().zip(comp_vertices) {
        attachments.sort_unstable();
        attachments.dedup();
        bridges.push(Bridge {
            attachments,
            component,
            chord: None,
        });
    }
    bridges
}

/// Finds a path through `bridge` between two distinct attachment vertices; all
/// interior vertices are non-embedded vertices of the bridge.
fn bridge_path(g: &Graph, bridge: &Bridge, embedded_vertex: &[bool]) -> Vec<usize> {
    if let Some((u, v)) = bridge.chord {
        return vec![u, v];
    }
    let a = bridge.attachments[0];
    // `component` lists its vertices in increasing order.
    let in_component = |x: usize| bridge.component.binary_search(&x).is_ok();
    // BFS from `a`, first step into the component, then within the component, until a
    // component vertex with an embedded neighbor different from `a` is found.
    let mut parent = vec![usize::MAX; g.n()];
    let mut queue = VecDeque::new();
    for &x in g.neighbors(a) {
        if in_component(x) && parent[x] == usize::MAX {
            parent[x] = a;
            queue.push_back(x);
        }
    }
    while let Some(x) = queue.pop_front() {
        // Does x reach another attachment?
        for &y in g.neighbors(x) {
            if embedded_vertex[y] && y != a {
                // Reconstruct path a .. x, then append y.
                let mut path = vec![y, x];
                let mut cur = x;
                while cur != a {
                    cur = parent[cur];
                    path.push(cur);
                }
                path.reverse();
                return path;
            }
        }
        for &y in g.neighbors(x) {
            if in_component(y) && parent[y] == usize::MAX {
                parent[y] = x;
                queue.push_back(y);
            }
        }
    }
    unreachable!("biconnected graph: every bridge connects at least two attachments");
}

/// Finds any cycle in `g` (as a vertex sequence without repeating the first vertex),
/// or `None` if the graph is a forest.
fn find_cycle(g: &Graph) -> Option<Vec<usize>> {
    let n = g.n();
    let mut parent = vec![usize::MAX; n];
    let mut visited = vec![false; n];
    for start in 0..n {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        let mut stack = vec![(start, usize::MAX, 0usize)];
        while let Some(frame) = stack.last_mut() {
            let (v, par, idx) = (frame.0, frame.1, frame.2);
            if idx < g.degree(v) {
                frame.2 += 1;
                let u = g.neighbors(v)[idx];
                if u == par {
                    continue;
                }
                if visited[u] {
                    // Found a cycle: u is an ancestor of v on the DFS stack (if not,
                    // it is a cross edge to an already-finished vertex; walking the
                    // parent chain still detects ancestorship).
                    let mut chain = vec![v];
                    let mut cur = v;
                    while cur != u && parent[cur] != usize::MAX {
                        cur = parent[cur];
                        chain.push(cur);
                    }
                    if cur == u {
                        return Some(chain);
                    }
                    continue;
                }
                visited[u] = true;
                parent[u] = v;
                stack.push((u, v, 0));
            } else {
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn small_graphs_are_planar() {
        assert!(is_planar(&Graph::new(0)));
        assert!(is_planar(&Graph::new(3)));
        assert!(is_planar(&generators::complete(4)));
    }

    #[test]
    fn known_planar_families() {
        assert!(is_planar(&generators::path(50)));
        assert!(is_planar(&generators::cycle(50)));
        assert!(is_planar(&generators::random_tree(100, 3)));
        assert!(is_planar(&generators::grid(8, 9)));
        assert!(is_planar(&generators::triangulated_grid(7, 7)));
        assert!(is_planar(&generators::wheel(30)));
        assert!(is_planar(&generators::apex(&generators::path(24))));
        assert!(is_planar(&generators::random_outerplanar(40, 2)));
        assert!(is_planar(&generators::random_apollonian(80, 11)));
        assert!(is_planar(&generators::hypercube(3)));
        assert!(is_planar(&generators::complete_bipartite(2, 10)));
        assert!(is_planar(&generators::random_series_parallel(60, 0.6, 5)));
    }

    #[test]
    fn known_nonplanar_graphs() {
        assert!(!is_planar(&generators::complete(5)));
        assert!(!is_planar(&generators::complete(6)));
        assert!(!is_planar(&generators::complete_bipartite(3, 3)));
        assert!(!is_planar(&generators::complete_bipartite(3, 4)));
        assert!(!is_planar(&generators::hypercube(4)));
        assert!(!is_planar(&generators::torus_grid(4, 4)));
        assert!(!is_planar(&generators::petersen()));
    }

    #[test]
    fn subdivisions_preserve_planarity_status() {
        assert!(!is_planar(&generators::complete(5).subdivide(3)));
        assert!(!is_planar(
            &generators::complete_bipartite(3, 3).subdivide(2)
        ));
        assert!(is_planar(
            &generators::random_apollonian(40, 2).subdivide(2)
        ));
    }

    #[test]
    fn disjoint_unions_of_planar_graphs_are_planar() {
        let g = generators::grid(5, 5).disjoint_union(&generators::random_apollonian(30, 7));
        assert!(is_planar(&g));
        let bad = g.disjoint_union(&generators::complete(5));
        assert!(!is_planar(&bad));
    }

    #[test]
    fn planar_plus_one_crossing_edge_pair_detected() {
        // K5 minus an edge is planar; adding it back is not.
        let k5 = generators::complete(5);
        let g = Graph::from_edges(5, k5.edges().filter(|&e| e != (0, 1)));
        assert!(is_planar(&g));
    }

    #[test]
    fn biconnected_components_partition_edges() {
        for g in [
            generators::grid(5, 5),
            generators::random_tree(60, 5),
            generators::random_apollonian(50, 1),
        ] {
            let blocks = biconnected_components(&g);
            let total: usize = blocks.iter().map(Vec::len).sum();
            assert_eq!(total, g.m());
            // Every edge appears exactly once across blocks.
            let mut seen = BTreeSet::new();
            for block in &blocks {
                for &(u, v) in block {
                    let key = if u < v { (u, v) } else { (v, u) };
                    assert!(seen.insert(key), "edge {:?} in two blocks", key);
                }
            }
        }
    }

    #[test]
    fn tree_blocks_are_single_edges() {
        let g = generators::random_tree(40, 9);
        let blocks = biconnected_components(&g);
        assert_eq!(blocks.len(), g.m());
        assert!(blocks.iter().all(|b| b.len() == 1));
    }

    #[test]
    fn cycle_is_one_block() {
        let blocks = biconnected_components(&generators::cycle(10));
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].len(), 10);
    }

    #[test]
    fn planarity_of_dense_planar_triangulations_with_chords() {
        // Adding a handful of random chords to a maximal planar graph is almost
        // certainly non-planar (any added edge violates the 3n-6 bound).
        let base = generators::random_apollonian(60, 21);
        let g = generators::with_random_chords(&base, 5, 3);
        assert!(!is_planar(&g));
    }
}
