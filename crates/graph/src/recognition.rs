//! Recognizers for additive, minor-closed graph properties.
//!
//! The distributed property tester (paper §6.2, Corollary 6.6) works for any graph
//! property that is additive (closed under disjoint union) and minor-closed. The
//! cluster leaders need an exact membership oracle for the induced cluster subgraphs;
//! this module provides such oracles for several classic properties:
//!
//! * forests (acyclic graphs),
//! * linear forests (disjoint unions of paths),
//! * cactus graphs (every edge on at most one cycle),
//! * graphs of treewidth ≤ 2 (series–parallel-reducible graphs),
//! * planar graphs (see [`crate::planarity`]).
//!
//! All of these are additive and minor-closed.

use crate::graph::Graph;
use crate::planarity::biconnected_components;

/// Returns `true` if the graph is a forest (contains no cycle).
pub fn is_forest(g: &Graph) -> bool {
    let (_, components) = g.connected_components();
    // A forest with `c` components has exactly n - c edges; any extra edge closes a
    // cycle.
    g.m() + components == g.n()
}

/// Returns `true` if the graph is a linear forest: a disjoint union of simple paths
/// (equivalently, a forest with maximum degree ≤ 2).
pub fn is_linear_forest(g: &Graph) -> bool {
    g.max_degree() <= 2 && is_forest(g)
}

/// Returns `true` if the graph is a cactus: every edge lies on at most one cycle
/// (equivalently, every biconnected component is a single edge or a cycle).
pub fn is_cactus(g: &Graph) -> bool {
    for component in biconnected_components(g) {
        if component.len() <= 1 {
            continue;
        }
        // Count distinct vertices in this block; a block that is a cycle has exactly
        // as many edges as vertices.
        let mut verts: Vec<usize> = component.iter().flat_map(|&(u, v)| [u, v]).collect();
        verts.sort_unstable();
        verts.dedup();
        if component.len() != verts.len() {
            return false;
        }
    }
    true
}

/// Returns `true` if the graph has treewidth at most 2 (equivalently, it contains no
/// K4 minor; equivalently, every biconnected component is series–parallel).
///
/// Uses the classic reduction: repeatedly delete vertices of degree ≤ 1 and bypass
/// vertices of degree 2 (connecting their two neighbors); the graph has treewidth
/// ≤ 2 iff this reduces it to the empty graph.
pub fn has_treewidth_at_most_2(g: &Graph) -> bool {
    let n = g.n();
    // Adjacency sets that we can mutate; parallel edges never help treewidth, so a
    // simple-graph reduction is sound.
    let mut adj: Vec<std::collections::BTreeSet<usize>> = (0..n)
        .map(|v| g.neighbors(v).iter().copied().collect())
        .collect();
    let mut alive = vec![true; n];
    let mut queue: std::collections::VecDeque<usize> = (0..n).collect();
    let mut remaining = n;
    while let Some(v) = queue.pop_front() {
        if !alive[v] {
            continue;
        }
        match adj[v].len() {
            0 | 1 => {
                // Delete v.
                alive[v] = false;
                remaining -= 1;
                let nbrs: Vec<usize> = adj[v].iter().copied().collect();
                adj[v].clear();
                for u in nbrs {
                    adj[u].remove(&v);
                    queue.push_back(u);
                }
            }
            2 => {
                let nbrs: Vec<usize> = adj[v].iter().copied().collect();
                let (a, b) = (nbrs[0], nbrs[1]);
                alive[v] = false;
                remaining -= 1;
                adj[v].clear();
                adj[a].remove(&v);
                adj[b].remove(&v);
                adj[a].insert(b);
                adj[b].insert(a);
                queue.push_back(a);
                queue.push_back(b);
            }
            _ => {}
        }
    }
    remaining == 0
}

/// Returns `true` if the graph is outerplanar.
///
/// Uses the classic characterization: G is outerplanar iff adding a new vertex
/// adjacent to every vertex of G yields a planar graph.
pub fn is_outerplanar(g: &Graph) -> bool {
    let augmented = crate::generators::apex(g);
    crate::planarity::is_planar(&augmented)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn forests_recognized() {
        assert!(is_forest(&generators::path(10)));
        assert!(is_forest(&generators::binary_tree(15)));
        assert!(is_forest(
            &generators::random_tree(40, 1).disjoint_union(&generators::path(5))
        ));
        assert!(!is_forest(&generators::cycle(5)));
        assert!(!is_forest(&generators::grid(3, 3)));
        assert!(is_forest(&Graph::new(7)));
    }

    #[test]
    fn linear_forests_recognized() {
        assert!(is_linear_forest(&generators::path(10)));
        assert!(is_linear_forest(
            &generators::path(4).disjoint_union(&generators::path(3))
        ));
        assert!(!is_linear_forest(&generators::star(5)));
        assert!(!is_linear_forest(&generators::cycle(5)));
    }

    #[test]
    fn cactus_recognized() {
        // A single cycle is a cactus.
        assert!(is_cactus(&generators::cycle(6)));
        // Two cycles sharing one vertex form a cactus.
        let g = generators::cycle(4);
        let two = g.disjoint_union(&g);
        // Joined by a bridge edge: still a cactus.
        assert!(is_cactus(&Graph::from_edges(
            8,
            two.edges().chain([(0, 4)])
        )));
        // Two cycles sharing an edge (theta graph) are not a cactus.
        let theta = Graph::from_edges(4, g.edges().chain([(0, 2)]));
        assert!(!is_cactus(&theta));
        // Trees are cacti.
        assert!(is_cactus(&generators::random_tree(30, 5)));
    }

    #[test]
    fn treewidth_two_families() {
        assert!(has_treewidth_at_most_2(&generators::path(10)));
        assert!(has_treewidth_at_most_2(&generators::cycle(10)));
        assert!(has_treewidth_at_most_2(&generators::random_outerplanar(
            20, 3
        )));
        assert!(has_treewidth_at_most_2(
            &generators::random_series_parallel(40, 0.7, 3)
        ));
        assert!(has_treewidth_at_most_2(&generators::k_tree(20, 2, 1)));
        assert!(!has_treewidth_at_most_2(&generators::complete(4)));
        assert!(!has_treewidth_at_most_2(&generators::grid(3, 3)));
        assert!(!has_treewidth_at_most_2(&generators::k_tree(20, 3, 1)));
    }

    #[test]
    fn outerplanar_families() {
        assert!(is_outerplanar(&generators::cycle(8)));
        assert!(is_outerplanar(&generators::random_outerplanar(15, 4)));
        assert!(is_outerplanar(&generators::fan(10)));
        assert!(!is_outerplanar(&generators::complete(4)));
        assert!(!is_outerplanar(&generators::complete_bipartite(2, 3)));
        assert!(!is_outerplanar(&generators::grid(3, 3)));
    }

    #[test]
    fn properties_are_additive_on_disjoint_unions() {
        let a = generators::random_outerplanar(12, 1);
        let b = generators::cycle(7);
        let u = a.disjoint_union(&b);
        assert!(has_treewidth_at_most_2(&u));
        assert!(is_cactus(
            &generators::cycle(4).disjoint_union(&generators::cycle(5))
        ));
    }
}
