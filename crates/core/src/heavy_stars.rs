//! The heavy-stars algorithm of Czygrinow, Hańćkowiak and Wawrzyniak (paper §4.1).
//!
//! Given a weighted cluster graph (clusters as vertices, weight of an edge = number
//! of original edges crossing the two clusters), the algorithm computes a set of
//! **vertex-disjoint stars** whose edges capture at least a `1/(8α)` fraction of the
//! total edge weight, where `α` is an arboricity upper bound for the cluster graph
//! (cluster graphs of minor-free graphs are minors of minor-free graphs, hence have
//! bounded arboricity).
//!
//! The four steps:
//!
//! 1. every cluster picks its heaviest incident edge (deterministic tie-breaking),
//!    orienting it; the picked edges form rooted trees;
//! 2. each tree is 3-coloured with Cole–Vishkin;
//! 3. colour-guided marking selects a subset of edges forming trees of depth ≤ 4;
//! 4. each shallow tree is split into stars by taking its odd or even levels,
//!    whichever is heavier.
//!
//! The returned [`HeavyStars`] also reports the number of cluster-graph rounds the
//! distributed implementation needs (step 1 is one round given that every cluster
//! already knows its incident weights — obtaining those is the information-gathering
//! task the paper solves in §2; steps 2–4 need O(log* n) + O(1) cluster-graph
//! rounds).

use mfd_graph::WeightedGraph;

use crate::cole_vishkin::color_rooted_forest;

/// A star in the cluster graph: a center and its leaves (all cluster indices).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Star {
    /// Center cluster of the star.
    pub center: usize,
    /// Leaf clusters (possibly empty for clusters that stay alone).
    pub leaves: Vec<usize>,
}

/// Output of the heavy-stars algorithm.
#[derive(Debug, Clone)]
pub struct HeavyStars {
    /// The selected vertex-disjoint stars. Every cluster appears in at most one star;
    /// clusters not covered by any star are not listed.
    pub stars: Vec<Star>,
    /// Total edge weight captured by the stars.
    pub captured_weight: u64,
    /// Total edge weight of the cluster graph.
    pub total_weight: u64,
    /// Number of cluster-graph rounds a distributed implementation needs for steps
    /// 2–4 (Cole–Vishkin iterations plus a constant).
    pub cluster_graph_rounds: u64,
}

/// Runs the heavy-stars algorithm on a weighted cluster graph.
pub(crate) fn heavy_stars(cluster_graph: &WeightedGraph) -> HeavyStars {
    let k = cluster_graph.n();
    let total_weight = cluster_graph.total_weight();
    if k == 0 || cluster_graph.edge_count() == 0 {
        return HeavyStars {
            stars: Vec::new(),
            captured_weight: 0,
            total_weight,
            cluster_graph_rounds: 0,
        };
    }

    // --- Step 1: each cluster picks its heaviest incident edge and orients it. ---
    // pick[u] = Some(v) means u chose the edge {u, v}.
    let pick: Vec<Option<usize>> = (0..k)
        .map(|u| cluster_graph.heaviest_neighbor(u).map(|(v, _)| v))
        .collect();
    // Orient: u -> pick[u]. If u and v picked each other, keep a single tree edge and
    // make the larger index the root of that pair (drop its outgoing edge).
    let mut parent: Vec<usize> = vec![usize::MAX; k];
    for u in 0..k {
        if let Some(v) = pick[u] {
            if pick[v] == Some(u) && u > v {
                // v keeps its edge towards u; u becomes the root of this tree.
                continue;
            }
            parent[u] = v;
        }
    }
    // The tie-breaking of `heaviest_neighbor` (weight, then smallest index) guarantees
    // that the oriented edges are acyclic except for mutual picks, which we just
    // broke; as a defensive measure, break any residual cycle at its largest vertex.
    break_cycles(&mut parent);

    // --- Step 2: 3-colour the rooted trees with Cole–Vishkin. ---
    let ids: Vec<u64> = (0..k as u64).collect();
    let coloring = color_rooted_forest(&parent, &ids);
    let color = &coloring.color;

    // --- Step 3: colour-guided marking. ---
    // in(u, C): edges from children of u whose colour lies in C (children point to u).
    // out(u, C): the edge to u's parent if the parent's colour lies in C.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); k];
    for u in 0..k {
        if parent[u] != usize::MAX {
            children[parent[u]].push(u);
        }
    }
    let weight_to_parent = |u: usize| -> u64 { cluster_graph.weight(u, parent[u]) };
    // marked[u] == the edge (u, parent[u]) is marked.
    let mut marked: Vec<bool> = vec![false; k];
    // Colours are 0-based: paper colour 1 ↔ 0, 2 ↔ 1, 3 ↔ 2. A colour-0 vertex
    // arbitrates its tree edges towards colours {1, 2}; a colour-1 vertex arbitrates
    // towards colour {2}; every tree edge is arbitrated exactly once.
    for u in 0..k {
        let my = color[u];
        let considered: &[u8] = match my {
            0 => &[1, 2],
            1 => &[2],
            _ => &[],
        };
        if considered.is_empty() {
            continue;
        }
        let in_edges: Vec<usize> = children[u]
            .iter()
            .copied()
            .filter(|&c| considered.contains(&color[c]))
            .collect();
        let in_weight: u64 = in_edges.iter().map(|&c| weight_to_parent(c)).sum();
        let out_weight: u64 = if parent[u] != usize::MAX && considered.contains(&color[parent[u]]) {
            weight_to_parent(u)
        } else {
            0
        };
        if in_weight >= out_weight {
            for &c in &in_edges {
                marked[c] = true;
            }
        } else if out_weight > 0 {
            marked[u] = true;
        }
    }

    // --- Step 4: split the (depth ≤ 4) marked trees into stars. ---
    // Build the marked forest.
    let mut marked_parent: Vec<usize> = vec![usize::MAX; k];
    for u in 0..k {
        if marked[u] {
            marked_parent[u] = parent[u];
        }
    }
    let stars = stars_from_shallow_forest(&marked_parent, |u, p| cluster_graph.weight(u, p));

    let captured_weight: u64 = stars
        .iter()
        .map(|s| {
            s.leaves
                .iter()
                .map(|&l| cluster_graph.weight(l, s.center))
                .sum::<u64>()
        })
        .sum();

    HeavyStars {
        stars,
        captured_weight,
        total_weight,
        cluster_graph_rounds: coloring.iterations + 4,
    }
}

/// Defensive cycle breaking for the oriented picks: walks each functional-graph
/// trajectory and removes one outgoing edge per directed cycle.
fn break_cycles(parent: &mut [usize]) {
    let k = parent.len();
    let mut state = vec![0u8; k]; // 0 = unvisited, 1 = on stack, 2 = done
    for start in 0..k {
        if state[start] != 0 {
            continue;
        }
        let mut path = Vec::new();
        let mut u = start;
        loop {
            if state[u] == 1 {
                // Found a cycle; cut it at the largest vertex on it.
                let pos = path.iter().position(|&x| x == u).unwrap();
                let cycle = &path[pos..];
                let cut = *cycle.iter().max().unwrap();
                parent[cut] = usize::MAX;
                break;
            }
            if state[u] == 2 {
                break;
            }
            state[u] = 1;
            path.push(u);
            let p = parent[u];
            if p == usize::MAX {
                break;
            }
            u = p;
        }
        for &v in &path {
            state[v] = 2;
        }
    }
}

/// Splits a forest of depth ≤ 4 into vertex-disjoint stars by taking, per tree,
/// either the odd-to-even or the even-to-odd level edges, whichever carries more
/// weight.
fn stars_from_shallow_forest<W: Fn(usize, usize) -> u64>(
    marked_parent: &[usize],
    weight: W,
) -> Vec<Star> {
    let k = marked_parent.len();
    // Compute roots and depths (forest depth is bounded, so a simple pointer chase is
    // fine).
    let mut depth = vec![0usize; k];
    let mut root = vec![0usize; k];
    for u in 0..k {
        let mut d = 0usize;
        let mut cur = u;
        while marked_parent[cur] != usize::MAX {
            cur = marked_parent[cur];
            d += 1;
            if d > k {
                break; // defensive: should never happen in a forest
            }
        }
        depth[u] = d;
        root[u] = cur;
    }
    // Per tree (indexed by root), weight of edges from odd depth to even depth
    // vs even to odd.
    let mut odd_w = vec![0u64; k];
    let mut even_w = vec![0u64; k];
    for u in 0..k {
        let p = marked_parent[u];
        if p == usize::MAX {
            continue;
        }
        let w = weight(u, p);
        if depth[u] % 2 == 1 {
            odd_w[root[u]] += w;
        } else {
            even_w[root[u]] += w;
        }
    }
    // Build stars: if odd levels win, stars are centered at even-depth vertices with
    // their odd-depth children; otherwise centered at odd-depth vertices with their
    // even-depth children. Leaves arrive in increasing order, and the stars come
    // out in centre order.
    let mut leaves_of: Vec<Vec<usize>> = vec![Vec::new(); k];
    for u in 0..k {
        let p = marked_parent[u];
        if p == usize::MAX {
            continue;
        }
        let take_odd = odd_w[root[u]] >= even_w[root[u]];
        let child_is_odd = depth[u] % 2 == 1;
        if take_odd == child_is_odd {
            leaves_of[p].push(u);
        }
    }
    leaves_of
        .into_iter()
        .enumerate()
        .filter(|(_, leaves)| !leaves.is_empty())
        .map(|(center, leaves)| Star { center, leaves })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_graph::{generators, Graph};

    fn cluster_graph_of(g: &Graph, labels: &[usize]) -> WeightedGraph {
        g.quotient(labels)
    }

    /// Fraction of the edge weight captured by the stars (1.0 for an edgeless
    /// cluster graph).
    fn captured_fraction(hs: &HeavyStars) -> f64 {
        if hs.total_weight == 0 {
            1.0
        } else {
            hs.captured_weight as f64 / hs.total_weight as f64
        }
    }

    fn assert_vertex_disjoint(stars: &[Star]) {
        let mut seen = std::collections::BTreeSet::new();
        for s in stars {
            assert!(seen.insert(s.center), "center {} reused", s.center);
            for &l in &s.leaves {
                assert!(seen.insert(l), "leaf {} reused", l);
            }
        }
    }

    #[test]
    fn captures_a_constant_fraction_on_a_path_of_clusters() {
        let g = generators::path(32);
        let labels: Vec<usize> = (0..32).collect();
        let wg = cluster_graph_of(&g, &labels);
        let hs = heavy_stars(&wg);
        assert_vertex_disjoint(&hs.stars);
        assert!(
            captured_fraction(&hs) >= 1.0 / 24.0,
            "fraction {}",
            captured_fraction(&hs)
        );
        assert!(hs.captured_weight > 0);
    }

    #[test]
    fn captures_a_constant_fraction_on_planar_cluster_graphs() {
        for (g, seed) in [
            (generators::triangulated_grid(8, 8), 1u64),
            (generators::random_apollonian(120, 5), 2u64),
        ] {
            // Random coarse labels: groups of 4 consecutive vertices.
            let labels: Vec<usize> = (0..g.n()).map(|v| (v + seed as usize) / 4).collect();
            let wg = cluster_graph_of(&g, &labels);
            let hs = heavy_stars(&wg);
            assert_vertex_disjoint(&hs.stars);
            // Arboricity of a planar cluster graph is ≤ 3, so 1/(8·3) is guaranteed.
            assert!(
                captured_fraction(&hs) >= 1.0 / 24.0,
                "fraction {}",
                captured_fraction(&hs)
            );
        }
    }

    #[test]
    fn star_edges_exist_in_cluster_graph() {
        let g = generators::grid(6, 6);
        let labels: Vec<usize> = (0..g.n()).map(|v| v / 3).collect();
        let wg = cluster_graph_of(&g, &labels);
        let hs = heavy_stars(&wg);
        for s in &hs.stars {
            for &l in &s.leaves {
                assert!(
                    wg.weight(s.center, l) > 0,
                    "star edge missing in cluster graph"
                );
            }
        }
    }

    #[test]
    fn merging_stars_strictly_reduces_inter_cluster_edges() {
        let g = generators::triangulated_grid(10, 10);
        let clustering = crate::Clustering::singletons(&g);
        let wg = clustering.cluster_graph(&g);
        let before = clustering.inter_cluster_edges(&g);
        let hs = heavy_stars(&wg);
        let mut group: Vec<usize> = (0..clustering.num_clusters()).collect();
        for s in &hs.stars {
            for &l in &s.leaves {
                group[l] = s.center;
            }
        }
        let merged = clustering.merge_groups(&group);
        let after = merged.inter_cluster_edges(&g);
        assert!(after < before);
        assert!(
            (before - after) as u64 >= hs.captured_weight,
            "merging must remove at least the captured weight"
        );
    }

    #[test]
    fn empty_and_single_cluster_graphs() {
        let wg = WeightedGraph::from_edges(0, []);
        let hs = heavy_stars(&wg);
        assert!(hs.stars.is_empty());
        let wg1 = WeightedGraph::from_edges(3, []);
        let hs1 = heavy_stars(&wg1);
        assert!(hs1.stars.is_empty());
        assert!((captured_fraction(&hs1) - 1.0).abs() < 1e-12);
    }
}
