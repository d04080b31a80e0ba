//! Generators for the graph families used throughout the paper and its experiments.
//!
//! The paper's algorithms apply to any network excluding a fixed minor. The
//! generators below cover the minor-closed classes the paper names in §1 (forests,
//! planar, outerplanar, bounded treewidth) plus non-minor-free "control" families
//! (hypercubes, random graphs, planar graphs with random chords) used to exercise the
//! error-detection path of the property tester and as ε-far instances.
//!
//! All randomized generators are deterministic given a seed. Each one draws its
//! edges first and builds the graph once with [`Graph::from_edges`]; the ones that
//! must know which edges are already drawn keep that set themselves.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::graph::Graph;

/// Path graph on `n` vertices.
pub fn path(n: usize) -> Graph {
    Graph::from_edges(n, (1..n).map(|i| (i - 1, i)))
}

/// Cycle graph on `n` vertices (`n >= 3`; for smaller `n` a path is returned).
pub fn cycle(n: usize) -> Graph {
    let closing = (n >= 3).then(|| (n - 1, 0));
    Graph::from_edges(n, (1..n).map(|i| (i - 1, i)).chain(closing))
}

/// Star graph: vertex 0 connected to vertices `1..n`.
pub fn star(n: usize) -> Graph {
    Graph::from_edges(n, (1..n).map(|i| (0, i)))
}

/// Wheel graph: a cycle on vertices `1..n` plus a hub (vertex 0) adjacent to all of
/// them. Planar, connected, and with unbounded maximum degree — the family used for
/// the "unbounded Δ" rows of Table 1.
pub fn wheel(n: usize) -> Graph {
    assert!(n >= 4, "wheel needs at least 4 vertices");
    let rim = |i: usize| if i == n - 1 { 1 } else { i + 1 };
    Graph::from_edges(n, (1..n).flat_map(|i| [(0, i), (i, rim(i))]))
}

/// Complete graph on `n` vertices.
pub fn complete(n: usize) -> Graph {
    Graph::from_edges(n, (0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v))))
}

/// Complete bipartite graph `K_{a,b}`.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    Graph::from_edges(a + b, (0..a).flat_map(|u| (a..a + b).map(move |v| (u, v))))
}

/// The edges of the `rows × cols` grid, plus one down-right diagonal per cell
/// when `diagonals` is set.
fn grid_edges(rows: usize, cols: usize, diagonals: bool) -> Vec<(usize, usize)> {
    let idx = |r: usize, c: usize| r * cols + c;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((idx(r, c), idx(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((idx(r, c), idx(r + 1, c)));
            }
            if diagonals && r + 1 < rows && c + 1 < cols {
                edges.push((idx(r, c), idx(r + 1, c + 1)));
            }
        }
    }
    edges
}

/// `rows × cols` grid graph. Planar with maximum degree 4.
pub fn grid(rows: usize, cols: usize) -> Graph {
    Graph::from_edges(rows * cols, grid_edges(rows, cols, false))
}

/// `rows × cols` grid with one diagonal added per cell. Planar (each diagonal is drawn
/// inside its cell) with maximum degree ≤ 8, higher conductance than the plain grid.
pub fn triangulated_grid(rows: usize, cols: usize) -> Graph {
    Graph::from_edges(rows * cols, grid_edges(rows, cols, true))
}

/// Toroidal grid: a grid with wrap-around edges. Not planar for `rows, cols >= 3`
/// (it embeds on the torus), used as a "genus-1" control in the property-testing
/// experiments.
pub fn torus_grid(rows: usize, cols: usize) -> Graph {
    let idx = |r: usize, c: usize| r * cols + c;
    let edges = (0..rows).flat_map(|r| {
        (0..cols).flat_map(move |c| {
            [
                (idx(r, c), idx(r, (c + 1) % cols)),
                (idx(r, c), idx((r + 1) % rows, c)),
            ]
        })
    });
    Graph::from_edges(rows * cols, edges)
}

/// Complete binary tree with the given number of vertices.
pub fn binary_tree(n: usize) -> Graph {
    Graph::from_edges(n, (1..n).map(|i| (i, (i - 1) / 2)))
}

/// Uniformly random labelled tree on `n` vertices via a random attachment process
/// (each new vertex attaches to a uniformly random earlier vertex).
pub fn random_tree(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<(usize, usize)> = (1..n).map(|v| (v, rng.gen_range(0..v))).collect();
    Graph::from_edges(n, edges)
}

/// Caterpillar tree: a path of `spine` vertices with `legs` leaves hanging off each
/// spine vertex.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    let spine_edges = (1..spine).map(|i| (i - 1, i));
    let leg_edges = (0..spine * legs).map(|l| (l / legs, spine + l));
    Graph::from_edges(spine + spine * legs, spine_edges.chain(leg_edges))
}

/// Random Apollonian network (stacked triangulation) on `n >= 3` vertices: start from
/// a triangle and repeatedly insert a new vertex inside a uniformly random existing
/// face, connecting it to the face's three corners. The result is a maximal planar
/// graph; maximum degree grows with `n`, which makes this the canonical
/// "planar, unbounded Δ" workload.
pub fn random_apollonian(n: usize, seed: u64) -> Graph {
    assert!(n >= 3, "apollonian network needs at least 3 vertices");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = vec![(0, 1), (1, 2), (2, 0)];
    let mut faces = vec![[0usize, 1, 2]];
    for v in 3..n {
        let fi = rng.gen_range(0..faces.len());
        let [a, b, c] = faces.swap_remove(fi);
        edges.extend([(v, a), (v, b), (v, c)]);
        faces.push([a, b, v]);
        faces.push([b, c, v]);
        faces.push([a, c, v]);
    }
    Graph::from_edges(n, edges)
}

/// Fan graph: a path on `1..n` plus a hub (vertex 0) adjacent to every path vertex.
/// Fans are maximal outerplanar, hence planar, K4-minor-free and 2-degenerate, with a
/// single high-degree hub.
pub fn fan(n: usize) -> Graph {
    assert!(n >= 2);
    let spokes = (1..n).map(|i| (0, i));
    Graph::from_edges(n, spokes.chain((2..n).map(|i| (i - 1, i))))
}

/// Random maximal outerplanar graph: a cycle on `n` vertices plus a random
/// triangulation of its interior with non-crossing chords (built by recursive ear
/// splitting). Outerplanar graphs are K4-minor-free and K2,3-minor-free.
pub fn random_outerplanar(n: usize, seed: u64) -> Graph {
    assert!(n >= 3);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(usize, usize)> = cycle(n).edges().collect();
    // Triangulate the polygon 0..n-1 with non-crossing chords.
    let mut stack = vec![(0usize, n - 1)];
    while let Some((lo, hi)) = stack.pop() {
        if hi - lo < 2 {
            continue;
        }
        let mid = rng.gen_range(lo + 1..hi);
        // Chords (lo, mid) and (mid, hi) — cycle edges are already present.
        if mid > lo + 1 {
            edges.push((lo, mid));
        }
        if hi > mid + 1 {
            edges.push((mid, hi));
        }
        stack.push((lo, mid));
        stack.push((mid, hi));
    }
    Graph::from_edges(n, edges)
}

/// The edges of [`k_tree`]'s graph, in the order the construction draws them.
fn k_tree_edges(n: usize, k: usize, seed: u64) -> Vec<(usize, usize)> {
    assert!(n > k, "k-tree needs more than k vertices");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    let mut cliques: Vec<Vec<usize>> = Vec::new();
    let base: Vec<usize> = (0..=k).collect();
    for i in 0..=k {
        for j in (i + 1)..=k {
            edges.push((base[i], base[j]));
        }
    }
    // All k-subsets of the base clique are attachable k-cliques.
    for i in 0..=k {
        let mut c = base.clone();
        c.remove(i);
        cliques.push(c);
    }
    if cliques.is_empty() {
        cliques.push(Vec::new());
    }
    for v in (k + 1)..n {
        let ci = rng.gen_range(0..cliques.len());
        let clique = cliques[ci].clone();
        edges.extend(clique.iter().map(|&u| (v, u)));
        for i in 0..clique.len() {
            let mut c = clique.clone();
            c[i] = v;
            cliques.push(c);
        }
        let mut with_v = clique;
        if with_v.len() < k {
            with_v.push(v);
            cliques.push(with_v);
        }
    }
    edges
}

/// Random `k`-tree on `n` vertices: start from a `(k+1)`-clique and repeatedly attach
/// a new vertex to a random existing `k`-clique. k-trees have treewidth exactly `k`
/// and are the canonical bounded-treewidth family.
pub fn k_tree(n: usize, k: usize, seed: u64) -> Graph {
    Graph::from_edges(n, k_tree_edges(n, k, seed))
}

/// Random series–parallel graph on `n` vertices, built as a random partial 2-tree
/// (a random 2-tree with a fraction `keep` of its edges retained, always keeping the
/// graph connected). Series–parallel graphs have treewidth ≤ 2 and are K4-minor-free.
pub fn random_series_parallel(n: usize, keep: f64, seed: u64) -> Graph {
    // The spanning tree and the kept edges depend on the order the 2-tree's
    // edges are visited in: its construction order, which these rows keep.
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, v) in k_tree_edges(n, 2, seed) {
        rows[u].push(v);
        rows[v].push(u);
    }
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x9e3779b97f4a7c15));
    // Keep a DFS spanning tree plus a `keep` fraction of the remaining edges.
    let mut parent = vec![usize::MAX; n];
    let mut edges = Vec::new();
    let mut visited = vec![false; n];
    let mut stack = vec![0usize];
    visited[0] = true;
    while let Some(u) = stack.pop() {
        for &v in &rows[u] {
            if !visited[v] {
                visited[v] = true;
                parent[v] = u;
                edges.push((u, v));
                stack.push(v);
            }
        }
    }
    for (u, row) in rows.iter().enumerate() {
        for &v in row.iter().filter(|&&v| u < v) {
            let tree_edge = parent[v] == u || parent[u] == v;
            if !tree_edge && rng.gen_bool(keep.clamp(0.0, 1.0)) {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, edges)
}

/// The Petersen graph: 10 vertices, 15 edges, 3-regular, non-planar, girth 5.
/// A classic stress test for matching and planarity code.
pub fn petersen() -> Graph {
    let mut edges = Vec::new();
    for i in 0..5 {
        edges.push((i, (i + 1) % 5)); // outer cycle
        edges.push((i, i + 5)); // spokes
        edges.push((i + 5, (i + 2) % 5 + 5)); // inner pentagram
    }
    Graph::from_edges(10, edges)
}

/// `d`-dimensional hypercube (`2^d` vertices). Planar only for `d <= 3`; `d >= 4`
/// yields the non-minor-free control family with good expansion.
pub fn hypercube(d: usize) -> Graph {
    let n = 1usize << d;
    let edges = (0..n).flat_map(|v| (0..d).map(move |bit| (v, v ^ (1 << bit))));
    Graph::from_edges(n, edges.filter(|&(v, u)| u > v))
}

/// Draws uniform vertex pairs and adds each one that is neither a self-loop nor
/// in `present` yet, until `count` have been added or `100 · count + 1000` pairs
/// have been drawn.
fn add_random_edges(n: usize, present: &mut HashSet<(usize, usize)>, count: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut added, mut attempts) = (0usize, 0usize);
    while added < count && attempts < 100 * count + 1000 {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v && present.insert((u.min(v), u.max(v))) {
            added += 1;
        }
        attempts += 1;
    }
}

/// Erdős–Rényi style random graph with exactly `m` distinct edges (or as many as fit).
pub fn random_gnm(n: usize, m: usize, seed: u64) -> Graph {
    let mut edges = HashSet::new();
    add_random_edges(n, &mut edges, m.min(n * n.saturating_sub(1) / 2), seed);
    Graph::from_edges(n, edges)
}

/// Adds `chords` random extra edges to a copy of `base`. Used to manufacture graphs
/// that are ε-far from planarity (and from other sparse minor-closed properties) for
/// the property-testing experiments: each chord is chosen uniformly among vertex
/// pairs, so for a planar base graph a linear number of chords destroys planarity in
/// a robust (ε-far) way.
pub fn with_random_chords(base: &Graph, chords: usize, seed: u64) -> Graph {
    let mut edges: HashSet<(usize, usize)> = base.edges().collect();
    add_random_edges(base.n(), &mut edges, chords, seed);
    Graph::from_edges(base.n(), edges)
}

/// Adds an apex vertex adjacent to every vertex of `base`. For planar `base` the
/// result is K6-minor-free but generally not planar; its maximum degree is `n`, so
/// apex graphs exercise the "unbounded Δ, still minor-free" regime.
pub fn apex(base: &Graph) -> Graph {
    let n = base.n();
    Graph::from_edges(n + 1, base.edges().chain((0..n).map(|v| (n, v))))
}

/// Disjoint union of `copies` copies of `base`.
pub fn disjoint_copies(base: &Graph, copies: usize) -> Graph {
    let mut g = Graph::new(0);
    for _ in 0..copies {
        g = g.disjoint_union(base);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recognition::is_forest;

    #[test]
    fn basic_families_have_expected_sizes() {
        assert_eq!(path(5).m(), 4);
        assert_eq!(cycle(5).m(), 5);
        assert_eq!(star(5).m(), 4);
        assert_eq!(wheel(6).m(), 10);
        assert_eq!(complete(5).m(), 10);
        assert_eq!(complete_bipartite(3, 3).m(), 9);
        assert_eq!(grid(3, 4).n(), 12);
        assert_eq!(grid(3, 4).m(), 3 * 3 + 2 * 4);
        assert_eq!(hypercube(4).n(), 16);
        assert_eq!(hypercube(4).m(), 32);
    }

    #[test]
    fn triangulated_grid_is_denser_than_grid() {
        let g = grid(5, 5);
        let t = triangulated_grid(5, 5);
        assert_eq!(t.n(), g.n());
        assert_eq!(t.m(), g.m() + 16);
        assert!(t.is_connected());
    }

    #[test]
    fn trees_are_forests() {
        assert!(is_forest(&binary_tree(31)));
        assert!(is_forest(&random_tree(50, 7)));
        assert!(is_forest(&caterpillar(10, 3)));
        assert_eq!(random_tree(50, 7).m(), 49);
        assert!(random_tree(50, 7).is_connected());
    }

    #[test]
    fn apollonian_is_maximal_planar_size() {
        let g = random_apollonian(50, 3);
        assert_eq!(g.m(), 3 * 50 - 6);
        assert!(g.is_connected());
    }

    #[test]
    fn outerplanar_is_triangulated_polygon() {
        let g = random_outerplanar(12, 11);
        // A maximal outerplanar graph has 2n - 3 edges.
        assert_eq!(g.m(), 2 * 12 - 3);
        assert!(g.is_connected());
    }

    #[test]
    fn k_tree_edge_count() {
        // An n-vertex k-tree has k(k+1)/2 + k(n-k-1) edges... equivalently
        // C(k+1,2) + k*(n-k-1).
        let n = 30;
        let k = 3;
        let g = k_tree(n, k, 5);
        assert_eq!(g.m(), k * (k + 1) / 2 + k * (n - k - 1));
        assert!(g.is_connected());
    }

    #[test]
    fn series_parallel_is_connected_and_sparse() {
        let g = random_series_parallel(40, 0.5, 9);
        assert!(g.is_connected());
        assert!(g.m() <= 2 * g.n() - 3);
        assert!(g.m() >= g.n() - 1);
    }

    #[test]
    fn random_gnm_respects_edge_budget() {
        let g = random_gnm(20, 40, 123);
        assert_eq!(g.m(), 40);
        let dense = random_gnm(5, 100, 1);
        assert_eq!(dense.m(), 10);
    }

    #[test]
    fn chords_increase_edges() {
        let base = grid(6, 6);
        let g = with_random_chords(&base, 10, 77);
        assert_eq!(g.m(), base.m() + 10);
    }

    #[test]
    fn apex_adds_universal_vertex() {
        let g = apex(&grid(3, 3));
        assert_eq!(g.n(), 10);
        assert_eq!(g.degree(9), 9);
        assert_eq!(g.max_degree(), 9);
    }

    #[test]
    fn generators_are_deterministic_given_seed() {
        assert_eq!(random_tree(30, 42), random_tree(30, 42));
        assert_eq!(random_apollonian(30, 42), random_apollonian(30, 42));
        assert_eq!(random_gnm(30, 60, 42), random_gnm(30, 60, 42));
        assert_ne!(random_tree(30, 1), random_tree(30, 2));
    }

    #[test]
    fn disjoint_copies_scale() {
        let g = disjoint_copies(&cycle(5), 3);
        assert_eq!(g.n(), 15);
        assert_eq!(g.m(), 15);
        let (_, comps) = g.connected_components();
        assert_eq!(comps, 3);
    }

    #[test]
    fn torus_has_wraparound_degree_four() {
        let g = torus_grid(4, 5);
        assert!(g.vertices().all(|v| g.degree(v) == 4));
        assert_eq!(g.m(), 2 * 20);
    }
}
