//! Structural measures: degeneracy, arboricity bounds, forest partitions,
//! conductance (exact for small graphs, spectral sweep cuts for larger ones).
//!
//! These are the quantities the paper's analysis revolves around: arboricity α of
//! H-minor-free graphs (heavy-stars guarantee, Lemma 4.2), conductance φ of clusters
//! (information gathering, §2), and the Φ ≤ Ψ ≤ Δ·Φ relation between conductance and
//! sparsity.

use crate::graph::Graph;

/// A degeneracy ordering and the degeneracy value.
///
/// The ordering lists vertices in the order they are peeled: each vertex has at most
/// `degeneracy` neighbors occurring later in the ordering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegeneracyOrdering {
    /// Vertices in peel order.
    pub order: Vec<usize>,
    /// Position of each vertex in `order`.
    pub position: Vec<usize>,
    /// The degeneracy of the graph.
    pub degeneracy: usize,
}

/// Computes a degeneracy ordering by repeatedly removing a minimum-degree vertex.
///
/// Runs in O(n + m) with bucket queues.
pub fn degeneracy_ordering(g: &Graph) -> DegeneracyOrdering {
    let n = g.n();
    let mut deg: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let max_deg = g.max_degree();
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); max_deg + 1];
    for v in 0..n {
        buckets[deg[v]].push(v);
    }
    let mut removed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut degeneracy = 0;
    let mut cursor = 0usize;
    for _ in 0..n {
        // Find the smallest non-empty bucket at or after `cursor`, falling back to 0.
        let mut d = cursor.min(max_deg);
        loop {
            while d <= max_deg && buckets[d].is_empty() {
                d += 1;
            }
            if d > max_deg {
                d = 0;
                while buckets[d].is_empty() {
                    d += 1;
                }
            }
            // Entries may be stale (their degree has since decreased); skip them.
            let v = *buckets[d].last().unwrap();
            if removed[v] || deg[v] != d {
                buckets[d].pop();
                continue;
            }
            break;
        }
        let v = buckets[d].pop().unwrap();
        removed[v] = true;
        degeneracy = degeneracy.max(d);
        order.push(v);
        cursor = d.saturating_sub(1);
        for &u in g.neighbors(v) {
            if !removed[u] {
                deg[u] -= 1;
                buckets[deg[u]].push(u);
            }
        }
    }
    let mut position = vec![0usize; n];
    for (i, &v) in order.iter().enumerate() {
        position[v] = i;
    }
    DegeneracyOrdering {
        order,
        position,
        degeneracy,
    }
}

/// Degeneracy of the graph (smallest `d` such that every subgraph has a vertex of
/// degree ≤ `d`).
pub fn degeneracy(g: &Graph) -> usize {
    degeneracy_ordering(g).degeneracy
}

/// Upper bound on the arboricity: `degeneracy(G)` (arboricity ≤ degeneracy), and also
/// a certificate via [`forest_partition`].
pub fn arboricity_upper_bound(g: &Graph) -> usize {
    degeneracy(g)
}

/// Nash–Williams style lower bound on the arboricity from global density:
/// `ceil(m / (n - 1))` (the true arboricity maximizes this over subgraphs).
pub fn arboricity_density_lower_bound(g: &Graph) -> usize {
    if g.n() <= 1 {
        return 0;
    }
    g.m().div_ceil(g.n() - 1)
}

/// Partitions the edge set into at most `degeneracy(G)` forests, using the acyclic
/// orientation induced by a degeneracy ordering (each vertex orients its ≤ d edges
/// towards later vertices and spreads them over the d classes).
///
/// Returns the forests as edge lists. The union of the returned lists is exactly the
/// edge set, and each list is acyclic — this is the centralized analogue of the
/// Barenboim–Elkin forest decomposition used for error detection (§6.2).
pub fn forest_partition(g: &Graph) -> Vec<Vec<(usize, usize)>> {
    let ord = degeneracy_ordering(g);
    let d = ord.degeneracy.max(1);
    let mut forests: Vec<Vec<(usize, usize)>> = vec![Vec::new(); d];
    for v in g.vertices() {
        let mut class = 0usize;
        for &u in g.neighbors(v) {
            // Orient v -> u when u comes later in the peel order; v has at most d such
            // neighbors, so each class receives at most one out-edge of v.
            if ord.position[u] > ord.position[v] {
                forests[class % d].push((v, u));
                class += 1;
            }
        }
    }
    forests
}

/// Exact conductance Φ(G): the minimum over all non-trivial cuts, by exhaustive
/// enumeration. Only valid for small graphs.
///
/// Returns `None` if the graph has fewer than 2 vertices or more than
/// `max_exact_conductance_vertices()` vertices.
pub fn conductance_exact(g: &Graph) -> Option<f64> {
    let n = g.n();
    if n < 2 || n > max_exact_conductance_vertices() {
        return None;
    }
    let mut best = f64::INFINITY;
    // Enumerate subsets 1 .. 2^(n-1) - ... fix vertex 0 outside S to halve the work.
    for bits in 1u64..(1u64 << (n - 1)) {
        let mut mask = vec![false; n];
        for v in 0..(n - 1) {
            if bits >> v & 1 == 1 {
                mask[v + 1] = true;
            }
        }
        let phi = g.conductance_of_cut(&mask);
        if phi < best {
            best = phi;
        }
    }
    Some(best)
}

/// Maximum number of vertices for which [`conductance_exact`] will run.
pub fn max_exact_conductance_vertices() -> usize {
    18
}

/// Result of a spectral sweep-cut computation.
#[derive(Debug, Clone)]
pub struct SweepCut {
    /// Membership mask of the side S of the cut.
    pub mask: Vec<bool>,
    /// Conductance of the returned cut.
    pub conductance: f64,
}

/// Finds a low-conductance cut with a power-iteration + sweep heuristic (Cheeger
/// sweep). Deterministic: the starting vector is a fixed function of the vertex
/// indices.
///
/// Returns `None` for graphs with fewer than 2 vertices or no edges. The returned cut
/// is non-trivial (both sides non-empty). The guarantee is the usual Cheeger-style
/// one: if the graph has conductance φ, the sweep finds a cut of conductance
/// O(√φ); if the graph is a good expander, the returned cut simply has high
/// conductance, which callers threshold against.
pub fn spectral_sweep_cut(g: &Graph, iterations: usize) -> Option<SweepCut> {
    let n = g.n();
    if n < 2 || g.m() == 0 {
        return None;
    }
    let deg: Vec<f64> = (0..n).map(|v| g.degree(v).max(1) as f64).collect();
    let sqrt_deg: Vec<f64> = deg.iter().map(|d| d.sqrt()).collect();
    let norm_stationary: f64 = sqrt_deg.iter().map(|x| x * x).sum::<f64>().sqrt();
    let stationary: Vec<f64> = sqrt_deg.iter().map(|x| x / norm_stationary).collect();

    // Deterministic pseudo-random start vector.
    let mut x: Vec<f64> = (0..n)
        .map(|v| {
            let h = splitmix64(v as u64 ^ 0xdead_beef_cafe_f00d);
            (h as f64 / u64::MAX as f64) - 0.5
        })
        .collect();

    let iters = iterations.max(8);
    for _ in 0..iters {
        // Orthogonalize against the top eigenvector of the normalized adjacency.
        let dot: f64 = x.iter().zip(&stationary).map(|(a, b)| a * b).sum();
        for v in 0..n {
            x[v] -= dot * stationary[v];
        }
        // y = (I + D^{-1/2} A D^{-1/2}) / 2 * x  (lazy normalized walk).
        let mut y = vec![0.0f64; n];
        for v in 0..n {
            let mut acc = 0.0;
            for &u in g.neighbors(v) {
                acc += x[u] / (sqrt_deg[v] * sqrt_deg[u]);
            }
            y[v] = 0.5 * x[v] + 0.5 * acc;
        }
        let norm: f64 = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm < 1e-300 {
            break;
        }
        for y_v in y.iter_mut() {
            *y_v /= norm;
        }
        x = y;
    }

    // Sweep over vertices ordered by x_v / sqrt(deg_v).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let ka = x[a] / sqrt_deg[a];
        let kb = x[b] / sqrt_deg[b];
        ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
    });

    let total_vol = g.total_volume();
    let mut in_s = vec![false; n];
    let mut vol_s = 0usize;
    let mut cut = 0usize;
    let mut best_conductance = f64::INFINITY;
    let mut best_prefix = 0usize;
    for (i, &v) in order.iter().enumerate().take(n - 1) {
        in_s[v] = true;
        vol_s += g.degree(v);
        for &u in g.neighbors(v) {
            if in_s[u] {
                cut -= 1;
            } else {
                cut += 1;
            }
        }
        let denom = vol_s.min(total_vol - vol_s);
        if denom == 0 {
            continue;
        }
        let phi = cut as f64 / denom as f64;
        if phi < best_conductance {
            best_conductance = phi;
            best_prefix = i + 1;
        }
    }
    if best_prefix == 0 || best_prefix == n {
        return None;
    }
    let mut mask = vec![false; n];
    for &v in order.iter().take(best_prefix) {
        mask[v] = true;
    }
    Some(SweepCut {
        conductance: best_conductance,
        mask,
    })
}

/// A deterministic 64-bit mixer (SplitMix64 finalizer), used for seedable
/// pseudo-random starting vectors and the k-wise-independence substitute hash in the
/// routing crate.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn degeneracy_of_simple_families() {
        assert_eq!(degeneracy(&generators::path(10)), 1);
        assert_eq!(degeneracy(&generators::cycle(10)), 2);
        assert_eq!(degeneracy(&generators::complete(5)), 4);
        assert_eq!(degeneracy(&generators::star(10)), 1);
        assert_eq!(degeneracy(&generators::binary_tree(31)), 1);
        // Maximal planar graphs have degeneracy ≤ 5.
        assert!(degeneracy(&generators::random_apollonian(100, 3)) <= 5);
        // Grids have degeneracy 2.
        assert_eq!(degeneracy(&generators::grid(6, 6)), 2);
    }

    #[test]
    fn degeneracy_ordering_is_a_valid_certificate() {
        let g = generators::random_apollonian(80, 9);
        let ord = degeneracy_ordering(&g);
        for v in g.vertices() {
            let later = g
                .neighbors(v)
                .iter()
                .filter(|&&u| ord.position[u] > ord.position[v])
                .count();
            assert!(later <= ord.degeneracy);
        }
    }

    #[test]
    fn forest_partition_covers_all_edges_and_is_acyclic() {
        for g in [
            generators::grid(5, 7),
            generators::random_apollonian(60, 4),
            generators::wheel(20),
        ] {
            let forests = forest_partition(&g);
            let total: usize = forests.iter().map(Vec::len).sum();
            assert_eq!(total, g.m());
            for forest in &forests {
                let f = Graph::from_edges(g.n(), forest.iter().copied());
                assert_eq!(f.m(), forest.len(), "forest partition produced duplicates");
                assert!(crate::recognition::is_forest(&f));
            }
        }
    }

    #[test]
    fn arboricity_bounds_bracket_each_other() {
        for g in [
            generators::grid(6, 6),
            generators::random_apollonian(60, 5),
            generators::complete(6),
        ] {
            assert!(arboricity_density_lower_bound(&g) <= arboricity_upper_bound(&g).max(1));
        }
    }

    #[test]
    fn exact_conductance_matches_known_values() {
        // Complete graph K4: the worst cut is a balanced bipartition:
        // Φ = 4 / min(6, 6) = 2/3.
        let k4 = generators::complete(4);
        let phi = conductance_exact(&k4).unwrap();
        assert!((phi - 2.0 / 3.0).abs() < 1e-9);
        // Path on 4 vertices: cutting in the middle gives 1 / min(3, 3) = 1/3.
        let p4 = generators::path(4);
        let phi = conductance_exact(&p4).unwrap();
        assert!((phi - 1.0 / 3.0).abs() < 1e-9);
        // Too-large graphs refuse.
        assert!(conductance_exact(&generators::grid(6, 6)).is_none());
    }

    #[test]
    fn sweep_cut_finds_the_obvious_bottleneck() {
        // Two K6's joined by a single edge: the bottleneck cut has conductance
        // 1 / 31; the sweep must find something well below 0.1.
        let k = generators::complete(6);
        let g = Graph::from_edges(12, k.disjoint_union(&k).edges().chain([(0, 6)]));
        let cut = spectral_sweep_cut(&g, 200).unwrap();
        assert!(cut.conductance < 0.1, "conductance {}", cut.conductance);
        let side = cut.mask.iter().filter(|&&b| b).count();
        assert_eq!(side, 6);
    }

    #[test]
    fn sweep_cut_on_expander_is_not_too_sparse() {
        let g = generators::hypercube(6);
        let cut = spectral_sweep_cut(&g, 200).unwrap();
        assert!(cut.conductance > 0.05);
    }

    #[test]
    fn sweep_cut_rejects_degenerate_inputs() {
        assert!(spectral_sweep_cut(&Graph::new(1), 10).is_none());
        assert!(spectral_sweep_cut(&Graph::new(5), 10).is_none());
    }
}
