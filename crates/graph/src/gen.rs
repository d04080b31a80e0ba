//! Streaming O(m) generators for million-vertex workloads.
//!
//! The generators here stream an edge list (no per-vertex allocation) straight
//! into [`Graph::from_edges`]. The build draws each edge once into a compact
//! scratch list of `(u32, u32)` pairs (m × 8 bytes, so `n ≤ 2³²`), counts
//! degrees and places both arcs of every edge in two passes over that list,
//! drops it, and sorts and deduplicates each row in O(m). That list is the
//! only intermediate structure the size of the graph; the build peaks at
//! about 1.4–1.9× the bytes of the graph it returns.
//!
//! Determinism is the same discipline as everywhere else in the workspace:
//! each random edge draws from a [`splitmix64`] stream salted with
//! `(seed, edge index)`, so a family is a pure function of its parameters
//! and seed — independent of thread count, platform, or call order.

use crate::graph::Graph;
use crate::properties::splitmix64;

/// Stateless per-edge random stream: `splitmix64` chained over
/// `(seed, index)`, advanced by re-mixing — the same construction as the
/// runtime's per-`(seed, vertex, round)` node streams.
struct EdgeRng {
    state: u64,
}

impl EdgeRng {
    fn new(seed: u64, index: u64) -> Self {
        let mut state = splitmix64(seed);
        state = splitmix64(state ^ index);
        EdgeRng { state }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }

    /// Uniform f64 in `[0, 1)` from the top 53 bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Recursive-matrix (R-MAT) random graph on `n = 2^scale` vertices with
/// `edge_factor · n` candidate edges, Graph500-style quadrant probabilities
/// `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)`.
///
/// Each candidate edge picks one bit of each endpoint per scale level by a
/// quadrant draw; self-loops and duplicates are dropped by the build, so
/// `m()` is slightly below `edge_factor · n`. Deterministic per
/// `(scale, edge_factor, seed)`.
pub fn rmat(scale: u32, edge_factor: usize, seed: u64) -> Graph {
    const A: f64 = 0.57;
    const B: f64 = 0.19;
    const C: f64 = 0.19;
    let n = 1usize << scale;
    let requested = n * edge_factor;
    let edges = (0..requested as u64).map(move |i| {
        let mut rng = EdgeRng::new(seed, i);
        let (mut u, mut v) = (0usize, 0usize);
        for _ in 0..scale {
            let x = rng.next_f64();
            let (ubit, vbit) = if x < A {
                (0, 0)
            } else if x < A + B {
                (0, 1)
            } else if x < A + B + C {
                (1, 0)
            } else {
                (1, 1)
            };
            u = (u << 1) | ubit;
            v = (v << 1) | vbit;
        }
        (u, v)
    });
    Graph::from_edges(n, edges)
}

/// Power-law random graph: `m` candidate edges whose endpoints are drawn
/// with a Zipf-like bias via the inverse-power transform
/// `v = ⌊n · x^alpha⌋` (uniform `x`), concentrating edges on low-index
/// vertices so degrees follow a heavy-tailed power law. `alpha = 1`
/// degenerates to the uniform G(n, m) model; `alpha ≈ 2..3` gives hub
/// vertices of degree Θ(m / n^(1/alpha)).
///
/// Self-loops and duplicates are dropped by the build. Deterministic per
/// `(n, m, alpha, seed)`.
///
/// # Panics
///
/// Panics if `alpha < 1.0` (the transform must not overshoot `n`).
pub fn power_law(n: usize, m: usize, alpha: f64, seed: u64) -> Graph {
    assert!(alpha >= 1.0, "alpha must be at least 1");
    let pick = move |rng: &mut EdgeRng| -> usize {
        let v = (n as f64 * rng.next_f64().powf(alpha)) as usize;
        v.min(n.saturating_sub(1))
    };
    let edges = (0..m as u64).map(move |i| {
        let mut rng = EdgeRng::new(seed ^ 0x70_77_65_72, i);
        (pick(&mut rng), pick(&mut rng))
    });
    Graph::from_edges(n, edges)
}

/// Triangulated `rows × cols` mesh, streamed: the million-vertex counterpart
/// of [`crate::generators::triangulated_grid`] (same edge set — grid edges
/// plus one down-right diagonal per cell — and tested equal to it on small
/// sizes).
pub fn mesh(rows: usize, cols: usize) -> Graph {
    let n = rows * cols;
    let at = move |r: usize, c: usize| r * cols + c;
    let edges = (0..rows).flat_map(move |r| {
        (0..cols).flat_map(move |c| {
            let mut out: [Option<(usize, usize)>; 3] = [None, None, None];
            if c + 1 < cols {
                out[0] = Some((at(r, c), at(r, c + 1)));
            }
            if r + 1 < rows {
                out[1] = Some((at(r, c), at(r + 1, c)));
            }
            if r + 1 < rows && c + 1 < cols {
                out[2] = Some((at(r, c), at(r + 1, c + 1)));
            }
            out.into_iter().flatten()
        })
    });
    Graph::from_edges(n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn assert_valid(g: &Graph) {
        for v in 0..g.n() {
            let nbrs = g.neighbors(v);
            assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "sorted + dedup");
            assert!(!nbrs.contains(&v), "no self-loop at {v}");
            for &u in nbrs {
                assert!(g.has_edge(u, v), "edge ({v}, {u}) must be symmetric");
            }
        }
    }

    #[test]
    fn rmat_is_deterministic_valid_and_dense_enough() {
        let a = rmat(10, 8, 0xE0);
        let b = rmat(10, 8, 0xE0);
        assert_eq!(a, b);
        assert_ne!(a, rmat(10, 8, 0xE1), "seed must matter");
        assert_valid(&a);
        assert_eq!(a.n(), 1 << 10);
        // Duplicates collapse, but most candidate edges survive.
        assert!(a.m() > (a.n() * 8) / 2);
    }

    #[test]
    fn power_law_is_deterministic_valid_and_skewed() {
        let g = power_law(2_000, 8_000, 2.5, 0x9A);
        assert_eq!(g, power_law(2_000, 8_000, 2.5, 0x9A));
        assert_valid(&g);
        // The transform concentrates mass near vertex 0: the busiest hub
        // must dwarf the average degree 2m/n = 8.
        assert!(g.max_degree() > 50, "max degree {}", g.max_degree());
    }

    #[test]
    fn mesh_matches_the_adjacency_map_generator() {
        for (r, c) in [(1, 1), (1, 5), (4, 3), (7, 9)] {
            let g = mesh(r, c);
            assert_valid(&g);
            assert_eq!(g, generators::triangulated_grid(r, c), "mesh({r}, {c})");
        }
    }
}
