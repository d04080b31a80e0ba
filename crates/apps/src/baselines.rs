//! Baselines the paper's algorithms are compared against.
//!
//! * [`mpx_ldd`] — the randomized exponential-shift low-diameter decomposition of
//!   Miller–Peng–Xu (the standard randomized CONGEST construction with
//!   D = O(log n / ε) whp), used as the comparison point for Corollary 6.1.
//! * [`two_approx_vertex_cover`], greedy MIS / matching (see [`crate::solvers`]) —
//!   the classic distributed heuristics whose quality the (1 ± ε) algorithms are
//!   measured against.

use mfd_congest::RoundMeter;
use mfd_core::clustering::Clustering;
use mfd_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Miller–Peng–Xu style randomized low-diameter decomposition: every vertex draws an
/// exponential shift `δ_v ~ Exp(β)` and joins the cluster of the vertex minimizing
/// `dist(u, v) − δ_u`. Implemented with integer-rounded shifts and a multi-source
/// BFS, which preserves the O(β·m)-cut-edges-in-expectation / O(log n / β)-diameter
/// behaviour. The round cost charged is the BFS depth (`max δ + cluster radius`).
pub fn mpx_ldd(g: &Graph, beta: f64, seed: u64, meter: &mut RoundMeter) -> Clustering {
    assert!(beta > 0.0);
    let n = g.n();
    if n == 0 {
        return Clustering::from_labels(g, Vec::new());
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // Exponential shifts, rounded to integers.
    let shifts: Vec<usize> = (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(1e-12..1.0);
            (-u.ln() / beta).round() as usize
        })
        .collect();
    let max_shift = shifts.iter().copied().max().unwrap_or(0);
    // Multi-source BFS where source v starts at time (max_shift - shift[v]).
    let mut label = vec![usize::MAX; n];
    let mut start_time = vec![usize::MAX; n];
    let mut frontier: Vec<Vec<usize>> = vec![Vec::new(); max_shift + 1];
    for v in 0..n {
        frontier[max_shift - shifts[v]].push(v);
    }
    let mut time = 0usize;
    let mut active: Vec<usize> = Vec::new();
    let mut rounds = 0u64;
    loop {
        if time < frontier.len() {
            for &v in &frontier[time] {
                if label[v] == usize::MAX {
                    label[v] = v;
                    start_time[v] = time;
                    active.push(v);
                }
            }
        }
        if active.is_empty() && time >= frontier.len() {
            break;
        }
        let mut next = Vec::new();
        for &v in &active {
            for &u in g.neighbors(v) {
                if label[u] == usize::MAX {
                    label[u] = label[v];
                    start_time[u] = time + 1;
                    next.push(u);
                }
            }
        }
        rounds += 1;
        active = next;
        time += 1;
        if time > 4 * (max_shift + n) {
            break;
        }
    }
    meter.charge_rounds(rounds);
    meter.charge_messages(2 * g.m() as u64);
    Clustering::from_labels(g, label).split_into_components(g)
}

/// The classic 2-approximation for minimum vertex cover: both endpoints of a greedy
/// maximal matching.
pub fn two_approx_vertex_cover(g: &Graph) -> Vec<usize> {
    let matching = crate::solvers::greedy_matching(g);
    let mut cover = Vec::with_capacity(2 * matching.len());
    for (u, v) in matching {
        cover.push(u);
        cover.push(v);
    }
    cover
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_core::ldd::{chop_ldd, measure_ldd};
    use mfd_graph::generators;

    #[test]
    fn mpx_produces_connected_clusters_with_bounded_cut() {
        let g = generators::triangulated_grid(12, 12);
        let beta = 0.3;
        let mut meter = RoundMeter::new();
        let c = mpx_ldd(&g, beta, 42, &mut meter);
        assert!(c.all_clusters_connected(&g));
        assert!(meter.rounds() > 0);
        // In expectation the cut fraction is about beta; allow generous slack for a
        // single sample.
        assert!(
            c.edge_fraction(&g) <= 3.0 * beta,
            "fraction {}",
            c.edge_fraction(&g)
        );
    }

    #[test]
    fn mpx_diameters_grow_as_epsilon_shrinks() {
        let g = generators::grid(20, 20);
        let mut meter = RoundMeter::new();
        let coarse = mpx_ldd(&g, 0.5, 7, &mut meter);
        let fine = mpx_ldd(&g, 0.05, 7, &mut meter);
        let dc = coarse.max_cluster_diameter(&g).unwrap();
        let df = fine.max_cluster_diameter(&g).unwrap();
        assert!(df >= dc);
    }

    #[test]
    fn deterministic_chop_beats_or_matches_mpx_on_cut_quality() {
        // Corollary 6.1's deterministic LDD guarantees epsilon exactly, whereas MPX
        // only achieves it in expectation; check the guarantee side.
        let g = generators::random_apollonian(300, 5);
        let eps = 0.3;
        let det = measure_ldd(&g, &chop_ldd(&g, eps, 3));
        assert!(det.edge_fraction <= eps + 1e-9);
    }

    #[test]
    fn two_approx_cover_is_a_cover() {
        let g = generators::random_apollonian(80, 2);
        let cover = two_approx_vertex_cover(&g);
        assert!(crate::solvers::is_vertex_cover(&g, &cover));
    }
}
