//! Expander decompositions computed as local computations (paper §3).
//!
//! Fact 3.1 shows that any graph admits an `(ε, Ω(ε / log n))` expander decomposition
//! by repeatedly cutting along sparse cuts; Observation 3.1 improves the conductance
//! to `Ω(ε / (log 1/ε + log Δ))` for H-minor-free graphs by interleaving the
//! low-diameter decomposition of Lemma 3.1. Both are *existential* statements that
//! the paper's algorithms invoke as **local computations at cluster leaders** (the
//! leader has gathered the cluster topology, computes the decomposition locally, and
//! distributes the result). We implement them the same way: as sequential functions
//! used by leaders, with the sparse-cut step realized by spectral sweep cuts (exact
//! enumeration on very small graphs).

use mfd_graph::properties::{
    conductance_exact, max_exact_conductance_vertices, spectral_sweep_cut,
};
use mfd_graph::Graph;

use crate::clustering::Clustering;
use crate::ldd::chop_ldd;

/// Result of an expander-decomposition computation.
#[derive(Debug, Clone)]
pub struct ExpanderDecomposition {
    /// The clustering.
    pub clustering: Clustering,
    /// The conductance threshold the recursion used: every produced non-singleton
    /// cluster withstood a sweep-cut (or exact) search for cuts sparser than this.
    pub phi_target: f64,
    /// Fraction of edges cut.
    pub edge_fraction: f64,
}

/// Sweep-cut power-iteration count.
const SWEEP_ITERATIONS: usize = 80;
/// Maximum recursion depth of the sparse-cut search (a defensive bound).
const MAX_DEPTH: usize = 64;

/// Recursive sparse-cut decomposition with an explicit conductance threshold `phi`
/// (Fact 3.1 takes `φ = ε / (4·log₂ m)`): recursively removes cuts of conductance
/// below `φ`, found by sweep cuts, or by exact enumeration for very small pieces.
fn expander_decomposition_with_phi(g: &Graph, phi: f64) -> ExpanderDecomposition {
    let n = g.n();
    let mut labels = vec![0usize; n];
    let mut next_label = 1usize;
    // Work queue of clusters (as vertex lists) to examine.
    let mut queue: Vec<Vec<usize>> = vec![(0..n).collect()];
    let mut depth_of: Vec<usize> = vec![0];
    while let Some(members) = queue.pop() {
        let depth = depth_of.pop().unwrap_or(0);
        if members.len() <= 1 {
            continue;
        }
        let (sub, map) = g.induced_subgraph(&members);
        if sub.m() == 0 {
            // Split isolated vertices into singleton clusters.
            for &v in map.iter().skip(1) {
                labels[v] = next_label;
                next_label += 1;
            }
            continue;
        }
        let cut_mask = find_sparse_cut(&sub, phi);
        let Some(mask) = cut_mask else {
            continue; // This piece is (certified-by-search) a φ-expander.
        };
        if depth >= MAX_DEPTH {
            continue;
        }
        let side_a: Vec<usize> = members
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask[i])
            .map(|(_, &v)| v)
            .collect();
        let side_b: Vec<usize> = members
            .iter()
            .enumerate()
            .filter(|&(i, _)| !mask[i])
            .map(|(_, &v)| v)
            .collect();
        if side_a.is_empty() || side_b.is_empty() {
            continue;
        }
        for &v in &side_b {
            labels[v] = next_label;
        }
        next_label += 1;
        queue.push(side_a);
        depth_of.push(depth + 1);
        queue.push(side_b);
        depth_of.push(depth + 1);
    }
    let clustering = Clustering::from_labels(g, labels).split_into_components(g);
    let edge_fraction = clustering.edge_fraction(g);
    ExpanderDecomposition {
        clustering,
        phi_target: phi,
        edge_fraction,
    }
}

/// Looks for a cut of conductance below `phi`; `None` means the search found none
/// (the graph is treated as a φ-expander).
fn find_sparse_cut(g: &Graph, phi: f64) -> Option<Vec<bool>> {
    if g.n() < 2 || g.m() == 0 {
        return None;
    }
    let cut = if g.n() <= max_exact_conductance_vertices().min(14) {
        conductance_exact(g)?
    } else {
        spectral_sweep_cut(g, SWEEP_ITERATIONS)?
    };
    (cut.conductance < phi).then_some(cut.mask)
}

/// Observation 3.1: the three-step composition for H-minor-free graphs —
/// low-diameter decomposition with parameter ε/3, then two rounds of expander
/// refinement inside every cluster — achieving conductance
/// `Ω(ε / (log 1/ε + log Δ))` independent of n.
pub fn minor_free_expander_decomposition(g: &Graph, epsilon: f64) -> ExpanderDecomposition {
    assert!(epsilon > 0.0 && epsilon < 1.0);
    let delta = g.max_degree().max(2) as f64;
    let phi_target = (epsilon / 3.0) / (4.0 * ((1.0 / epsilon).log2() + delta.log2()).max(1.0));

    // Step 1: low-diameter decomposition with parameter ε/3.
    let ldd = chop_ldd(g, epsilon / 3.0, 3);
    // Steps 2 and 3: refine every cluster by the sparse-cut recursion, with the
    // conductance target of Observation 3.1.
    let mut labels: Vec<usize> = ldd.labels().to_vec();
    let mut next = ldd.num_clusters();
    for _round in 0..2 {
        let current = Clustering::from_labels(g, labels.clone());
        let mut new_labels = labels.clone();
        for c in 0..current.num_clusters() {
            let members = current.members(c).to_vec();
            if members.len() <= 1 {
                continue;
            }
            let (sub, map) = g.induced_subgraph(&members);
            let inner = expander_decomposition_with_phi(&sub, phi_target);
            for (i, &orig) in map.iter().enumerate() {
                let inner_cluster = inner.clustering.cluster_of(i);
                if inner_cluster != 0 {
                    new_labels[orig] = next + inner_cluster;
                }
            }
            next += inner.clustering.num_clusters();
        }
        labels = new_labels;
    }
    let clustering = Clustering::from_labels(g, labels).split_into_components(g);
    let edge_fraction = clustering.edge_fraction(g);
    ExpanderDecomposition {
        clustering,
        phi_target,
        edge_fraction,
    }
}

/// Measures the minimum cluster conductance of a clustering: exact for small
/// clusters, sweep-cut estimate (an upper bound on the true conductance) otherwise.
/// Singleton clusters are skipped, matching the definition of an expander
/// decomposition.
pub fn min_cluster_conductance(g: &Graph, clustering: &Clustering, sweep_iterations: usize) -> f64 {
    let mut min_phi = f64::INFINITY;
    for c in 0..clustering.num_clusters() {
        let members = clustering.members(c);
        if members.len() <= 1 {
            continue;
        }
        let (sub, _) = g.induced_subgraph(members);
        if sub.m() == 0 {
            min_phi = 0.0;
            continue;
        }
        let phi = if sub.n() <= max_exact_conductance_vertices() {
            conductance_exact(&sub).map_or(f64::INFINITY, |c| c.conductance)
        } else {
            spectral_sweep_cut(&sub, sweep_iterations)
                .map(|c| c.conductance)
                .unwrap_or(f64::INFINITY)
        };
        min_phi = min_phi.min(phi);
    }
    min_phi
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_graph::generators;

    /// Fact 3.1's threshold `φ = ε / (4·log₂ m)`.
    fn fact_3_1(g: &Graph, epsilon: f64) -> ExpanderDecomposition {
        let m = g.m().max(2) as f64;
        expander_decomposition_with_phi(g, epsilon / (4.0 * m.log2()))
    }

    #[test]
    fn fact_3_1_respects_the_edge_budget() {
        for g in [
            generators::triangulated_grid(8, 8),
            generators::random_apollonian(150, 2),
            generators::hypercube(6),
        ] {
            let eps = 0.4;
            let d = fact_3_1(&g, eps);
            assert!(
                d.edge_fraction <= eps + 0.25,
                "fraction {}",
                d.edge_fraction
            );
            assert!(d.clustering.all_clusters_connected(&g));
        }
    }

    #[test]
    fn expanders_stay_in_one_piece() {
        // A hypercube has conductance 1/d, far above the tiny phi target for
        // moderate epsilon, so the decomposition should keep it whole.
        let g = generators::hypercube(6);
        let d = expander_decomposition_with_phi(&g, 0.01);
        assert_eq!(d.clustering.num_clusters(), 1);
        assert!((d.edge_fraction - 0.0).abs() < 1e-12);
    }

    #[test]
    fn barbell_is_split_at_the_bottleneck() {
        let k = generators::complete(8);
        let g = Graph::from_edges(16, k.disjoint_union(&k).edges().chain([(0, 8)]));
        let d = expander_decomposition_with_phi(&g, 0.05);
        assert!(d.clustering.num_clusters() >= 2);
        assert_eq!(d.clustering.inter_cluster_edges(&g), 1);
    }

    #[test]
    fn produced_clusters_have_decent_conductance() {
        let g = generators::triangulated_grid(9, 9);
        let d = fact_3_1(&g, 0.5);
        let phi = min_cluster_conductance(&g, &d.clustering, 80);
        // The sweep-based certification is heuristic; still, no produced cluster
        // should have conductance an order of magnitude below the target.
        assert!(
            phi >= d.phi_target / 16.0,
            "phi {} target {}",
            phi,
            d.phi_target
        );
    }

    #[test]
    fn observation_3_1_keeps_edge_budget_on_minor_free_graphs() {
        let g = generators::random_apollonian(200, 11);
        let eps = 0.45;
        let d = minor_free_expander_decomposition(&g, eps);
        assert!(d.edge_fraction <= eps + 0.3, "fraction {}", d.edge_fraction);
        assert!(d.clustering.all_clusters_connected(&g));
        assert!(d.phi_target > 0.0);
    }
}
