//! Expander decompositions with overlapping clusters (paper §4, Lemmas 4.1/4.4).
//!
//! An `(ε, φ, c)` expander decomposition partitions the vertex set into clusters and
//! associates with every cluster `S` a subgraph `G_S ⊇ G[S]` such that: at most
//! `ε|E|` edges cross clusters, every associated subgraph is a φ-expander (or a
//! single vertex), and every vertex belongs to at most `c` associated subgraphs.
//! Allowing this slight overlap is what lets the bottom-up merging keep the
//! conductance from collapsing: before merging a heavy star, vertices that are too
//! weakly connected to their cluster are peeled into singletons (Step 1) and light
//! star links are dropped (Step 3), so each merge degrades conductance by at most an
//! O(ε/α²c²) factor (Lemma 4.5) and the overlap grows by at most one per iteration.
//!
//! The implementation follows the four steps of Lemma 4.4 literally and iterates them
//! as in Lemma 4.1. Round accounting: the information-gathering inside each `G_S`
//! uses the metered BFS-tree gather (a legitimate CONGEST routing algorithm; the
//! paper uses the §2 expander gatherers to obtain its stated bounds — see
//! docs/ARCHITECTURE.md, "mfd-routing"),
//! and cluster-graph steps are charged with the O(c·D) dilation/congestion factors
//! the paper describes.

use mfd_congest::RoundMeter;
use mfd_graph::Graph;
use mfd_routing::gather::tree_gather;

use crate::clustering::Clustering;
use crate::heavy_stars::heavy_stars;

/// One cluster of an overlap decomposition: its partition members and its associated
/// subgraph `G_S`.
#[derive(Debug, Clone)]
pub struct OverlapCluster {
    /// Vertices of the partition class `S`.
    pub members: Vec<usize>,
    /// Vertices of the associated subgraph `G_S` (a superset of `members` in general).
    pub subgraph_vertices: Vec<usize>,
    /// Edges of the associated subgraph `G_S` (pairs of vertices of `G`).
    pub subgraph_edges: Vec<(usize, usize)>,
}

impl OverlapCluster {
    fn singleton(v: usize) -> Self {
        OverlapCluster {
            members: vec![v],
            subgraph_vertices: vec![v],
            subgraph_edges: Vec::new(),
        }
    }

    /// Degree of `v` inside the associated subgraph `G_S`.
    fn subgraph_degree(&self, v: usize) -> usize {
        self.subgraph_edges
            .iter()
            .filter(|&&(a, b)| a == v || b == v)
            .count()
    }
}

/// An `(ε, φ, c)` expander decomposition with overlaps.
#[derive(Debug, Clone)]
pub struct OverlapDecomposition {
    /// The clusters (partition classes plus associated subgraphs).
    pub clusters: Vec<OverlapCluster>,
    /// Fraction of inter-cluster edges achieved.
    pub edge_fraction: f64,
    /// Maximum number of associated subgraphs any vertex belongs to (the overlap `c`).
    pub overlap: usize,
    /// Number of merge iterations performed.
    pub iterations: usize,
}

impl OverlapDecomposition {
    /// Checks the structural invariants: the members form a partition, every
    /// associated subgraph contains its cluster's induced subgraph, and the overlap
    /// matches the recorded value.
    pub fn check_invariants(&self, g: &Graph) -> bool {
        let mut member_of = vec![usize::MAX; g.n()];
        for (ci, c) in self.clusters.iter().enumerate() {
            for &v in &c.members {
                if member_of[v] != usize::MAX {
                    return false;
                }
                member_of[v] = ci;
            }
        }
        if member_of.contains(&usize::MAX) {
            return false;
        }
        // in_subgraph[v] == ci: `v` is a vertex of cluster ci's G_S.
        let mut in_subgraph = vec![usize::MAX; g.n()];
        for (ci, c) in self.clusters.iter().enumerate() {
            for &v in &c.subgraph_vertices {
                in_subgraph[v] = ci;
            }
            let mut edges: Vec<(usize, usize)> = c
                .subgraph_edges
                .iter()
                .map(|&(a, b)| (a.min(b), a.max(b)))
                .collect();
            edges.sort_unstable();
            // Members inside G_S, and G[S] ⊆ G_S.
            let inside = |u: usize| {
                in_subgraph[u] == ci
                    && g.neighbors(u).iter().all(|&w| {
                        u > w || member_of[w] != ci || edges.binary_search(&(u, w)).is_ok()
                    })
            };
            if !c.members.iter().all(|&u| inside(u)) {
                return false;
            }
        }
        let mut counts = vec![0usize; g.n()];
        for c in &self.clusters {
            for &v in &c.subgraph_vertices {
                counts[v] += 1;
            }
        }
        counts.iter().copied().max().unwrap_or(0) <= self.overlap
    }
}

/// Parameters for the overlap decomposition.
#[derive(Debug, Clone)]
pub struct OverlapParams {
    /// Arboricity upper bound `α` for the (minor-free) input family.
    pub alpha: usize,
}

impl Default for OverlapParams {
    fn default() -> Self {
        OverlapParams { alpha: 3 }
    }
}

/// Maximum number of merge iterations.
const MAX_ITERATIONS: usize = 64;

/// Computes an `(ε, φ, c)` expander decomposition with overlaps by iterating the
/// four-step merge of Lemma 4.4 until at most an `ε` fraction of the edges cross
/// clusters. Rounds are charged on `meter`.
pub fn overlap_expander_decomposition(
    g: &Graph,
    epsilon: f64,
    params: &OverlapParams,
    meter: &mut RoundMeter,
) -> OverlapDecomposition {
    assert!(epsilon > 0.0 && epsilon <= 1.0);
    let alpha = params.alpha.max(1) as f64;
    let mut clusters: Vec<OverlapCluster> = (0..g.n()).map(OverlapCluster::singleton).collect();
    let mut iterations = 0usize;
    let mut overlap_bound = 1usize;

    loop {
        let clustering = clustering_of(g, &clusters);
        let fraction = clustering.edge_fraction(g);
        if fraction <= epsilon || iterations >= MAX_ITERATIONS || g.m() == 0 {
            let overlap = measured_overlap(g, &clusters);
            return OverlapDecomposition {
                clusters,
                edge_fraction: fraction,
                overlap,
                iterations,
            };
        }
        iterations += 1;
        let c_bound = overlap_bound as f64;

        // ---- Step 1: peel weakly attached vertices into singletons. ----
        meter.start_phase("overlap-step1");
        let mut new_singletons: Vec<OverlapCluster> = Vec::new();
        for cluster in clusters.iter_mut() {
            if cluster.members.len() <= 1 {
                continue;
            }
            let mut keep = Vec::new();
            for &u in &cluster.members {
                let deg_in = cluster.subgraph_degree(u);
                if (deg_in as f64) * 34.0 * alpha <= g.degree(u) as f64 && g.degree(u) > 0 {
                    // Too weakly attached: becomes a singleton cluster. The old
                    // associated subgraph keeps u (this is what makes the overlap
                    // grow by at most one).
                    new_singletons.push(OverlapCluster::singleton(u));
                } else {
                    keep.push(u);
                }
            }
            cluster.members = keep;
        }
        clusters.retain(|c| !c.members.is_empty());
        clusters.extend(new_singletons);
        // Steps 1, 3, 4 cost O(c·D) cluster rounds each.
        let max_diam = max_subgraph_diameter(g, &clusters);
        meter.charge_rounds((overlap_bound as u64) * (max_diam as u64 + 1));
        meter.end_phase();

        // ---- Step 2: heavy stars on the cluster graph. ----
        meter.start_phase("overlap-step2");
        let clustering = clustering_of(g, &clusters);
        // Information gathering inside each associated subgraph so the leader can
        // pick the heaviest incident cluster: metered tree gather, run in parallel.
        let mut sub_meters = Vec::new();
        for cluster in &clusters {
            if cluster.members.len() <= 1 || cluster.subgraph_edges.is_empty() {
                continue;
            }
            let (sub, _map) = g.induced_subgraph(&cluster.subgraph_vertices);
            if sub.m() == 0 {
                continue;
            }
            let leader = (0..sub.n()).max_by_key(|&v| sub.degree(v)).unwrap_or(0);
            let mut sm = RoundMeter::new();
            tree_gather(&sub, leader, &mut sm);
            sub_meters.push(sm);
        }
        // The overlap means up to `c` subgraphs share an edge: the paper charges the
        // congestion factor c.
        let mut gather_meter = RoundMeter::new();
        gather_meter.merge_parallel(sub_meters.iter());
        meter.charge_rounds(gather_meter.rounds() * overlap_bound as u64);
        meter.charge_messages(gather_meter.messages());

        let wg = clustering.cluster_graph(g);
        let hs = heavy_stars(&wg);
        meter.charge_rounds(
            hs.cluster_graph_rounds * (overlap_bound as u64) * (max_diam as u64 + 1),
        );
        meter.end_phase();

        // ---- Step 3: drop light links. ----
        meter.start_phase("overlap-step34");
        let threshold_factor = fraction / (64.0 * alpha * (c_bound + 1.0));
        let vol_of = |cl: &OverlapCluster| -> f64 {
            cl.subgraph_vertices
                .iter()
                .map(|&v| g.degree(v) as f64)
                .sum()
        };
        let mut group: Vec<usize> = (0..clusters.len()).collect();
        for star in &hs.stars {
            for &leaf in &star.leaves {
                let weight = wg.weight(leaf, star.center) as f64;
                if weight > threshold_factor * vol_of(&clusters[leaf]) {
                    group[leaf] = star.center;
                }
            }
        }

        // ---- Step 4: contract the surviving stars. ----
        let mut merged: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (i, &gidx) in group.iter().enumerate() {
            merged.entry(gidx).or_default().push(i);
        }
        let mut next_clusters: Vec<OverlapCluster> = Vec::new();
        // owner[v]: the cluster `v` is a member of (the members partition V).
        let mut owner = vec![0usize; g.n()];
        for (i, c) in clusters.iter().enumerate() {
            for &v in &c.members {
                owner[v] = i;
            }
        }
        for (_center, parts) in merged {
            if parts.len() == 1 {
                next_clusters.push(clusters[parts[0]].clone());
                continue;
            }
            let mut members = Vec::new();
            let mut sub_vertices: Vec<usize> = Vec::new();
            let mut sub_edges: Vec<(usize, usize)> = Vec::new();
            for &p in &parts {
                members.extend_from_slice(&clusters[p].members);
                sub_vertices.extend_from_slice(&clusters[p].subgraph_vertices);
                sub_edges.extend_from_slice(&clusters[p].subgraph_edges);
            }
            sub_vertices.sort_unstable();
            sub_vertices.dedup();
            // Add all inter-cluster edges between the star's partition classes.
            for &p in &parts {
                for &v in &clusters[p].members {
                    for &w in g.neighbors(v) {
                        let q = owner[w];
                        if v < w && q != p && group[q] == group[p] {
                            sub_edges.push((v, w));
                        }
                    }
                }
            }
            sub_edges.sort_unstable_by_key(|&(a, b)| (a.min(b), a.max(b)));
            sub_edges.dedup_by_key(|&mut (a, b)| (a.min(b), a.max(b)));
            next_clusters.push(OverlapCluster {
                members,
                subgraph_vertices: sub_vertices,
                subgraph_edges: sub_edges,
            });
        }
        clusters = next_clusters;
        overlap_bound += 1;
        meter.charge_rounds(2 * (overlap_bound as u64) * (max_diam as u64 + 1));
        meter.end_phase();
    }
}

fn clustering_of(g: &Graph, clusters: &[OverlapCluster]) -> Clustering {
    let mut labels = vec![0usize; g.n()];
    for (i, c) in clusters.iter().enumerate() {
        for &v in &c.members {
            labels[v] = i;
        }
    }
    Clustering::from_labels(g, labels)
}

fn measured_overlap(g: &Graph, clusters: &[OverlapCluster]) -> usize {
    let mut counts = vec![0usize; g.n()];
    for c in clusters {
        for &v in &c.subgraph_vertices {
            counts[v] += 1;
        }
    }
    counts.into_iter().max().unwrap_or(0)
}

fn max_subgraph_diameter(g: &Graph, clusters: &[OverlapCluster]) -> usize {
    let mut best = 0usize;
    for c in clusters {
        if c.subgraph_vertices.len() <= 1 {
            continue;
        }
        // Two BFS passes over the subgraph induced by V(G_S) give a cheap lower-bound
        // diameter estimate (used only for round charging).
        let (sub2, _) = g.induced_subgraph(&c.subgraph_vertices);
        let dist = sub2.bfs_distances(0);
        let (far, d) = dist
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != usize::MAX)
            .max_by_key(|&(_, &d)| d)
            .map(|(v, &d)| (v, d))
            .unwrap_or((0, 0));
        let dist2 = sub2.bfs_distances(far);
        let d2 = dist2
            .iter()
            .filter(|&&x| x != usize::MAX)
            .max()
            .copied()
            .unwrap_or(d);
        best = best.max(d2);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_graph::generators;
    use mfd_graph::properties::{
        conductance_exact, max_exact_conductance_vertices, spectral_sweep_cut,
    };

    fn check_quality(g: &Graph, eps: f64) -> OverlapDecomposition {
        let mut meter = RoundMeter::new();
        let d = overlap_expander_decomposition(g, eps, &OverlapParams::default(), &mut meter);
        assert!(
            d.edge_fraction <= eps + 1e-9,
            "fraction {}",
            d.edge_fraction
        );
        assert!(d.check_invariants(g));
        assert!(meter.rounds() > 0);
        assert!(
            d.overlap <= d.iterations + 1,
            "overlap {} iterations {}",
            d.overlap,
            d.iterations
        );
        d
    }

    #[test]
    fn triangulated_grid_reaches_target_fraction() {
        let g = generators::triangulated_grid(8, 8);
        let d = check_quality(&g, 0.3);
        assert!(d.clusters.len() < g.n());
    }

    #[test]
    fn apollonian_reaches_target_fraction() {
        let g = generators::random_apollonian(150, 4);
        check_quality(&g, 0.35);
    }

    #[test]
    fn grid_reaches_target_fraction() {
        let g = generators::grid(10, 10);
        check_quality(&g, 0.4);
    }

    #[test]
    fn associated_subgraphs_are_connected_and_not_too_sparse() {
        let g = generators::triangulated_grid(7, 7);
        let mut meter = RoundMeter::new();
        let d = overlap_expander_decomposition(&g, 0.3, &OverlapParams::default(), &mut meter);
        for c in &d.clusters {
            if c.subgraph_edges.is_empty() {
                continue;
            }
            // Build the associated subgraph and check connectivity + conductance.
            let verts = &c.subgraph_vertices;
            let index_of = |v: usize| verts.iter().position(|&x| x == v).unwrap();
            let edges = c
                .subgraph_edges
                .iter()
                .map(|&(a, b)| (index_of(a), index_of(b)));
            let sub = Graph::from_edges(verts.len(), edges);
            assert!(sub.is_connected(), "associated subgraph must be connected");
            let phi = if sub.n() <= max_exact_conductance_vertices() {
                conductance_exact(&sub).map_or(1.0, |c| c.conductance)
            } else {
                spectral_sweep_cut(&sub, 60)
                    .map(|c| c.conductance)
                    .unwrap_or(1.0)
            };
            assert!(phi > 0.0);
        }
    }

    #[test]
    fn trivial_target_returns_singletons() {
        let g = generators::cycle(10);
        let mut meter = RoundMeter::new();
        let d = overlap_expander_decomposition(&g, 1.0, &OverlapParams::default(), &mut meter);
        assert_eq!(d.clusters.len(), 10);
        assert_eq!(d.iterations, 0);
        assert_eq!(d.overlap, 1);
    }

    use mfd_graph::Graph;
}
