//! Low-diameter decompositions (paper Lemma 3.1 and Corollary 6.1).
//!
//! Two deterministic constructions are provided:
//!
//! * [`chop_ldd`] — iterated BFS-band chopping in the style of Klein–Plotkin–Rao
//!   (the construction behind Lemma 3.1 for H-minor-free graphs): `depth` rounds of
//!   chopping BFS layerings into bands of width `⌈depth/ε⌉`, choosing at every level
//!   the offset that cuts the fewest edges (the deterministic replacement for the
//!   random offset). Each chop cuts at most a `1/width` fraction of the edges, so the
//!   total is at most `ε·m`. Cluster diameters are measured by the callers; on the
//!   minor-free families of this library they track `O(depth/ε)`.
//! * [`region_growing_ldd`] — classic ball growing with the `(1+ε)`-volume stopping
//!   rule; it guarantees at most `ε·m` cut edges and radius `O(log m / ε)` on *any*
//!   graph, and serves as the general-graph baseline the paper compares against.
//!
//! Both run either on the whole graph or within a vertex mask (the latter is how
//! cluster leaders use them as local computations in Lemmas 5.4/5.5).

use mfd_graph::Graph;

use crate::clustering::Clustering;

/// Iterated BFS-band chopping (deterministic KPR-style LDD).
///
/// `epsilon` bounds the fraction of cut edges; `depth` is the number of chopping
/// rounds (3 is the classic choice for planar graphs, larger for richer minors).
/// All clusters of the result induce connected subgraphs.
pub fn chop_ldd(g: &Graph, epsilon: f64, depth: usize) -> Clustering {
    assert!(epsilon > 0.0, "epsilon must be positive");
    let depth = depth.max(1);
    let width = ((depth as f64 / epsilon).ceil() as usize).max(1);
    let mut clustering = Clustering::from_labels(g, vec![0; g.n()]);
    if g.n() == 0 {
        return clustering;
    }
    for _ in 0..depth {
        let mut sub_label = vec![0usize; g.n()];
        for c in 0..clustering.num_clusters() {
            let members = clustering.members(c).to_vec();
            let bands = chop_once(g, &members, width);
            for (i, &v) in members.iter().enumerate() {
                sub_label[v] = bands[i];
            }
        }
        clustering = clustering.refine(&sub_label);
    }
    clustering.split_into_components(g)
}

/// Chops the subgraph induced by `members` into BFS bands of width `width`, choosing
/// the offset that minimizes the number of cut edges. Returns one band index per
/// member (in the order of `members`).
fn chop_once(g: &Graph, members: &[usize], width: usize) -> Vec<usize> {
    let n = g.n();
    if members.len() <= 1 || width <= 1 {
        return vec![0; members.len()];
    }
    let mut in_set = vec![false; n];
    for &v in members {
        in_set[v] = true;
    }
    // BFS layering of the induced subgraph (components handled one after another,
    // each starting again at distance 0 from its own root).
    let mut dist = vec![usize::MAX; n];
    for &start in members {
        if dist[start] != usize::MAX {
            continue;
        }
        let levels = g.bfs_distances_within(start, &in_set);
        for &v in members {
            if dist[v] == usize::MAX && levels[v] != usize::MAX {
                dist[v] = levels[v];
            }
        }
    }
    // Count, for every layer l, the number of edges between layer l and l+1.
    let max_layer = members.iter().map(|&v| dist[v]).max().unwrap_or(0);
    let mut layer_cut = vec![0usize; max_layer + 2];
    for &v in members {
        for &u in g.neighbors(v) {
            if in_set[u] && v < u {
                let (a, b) = (dist[v].min(dist[u]), dist[v].max(dist[u]));
                if b == a + 1 {
                    layer_cut[a] += 1;
                }
            }
        }
    }
    // Offset o cuts every boundary between layers l and l+1 with (l + 1) ≡ o (mod w).
    let mut best_offset = 0usize;
    let mut best_cut = usize::MAX;
    for o in 0..width {
        let mut cut = 0usize;
        let mut boundary = if o == 0 { width } else { o };
        while boundary <= max_layer + 1 {
            if boundary >= 1 {
                cut += layer_cut[boundary - 1];
            }
            boundary += width;
        }
        if cut < best_cut {
            best_cut = cut;
            best_offset = o;
        }
    }
    let o = best_offset;
    members
        .iter()
        .map(|&v| {
            let d = dist[v];
            if o == 0 {
                d / width
            } else if d < o {
                0
            } else {
                (d - o) / width + 1
            }
        })
        .collect()
}

/// Ball-growing low-diameter decomposition with the `(1+ε)` stopping rule
/// (the generic-graph baseline): grows balls until the boundary is at most an
/// `ε` fraction of the edges already swallowed. Guarantees at most `ε·m` cut edges
/// and ball radius `O(log m / ε)`.
pub fn region_growing_ldd(g: &Graph, epsilon: f64) -> Clustering {
    assert!(epsilon > 0.0);
    let n = g.n();
    let mut assigned = vec![false; n];
    let mut labels = vec![0usize; n];
    let mut next_label = 0usize;
    for start in 0..n {
        if assigned[start] {
            continue;
        }
        // Grow a ball around `start` in the unassigned subgraph.
        let mut ball = vec![start];
        let mut in_ball = vec![false; n];
        in_ball[start] = true;
        loop {
            // Count internal and boundary edges of the current ball (within the
            // unassigned region).
            let mut internal = 0usize;
            let mut boundary_edges = 0usize;
            let mut next_frontier = Vec::new();
            let mut seen_next = vec![false; n];
            for &v in &ball {
                for &u in g.neighbors(v) {
                    if assigned[u] {
                        continue;
                    }
                    if in_ball[u] {
                        if v < u {
                            internal += 1;
                        }
                    } else {
                        boundary_edges += 1;
                        if !seen_next[u] {
                            seen_next[u] = true;
                            next_frontier.push(u);
                        }
                    }
                }
            }
            if boundary_edges as f64 <= epsilon * (internal as f64 + 1.0)
                || next_frontier.is_empty()
            {
                break;
            }
            for &u in &next_frontier {
                in_ball[u] = true;
                ball.push(u);
            }
        }
        for &v in &ball {
            assigned[v] = true;
            labels[v] = next_label;
        }
        next_label += 1;
    }
    Clustering::from_labels(g, labels).split_into_components(g)
}

/// Multi-source "Voronoi" low-diameter clustering: every vertex joins the
/// center at minimum BFS distance, breaking distance ties towards the
/// smallest center id.
///
/// This is the cluster-assignment flood at the heart of every LDD once
/// centers are fixed (for region growing, the centers are the grown balls'
/// seeds), and it is exactly the computation the message-passing port
/// [`crate::programs::VoronoiLddProgram`] executes; the two are differentially
/// validated against each other. Cells are always connected: along a shortest
/// path to the owning center, every vertex prefers that same center.
/// Vertices unreachable from every center become singleton clusters.
///
/// # Panics
///
/// Panics if `centers` is empty while `g` has vertices, or contains an
/// out-of-range vertex.
pub fn voronoi_ldd(g: &Graph, centers: &[usize]) -> Clustering {
    let n = g.n();
    if n == 0 {
        return Clustering::from_labels(g, Vec::new());
    }
    assert!(!centers.is_empty(), "at least one center is required");
    let mut dist = vec![usize::MAX; n];
    let mut label = vec![usize::MAX; n];
    let mut frontier: Vec<usize> = Vec::new();
    for &c in centers {
        assert!(c < n, "center out of range");
        if dist[c] != usize::MAX {
            continue;
        }
        dist[c] = 0;
        label[c] = c;
        frontier.push(c);
    }
    // Level-synchronous multi-source BFS; within a level, a vertex adopts the
    // smallest label offered by any neighbour one level closer.
    while !frontier.is_empty() {
        let mut next: Vec<usize> = Vec::new();
        for &v in &frontier {
            for &u in g.neighbors(v) {
                if dist[u] == usize::MAX {
                    dist[u] = dist[v] + 1;
                    next.push(u);
                }
            }
        }
        for &u in &next {
            label[u] = g
                .neighbors(u)
                .iter()
                .filter(|&&w| dist[w] != usize::MAX && dist[w] + 1 == dist[u])
                .map(|&w| label[w])
                .min()
                .expect("frontier vertex has a predecessor");
        }
        frontier = next;
    }
    // Unreached vertices become their own clusters.
    for (v, l) in label.iter_mut().enumerate() {
        if *l == usize::MAX {
            *l = v;
        }
    }
    Clustering::from_labels(g, label)
}

/// Convenience: runs [`chop_ldd`] and reports the measured quality.
#[derive(Debug, Clone)]
pub struct LddQuality {
    /// Fraction of edges cut.
    pub edge_fraction: f64,
    /// Maximum induced cluster diameter.
    pub max_diameter: usize,
    /// Number of clusters.
    pub clusters: usize,
}

/// Measures the quality of a clustering as a low-diameter decomposition.
pub fn measure_ldd(g: &Graph, clustering: &Clustering) -> LddQuality {
    LddQuality {
        edge_fraction: clustering.edge_fraction(g),
        max_diameter: clustering.max_cluster_diameter(g).unwrap_or(usize::MAX),
        clusters: clustering.num_clusters(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_graph::generators;

    #[test]
    fn chop_ldd_respects_edge_budget_on_planar_families() {
        for (g, eps) in [
            (generators::triangulated_grid(12, 12), 0.3),
            (generators::random_apollonian(300, 7), 0.25),
            (generators::grid(10, 20), 0.2),
            (generators::wheel(60), 0.3),
        ] {
            let c = chop_ldd(&g, eps, 3);
            let q = measure_ldd(&g, &c);
            assert!(
                q.edge_fraction <= eps + 1e-9,
                "fraction {} > eps {}",
                q.edge_fraction,
                eps
            );
            assert!(c.all_clusters_connected(&g));
            assert!(q.max_diameter < usize::MAX);
        }
    }

    #[test]
    fn chop_ldd_diameter_scales_inversely_with_epsilon() {
        let g = generators::grid(24, 24);
        let coarse = measure_ldd(&g, &chop_ldd(&g, 0.5, 3));
        let fine = measure_ldd(&g, &chop_ldd(&g, 0.05, 3));
        // Smaller epsilon must allow (much) larger clusters.
        assert!(fine.max_diameter >= coarse.max_diameter);
        assert!(fine.edge_fraction <= 0.05 + 1e-9);
        assert!(coarse.edge_fraction <= 0.5 + 1e-9);
    }

    #[test]
    fn region_growing_respects_edge_budget() {
        for g in [
            generators::triangulated_grid(10, 10),
            generators::random_apollonian(200, 3),
            generators::hypercube(7),
        ] {
            let eps = 0.3;
            let c = region_growing_ldd(&g, eps);
            // The stopping rule bounds boundary edges per ball by eps*(internal+1);
            // summed over balls this is at most eps*(m + #balls).
            let q = measure_ldd(&g, &c);
            assert!(
                q.edge_fraction <= eps * (1.0 + c.num_clusters() as f64 / g.m() as f64) + 1e-9,
                "fraction {}",
                q.edge_fraction
            );
            assert!(c.all_clusters_connected(&g));
        }
    }

    #[test]
    fn voronoi_cells_are_connected_and_cover() {
        for g in [
            generators::triangulated_grid(10, 10),
            generators::wheel(40),
            generators::hypercube(6),
        ] {
            // Seed the Voronoi assignment with the region-growing ball seeds.
            let rg = region_growing_ldd(&g, 0.3);
            let centers: Vec<usize> = rg
                .clusters()
                .map(|members| members.iter().copied().min().unwrap())
                .collect();
            let c = voronoi_ldd(&g, &centers);
            assert_eq!(c.labels().len(), g.n());
            assert!(c.all_clusters_connected(&g));
            assert_eq!(c.num_clusters(), centers.len());
        }
    }

    #[test]
    fn voronoi_ties_break_to_smallest_center() {
        // Path 0-1-2-3-4 with centers 0 and 4: vertex 2 is equidistant and
        // must join center 0.
        let g = generators::path(5);
        let c = voronoi_ldd(&g, &[0, 4]);
        assert_eq!(c.cluster_of(2), c.cluster_of(0));
        assert_ne!(c.cluster_of(2), c.cluster_of(4));
    }

    #[test]
    fn voronoi_handles_unreachable_vertices() {
        let g = Graph::from_edges(4, [(0, 1)]);
        let c = voronoi_ldd(&g, &[0]);
        assert_eq!(c.cluster_of(0), c.cluster_of(1));
        assert_ne!(c.cluster_of(2), c.cluster_of(3));
        assert_eq!(c.num_clusters(), 3);
    }

    #[test]
    fn singleton_and_trivial_inputs() {
        let g = Graph::new(5);
        let c = chop_ldd(&g, 0.5, 3);
        assert_eq!(c.num_clusters(), 5);
        let path = generators::path(2);
        let c2 = chop_ldd(&path, 0.9, 2);
        assert!(c2.edge_fraction(&path) <= 0.9 + 1e-9);
    }

    #[test]
    fn whole_graph_when_epsilon_is_loose_and_graph_small() {
        // With a very loose epsilon and small diameter, the chop keeps everything in
        // few clusters.
        let g = generators::grid(4, 4);
        let c = chop_ldd(&g, 0.9, 1);
        assert!(c.num_clusters() <= 4);
    }

    use mfd_graph::Graph;
}
