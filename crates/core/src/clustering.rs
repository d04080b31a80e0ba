//! Clusterings (vertex partitions) and validators for the paper's decomposition
//! notions.

use mfd_graph::{Graph, WeightedGraph};

/// A partition of the vertex set into clusters.
///
/// `cluster_of[v]` is the cluster index of vertex `v`; cluster indices are contiguous
/// `0..k`. The member lists are kept alongside for convenient per-cluster iteration.
///
/// # Example
///
/// ```
/// use mfd_core::Clustering;
/// use mfd_graph::generators;
///
/// let g = generators::path(6);
/// let c = Clustering::from_labels(&g, vec![0, 0, 0, 1, 1, 1]);
/// assert_eq!(c.num_clusters(), 2);
/// assert_eq!(c.inter_cluster_edges(&g), 1);
/// assert!(c.edge_fraction(&g) < 0.21);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    cluster_of: Vec<usize>,
    members: Vec<Vec<usize>>,
}

impl Clustering {
    /// The trivial clustering where every vertex is its own cluster.
    pub fn singletons(g: &Graph) -> Self {
        let cluster_of: Vec<usize> = (0..g.n()).collect();
        let members: Vec<Vec<usize>> = (0..g.n()).map(|v| vec![v]).collect();
        Clustering {
            cluster_of,
            members,
        }
    }

    /// Builds a clustering from labels. Labels are compacted to `0..k` preserving the
    /// order of first appearance.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != g.n()`.
    pub fn from_labels(g: &Graph, labels: Vec<usize>) -> Self {
        assert_eq!(labels.len(), g.n(), "one label per vertex required");
        let mut remap: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        let mut cluster_of = vec![0usize; g.n()];
        for (v, &l) in labels.iter().enumerate() {
            let next = remap.len();
            let id = *remap.entry(l).or_insert(next);
            cluster_of[v] = id;
        }
        let k = remap.len();
        let mut members = vec![Vec::new(); k];
        for (v, &c) in cluster_of.iter().enumerate() {
            members[c].push(v);
        }
        Clustering {
            cluster_of,
            members,
        }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.members.len()
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.cluster_of.len()
    }

    /// Cluster index of vertex `v`.
    pub fn cluster_of(&self, v: usize) -> usize {
        self.cluster_of[v]
    }

    /// All cluster labels (one per vertex).
    pub fn labels(&self) -> &[usize] {
        &self.cluster_of
    }

    /// Members of cluster `c`.
    pub fn members(&self, c: usize) -> &[usize] {
        &self.members[c]
    }

    /// Iterator over cluster member lists.
    pub fn clusters(&self) -> impl Iterator<Item = &[usize]> {
        self.members.iter().map(|m| m.as_slice())
    }

    /// Membership mask for cluster `c`.
    pub fn mask(&self, c: usize) -> Vec<bool> {
        let mut mask = vec![false; self.cluster_of.len()];
        for &v in &self.members[c] {
            mask[v] = true;
        }
        mask
    }

    /// Number of edges of `g` whose endpoints lie in different clusters.
    pub fn inter_cluster_edges(&self, g: &Graph) -> usize {
        g.inter_cluster_edges(&self.cluster_of)
    }

    /// Fraction of edges that are inter-cluster (0.0 for an edgeless graph).
    pub fn edge_fraction(&self, g: &Graph) -> f64 {
        if g.m() == 0 {
            0.0
        } else {
            self.inter_cluster_edges(g) as f64 / g.m() as f64
        }
    }

    /// Weighted cluster graph: one vertex per cluster, edge weights = number of
    /// crossing edges.
    pub fn cluster_graph(&self, g: &Graph) -> WeightedGraph {
        g.quotient(&self.cluster_of)
    }

    /// Induced diameter of every cluster, computed in one pass.
    ///
    /// Per-cluster entry is `None` if that cluster induces a disconnected
    /// subgraph. Equivalent to [`Graph::induced_diameter`] over each cluster's
    /// membership mask, but the BFS uses the label array as the membership
    /// test and a shared distance scratch (reset through a touched list), so
    /// the total cost is `Σ_c |c|·(|c| + vol(c))` instead of `O(n²)` — the
    /// difference between seconds and hours on million-vertex graphs.
    pub fn cluster_diameters(&self, g: &Graph) -> Vec<Option<usize>> {
        let n = self.cluster_of.len();
        let mut dist = vec![usize::MAX; n];
        let mut touched: Vec<usize> = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        let mut out = Vec::with_capacity(self.num_clusters());
        for (c, members) in self.members.iter().enumerate() {
            let mut diam = Some(0usize);
            for &src in members {
                let mut ecc = 0usize;
                let mut reached = 1usize;
                dist[src] = 0;
                touched.push(src);
                queue.push_back(src);
                while let Some(u) = queue.pop_front() {
                    for &v in g.neighbors(u) {
                        if self.cluster_of[v] == c && dist[v] == usize::MAX {
                            dist[v] = dist[u] + 1;
                            ecc = ecc.max(dist[v]);
                            reached += 1;
                            touched.push(v);
                            queue.push_back(v);
                        }
                    }
                }
                for v in touched.drain(..) {
                    dist[v] = usize::MAX;
                }
                if reached != members.len() {
                    diam = None;
                    break;
                }
                diam = diam.map(|d| d.max(ecc));
            }
            out.push(diam);
        }
        out
    }

    /// Maximum induced diameter over all clusters. Returns `None` if some cluster
    /// induces a disconnected subgraph.
    pub fn max_cluster_diameter(&self, g: &Graph) -> Option<usize> {
        let mut best = 0usize;
        for d in self.cluster_diameters(g) {
            best = best.max(d?);
        }
        Some(best)
    }

    /// `true` if every cluster induces a connected subgraph of `g` (singletons count
    /// as connected).
    pub fn all_clusters_connected(&self, g: &Graph) -> bool {
        self.max_cluster_diameter(g).is_some()
    }

    /// Merges clusters: `group_of[c]` assigns every old cluster `c` to a group; all
    /// clusters in a group become one new cluster. Group labels are compacted.
    ///
    /// # Panics
    ///
    /// Panics if `group_of.len() != num_clusters()`.
    pub fn merge_groups(&self, group_of: &[usize]) -> Clustering {
        assert_eq!(group_of.len(), self.num_clusters());
        let labels: Vec<usize> = self.cluster_of.iter().map(|&c| group_of[c]).collect();
        let mut remap: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        let mut cluster_of = vec![0usize; labels.len()];
        for (v, &l) in labels.iter().enumerate() {
            let next = remap.len();
            cluster_of[v] = *remap.entry(l).or_insert(next);
        }
        let k = remap.len();
        let mut members = vec![Vec::new(); k];
        for (v, &c) in cluster_of.iter().enumerate() {
            members[c].push(v);
        }
        Clustering {
            cluster_of,
            members,
        }
    }

    /// Refines this clustering by a per-vertex sub-label: two vertices stay in the
    /// same cluster only if they were together before **and** share the same
    /// sub-label.
    pub fn refine(&self, g: &Graph, sub_label: &[usize]) -> Clustering {
        assert_eq!(sub_label.len(), self.cluster_of.len());
        let mut remap: std::collections::HashMap<(usize, usize), usize> =
            std::collections::HashMap::new();
        let labels: Vec<usize> = (0..self.cluster_of.len())
            .map(|v| {
                let key = (self.cluster_of[v], sub_label[v]);
                let next = remap.len();
                *remap.entry(key).or_insert(next)
            })
            .collect();
        Clustering::from_labels(g, labels)
    }

    /// Splits every cluster into the connected components it induces in `g`,
    /// guaranteeing that all clusters are connected afterwards.
    pub fn split_into_components(&self, g: &Graph) -> Clustering {
        let (comp, _) = component_labels_within(g, &self.cluster_of);
        self.refine(g, &comp)
    }

    /// Validates this clustering as an (ε, D) low-diameter decomposition: at most
    /// `epsilon · m` inter-cluster edges, every cluster connected with induced
    /// diameter ≤ `d`.
    pub fn is_valid_ldd(&self, g: &Graph, epsilon: f64, d: usize) -> bool {
        if self.edge_fraction(g) > epsilon + 1e-12 {
            return false;
        }
        match self.max_cluster_diameter(g) {
            Some(diam) => diam <= d,
            None => false,
        }
    }
}

/// Labels each vertex with the index of its connected component *within its cluster*
/// (component indices are local to the cluster). Returns (labels, number of
/// components overall).
pub fn component_labels_within(g: &Graph, cluster_of: &[usize]) -> (Vec<usize>, usize) {
    let n = g.n();
    let mut label = vec![usize::MAX; n];
    let mut count = 0usize;
    for start in 0..n {
        if label[start] != usize::MAX {
            continue;
        }
        let c = cluster_of[start];
        let mut queue = std::collections::VecDeque::new();
        label[start] = count;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &w in g.neighbors(u) {
                if cluster_of[w] == c && label[w] == usize::MAX {
                    label[w] = count;
                    queue.push_back(w);
                }
            }
        }
        count += 1;
    }
    (label, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_graph::generators;

    #[test]
    fn singletons_have_all_edges_crossing() {
        let g = generators::cycle(6);
        let c = Clustering::singletons(&g);
        assert_eq!(c.num_clusters(), 6);
        assert_eq!(c.inter_cluster_edges(&g), 6);
        assert!((c.edge_fraction(&g) - 1.0).abs() < 1e-12);
        assert_eq!(c.max_cluster_diameter(&g), Some(0));
    }

    #[test]
    fn from_labels_compacts() {
        let g = generators::path(5);
        let c = Clustering::from_labels(&g, vec![7, 7, 3, 3, 9]);
        assert_eq!(c.num_clusters(), 3);
        assert_eq!(c.cluster_of(0), c.cluster_of(1));
        assert_ne!(c.cluster_of(1), c.cluster_of(2));
        assert_eq!(c.members(c.cluster_of(4)), &[4]);
    }

    #[test]
    fn merge_groups_combines_clusters() {
        let g = generators::path(6);
        let c = Clustering::from_labels(&g, vec![0, 0, 1, 1, 2, 2]);
        let merged = c.merge_groups(&[0, 0, 1]);
        assert_eq!(merged.num_clusters(), 2);
        assert_eq!(merged.inter_cluster_edges(&g), 1);
    }

    #[test]
    fn refine_and_split_components() {
        let g = generators::path(6);
        // Cluster {0,1,2,5} is disconnected (5 is far from 0-2).
        let c = Clustering::from_labels(&g, vec![0, 0, 0, 1, 1, 0]);
        assert!(!c.all_clusters_connected(&g));
        let fixed = c.split_into_components(&g);
        assert!(fixed.all_clusters_connected(&g));
        assert_eq!(fixed.num_clusters(), 3);
    }

    #[test]
    fn ldd_validation() {
        let g = generators::grid(4, 4);
        // Four 2x2 blocks.
        let labels: Vec<usize> = (0..16).map(|v| (v / 8) * 2 + (v % 4) / 2).collect();
        let c = Clustering::from_labels(&g, labels);
        assert_eq!(c.num_clusters(), 4);
        assert!(c.is_valid_ldd(&g, 0.5, 2));
        assert!(!c.is_valid_ldd(&g, 0.1, 2));
        assert!(!c.is_valid_ldd(&g, 0.5, 1));
    }

    #[test]
    fn cluster_graph_weights_match() {
        let g = generators::grid(2, 4);
        let c = Clustering::from_labels(&g, vec![0, 0, 1, 1, 0, 0, 1, 1]);
        let wg = c.cluster_graph(&g);
        assert_eq!(wg.n(), 2);
        assert_eq!(wg.weight(0, 1), 2);
    }

    #[test]
    fn masks_and_members_agree() {
        let g = generators::cycle(8);
        let c = Clustering::from_labels(&g, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        let mask = c.mask(0);
        assert_eq!(mask.iter().filter(|&&b| b).count(), 4);
        for &v in c.members(0) {
            assert!(mask[v]);
        }
    }

    /// The shared-scratch `cluster_diameters` pass must agree exactly with the
    /// mask-based `Graph::induced_diameter` it replaced on the hot path,
    /// including the `None` of a disconnected cluster.
    #[test]
    fn cluster_diameters_match_the_mask_based_path() {
        let g = generators::triangulated_grid(5, 5);
        for labels in [
            (0..25).map(|v| v % 3).collect::<Vec<_>>(), // some clusters disconnected
            (0..25).map(|v| v / 5).collect::<Vec<_>>(), // rows: connected paths
            vec![0; 25],                                // one big cluster
            (0..25).collect::<Vec<_>>(),                // singletons
        ] {
            let c = Clustering::from_labels(&g, labels);
            let diameters = c.cluster_diameters(&g);
            assert_eq!(diameters.len(), c.num_clusters());
            for (cluster, &diam) in diameters.iter().enumerate() {
                assert_eq!(
                    diam,
                    g.induced_diameter(&c.mask(cluster)),
                    "cluster {cluster}"
                );
            }
            let expected = diameters
                .iter()
                .try_fold(0usize, |best, d| d.map(|d| best.max(d)));
            assert_eq!(c.max_cluster_diameter(&g), expected);
        }
    }
}
