//! Cross-crate integration tests for the applications of §6: approximation quality
//! and validity of MIS / matching / vertex cover / max cut, and correctness of the
//! property tester, on the paper's graph families.

use mfd_apps::matching::approximate_maximum_matching;
use mfd_apps::max_cut::approximate_max_cut;
use mfd_apps::mis::{approximate_mis, MisConfig};
use mfd_apps::property_testing::{
    test_property, Forests, MinorClosedProperty, Outerplanarity, Planarity, RejectReason,
    TreewidthAtMostTwo,
};
use mfd_apps::solvers;
use mfd_apps::vertex_cover::approximate_vertex_cover;
use mfd_graph::{generators, Graph};

#[test]
fn all_applications_produce_valid_outputs_on_one_planar_network() {
    let g = generators::random_apollonian(180, 13);
    let eps = 0.3;

    let mis = approximate_mis(&g, &MisConfig::new(eps));
    assert!(solvers::is_independent_set(&g, &mis.independent_set));

    let matching = approximate_maximum_matching(&g, eps);
    assert!(solvers::is_matching(&g, &matching.matching));

    let cover = approximate_vertex_cover(&g, eps);
    assert!(solvers::is_vertex_cover(&g, &cover.cover));

    let cut = approximate_max_cut(&g, eps);
    assert!(cut.cut_edges * 2 >= g.m());

    // Complementarity sanity: MIS + VC roughly partition the vertex set.
    assert!(mis.independent_set.len() + cover.cover.len() >= g.n() * 9 / 10);
}

#[test]
fn mis_quality_against_exact_optimum_on_a_small_planar_graph() {
    let g = generators::triangulated_grid(6, 6);
    let exact = solvers::maximum_independent_set(&g, 2_000_000)
        .vertices
        .len();
    let approx = approximate_mis(&g, &MisConfig::new(0.2))
        .independent_set
        .len();
    assert!(
        approx as f64 >= (1.0 - 0.3) * exact as f64,
        "approx {approx} exact {exact}"
    );
}

#[test]
fn matching_quality_against_blossom_optimum() {
    let g = generators::triangulated_grid(9, 9);
    let opt = solvers::matching_edges(&solvers::maximum_matching(&g)).len();
    let approx = approximate_maximum_matching(&g, 0.2).matching.len();
    assert!(
        approx as f64 >= (1.0 - 0.4) * opt as f64,
        "approx {approx} opt {opt}"
    );
}

#[test]
fn max_cut_on_bipartite_planar_graphs_is_nearly_perfect() {
    let g = generators::grid(12, 12);
    let r = approximate_max_cut(&g, 0.2);
    assert!(r.cut_edges as f64 >= 0.8 * g.m() as f64);
}

#[test]
fn property_tester_accepts_planar_and_rejects_far_instances() {
    let planar = generators::random_apollonian(250, 2);
    assert!(test_property(&planar, &Planarity, 0.2).accepted);

    let base = generators::random_apollonian(150, 6);
    let far = generators::with_random_chords(&base, base.m() / 2, 3);
    assert!(!test_property(&far, &Planarity, 0.2).accepted);

    let dense = generators::complete(40);
    let outcome = test_property(&dense, &Planarity, 0.2);
    assert!(!outcome.accepted);
    assert_eq!(
        outcome.reason,
        Some(RejectReason::ArboricityCertificateFailed)
    );
}

#[test]
fn property_tester_on_disjoint_unions_uses_additivity() {
    // Additivity: a disjoint union of planar graphs is planar and must be accepted.
    let g = generators::triangulated_grid(8, 8)
        .disjoint_union(&generators::random_apollonian(80, 4))
        .disjoint_union(&generators::random_tree(60, 5));
    assert!(test_property(&g, &Planarity, 0.25).accepted);
    // A forest union is accepted by the forest tester, adding one dense component
    // flips it.
    let forest = generators::random_tree(100, 1).disjoint_union(&generators::random_tree(80, 2));
    assert!(test_property(&forest, &Forests, 0.25).accepted);
    let spoiled = forest.disjoint_union(&generators::triangulated_grid(10, 10));
    assert!(!test_property(&spoiled, &Forests, 0.25).accepted);
}

#[test]
fn approximation_rounds_do_not_explode_with_size() {
    let small = generators::triangulated_grid(8, 8);
    let large = generators::triangulated_grid(16, 16);
    let rs = approximate_max_cut(&small, 0.3).rounds.max(1);
    let rl = approximate_max_cut(&large, 0.3).rounds;
    let n_ratio = (large.n() as f64) / (small.n() as f64);
    assert!(
        (rl as f64) < n_ratio * (rs as f64) * 2.0,
        "rounds grew too fast: {rs} -> {rl}"
    );
}

/// FNV-1a over the little-endian bytes of `words`: the solution hash the
/// pinned table records.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in words.into_iter().flat_map(u64::to_le_bytes) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One application's output as the pinned table records it: solution size,
/// solution hash, rounds, clusters and, where the application reports it,
/// whether every cluster was solved exactly.
fn app_row(
    size: usize,
    solution: impl IntoIterator<Item = u64>,
    rounds: u64,
    clusters: usize,
    exact: Option<bool>,
) -> String {
    let exact = exact.map_or("-".to_string(), |e| e.to_string());
    format!(
        "size {size} hash {:016x} rounds {rounds} clusters {clusters} exact {exact}",
        fnv1a(solution)
    )
}

fn mis_row(g: &Graph, eps: f64, use_sparsifier: bool) -> String {
    let mut config = MisConfig::new(eps);
    config.use_sparsifier = use_sparsifier;
    let r = approximate_mis(g, &config);
    let set = r.independent_set.iter().map(|&v| v as u64);
    app_row(
        r.independent_set.len(),
        set,
        r.rounds,
        r.clusters,
        Some(r.all_clusters_exact),
    )
}

fn matching_row(g: &Graph, eps: f64) -> String {
    let r = approximate_maximum_matching(g, eps);
    let edges = r.matching.iter().flat_map(|&(u, v)| [u as u64, v as u64]);
    app_row(r.matching.len(), edges, r.rounds, r.clusters, None)
}

fn vertex_cover_row(g: &Graph, eps: f64) -> String {
    let r = approximate_vertex_cover(g, eps);
    let cover = r.cover.iter().map(|&v| v as u64);
    app_row(r.cover.len(), cover, r.rounds, r.clusters, None)
}

fn max_cut_row(g: &Graph, eps: f64) -> String {
    let r = approximate_max_cut(g, eps);
    let side = r.side.iter().map(|&s| u64::from(s));
    app_row(
        r.cut_edges,
        side,
        r.rounds,
        r.clusters,
        Some(r.all_clusters_exact),
    )
}

fn tester_row<P: MinorClosedProperty>(g: &Graph, property: &P, eps: f64) -> String {
    let o = test_property(g, property, eps);
    format!(
        "accepted {} reason {:?} rounds {} error-detection {} clusters {}",
        o.accepted, o.reason, o.rounds, o.error_detection_rounds, o.clusters
    )
}

/// Every application's and every property tester's output on seven small
/// inputs at two ε, as computed before the applications shared one
/// decompose → solve → announce pipeline. The report's F5–F8 and A2 tables
/// are ungated markdown; this is what notices a changed value.
#[test]
fn every_application_output_is_pinned() {
    let graphs = [
        ("tri-grid-8x8", generators::triangulated_grid(8, 8)),
        ("apollonian-150", generators::random_apollonian(150, 1)),
        ("wheel-60", generators::wheel(60)),
        ("tree-150", generators::random_tree(150, 1)),
        ("path-200", generators::path(200)),
        ("grid-10x10", generators::grid(10, 10)),
        ("edgeless-7", Graph::new(7)),
    ];
    let mut rows = Vec::new();
    for (name, g) in &graphs {
        for eps in [0.4, 0.2] {
            for (what, row) in [
                ("mis", mis_row(g, eps, true)),
                ("mis-unsparsified", mis_row(g, eps, false)),
                ("matching", matching_row(g, eps)),
                ("vertex-cover", vertex_cover_row(g, eps)),
                ("max-cut", max_cut_row(g, eps)),
                ("planarity", tester_row(g, &Planarity, eps)),
                ("forest", tester_row(g, &Forests, eps)),
                ("treewidth<=2", tester_row(g, &TreewidthAtMostTwo, eps)),
                ("outerplanarity", tester_row(g, &Outerplanarity, eps)),
            ] {
                rows.push(format!("{name} ε={eps} {what}: {row}"));
            }
        }
    }
    let changed: Vec<String> = rows
        .iter()
        .zip(PINNED)
        .filter(|(row, pinned)| row != *pinned)
        .map(|(row, pinned)| format!("\n  now    {row}\n  pinned {pinned}"))
        .collect();
    assert!(changed.is_empty(), "changed rows:{}", changed.concat());
    assert_eq!(rows.len(), PINNED.len());
}

const PINNED: &[&str] = &[
    "tri-grid-8x8 ε=0.4 mis: size 22 hash fb59aeb2e7287b9a rounds 1650 clusters 1 exact true",
    "tri-grid-8x8 ε=0.4 mis-unsparsified: size 22 hash fb59aeb2e7287b9a rounds 1649 clusters 1 exact true",
    "tri-grid-8x8 ε=0.4 matching: size 32 hash 310e42af98fb7125 rounds 1649 clusters 1 exact -",
    "tri-grid-8x8 ε=0.4 vertex-cover: size 42 hash 751e1084cd7051ba rounds 1650 clusters 1 exact -",
    "tri-grid-8x8 ε=0.4 max-cut: size 105 hash 8d6c73475d8e0645 rounds 902 clusters 2 exact false",
    "tri-grid-8x8 ε=0.4 planarity: accepted true reason None rounds 903 error-detection 1 clusters 2",
    "tri-grid-8x8 ε=0.4 forest: accepted false reason Some(ClusterViolation { cluster: 0, cluster_size: 36 }) rounds 910 error-detection 8 clusters 2",
    "tri-grid-8x8 ε=0.4 treewidth<=2: accepted false reason Some(ClusterViolation { cluster: 0, cluster_size: 36 }) rounds 903 error-detection 1 clusters 2",
    "tri-grid-8x8 ε=0.4 outerplanarity: accepted false reason Some(ClusterViolation { cluster: 0, cluster_size: 36 }) rounds 903 error-detection 1 clusters 2",
    "tri-grid-8x8 ε=0.2 mis: size 22 hash fb59aeb2e7287b9a rounds 1650 clusters 1 exact true",
    "tri-grid-8x8 ε=0.2 mis-unsparsified: size 22 hash fb59aeb2e7287b9a rounds 1649 clusters 1 exact true",
    "tri-grid-8x8 ε=0.2 matching: size 32 hash 310e42af98fb7125 rounds 1649 clusters 1 exact -",
    "tri-grid-8x8 ε=0.2 vertex-cover: size 42 hash 751e1084cd7051ba rounds 1650 clusters 1 exact -",
    "tri-grid-8x8 ε=0.2 max-cut: size 106 hash a447eee9800cf0c4 rounds 1648 clusters 1 exact false",
    "tri-grid-8x8 ε=0.2 planarity: accepted true reason None rounds 1649 error-detection 1 clusters 1",
    "tri-grid-8x8 ε=0.2 forest: accepted false reason Some(ClusterViolation { cluster: 0, cluster_size: 64 }) rounds 1656 error-detection 8 clusters 1",
    "tri-grid-8x8 ε=0.2 treewidth<=2: accepted false reason Some(ClusterViolation { cluster: 0, cluster_size: 64 }) rounds 1649 error-detection 1 clusters 1",
    "tri-grid-8x8 ε=0.2 outerplanarity: accepted false reason Some(ClusterViolation { cluster: 0, cluster_size: 64 }) rounds 1649 error-detection 1 clusters 1",
    "apollonian-150 ε=0.4 mis: size 69 hash 8e3c4112d172103b rounds 1702 clusters 9 exact true",
    "apollonian-150 ε=0.4 mis-unsparsified: size 69 hash 294e29965162e609 rounds 1929 clusters 2 exact true",
    "apollonian-150 ε=0.4 matching: size 71 hash cbde311cc0dac734 rounds 5587 clusters 2 exact -",
    "apollonian-150 ε=0.4 vertex-cover: size 81 hash f13988ca6b022d32 rounds 374 clusters 53 exact -",
    "apollonian-150 ε=0.4 max-cut: size 288 hash 795675dc55cd96e5 rounds 1232 clusters 3 exact false",
    "apollonian-150 ε=0.4 planarity: accepted true reason None rounds 1235 error-detection 3 clusters 3",
    "apollonian-150 ε=0.4 forest: accepted false reason Some(ClusterViolation { cluster: 0, cluster_size: 135 }) rounds 1242 error-detection 10 clusters 3",
    "apollonian-150 ε=0.4 treewidth<=2: accepted false reason Some(ClusterViolation { cluster: 0, cluster_size: 135 }) rounds 1235 error-detection 3 clusters 3",
    "apollonian-150 ε=0.4 outerplanarity: accepted false reason Some(ClusterViolation { cluster: 0, cluster_size: 135 }) rounds 1235 error-detection 3 clusters 3",
    "apollonian-150 ε=0.2 mis: size 69 hash 2c24a517445ad010 rounds 2516 clusters 1 exact true",
    "apollonian-150 ε=0.2 mis-unsparsified: size 69 hash 2c24a517445ad010 rounds 2515 clusters 1 exact true",
    "apollonian-150 ε=0.2 matching: size 73 hash 827dda0286ca11d0 rounds 2763 clusters 1 exact -",
    "apollonian-150 ε=0.2 vertex-cover: size 81 hash f39c7e0bf488dbe0 rounds 1110 clusters 13 exact -",
    "apollonian-150 ε=0.2 max-cut: size 288 hash 795675dc55cd96e5 rounds 1232 clusters 3 exact false",
    "apollonian-150 ε=0.2 planarity: accepted true reason None rounds 1235 error-detection 3 clusters 3",
    "apollonian-150 ε=0.2 forest: accepted false reason Some(ClusterViolation { cluster: 0, cluster_size: 135 }) rounds 1242 error-detection 10 clusters 3",
    "apollonian-150 ε=0.2 treewidth<=2: accepted false reason Some(ClusterViolation { cluster: 0, cluster_size: 135 }) rounds 1235 error-detection 3 clusters 3",
    "apollonian-150 ε=0.2 outerplanarity: accepted false reason Some(ClusterViolation { cluster: 0, cluster_size: 135 }) rounds 1235 error-detection 3 clusters 3",
    "wheel-60 ε=0.4 mis: size 29 hash 59eb9e5845bca45c rounds 4600 clusters 2 exact true",
    "wheel-60 ε=0.4 mis-unsparsified: size 29 hash 59eb9e5845bca45c rounds 123 clusters 1 exact true",
    "wheel-60 ε=0.4 matching: size 30 hash d823ee269a8105e5 rounds 3543 clusters 1 exact -",
    "wheel-60 ε=0.4 vertex-cover: size 31 hash 65e659759fddf4dc rounds 1868 clusters 4 exact -",
    "wheel-60 ε=0.4 max-cut: size 88 hash fb5766f1722b7705 rounds 46 clusters 2 exact false",
    "wheel-60 ε=0.4 planarity: accepted true reason None rounds 48 error-detection 2 clusters 2",
    "wheel-60 ε=0.4 forest: accepted false reason Some(ClusterViolation { cluster: 0, cluster_size: 59 }) rounds 48 error-detection 2 clusters 2",
    "wheel-60 ε=0.4 treewidth<=2: accepted true reason None rounds 48 error-detection 2 clusters 2",
    "wheel-60 ε=0.4 outerplanarity: accepted true reason None rounds 48 error-detection 2 clusters 2",
    "wheel-60 ε=0.2 mis: size 29 hash 59eb9e5845bca45c rounds 4600 clusters 2 exact true",
    "wheel-60 ε=0.2 mis-unsparsified: size 29 hash 59eb9e5845bca45c rounds 123 clusters 1 exact true",
    "wheel-60 ε=0.2 matching: size 30 hash d823ee269a8105e5 rounds 2291 clusters 1 exact -",
    "wheel-60 ε=0.2 vertex-cover: size 31 hash 65e659759fddf4dc rounds 4600 clusters 2 exact -",
    "wheel-60 ε=0.2 max-cut: size 88 hash fb5766f1722b7705 rounds 46 clusters 2 exact false",
    "wheel-60 ε=0.2 planarity: accepted true reason None rounds 48 error-detection 2 clusters 2",
    "wheel-60 ε=0.2 forest: accepted false reason Some(ClusterViolation { cluster: 0, cluster_size: 59 }) rounds 48 error-detection 2 clusters 2",
    "wheel-60 ε=0.2 treewidth<=2: accepted true reason None rounds 48 error-detection 2 clusters 2",
    "wheel-60 ε=0.2 outerplanarity: accepted true reason None rounds 48 error-detection 2 clusters 2",
    "tree-150 ε=0.4 mis: size 91 hash a51df7ce3244d379 rounds 1716 clusters 2 exact true",
    "tree-150 ε=0.4 mis-unsparsified: size 91 hash a51df7ce3244d379 rounds 1715 clusters 2 exact true",
    "tree-150 ε=0.4 matching: size 59 hash 9b29e45e3f687d84 rounds 1715 clusters 2 exact -",
    "tree-150 ε=0.4 vertex-cover: size 59 hash ca39b1cc6da3b718 rounds 1716 clusters 2 exact -",
    "tree-150 ε=0.4 max-cut: size 144 hash 1ca4972b99830125 rounds 904 clusters 8 exact false",
    "tree-150 ε=0.4 planarity: accepted true reason None rounds 905 error-detection 1 clusters 8",
    "tree-150 ε=0.4 forest: accepted true reason None rounds 907 error-detection 3 clusters 8",
    "tree-150 ε=0.4 treewidth<=2: accepted true reason None rounds 906 error-detection 2 clusters 8",
    "tree-150 ε=0.4 outerplanarity: accepted true reason None rounds 906 error-detection 2 clusters 8",
    "tree-150 ε=0.2 mis: size 91 hash a51df7ce3244d379 rounds 2840 clusters 1 exact true",
    "tree-150 ε=0.2 mis-unsparsified: size 91 hash a51df7ce3244d379 rounds 2839 clusters 1 exact true",
    "tree-150 ε=0.2 matching: size 59 hash 9b29e45e3f687d84 rounds 1715 clusters 2 exact -",
    "tree-150 ε=0.2 vertex-cover: size 59 hash ca39b1cc6da3b718 rounds 1716 clusters 2 exact -",
    "tree-150 ε=0.2 max-cut: size 144 hash 1ca4972b99830125 rounds 904 clusters 8 exact false",
    "tree-150 ε=0.2 planarity: accepted true reason None rounds 905 error-detection 1 clusters 8",
    "tree-150 ε=0.2 forest: accepted true reason None rounds 907 error-detection 3 clusters 8",
    "tree-150 ε=0.2 treewidth<=2: accepted true reason None rounds 906 error-detection 2 clusters 8",
    "tree-150 ε=0.2 outerplanarity: accepted true reason None rounds 906 error-detection 2 clusters 8",
    "path-200 ε=0.4 mis: size 100 hash 072df6a3f73d8464 rounds 4764 clusters 3 exact true",
    "path-200 ε=0.4 mis-unsparsified: size 100 hash 072df6a3f73d8464 rounds 4763 clusters 3 exact true",
    "path-200 ε=0.4 matching: size 99 hash f47c9bbae4ce10ae rounds 595 clusters 14 exact -",
    "path-200 ε=0.4 vertex-cover: size 100 hash 46a12627e8ca8e04 rounds 596 clusters 14 exact -",
    "path-200 ε=0.4 max-cut: size 198 hash 2d770a3adaba0ba4 rounds 594 clusters 14 exact true",
    "path-200 ε=0.4 planarity: accepted true reason None rounds 595 error-detection 1 clusters 14",
    "path-200 ε=0.4 forest: accepted true reason None rounds 595 error-detection 1 clusters 14",
    "path-200 ε=0.4 treewidth<=2: accepted true reason None rounds 595 error-detection 1 clusters 14",
    "path-200 ε=0.4 outerplanarity: accepted true reason None rounds 595 error-detection 1 clusters 14",
    "path-200 ε=0.2 mis: size 100 hash 20869df86155a525 rounds 8692 clusters 1 exact true",
    "path-200 ε=0.2 mis-unsparsified: size 100 hash 20869df86155a525 rounds 8691 clusters 1 exact true",
    "path-200 ε=0.2 matching: size 99 hash 8df9b55f2369ccd2 rounds 2587 clusters 5 exact -",
    "path-200 ε=0.2 vertex-cover: size 100 hash 9c8b47d173ab4924 rounds 2588 clusters 5 exact -",
    "path-200 ε=0.2 max-cut: size 198 hash a1e19043e32d73a4 rounds 1254 clusters 8 exact false",
    "path-200 ε=0.2 planarity: accepted true reason None rounds 1255 error-detection 1 clusters 8",
    "path-200 ε=0.2 forest: accepted true reason None rounds 1255 error-detection 1 clusters 8",
    "path-200 ε=0.2 treewidth<=2: accepted true reason None rounds 1255 error-detection 1 clusters 8",
    "path-200 ε=0.2 outerplanarity: accepted true reason None rounds 1255 error-detection 1 clusters 8",
    "grid-10x10 ε=0.4 mis: size 50 hash 02f0516f88b71b46 rounds 3950 clusters 1 exact true",
    "grid-10x10 ε=0.4 mis-unsparsified: size 50 hash 02f0516f88b71b46 rounds 3949 clusters 1 exact true",
    "grid-10x10 ε=0.4 matching: size 50 hash 610b068d99808fe5 rounds 3949 clusters 1 exact -",
    "grid-10x10 ε=0.4 vertex-cover: size 50 hash 6562b5f63eaa5ce6 rounds 3950 clusters 1 exact -",
    "grid-10x10 ε=0.4 max-cut: size 172 hash 456087cc9bece2e4 rounds 2868 clusters 2 exact false",
    "grid-10x10 ε=0.4 planarity: accepted true reason None rounds 2869 error-detection 1 clusters 2",
    "grid-10x10 ε=0.4 forest: accepted false reason Some(ClusterViolation { cluster: 0, cluster_size: 97 }) rounds 2873 error-detection 5 clusters 2",
    "grid-10x10 ε=0.4 treewidth<=2: accepted false reason Some(ClusterViolation { cluster: 0, cluster_size: 97 }) rounds 2869 error-detection 1 clusters 2",
    "grid-10x10 ε=0.4 outerplanarity: accepted false reason Some(ClusterViolation { cluster: 0, cluster_size: 97 }) rounds 2869 error-detection 1 clusters 2",
    "grid-10x10 ε=0.2 mis: size 50 hash 02f0516f88b71b46 rounds 3950 clusters 1 exact true",
    "grid-10x10 ε=0.2 mis-unsparsified: size 50 hash 02f0516f88b71b46 rounds 3949 clusters 1 exact true",
    "grid-10x10 ε=0.2 matching: size 50 hash 610b068d99808fe5 rounds 3949 clusters 1 exact -",
    "grid-10x10 ε=0.2 vertex-cover: size 50 hash 6562b5f63eaa5ce6 rounds 3950 clusters 1 exact -",
    "grid-10x10 ε=0.2 max-cut: size 172 hash 456087cc9bece2e4 rounds 2868 clusters 2 exact false",
    "grid-10x10 ε=0.2 planarity: accepted true reason None rounds 2869 error-detection 1 clusters 2",
    "grid-10x10 ε=0.2 forest: accepted false reason Some(ClusterViolation { cluster: 0, cluster_size: 97 }) rounds 2873 error-detection 5 clusters 2",
    "grid-10x10 ε=0.2 treewidth<=2: accepted false reason Some(ClusterViolation { cluster: 0, cluster_size: 97 }) rounds 2869 error-detection 1 clusters 2",
    "grid-10x10 ε=0.2 outerplanarity: accepted false reason Some(ClusterViolation { cluster: 0, cluster_size: 97 }) rounds 2869 error-detection 1 clusters 2",
    "edgeless-7 ε=0.4 mis: size 7 hash 8e0ce641141d6c82 rounds 2 clusters 7 exact true",
    "edgeless-7 ε=0.4 mis-unsparsified: size 7 hash 8e0ce641141d6c82 rounds 1 clusters 7 exact true",
    "edgeless-7 ε=0.4 matching: size 0 hash cbf29ce484222325 rounds 1 clusters 7 exact -",
    "edgeless-7 ε=0.4 vertex-cover: size 0 hash cbf29ce484222325 rounds 2 clusters 7 exact -",
    "edgeless-7 ε=0.4 max-cut: size 0 hash 8ac123d6f7dce585 rounds 0 clusters 7 exact true",
    "edgeless-7 ε=0.4 planarity: accepted true reason None rounds 1 error-detection 1 clusters 7",
    "edgeless-7 ε=0.4 forest: accepted true reason None rounds 1 error-detection 1 clusters 7",
    "edgeless-7 ε=0.4 treewidth<=2: accepted true reason None rounds 1 error-detection 1 clusters 7",
    "edgeless-7 ε=0.4 outerplanarity: accepted true reason None rounds 1 error-detection 1 clusters 7",
    "edgeless-7 ε=0.2 mis: size 7 hash 8e0ce641141d6c82 rounds 2 clusters 7 exact true",
    "edgeless-7 ε=0.2 mis-unsparsified: size 7 hash 8e0ce641141d6c82 rounds 1 clusters 7 exact true",
    "edgeless-7 ε=0.2 matching: size 0 hash cbf29ce484222325 rounds 1 clusters 7 exact -",
    "edgeless-7 ε=0.2 vertex-cover: size 0 hash cbf29ce484222325 rounds 2 clusters 7 exact -",
    "edgeless-7 ε=0.2 max-cut: size 0 hash 8ac123d6f7dce585 rounds 0 clusters 7 exact true",
    "edgeless-7 ε=0.2 planarity: accepted true reason None rounds 1 error-detection 1 clusters 7",
    "edgeless-7 ε=0.2 forest: accepted true reason None rounds 1 error-detection 1 clusters 7",
    "edgeless-7 ε=0.2 treewidth<=2: accepted true reason None rounds 1 error-detection 1 clusters 7",
    "edgeless-7 ε=0.2 outerplanarity: accepted true reason None rounds 1 error-detection 1 clusters 7",
];
