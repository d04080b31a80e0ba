//! Edge-set pins: `(n, m, FNV-1a of the sorted edge list)` for every
//! generator call the acceptance families, the `report` sections, the doc
//! examples and the examples make, plus the row-order invariant every graph
//! satisfies.
//!
//! The constants were computed while `Graph` still stored one insertion-order
//! `Vec` per vertex. A change of storage or of construction order must not
//! move any of them: the metered layers, the engines and every gated series
//! are functions of these edge sets. Two constructions read an intermediate
//! graph's row order and are pinned for that reason:
//! `random_series_parallel` walks its 2-tree in construction order, and
//! `Graph::subdivide` numbers new vertices in `edges()` order (the two pinned
//! inputs list their larger neighbours in increasing order either way).

use std::sync::OnceLock;

use mfd_graph::{gen, generators, Graph};

/// `(n, m, FNV-1a 64 over the sorted (u, v) list, u < v, little-endian u64s)`.
type Fingerprint = (usize, usize, u64);

fn fingerprint(g: &Graph) -> Fingerprint {
    let mut edges: Vec<(usize, usize)> = g.edges().collect();
    edges.sort_unstable();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (u, v) in edges {
        for byte in [u as u64, v as u64].iter().flat_map(|w| w.to_le_bytes()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (g.n(), g.m(), hash)
}

/// `(the call, its graph, the pinned fingerprint)`.
macro_rules! pin {
    ($g:expr => $n:expr, $m:expr, $hash:expr) => {
        (stringify!($g), $g, ($n, $m, $hash))
    };
}

type Case = (&'static str, Graph, Fingerprint);

/// Every pinned generator call (built once: the million-vertex families
/// dominate the test's time).
fn cases() -> &'static [Case] {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    CASES.get_or_init(build_cases)
}

#[rustfmt::skip]
fn build_cases() -> Vec<Case> {
    let chords = |n, seed| {
        let base = generators::random_apollonian(n, 3);
        generators::with_random_chords(&base, base.m() * 3 / 10, seed)
    };
    vec![
        // The acceptance families (gather, faults, edt, trace, replay, scale).
        pin!(generators::triangulated_grid(8, 8) => 64, 161, 0xcaa2edf1bca1fcda),
        pin!(generators::wheel(64) => 64, 126, 0xece01aa00bbf1be5),
        pin!(generators::hypercube(6) => 64, 192, 0x61e4af140b436d25),
        // The `report` sections.
        pin!(generators::triangulated_grid(12, 12) => 144, 385, 0x33beac53701b162a),
        pin!(generators::triangulated_grid(16, 16) => 256, 705, 0x8a0045fd5e6ef11a),
        pin!(generators::triangulated_grid(20, 20) => 400, 1121, 0xad6c81ddffe093a5),
        pin!(generators::triangulated_grid(24, 24) => 576, 1633, 0x0a20bca277222550),
        pin!(generators::triangulated_grid(28, 28) => 784, 2241, 0x462934038c8d8a63),
        pin!(generators::triangulated_grid(32, 32) => 1024, 2945, 0x4c77a73334ec5e1f),
        pin!(generators::triangulated_grid(40, 40) => 1600, 4641, 0x8d3bbe81b1852614),
        pin!(generators::triangulated_grid(100, 100) => 10000, 29601, 0xd05c236e7a1e69b7),
        pin!(generators::random_apollonian(1000, 0xA11) => 1000, 2994, 0xae8e98adb6030f16),
        pin!(generators::random_apollonian(1000, 5) => 1000, 2994, 0x6e5d8fd5721bf0d1),
        pin!(generators::random_apollonian(400, 9) => 400, 1194, 0x19907657e77f746f),
        pin!(generators::random_apollonian(300, 4) => 300, 894, 0xc75541e7f40d3517),
        pin!(generators::random_apollonian(600, 0xF5) => 600, 1794, 0xe49d96b96ba7cc99),
        pin!(generators::random_apollonian(400, 21) => 400, 1194, 0x2f4e53bbf0f674fd),
        pin!(generators::random_apollonian(600, 2) => 600, 1794, 0xc07c7daa2b393af0),
        pin!(chords(300, 9) => 300, 1162, 0x72fd22ac6301dd74),
        pin!(chords(600, 9) => 600, 2332, 0xdcd8ea6bc9b775cd),
        pin!(generators::wheel(256) => 256, 510, 0x7e4ac106f28ca865),
        pin!(generators::wheel(1000) => 1000, 1998, 0xc0eb4196c1d9d2c9),
        pin!(generators::hypercube(7) => 128, 448, 0xd892b26692ccd525),
        pin!(generators::hypercube(8) => 256, 1024, 0x1eb678f40bde3925),
        pin!(generators::complete(50) => 50, 1225, 0x067054433e98a904),
        pin!(gen::mesh(1000, 1000) => 1000000, 2996001, 0xe125e566cb9003df),
        pin!(gen::rmat(20, 4, 0x6d6664) => 1048576, 4087627, 0xd5f902785aa160c2),
        pin!(gen::power_law(1 << 20, 4 << 20, 2.5, 0x6d6664) => 1048576, 4190145, 0x9ecc9fbcad368e61),
        // The doc examples (crate docs, docs/*.md, README).
        pin!(generators::path(4) => 4, 3, 0xd5a82c66ac956b26),
        pin!(generators::path(5) => 5, 4, 0x7668c739314783e1),
        pin!(generators::path(6) => 6, 5, 0xdfa23c86d1a28280),
        pin!(generators::grid(5, 5) => 25, 40, 0x06f307c8f84a44a5),
        pin!(generators::grid(6, 6) => 36, 60, 0xda6da6408d5adb6d),
        pin!(generators::grid(8, 8) => 64, 112, 0xc8831cca206aff25),
        pin!(generators::grid(10, 10) => 100, 180, 0xf2c0ef2946435035),
        pin!(generators::triangulated_grid(6, 6) => 36, 85, 0xdd6829633c98ee46),
        pin!(generators::complete(5) => 5, 10, 0x0aef70239afd2425),
        pin!(generators::complete_bipartite(3, 3) => 6, 9, 0xcf42e7e6de9b1064),
        pin!(generators::wheel(8) => 8, 14, 0x3ed5b67caa3fc825),
        pin!(generators::with_random_chords(&generators::random_apollonian(60, 1), 40, 7) => 60, 214, 0xb1773ad696008de3),
        pin!(gen::mesh(16, 16) => 256, 705, 0x8a0045fd5e6ef11a),
        pin!(gen::mesh(20, 30) => 600, 1701, 0x81417a8b94c28448),
        // The examples, including both generators that read an intermediate
        // graph's row order.
        pin!(generators::random_series_parallel(300, 0.5, 8) => 300, 443, 0xa5a7527743477fa3),
        pin!(generators::k_tree(200, 4, 3) => 200, 790, 0x2b2eeff1d444846f),
        pin!(generators::torus_grid(12, 12) => 144, 288, 0x57c05afd6d664625),
        pin!(generators::random_tree(400, 5) => 400, 399, 0xa65866faa74777b1),
        pin!(generators::random_tree(200, 6) => 200, 199, 0x3bb59e6b299c5242),
        pin!(generators::random_tree(400, 5).disjoint_union(&generators::random_tree(200, 6)) => 600, 598, 0x4d22641e4aa836ce),
        pin!(gen::mesh(200, 200) => 40000, 119201, 0x531be3f5c1dc5226),
        pin!(generators::random_apollonian(400, 7) => 400, 1194, 0x561baff4e5c2e6bf),
        pin!(generators::random_apollonian(500, 3) => 500, 1494, 0x1c2e6f408d6a2e92),
        pin!(generators::complete(40) => 40, 780, 0xe008398b1c3678a5),
        pin!(generators::grid(16, 16) => 256, 480, 0x17ee159fe2fe8025),
        pin!(generators::wheel(96) => 96, 190, 0xf74de02ba61121a5),
        pin!(generators::wheel(200) => 200, 398, 0x929e0b4bb00c8a25),
        pin!(generators::hypercube(5) => 32, 80, 0x2316428ca310b225),
        pin!(generators::path(500) => 500, 499, 0x7baf3e5153977da9),
        pin!(generators::random_outerplanar(150, 9) => 150, 297, 0x1abd0170dcc83a26),
        pin!(generators::k_tree(200, 2, 21) => 200, 397, 0x99c9568fa82f9d76),
        pin!(generators::random_gnm(20, 40, 123) => 20, 40, 0x6b061e992588b6bc),
        pin!(generators::complete(5).subdivide(3) => 25, 30, 0x14d2eecdc7dcdfe5),
        pin!(generators::random_apollonian(40, 2).subdivide(2) => 154, 228, 0x3ded063b95b818b1),
    ]
}

#[test]
fn generated_edge_sets_are_pinned() {
    for (call, g, pinned) in cases() {
        assert_eq!(fingerprint(g), *pinned, "{call}");
    }
}

#[test]
fn every_generated_row_is_strictly_increasing() {
    for (call, g, _) in cases() {
        for v in g.vertices() {
            let row = g.neighbors(v);
            assert!(
                row.windows(2).all(|w| w[0] < w[1]),
                "{call}: row {v} is not strictly increasing: {row:?}"
            );
        }
    }
}
