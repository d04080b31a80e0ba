//! Applications of minor-free (ε, D, T)-decompositions (paper §6).
//!
//! Every approximation application follows the same pattern the paper describes,
//! written once as the crate-private `decompose_and_solve`: build an
//! (ε*, D, T)-decomposition with [`mfd_core::edt::build_edt`], let every cluster
//! leader gather its cluster's topology through the decomposition's routing
//! algorithm, solve the problem *optimally inside the cluster* with free local
//! computation, and announce the per-cluster solutions with one more routing
//! execution. An application supplies only what is its own: a sparsifier, its ε*,
//! the local solver and a repair of the inter-cluster edges. Because the
//! decomposition drops only an ε* fraction of the edges, the combined solution is a
//! (1 ± O(ε)) approximation for problems whose optimum is a constant fraction of |E|
//! (or of |V| for bounded-arboricity graphs).
//!
//! Modules:
//!
//! * [`solvers`] — the exact/near-exact local solvers leaders use: maximum matching
//!   (blossom algorithm), maximum independent set (branch and bound with reductions
//!   and a budget-guarded fallback), minimum vertex cover (complement of MIS), and
//!   maximum cut (exact up to 20 vertices, local search beyond).
//! * [`sparsifier`] — Solomon's bounded-degree sparsifiers, the one-round reductions
//!   that let matching / MIS / vertex cover assume Δ = O(1/ε) (paper §6.1).
//! * [`mis`], [`matching`], [`vertex_cover`], [`max_cut`] — the distributed
//!   (1 ± ε)-approximation algorithms of Corollaries 6.3–6.5, with round accounting.
//! * [`property_testing`] — the distributed property tester for additive minor-closed
//!   properties of Corollary 6.6, including the Barenboim–Elkin error-detection path.
//! * [`baselines`] — what the paper compares against: greedy/maximal heuristics and
//!   the randomized exponential-shift low-diameter decomposition (MPX).
//!
//! A guided tour of this crate's role in the workspace lives in
//! `docs/ARCHITECTURE.md` (section "mfd-apps").

pub mod baselines;
pub mod matching;
pub mod max_cut;
pub mod mis;
pub mod property_testing;
pub mod solvers;
pub mod sparsifier;
pub mod vertex_cover;

pub use matching::approximate_maximum_matching;
pub use max_cut::approximate_max_cut;
pub use mis::approximate_mis;
pub use property_testing::{test_property, PropertyTestOutcome};
pub use vertex_cover::approximate_vertex_cover;

use mfd_core::edt::{build_edt, EdtConfig};
use mfd_graph::Graph;

/// Arboricity bound α of the input families (3 for planar graphs). Solomon's
/// sparsifier thresholds and MIS's ε* = ε/(α(2α−1)) read it.
pub(crate) const ALPHA: usize = 3;

/// The decomposition parameter of matching and vertex cover: ε* = ε/(2Δ−1) on the
/// sparsified graph (any maximal matching, and any vertex cover, has size
/// ≥ m/(2Δ−1)), kept within [0.01, 0.9] so tiny ε cannot force a degenerate,
/// overly fine decomposition.
pub(crate) fn degree_epsilon_star(working: &Graph, epsilon: f64) -> f64 {
    let delta = working.max_degree().max(1) as f64;
    (epsilon / (2.0 * delta - 1.0)).clamp(0.01, 0.9)
}

/// The pipeline every approximation application runs: builds an
/// (`eps_star`, D, T)-decomposition of `working`, hands every non-empty cluster's
/// induced subgraph and its map back to `working`'s vertices to `solve` (the
/// leader's free local computation), and charges one more routing execution for
/// announcing the answers. Returns the rounds (decomposition plus announcement) and
/// the number of clusters.
pub(crate) fn decompose_and_solve(
    working: &Graph,
    eps_star: f64,
    mut solve: impl FnMut(&Graph, &[usize]),
) -> (u64, usize) {
    let (decomposition, meter) = build_edt(working, &EdtConfig::new(eps_star));
    let clustering = &decomposition.clustering;
    for c in 0..clustering.num_clusters() {
        let members = clustering.members(c);
        if !members.is_empty() {
            let (sub, map) = working.induced_subgraph(members);
            solve(&sub, &map);
        }
    }
    (
        meter.rounds() + decomposition.routing_rounds,
        clustering.num_clusters(),
    )
}
