//! The paper's primary contribution: deterministic distributed decomposition
//! algorithms for networks excluding a fixed minor.
//!
//! This crate implements, on top of the [`mfd_graph`] / [`mfd_congest`] /
//! [`mfd_routing`] substrates:
//!
//! * [`clustering`] — the clustering/partition data type shared by every
//!   decomposition, with validators for the paper's decomposition notions
//!   ((ε, D) low-diameter decompositions, (ε, φ) and (ε, φ, c) expander
//!   decompositions, (ε, D, T)-decompositions).
//! * [`cole_vishkin`] — Cole–Vishkin 3-colouring of rooted forests in O(log* n)
//!   iterations, used inside the heavy-stars algorithm (paper §4.1, step 2).
//! * [`heavy_stars`] — the heavy-stars algorithm of Czygrinow, Hańćkowiak and
//!   Wawrzyniak on weighted cluster graphs (paper §4.1): a set of vertex-disjoint
//!   stars capturing an Ω(1/α) fraction of the edge weight.
//! * [`forests`] — the Barenboim–Elkin forest-decomposition / H-partition algorithm
//!   and the arboricity-based error detection used by the property tester (§6.2).
//! * [`ldd`] — low-diameter decompositions: deterministic BFS-band chopping in the
//!   style of Klein–Plotkin–Rao (Lemma 3.1) and region growing (the generic
//!   baseline), both usable as leader-local computations or as global algorithms.
//! * [`expander`] — leader-local expander decompositions (Fact 3.1,
//!   Observation 3.1) via recursive sweep cuts.
//! * [`overlap`] — the (ε, φ, c) expander decomposition with overlapping clusters of
//!   §4 (Lemmas 4.1/4.4): bottom-up merging with singleton extraction and light-link
//!   removal.
//! * [`edt`] — the headline (ε, D, T)-decomposition (Theorem 1.1): the iterated
//!   heavy-stars + leader-refinement pipeline (Lemmas 5.3–5.5), with measured
//!   construction rounds, routing rounds T, diameter D and inter-cluster fraction.
//! * [`programs`] — message-passing ports of the above as `mfd-runtime` node
//!   programs (Cole–Vishkin colouring, BFS flooding, Voronoi LDD assignment),
//!   differentially validated against the centralized implementations.
//!
//! # Quick start
//!
//! ```
//! use mfd_core::edt::{build_edt, EdtConfig};
//! use mfd_graph::generators;
//!
//! let g = generators::triangulated_grid(12, 12);
//! let (decomposition, meter) = build_edt(&g, &EdtConfig::new(0.25));
//! assert!(decomposition.epsilon_achieved <= 0.25);
//! assert!(decomposition.diameter >= 1);
//! assert!(meter.rounds() > 0);
//! ```
//!
//! A guided tour of this crate's role in the workspace lives in
//! `docs/ARCHITECTURE.md` (section "mfd-core"); the reproducibility
//! contract the decomposition upholds is spelled out in `docs/DETERMINISM.md`.

pub mod cluster_round;
pub mod clustering;
pub mod cole_vishkin;
pub mod edt;
pub mod expander;
pub mod forests;
pub mod heavy_stars;
pub mod ldd;
pub mod overlap;
pub mod programs;

pub use cluster_round::{ClusterRoundProgram, ClusterRoundState};
pub use clustering::Clustering;
pub use edt::{build_edt, build_edt_with, EdtBackend, EdtConfig, EdtDecomposition};
pub use programs::{
    run_bfs, run_cole_vishkin, run_voronoi_ldd, BfsProgram, ColeVishkinProgram, VoronoiLddProgram,
};
