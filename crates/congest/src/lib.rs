//! A deterministic synchronous CONGEST/LOCAL simulator with round and bandwidth
//! accounting.
//!
//! The paper's algorithms are stated in the CONGEST model: computation proceeds in
//! synchronous rounds; in each round every vertex may send one O(log n)-bit message
//! across each incident edge; local computation is free. The quantities the paper
//! (and therefore our benchmark harness) cares about are **round counts** — wall-clock
//! time of the simulating machine is irrelevant.
//!
//! This crate provides:
//!
//! * [`RoundMeter`] — the accounting object. Distributed subroutines submit their
//!   per-round message sets through it; the meter verifies that every message travels
//!   along an edge of the graph and that the per-edge, per-direction bandwidth cap is
//!   respected, and accumulates round / message counts.
//! * [`primitives`] — the standard building blocks used by the decomposition layer:
//!   BFS-tree construction inside a cluster, convergecast / broadcast along the tree,
//!   pipelined upcast and downcast of `deg(v)` messages per vertex (the "direct"
//!   information-gathering baseline).
//!
//! Parallel composition across clusters follows the paper's convention: routines
//! executed in parallel on vertex-disjoint clusters cost the **maximum** of their
//! round counts (each cluster only uses its own edges); this is expressed with
//! [`RoundMeter::merge_parallel`]. When clusters may overlap on edges (the
//! `(ε, φ, c)` decompositions of §4), the caller multiplies by the overlap factor `c`
//! exactly as the paper does, using [`RoundMeter::charge_rounds`].
//!
//! # Metered vs. executed modes
//!
//! The meter supports two styles of use, and both funnel through the same
//! accounting so their round counts are directly comparable:
//!
//! * **Metered (leader-local) mode** — the traditional style of this codebase:
//!   an algorithm is computed centrally and *charges* the rounds the
//!   distributed protocol would take, either message-by-message via
//!   [`RoundMeter::round`] (which verifies each message travels an edge and
//!   respects bandwidth) or in bulk via [`RoundMeter::charge_rounds`] for
//!   sub-routines whose pattern is provably within capacity. Model compliance
//!   of `charge_rounds` call sites is an *assertion* by the caller.
//! * **Executed mode** — the `mfd-runtime` crate runs algorithms as real
//!   message-passing node programs; every synchronous round's complete message
//!   set is submitted through [`RoundMeter::round`], so model compliance is
//!   *checked at execution time*, not asserted. [`RoundMeter::check_round`] is
//!   the non-recording validation hook the executor's tests use to state the
//!   contract: an executed round is committed if and only if the meter accepts
//!   it.
//!
//! Differential tests in `mfd-core` keep the two modes honest against each
//! other: the executed ports must produce the same outputs as their metered
//! counterparts with round counts within the paper's bounds.
//!
//! A guided tour of this crate's role in the workspace lives in
//! `docs/ARCHITECTURE.md` (section "mfd-congest").

pub mod meter;
pub mod primitives;

pub use meter::{CongestError, Message, MeterParts, RoundMeter};
pub use primitives::BfsTree;
