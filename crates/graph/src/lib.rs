//! Graph substrate for the minor-free decomposition library.
//!
//! This crate provides everything the decomposition, routing and application layers
//! need to talk about graphs:
//!
//! * [`Graph`] — the one graph type every layer reads: a simple undirected
//!   graph in compressed sparse row form (one flat neighbour array, each row
//!   sorted and deduplicated), with the common structural queries (degrees,
//!   BFS, diameter, connectivity, volumes, cuts, conductance of cuts),
//!   induced subgraphs and quotient (cluster) graphs. It is built from
//!   an edge list ([`Graph::from_edges`]) and never mutated afterwards.
//! * [`gen`] — streaming O(m) generators (R-MAT, power-law, large
//!   triangulated meshes) for million-vertex runs.
//! * [`WeightedGraph`] — an edge-weighted graph used for cluster graphs, where the
//!   weight of an edge between two clusters is the number of original edges crossing
//!   them: a [`Graph`]'s sorted rows plus one weight per arc, built once by
//!   [`WeightedGraph::from_edges`].
//! * [`generators`] — deterministic and seeded generators for the graph families the
//!   paper's statements quantify over: planar families (grids, triangulated grids,
//!   wheels, stacked triangulations / random Apollonian networks, outerplanar),
//!   bounded-treewidth families (k-trees, series–parallel), trees and forests, and
//!   non-minor-free controls (hypercubes, random graphs, planar graphs with random
//!   chords) used by the property-testing experiments.
//! * [`properties`] — degeneracy (an arboricity bound), conductance,
//!   spectral sweep cuts, brute-force conductance for small graphs.
//! * [`planarity`] — an exact planarity test (biconnected decomposition + Demoucron
//!   face embedding) used both by the property-testing application and by the test
//!   suite to validate the planar generators.
//! * [`recognition`] — recognizers for additive minor-closed properties (forests,
//!   treewidth ≤ 2 / series–parallel, outerplanar graphs) used as
//!   plug-in properties for the distributed property tester.
//!
//! # Example
//!
//! ```
//! use mfd_graph::generators;
//! use mfd_graph::planarity::is_planar;
//!
//! let g = generators::triangulated_grid(8, 8);
//! assert!(g.is_connected());
//! assert!(is_planar(&g));
//! ```
//!
//! A guided tour of this crate's role in the workspace lives in
//! `docs/ARCHITECTURE.md` (section "mfd-graph").

pub mod gen;
pub mod generators;
pub mod graph;
pub mod planarity;
pub mod properties;
pub mod recognition;
pub mod weighted;

pub use graph::Graph;
pub use weighted::WeightedGraph;

/// Exists only for `perf/`, which names the graph type this way; the next
/// benchmark-only change deletes it.
pub type CsrGraph = Graph;
