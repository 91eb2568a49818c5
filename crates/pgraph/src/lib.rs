//! # pgraph — property graph substrate
//!
//! An in-memory [property graph](https://en.wikipedia.org/wiki/Graph_database#Labeled-property_graph)
//! implementation following Definition 2.1 of the paper *"Weaving Enterprise
//! Knowledge Graphs: The Case of Company Ownership Graphs"* (EDBT 2020):
//! a tuple `G = (N, E, rho, lambda, sigma)` with labelled nodes and edges and
//! a partial property-assignment function.
//!
//! The crate provides:
//!
//! * [`PropertyGraph`] — the mutable graph store with interned labels and
//!   property keys, and O(1) incidence lookups in both directions;
//! * [`Csr`] — an immutable compressed-sparse-row snapshot used by the
//!   analytics and embedding layers;
//! * [`algo`] — graph analytics used to characterize company graphs in
//!   Section 2 of the paper (SCC, WCC, degree distributions, clustering
//!   coefficient, power-law fit, simple-path enumeration);
//! * [`stats`] — a one-call summary reproducing the Section 2 statistics;
//! * [`io`] — a minimal CSV import/export for nodes and edges.
//!
//! This store plays the role Neo4j played in the paper's deployment: the
//! extensional component of the knowledge graph.

#![forbid(unsafe_code)]

pub mod algo;
pub mod csr;
pub mod graph;
pub mod id;
pub mod io;
pub mod stats;
pub mod value;

pub use csr::Csr;
pub use graph::{induced_subgraph, EdgeData, NodeData, PropertyGraph};
pub use id::{EdgeId, KeyId, LabelId, NodeId};
pub use stats::GraphStats;
pub use value::Value;
