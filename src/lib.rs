//! # vada-link-suite
//!
//! Umbrella crate for the reproduction of *"Weaving Enterprise Knowledge
//! Graphs: The Case of Company Ownership Graphs"* (EDBT 2020). It re-exports
//! every workspace crate so examples and integration tests can use a single
//! dependency:
//!
//! * [`pgraph`] — property-graph store and analytics;
//! * [`datalog`] — the Vadalog-style Datalog± reasoning engine;
//! * [`embed`] — node2vec embeddings and k-means clustering;
//! * [`linkage`] — record-linkage distances, Bayesian matcher and blocking;
//! * [`gen`] — synthetic company-graph and scale-free generators;
//! * [`vada_link`] — the VADA-LINK framework (mappings, augmentation loop,
//!   company control, close links, family detection).

#![forbid(unsafe_code)]

pub use datalog;
pub use embed;
pub use gen;
pub use linkage;
pub use pgraph;
pub use vada_link;
