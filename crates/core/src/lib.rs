//! # vada-link — knowledge-graph augmentation over company ownership graphs
//!
//! Reproduction of the VADA-LINK framework from *"Weaving Enterprise
//! Knowledge Graphs: The Case of Company Ownership Graphs"* (EDBT 2020).
//!
//! The framework treats a company ownership graph (persons, companies,
//! shareholding edges) as the *extensional component* of a knowledge graph
//! and derives hidden links — **company control**, **close links**,
//! **personal/family connections** — by combining logic-based reasoning
//! with two-level clustering:
//!
//! 1. a first-level clustering via node2vec embeddings + k-means
//!    (`#GraphEmbedClust`, [`mod@augment`]);
//! 2. a second-level feature blocking (`#GenerateBlocks`,
//!    [`linkage::blocking`]);
//! 3. polymorphic `Candidate` predicates deciding links within blocks
//!    ([`augment::CandidatePredicate`], [`control`], [`closelink`],
//!    [`family`]).
//!
//! Every problem has two implementations that are differentially tested
//! against each other:
//!
//! * a **native** Rust algorithm (worklist fixpoints, path enumeration);
//! * the paper's **Vadalog program** (Algorithms 5–9), executed on the
//!   [`datalog`] engine via the input/output mappings of Algorithms 2/4
//!   ([`mapping`], [`programs`]).
//!
//! ```
//! use vada_link::model::CompanyGraphBuilder;
//! use vada_link::control::all_control;
//!
//! let mut b = CompanyGraphBuilder::new();
//! let p = b.person("P1");
//! let c = b.company("C");
//! let d = b.company("D");
//! b.share(p, c, 0.8);
//! b.share(c, d, 0.6);
//! let g = b.build();
//! let control = all_control(&g);
//! assert!(control.iter().any(|&(x, y)| x == p && y == d));
//! ```

#![forbid(unsafe_code)]

pub mod augment;
pub mod candidates;
pub mod closelink;
pub mod control;
pub mod family;
pub mod kg;
pub mod mapping;
pub mod model;
pub mod naive;
pub mod paper_graphs;
pub mod programs;
pub mod recall;

pub use augment::{augment, augment_delta, AugmentOptions, AugmentStats, CandidatePredicate};
pub use candidates::{CloseLinkCandidate, ControlCandidate};
pub use closelink::{accumulated_ownership, close_links, CloseLink, CloseLinkReason};
pub use control::{all_control, controls, family_control};
pub use family::{FamilyDetector, FamilyDetectorConfig};
pub use kg::{KgUpdate, KnowledgeGraph, LinkDiff, OwnershipChange};
pub use model::{CompanyGraph, CompanyGraphBuilder};
