//! # gen — synthetic graph generators
//!
//! The paper's real dataset — the Italian company register held by Banca
//! d'Italia — is proprietary, so this crate *simulates* it (see DESIGN.md
//! §3):
//!
//! * [`ba`] — Barabási–Albert scale-free graphs with the density presets
//!   (`sparse`/`normal`/`dense`/`superdense`) used in Figures 4(b)/4(d),
//!   and six random node features as in Section 6 ("for each node, we
//!   randomly generated 6 features");
//! * [`company`] — an Italian-company-graph generator calibrated to the
//!   Section 2 statistics: scale-free shareholding with mean degree ≈ 1,
//!   high fragmentation, rare cycles, self-loops (buy-backs), person and
//!   company features drawn from realistic pools, plus **family ground
//!   truth** (partners, siblings, parents) for evaluating link detection;
//! * [`names`] — the name/city/street pools behind the feature synthesis.
//!
//! All generators are seeded and deterministic.

#![forbid(unsafe_code)]

pub mod ba;
pub mod company;
pub mod names;

pub use ba::{generate_ba, BaConfig, DensityPreset};
pub use company::{
    evolve, CompanyGraphConfig, EvolutionConfig, FamilyLink, GeneratedCompanyGraph, GroundTruth,
};
