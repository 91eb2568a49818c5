//! # linkage — record-linkage toolkit
//!
//! The paper borrows "from the vast experience of the database community in
//! record linkage": *blocking* to avoid the quadratic blow-up of pairwise
//! comparison, and *feature-based probabilistic matching* to decide links.
//! This crate provides those ingredients:
//!
//! * [`distance`] — string and numeric similarity measures (Levenshtein,
//!   Damerau-Levenshtein, Jaro, Jaro-Winkler, Soundex, scaled numeric
//!   distances);
//! * [`bayes`] — the paper's multi-feature Bayesian classifier: per-feature
//!   conditional probabilities `p_i = P(L | d(f_i^x, f_i^y) < T_i)`
//!   estimated from training data, combined with **Graham combination**
//!   `p = Πp_i / (Πp_i + Π(1−p_i))`;
//! * [`blocking`] — deterministic feature-based blocking
//!   (`#GenerateBlocks` in Algorithm 3), including the fixed-block-count
//!   hasher used to sweep cluster counts in Figures 4(c)/4(e);
//! * [`score`] — parallel all-pairs-within-block scoring with a
//!   deterministic pair order, so results are bit-identical for any
//!   thread count.

#![forbid(unsafe_code)]

pub mod bayes;
pub mod blocking;
pub mod distance;
pub mod score;

pub use bayes::{BayesModel, FeatureSpec, TrainingPair};
pub use blocking::{block_by_key, FeatureBlocker};
pub use distance::{
    damerau_levenshtein, jaro, jaro_winkler, levenshtein, normalized_levenshtein, numeric_distance,
    soundex,
};
pub use score::{block_pairs, score_blocks, score_pairs};
