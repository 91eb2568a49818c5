//! Detection of personal/family connections (Section 2, Algorithm 7).
//!
//! The paper predicts a personal link between persons `x` and `y` with a
//! multi-feature Bayesian classifier: per-feature conditional probabilities
//! `p_i = P(L | d(f_i^x, f_i^y) < T_i)` combined via Graham combination,
//! predicting a link when the combined probability exceeds 0.5
//! (`#LinkProbability(...) > 0.5` in Algorithm 7). This module wires the
//! [`linkage`] toolkit to company-graph person features and adds a
//! deterministic *typing* step that labels detected links as `PartnerOf`,
//! `SiblingOf` or `ParentOf` using surname/age/address structure.

use gen::company::FamilyLink;
use pgraph::{KeyId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use linkage::bayes::{BayesModel, FeatureSpec, TrainingPair};
use linkage::distance::{normalized_levenshtein, numeric_distance};

use crate::model::CompanyGraph;

/// Days in 100 years — the scale of the same-generation arm of the
/// kinship-gap distance: below threshold 0.18 means "born within ~18
/// years" (partners, siblings).
const SAME_GEN_SCALE_DAYS: f64 = 36_500.0;
/// Centre of the parent/child age-gap distribution, in days (~29 years).
const PARENT_GAP_DAYS: f64 = 10_500.0;
/// Scale of the parent-gap arm: below threshold 0.18 means "within ~10
/// years of a typical parent/child gap".
const PARENT_GAP_SCALE_DAYS: f64 = 20_278.0;
/// Age gap (days) separating same-generation pairs (partners, siblings —
/// gaps up to ~16 years) from parent/child pairs (gaps of 22+ years).
const GENERATION_GAP_DAYS: i64 = 7000;

/// Kinship-plausible age-gap distance: small when the pair is either of
/// the same generation (small gap — partners, siblings) or one generation
/// apart (gap near the typical ~29-year parent/child gap). A single
/// thresholded feature cannot be bimodal, so the bimodality is folded
/// into the distance itself, with a tighter tolerance around the parent
/// mode than around zero.
pub fn kinship_gap_distance(birth_a: i64, birth_b: i64) -> f64 {
    let gap = (birth_a - birth_b).abs() as f64;
    let same_gen = numeric_distance(gap, 0.0, SAME_GEN_SCALE_DAYS);
    let parent_gen = numeric_distance(gap, PARENT_GAP_DAYS, PARENT_GAP_SCALE_DAYS);
    same_gen.min(parent_gen)
}

/// The feature set used for person-pair comparison, in order:
/// surname (edit distance), home address (exact match), birth date
/// (same-generation), birth place (exact match).
///
/// First names are deliberately excluded: family members do not share
/// them, so the feature carries no signal — and in Graham combination an
/// uninformative feature (posterior ≈ prior < 0.5) actively votes against
/// every link. Addresses are compared exactly rather than by edit
/// distance: street pools are small, so unrelated addresses often differ
/// by a single house number — a one-character edit.
pub fn feature_specs() -> Vec<FeatureSpec> {
    vec![
        FeatureSpec::new("surname", 0.25),
        FeatureSpec::new("address", 0.5),
        FeatureSpec::new("birth", 0.18),
        FeatureSpec::new("birth_city", 0.5),
    ]
}

/// Per-feature distances for a pair of person nodes, in
/// [`feature_specs`] order. `None` marks missing features.
pub fn pair_distances(g: &CompanyGraph, a: NodeId, b: NodeId) -> [Option<f64>; 4] {
    let keys = g.person_keys();
    let exact = |key: KeyId| -> Option<f64> {
        match (g.str_prop_id(a, key), g.str_prop_id(b, key)) {
            (Some(x), Some(y)) => Some(if x == y { 0.0 } else { 1.0 }),
            _ => None,
        }
    };
    let surname = match (
        g.str_prop_id(a, keys.surname),
        g.str_prop_id(b, keys.surname),
    ) {
        (Some(x), Some(y)) => Some(normalized_levenshtein(x, y)),
        _ => None,
    };
    let birth = match (g.int_prop_id(a, keys.birth), g.int_prop_id(b, keys.birth)) {
        (Some(x), Some(y)) => Some(kinship_gap_distance(x, y)),
        _ => None,
    };
    [surname, exact(keys.address), birth, exact(keys.birth_city)]
}

/// Configuration for training the detector.
#[derive(Debug, Clone)]
pub struct FamilyDetectorConfig {
    /// Number of negative (unlinked) pairs sampled per positive pair.
    pub negatives_per_positive: usize,
    /// RNG seed for negative sampling.
    pub seed: u64,
}

impl Default for FamilyDetectorConfig {
    fn default() -> Self {
        FamilyDetectorConfig {
            // Two negatives per positive: balanced enough that weakly
            // informative features do not veto every link (with a heavily
            // skewed prior the Graham neutral point drops below 0.5), yet
            // strict enough to keep the false-positive rate near zero.
            negatives_per_positive: 2,
            seed: 0xFA111A,
        }
    }
}

/// A trained family-link detector.
#[derive(Debug, Clone)]
pub struct FamilyDetector {
    model: BayesModel,
}

impl FamilyDetector {
    /// Wraps a pre-trained Bayesian model.
    pub fn from_model(model: BayesModel) -> Self {
        FamilyDetector { model }
    }

    /// Trains from a generated graph's ground truth: positive pairs are the
    /// truth links, negatives are random person pairs from different
    /// families.
    pub fn train(
        g: &CompanyGraph,
        truth: &gen::company::GroundTruth,
        cfg: &FamilyDetectorConfig,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let persons: Vec<NodeId> = g.persons().collect();
        let mut pairs: Vec<TrainingPair> = Vec::new();
        for (a, b, _) in &truth.links {
            pairs.push(TrainingPair {
                distances: pair_distances(g, *a, *b).to_vec(),
                linked: true,
            });
            for _ in 0..cfg.negatives_per_positive {
                let (x, y) = loop {
                    let x = persons[rng.random_range(0..persons.len())];
                    let y = persons[rng.random_range(0..persons.len())];
                    if x == y {
                        continue;
                    }
                    let fx = truth.family_of.get(x.index()).copied().flatten();
                    let fy = truth.family_of.get(y.index()).copied().flatten();
                    if fx.is_none() || fx != fy {
                        break (x, y);
                    }
                };
                pairs.push(TrainingPair {
                    distances: pair_distances(g, x, y).to_vec(),
                    linked: false,
                });
            }
        }
        FamilyDetector {
            model: BayesModel::train(feature_specs(), &pairs),
        }
    }

    /// The underlying Bayesian model.
    pub fn model(&self) -> &BayesModel {
        &self.model
    }

    /// Combined link probability for a person pair (the paper's
    /// `#LinkProbability`).
    pub fn link_probability(&self, g: &CompanyGraph, a: NodeId, b: NodeId) -> f64 {
        self.model.link_probability(&pair_distances(g, a, b))
    }

    /// Detects and types a personal link (Algorithm 7 plus typing):
    /// returns `None` when the combined probability is ≤ 0.5.
    pub fn detect(&self, g: &CompanyGraph, a: NodeId, b: NodeId) -> Option<FamilyLink> {
        if !g.is_person(a) || !g.is_person(b) || a == b {
            return None;
        }
        if self.link_probability(g, a, b) <= 0.5 {
            return None;
        }
        Some(classify_link(g, a, b))
    }
}

/// Deterministic typing of a detected personal link.
///
/// * an age gap of a generation or more → `ParentOf` (regardless of
///   surname: half of parent links are mother/child pairs with the
///   mother's own surname);
/// * within a generation with a shared surname → `SiblingOf`;
/// * otherwise → `PartnerOf` — partners mostly keep their own surnames in
///   the Italian register. (Same-surname partners are typed as siblings;
///   the two classes are not separable from register features alone.)
pub fn classify_link(g: &CompanyGraph, a: NodeId, b: NodeId) -> FamilyLink {
    let keys = g.person_keys();
    let same_surname = match (
        g.str_prop_id(a, keys.surname),
        g.str_prop_id(b, keys.surname),
    ) {
        (Some(x), Some(y)) => normalized_levenshtein(x, y) < 0.25,
        _ => false,
    };
    let gap = match (g.int_prop_id(a, keys.birth), g.int_prop_id(b, keys.birth)) {
        (Some(x), Some(y)) => (x - y).abs(),
        _ => 0,
    };
    if gap >= GENERATION_GAP_DAYS {
        FamilyLink::ParentOf
    } else if same_surname {
        FamilyLink::SiblingOf
    } else {
        FamilyLink::PartnerOf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gen::company::{generate, CompanyGraphConfig};

    fn trained() -> (CompanyGraph, gen::company::GroundTruth, FamilyDetector) {
        let out = generate(&CompanyGraphConfig {
            persons: 1200,
            companies: 600,
            seed: 7,
            ..Default::default()
        });
        let g = CompanyGraph::new(out.graph);
        let det = FamilyDetector::train(&g, &out.truth, &FamilyDetectorConfig::default());
        (g, out.truth, det)
    }

    #[test]
    fn recall_on_ground_truth_links() {
        let (g, truth, det) = trained();
        let mut hit = 0usize;
        let mut total = 0usize;
        for (a, b, _) in &truth.links {
            total += 1;
            if det.detect(&g, *a, *b).is_some() {
                hit += 1;
            }
        }
        let recall = hit as f64 / total as f64;
        assert!(recall > 0.7, "recall {recall} too low ({hit}/{total})");
    }

    #[test]
    fn precision_on_random_pairs() {
        let (g, truth, det) = trained();
        let persons: Vec<NodeId> = g.persons().collect();
        let mut rng = StdRng::seed_from_u64(99);
        let mut false_pos = 0usize;
        let n = 3000;
        for _ in 0..n {
            let a = persons[rng.random_range(0..persons.len())];
            let b = persons[rng.random_range(0..persons.len())];
            if a == b {
                continue;
            }
            let fa = truth.family_of[a.index()];
            let fb = truth.family_of[b.index()];
            if fa.is_some() && fa == fb {
                continue; // actually related
            }
            if det.detect(&g, a, b).is_some() {
                false_pos += 1;
            }
        }
        let fpr = false_pos as f64 / n as f64;
        assert!(fpr < 0.05, "false-positive rate {fpr} too high");
    }

    #[test]
    fn typing_distinguishes_generations() {
        let (g, truth, det) = trained();
        let mut parent_correct = 0usize;
        let mut parent_total = 0usize;
        for (a, b) in truth.of_kind(FamilyLink::ParentOf) {
            if let Some(kind) = det.detect(&g, a, b) {
                parent_total += 1;
                if kind == FamilyLink::ParentOf {
                    parent_correct += 1;
                }
            }
        }
        assert!(parent_total > 10, "need detected parent pairs to judge");
        assert!(
            parent_correct as f64 / parent_total as f64 > 0.8,
            "{parent_correct}/{parent_total}"
        );
    }

    #[test]
    fn non_persons_are_rejected() {
        let (g, _, det) = trained();
        let p = g.persons().next().unwrap();
        let c = g.companies().next().unwrap();
        assert!(det.detect(&g, p, c).is_none());
        assert!(det.detect(&g, p, p).is_none());
    }

    #[test]
    fn missing_features_do_not_crash() {
        let mut b = crate::model::CompanyGraphBuilder::new();
        let a = b.person("A");
        let c = b.person("B");
        let g = b.build();
        let d = pair_distances(&g, a, c);
        // Builder persons carry only a first name — every classifier
        // feature is missing, so the vector is all-None.
        assert_eq!(d.len(), feature_specs().len());
        assert!(d.iter().all(|x| x.is_none()));
    }

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
}
