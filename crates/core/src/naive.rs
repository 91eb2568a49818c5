//! Naive all-pairs baseline (the red quadratic line of Figure 4(a)).
//!
//! Compares every eligible node pair with every `Candidate` predicate —
//! no embedding, no blocking. This is the approach the paper's clustering
//! exists to avoid; it is kept as the baseline for the scalability plots
//! and as a ground-truth oracle for the recall protocol ("no cluster
//! mode", Section 6.2).

use std::time::Instant;

use pgraph::NodeId;

use crate::augment::{AugmentStats, CandidatePredicate};
use crate::model::CompanyGraph;

/// Exhaustively compares all pairs; adds predicted links in place.
pub fn naive_augment(g: &mut CompanyGraph, candidates: &[&dyn CandidatePredicate]) -> AugmentStats {
    let start = Instant::now();
    let mut stats = AugmentStats {
        rounds: 1,
        ..Default::default()
    };
    for cand in candidates {
        let eligible: Vec<NodeId> = g
            .graph()
            .node_ids()
            .filter(|&n| cand.applies(g, n))
            .collect();
        let mut new_links = Vec::new();
        for i in 0..eligible.len() {
            for j in i + 1..eligible.len() {
                stats.comparisons += 1;
                if let Some(class) = cand.decide(g, eligible[i], eligible[j]) {
                    new_links.push((class, eligible[i], eligible[j]));
                }
            }
        }
        for (class, a, b) in new_links {
            if g.add_link_if_unlinked(&class, a, b) {
                stats.links_added += 1;
            }
        }
    }
    stats.compare_time = start.elapsed();
    stats.total_time = start.elapsed();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::PersonLinkCandidate;
    use crate::family::{FamilyDetector, FamilyDetectorConfig};
    use gen::company::{generate, CompanyGraphConfig};

    #[test]
    fn naive_is_exhaustive_and_superset_of_blocked() {
        let out = generate(&CompanyGraphConfig {
            persons: 200,
            companies: 100,
            seed: 5,
            ..Default::default()
        });
        let g = crate::model::CompanyGraph::new(out.graph);
        let det = FamilyDetector::train(&g, &out.truth, &FamilyDetectorConfig::default());
        let cand = PersonLinkCandidate::new(det);

        let mut g_naive = g.clone();
        let stats = naive_augment(&mut g_naive, &[&cand]);
        let n = g.persons().count();
        assert_eq!(stats.comparisons, n * (n - 1) / 2);

        let mut g_blocked = g.clone();
        crate::augment::augment(
            &mut g_blocked,
            &[&cand],
            &crate::augment::AugmentOptions {
                clusters: 1,
                max_rounds: 1,
                ..Default::default()
            },
        );
        // Every blocked prediction is also a naive prediction.
        for class in ["PartnerOf", "SiblingOf", "ParentOf"] {
            let naive: std::collections::HashSet<_> = g_naive
                .links_of(class)
                .into_iter()
                .map(|(a, b)| (a.0.min(b.0), a.0.max(b.0)))
                .collect();
            for (a, b) in g_blocked.links_of(class) {
                assert!(
                    naive.contains(&(a.0.min(b.0), a.0.max(b.0))),
                    "blocked found a pair naive missed"
                );
            }
        }
    }
}
