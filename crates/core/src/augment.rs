//! The KG augmentation loop (Algorithm 1 / Algorithm 3 of the paper).
//!
//! Each round:
//!
//! 1. **`#GraphEmbedClust`** — embed the current graph with node2vec and
//!    k-means the vectors into first-level clusters (skipped when
//!    `clusters ≤ 1`, the paper's "no cluster mode");
//! 2. **`#GenerateBlocks`** — partition each cluster into second-level
//!    blocks by a deterministic feature key (natural keys, or a fixed
//!    block count for the Figure 4(c)/(e) sweeps);
//! 3. **`Candidate`** — compare the node pairs inside each block for every
//!    link class and add the predicted typed edges.
//!
//! Newly added edges feed the next round's embedding — the paper's
//! *reinforcement principle*: "positively predicted edges in turn help new
//! predictions". The loop stops when a round adds no edges (bounded by
//! `|N|² · |C|` pairs, Section 4.4) or when `max_rounds` is reached.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use embed::{kmeans, node2vec, Node2VecConfig};
use gen::company::FamilyLink;
use linkage::blocking::FeatureBlocker;
use linkage::distance::soundex;
use pgraph::NodeId;

use crate::family::FamilyDetector;
use crate::model::CompanyGraph;

/// A polymorphic link-prediction predicate (the paper's `Candidate`).
///
/// `Sync` is a supertrait: [`augment`] evaluates the pairs of a block on
/// [`par`] scoped threads, which share the predicate by reference. Decisions
/// must be pure functions of `(g, a, b)` — interior mutability is allowed
/// only behind a lock (see `ControlCandidate`'s memo).
pub trait CandidatePredicate: Sync {
    /// The link classes this predicate can produce (for reporting).
    fn classes(&self) -> Vec<String>;

    /// Whether a node participates in this link class at all.
    fn applies(&self, g: &CompanyGraph, n: NodeId) -> bool;

    /// The natural second-level blocking keys of a node
    /// (`#GenerateBlocks`). A node may carry several keys (multi-pass
    /// blocking, standard in record linkage); two nodes are compared when
    /// they share at least one key.
    fn block_keys(&self, g: &CompanyGraph, n: NodeId) -> Vec<u64>;

    /// Decides whether a link exists between two nodes; returns the edge
    /// class label to add.
    fn decide(&self, g: &CompanyGraph, a: NodeId, b: NodeId) -> Option<String>;
}

/// Options of the augmentation loop.
#[derive(Debug, Clone)]
pub struct AugmentOptions {
    /// First-level cluster count (k-means `k`); `≤ 1` disables embedding
    /// ("no cluster mode").
    pub clusters: usize,
    /// Second-level override: hash natural keys into exactly this many
    /// blocks (the Figure 4(c)/(e) sweep dial). `None` = natural keys.
    pub block_count: Option<usize>,
    /// node2vec configuration for `#GraphEmbedClust`.
    pub node2vec: Node2VecConfig,
    /// Maximum reinforcement rounds.
    pub max_rounds: usize,
    /// Seed for k-means and block hashing.
    pub seed: u64,
    /// Worker threads for pair evaluation (`0` = the [`par::threads`]
    /// default). The result is identical for every value: pairs are
    /// enumerated deterministically before any thread runs.
    pub threads: usize,
}

impl Default for AugmentOptions {
    fn default() -> Self {
        AugmentOptions {
            clusters: 8,
            block_count: None,
            node2vec: fast_node2vec(),
            max_rounds: 3,
            seed: 0xA06,
            threads: 0,
        }
    }
}

/// A node2vec configuration sized for blocking (not representation
/// learning): short walks, few epochs, 32 dimensions.
pub fn fast_node2vec() -> Node2VecConfig {
    Node2VecConfig {
        dims: 32,
        walk_length: 10,
        walks_per_node: 2,
        window: 3,
        negatives: 3,
        epochs: 1,
        learning_rate: 0.05,
        p: 1.0,
        q: 0.5,
        seed: 0xE5B,
        threads: 1,
    }
}

/// Statistics of one augmentation run.
#[derive(Debug, Clone, Default)]
pub struct AugmentStats {
    /// Rounds executed.
    pub rounds: usize,
    /// Pairwise `Candidate` evaluations performed.
    pub comparisons: usize,
    /// Typed edges added.
    pub links_added: usize,
    /// Time spent embedding + clustering.
    pub embed_time: Duration,
    /// Time spent blocking + comparing.
    pub compare_time: Duration,
    /// Total wall-clock time.
    pub total_time: Duration,
}

/// Runs the augmentation loop over `g`, adding predicted edges in place.
pub fn augment(
    g: &mut CompanyGraph,
    candidates: &[&dyn CandidatePredicate],
    opts: &AugmentOptions,
) -> AugmentStats {
    let start = Instant::now();
    let mut stats = AugmentStats::default();
    // Compared pairs, per candidate: Algorithm 1 evaluates every link
    // class c for a pair, so the dedup key includes the candidate index.
    let mut seen: HashSet<(usize, u32, u32)> = HashSet::new();
    let blocker = match opts.block_count {
        Some(k) => FeatureBlocker::with_block_count(k).with_salt(opts.seed),
        None => FeatureBlocker::natural().with_salt(opts.seed),
    };

    for _round in 0..opts.max_rounds.max(1) {
        stats.rounds += 1;
        // First-level clustering (#GraphEmbedClust).
        let t0 = Instant::now();
        let assign: Vec<u32> = if opts.clusters > 1 {
            let csr = g.csr();
            let emb = node2vec(&csr, &opts.node2vec);
            kmeans(&emb, opts.clusters, 20, opts.seed)
        } else {
            vec![0; g.node_count()]
        };
        stats.embed_time += t0.elapsed();

        // Second-level blocking + candidate evaluation.
        let t1 = Instant::now();
        let mut added_this_round = 0usize;
        let mut new_links: Vec<(String, NodeId, NodeId)> = Vec::new();
        for (ci, cand) in candidates.iter().enumerate() {
            // (cluster, block) → members.
            use std::collections::HashMap;
            let mut blocks: HashMap<(u32, u64), Vec<NodeId>> = HashMap::new();
            for n in g.graph().node_ids() {
                if !cand.applies(g, n) {
                    continue;
                }
                let mut keys: Vec<u64> = cand
                    .block_keys(g, n)
                    .into_iter()
                    .map(|k| blocker.block_of(&k))
                    .collect();
                keys.sort_unstable();
                keys.dedup();
                for key in keys {
                    blocks.entry((assign[n.index()], key)).or_default().push(n);
                }
            }
            // Enumerate the candidate pairs deterministically *before* any
            // thread runs: blocks in sorted key order, members in list
            // order, deduplicated against every earlier round. The parallel
            // fan-out below then cannot affect which pairs are compared.
            let mut keys: Vec<&(u32, u64)> = blocks.keys().collect();
            keys.sort_unstable();
            let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
            for key in keys {
                let members = &blocks[key];
                for i in 0..members.len() {
                    for j in i + 1..members.len() {
                        let (a, b) = (members[i], members[j]);
                        if seen.insert((ci, a.0.min(b.0), a.0.max(b.0))) {
                            pairs.push((a, b));
                        }
                    }
                }
            }
            stats.comparisons += pairs.len();
            // Parallel `Candidate` evaluation; decisions are pure, and the
            // in-order zip keeps `new_links` independent of thread count.
            let gref = &*g;
            let decisions =
                par::par_map_with(&pairs, opts.threads, 0, |&(a, b)| cand.decide(gref, a, b));
            for ((a, b), class) in pairs.into_iter().zip(decisions) {
                if let Some(class) = class {
                    new_links.push((class, a, b));
                }
            }
        }
        // Insert in a canonical order: block iteration is hash-ordered,
        // and edge insertion order feeds the next round's random walks —
        // sorting keeps the whole loop seed-deterministic.
        new_links.sort_unstable_by(|(c1, a1, b1), (c2, a2, b2)| (c1, a1, b1).cmp(&(c2, a2, b2)));
        for (class, a, b) in new_links {
            if g.add_link_if_unlinked(&class, a, b) {
                added_this_round += 1;
            }
        }
        stats.compare_time += t1.elapsed();
        stats.links_added += added_this_round;
        if added_this_round == 0 {
            break;
        }
    }
    stats.total_time = start.elapsed();
    stats
}

/// Re-evaluates only the `Candidate` pairs a change can affect: blocks
/// are rebuilt from scratch (blocking is linear and cheap — comparisons
/// are the quadratic cost), but pairs are enumerated only when at least
/// one member is in `touched`. The embedding step is skipped: re-running
/// `#GraphEmbedClust` would reshuffle blocks far away from the change, so
/// the delta pass works in the paper's "no cluster mode". One round; the
/// reinforcement loop belongs to full [`augment`] runs.
///
/// With `touched` covering every node this degenerates to a single
/// `clusters = 1` round of [`augment`] — the differential tests pin that.
pub fn augment_delta(
    g: &mut CompanyGraph,
    candidates: &[&dyn CandidatePredicate],
    touched: &[NodeId],
    opts: &AugmentOptions,
) -> AugmentStats {
    use std::collections::HashMap;

    let start = Instant::now();
    let mut stats = AugmentStats {
        rounds: 1,
        ..AugmentStats::default()
    };
    let touched_set: HashSet<NodeId> = touched.iter().copied().collect();
    if touched_set.is_empty() {
        stats.total_time = start.elapsed();
        return stats;
    }
    let blocker = match opts.block_count {
        Some(k) => FeatureBlocker::with_block_count(k).with_salt(opts.seed),
        None => FeatureBlocker::natural().with_salt(opts.seed),
    };
    let t1 = Instant::now();
    let mut new_links: Vec<(String, NodeId, NodeId)> = Vec::new();
    for cand in candidates {
        let mut blocks: HashMap<u64, Vec<NodeId>> = HashMap::new();
        for n in g.graph().node_ids() {
            if !cand.applies(g, n) {
                continue;
            }
            let mut keys: Vec<u64> = cand
                .block_keys(g, n)
                .into_iter()
                .map(|k| blocker.block_of(&k))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            for key in keys {
                blocks.entry(key).or_default().push(n);
            }
        }
        // Same deterministic enumeration as the full loop, restricted to
        // pairs with a touched member; dedup is per candidate.
        let mut keys: Vec<&u64> = blocks.keys().collect();
        keys.sort_unstable();
        let mut seen: HashSet<(u32, u32)> = HashSet::new();
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        for key in keys {
            let members = &blocks[key];
            if !members.iter().any(|m| touched_set.contains(m)) {
                continue;
            }
            for i in 0..members.len() {
                for j in i + 1..members.len() {
                    let (a, b) = (members[i], members[j]);
                    if !touched_set.contains(&a) && !touched_set.contains(&b) {
                        continue;
                    }
                    if seen.insert((a.0.min(b.0), a.0.max(b.0))) {
                        pairs.push((a, b));
                    }
                }
            }
        }
        stats.comparisons += pairs.len();
        let gref = &*g;
        let decisions =
            par::par_map_with(&pairs, opts.threads, 0, |&(a, b)| cand.decide(gref, a, b));
        for ((a, b), class) in pairs.into_iter().zip(decisions) {
            if let Some(class) = class {
                new_links.push((class, a, b));
            }
        }
    }
    new_links.sort_unstable_by(|(c1, a1, b1), (c2, a2, b2)| (c1, a1, b1).cmp(&(c2, a2, b2)));
    for (class, a, b) in new_links {
        if g.add_link_if_unlinked(&class, a, b) {
            stats.links_added += 1;
        }
    }
    stats.compare_time = t1.elapsed();
    stats.total_time = start.elapsed();
    stats
}

/// The personal-connection `Candidate` (Algorithm 7): persons only,
/// blocked by home address (family members overwhelmingly share one),
/// decided by the Bayesian detector and typed by surname/age structure.
pub struct PersonLinkCandidate {
    detector: FamilyDetector,
}

impl PersonLinkCandidate {
    /// Wraps a trained detector.
    pub fn new(detector: FamilyDetector) -> Self {
        PersonLinkCandidate { detector }
    }

    /// Access to the detector.
    pub fn detector(&self) -> &FamilyDetector {
        &self.detector
    }
}

impl CandidatePredicate for PersonLinkCandidate {
    fn classes(&self) -> Vec<String> {
        vec![
            FamilyLink::PartnerOf.name().to_owned(),
            FamilyLink::SiblingOf.name().to_owned(),
            FamilyLink::ParentOf.name().to_owned(),
        ]
    }

    fn applies(&self, g: &CompanyGraph, n: NodeId) -> bool {
        g.is_person(n)
    }

    fn block_keys(&self, g: &CompanyGraph, n: NodeId) -> Vec<u64> {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        // Two passes: home address (partners and cohabiting family) and
        // surname phonetics (parents, siblings, married-out children).
        // The surname pass is made composite with the birth place —
        // soundex blocks of common surnames otherwise grow linearly with
        // the population and comparisons quadratically; Section 6.1 of the
        // paper recommends exactly this ("resorting to specific features,
        // for example address vicinity or geographic area, could highly
        // reduce the search space").
        let mut keys = Vec::with_capacity(2);
        if let Some(a) = g.str_prop(n, "address") {
            let mut h = DefaultHasher::new();
            ("addr", a).hash(&mut h);
            keys.push(h.finish());
        }
        if let Some(s) = g.str_prop(n, "surname") {
            let mut h = DefaultHasher::new();
            let city = g.str_prop(n, "birth_city").unwrap_or("");
            ("surname", soundex(s), city).hash(&mut h);
            keys.push(h.finish());
        }
        keys
    }

    fn decide(&self, g: &CompanyGraph, a: NodeId, b: NodeId) -> Option<String> {
        self.detector.detect(g, a, b).map(|k| k.name().to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::FamilyDetectorConfig;
    use gen::company::{generate, CompanyGraphConfig};

    fn setup(persons: usize) -> (CompanyGraph, gen::company::GroundTruth, PersonLinkCandidate) {
        let out = generate(&CompanyGraphConfig {
            persons,
            companies: persons / 2,
            seed: 21,
            ..Default::default()
        });
        let g = CompanyGraph::new(out.graph);
        let det = FamilyDetector::train(&g, &out.truth, &FamilyDetectorConfig::default());
        (g, out.truth, PersonLinkCandidate::new(det))
    }

    #[test]
    fn augmentation_adds_family_links() {
        let (mut g, truth, cand) = setup(400);
        let stats = augment(
            &mut g,
            &[&cand],
            &AugmentOptions {
                clusters: 1,
                block_count: None,
                ..Default::default()
            },
        );
        assert!(stats.links_added > 0);
        let partner_links = g.links_of("PartnerOf");
        assert!(!partner_links.is_empty());
        // Recall against ground truth with natural (address) blocking.
        let predicted: std::collections::HashSet<(u32, u32)> =
            ["PartnerOf", "SiblingOf", "ParentOf"]
                .iter()
                .flat_map(|c| g.links_of(c))
                .map(|(a, b)| (a.0.min(b.0), a.0.max(b.0)))
                .collect();
        let mut hit = 0;
        let mut total = 0;
        for (a, b, _) in &truth.links {
            total += 1;
            if predicted.contains(&(a.0.min(b.0), a.0.max(b.0))) {
                hit += 1;
            }
        }
        let recall = hit as f64 / total as f64;
        assert!(recall > 0.5, "recall {recall} ({hit}/{total})");
    }

    #[test]
    fn blocking_reduces_comparisons() {
        let (g, _, cand) = setup(400);
        let naive_pairs = {
            let n = g.persons().count();
            n * (n - 1) / 2
        };
        let mut g1 = g.clone();
        let stats = augment(
            &mut g1,
            &[&cand],
            &AugmentOptions {
                clusters: 1,
                block_count: None,
                max_rounds: 1,
                ..Default::default()
            },
        );
        assert!(
            stats.comparisons < naive_pairs / 5,
            "blocking should cut comparisons: {} vs {naive_pairs}",
            stats.comparisons
        );
    }

    #[test]
    fn fixed_block_count_controls_comparisons() {
        let (g, _, cand) = setup(300);
        let count_with = |k: usize| {
            let mut gg = g.clone();
            augment(
                &mut gg,
                &[&cand],
                &AugmentOptions {
                    clusters: 1,
                    block_count: Some(k),
                    max_rounds: 1,
                    ..Default::default()
                },
            )
            .comparisons
        };
        let c1 = count_with(1);
        let c10 = count_with(10);
        let c100 = count_with(100);
        assert!(c1 > c10 && c10 > c100, "{c1} > {c10} > {c100} expected");
        let n = g.persons().count();
        assert_eq!(c1, n * (n - 1) / 2, "one block = exhaustive comparison");
    }

    #[test]
    fn clustering_path_runs_end_to_end() {
        let (mut g, _, cand) = setup(200);
        let stats = augment(
            &mut g,
            &[&cand],
            &AugmentOptions {
                clusters: 4,
                block_count: Some(20),
                max_rounds: 2,
                ..Default::default()
            },
        );
        assert!(stats.rounds >= 1);
        assert!(stats.embed_time > Duration::ZERO);
    }

    #[test]
    fn delta_pass_matches_one_full_round_when_everything_is_touched() {
        let (g, _, cand) = setup(300);
        let opts = AugmentOptions {
            clusters: 1,
            max_rounds: 1,
            ..Default::default()
        };
        let mut g_full = g.clone();
        let full = augment(&mut g_full, &[&cand], &opts);
        let mut g_delta = g.clone();
        let all: Vec<NodeId> = g.graph().node_ids().collect();
        let delta = augment_delta(&mut g_delta, &[&cand], &all, &opts);
        assert_eq!(delta.comparisons, full.comparisons);
        assert_eq!(delta.links_added, full.links_added);
        for class in ["PartnerOf", "SiblingOf", "ParentOf"] {
            let mut a = g_full.links_of(class);
            let mut b = g_delta.links_of(class);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{class} links diverged");
        }
    }

    #[test]
    fn delta_pass_narrows_to_the_touched_neighborhood() {
        let (g, _, cand) = setup(300);
        let opts = AugmentOptions {
            clusters: 1,
            max_rounds: 1,
            ..Default::default()
        };
        let mut g_full = g.clone();
        let full = augment(&mut g_full, &[&cand], &opts);
        // Empty delta: nothing compared, nothing added.
        let mut g0 = g.clone();
        let none = augment_delta(&mut g0, &[&cand], &[], &opts);
        assert_eq!(none.comparisons, 0);
        assert_eq!(none.links_added, 0);
        // A single touched person only compares pairs it participates in.
        let p = g.persons().next().unwrap();
        let one = augment_delta(&mut g0, &[&cand], &[p], &opts);
        assert!(
            one.comparisons < full.comparisons,
            "{} should be well below {}",
            one.comparisons,
            full.comparisons
        );
        // Every link it did add also appears in the full pass.
        for class in ["PartnerOf", "SiblingOf", "ParentOf"] {
            for (a, b) in g0.links_of(class) {
                assert!(
                    g_full.find_link(class, a, b).is_some()
                        || g_full.find_link(class, b, a).is_some(),
                    "spurious {class} link {a:?}-{b:?}"
                );
            }
        }
    }

    #[test]
    fn rerun_is_stable() {
        let (mut g, _, cand) = setup(200);
        let opts = AugmentOptions {
            clusters: 1,
            ..Default::default()
        };
        augment(&mut g, &[&cand], &opts);
        let links_before = g.graph().edge_count();
        // A second run compares the same pairs (deterministic decisions)
        // and must not duplicate edges.
        augment(&mut g, &[&cand], &opts);
        assert_eq!(g.graph().edge_count(), links_before);
    }
}
