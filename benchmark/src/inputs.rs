//! Generated inputs. The program under test only ever sees what these
//! functions make from the run's seed.

use std::sync::Arc;

use gen::company::{generate, CompanyGraphConfig, GroundTruth};
use pgraph::{NodeId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vada_link::model::CompanyGraph;

/// Default seed (`0xEDB7`), and the default structure seed.
pub const DEFAULT_SEED: u64 = 60855;

/// Share of the stakes, and of the persons, the run's seed changes.
const CHURN: f64 = 0.01;

/// A register: the company graph and the generator's bookkeeping.
pub struct Register {
    pub g: CompanyGraph,
    /// Person nodes, in generation order.
    pub persons: Vec<NodeId>,
    /// Company nodes, in generation order.
    pub companies: Vec<NodeId>,
    /// Ground-truth family structure.
    pub truth: GroundTruth,
}

/// The register of `persons` persons and half as many companies that
/// `gen::company::generate` makes from the seed `structure`, as of day
/// `seed`.
///
/// Two seeds, because the builder contract wants the runs of ten
/// `--seed`s to cost the same within a quarter, and the generator's
/// registers do not: its company owners come from a
/// preferential-attachment urn, and over eight generator seeds the
/// close-link fixpoint on 15 000 persons took 0.67 to 4.4 s (deriving
/// 570 000 to 700 000 facts each time) and the no-cluster augmentation on
/// 10 000 persons 169 to 234 ms. So `--structure` (default [`DEFAULT_SEED`]) chooses the
/// register and `--seed` the day: it cuts 1 % of the stakes by up to half
/// and moves 1 % of the persons to another person's address, and draws
/// the lookups and the update feed. Another seed is another input with
/// another answer on the same hubs; another structure is another
/// register, and `README.md` holds the baseline on four of them.
pub fn register(persons: usize, structure: u64, seed: u64) -> Register {
    let out = generate(&CompanyGraphConfig {
        persons,
        companies: persons / 2,
        seed: structure,
        ..Default::default()
    });
    let mut g = CompanyGraph::new(out.graph);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC105E);

    let stakes: Vec<_> = g
        .share_edges()
        .map(|e| {
            let (owner, company) = g.graph().endpoints(e);
            (owner, company, g.share(e))
        })
        .collect();
    for (owner, company, w) in stakes {
        if owner != company && rng.random_bool(CHURN) {
            g.set_share(owner, company, w * rng.random_range(0.5..1.0));
        }
    }
    for &p in &out.persons {
        if rng.random_bool(CHURN) {
            let host = out.persons[rng.random_range(0..out.persons.len())];
            if let Some(address) = g.str_prop(host, "address").map(str::to_owned) {
                g.graph_mut()
                    .set_node_prop(p, "address", Value::from(address));
            }
        }
    }
    Register {
        g,
        persons: out.persons,
        companies: out.companies,
        truth: out.truth,
    }
}

impl Register {
    /// Node symbols in generation order, persons first, and the index
    /// of the first company. Zipf ranks and the update feed index this
    /// list.
    pub fn node_names(&self) -> (Arc<Vec<String>>, usize) {
        let names = self
            .persons
            .iter()
            .chain(self.companies.iter())
            .map(|n| format!("n{}", n.index()))
            .collect();
        (Arc::new(names), self.persons.len())
    }
}

/// FNV-1a over the lines of an output, the digest two runs of one
/// pipeline are compared by.
pub fn digest<S: AsRef<str>>(lines: impl IntoIterator<Item = S>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for line in lines {
        for b in line.as_ref().bytes().chain(std::iter::once(b'\n')) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Digest of a list of node pairs, order-insensitive.
pub fn pair_digest(pairs: &[(NodeId, NodeId)]) -> u64 {
    let mut sorted: Vec<(u32, u32)> = pairs.iter().map(|(a, b)| (a.0, b.0)).collect();
    sorted.sort_unstable();
    digest(sorted.iter().map(|(a, b)| format!("{a} {b}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_keeps_its_structure_and_follows_the_seed() {
        let facts = |seed| {
            let r = register(600, DEFAULT_SEED, seed);
            let mut stakes: Vec<(u32, u32, u64)> =
                r.g.share_edges()
                    .map(|e| {
                        let (a, b) = r.g.graph().endpoints(e);
                        (a.0, b.0, r.g.share(e).to_bits())
                    })
                    .collect();
            stakes.sort_unstable();
            let addresses: Vec<String> = r
                .persons
                .iter()
                .map(|&p| r.g.str_prop(p, "address").unwrap_or("").to_owned())
                .collect();
            (stakes, addresses)
        };
        let (a, b) = (facts(1), facts(2));
        assert_eq!(a, facts(1), "same seed, same input");
        assert_ne!(a.0, b.0, "another seed, other stakes");
        assert_ne!(a.1, b.1, "another seed, other addresses");
        let edges = |s: &[(u32, u32, u64)]| s.iter().map(|t| (t.0, t.1)).collect::<Vec<_>>();
        assert_eq!(edges(&a.0), edges(&b.0), "hubs stay where they are");
        let moved = a.1.iter().zip(&b.1).filter(|(x, y)| x != y).count();
        assert!(moved < 600 / 20, "{moved} of 600 persons moved");
        let other = register(600, 1, 1);
        let here = register(600, DEFAULT_SEED, 1);
        let ends = |r: &Register| -> Vec<_> {
            r.g.share_edges()
                .map(|e| r.g.graph().endpoints(e))
                .collect()
        };
        assert_ne!(ends(&other), ends(&here), "another structure, other hubs");
    }

    #[test]
    fn digests_separate_outputs() {
        assert_eq!(digest(["a", "b"]), digest(["a", "b"]));
        assert_ne!(digest(["a", "b"]), digest(["ab"]));
        let p = |a, b| (NodeId(a), NodeId(b));
        assert_eq!(
            pair_digest(&[p(1, 2), p(0, 3)]),
            pair_digest(&[p(0, 3), p(1, 2)])
        );
    }
}
