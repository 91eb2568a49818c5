//! Pair scoring by interned key against the string-keyed reading.
//!
//! `family::pair_distances` and `family::classify_link` read the person
//! features through the key ids `CompanyGraph::new` interns. This suite
//! recomputes both through `CompanyGraph::str_prop` / `int_prop` (a key
//! string resolved on every read) and requires the same `f64` bits and the
//! same link type on every pair: generated registers, persons with missing
//! features, and a graph whose feature keys are first set after the
//! `CompanyGraph` was built.

use gen::company::{generate, CompanyGraphConfig, FamilyLink};
use linkage::distance::normalized_levenshtein;
use pgraph::{NodeId, PropertyGraph, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vada_link::family::{classify_link, kinship_gap_distance, pair_distances};
use vada_link::model::{CompanyGraph, PERSON};

fn distances_by_name(g: &CompanyGraph, a: NodeId, b: NodeId) -> [Option<f64>; 4] {
    let exact = |key: &str| match (g.str_prop(a, key), g.str_prop(b, key)) {
        (Some(x), Some(y)) => Some(if x == y { 0.0 } else { 1.0 }),
        _ => None,
    };
    let surname = match (g.str_prop(a, "surname"), g.str_prop(b, "surname")) {
        (Some(x), Some(y)) => Some(normalized_levenshtein(x, y)),
        _ => None,
    };
    let birth = match (g.int_prop(a, "birth"), g.int_prop(b, "birth")) {
        (Some(x), Some(y)) => Some(kinship_gap_distance(x, y)),
        _ => None,
    };
    [surname, exact("address"), birth, exact("birth_city")]
}

fn classify_by_name(g: &CompanyGraph, a: NodeId, b: NodeId) -> FamilyLink {
    let same_surname = match (g.str_prop(a, "surname"), g.str_prop(b, "surname")) {
        (Some(x), Some(y)) => normalized_levenshtein(x, y) < 0.25,
        _ => false,
    };
    let gap = match (g.int_prop(a, "birth"), g.int_prop(b, "birth")) {
        (Some(x), Some(y)) => (x - y).abs(),
        _ => 0,
    };
    if gap >= 7000 {
        FamilyLink::ParentOf
    } else if same_surname {
        FamilyLink::SiblingOf
    } else {
        FamilyLink::PartnerOf
    }
}

/// Compares both readings on every given pair; returns how many feature
/// values were present and how many absent.
fn check_pairs(g: &CompanyGraph, pairs: &[(NodeId, NodeId)]) -> (usize, usize) {
    let (mut present, mut absent) = (0, 0);
    for &(a, b) in pairs {
        let by_id = pair_distances(g, a, b);
        let by_name = distances_by_name(g, a, b);
        for (x, y) in by_id.iter().zip(&by_name) {
            assert_eq!(
                x.map(f64::to_bits),
                y.map(f64::to_bits),
                "pair {a:?}-{b:?}: {by_id:?} vs {by_name:?}"
            );
            match x {
                Some(_) => present += 1,
                None => absent += 1,
            }
        }
        assert_eq!(
            classify_link(g, a, b),
            classify_by_name(g, a, b),
            "pair {a:?}-{b:?}"
        );
    }
    (present, absent)
}

#[test]
fn generated_registers_score_the_same_by_key_and_by_name() {
    for seed in [7u64, 60855] {
        let out = generate(&CompanyGraphConfig {
            persons: 600,
            companies: 300,
            seed,
            ..Default::default()
        });
        let g = CompanyGraph::new(out.graph);
        let persons: Vec<NodeId> = g.persons().collect();
        let mut pairs: Vec<(NodeId, NodeId)> =
            out.truth.links.iter().map(|&(a, b, _)| (a, b)).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..20_000 {
            let a = persons[rng.random_range(0..persons.len())];
            let b = persons[rng.random_range(0..persons.len())];
            pairs.push((a, b));
        }
        let (present, _) = check_pairs(&g, &pairs);
        assert!(present > 0);
        let kinds: Vec<FamilyLink> = pairs
            .iter()
            .map(|&(a, b)| classify_link(&g, a, b))
            .collect();
        for kind in [
            FamilyLink::ParentOf,
            FamilyLink::SiblingOf,
            FamilyLink::PartnerOf,
        ] {
            assert!(
                kinds.contains(&kind),
                "seed {seed}: no {kind:?} pair compared"
            );
        }
    }
}

/// Persons with a pooled subset of the features, so that values repeat
/// (distance 0) and some features are missing (`None`).
fn sparse_persons(g: &mut PropertyGraph, n: usize, with_birth: bool) -> Vec<NodeId> {
    let surnames = ["Rossi", "Rosi", "Bianchi", "Verdi"];
    let addresses = ["Via Roma 1", "Via Roma 2", "Corso Italia 9"];
    let cities = ["Roma", "Milano"];
    (0..n)
        .map(|i| {
            let p = g.add_node(PERSON);
            g.set_node_prop(p, "name", Value::from(format!("p{i}")));
            if i % 3 != 0 {
                g.set_node_prop(p, "surname", Value::from(surnames[i % surnames.len()]));
            }
            if i % 4 != 0 {
                g.set_node_prop(p, "address", Value::from(addresses[i % addresses.len()]));
            }
            if i % 5 != 0 {
                g.set_node_prop(p, "birth_city", Value::from(cities[i % cities.len()]));
            }
            if with_birth && i % 2 == 0 {
                g.set_node_prop(p, "birth", Value::Int(5_000 + (i as i64 * 1_237) % 20_000));
            }
            p
        })
        .collect()
}

fn all_pairs(nodes: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let mut pairs = Vec::new();
    for (i, &a) in nodes.iter().enumerate() {
        for &b in &nodes[i..] {
            pairs.push((a, b));
        }
    }
    pairs
}

#[test]
fn absent_features_score_the_same_by_key_and_by_name() {
    let mut pg = PropertyGraph::new();
    let persons = sparse_persons(&mut pg, 40, true);
    let g = CompanyGraph::new(pg);
    let (present, absent) = check_pairs(&g, &all_pairs(&persons));
    assert!(
        present > 0 && absent > 0,
        "{present} present, {absent} absent"
    );
}

#[test]
fn keys_first_set_after_construction_score_the_same() {
    // No person carries `birth` (and no node any feature) when the
    // CompanyGraph is built; an unrelated key is interned before `birth`
    // is first set, so the two readings could only agree if the interned
    // id is the one the later write uses.
    let mut pg = PropertyGraph::new();
    let company = pg.add_node("Company");
    let mut g = CompanyGraph::new(pg);
    assert!(
        g.graph().node_props(company).is_empty(),
        "interning set a property"
    );
    let persons = sparse_persons(g.graph_mut(), 40, false);
    for (i, &p) in persons.iter().enumerate() {
        g.graph_mut().set_node_prop(p, "nickname", Value::from("x"));
        if i % 2 == 1 {
            g.graph_mut()
                .set_node_prop(p, "birth", Value::Int(1_000 + i as i64 * 811));
        }
    }
    assert_eq!(g.graph().find_key("birth"), Some(g.person_keys().birth));
    let (present, absent) = check_pairs(&g, &all_pairs(&persons));
    assert!(
        present > 0 && absent > 0,
        "{present} present, {absent} absent"
    );
}
