//! Property test: random *legal* body reorderings never change the
//! derived fact set.
//!
//! The planner's legality rule is that positive atoms may be permuted
//! freely, while negations and conditions only need their variables bound
//! at the point they run. Here proptest permutes the positive atoms of a
//! fixed rule template (keeping negations/conditions textually last, which
//! is always legal), evaluates the permuted program with planning both off
//! (the permuted textual order is the evaluation order) and on (the
//! planner re-derives its own order from the permuted text), and asserts
//! the derived fact *set* per predicate is identical to the canonical
//! program's. Insertion order may differ across textual permutations —
//! that freedom is exactly what the planner exploits — but the set of
//! facts may not.

use datalog::{Database, Engine, EngineOptions, Program};
use proptest::prelude::*;

/// The rule skeletons: positive atoms listed separately so the test can
/// permute them; trailing literals (filters, negation, bindings) are
/// appended after the atoms in every permutation.
struct RuleTemplate {
    head: &'static str,
    atoms: &'static [&'static str],
    trailing: &'static [&'static str],
}

const TEMPLATES: &[RuleTemplate] = &[
    RuleTemplate {
        head: "p(X, Z, S)",
        atoms: &["e(X, Y, V)", "e(Y, Z, W)", "f(Z)"],
        trailing: &["X != Z", "V >= 2", "S = V + W"],
    },
    RuleTemplate {
        head: "q(X)",
        atoms: &["p(X, Y, W)", "e(Y, _, _)"],
        trailing: &["W >= 6"],
    },
    RuleTemplate {
        head: "lone(X)",
        atoms: &["f(X)"],
        trailing: &["not q(X)"],
    },
    RuleTemplate {
        head: "tc(X, Y)",
        atoms: &["e(X, Y, W)"],
        trailing: &["W >= 11"],
    },
    RuleTemplate {
        head: "tc(X, Z)",
        atoms: &["tc(X, Y)", "e(Y, Z, W)"],
        trailing: &["W >= 11"],
    },
];

const OUT_PREDS: &[&str] = &["p", "q", "lone", "tc"];

/// Renders the template program with each rule's atoms permuted by the
/// corresponding entry of `perms` (an arbitrary u64 per rule, reduced to a
/// permutation index mod n!).
fn permuted_program(perms: &[u64]) -> String {
    let mut src = String::new();
    for (t, &code) in TEMPLATES.iter().zip(perms) {
        let mut atoms: Vec<&str> = t.atoms.to_vec();
        // Lehmer-code style decode: pick index (code % k) among remaining.
        let mut picked = Vec::with_capacity(atoms.len());
        let mut c = code;
        while !atoms.is_empty() {
            let i = (c % atoms.len() as u64) as usize;
            c /= atoms.len().max(1) as u64;
            picked.push(atoms.remove(i));
        }
        let body: Vec<&str> = picked
            .into_iter()
            .chain(t.trailing.iter().copied())
            .collect();
        src.push_str(&format!("{} :- {}.\n", t.head, body.join(", ")));
    }
    src
}

fn facts(db: &mut Database, seed: u64) {
    // SplitMix64 over the proptest-provided seed.
    let mut s = seed;
    let mut next = move || {
        s = s.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    for _ in 0..60 {
        let a = format!("v{}", next() % 25);
        let b = format!("v{}", next() % 25);
        db.fact("e")
            .sym(&a)
            .sym(&b)
            .int((next() % 16) as i64)
            .assert();
    }
    for i in 0..25 {
        if next() % 2 == 0 {
            db.fact("f").sym(&format!("v{i}")).assert();
        }
    }
}

/// Sorted per-predicate fact sets — the order-free semantics.
fn fact_sets(db: &Database) -> Vec<(String, Vec<String>)> {
    OUT_PREDS
        .iter()
        .map(|p| (p.to_string(), db.dump(p)))
        .collect()
}

fn run(src: &str, seed: u64, plan: bool) -> Vec<(String, Vec<String>)> {
    let program = Program::parse(src).expect("template program parses");
    // The oracle is the engine that does not plan.
    let options = EngineOptions {
        oracle: !plan,
        ..EngineOptions::default()
    };
    let engine = Engine::with(&program, Default::default(), options).expect("compiles");
    let mut db = Database::new();
    facts(&mut db, seed);
    engine.run(&mut db).expect("fixpoint");
    fact_sets(&db)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any legal permutation of rule-body atoms — run in that textual
    /// order (plan off) or re-planned (plan on) — derives exactly the
    /// canonical program's fact set.
    #[test]
    fn legal_reorderings_preserve_the_fact_set(
        seed in 0u64..1_000_000,
        perms in prop::collection::vec(any::<u64>(), TEMPLATES.len()),
    ) {
        let canonical = run(&permuted_program(&vec![0; TEMPLATES.len()]), seed, false);
        let permuted = permuted_program(&perms);
        let textual = run(&permuted, seed, false);
        prop_assert_eq!(&textual, &canonical, "textual-order evaluation of a permuted body diverged:\n{}", permuted);
        let planned = run(&permuted, seed, true);
        prop_assert_eq!(&planned, &canonical, "planned evaluation of a permuted body diverged:\n{}", permuted);
    }

    /// Planning is also invisible at the fact-set level for every seed on
    /// the canonical ordering (cheap extra angle: catches planner bugs
    /// whose textual-order twin is also wrong).
    #[test]
    fn planning_preserves_the_fact_set(seed in 0u64..1_000_000) {
        let src = permuted_program(&vec![0; TEMPLATES.len()]);
        prop_assert_eq!(run(&src, seed, true), run(&src, seed, false));
    }
}
