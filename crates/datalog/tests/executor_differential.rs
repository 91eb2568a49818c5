//! Production-vs-oracle differential tests over *generated* synthetic
//! programs.
//!
//! The bundled paper programs pin six real workloads; this suite
//! generates random — but legal and type-uniform — programs and checks
//! the engine's core contract on each: the production pipeline (cost
//! planning, closure chains, batch tier) must produce a database
//! byte-identical — tuples, insertion order / row ids,
//! provenance — to the reference oracle (`EngineOptions::oracle`:
//! textual literal order, step machine). Every case runs with provenance
//! on, which keeps production on the tuple closures, and off, which lets
//! the batch tier run wherever it is ready.
//!
//! Three generators feed it, one per production stage:
//!
//! * [`synth_join_program`] aims at the **planner**: join chains over a
//!   ternary edge relation whose atoms are shuffled, so the planner sees
//!   textual orders both better and worse than its own choice, plus
//!   filters, arithmetic bindings, stratified negation and recursion.
//! * [`synth_agg_program`] aims at the **closure chains**: the same chains
//!   plus *aggregation in both syntactic positions* (condition-form
//!   `msum(..) >= g` and binding-form `S = msum(..)`) — the aggregate
//!   stages are the compiled path's most intricate code.
//! * [`synth_mixed_arity_program`] aims at the **batch tier's** edges:
//!   constants pinned inside atom positions (probe keys and `Lead::Rows`
//!   enumeration), comparison filters and inequality guards (selection
//!   blocks — whose adaptive reordering must stay invisible), stratified
//!   negation (membership steps), and a recursive rule whose delta
//!   rounds *must* fall back to the tuple chain mid-fixpoint.
//!
//! Dedicated tests then force the selection-vector edge cases end to
//! end: a rule that derives nothing (every batch filtered empty), a
//! filter that keeps every lane (all-selected), and fact counts
//! straddling the 1024-row batch width so the tail batch is partial.

use datalog::{Database, Engine, EngineOptions, Program};
use proptest::prelude::*;

/// SplitMix64: deterministic generation without external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// `k` chain-join rules `r0..rk` over `e/3` (sym, sym, int): shuffled
/// atoms, random comparison/inequality filters (always satisfiable for
/// some rows — weights are 0..=16) and a random arithmetic binding folded
/// into the head. Returns `k`.
fn chain_rules(rng: &mut Rng, src: &mut String) -> u64 {
    let n_chain = 2 + rng.below(3); // 2..=4 chain rules
    for r in 0..n_chain {
        let len = 2 + rng.below(3) as usize; // 2..=4 atoms
        let mut atoms: Vec<String> = (0..len)
            .map(|i| format!("e(N{i}, N{}, W{i})", i + 1))
            .collect();
        rng.shuffle(&mut atoms);
        let mut body = atoms;
        if rng.below(2) == 0 {
            body.push(format!("W{} >= {}", rng.below(len as u64), rng.below(9)));
        }
        if rng.below(2) == 0 {
            body.push(format!("N0 != N{len}"));
        }
        let head = if rng.below(2) == 0 {
            let a = rng.below(len as u64);
            let b = rng.below(len as u64);
            body.push(format!("S = W{a} + W{b} * 2"));
            format!("r{r}(N0, N{len}, S)")
        } else {
            format!("r{r}(N0, N{len}, W0)")
        };
        src.push_str(&format!("{head} :- {}.\n", body.join(", ")));
    }
    n_chain
}

/// Bounded recursion with a random weight gate: big enough to iterate,
/// small enough to terminate fast.
fn closure_rules(rng: &mut Rng, src: &mut String) {
    let gate = 8 + rng.below(6);
    src.push_str(&format!("tc(X, Y) :- e(X, Y, W), W >= {gate}.\n"));
    src.push_str(&format!("tc(X, Z) :- tc(X, Y), e(Y, Z, W), W >= {gate}.\n"));
}

/// Random type-uniform program: chain-join rules, a derived unary
/// predicate, a stratified negation rule and a bounded recursive closure.
fn synth_join_program(rng: &mut Rng) -> String {
    let mut src = String::new();
    let n_chain = chain_rules(rng, &mut src);
    let pick = rng.below(n_chain);
    src.push_str(&format!("hit(X) :- r{pick}(X, _, _).\n"));
    src.push_str("quiet(X) :- node(X), not hit(X).\n");
    closure_rules(rng, &mut src);
    src
}

/// As [`synth_join_program`], plus two aggregate rules over a chain head
/// in the two syntactic positions the compiler lowers differently: a
/// guarded condition aggregate and a head-bound Let aggregate.
fn synth_agg_program(rng: &mut Rng) -> String {
    let mut src = String::new();
    let n_chain = chain_rules(rng, &mut src);
    let pick = rng.below(n_chain);
    src.push_str(&format!("hit(X) :- r{pick}(X, _, _).\n"));
    src.push_str("quiet(X) :- node(X), not hit(X).\n");
    let apick = rng.below(n_chain);
    let gate = 4 + rng.below(20);
    src.push_str(&format!(
        "heavy(X) :- r{apick}(X, Z, W), msum(W, <Z>) >= {gate}.\n"
    ));
    src.push_str(&format!(
        "total(X, S) :- r{apick}(X, Z, W), S = msum(W, <Z>).\n"
    ));
    closure_rules(rng, &mut src);
    src
}

/// Random program over a mixed-arity schema — `e/3` (weighted edges)
/// and `f/2` (unweighted links) — with constants pinned into atom
/// positions, filters, negation and bounded recursion.
fn synth_mixed_arity_program(rng: &mut Rng) -> String {
    let mut src = String::new();
    let n_chain = 2 + rng.below(3); // 2..=4 join rules
    for r in 0..n_chain {
        let len = 2 + rng.below(3) as usize; // 2..=4 atoms
        let mut atoms: Vec<String> = (0..len)
            .map(|i| {
                if rng.below(3) == 0 {
                    // Narrow link atom: random schema mix in one chain.
                    format!("f(N{i}, N{})", i + 1)
                } else if rng.below(4) == 0 {
                    // Constant pinned in the weight column: becomes a
                    // probe-key / lead-enumeration constant after
                    // lowering.
                    format!("e(N{i}, N{}, {})", i + 1, rng.below(17))
                } else {
                    format!("e(N{i}, N{}, W{i})", i + 1)
                }
            })
            .collect();
        rng.shuffle(&mut atoms);
        let mut body = atoms;
        // Every rule gets at least one selection step so batches are
        // actually refined, not just expanded.
        let wvar = (0..len).find(|i| body.iter().any(|a| a.contains(&format!("W{i}"))));
        if let Some(w) = wvar {
            body.push(format!("W{w} >= {}", rng.below(9)));
        }
        if rng.below(2) == 0 {
            body.push(format!("N0 != N{len}"));
        }
        if rng.below(3) == 0 {
            // Symbol constant in the first column: exercises
            // `Lead::Rows` / constant-key probes on the symbol side.
            body.push(format!(
                "f(\"v{}\", N{})",
                rng.below(6),
                rng.below(len as u64 + 1)
            ));
        }
        let head = match wvar {
            Some(w) => format!("r{r}(N0, N{len}, W{w})"),
            None => format!("r{r}(N0, N{len}, 0)"),
        };
        src.push_str(&format!("{head} :- {}.\n", body.join(", ")));
    }
    // Stratified negation: membership steps on both polarities.
    let pick = rng.below(n_chain);
    src.push_str(&format!("hit(X) :- r{pick}(X, _, _).\n"));
    src.push_str("quiet(X) :- node(X), not hit(X).\n");
    src.push_str(&format!("both(X, Y) :- r{pick}(X, Y, _), hit(Y).\n"));
    // Delta rounds must fall back to tuple closures while round 1 of the
    // same stratum ran batched.
    closure_rules(rng, &mut src);
    src
}

/// Random facts: `nodes` symbols, `edges` weighted `e` rows plus half
/// as many unweighted `f` links.
fn synth_facts(db: &mut Database, rng: &mut Rng, nodes: u64, edges: u64) {
    for i in 0..nodes {
        db.fact("node").sym(&format!("v{i}")).assert();
    }
    for _ in 0..edges {
        let a = format!("v{}", rng.below(nodes));
        let b = format!("v{}", rng.below(nodes));
        db.fact("e")
            .sym(&a)
            .sym(&b)
            .int(rng.below(17) as i64)
            .assert();
    }
    for _ in 0..edges / 2 {
        let a = format!("v{}", rng.below(nodes));
        let b = format!("v{}", rng.below(nodes));
        db.fact("f").sym(&a).sym(&b).assert();
    }
}

/// Full database image: every predicate (name order), rows in
/// insertion order — row ids included, so an executor that derives the
/// same set in a different order still fails the diff — with provenance
/// where it was recorded.
fn full_snapshot(db: &Database) -> Vec<String> {
    let mut preds: Vec<String> = (0..db.pred_count() as u32)
        .map(|p| db.pred_name(p).to_owned())
        .collect();
    preds.sort();
    let mut out = Vec::new();
    for pred in &preds {
        let Some(rel) = db.relation(pred) else {
            continue;
        };
        for (row, tuple) in rel.rows().enumerate() {
            let cells: Vec<String> = tuple.iter().map(|c| db.display(*c)).collect();
            let prov = rel
                .provenance(row as u32)
                .map(|p| format!(" by rule {} from {:?}", p.rule, p.parents))
                .unwrap_or_default();
            out.push(format!("{pred}[{row}]({}){prov}", cells.join(",")));
        }
    }
    out
}

/// Default fact volume: 80 nodes, 240 edges.
const FACTS: (u64, u64) = (80, 240);

fn run_once(
    src: &str,
    seed: u64,
    facts: (u64, u64),
    provenance: bool,
    oracle: bool,
) -> Vec<String> {
    let program =
        Program::parse(src).unwrap_or_else(|e| panic!("generated program invalid: {e}\n{src}"));
    let options = EngineOptions {
        oracle,
        provenance,
        ..EngineOptions::default()
    };
    let engine = Engine::with(&program, Default::default(), options)
        .unwrap_or_else(|e| panic!("generated program rejected: {e}\n{src}"));
    let mut db = Database::new();
    synth_facts(&mut db, &mut Rng(seed ^ 0xBA7C), facts.0, facts.1);
    engine
        .run(&mut db)
        .unwrap_or_else(|e| panic!("fixpoint failed: {e}\n{src}"));
    full_snapshot(&db)
}

/// Production against the oracle, with provenance on (tuple closures)
/// and off (batch tier where ready).
fn assert_executors_agree(src: &str, seed: u64, facts: (u64, u64)) {
    for provenance in [true, false] {
        let reference = run_once(src, seed, facts, provenance, true);
        assert!(
            !reference.is_empty(),
            "seed {seed}: generated program derived nothing\n{src}"
        );
        let got = run_once(src, seed, facts, provenance, false);
        assert_eq!(
            got, reference,
            "seed {seed}: production with provenance={provenance} \
             diverged from the oracle\n{src}"
        );
    }
}

/// A named generator and the two seed stripes it is pinned on.
type Generator = (
    &'static str,
    fn(&mut Rng) -> String,
    [std::ops::Range<u64>; 2],
);

const GENERATORS: [Generator; 3] = [
    ("join", synth_join_program, [0..6, 100..104]),
    ("agg", synth_agg_program, [0..6, 200..204]),
    ("mixed-arity", synth_mixed_arity_program, [0..6, 300..304]),
];

#[test]
fn synthetic_programs_match_the_oracle() {
    for (_, generate, stripes) in GENERATORS {
        for seed in stripes[0].clone() {
            assert_executors_agree(&generate(&mut Rng(seed)), seed, FACTS);
        }
    }
}

#[test]
fn synthetic_programs_match_the_oracle_more_seeds() {
    // A second stripe of shapes per generator: a change that happens to
    // keep stripe one identical still gets fresh join orders, gates,
    // schema mixes and pinned constants.
    for (_, generate, stripes) in GENERATORS {
        for seed in stripes[1].clone() {
            assert_executors_agree(&generate(&mut Rng(seed)), seed, FACTS);
        }
    }
}

#[test]
fn generated_programs_cover_the_interesting_literal_kinds() {
    // Meta-test on the generators: every seed must produce negation
    // (membership steps) and recursion (tuple fallback for delta rounds);
    // the join generator must cover comparison, inequality and binding
    // literals across its range, the aggregate generator both aggregate
    // forms and the mixed-arity generator a comparison filter on every
    // seed — otherwise the differentials above are weaker than they look.
    let (mut saw_cmp, mut saw_neq, mut saw_let) = (false, false, false);
    for seed in 0..6u64 {
        for (name, generate, _) in GENERATORS {
            let src = generate(&mut Rng(seed));
            assert!(
                src.contains("not hit(X)"),
                "{name}: negation missing\n{src}"
            );
            assert!(src.contains("tc(X, Z)"), "{name}: recursion missing\n{src}");
        }
        let src = synth_join_program(&mut Rng(seed));
        saw_cmp |= src.contains(">=");
        saw_neq |= src.contains("!=");
        saw_let |= src.contains("S = ");
        let src = synth_agg_program(&mut Rng(seed));
        assert!(src.contains("msum(W, <Z>) >="), "condition aggregate lost");
        assert!(src.contains("S = msum(W, <Z>)"), "binding aggregate lost");
        let src = synth_mixed_arity_program(&mut Rng(seed));
        assert!(src.contains(">="), "comparison filter missing:\n{src}");
    }
    assert!(
        saw_cmp && saw_neq && saw_let,
        "join generator lost a literal kind"
    );
}

/// A filter no row passes: every batch compacts to an empty selection
/// and the rule must emit nothing — in production and under the oracle.
#[test]
fn empty_selection_derives_nothing_identically() {
    let src = "dead(X, Y) :- e(X, Y, W), W >= 100.\n\
               alive(X, Y) :- e(X, Y, W), W >= 0.\n";
    // `alive` keeps the reference snapshot non-empty; `dead` must stay
    // empty everywhere (weights are 0..17).
    for facts in [(10, 40), (60, 1024), (60, 3000)] {
        assert_executors_agree(src, 7, facts);
        let snap = run_once(src, 7, facts, false, false);
        assert!(
            snap.iter().all(|row| !row.starts_with("dead[")),
            "impossible filter derived rows"
        );
    }
}

/// A filter every row passes (all-selected) and fact counts straddling
/// the 1024-row batch width: one exact full batch, one with a partial
/// tail, one smaller than a single batch.
#[test]
fn all_selected_and_tail_batches_match_the_oracle() {
    let src = "keep(X, Y, W) :- e(X, Y, W), W >= 0.\n\
               pair(X, Z) :- e(X, Y, W), e(Y, Z, V), W >= V.\n";
    for edges in [37u64, 1024, 1024 + 511, 4096 + 1] {
        assert_executors_agree(src, 11, (50, edges));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary generator, program seed and fact seed: planner and
    /// executors must be invisible on every program shape the generators
    /// can produce.
    #[test]
    fn production_matches_the_oracle_on_arbitrary_seeds(
        which in 0usize..3,
        program_seed in 0u64..1_000_000,
        fact_seed in 0u64..1_000_000,
    ) {
        let (name, generate, _) = GENERATORS[which];
        let src = generate(&mut Rng(program_seed));
        for provenance in [true, false] {
            let reference = run_once(&src, fact_seed, FACTS, provenance, true);
            let production = run_once(&src, fact_seed, FACTS, provenance, false);
            prop_assert_eq!(&reference, &production, "{}: production diverged from the oracle:\n{}", name, src);
        }
    }
}
