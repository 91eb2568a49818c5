//! Property tests for the static analyzer.
//!
//! Two families of guarantees:
//!
//! 1. **Total**: neither `analyze` nor parse → `Engine::new` → `run`
//!    panics, whatever the input — checked on arbitrary strings and on
//!    rule-shaped token soup: rules `head :- atoms, comparisons,
//!    aggregates` spelled in the grammar's own tokens, then mutated by
//!    token deletions, insertions and swaps (the inputs most likely to
//!    parse and reach the deeper passes; at least a quarter of them parse
//!    to a program with a rule). The engine's gate is the analyzer, so a
//!    program it lets through must be one the stratifier and the
//!    executors can take.
//! 2. **Sound as a gate**: any program the analyzer accepts under the
//!    default config constructs an `Engine` and evaluates on a small
//!    database without *structural* runtime errors. Unbound variables,
//!    arity mismatches, and non-stratifiable negation must be caught
//!    statically; the only runtime outcomes left are success, a budget
//!    stop (existential recursion is legal and may not terminate within
//!    the cap), or a dynamic type error from arithmetic on symbols —
//!    value-level typing is explicitly outside the analyzer's scope.

use datalog::{
    analyze_with, AnalysisConfig, Database, DatalogError, Engine, EngineOptions, FunctionRegistry,
    Program,
};
use proptest::prelude::*;

/// Head templates for generated rules. Predicate names encode their arity
/// so the extensional facts below always line up.
const HEADS: [&str; 6] = [
    "p(X)",
    "p(X, V)",
    "p(Z, X)",
    "p(#g(X))",
    "p(X), r(X)",
    "out(X, Y)",
];

/// Body literal templates: positive/negated atoms, comparisons, bindings,
/// aggregates, and recursion through the generated head predicates.
const BODIES: [&str; 12] = [
    "e2(X, Y)",
    "e2(X, X)",
    "e2(W, X)",
    "q1(X)",
    "not q1(X)",
    "not q1(Z)",
    "own3(X, Y, W)",
    "p(X)",
    "X != Y",
    "V = W + 1",
    "V = msum(W, <X>)",
    "msum(W, <Y>) > 0.5",
];

fn head() -> impl Strategy<Value = &'static str> {
    prop::sample::select(HEADS.to_vec())
}

fn body() -> impl Strategy<Value = Vec<&'static str>> {
    prop::collection::vec(prop::sample::select(BODIES.to_vec()), 1..3)
}

fn program_source() -> impl Strategy<Value = String> {
    prop::collection::vec((head(), body()), 1..4).prop_map(|rules| {
        rules
            .iter()
            .map(|(h, b)| format!("{h} :- {}.\n", b.join(", ")))
            .collect()
    })
}

/// The grammar's own alphabet, for token soup.
const TOKENS: [&str; 20] = [
    "a",
    "X",
    "_",
    "(",
    ")",
    ",",
    ".",
    ":-",
    "not",
    "msum",
    "<",
    ">",
    "=",
    "!=",
    "0.5",
    "3",
    "#f",
    "\"s\"",
    "@output(\"a\").",
    "@post(\"a\", \"unique(0)\").",
];

/// Predicates with their arities, for rule-shaped soup: the ones
/// [`small_db`] holds, plus two that only rules derive.
const PREDS: [(&str, usize); 5] = [("e2", 2), ("q1", 1), ("own3", 3), ("p", 1), ("r", 2)];

/// Terms of rule-shaped soup: variables, the anonymous variable and
/// constants of every kind the lexer knows.
const TERMS: [&str; 8] = ["X", "Y", "Z", "W", "_", "a", "\"s\"", "3"];

/// An atom `pred(t, …)` of its predicate's arity, as tokens.
fn atom(pred: (&'static str, usize), terms: &[&'static str]) -> Vec<&'static str> {
    let mut out = vec![pred.0, "("];
    for (i, t) in terms.iter().cycle().take(pred.1).enumerate() {
        if i > 0 {
            out.push(",");
        }
        out.push(t);
    }
    out.push(")");
    out
}

/// One body literal as tokens: an atom, a negated atom, a comparison, a
/// `V = msum(…)` binding or a conditional aggregate.
fn literal() -> impl Strategy<Value = Vec<&'static str>> {
    (
        0usize..6,
        prop::sample::select(PREDS.to_vec()),
        prop::collection::vec(prop::sample::select(TERMS.to_vec()), 3),
        prop::sample::select(vec!["<", ">", "=", "!="]),
        prop::sample::select(vec!["X", "Y", "Z"]),
    )
        .prop_map(|(kind, pred, terms, cmp, key)| match kind {
            0 | 1 => atom(pred, &terms),
            2 => [vec!["not"], atom(pred, &terms)].concat(),
            3 => vec![terms[0], cmp, terms[1]],
            4 => vec!["V", "=", "msum", "(", "W", ",", "<", key, ">", ")"],
            _ => vec!["msum", "(", "W", ",", "<", key, ">", ")", ">", "0.5"],
        })
}

/// A rule `head :- own3(X, Y, W), lit, ….` as tokens: the leading atom
/// binds the variables most literals read, so that many rules are safe
/// and reach the engine, not only the parser.
fn rule_tokens() -> impl Strategy<Value = Vec<&'static str>> {
    (
        prop::sample::select(PREDS.to_vec()),
        prop::collection::vec(prop::sample::select(vec!["X", "Y", "V", "a"]), 3),
        prop::collection::vec(literal(), 0..3),
    )
        .prop_map(|(head, terms, body)| {
            let mut out = atom(head, &terms);
            out.extend([":-", "own3", "(", "X", ",", "Y", ",", "W", ")"]);
            for lit in body {
                out.push(",");
                out.extend(lit);
            }
            out.push(".");
            out
        })
}

/// Rule-shaped token soup: one to three rules, then up to two
/// mutations, each deleting a token, inserting one of [`TOKENS`] or
/// swapping two neighbours.
fn rule_soup() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(rule_tokens(), 1..4),
        prop::collection::vec(
            (0u8..3, 0usize..1000, prop::sample::select(TOKENS.to_vec())),
            0..3,
        ),
    )
        .prop_map(|(rules, mutations)| {
            let mut tokens: Vec<&str> = rules.concat();
            for (op, at, token) in mutations {
                let at = at % tokens.len().max(1);
                match op {
                    0 if !tokens.is_empty() => {
                        tokens.remove(at);
                    }
                    1 => tokens.insert(at, token),
                    _ if at + 1 < tokens.len() => tokens.swap(at, at + 1),
                    _ => {}
                }
            }
            tokens.join(" ")
        })
}

fn small_db() -> Database {
    let mut db = Database::new();
    db.assert_str_facts("q1", &[&["a"], &["b"]]);
    db.assert_str_facts("e2", &[&["a", "b"], &["b", "c"], &["c", "a"]]);
    db.fact("own3").sym("a").sym("b").float(0.6).assert();
    db.fact("own3").sym("b").sym("c").float(0.7).assert();
    db.fact("own3").sym("c").sym("a").float(0.5).assert();
    db
}

/// Parses `src`, builds an engine and runs it on [`small_db`]; every
/// outcome but a panic is accepted.
fn construct_and_run(src: &str) {
    let Ok(program) = Program::parse(src) else {
        return;
    };
    let opts = EngineOptions {
        max_facts: 2_000,
        max_rounds: 200,
        ..EngineOptions::default()
    };
    if let Ok(engine) = Engine::with(&program, FunctionRegistry::default(), opts) {
        let _ = engine.run(&mut small_db());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The analyzer is total: no parsed program makes it panic, under
    /// either the default or the strict configuration.
    #[test]
    fn analyzer_never_panics(src in ".{0,200}") {
        if let Ok(program) = Program::parse(&src) {
            let _ = analyze_with(&program, &AnalysisConfig::default());
            let _ = analyze_with(&program, &AnalysisConfig::strict());
        }
    }

    /// Rule-shaped token soup parses far more often than arbitrary
    /// unicode, driving the passes over genuinely weird (but syntactic)
    /// programs.
    #[test]
    fn analyzer_never_panics_on_tokenish_soup(src in rule_soup()) {
        if let Ok(program) = Program::parse(&src) {
            let _ = analyze_with(&program, &AnalysisConfig::default());
            let _ = analyze_with(&program, &AnalysisConfig::strict());
        }
    }

    /// Whatever parses goes through `Engine::new` and, when accepted, a
    /// run on a small database under small budgets: errors are fine,
    /// panics are not.
    #[test]
    fn engine_never_panics(src in ".{0,200}") {
        construct_and_run(&src);
    }

    /// The same on rule-shaped token soup, which parses far more often.
    #[test]
    fn engine_never_panics_on_tokenish_soup(src in rule_soup()) {
        construct_and_run(&src);
    }

    /// Generated programs, unfiltered: many carry the shapes only the
    /// gate keeps from the stratifier and the executors (an aggregate
    /// whose value misses the head, unbound or recursive negation).
    #[test]
    fn engine_never_panics_on_generated_programs(src in program_source()) {
        construct_and_run(&src);
    }

    /// Analyzer-clean programs construct an engine and evaluate without
    /// structural errors: everything V001–V016 promises to catch
    /// statically must not resurface at runtime.
    #[test]
    fn clean_programs_evaluate_without_structural_errors(src in program_source()) {
        let program = Program::parse(&src).expect("generated source is syntactic");
        if analyze_with(&program, &AnalysisConfig::default()).has_errors() {
            return Ok(());
        }
        let opts = EngineOptions {
            max_facts: 20_000,
            max_rounds: 2_000,
            ..EngineOptions::default()
        };
        let engine = Engine::with(&program, FunctionRegistry::default(), opts)
            .unwrap_or_else(|e| panic!("analyzer-clean program rejected by engine: {src}\n{e}"));
        let mut db = small_db();
        match engine.run(&mut db) {
            Ok(_) => {}
            // Existential recursion may legitimately hit the cap.
            Err(DatalogError::BudgetExceeded(_)) => {}
            // `V = W + 1` with W bound to a symbol: dynamic typing is out
            // of the analyzer's scope.
            Err(DatalogError::Function(_)) => {}
            Err(e) => panic!("structural runtime error on clean program: {src}\n{e}"),
        }
    }
}

/// The soup reaches rules: of the 256 inputs the two soup properties
/// draw, at least 64 parse to a program with a rule.
#[test]
fn rule_soup_parses_to_rules() {
    let soup = rule_soup();
    let with_rule = (0..256)
        .filter(|&case| {
            let seed = proptest::seed_for("engine_never_panics_on_tokenish_soup", case);
            let src = soup.generate(&mut TestRng::new(seed));
            Program::parse(&src).is_ok_and(|p| !p.rules.is_empty())
        })
        .count();
    assert!(with_rule >= 64, "{with_rule} of 256 inputs parse to a rule");
}
