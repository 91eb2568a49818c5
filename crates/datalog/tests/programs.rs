//! Integration tests: complete Vadalog programs from the paper and
//! engine corner cases exercised through the public API.

use datalog::{Database, Engine, EngineOptions, FunctionRegistry, Program};

fn run(src: &str, setup: impl FnOnce(&mut Database)) -> Database {
    let program = Program::parse(src).unwrap();
    let engine = Engine::new(&program).unwrap();
    let mut db = Database::new();
    setup(&mut db);
    engine.run(&mut db).unwrap();
    db
}

#[test]
fn paper_example_3_2_influence() {
    // Example 3.2: persons affect companies they own; spouses inherit the
    // influence; Spouse edges (with validity interval) derive from Married.
    let db = run(
        r#"
        influence(X, C) :- person(X), own(X, C, _).
        influence(Y, C) :- own(X, C, _), spouse(X, Y, _, _).
        spouse(X, Y, 0, 99999) :- married(X, Y).
        spouse(Y, X, T1, T2) :- spouse(X, Y, T1, T2).
        "#,
        |db| {
            db.assert_str_facts("person", &[&["p1"], &["p2"]]);
            db.fact("own").sym("p1").sym("c").float(0.3).assert();
            db.assert_str_facts("married", &[&["p1", "p2"]]);
        },
    );
    assert!(db.contains_str_fact("influence", &["p1", "c"]));
    // p2's influence flows through the symmetric spouse edge.
    assert!(db.contains_str_fact("influence", &["p2", "c"]));
    assert_eq!(
        db.fact_count("spouse"),
        2,
        "symmetry materialized once each way"
    );
}

#[test]
fn ancestors_with_stratified_negation() {
    let db = run(
        r#"
        ancestor(X, Y) :- parent(X, Y).
        ancestor(X, Z) :- ancestor(X, Y), parent(Y, Z).
        root(X) :- person(X), not has_parent(X).
        has_parent(X) :- parent(_, X).
        "#,
        |db| {
            db.assert_str_facts("person", &[&["a"], &["b"], &["c"]]);
            db.assert_str_facts("parent", &[&["a", "b"], &["b", "c"]]);
        },
    );
    assert!(db.contains_str_fact("ancestor", &["a", "c"]));
    assert_eq!(db.dump("root"), vec!["a"]);
}

#[test]
fn mmin_aggregate_tracks_minimum() {
    let db = run(
        "cheapest(I, V) :- offer(I, _, P), V = mmin(P, <I>).",
        |db| {
            db.fact("offer").sym("widget").sym("s1").float(9.0).assert();
            db.fact("offer").sym("widget").sym("s2").float(4.5).assert();
            db.fact("offer").sym("widget").sym("s3").float(7.0).assert();
        },
    );
    // Auto-compaction keeps the extremal (minimum) row per group.
    let rel = db.relation("cheapest").unwrap();
    assert_eq!(rel.len(), 1);
    assert_eq!(rel.row(0)[1].as_f64(), Some(4.5));
}

#[test]
fn mprod_aggregate_multiplies() {
    let db = run(
        "@post(\"chainprob\", \"min(1)\").\n\
         chainprob(C, V) :- hop(C, _, P), V = mprod(P, <C, P>).",
        |db| {
            db.fact("hop").sym("c").int(1).float(0.5).assert();
            db.fact("hop").sym("c").int(2).float(0.4).assert();
        },
    );
    let rel = db.relation("chainprob").unwrap();
    // Contributors are (C, P) pairs: 0.5 · 0.4 = 0.2; the explicit
    // @post(min) keeps the converged product.
    assert_eq!(rel.len(), 1);
    assert!((rel.row(0)[1].as_f64().unwrap() - 0.2).abs() < 1e-9);
}

#[test]
fn external_function_errors_are_reported() {
    let program = Program::parse("q(Y) :- p(X), Y = #fail(X).").unwrap();
    let mut engine = Engine::new(&program).unwrap();
    engine.register_function("fail", |_, _| Err("boom".to_owned()));
    let mut db = Database::new();
    db.assert_str_facts("p", &[&["a"]]);
    let err = engine.run(&mut db).unwrap_err();
    assert!(err.to_string().contains("boom"), "{err}");
}

#[test]
fn round_budget_guards_diverging_numeric_recursion() {
    // succ generates an unbounded chain of integers: the fact budget stops
    // it instead of looping forever.
    let program = Program::parse("n(0). n(Y) :- n(X), Y = X + 1.").unwrap();
    let opts = EngineOptions {
        max_facts: 1_000,
        ..Default::default()
    };
    let engine = Engine::with(&program, FunctionRegistry::default(), opts).unwrap();
    let mut db = Database::new();
    let err = engine.run(&mut db).unwrap_err();
    assert!(matches!(err, datalog::DatalogError::BudgetExceeded(_)));
}

#[test]
fn same_generation_classic() {
    let db = run(
        r#"
        sg(X, X) :- person(X).
        sg(X, Y) :- parent(PX, X), sg(PX, PY), parent(PY, Y).
        "#,
        |db| {
            for p in ["gp", "f", "u", "c1", "c2"] {
                db.assert_str_facts("person", &[&[p]]);
            }
            // gp is parent of f and u; f parent of c1; u parent of c2.
            db.assert_str_facts(
                "parent",
                &[&["gp", "f"], &["gp", "u"], &["f", "c1"], &["u", "c2"]],
            );
        },
    );
    assert!(db.contains_str_fact("sg", &["f", "u"]));
    assert!(db.contains_str_fact("sg", &["c1", "c2"]));
    assert!(!db.contains_str_fact("sg", &["f", "c1"]));
}

#[test]
fn outputs_and_program_display() {
    let program =
        Program::parse(r#"@output("t"). t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z)."#)
            .unwrap();
    assert_eq!(program.outputs().collect::<Vec<_>>(), vec!["t"]);
    let printed = program.to_string();
    assert!(printed.contains("@output(\"t\")"));
    let reparsed = Program::parse(&printed).unwrap();
    assert_eq!(program, reparsed);
}

#[test]
fn skolems_align_across_separate_rules_and_runs() {
    let program = Program::parse(
        r#"
        n1(Z, X) :- p(X), Z = #node(X).
        n2(Z, X) :- q(X), Z = #node(X).
        joined(X, Y) :- n1(Z, X), n2(Z, Y).
        "#,
    )
    .unwrap();
    let engine = Engine::new(&program).unwrap();
    let mut db = Database::new();
    db.assert_str_facts("p", &[&["a"], &["b"]]);
    db.assert_str_facts("q", &[&["a"]]);
    engine.run(&mut db).unwrap();
    // #node("a") from both rules is the same OID → the join fires.
    assert_eq!(db.dump("joined"), vec!["a,a"]);
    // Re-running is stable: determinism across runs of one database.
    engine.run(&mut db).unwrap();
    assert_eq!(db.dump("joined"), vec!["a,a"]);
}

#[test]
fn comparisons_work_on_symbols_and_numbers() {
    let db = run(
        r#"
        older(X, Y) :- person(X, AX), person(Y, AY), AX > AY.
        alpha(X, Y) :- person(X, _), person(Y, _), X < Y.
        "#,
        |db| {
            db.fact("person").sym("anna").int(64).assert();
            db.fact("person").sym("bruno").int(31).assert();
        },
    );
    assert!(db.contains_str_fact("older", &["anna", "bruno"]));
    assert!(!db.contains_str_fact("older", &["bruno", "anna"]));
    // Symbol order is interning order (anna first), not lexicographic —
    // but for distinct symbols exactly one direction holds.
    assert_eq!(db.fact_count("alpha"), 1);
}

#[test]
fn provenance_spans_aggregate_rules() {
    let program = Program::parse(
        "control(X, X) :- company(X).\n\
         control(X, Y) :- control(X, Z), own(Z, Y, W), X != Y, msum(W, <Z>) > 0.5.",
    )
    .unwrap();
    let opts = EngineOptions {
        provenance: true,
        ..Default::default()
    };
    let engine = Engine::with(&program, FunctionRegistry::default(), opts).unwrap();
    let mut db = Database::new();
    db.assert_str_facts("company", &[&["a"], &["b"]]);
    db.fact("own").sym("a").sym("b").float(0.8).assert();
    engine.run(&mut db).unwrap();
    let a = db.sym("a");
    let b = db.sym("b");
    let tree = datalog::explain::explain(&db, "control", &[a, b], 5).unwrap();
    assert_eq!(tree.rule, Some(1));
    let rendered = tree.render();
    assert!(rendered.contains("own"), "{rendered}");
}

mod parser_robustness {
    use datalog::Program;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The parser must never panic: any input yields Ok or a
        /// structured parse error.
        #[test]
        fn parser_never_panics(src in ".{0,200}") {
            let _ = Program::parse(&src);
        }

        /// Inputs built from the grammar's own token alphabet stress the
        /// recursive-descent paths harder than arbitrary unicode.
        #[test]
        fn parser_never_panics_on_tokenish_soup(
            parts in prop::collection::vec(
                prop::sample::select(vec![
                    "a", "X", "(", ")", ",", ".", ":-", "->", "not", "msum",
                    "<", ">", "=", "!=", "0.5", "3", "#f", "@output", "\"s\"",
                    "%c\n", "_",
                ]),
                0..40,
            )
        ) {
            let src: String = parts.join(" ");
            let _ = Program::parse(&src);
        }
    }
}

#[test]
fn control_boundary_exactly_half_is_not_control() {
    let db = run(
        "control(X, X) :- company(X).\n\
         control(X, Y) :- control(X, Z), own(Z, Y, W), X != Y, msum(W, <Z>) > 0.5.",
        |db| {
            db.assert_str_facts("company", &[&["a"], &["b"], &["c"]]);
            db.fact("own").sym("a").sym("b").float(0.5).assert();
            db.fact("own").sym("a").sym("c").float(0.500001).assert();
        },
    );
    assert!(
        !db.contains_str_fact("control", &["a", "b"]),
        "0.5 is not > 0.5"
    );
    assert!(db.contains_str_fact("control", &["a", "c"]));
}

#[test]
fn mixed_plain_and_aggregate_rules_for_one_head() {
    // `big` is derived both directly and via a threshold aggregate; the
    // relation is the union, deduplicated.
    let db = run(
        "big(X) :- huge(X).\n\
         big(X) :- part(X, W), msum(W, <X, W>) >= 1.0.",
        |db| {
            db.assert_str_facts("huge", &[&["h"]]);
            db.fact("part").sym("p").float(0.6).assert();
            db.fact("part").sym("p").float(0.5).assert();
            db.fact("part").sym("q").float(0.3).assert();
            db.fact("part").sym("h").float(2.0).assert();
        },
    );
    assert_eq!(db.dump("big"), vec!["h", "p"]);
}

#[test]
fn anonymous_variables_do_not_join() {
    let db = run("seen(X) :- e(X, _), e(_, X).", |db| {
        db.assert_str_facts("e", &[&["a", "b"], &["c", "a"]]);
    });
    // a has an outgoing AND an incoming edge (through different partners).
    assert_eq!(db.dump("seen"), vec!["a"]);
}

#[test]
fn engine_rejects_each_ill_formed_shape_with_its_code() {
    use datalog::{DatalogError, DiagCode};

    // One program per shape the engine cannot evaluate, and the
    // diagnostic `Engine::new` must reject it with.
    let cases: [(&str, DiagCode); 18] = [
        // Aggregate shape.
        (
            "p(X, V) :- n(X, W), V = msum(W, <X>), n(X, _).",
            DiagCode::V014,
        ),
        ("p(X, W) :- n(X, W), W = msum(W, <X>).", DiagCode::V014),
        (
            "p(X, V), r(X) :- n(X, W), V = msum(W, <X>).",
            DiagCode::V014,
        ),
        ("p(X), r(X) :- n(X, W), msum(W, <X>) > 0.5.", DiagCode::V014),
        ("p(X) :- n(X, W), V = msum(W, <X>).", DiagCode::V014),
        ("p(X, V, V) :- n(X, W), V = msum(W, <X>).", DiagCode::V014),
        (
            "p(X, V, #f(X)) :- n(X, W), V = msum(W, <X>).",
            DiagCode::V014,
        ),
        ("p(X, Z) :- n(X, W), msum(W, <X>) > 0.5.", DiagCode::V014),
        (
            "p(X, V) :- n(X, W), V = msum(W, <X>), msum(W, <X>) > 1.",
            DiagCode::V014,
        ),
        // Skolem term in a body atom.
        ("p(X) :- n(#f(X)).", DiagCode::V015),
        // Unbound variables.
        ("p(X) :- n(X), not q(Y).", DiagCode::V001),
        ("p(X) :- n(X), Y > 3.", DiagCode::V003),
        ("p(X, V) :- n(X), V = Y + 1.", DiagCode::V004),
        ("p(X, V) :- n(X), V = msum(W, <X>).", DiagCode::V004),
        ("p(X) :- n(X, W), msum(W, <X>) > Y.", DiagCode::V004),
        ("p(#f(Y)) :- n(X).", DiagCode::V004),
        // Non-ground fact.
        ("p(X).", DiagCode::V013),
        // Negation through recursion.
        (
            "p(X) :- n(X), not q(X). q(X) :- n(X), not p(X).",
            DiagCode::V005,
        ),
    ];
    for (src, code) in cases {
        let program = Program::parse(src).unwrap();
        match Engine::new(&program) {
            Err(DatalogError::Analysis(ds)) => assert!(
                ds.iter().any(|d| d.code == code),
                "{src}: expected {code}, got {ds:?}"
            ),
            Err(e) => panic!("{src}: expected {code}, got {e}"),
            Ok(_) => panic!("{src}: expected {code}, but the engine accepted it"),
        }
    }
}
