//! Property test: goal-directed evaluation is observationally equivalent
//! to full bottom-up evaluation.
//!
//! Proptest draws a random edge relation, one of several recursive program
//! shapes (left-/right-/doubly-recursive closure, same-generation, a
//! non-recursive join layer), and a random goal pattern (bound-first,
//! bound-second, fully bound, all-free, sometimes over a constant that no
//! fact mentions). The canonical rows of [`Engine::query`] must be
//! byte-identical to filtering the goal out of a
//! full fixpoint with [`goal_matches`]. The generated programs are plain
//! Datalog — single-headed, negation-free, aggregate-free — so every
//! non-all-free pattern is demandable, and the test asserts `demanded` to
//! catch silent fallbacks.

use datalog::{goal_matches, Database, Engine, Program, Query};
use proptest::prelude::*;

/// Program shapes over an `e/2` edge relation. `goal_preds` lists the
/// intensional predicates (all binary) a goal may target.
struct Shape {
    src: &'static str,
    goal_preds: &'static [&'static str],
}

const SHAPES: &[Shape] = &[
    Shape {
        src: "@output(\"p\").\n\
              p(X, Y) :- e(X, Y).\n\
              p(X, Z) :- p(X, Y), e(Y, Z).",
        goal_preds: &["p"],
    },
    Shape {
        src: "@output(\"p\").\n\
              p(X, Y) :- e(X, Y).\n\
              p(X, Z) :- e(X, Y), p(Y, Z).",
        goal_preds: &["p"],
    },
    Shape {
        src: "@output(\"p\").\n\
              p(X, Y) :- e(X, Y).\n\
              p(X, Z) :- p(X, Y), p(Y, Z).",
        goal_preds: &["p"],
    },
    Shape {
        src: "@output(\"sg\").\n\
              sg(X, Y) :- e(Z, X), e(Z, Y).\n\
              sg(X, Y) :- e(Z, X), sg(Z, W), e(W, Y).",
        goal_preds: &["sg"],
    },
    Shape {
        src: "@output(\"q\").\n\
              p(X, Y) :- e(X, Y).\n\
              p(X, Z) :- p(X, Y), e(Y, Z).\n\
              q(X, Y) :- p(X, Z), p(Z, Y), X != Y.",
        goal_preds: &["p", "q"],
    },
];

/// Renders the goal for `pred` with the pattern selected by `kind`
/// (0 = bound-first, 1 = bound-second, 2 = fully bound, 3 = all-free)
/// over the symbol pool `s<i>`.
fn render_goal(pred: &str, kind: u8, ca: u8, cb: u8) -> (String, bool) {
    let a = format!("s{ca}");
    let b = format!("s{cb}");
    match kind % 4 {
        0 => (format!("{pred}(\"{a}\", Y)?"), true),
        1 => (format!("{pred}(X, \"{b}\")?"), true),
        2 => (format!("{pred}(\"{a}\", \"{b}\")?"), true),
        _ => (format!("{pred}(X, Y)?"), false),
    }
}

fn edge_db(edges: &[(u8, u8)]) -> Database {
    let mut db = Database::new();
    for &(x, y) in edges {
        let a = db.sym(&format!("s{x}"));
        let b = db.sym(&format!("s{y}"));
        db.assert_fact("e", &[a, b]).expect("arity");
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn demanded_queries_match_full_evaluation(
        edges in prop::collection::vec((0u8..12, 0u8..12), 8..48),
        shape_ix in 0usize..SHAPES.len(),
        pred_ix in 0usize..2,
        kind in 0u8..4,
        // Constants range past the edge-symbol pool so some goals mention
        // symbols no fact interned.
        ca in 0u8..14,
        cb in 0u8..14,
    ) {
        let shape = &SHAPES[shape_ix];
        let pred = shape.goal_preds[pred_ix % shape.goal_preds.len()];
        let (goal, bound) = render_goal(pred, kind, ca, cb);
        let program = Program::parse(shape.src).expect("valid shape");
        let q = Query::parse(&goal).expect("valid goal");
        let base = edge_db(&edges);

        let engine = Engine::new(&program).expect("compiles");

        let mut full = base.clone();
        engine.run(&mut full).expect("full fixpoint");
        let reference = goal_matches(&full, &q);

        let answer = engine.query(&base, &goal).expect("goal-directed run");
        prop_assert_eq!(
            &answer.rows, &reference,
            "goal `{}` diverged (shape {}, demanded={}, fallback={:?})",
            goal, shape_ix, answer.demanded, answer.fallback_reason
        );
        prop_assert_eq!(
            answer.demanded, bound,
            "goal `{}` took the wrong path (shape {}, fallback={:?})",
            goal, shape_ix, answer.fallback_reason
        );
    }
}
