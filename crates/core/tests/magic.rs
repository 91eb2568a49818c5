//! Demanded-query differentials: the byte-equivalence contract of
//! `Engine::query`.
//!
//! For every bundled program and a spread of goal shapes (bound-first,
//! bound-second, fully bound, all-free), the goal-directed path — magic
//! rewrite, demand-hinted planning, evaluation of the rewritten program —
//! must produce *byte-identical* canonical rows to filtering the goal out
//! of a full bottom-up fixpoint. Where the
//! rewrite is expected to restrict evaluation (`demanded == true`) or to
//! fall back (all-free goals, `@post` targets), that is asserted too: a
//! silent fallback would keep answers correct while losing the entire
//! point of the rewrite.

use datalog::{Const, Database, Engine, Program, Query};
use gen::company::{generate, CompanyGraphConfig};
use vada_link::mapping::load_facts;
use vada_link::model::CompanyGraph;
use vada_link::paper_graphs::{figure1, figure2, NamedGraph};
use vada_link::programs::{
    CLOSELINK_PROGRAM, CONTROL_PROGRAM, FAMILY_CLOSELINK_PROGRAM, FAMILY_CONTROL_PROGRAM,
    GENERIC_PIPELINE_PROGRAM, PARTNER_PROGRAM,
};

/// The database symbol of a named figure node (`load_facts` keys facts by
/// `n<node index>`).
fn node_sym(f: &NamedGraph, name: &str) -> String {
    format!("n{}", f.node(name).index())
}

/// Asserts the byte-equivalence contract for one `(program, facts, goal)`
/// triple, and — when `expect_demanded` is given — that the rewrite took
/// the expected path.
fn check_goal(
    src: &str,
    setup: &dyn Fn(&mut Database),
    register: &dyn Fn(&mut Engine),
    goal: &str,
    expect_demanded: Option<bool>,
) {
    let program = Program::parse(src).expect("valid program");
    let q = Query::parse(goal).expect("valid goal");
    let mut engine = Engine::new(&program).expect("compiles");
    register(&mut engine);
    let mut base = Database::new();
    setup(&mut base);

    let mut full = base.clone();
    engine.run(&mut full).expect("full fixpoint");
    let reference = datalog::goal_matches(&full, &q);

    let answer = engine.query(&base, goal).expect("goal-directed run");
    assert_eq!(
        answer.rows, reference,
        "goal `{goal}` diverged from full evaluation (demanded={}, fallback={:?})",
        answer.demanded, answer.fallback_reason
    );
    if let Some(expected) = expect_demanded {
        assert_eq!(
            answer.demanded, expected,
            "goal `{goal}`: expected demanded={expected} (fallback={:?})",
            answer.fallback_reason
        );
    }
}

fn no_register(_: &mut Engine) {}

// ---------------------------------------------------------------------------
// Paper figures, all six bundled programs
// ---------------------------------------------------------------------------

#[test]
fn control_point_lookups_match_full_evaluation_on_paper_graphs() {
    for (f, name) in [(figure1(), "C"), (figure2(), "C4")] {
        let setup = |db: &mut Database| load_facts(&f.graph, db);
        let c = node_sym(&f, name);
        // Bound-first: the canonical "what does C control" point lookup.
        check_goal(
            CONTROL_PROGRAM,
            &setup,
            &no_register,
            &format!("control(\"{c}\", X)?"),
            Some(true),
        );
        // Bound-second: "who controls C" — the reverse adornment.
        check_goal(
            CONTROL_PROGRAM,
            &setup,
            &no_register,
            &format!("control(X, \"{c}\")?"),
            Some(true),
        );
        // Fully bound: membership test.
        check_goal(
            CONTROL_PROGRAM,
            &setup,
            &no_register,
            &format!("control(\"{c}\", \"{c}\")?"),
            Some(true),
        );
        // All-free: nothing to demand; must fall back and still agree.
        check_goal(
            CONTROL_PROGRAM,
            &setup,
            &no_register,
            "control(X, Y)?",
            Some(false),
        );
    }
}

#[test]
fn control_goal_over_never_interned_constant_is_empty() {
    let f = figure1();
    let setup = |db: &mut Database| load_facts(&f.graph, db);
    check_goal(
        CONTROL_PROGRAM,
        &setup,
        &no_register,
        "control(\"no_such_node\", X)?",
        None,
    );
}

#[test]
fn close_link_point_lookups_match_full_evaluation_on_paper_graphs() {
    for (f, name) in [(figure1(), "D"), (figure2(), "C4")] {
        let setup = |db: &mut Database| {
            load_facts(&f.graph, db);
            db.assert_fact("th", &[Const::float(0.2)]).expect("arity");
        };
        let d = node_sym(&f, name);
        // The symmetry rule `close_link(X, Y) :- close_link(Y, X)` makes
        // the bf variant demand the fb variant and vice versa — the
        // adornment worklist must close over both.
        check_goal(
            CLOSELINK_PROGRAM,
            &setup,
            &no_register,
            &format!("close_link(\"{d}\", X)?"),
            Some(true),
        );
        check_goal(
            CLOSELINK_PROGRAM,
            &setup,
            &no_register,
            &format!("close_link(X, \"{d}\")?"),
            Some(true),
        );
        // An aggregate-headed goal: acc_own's group keys are exactly the
        // bound head positions, so demand restriction must not truncate
        // contributor sets.
        check_goal(
            CLOSELINK_PROGRAM,
            &setup,
            &no_register,
            &format!("acc_own(\"{d}\", X, V)?"),
            Some(true),
        );
    }
}

#[test]
fn family_control_point_lookups_match_full_evaluation() {
    let f = figure1();
    let src = format!("{CONTROL_PROGRAM}\n{FAMILY_CONTROL_PROGRAM}");
    let p1 = node_sym(&f, "P1");
    let p2 = node_sym(&f, "P2");
    let setup = move |db: &mut Database| {
        load_facts(&f.graph, db);
        for m in [&p1, &p2] {
            let fam = db.sym("fam");
            let ms = db.sym(m);
            db.assert_fact("member", &[fam, ms]).expect("arity");
        }
    };
    check_goal(
        &src,
        &setup,
        &no_register,
        "fcontrol(\"fam\", X)?",
        Some(true),
    );
    check_goal(&src, &setup, &no_register, "fcontrol(F, Y)?", Some(false));
}

#[test]
fn family_close_link_point_lookups_match_full_evaluation() {
    let f = figure1();
    let src = format!("{CLOSELINK_PROGRAM}\n{FAMILY_CLOSELINK_PROGRAM}");
    let p1 = node_sym(&f, "P1");
    let p2 = node_sym(&f, "P2");
    let d = node_sym(&f, "D");
    let setup = move |db: &mut Database| {
        load_facts(&f.graph, db);
        db.assert_fact("th", &[Const::float(0.2)]).expect("arity");
        for m in [&p1, &p2] {
            let fam = db.sym("fam");
            let ms = db.sym(m);
            db.assert_fact("member", &[fam, ms]).expect("arity");
        }
    };
    check_goal(
        &src,
        &setup,
        &no_register,
        &format!("f_close_link(\"{d}\", X)?"),
        None,
    );
}

#[test]
fn partner_point_lookups_match_full_evaluation() {
    let f = figure1();
    let p1 = node_sym(&f, "P1");
    let setup = |db: &mut Database| load_facts(&f.graph, db);
    // A deterministic stand-in for the trained link-probability model:
    // same surname (arg 1 vs arg 6) scores high, anything else low.
    let register = |engine: &mut Engine| {
        engine.register_function("linkprob", |ctx, args| {
            let a = ctx.str_of(args[1]).unwrap_or("").to_owned();
            let b = ctx.str_of(args[6]).unwrap_or("").to_owned();
            let p = if !a.is_empty() && a == b { 0.9 } else { 0.1 };
            Ok(Const::float(p))
        });
    };
    check_goal(
        PARTNER_PROGRAM,
        &setup,
        &register,
        &format!("person_link(\"{p1}\", X)?"),
        Some(true),
    );
}

#[test]
fn generic_pipeline_point_lookups_match_full_evaluation() {
    let f = figure1();
    let setup = |db: &mut Database| load_facts(&f.graph, db);
    let c = node_sym(&f, "C");
    // g_control's head vars flow through Skolem-invented node OIDs; the
    // greedy sideways pass has to route the binding node → g_ctl → node.
    check_goal(
        GENERIC_PIPELINE_PROGRAM,
        &setup,
        &no_register,
        &format!("g_control(\"{c}\", X)?"),
        None,
    );
}

// ---------------------------------------------------------------------------
// Synthetic graphs: larger fact sets, several distinct sources
// ---------------------------------------------------------------------------

fn synthetic_graph(persons: usize, companies: usize, seed: u64) -> CompanyGraph {
    let out = generate(&CompanyGraphConfig {
        persons,
        companies,
        seed,
        ..Default::default()
    });
    CompanyGraph::new(out.graph)
}

/// A handful of company symbols spread across the id range.
fn company_syms(g: &CompanyGraph, n: usize) -> Vec<String> {
    let all: Vec<String> = g.companies().map(|c| format!("n{}", c.index())).collect();
    assert!(!all.is_empty());
    (0..n)
        .map(|i| all[i * (all.len() - 1) / n.max(1)].clone())
        .collect()
}

#[test]
fn control_point_lookups_match_full_evaluation_on_synthetic_graphs() {
    let g = synthetic_graph(400, 250, 0xA61C);
    let setup = |db: &mut Database| load_facts(&g, db);
    for c in company_syms(&g, 3) {
        check_goal(
            CONTROL_PROGRAM,
            &setup,
            &no_register,
            &format!("control(\"{c}\", X)?"),
            Some(true),
        );
    }
}

#[test]
fn close_link_point_lookups_match_full_evaluation_on_synthetic_graphs() {
    let g = synthetic_graph(300, 200, 0xC10);
    let setup = |db: &mut Database| {
        load_facts(&g, db);
        db.assert_fact("th", &[Const::float(0.2)]).expect("arity");
    };
    for c in company_syms(&g, 2) {
        check_goal(
            CLOSELINK_PROGRAM,
            &setup,
            &no_register,
            &format!("close_link(\"{c}\", X)?"),
            Some(true),
        );
    }
}
