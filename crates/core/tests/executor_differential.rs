//! Production-vs-oracle differential tests over the bundled paper
//! programs.
//!
//! The production pipeline (cost planning, closure chains, frozen
//! columnar/CSR images, batch tier) promises a database *byte-identical*
//! to the reference oracle's (textual literal order, step machine —
//! `EngineOptions::oracle`): every relation, every row id, every
//! provenance line, every invented Skolem OID. These tests run all six
//! bundled Vadalog programs on the paper's figure graphs (and a generated
//! company graph for the recursive workloads), with provenance on (tuple
//! closures everywhere) and off (batch tier where it is ready), and
//! compare production against the oracle.
//!
//! The golden suite (`tests/golden`) freezes `@output` semantics; this
//! suite freezes something stronger — planner and executors must be
//! invisible in the bytes of the database, not just in the output
//! relation.

use datalog::{Const, Database, Engine, EngineOptions, FunctionRegistry, Program};
use gen::company::{generate, CompanyGraphConfig};
use vada_link::mapping::{load_facts, sym_of};
use vada_link::model::CompanyGraph;
use vada_link::paper_graphs::{figure1, figure2, NamedGraph};
use vada_link::programs::{
    CLOSELINK_PROGRAM, CONTROL_PROGRAM, FAMILY_CLOSELINK_PROGRAM, FAMILY_CONTROL_PROGRAM,
    GENERIC_PIPELINE_PROGRAM, PARTNER_PROGRAM,
};

/// Full database image: every predicate (name order), rows in insertion
/// order — row ids are implicit in the line order — with provenance.
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

/// Builds the engine for one configuration. The partner program needs its
/// external `#linkprob` function; other programs take an empty registry.
fn engine_for(src: &str, oracle: bool, provenance: bool) -> Engine {
    let program = Program::parse(src).expect("bundled program parses");
    let mut registry = FunctionRegistry::default();
    if src.contains("#linkprob") {
        registry.register("linkprob", |ctx, args| {
            let s = |i: usize| ctx.str_of(args[i]).unwrap_or("").to_owned();
            let same_surname = !s(1).is_empty() && s(1) == s(6);
            let gap = (args[2].as_i64().unwrap_or(0) - args[7].as_i64().unwrap_or(0)).abs();
            Ok(Const::float(if same_surname && gap < 25 {
                0.9
            } else {
                0.1
            }))
        });
    }
    let options = EngineOptions {
        oracle,
        provenance,
        ..EngineOptions::default()
    };
    Engine::with(&program, registry, options).expect("bundled program compiles")
}

/// Runs `src` on the oracle and on production, with and without
/// provenance, and asserts the production image equals the oracle's.
fn assert_executors_agree(name: &str, src: &str, setup: &dyn Fn(&mut Database)) {
    for provenance in [true, false] {
        let run = |oracle: bool| -> Vec<String> {
            let mut db = Database::new();
            setup(&mut db);
            engine_for(src, oracle, provenance)
                .run(&mut db)
                .expect("fixpoint");
            full_snapshot(&db)
        };
        let reference = run(true);
        assert!(!reference.is_empty(), "{name}: oracle derived nothing");
        assert_eq!(
            run(false),
            reference,
            "{name}: production with provenance={provenance} diverged from the oracle"
        );
    }
}

fn add_threshold(db: &mut Database, t: f64) {
    db.assert_fact("th", &[Const::float(t)]).expect("arity");
}

fn add_family(f: &NamedGraph, db: &mut Database, members: &[&str]) {
    for m in members {
        let fam = db.sym("fam");
        let ms = sym_of(db, f.node(m));
        db.assert_fact("member", &[fam, ms]).expect("arity");
    }
}

/// A generated company graph big enough to cross the parallel scheduler's
/// sequential cutoff, so the multi-thread legs genuinely run chunked and
/// the compiled chunks interleave with splice-ordered merging; its tens
/// of thousands of acc_own facts are also the regime where the planner
/// reorders differently per round.
fn generated_graph() -> CompanyGraph {
    let out = generate(&CompanyGraphConfig {
        persons: 600,
        companies: 300,
        seed: 0x9E37,
        ..Default::default()
    });
    CompanyGraph::new(out.graph)
}

#[test]
fn control_is_executor_invariant_on_paper_graphs() {
    for (tag, f) in [("figure1", figure1()), ("figure2", figure2())] {
        assert_executors_agree(
            &format!("control/{tag}"),
            CONTROL_PROGRAM,
            &|db: &mut Database| load_facts(&f.graph, db),
        );
    }
}

#[test]
fn closelink_is_executor_invariant_on_paper_graphs() {
    for (tag, f) in [("figure1", figure1()), ("figure2", figure2())] {
        assert_executors_agree(
            &format!("closelink/{tag}"),
            CLOSELINK_PROGRAM,
            &|db: &mut Database| {
                load_facts(&f.graph, db);
                add_threshold(db, 0.2);
            },
        );
    }
}

#[test]
fn family_programs_are_executor_invariant() {
    let control_src = format!("{CONTROL_PROGRAM}\n{FAMILY_CONTROL_PROGRAM}");
    let closelink_src = format!("{CLOSELINK_PROGRAM}\n{FAMILY_CLOSELINK_PROGRAM}");
    for (tag, f) in [("figure1", figure1()), ("figure2", figure2())] {
        assert_executors_agree(
            &format!("family_control/{tag}"),
            &control_src,
            &|db: &mut Database| {
                load_facts(&f.graph, db);
                add_family(&f, db, &["P1", "P2"]);
            },
        );
        assert_executors_agree(
            &format!("family_closelink/{tag}"),
            &closelink_src,
            &|db: &mut Database| {
                load_facts(&f.graph, db);
                add_threshold(db, 0.2);
                add_family(&f, db, &["P1", "P2"]);
            },
        );
    }
}

#[test]
fn partner_is_executor_invariant() {
    // External function calls run inside compiled Let stages; the
    // generated graph carries person attributes and exercises them at
    // volume, and its size puts the planner on the quadratic self-join.
    let g = generated_graph();
    assert_executors_agree(
        "partner/generated",
        PARTNER_PROGRAM,
        &|db: &mut Database| load_facts(&g, db),
    );
}

#[test]
fn generic_pipeline_is_executor_invariant() {
    // Skolem invention threads through shared state: compiled emit stages
    // must invent OIDs in exactly the oracle's order, whatever the planner
    // does.
    for (tag, f) in [("figure1", figure1()), ("figure2", figure2())] {
        assert_executors_agree(
            &format!("generic/{tag}"),
            GENERIC_PIPELINE_PROGRAM,
            &|db: &mut Database| load_facts(&f.graph, db),
        );
    }
}

#[test]
fn control_and_closelink_are_executor_invariant_at_scale() {
    // Tens of thousands of acc_own facts: the regime where frozen columnar
    // relations, CSR probes and compiled aggregate stages all carry real
    // traffic — and where epsilon-guarded msum convergence is most
    // sensitive to any reordering.
    let g = generated_graph();
    assert_executors_agree(
        "control/generated",
        CONTROL_PROGRAM,
        &|db: &mut Database| load_facts(&g, db),
    );
    assert_executors_agree(
        "closelink/generated",
        CLOSELINK_PROGRAM,
        &|db: &mut Database| {
            load_facts(&g, db);
            add_threshold(db, 0.2);
        },
    );
}
