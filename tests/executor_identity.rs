//! The production executors against the reference oracle, in tier-1.
//!
//! Every other root-level test runs the engine's defaults, so `cargo test
//! -q` would stay green if the planner, the closure chains or the batch
//! tier derived something the unplanned step machine does not. This test
//! evaluates company control and close links on a generated register with
//! both and compares every relation's canonical dump. The per-crate
//! `executor_differential` suites check the stronger byte image (row ids,
//! provenance) on more programs.

use vada_link_suite::datalog::{Const, Database, Engine, EngineOptions, Program};
use vada_link_suite::gen::company::{generate, CompanyGraphConfig};
use vada_link_suite::vada_link::mapping::load_facts;
use vada_link_suite::vada_link::model::CompanyGraph;
use vada_link_suite::vada_link::programs::{CLOSELINK_PROGRAM, CONTROL_PROGRAM};

/// Every relation of `db` after running `src` over `base`, canonically
/// dumped, in predicate-name order.
fn evaluate(src: &str, base: &Database, oracle: bool) -> Vec<(String, Vec<String>)> {
    let program = Program::parse(src).expect("bundled program parses");
    let options = EngineOptions {
        oracle,
        ..EngineOptions::default()
    };
    let engine =
        Engine::with(&program, Default::default(), options).expect("bundled program compiles");
    let mut db = base.clone();
    engine.run(&mut db).expect("fixpoint");
    let mut dump: Vec<(String, Vec<String>)> = (0..db.pred_count() as u32)
        .map(|p| {
            let pred = db.pred_name(p).to_owned();
            let rows = db.dump_canonical(&pred);
            (pred, rows)
        })
        .collect();
    dump.sort();
    dump
}

#[test]
fn production_and_oracle_derive_the_same_register() {
    let out = generate(&CompanyGraphConfig {
        persons: 300,
        companies: 150,
        seed: 0x1DE7,
        ..Default::default()
    });
    let mut base = Database::new();
    load_facts(&CompanyGraph::new(out.graph), &mut base);
    base.assert_fact("th", &[Const::float(0.2)]).expect("arity");

    for (name, src, derived) in [
        ("control", CONTROL_PROGRAM, "control"),
        ("close links", CLOSELINK_PROGRAM, "close_link"),
    ] {
        let production = evaluate(src, &base, false);
        let rows = production
            .iter()
            .find(|(pred, _)| pred == derived)
            .map_or(0, |(_, rows)| rows.len());
        assert!(rows > 0, "{name}: production derived no {derived} fact");
        assert_eq!(
            production,
            evaluate(src, &base, true),
            "{name}: production diverged from the oracle"
        );
    }
}
