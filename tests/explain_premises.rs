//! Close-link explanations cite premises that exist and satisfy the rule.
//!
//! Provenance records parents as `(predicate, row)` pointers. A close link
//! derived from `acc_own` must point at `acc_own` rows that are still the
//! rows it was derived from after `acc_own`'s compaction renumbers the
//! relation — the explanation of `close_link(X, Y)` by the
//! common-shareholder rule names two `acc_own` facts with one shareholder
//! `Z`, owning `X` and `Y` at or above the threshold, never some other
//! fact that happens to hold the same row id.

use vada_link_suite::datalog::explain::explain;
use vada_link_suite::datalog::{Const, Database, Engine, EngineOptions, FunctionRegistry, Program};
use vada_link_suite::gen::company::{generate, CompanyGraphConfig};
use vada_link_suite::vada_link::mapping::load_for;
use vada_link_suite::vada_link::model::CompanyGraph;
use vada_link_suite::vada_link::programs::CLOSELINK_PROGRAM;

const THRESHOLD: f64 = 0.2;

/// The fact a provenance parent points at, if its row exists.
fn parent(db: &Database, (pred, row): (u32, u32)) -> Option<(&str, Vec<Const>)> {
    let name = db.pred_name(pred);
    let rel = db.relation(name)?;
    ((row as usize) < rel.len()).then(|| (name, rel.row(row).to_vec()))
}

#[test]
fn close_link_explanations_cite_the_facts_they_were_derived_from() {
    let register = generate(&CompanyGraphConfig {
        persons: 300,
        companies: 150,
        seed: 0xE1A1,
        ..Default::default()
    });
    let g = CompanyGraph::new(register.graph);
    let program = Program::parse(CLOSELINK_PROGRAM).expect("bundled program");
    let options = EngineOptions {
        provenance: true,
        ..EngineOptions::default()
    };
    let engine = Engine::with(&program, FunctionRegistry::default(), options).expect("compiles");
    let mut db = load_for(&g, &program);
    let th = Const::float(THRESHOLD);
    db.assert_fact("th", &[th]).unwrap();
    engine.run(&mut db).expect("fixpoint");

    let rel = db.relation("close_link").expect("derived");
    let at_least_th = |v: Const| v >= th;
    let (mut direct, mut common) = (0usize, 0usize);
    for (row, link) in rel.rows().enumerate() {
        let (x, y) = (link[0], link[1]);
        let prov = rel
            .provenance(row as u32)
            .expect("derived facts carry provenance");
        let facts: Vec<(&str, Vec<Const>)> = prov
            .parents
            .iter()
            .map(|&p| {
                parent(&db, p).unwrap_or_else(|| {
                    panic!("close_link row {row}: premise {p:?} past its relation's end")
                })
            })
            .collect();
        let acc: Vec<&Vec<Const>> = facts
            .iter()
            .filter(|(pred, _)| *pred == "acc_own")
            .map(|(_, t)| t)
            .collect();
        let company = |c: Const| facts.iter().any(|(p, t)| *p == "company" && t[..] == [c]);
        let context = || {
            let rendered = explain(&db, "close_link", link, 1)
                .expect("present")
                .render();
            format!("rule {} for close_link row {row}:\n{rendered}", prov.rule)
        };
        match prov.rule {
            2 => {
                direct += 1;
                assert_eq!(acc.len(), 1, "{}", context());
                let a = acc[0];
                assert!(a[0] == x && a[1] == y, "{}", context());
                assert!(at_least_th(a[2]), "{}", context());
            }
            4 => {
                common += 1;
                assert_eq!(acc.len(), 2, "{}", context());
                let (v, w) = (acc[0], acc[1]);
                assert_eq!(v[0], w[0], "one common shareholder Z: {}", context());
                assert!(v[1] == x && w[1] == y, "{}", context());
                assert!(at_least_th(v[2]) && at_least_th(w[2]), "{}", context());
                assert!(v[0] != x && v[0] != y && x != y, "{}", context());
            }
            _ => continue,
        }
        assert!(company(x) && company(y), "{}", context());
        assert!(
            facts.iter().any(|(p, t)| *p == "th" && t[..] == [th]),
            "{}",
            context()
        );
    }
    assert!(direct > 0, "the register has direct close links");
    assert!(
        common > 0,
        "the register has common-shareholder close links"
    );
}
