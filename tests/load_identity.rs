//! The input mapping (Algorithm 2) against the loader it replaced.
//!
//! `load_facts` interns each node symbol once and appends each relation
//! in bulk; the reference below is the fact-at-a-time loader of every
//! earlier release, kept here verbatim. A full load must reproduce it to
//! the symbol id, predicate id and row — snapshots and WALs written
//! before still name the same ids — and the demand-driven loads behind
//! the facade must derive exactly what a full load derives.

use vada_link_suite::datalog::{Const, Database, Engine, Program};
use vada_link_suite::gen::company::{generate, CompanyGraphConfig};
use vada_link_suite::pgraph::NodeId;
use vada_link_suite::vada_link::mapping::{load_facts, load_for, read_pairs, SOURCE_PREDICATES};
use vada_link_suite::vada_link::model::CompanyGraph;
use vada_link_suite::vada_link::paper_graphs::figure1;
use vada_link_suite::vada_link::programs::{
    CLOSELINK_PROGRAM, CONTROL_PROGRAM, GENERIC_PIPELINE_PROGRAM, PARTNER_PROGRAM,
};
use vada_link_suite::vada_link::KnowledgeGraph;

const THRESHOLD: f64 = 0.2;

fn graphs() -> Vec<(&'static str, CompanyGraph)> {
    let register = generate(&CompanyGraphConfig {
        persons: 300,
        companies: 150,
        seed: 0x10AD,
        ..Default::default()
    });
    vec![
        ("figure1", figure1().graph),
        ("register", CompanyGraph::new(register.graph)),
    ]
}

/// The loader as it was: one `format!`, intern and `assert_fact` per
/// mention, persons then companies then stakes.
fn reference_load(g: &CompanyGraph, db: &mut Database) {
    let text = |db: &mut Database, n: NodeId, key: &str| db.sym(g.str_prop(n, key).unwrap_or(""));
    for p in g.persons() {
        let id = format!("n{}", p.index());
        let idc = db.sym(&id);
        db.assert_fact("person", &[idc]).unwrap();
        let tuple = [
            db.sym(&id),
            text(db, p, "name"),
            text(db, p, "surname"),
            Const::Int(g.int_prop(p, "birth").unwrap_or(0)),
            text(db, p, "birth_city"),
            text(db, p, "sex"),
            text(db, p, "address"),
        ];
        db.assert_fact("person_attr", &tuple).unwrap();
    }
    for c in g.companies() {
        let id = format!("n{}", c.index());
        let idc = db.sym(&id);
        db.assert_fact("company", &[idc]).unwrap();
        let tuple = [
            db.sym(&id),
            text(db, c, "name"),
            text(db, c, "address"),
            Const::Int(g.int_prop(c, "inc_date").unwrap_or(0)),
            text(db, c, "legal_form"),
            text(db, c, "sector"),
        ];
        db.assert_fact("company_attr", &tuple).unwrap();
    }
    for e in g.share_edges() {
        let (src, dst) = g.graph().endpoints(e);
        let tuple = [
            db.sym(&format!("n{}", src.index())),
            db.sym(&format!("n{}", dst.index())),
            Const::float(g.share(e)),
        ];
        db.assert_fact("own", &tuple).unwrap();
    }
}

fn rows(db: &Database, pred: &str) -> Vec<Vec<Const>> {
    let rel = db.relation(pred).expect("loaded");
    rel.rows().map(<[Const]>::to_vec).collect()
}

#[test]
fn full_load_is_the_fact_at_a_time_load() {
    for (name, g) in graphs() {
        let (mut want, mut got) = (Database::new(), Database::new());
        reference_load(&g, &mut want);
        load_facts(&g, &mut got);
        let symbols = |db: &Database| -> Vec<String> {
            db.symbol_table().iter().map(str::to_owned).collect()
        };
        assert_eq!(symbols(&got), symbols(&want), "{name}: interning order");
        let preds = |db: &Database| -> Vec<String> {
            (0..db.pred_count() as u32)
                .map(|p| db.pred_name(p).to_owned())
                .collect()
        };
        assert_eq!(preds(&got), preds(&want), "{name}: predicate ids");
        for pred in SOURCE_PREDICATES {
            assert!(!rows(&want, pred).is_empty(), "{name}: {pred} is covered");
            assert_eq!(rows(&got, pred), rows(&want, pred), "{name}: {pred} rows");
            assert_eq!(got.dump(pred), want.dump(pred), "{name}: {pred} dump");
        }
    }
}

/// `pred` at the fixpoint of `src` over a full load.
fn pairs_over_a_full_load(g: &CompanyGraph, src: &str, pred: &str) -> Vec<(NodeId, NodeId)> {
    let program = Program::parse(src).expect("bundled program");
    let mut db = Database::new();
    load_facts(g, &mut db);
    db.assert_fact("th", &[Const::float(THRESHOLD)]).unwrap();
    Engine::new(&program)
        .expect("compiles")
        .run(&mut db)
        .expect("fixpoint");
    read_pairs(&db, pred)
}

#[test]
fn the_facade_derives_what_a_full_load_derives() {
    for (name, g) in graphs() {
        let mut kg = KnowledgeGraph::new(g.clone());
        kg.derive_control();
        kg.derive_close_links(THRESHOLD);
        let sorted = |mut pairs: Vec<(NodeId, NodeId)>| {
            pairs.sort_unstable();
            pairs
        };
        let control = pairs_over_a_full_load(&g, CONTROL_PROGRAM, "control");
        assert!(!control.is_empty(), "{name}: control is covered");
        assert_eq!(sorted(kg.control_pairs()), control, "{name}: control");
        let close = pairs_over_a_full_load(&g, CLOSELINK_PROGRAM, "close_link");
        assert!(!close.is_empty(), "{name}: close links are covered");
        assert_eq!(sorted(kg.close_link_pairs()), close, "{name}: close links");

        let mut tracked = KnowledgeGraph::new(g);
        tracked.track_changes(THRESHOLD).expect("sessions open");
        assert_eq!(sorted(tracked.control_pairs()), control, "{name}: tracked");
        assert_eq!(sorted(tracked.close_link_pairs()), close, "{name}: tracked");
    }
}

#[test]
fn explanations_survive_the_reduced_database() {
    let f = figure1();
    let (p1, e) = (f.node("P1"), f.node("E"));
    let mut kg = KnowledgeGraph::new(f.graph).with_provenance();
    kg.derive_control();
    let d = kg.explain_control(p1, e, 5).expect("P1 controls E");
    assert!(!d.premises.is_empty(), "indirect control has premises");
    assert!(d.render().contains("own"), "{}", d.render());
}

#[test]
fn a_program_gets_the_predicates_it_reads() {
    let g = &graphs()[1].1;
    let loaded = |src: &str| {
        let db = load_for(g, &Program::parse(src).expect("bundled program"));
        SOURCE_PREDICATES.map(|pred| db.fact_count(pred))
    };
    let (persons, companies, stakes) = (300, 150, g.share_edges().count());
    // person, person_attr, company, company_attr, own
    assert_eq!(loaded(CONTROL_PROGRAM), [persons, 0, companies, 0, stakes]);
    assert_eq!(loaded(CLOSELINK_PROGRAM), [0, 0, companies, 0, stakes]);
    assert_eq!(loaded(PARTNER_PROGRAM), [0, persons, 0, 0, 0]);
    assert_eq!(
        loaded(GENERIC_PIPELINE_PROGRAM),
        [0, persons, 0, companies, stakes]
    );
}
