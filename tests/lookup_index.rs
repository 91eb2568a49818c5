//! Point lookups through the read path the server uses.
//!
//! `goal_matches` answers a bound goal from the lookup indexes under
//! `Database::query`; `dump_canonical` walks the whole relation and never
//! touches an index. On a generated register at the control fixpoint the
//! two must agree for every node, in both directions and fully bound —
//! before an incremental update, after it and after undoing it (the
//! update's inserts, then the undo's removals, must each have dropped
//! the indexes built before them), and on a snapshot taken in between
//! (which must keep answering the state it was cloned from).

use vada_link_suite::datalog::{goal_matches, Database, IncrementalEngine, Program, Query};
use vada_link_suite::gen::company::{generate, CompanyGraphConfig};
use vada_link_suite::vada_link::mapping::load_facts;
use vada_link_suite::vada_link::model::CompanyGraph;
use vada_link_suite::vada_link::programs::CONTROL_PROGRAM;

/// The `control` pairs of `db`, read without any index.
fn control_pairs(db: &Database) -> Vec<(String, String)> {
    db.dump_canonical("control")
        .iter()
        .map(|row| {
            let (x, y) = row.split_once(',').expect("control is binary");
            (x.to_owned(), y.to_owned())
        })
        .collect()
}

/// Checks every node's forward and backward goal, and a fully bound goal
/// per node (present or absent), against the filtered dump.
fn assert_lookups_match_the_dump(db: &Database, names: &[String], when: &str) {
    let pairs = control_pairs(db);
    let expect = |keep: &dyn Fn(&(String, String)) -> bool| {
        let mut rows: Vec<String> = pairs
            .iter()
            .filter(|p| keep(p))
            .map(|(x, y)| format!("control({x}, {y})"))
            .collect();
        rows.sort();
        rows
    };
    let ask = |goal: String| goal_matches(db, &Query::parse(&goal).expect("goal parses"));
    for (i, n) in names.iter().enumerate() {
        let m = &names[(i * 31 + 7) % names.len()];
        assert_eq!(
            ask(format!("control(\"{n}\", X)?")),
            expect(&|(x, _)| x == n),
            "{when}: what {n} controls"
        );
        assert_eq!(
            ask(format!("control(X, \"{n}\")?")),
            expect(&|(_, y)| y == n),
            "{when}: who controls {n}"
        );
        assert_eq!(
            ask(format!("control(\"{m}\", \"{n}\")?")),
            expect(&|(x, y)| x == m && y == n),
            "{when}: whether {m} controls {n}"
        );
    }
    assert_eq!(ask("control(X, Y)?".into()), expect(&|_| true), "{when}");
    assert!(ask("control(\"nobody\", X)?".into()).is_empty(), "{when}");
}

#[test]
fn bound_goals_match_the_filtered_fixpoint_across_an_update() {
    let out = generate(&CompanyGraphConfig {
        persons: 300,
        companies: 150,
        seed: 0x100C,
        ..Default::default()
    });
    let names: Vec<String> = (out.persons.iter().chain(&out.companies))
        .map(|n| format!("n{}", n.index()))
        .collect();
    let mut db = Database::new();
    load_facts(&CompanyGraph::new(out.graph), &mut db);
    let program = Program::parse(CONTROL_PROGRAM).expect("bundled program parses");
    let mut session = IncrementalEngine::new(&program, db).expect("initial fixpoint");

    let before = control_pairs(session.db());
    assert!(
        before.len() > names.len(),
        "control beyond the reflexive pairs"
    );
    assert_lookups_match_the_dump(session.db(), &names, "at the fixpoint");

    // A person who controls only themselves buys 90 % of a company that
    // itself controls others: the raider's control facts are inserted
    // into the relation the lookups above indexed.
    let holdings = |x: &str| before.iter().filter(|(a, _)| a == x).count();
    let raider = names[..300]
        .iter()
        .find(|p| holdings(p) == 1)
        .expect("a person without holdings");
    let target = names[300..]
        .iter()
        .find(|c| holdings(c) > 1)
        .expect("a company with subsidiaries");
    let apply = |session: &mut IncrementalEngine, delta: String| {
        let update = session.parse_update(&delta).expect("update parses");
        session.apply_update(&update).expect("update applies")
    };
    let changes = apply(&mut session, format!("+own({raider},{target},0.9)"));
    assert!(
        changes.inserted.iter().any(|(p, _)| p == "control"),
        "the takeover derives control facts"
    );
    let after = control_pairs(session.db());
    assert!(after.len() > before.len());
    assert!(after.contains(&(raider.clone(), target.clone())));
    assert_lookups_match_the_dump(session.db(), &names, "after the takeover");

    // Selling again removes them: the compacting removal renumbers rows,
    // so a stale index would answer with the wrong ones.
    let snapshot = session.db().clone();
    let changes = apply(&mut session, format!("-own({raider},{target},0.9)"));
    assert!(changes.deleted.iter().any(|(p, _)| p == "control"));
    assert_eq!(control_pairs(session.db()), before);
    assert_lookups_match_the_dump(session.db(), &names, "after the sale");
    assert_eq!(control_pairs(&snapshot), after);
    assert_lookups_match_the_dump(&snapshot, &names, "on the snapshot in between");
}
