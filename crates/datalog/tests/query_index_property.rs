//! Property test: `Database::query` through its lookup indexes answers
//! exactly what a scan of the relation answers — the same rows in the
//! same (insertion) order.
//!
//! The oracle is written here, not borrowed from the library: walk
//! `Relation::rows()` and keep the rows equal to the pattern at every
//! bound position. Random scripts interleave three kinds of mutation —
//! `assert_fact` (insert) and `retract_fact` (compacting removal), which
//! carry a built index forward, and an `@post` pass (`replace_all`), which
//! drops it — with lookups binding 0, 1, 2 or all 3 columns, and with
//! clones that are then mutated while the original keeps answering from
//! its own index.
//! The value pool is chosen for the equalities an index could get wrong:
//! `Int(1)` / `Float(1.0)` (equal across types), `0.0` / `-0.0` (not
//! equal), symbols, labelled nulls and a boolean.

use datalog::{Const, Database, Engine, Program};
use proptest::prelude::*;

const PRED: &str = "t";
const ARITY: usize = 3;

/// The constants facts and patterns are drawn from.
fn pool(db: &mut Database) -> Vec<Const> {
    vec![
        Const::Int(0),
        Const::Int(1),
        Const::Float(1.0),
        Const::Float(0.0),
        Const::Float(-0.0),
        Const::Float(0.5),
        Const::Int(2),
        db.sym("a"),
        db.sym("b"),
        Const::Null(0),
        Const::Null(1),
        Const::Bool(true),
    ]
}
const POOL: usize = 12;

/// The scan `Database::query` replaced.
fn scan<'a>(db: &'a Database, pattern: &[Option<Const>]) -> Vec<&'a [Const]> {
    let Some(rel) = db.relation(PRED) else {
        return Vec::new();
    };
    rel.rows()
        .filter(|row| {
            row.len() == pattern.len()
                && row
                    .iter()
                    .zip(pattern)
                    .all(|(c, p)| p.is_none_or(|pc| *c == pc))
        })
        .collect()
}

/// Checks all eight patterns that bind a subset of the columns to
/// `vals` — so each call exercises the all-free scan, every column's
/// index, the probe-and-filter path and the fully bound probe of the
/// dedup map.
fn check(db: &Database, vals: &[Const; ARITY], what: &str) -> Result<(), TestCaseError> {
    for mask in 0u8..(1 << ARITY) {
        let pattern: Vec<Option<Const>> = (0..ARITY)
            .map(|i| (mask & (1 << i) != 0).then_some(vals[i]))
            .collect();
        prop_assert_eq!(
            db.query(PRED, &pattern),
            scan(db, &pattern),
            "{}: pattern {:?}",
            what,
            pattern
        );
    }
    // A pattern of the wrong width matches nothing, whatever it binds.
    prop_assert!(db.query(PRED, &[Some(vals[0])]).is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn indexed_query_equals_a_scan(
        script in prop::collection::vec(
            (0u8..8, (0usize..POOL, 0usize..POOL, 0usize..POOL), (0usize..POOL, 0usize..POOL, 0usize..POOL)),
            1..60,
        ),
    ) {
        // `@post("t", "max(2)")`: per (column 0, column 1) keep the row
        // with the largest column 2 — the engine applies it through
        // `Relation::replace_all`.
        let post = Engine::new(&Program::parse("@post(\"t\", \"max(2)\").").unwrap()).unwrap();
        let mut db = Database::new();
        let pool = pool(&mut db);
        let pick = |(a, b, c): (usize, usize, usize)| [pool[a], pool[b], pool[c]];
        for (step, (op, fact, probe)) in script.into_iter().enumerate() {
            let (fact, probe) = (pick(fact), pick(probe));
            match op {
                // Inserts dominate so relations grow past a handful of rows.
                0..=3 => {
                    db.assert_fact(PRED, &fact).unwrap();
                }
                4 => {
                    // Retract a row that is there (when any is), so the
                    // compaction really runs.
                    let victim = scan(&db, &[Some(fact[0]), None, None])
                        .first()
                        .map(|row| row.to_vec())
                        .unwrap_or_else(|| fact.to_vec());
                    db.retract_fact(PRED, &victim);
                }
                5 => {
                    post.run(&mut db).unwrap();
                }
                6 => {
                    // Mutate a clone that shares the original's indexes;
                    // each side must keep answering for its own contents.
                    check(&db, &probe, "before the clone")?;
                    let mut copy = db.clone();
                    check(&copy, &probe, "fresh clone")?;
                    copy.assert_fact(PRED, &fact).unwrap();
                    copy.retract_fact(PRED, &probe);
                    check(&copy, &probe, "mutated clone")?;
                    check(&copy, &fact, "mutated clone")?;
                    check(&db, &fact, "original after its clone changed")?;
                }
                _ => {
                    // The clone is read first, so the index it builds is
                    // the one the original then mutates away from.
                    let copy = db.clone();
                    check(&copy, &probe, "clone read first")?;
                    db.assert_fact(PRED, &fact).unwrap();
                    check(&copy, &fact, "clone after the original changed")?;
                }
            }
            check(&db, &probe, &format!("step {step}"))?;
            check(&db, &fact, &format!("step {step}"))?;
        }
    }
}
