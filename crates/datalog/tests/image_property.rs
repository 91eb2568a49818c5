//! Property test: the frozen columnar image, the lookup indexes, the
//! hash indexes and the dedup map a relation carries through its writes
//! always equal a fresh build from its row store.
//!
//! Writes keep those structures current instead of dropping them — an
//! insert puts its row id at the end of its key group, a removal
//! compacts them with the row store's row-id shift — until the elements
//! the inserts since their last build moved pass the upkeep budget, when
//! they are dropped for the next reader to rebuild. Random scripts of a
//! few hundred operations interleave inserts (most of them), multi-row
//! removals, rare whole replacements and clones with freezes over single-
//! and multi-column masks, lookups that build the per-column indexes,
//! and registered hash indexes. Each script starts with all nine CSRs
//! built, so a few dozen inserts in a row cross the budget; most scripts
//! do, some more than once. After every operation each structure is
//! compared with a fresh build (`datalog::db::testing::check_fresh`), and
//! a clone taken before a write must keep its contents and an image equal
//! to a fresh build of them. The value pool holds the equalities a key
//! group could get wrong: `Int(1)` / `Float(1.0)` (equal across types)
//! and `0.0` / `-0.0` (not equal).

use datalog::db::testing::{carried, check_fresh, freeze, register, remove, replace_all};
use datalog::{Const, Database};
use proptest::prelude::*;

const PRED: &str = "t";

/// The constants facts are drawn from.
fn pool(db: &mut Database) -> Vec<Const> {
    vec![
        Const::Int(0),
        Const::Int(1),
        Const::Float(1.0),
        Const::Float(0.0),
        Const::Float(-0.0),
        Const::Int(2),
        db.sym("a"),
        db.sym("b"),
        Const::Null(0),
        Const::Bool(true),
    ]
}
const POOL: usize = 10;

/// The probe shapes a stratum freezes: every single column and every
/// pair of the three.
const MASKS: [u64; 6] = [0b001, 0b010, 0b100, 0b011, 0b101, 0b110];

fn rows(db: &Database) -> Vec<Vec<Const>> {
    db.relation(PRED)
        .map(|rel| rel.rows().map(<[Const]>::to_vec).collect())
        .unwrap_or_default()
}

fn fresh(db: &Database, what: &str) -> Result<(), TestCaseError> {
    check_fresh(db, PRED).map_err(|e| TestCaseError::fail(format!("{what}: {e}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn carried_images_equal_a_fresh_build(
        initial in prop::collection::vec((0usize..POOL, 0usize..POOL, 0usize..POOL), 16..80),
        script in prop::collection::vec(
            (0u8..64, (0usize..POOL, 0usize..POOL, 0usize..POOL), 0usize..1000, 0usize..6),
            150..400,
        ),
    ) {
        let mut db = Database::new();
        let pool = pool(&mut db);
        let pick = |(a, b, c): (usize, usize, usize)| vec![pool[a], pool[b], pool[c]];
        db.assert_facts(PRED, initial.into_iter().map(pick)).unwrap();
        freeze(&mut db, PRED, &MASKS);
        for col in 0..3 {
            let mut pattern = vec![None; 3];
            pattern[col] = Some(pool[1]);
            db.query(PRED, &pattern);
        }
        fresh(&db, "initial freeze")?;
        for (step, (op, fact, at, mask)) in script.into_iter().enumerate() {
            let fact = pick(fact);
            let before = carried(&db, PRED);
            let n = rows(&db).len();
            let wrote = match op {
                // Inserts dominate so that runs of them cross the budget.
                0..=39 => db.assert_fact(PRED, &fact).unwrap(),
                40..=47 => {
                    // One to three present rows from anywhere in the
                    // relation, plus one that may be absent.
                    let all = rows(&db);
                    let mut victims: Vec<Vec<Const>> = (0..1 + at % 3)
                        .filter(|_| !all.is_empty())
                        .map(|k| all[(at * 7 + k * 13) % all.len()].clone())
                        .collect();
                    victims.push(fact.clone());
                    remove(&mut db, PRED, &victims) > 0
                }
                48 if at % 4 == 0 => {
                    // Keep every other row, in reverse, as an `@post`
                    // pass rewrites a relation (rarely: it drops every
                    // structure, and runs of inserts should cross the
                    // budget).
                    let kept = rows(&db).into_iter().rev().step_by(2).collect();
                    replace_all(&mut db, PRED, kept);
                    false
                }
                48..=51 => {
                    freeze(&mut db, PRED, &MASKS[..=mask]);
                    false
                }
                52..=54 => {
                    let mut pattern = vec![None; 3];
                    pattern[mask % 3] = Some(fact[mask % 3]);
                    db.query(PRED, &pattern);
                    false
                }
                55 | 56 => {
                    register(&mut db, PRED, MASKS[mask]);
                    false
                }
                _ => {
                    // A clone taken before a write keeps its rows and an
                    // image that still equals a fresh build of them.
                    let epoch = db.clone();
                    let old = rows(&epoch);
                    let all = rows(&db);
                    if at % 2 == 0 || all.is_empty() {
                        db.assert_fact(PRED, &fact).unwrap();
                    } else {
                        remove(&mut db, PRED, &[all[at % all.len()].clone()]);
                    }
                    prop_assert_eq!(rows(&epoch), old, "step {}: the clone's rows changed", step);
                    prop_assert_eq!(carried(&epoch, PRED), before.clone(), "step {}: the clone's images changed", step);
                    fresh(&epoch, &format!("step {step}: clone after the write"))?;
                    false
                }
            };
            fresh(&db, &format!("step {step}, op {op}"))?;
            // A write to a non-empty relation either carries everything
            // it had or drops it all.
            let after = carried(&db, PRED);
            if wrote && n > 0 && after != before {
                prop_assert_eq!(after, (None, 0), "step {}: a write kept only part", step);
            }
        }
    }
}
