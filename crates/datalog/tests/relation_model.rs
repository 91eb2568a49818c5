//! Reference-model property test of the relation store: a relation's rows
//! live in one row-major arena with a dedup index of row ids, and every
//! write — insert, multi-row removal, whole replacement, a write to a
//! copy-on-write clone — must leave it exactly where a plain `Vec` of
//! rows under set semantics would be.
//!
//! Random scripts over one arity from 0 to 3 interleave those writes with
//! hash-index registrations. After every step the relation's rows (bit
//! for bit, in order), its length and `find` of every row and of a random
//! probe are compared with the model, and `check_fresh` compares the
//! dedup index, the hash indexes and any image with a fresh build. The
//! value pool holds the equalities a dedup index could get wrong:
//! `Int(2)` / `Float(2.0)` (one fact; the first representation stays),
//! `0.0` / `-0.0` (two facts), a NaN normalised to `0.0`, and `2^53` /
//! `2^53 + 1` (one hash, two facts).

use datalog::db::testing::{check_fresh, freeze, register, remove, replace_all};
use datalog::{Const, Database};
use proptest::prelude::*;

const PRED: &str = "t";

fn pool(db: &mut Database) -> Vec<Const> {
    vec![
        Const::Int(2),
        Const::Float(2.0),
        Const::Float(0.0),
        Const::Float(-0.0),
        Const::float(f64::NAN),
        Const::Int(1 << 53),
        Const::Int((1 << 53) + 1),
        Const::Int(0),
        db.sym("a"),
        db.sym("b"),
        Const::Null(0),
        Const::Bool(true),
    ]
}
const POOL: usize = 12;

/// Set semantics over a `Vec`: rows in insertion order, a row equal
/// (`==`) to a stored one is not stored again.
#[derive(Clone, Default)]
struct Model {
    rows: Vec<Vec<Const>>,
}

impl Model {
    fn find(&self, t: &[Const]) -> Option<u32> {
        self.rows.iter().position(|r| r[..] == *t).map(|p| p as u32)
    }

    fn insert(&mut self, t: &[Const]) -> bool {
        let new = self.find(t).is_none();
        if new {
            self.rows.push(t.to_vec());
        }
        new
    }

    fn remove(&mut self, del: &[Vec<Const>]) -> usize {
        let before = self.rows.len();
        self.rows.retain(|r| !del.iter().any(|d| d == r));
        before - self.rows.len()
    }

    fn replace_all(&mut self, rows: &[Vec<Const>]) {
        self.rows.clear();
        for r in rows {
            self.insert(r);
        }
    }
}

/// Rows with the representation of every constant (`Int(2)` is not
/// `Float(2.0)` here, nor `0.0` `-0.0`).
fn bits(rows: &[Vec<Const>]) -> Vec<String> {
    rows.iter().map(|r| format!("{r:?}")).collect()
}

fn db_rows(db: &Database) -> Vec<Vec<Const>> {
    db.relation(PRED)
        .map(|rel| rel.rows().map(<[Const]>::to_vec).collect())
        .unwrap_or_default()
}

fn agree(db: &Database, model: &Model, probe: &[Const], at: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(bits(&db_rows(db)), bits(&model.rows), "{}: rows", at);
    let Some(rel) = db.relation(PRED) else {
        prop_assert!(model.rows.is_empty(), "{}: relation missing", at);
        return Ok(());
    };
    prop_assert_eq!(rel.len(), model.rows.len(), "{}: len", at);
    prop_assert_eq!(rel.is_empty(), model.rows.is_empty(), "{}: is_empty", at);
    for (i, r) in model.rows.iter().enumerate() {
        prop_assert_eq!(rel.find(r), Some(i as u32), "{}: find row {}", at, i);
    }
    prop_assert_eq!(rel.find(probe), model.find(probe), "{}: find probe", at);
    check_fresh(db, PRED).map_err(|e| TestCaseError::fail(format!("{at}: {e}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn relation_matches_a_vec_model(
        arity in 0usize..4,
        script in prop::collection::vec(
            (0u8..32, (0usize..POOL, 0usize..POOL, 0usize..POOL), 0usize..1000),
            40..200,
        ),
    ) {
        let mut db = Database::new();
        let pool = pool(&mut db);
        let pick = |(a, b, c): (usize, usize, usize)| -> Vec<Const> {
            [pool[a], pool[b], pool[c]][..arity].to_vec()
        };
        let mut model = Model::default();
        for (step, (op, fact, at)) in script.into_iter().enumerate() {
            let fact = pick(fact);
            let label = format!("arity {arity}, step {step}, op {op}");
            match op {
                0..=15 => {
                    let new = db.assert_fact(PRED, &fact).unwrap();
                    prop_assert_eq!(new, model.insert(&fact), "{}: insert", label);
                }
                16..=21 => {
                    // Up to three stored rows, one of them twice, plus a
                    // fact that may be absent.
                    let mut victims: Vec<Vec<Const>> = (0..at % 4)
                        .filter(|_| !model.rows.is_empty())
                        .map(|k| model.rows[(at * 7 + k * 13) % model.rows.len()].clone())
                        .collect();
                    if let Some(first) = victims.first().cloned() {
                        victims.push(first);
                    }
                    victims.push(fact.clone());
                    let gone = remove(&mut db, PRED, &victims);
                    prop_assert_eq!(gone, model.remove(&victims), "{}: remove", label);
                }
                22 | 23 => {
                    // Every other stored row in reverse, plus the fact
                    // (perhaps a duplicate), as an `@post` pass rewrites.
                    let mut rows: Vec<Vec<Const>> =
                        model.rows.iter().rev().step_by(2).cloned().collect();
                    rows.insert(at % (rows.len() + 1), fact.clone());
                    replace_all(&mut db, PRED, rows.clone());
                    model.replace_all(&rows);
                }
                24 | 25 if arity > 0 => {
                    let mask = (at as u64 % ((1 << arity) - 1)) + 1;
                    register(&mut db, PRED, mask);
                }
                26 if arity > 0 => freeze(&mut db, PRED, &[1]),
                _ => {
                    // A clone taken before a write keeps its rows.
                    let epoch = db.clone();
                    let old = model.clone();
                    if at % 2 == 0 || model.rows.is_empty() {
                        db.assert_fact(PRED, &fact).unwrap();
                        model.insert(&fact);
                    } else {
                        let victim = model.rows[at % model.rows.len()].clone();
                        remove(&mut db, PRED, std::slice::from_ref(&victim));
                        model.remove(&[victim]);
                    }
                    agree(&epoch, &old, &fact, &format!("{label}: clone after the write"))?;
                }
            }
            agree(&db, &model, &fact, &label)?;
        }
    }
}

#[test]
fn equal_constants_are_one_fact_and_the_first_stays() {
    let mut db = Database::new();
    assert!(db
        .assert_fact(PRED, &[Const::Int(2), Const::Float(0.0)])
        .unwrap());
    assert!(!db
        .assert_fact(PRED, &[Const::Float(2.0), Const::Float(0.0)])
        .unwrap());
    assert!(db
        .assert_fact(PRED, &[Const::Int(2), Const::Float(-0.0)])
        .unwrap());
    assert!(!db
        .assert_fact(PRED, &[Const::Int(2), Const::float(f64::NAN)])
        .unwrap());
    let rel = db.relation(PRED).unwrap();
    assert_eq!(rel.len(), 2);
    assert_eq!(format!("{:?}", rel.row(0)), "[Int(2), Float(0.0)]");
    assert_eq!(rel.find(&[Const::Float(2.0), Const::Float(-0.0)]), Some(1));
    check_fresh(&db, PRED).unwrap();
}

#[test]
fn arity_zero_rows_are_counted() {
    let mut db = Database::new();
    assert!(db.assert_fact("z", &[]).unwrap());
    assert!(!db.assert_fact("z", &[]).unwrap());
    let rel = db.relation("z").unwrap();
    assert_eq!((rel.len(), rel.rows().count()), (1, 1));
    assert_eq!(rel.find(&[]), Some(0));
    assert_eq!(db.query("z", &[]).len(), 1);
    assert!(db.retract_fact("z", &[]));
    assert_eq!(db.fact_count("z"), 0);
    check_fresh(&db, "z").unwrap();
}
