//! The aggregate programs' databases, pinned to the bit.
//!
//! Control (`msum(W, <Z>) > 0.5`), close links (`V = msum(...)` over a
//! recursive walk-sum) and family control (two rules sharing one `msum`
//! total per `(F, y)`) run to fixpoint on one generated register. Every
//! relation afterwards is hashed in predicate-id and row-id order, floats
//! through `to_bits`, so the hash pins the row ids as well as the values.
//! The expected hashes were recorded before the aggregate store was
//! rewritten as flat arenas; any change to the order in which totals are
//! updated, or to which fact a round emits first, changes them.

use datalog::{Const, Database, Engine, Program};
use gen::company::{generate, CompanyGraphConfig, GeneratedCompanyGraph};
use vada_link::mapping::{load_for, sym_of};
use vada_link::model::CompanyGraph;
use vada_link::programs::{CLOSELINK_PROGRAM, CONTROL_PROGRAM, FAMILY_CONTROL_PROGRAM};

fn register() -> GeneratedCompanyGraph {
    generate(&CompanyGraphConfig {
        persons: 3_000,
        companies: 1_500,
        seed: 60855,
        ..Default::default()
    })
}

/// FNV-1a over every relation: name, row count, then each cell as a tag
/// byte and its payload bits, rows in row-id order.
fn db_hash(db: &Database) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for p in 0..db.pred_count() as u32 {
        let name = db.pred_name(p);
        let Some(rel) = db.relation(name) else {
            continue;
        };
        eat(name.as_bytes());
        eat(&(rel.len() as u64).to_le_bytes());
        for row in rel.rows() {
            for c in row {
                let (tag, bits) = match *c {
                    Const::Sym(s) => (0u8, u64::from(s)),
                    Const::Int(i) => (1, i as u64),
                    Const::Float(f) => (2, f.to_bits()),
                    Const::Bool(b) => (3, u64::from(b)),
                    Const::Null(n) => (4, n),
                };
                eat(&[tag]);
                eat(&bits.to_le_bytes());
            }
        }
    }
    h
}

fn run(src: &str, prepare: impl FnOnce(&mut Database)) -> u64 {
    let out = register();
    let families: Vec<_> = out.persons.iter().zip(&out.truth.family_of).collect();
    let g = CompanyGraph::new(out.graph);
    let program = Program::parse(src).expect("valid program");
    let engine = Engine::new(&program).expect("compiles");
    let mut db = load_for(&g, &program);
    prepare(&mut db);
    for (&person, family) in families {
        if let (Some(f), true) = (family, src.contains("member(")) {
            let f = db.sym(&format!("fam{f}"));
            let m = sym_of(&mut db, person);
            db.assert_fact("member", &[f, m]).expect("arity");
        }
    }
    engine.run(&mut db).expect("fixpoint");
    db_hash(&db)
}

#[test]
fn control_database_is_bit_pinned() {
    assert_eq!(run(CONTROL_PROGRAM, |_| {}), 0xc3421aa9e5953d16);
}

#[test]
fn close_link_database_is_bit_pinned() {
    let th = |db: &mut Database| {
        db.assert_fact("th", &[Const::float(0.2)]).expect("arity");
    };
    assert_eq!(run(CLOSELINK_PROGRAM, th), 0x2e89a443e00f74e8);
}

#[test]
fn family_control_database_is_bit_pinned() {
    let src = format!("{CONTROL_PROGRAM}\n{FAMILY_CONTROL_PROGRAM}");
    assert_eq!(run(&src, |_| {}), 0xbabe28bfb4fc1bb9);
}
