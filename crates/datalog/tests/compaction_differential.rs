//! When a posted aggregate is compacted, against a reference that never
//! compacts early.
//!
//! The engine compacts a posted predicate as soon as its stratum
//! converges when every rule outside that stratum reads it in a
//! subsumption-safe way — its value column only in guards pointing the
//! compaction's way — and after the run otherwise. The reference here
//! knows nothing of that rule. Phase 1 runs only the aggregate's rules
//! with `apply_post: false`; phase 2 runs only the reader over those
//! uncompacted rows, again without compaction; then the test applies the
//! compaction itself, keeping the extremal row of each group. Every
//! generated `msum` / `mmax` / `mmin` / `mcount` aggregate, read by every
//! reader shape, must give the same canonical relations as one full
//! `Engine::run` — and the plan report must say the safe shapes were
//! compacted at the end of their stratum, the unsafe ones after the run.

use datalog::{Const, Database, Engine, EngineOptions, FunctionRegistry, Program};

/// SplitMix64: deterministic generation without external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Debug, Clone, Copy)]
enum Func {
    Sum,
    Max,
    Min,
    Count,
}

impl Func {
    const ALL: [Func; 4] = [Func::Sum, Func::Max, Func::Min, Func::Count];

    /// `mmin` is compacted to the minimum, everything else to the maximum.
    fn keeps_max(self) -> bool {
        !matches!(self, Func::Min)
    }

    /// The aggregate's two rules: direct contributions, and contributions
    /// one `link` away, sharing one running value per `X`.
    fn rules(self) -> String {
        let agg = |w: &str, ks: &str| match self {
            Func::Sum => format!("msum({w}, <{ks}>)"),
            Func::Max => format!("mmax({w}, <{ks}>)"),
            Func::Min => format!("mmin({w}, <{ks}>)"),
            Func::Count => format!("mcount(1, <{ks}>)"),
        };
        format!(
            "acc(X, V) :- e(X, Y, W), V = {}.\n\
             acc(X, V) :- link(X, Z), e(Z, Y, W), V = {}.\n",
            agg("W", "Y"),
            agg("W", "Z, Y"),
        )
    }

    /// A threshold inside the range the aggregate's values pass through.
    fn threshold(self, rng: &mut Rng) -> u64 {
        match self {
            Func::Sum => 3 + rng.below(12),
            Func::Max | Func::Min => 1 + rng.below(6),
            Func::Count => 1 + rng.below(5),
        }
    }
}

/// How the reader rule uses `acc`'s value column.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `V op T` with the value variable on the left.
    Guard(&'static str),
    /// The value variable reaches the head.
    ValueInHead,
    /// `acc` under negation.
    Negation,
    /// A constant in the value column.
    Constant,
}

impl Shape {
    const ALL: [Shape; 7] = [
        Shape::Guard(">="),
        Shape::Guard(">"),
        Shape::Guard("<="),
        Shape::Guard("<"),
        Shape::ValueInHead,
        Shape::Negation,
        Shape::Constant,
    ];

    /// Subsumption-safe: a guard pointing the compaction's way.
    fn safe(self, func: Func) -> bool {
        match self {
            Shape::Guard(op) => op.starts_with('>') == func.keeps_max(),
            _ => false,
        }
    }

    fn reader(self, t: u64) -> String {
        match self {
            Shape::Guard(op) => format!("r(X) :- acc(X, V), V {op} {t}.\n"),
            Shape::ValueInHead => "r(X, V) :- acc(X, V).\n".to_owned(),
            Shape::Negation => "r(X, W) :- probe(X, W), not acc(X, W).\n".to_owned(),
            Shape::Constant => format!("r(X) :- acc(X, {t}).\n"),
        }
    }
}

/// A base fact as `(predicate, node ids, optional integer value)`.
type Fact = (&'static str, Vec<u64>, Option<u64>);

/// A random register: weighted `e` edges (repeated pairs included, so a
/// contributor's extremum moves), a few `link` hops, and `probe` values
/// covering every total an aggregate can pass through.
fn facts(rng: &mut Rng) -> Vec<Fact> {
    let nodes = 7;
    let mut out: Vec<Fact> = Vec::new();
    for _ in 0..(10 + rng.below(20)) {
        let (x, y) = (rng.below(nodes), rng.below(nodes));
        out.push(("e", vec![x, y], Some(1 + rng.below(6))));
    }
    for _ in 0..rng.below(6) {
        out.push(("link", vec![rng.below(nodes), rng.below(nodes)], None));
    }
    for x in 0..nodes {
        for v in 1..=16 {
            out.push(("probe", vec![x], Some(v)));
        }
    }
    // Insertion order varies the order aggregates see their inputs in.
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i as u64 + 1) as usize);
    }
    out
}

fn load(facts: &[Fact]) -> Database {
    let mut db = Database::new();
    for (pred, nodes, value) in facts {
        let mut tuple: Vec<Const> = nodes.iter().map(|n| db.sym(&format!("n{n}"))).collect();
        if let Some(v) = value {
            // Weights are floats, except that `probe` carries integers:
            // numeric constants compare across the two.
            tuple.push(if *pred == "probe" {
                Const::Int(*v as i64)
            } else {
                Const::float(*v as f64)
            });
        }
        db.assert_fact(pred, &tuple).unwrap();
    }
    db
}

fn engine(src: &str, apply_post: bool) -> Engine {
    let options = EngineOptions {
        apply_post,
        ..EngineOptions::default()
    };
    Engine::with(
        &Program::parse(src).unwrap(),
        FunctionRegistry::default(),
        options,
    )
    .unwrap()
}

/// The reference: aggregate rules, then the reader over every row they
/// emitted, then the compaction done by hand.
fn two_phase(func: Func, reader: &str, facts: &[Fact]) -> Database {
    let mut db = load(facts);
    engine(&func.rules(), false).run(&mut db).unwrap();
    engine(reader, false).run(&mut db).unwrap();
    let rows: Vec<Vec<Const>> = db
        .relation("acc")
        .map(|rel| rel.rows().map(<[Const]>::to_vec).collect())
        .unwrap_or_default();
    for row in &rows {
        let beaten = rows.iter().any(|other| {
            other[0] == row[0]
                && if func.keeps_max() {
                    other[1] > row[1]
                } else {
                    other[1] < row[1]
                }
        });
        if beaten {
            db.retract_fact("acc", row);
        }
    }
    db
}

#[test]
fn early_compaction_derives_what_the_uncompacted_reference_derives() {
    let mut rng = Rng(0xC0_4AC7);
    for func in Func::ALL {
        for shape in Shape::ALL {
            let mut derived = 0usize;
            for seed in 0..12 {
                let facts = facts(&mut rng);
                let t = func.threshold(&mut rng);
                let reader = shape.reader(t);
                let src = format!("{}{reader}", func.rules());
                let ctx = format!("{func:?} / {shape:?} / seed {seed}:\n{src}");

                let full = engine(&src, true);
                let mut db = load(&facts);
                let report = full.plan_report(&db).unwrap();
                full.run(&mut db).unwrap();
                let reference = two_phase(func, &reader, &facts);
                for pred in ["acc", "r"] {
                    assert_eq!(
                        db.dump_canonical(pred),
                        reference.dump_canonical(pred),
                        "{ctx}\nrelation {pred} differs from the two-phase reference"
                    );
                }
                derived += db.fact_count("r");

                let when = if shape.safe(func) {
                    "acc: compacted when stratum 0 converges"
                } else {
                    "acc: compacted after the run: rule 2 reads its value column \
                     outside a monotone guard"
                };
                assert!(
                    report.lines().any(|l| l == when),
                    "{ctx}\nplan report lacks `{when}`:\n{report}"
                );
            }
            assert!(
                derived > 0,
                "{func:?} / {shape:?}: no seed derived a reader fact"
            );
        }
    }
}
