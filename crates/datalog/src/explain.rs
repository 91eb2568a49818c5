//! Derivation-tree explanations.
//!
//! One of the paper's headline properties is that VADA-LINK decisions are
//! *explainable and unambiguous* because they come from Datalog semantics.
//! When an [`crate::Engine`] runs with `provenance: true`, every derived
//! fact records the rule and parent facts that first produced it;
//! [`explain`] reconstructs the derivation tree.
//!
//! For facts derived through a monotonic aggregate (`msum(...) > t`), the
//! recorded premises are the body match that pushed the running aggregate
//! past its threshold — one *witness* contributor, not the full contributor
//! set. This matches Vadalog's fact-level provenance granularity; the other
//! contributions can be recovered by explaining the premises recursively.
//!
//! A premise can be an intermediate row that a `@post` compaction removed
//! after the fact was derived from it. Only a reader the compacted
//! relation does not subsume sees such rows: the relation then waits for
//! the end of the run to compact, while every other reader runs after the
//! compaction. The premise renders as a `[compacted]` leaf: its tuple is
//! gone, and citing whichever row now holds its old id would name an
//! unrelated fact.

use crate::db::Database;
use crate::value::Const;

/// A derivation tree node.
#[derive(Debug, Clone, PartialEq)]
pub struct Derivation {
    /// Rendered fact, e.g. `control(p1, c)`.
    pub fact: String,
    /// Index of the rule that derived it (`None` for extensional facts).
    pub rule: Option<u32>,
    /// True for a premise a `@post` compaction removed: `fact` names only
    /// its predicate.
    pub compacted: bool,
    /// Derivations of the parent facts.
    pub premises: Vec<Derivation>,
}

impl Derivation {
    /// Renders the tree with two-space indentation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.fact);
        match self.rule {
            Some(r) => out.push_str(&format!("   [rule {r}]\n")),
            None if self.compacted => out.push_str("   [compacted]\n"),
            None => out.push_str("   [fact]\n"),
        }
        for p in &self.premises {
            p.render_into(out, depth + 1);
        }
    }

    /// Number of nodes in the tree.
    pub fn size(&self) -> usize {
        1 + self.premises.iter().map(Derivation::size).sum::<usize>()
    }
}

fn render_fact(db: &Database, pred: u32, tuple: &[Const]) -> String {
    let args: Vec<String> = tuple.iter().map(|c| db.display(*c)).collect();
    format!("{}({})", db.pred_name(pred), args.join(", "))
}

/// Explains a fact of `pred` matching `tuple`, up to `max_depth` levels.
///
/// Returns `None` if the fact is absent. Requires the engine to have run
/// with provenance enabled; facts without provenance render as leaves.
pub fn explain(db: &Database, pred: &str, tuple: &[Const], max_depth: usize) -> Option<Derivation> {
    let p = db.find_pred(pred)?;
    let rel = &db.relations[p as usize];
    let row = rel.find(tuple)?;
    Some(explain_row(db, p, row, max_depth))
}

fn explain_row(db: &Database, pred: u32, row: u32, depth: usize) -> Derivation {
    let rel = &db.relations[pred as usize];
    // `ProvEntry::COMPACTED`, or any row id the relation no longer has.
    if row as usize >= rel.len() {
        return Derivation {
            fact: format!("{}(…)", db.pred_name(pred)),
            rule: None,
            compacted: true,
            premises: Vec::new(),
        };
    }
    let fact = render_fact(db, pred, rel.row(row));
    let prov = rel.provenance(row);
    Derivation {
        fact,
        rule: prov.map(|p| p.rule),
        compacted: false,
        premises: match prov {
            Some(prov) if depth > 0 => prov
                .parents
                .iter()
                .map(|&(pp, pr)| explain_row(db, pp, pr, depth - 1))
                .collect(),
            _ => Vec::new(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineOptions, FunctionRegistry, Program};

    fn provenance_db() -> Database {
        let program = Program::parse("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).").unwrap();
        let opts = EngineOptions {
            provenance: true,
            ..Default::default()
        };
        let engine = Engine::with(&program, FunctionRegistry::default(), opts).unwrap();
        let mut db = Database::new();
        db.assert_str_facts("e", &[&["a", "b"], &["b", "c"]]);
        engine.run(&mut db).unwrap();
        db
    }

    #[test]
    fn explains_recursive_derivation() {
        let mut db = provenance_db();
        let a = db.sym("a");
        let c = db.sym("c");
        let d = explain(&db, "t", &[a, c], 10).expect("t(a,c) derived");
        assert_eq!(d.rule, Some(1), "derived by the recursive rule");
        assert!(d.fact.starts_with("t(a, c)"));
        // Premises: t(a,b) (rule 0) and e(b,c) (extensional).
        assert_eq!(d.premises.len(), 2);
        let rendered = d.render();
        assert!(rendered.contains("e(a, b)   [fact]"), "{rendered}");
        assert!(rendered.contains("[rule 0]"), "{rendered}");
        assert!(d.size() >= 4);
    }

    #[test]
    fn depth_limit_truncates() {
        let mut db = provenance_db();
        let a = db.sym("a");
        let c = db.sym("c");
        let d = explain(&db, "t", &[a, c], 0).unwrap();
        assert!(d.premises.is_empty());
        assert_eq!(d.rule, Some(1));
    }

    #[test]
    fn absent_fact_is_none() {
        let mut db = provenance_db();
        let a = db.sym("a");
        assert!(explain(&db, "t", &[a, a], 5).is_none());
        assert!(explain(&db, "nosuch", &[a], 5).is_none());
    }

    #[test]
    fn premises_removed_by_a_late_compaction_are_compacted_leaves() {
        // `V <= 0.5` reads acc's value column against the max direction,
        // so acc compacts only after the run, under small's provenance.
        let program = Program::parse(
            "acc(X, V) :- own(X, Y, W), V = msum(W, <Y>).\n\
             small(X) :- acc(X, V), V <= 0.5.",
        )
        .unwrap();
        let opts = EngineOptions {
            provenance: true,
            ..Default::default()
        };
        let engine = Engine::with(&program, FunctionRegistry::default(), opts).unwrap();
        let mut db = Database::new();
        // a's running total passes 0.25 and 0.375 on its way to 0.875;
        // b's only total, 0.375, survives compaction.
        for (x, y, w) in [
            ("a", "p", 0.25),
            ("a", "q", 0.125),
            ("a", "r", 0.5),
            ("b", "p", 0.375),
        ] {
            db.fact("own").sym(x).sym(y).float(w).assert();
        }
        engine.run(&mut db).unwrap();
        assert_eq!(db.dump("acc"), vec!["a,0.875", "b,0.375"]);
        let a = db.sym("a");
        let b = db.sym("b");
        let d = explain(&db, "small", &[a], 5).expect("small(a) derived");
        assert_eq!(d.premises.len(), 1);
        let premise = &d.premises[0];
        assert!(premise.compacted, "{}", d.render());
        assert_eq!(premise.fact, "acc(…)");
        assert!(
            d.render().contains("acc(…)   [compacted]"),
            "{}",
            d.render()
        );
        // A premise whose exact tuple survived follows it to its new row.
        let d = explain(&db, "small", &[b], 5).expect("small(b) derived");
        assert_eq!(d.premises[0].fact, "acc(b, 0.375)");
        assert!(!d.premises[0].compacted);
    }

    #[test]
    fn extensional_facts_are_leaves() {
        let mut db = provenance_db();
        let a = db.sym("a");
        let b = db.sym("b");
        let d = explain(&db, "e", &[a, b], 5).unwrap();
        assert_eq!(d.rule, None);
        assert!(d.premises.is_empty());
    }
}
