//! Dependency units and maintenance-mode classification.
//!
//! The close-link program holds two very different components — the
//! order-sensitive `acc_own` aggregation and the pure recursive
//! `close_link` join — and each deserves its own maintenance strategy.
//! The *unit graph* splits a program into the strongly connected
//! components of the predicate dependency graph, topologically ordered,
//! and classifies every unit into one of two strategies, each guaranteed
//! to reproduce a from-scratch run on the post-update database:
//!
//! * [`Mode::DRed`] — pure unit, recursive or not: delete-and-rederive.
//! * [`Mode::Replay`] — order-sensitive unit (monotonic aggregates,
//!   Skolem invention, external calls, `@post` compaction) or a pure unit
//!   that feeds one: its relations are cleared and its rules re-run
//!   through the engine's own stratum loop, which reproduces the baseline
//!   byte-for-byte because its inputs are byte-identical.
//!
//! Replaying one unit on its own is exact because a unit never reads
//! another unit of its stratum: `resolve::compile` puts every
//! cross-component dependency on a new level, so each input of a unit has
//! converged before the unit's stratum starts, in the baseline as in the
//! replay.
//!
//! Classification can also conclude that no incremental strategy is safe
//! ([`UnitGraph::fallback_full`]): a posted predicate with a reader that
//! uses its value column outside a direction-compatible guard is compacted
//! only after a from-scratch run, so that reader sees intermediate
//! aggregate emissions a replay of the compacted unit cannot reproduce.
//! The check is the engine's own (`resolve::reader_is_subsumption_safe`,
//! computed once per posted predicate by `resolve::compile`). Programs
//! that fail it fall back to full recomputation per update — still
//! correct, never wrong.
//!
//! # Partitions
//!
//! A replayed unit need not replay whole. In Algorithm 5,
//! `control(X, Y) :- control(X, Z), own(Z, Y, W), …, msum(W, <Z>) > 0.5`
//! carries `X` unchanged from the body's `control` atom to the head, so
//! the unit's fixpoint is a disjoint union of one fixpoint per `X`, and
//! every aggregate group (the head tuple, less any value column) lies in
//! one of them. [`Partition`] records such a *recursion-invariant* column
//! (`acc_own`'s is its second). A changed input tuple reaches the
//! partitions whose *old* rows can join it ([`Partition::affected`]): if
//! no derivation of partition `x` can use the tuple in the old fixpoint,
//! none can in the new one, round by round, so `x` is unchanged. The
//! session re-derives just the reached partitions through the engine's
//! stratum loop, with exit rules guarded by the partition keys; a
//! partition's rounds, its aggregate contribution order and so its bits
//! are those of a whole-unit replay, since nothing in it reads another
//! partition. Only the relation's row order would depend on the history
//! of replays, so the session keeps a partitioned relation in tuple
//! order, and a unit partitions only when every rule outside it that
//! reads it is pure (order-insensitive: a round's output is canonically
//! sorted).

use crate::analysis::strat::sccs;
use crate::ast::PostOp;
use crate::db::Database;
use crate::error::Result;
use crate::eval::resolve::{rexpr_pure, rterm_pure, CompiledProgram, RLiteral, RRule, RTerm};
use crate::fx::{FxHashMap, FxHashSet};
use crate::value::{Const, Tuple};

use super::bind_head;
use super::delta::PredDelta;

/// Maintenance strategy of one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Delete-and-rederive (pure).
    DRed,
    /// Clear and re-run the unit's rules through the engine.
    Replay,
}

/// One strongly connected component of the predicate dependency graph,
/// with the rules deriving its predicates.
#[derive(Debug)]
pub(crate) struct Unit {
    /// Rule indices (ascending program order).
    pub rules: Vec<usize>,
    /// Head predicates derived by this unit (sorted, deduped).
    pub preds: Vec<u32>,
    /// Positive body predicates read from outside the unit.
    pub pos_inputs: Vec<u32>,
    /// Negated body predicates (always outside the unit — stratified).
    pub neg_inputs: Vec<u32>,
    /// Stratum (negation level) of the unit's predicates.
    pub stratum: usize,
    /// Chosen maintenance strategy.
    pub mode: Mode,
    /// For a replayed unit, the column its fixpoint splits on (see the
    /// module docs, "Partitions").
    pub partition: Option<Partition>,
}

/// A replayed unit of one predicate whose fixpoint is a disjoint union
/// of one fixpoint per value of column `col`.
#[derive(Debug)]
pub(crate) struct Partition {
    /// The unit's predicate.
    pub pred: u32,
    /// The recursion-invariant head column.
    pub col: usize,
    /// The unit's rules, each with its partition variable.
    pub rules: Vec<PartRule>,
}

/// One rule of a partitioned unit.
#[derive(Debug)]
pub(crate) struct PartRule {
    /// Rule index.
    pub rule: usize,
    /// The variable at the partition column of the head — and of every
    /// body atom of the unit's predicate.
    pub key: u32,
    /// For an exit rule (no body atom of the unit's predicate): the body
    /// literal of the first positive atom binding `key`, after which a
    /// partial replay checks the key against the reached partitions.
    pub exit_binder: Option<usize>,
}

impl Partition {
    /// The partition keys the changed inputs can reach, or `None` when
    /// some changed literal's reach cannot be told from its tuple: then
    /// the whole unit replays. A changed tuple that binds its rule's
    /// partition variable reaches that key. Otherwise it reaches the keys
    /// of the rows that can join it in the first positive atom holding
    /// the partition variable and one of the tuple's variables: rows of
    /// the unit's relation as of before the update (`db` holds them
    /// still), or of an input relation before or after it. A tuple with
    /// no such atom gives `None`. A join on one bound column is an index
    /// read, not a scan.
    pub fn affected(
        &self,
        rules: &[RRule],
        changed: &FxHashMap<u32, PredDelta>,
        db: &Database,
    ) -> Option<FxHashSet<Const>> {
        let mut keys = FxHashSet::default();
        // Rows to look for, per (predicate, bound columns, column of the
        // partition variable): the values the bound columns must hold.
        type Probe = (u32, Vec<usize>, usize);
        let mut probes: FxHashMap<Probe, FxHashSet<Tuple>> = FxHashMap::default();
        for pr in &self.rules {
            let rule = &rules[pr.rule];
            for (li, lit) in rule.body.iter().enumerate() {
                let atom = match lit {
                    RLiteral::Atom { atom } | RLiteral::Negated(atom) => atom,
                    _ => continue,
                };
                let Some(delta) = changed.get(&atom.pred) else {
                    continue;
                };
                for t in delta.ins.iter().chain(&delta.del) {
                    let mut binding = vec![None; rule.nvars];
                    if !bind_head(atom, t, &mut binding) {
                        continue;
                    }
                    if let Some(k) = binding[pr.key as usize] {
                        keys.insert(k);
                        continue;
                    }
                    let is_bound =
                        |t: &RTerm| matches!(t, RTerm::Var(v) if binding[*v as usize].is_some());
                    let (join, key_col) = rule.body.iter().enumerate().find_map(|(lj, l)| {
                        let RLiteral::Atom { atom: a } = l else {
                            return None;
                        };
                        let key_col = a
                            .terms
                            .iter()
                            .position(|t| matches!(t, RTerm::Var(v) if *v == pr.key))?;
                        (lj != li && a.terms.iter().any(is_bound)).then_some((a, key_col))
                    })?;
                    let (mut cols, mut vals) = (Vec::new(), Vec::new());
                    for (c, term) in join.terms.iter().enumerate() {
                        let bound = match term {
                            RTerm::Var(v) => binding[*v as usize],
                            RTerm::Const(k) => Some(*k),
                            RTerm::Skolem { .. } => None,
                        };
                        if let Some(k) = bound {
                            cols.push(c);
                            vals.push(k);
                        }
                    }
                    probes
                        .entry((join.pred, cols, key_col))
                        .or_default()
                        .insert(vals.into());
                }
            }
        }
        let mut proj: Vec<Const> = Vec::new();
        for ((pred, cols, key_col), vals) in &probes {
            let rel = &db.relations[*pred as usize];
            let mut reach = |row: &[Const]| {
                proj.clear();
                proj.extend(cols.iter().map(|&c| row[c]));
                if vals.contains(&proj[..]) {
                    keys.insert(row[*key_col]);
                }
            };
            // One bound column reads the relation's lookup index — the
            // one `Database::query` builds and writes keep current, so
            // readers of the serve epochs share it. More columns scan.
            match cols[..] {
                [col] if !rel.is_empty() => {
                    let index = rel.column_index(col);
                    for val in vals {
                        for &row in index.rows_for(val) {
                            reach(rel.row(row));
                        }
                    }
                }
                _ => rel.rows().for_each(&mut reach),
            }
            if let Some(d) = changed.get(pred) {
                d.del.iter().for_each(|t| reach(t));
            }
        }
        Some(keys)
    }
}

/// The partition of a replayed unit, if it has one: a single head
/// predicate, rules that invent nothing (aggregates are fine, Skolem
/// terms and external calls are not: their ids follow evaluation order
/// across the whole unit), a column every rule carries from its body's
/// unit atoms to its head unchanged or, in an exit rule, binds from a
/// positive atom, and no compaction or impure reader that would see
/// across partitions or depend on row order.
fn find_partition(
    unit: &Unit,
    rules: &[RRule],
    posted: &[(u32, String, PostOp)],
    readers_pure: bool,
) -> Option<Partition> {
    if unit.mode != Mode::Replay || unit.preds.len() != 1 || !readers_pure {
        return None;
    }
    let pred = unit.preds[0];
    let invents = |r: &RRule| {
        !r.existentials.is_empty()
            || r.head.iter().any(|h| !h.terms.iter().all(rterm_pure))
            || r.body.iter().any(|l| match l {
                RLiteral::Cond(e) | RLiteral::Let(_, e) => !rexpr_pure(e),
                RLiteral::Agg { agg, kind } => {
                    !rexpr_pure(&agg.expr)
                        || matches!(kind, crate::eval::resolve::AggKind::Cond { rhs, .. } if !rexpr_pure(rhs))
                }
                _ => false,
            })
    };
    let unit_rules: Vec<&RRule> = unit.rules.iter().map(|&ri| &rules[ri]).collect();
    if unit_rules.iter().any(|r| r.head.len() != 1 || invents(r)) {
        return None;
    }
    let arity = unit_rules[0].head[0].terms.len();
    (0..arity).find_map(|col| {
        // A compaction groups by every column but its value column.
        let compacts_across = posted.iter().any(|(p, _, op)| {
            *p == pred && matches!(op, PostOp::MaxBy(c) | PostOp::MinBy(c) if *c == col)
        });
        if compacts_across {
            return None;
        }
        let mut parts = Vec::with_capacity(unit_rules.len());
        for (&ri, rule) in unit.rules.iter().zip(&unit_rules) {
            let RTerm::Var(key) = rule.head[0].terms[col] else {
                return None;
            };
            let is_key = |t: &RTerm| matches!(t, RTerm::Var(v) if *v == key);
            let mut reads_unit = false;
            let mut binder = None;
            for (li, lit) in rule.body.iter().enumerate() {
                match lit {
                    RLiteral::Atom { atom } if atom.pred == pred => {
                        if !is_key(&atom.terms[col]) {
                            return None;
                        }
                        reads_unit = true;
                    }
                    RLiteral::Atom { atom }
                        if binder.is_none() && atom.terms.iter().any(is_key) =>
                    {
                        binder = Some(li);
                    }
                    // The aggregate's own value is not a partition.
                    RLiteral::Agg {
                        kind: crate::eval::resolve::AggKind::Let { var, .. },
                        ..
                    } if *var == key => return None,
                    _ => {}
                }
            }
            if !reads_unit && binder.is_none() {
                return None;
            }
            parts.push(PartRule {
                rule: ri,
                key,
                exit_binder: if reads_unit { None } else { binder },
            });
        }
        Some(Partition {
            pred,
            col,
            rules: parts,
        })
    })
}

impl Unit {
    /// True when any of the given predicate deltas feed this unit.
    pub fn reads_any(&self, changed: &FxHashMap<u32, super::delta::PredDelta>) -> bool {
        self.pos_inputs.iter().any(|p| changed.contains_key(p))
            || self.neg_inputs.iter().any(|p| changed.contains_key(p))
    }

    /// True when a *negated* input changed — maintained units replay
    /// instead of propagating through negation.
    pub fn negated_input_changed(&self, changed: &FxHashMap<u32, super::delta::PredDelta>) -> bool {
        self.neg_inputs.iter().any(|p| changed.contains_key(p))
    }
}

/// The classified unit graph of one program against one database.
#[derive(Debug)]
pub(crate) struct UnitGraph {
    /// Units in evaluation order: ascending stratum, topological within.
    pub units: Vec<Unit>,
    /// Unit index deriving each derived predicate (classification
    /// diagnostics; the sweep itself walks `units` in order).
    #[allow(dead_code)]
    pub unit_of_pred: FxHashMap<u32, usize>,
    /// All derived (head) predicates.
    pub derived: FxHashSet<u32>,
    /// `@post` operations in the order [`crate::Engine::run`] applies
    /// them: auto-compactions first, then explicit directives.
    pub posted: Vec<(u32, String, PostOp)>,
    /// True when the subsumption check failed: incremental maintenance
    /// cannot reproduce a from-scratch run, fall back to recomputing
    /// everything on every update.
    pub fallback_full: bool,
}

/// Builds and classifies the unit graph. `rules` must be resolved against
/// `db` (predicates interned).
pub(crate) fn build_units(
    compiled: &CompiledProgram,
    rules: &[RRule],
    db: &Database,
) -> Result<UnitGraph> {
    // -- derived predicates and the pred-level dependency graph ----------
    let mut derived: FxHashSet<u32> = FxHashSet::default();
    for rule in rules {
        for h in &rule.head {
            derived.insert(h.pred);
        }
    }
    let mut nodes: Vec<u32> = derived.iter().copied().collect();
    nodes.sort_unstable();
    let node_of: FxHashMap<u32, usize> = nodes.iter().enumerate().map(|(i, &p)| (p, i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for rule in rules {
        let heads: Vec<usize> = rule.head.iter().map(|h| node_of[&h.pred]).collect();
        // Conjunctive heads share a unit (they are derived together).
        for i in 1..heads.len() {
            adj[heads[0]].push(heads[i]);
            adj[heads[i]].push(heads[0]);
        }
        for lit in &rule.body {
            let pred = match lit {
                RLiteral::Atom { atom } => atom.pred,
                RLiteral::Negated(a) => a.pred,
                _ => continue,
            };
            if let Some(&b) = node_of.get(&pred) {
                for &h in &heads {
                    adj[b].push(h);
                }
            }
        }
    }
    let comp = sccs(&adj);
    let ncomp = comp.iter().copied().max().map(|c| c + 1).unwrap_or(0);

    // -- group predicates and rules into units ---------------------------
    let mut unit_preds: Vec<Vec<u32>> = vec![Vec::new(); ncomp];
    for (i, &p) in nodes.iter().enumerate() {
        unit_preds[comp[i]].push(p);
    }
    let mut unit_rules: Vec<Vec<usize>> = vec![Vec::new(); ncomp];
    for (ri, rule) in rules.iter().enumerate() {
        let c = comp[node_of[&rule.head[0].pred]];
        debug_assert!(
            rule.head.iter().all(|h| comp[node_of[&h.pred]] == c),
            "conjunctive heads share a component"
        );
        unit_rules[c].push(ri);
    }

    // -- unit-level edges and a deterministic topological order ----------
    let mut uadj: Vec<FxHashSet<usize>> = vec![FxHashSet::default(); ncomp];
    let mut indeg = vec![0usize; ncomp];
    for (c, rs) in unit_rules.iter().enumerate() {
        for &ri in rs {
            for lit in &rules[ri].body {
                let pred = match lit {
                    RLiteral::Atom { atom } => atom.pred,
                    RLiteral::Negated(a) => a.pred,
                    _ => continue,
                };
                if let Some(&b) = node_of.get(&pred) {
                    let from = comp[b];
                    if from != c && uadj[from].insert(c) {
                        indeg[c] += 1;
                    }
                }
            }
        }
    }
    let mut order: Vec<usize> = Vec::with_capacity(ncomp);
    let mut ready: Vec<usize> = (0..ncomp).filter(|&c| indeg[c] == 0).collect();
    ready.sort_unstable_by_key(|&c| std::cmp::Reverse(min_rule(&unit_rules[c])));
    while let Some(c) = ready.pop() {
        order.push(c);
        let mut next: Vec<usize> = Vec::new();
        for &d in &uadj[c] {
            indeg[d] -= 1;
            if indeg[d] == 0 {
                next.push(d);
            }
        }
        ready.extend(next);
        ready.sort_unstable_by_key(|&c| std::cmp::Reverse(min_rule(&unit_rules[c])));
    }
    debug_assert_eq!(order.len(), ncomp, "unit graph must be acyclic");

    // -- assemble units in (stratum, topo) order -------------------------
    let stratum_of = |p: u32| -> usize {
        compiled
            .pred_stratum
            .get(db.pred_name(p))
            .copied()
            .unwrap_or(0)
    };
    // -- posted predicates (auto-compaction, then explicit @post) --------
    let posted: Vec<(u32, String, PostOp)> = compiled
        .posts
        .iter()
        .filter_map(|post| {
            let p = db.find_pred(&post.pred)?;
            Some((p, post.pred.clone(), post.op.clone()))
        })
        .collect();
    let posted_preds: FxHashSet<u32> = posted.iter().map(|(p, _, _)| *p).collect();

    let mut units: Vec<Unit> = Vec::with_capacity(ncomp);
    for &c in &order {
        let preds = {
            let mut ps = unit_preds[c].clone();
            ps.sort_unstable();
            ps
        };
        let pset: FxHashSet<u32> = preds.iter().copied().collect();
        let mut pos_inputs: Vec<u32> = Vec::new();
        let mut neg_inputs: Vec<u32> = Vec::new();
        for &ri in &unit_rules[c] {
            for lit in &rules[ri].body {
                match lit {
                    RLiteral::Atom { atom } if !pset.contains(&atom.pred) => {
                        pos_inputs.push(atom.pred)
                    }
                    RLiteral::Negated(a) => neg_inputs.push(a.pred),
                    _ => {}
                }
            }
        }
        let impure = unit_rules[c].iter().any(|&ri| !rules[ri].pure);
        let is_posted = preds.iter().any(|p| posted_preds.contains(p));
        pos_inputs.sort_unstable();
        pos_inputs.dedup();
        neg_inputs.sort_unstable();
        neg_inputs.dedup();
        units.push(Unit {
            rules: unit_rules[c].clone(),
            stratum: stratum_of(preds[0]),
            preds,
            pos_inputs,
            neg_inputs,
            mode: if impure || is_posted {
                Mode::Replay
            } else {
                Mode::DRed
            },
            partition: None,
        });
    }
    units.sort_by_key(|u| u.stratum); // stable: keeps topo order within
    let unit_of_pred: FxHashMap<u32, usize> = units
        .iter()
        .enumerate()
        .flat_map(|(i, u)| u.preds.iter().map(move |&p| (p, i)))
        .collect();

    // Taint fixpoint: the inputs of a replayed unit must match the
    // baseline byte-for-byte (contents *and* row order) or its aggregate
    // totals can drift by float-accumulation order — so any derived input
    // of a replayed unit is itself replayed.
    loop {
        let mut changed = false;
        for i in 0..units.len() {
            if units[i].mode != Mode::Replay {
                continue;
            }
            let inputs: Vec<u32> = units[i]
                .pos_inputs
                .iter()
                .chain(units[i].neg_inputs.iter())
                .copied()
                .collect();
            for p in inputs {
                if let Some(&j) = unit_of_pred.get(&p) {
                    // Standalone replay sees its inputs' final state; that
                    // is what the baseline saw only if they converged in an
                    // earlier stratum (see the module docs).
                    debug_assert_ne!(
                        units[j].stratum, units[i].stratum,
                        "a replayed unit reads a unit of its own stratum"
                    );
                    if units[j].mode != Mode::Replay {
                        units[j].mode = Mode::Replay;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // -- subsumption check for readers of posted predicates --------------
    // The engine's own compaction timing: a posted predicate with an
    // unsafe reader outside its stratum (its unit — no other unit of the
    // stratum reads it) is exactly one whose intermediate emissions a
    // from-scratch run exposes, which replay of the compacted unit cannot
    // reproduce.
    let fallback_full = compiled.posts.iter().any(|p| p.unsafe_reader.is_some());

    // -- partitions of replayed units ------------------------------------
    for u in units.iter_mut() {
        let readers_pure = rules.iter().enumerate().all(|(ri, rule)| {
            rule.pure
                || u.rules.contains(&ri)
                || !rule.body.iter().any(|lit| match lit {
                    RLiteral::Atom { atom } | RLiteral::Negated(atom) => {
                        u.preds.contains(&atom.pred)
                    }
                    _ => false,
                })
        });
        u.partition = find_partition(u, rules, &posted, readers_pure);
    }

    Ok(UnitGraph {
        units,
        unit_of_pred,
        derived,
        posted,
        fallback_full,
    })
}

fn min_rule(rules: &[usize]) -> usize {
    rules.iter().copied().min().unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Program;
    use crate::eval::resolve::resolve_rules;
    use crate::eval::Engine;

    fn graph_of(src: &str) -> (UnitGraph, Database, Vec<RRule>, Program) {
        let program = Program::parse(src).unwrap();
        let engine = Engine::new(&program).unwrap();
        let mut db = Database::new();
        let rules = resolve_rules(&program, &mut db).unwrap();
        let g = build_units(engine.compiled(), &rules, &db).unwrap();
        (g, db, rules, program)
    }

    fn unit_mode(g: &UnitGraph, db: &Database, pred: &str) -> Mode {
        let p = db.find_pred(pred).unwrap();
        g.units[g.unit_of_pred[&p]].mode
    }

    #[test]
    fn closelink_units_split_aggregate_from_pure_recursion() {
        let (g, db, _, _) = graph_of(
            "acc(X, Y, V) :- own(X, Y, W), X != Y, V = msum(W, <X, Y>).\n\
             acc(X, Y, V) :- own(X, Z, W1), Z != X, acc(Z, Y, W2), Y != X, V = msum(W1 * W2, <Z>).\n\
             cl(X, Y) :- acc(X, Y, V), th(T), V >= T.\n\
             cl(X, Y) :- cl(Y, X).",
        );
        assert!(!g.fallback_full);
        assert_eq!(unit_mode(&g, &db, "acc"), Mode::Replay);
        assert_eq!(unit_mode(&g, &db, "cl"), Mode::DRed);
        // acc (the replayed unit) evaluates before cl.
        let acc = g.unit_of_pred[&db.find_pred("acc").unwrap()];
        let cl = g.unit_of_pred[&db.find_pred("cl").unwrap()];
        assert!(acc < cl);
    }

    #[test]
    fn pure_programs_get_dred_recursive_or_not() {
        let (g, db, _, _) = graph_of(
            "t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).\n\
             summary(X) :- t(X, _), n(X).",
        );
        assert_eq!(unit_mode(&g, &db, "t"), Mode::DRed);
        assert_eq!(unit_mode(&g, &db, "summary"), Mode::DRed);
    }

    #[test]
    fn aggregate_feeder_is_tainted_to_replay() {
        // base is pure and non-recursive, but its row order feeds the
        // aggregate in total — so it must be replayed, not DRed. The
        // negation pushes acc a stratum above base, so this exercises the
        // cross-stratum taint rule rather than intra-stratum coupling.
        let (g, db, _, _) = graph_of(
            "base(X, Y, W) :- e(X, Y, W).\n\
             acc(X, V) :- base(X, _, W), not skip(X), V = msum(W, <X>).",
        );
        assert_eq!(unit_mode(&g, &db, "base"), Mode::Replay);
        assert_eq!(unit_mode(&g, &db, "acc"), Mode::Replay);
        let b = g.unit_of_pred[&db.find_pred("base").unwrap()];
        let a = g.unit_of_pred[&db.find_pred("acc").unwrap()];
        assert!(g.units[b].stratum < g.units[a].stratum);
    }

    #[test]
    fn replayed_aggregate_taints_derived_inputs() {
        // The aggregate reads helper, a derived unit: replay correctness
        // needs helper's contents *and row order* to match the baseline,
        // so the taint escalation replays helper too. Strata split on
        // every cross-component dependency, so helper converges in an
        // earlier stratum than acc and acc replays on its own.
        let (g, db, _, _) = graph_of(
            "helper(X, Y, W) :- e(X, Y, W), own(X).\n\
             acc(X, V) :- helper(X, _, W), V = msum(W, <X>).",
        );
        assert!(
            g.units[g.unit_of_pred[&db.find_pred("helper").unwrap()]].stratum
                < g.units[g.unit_of_pred[&db.find_pred("acc").unwrap()]].stratum
        );
        assert_eq!(unit_mode(&g, &db, "helper"), Mode::Replay);
        assert_eq!(unit_mode(&g, &db, "acc"), Mode::Replay);
    }

    #[test]
    fn downward_guard_on_max_posted_pred_forces_full_fallback() {
        // `V <= T` on a max-posted aggregate: intermediate emissions can
        // fire where the final value does not — no incremental strategy is
        // safe, fall back to full recomputation.
        let (g, _, _, _) = graph_of(
            "acc(X, V) :- own(X, W), V = msum(W, <X>).\n\
             small(X) :- acc(X, V), V <= 0.5.",
        );
        assert!(g.fallback_full);
    }

    #[test]
    fn upward_guard_on_max_posted_pred_is_safe() {
        let (g, _, _, _) = graph_of(
            "acc(X, V) :- own(X, W), V = msum(W, <X>).\n\
             big(X) :- acc(X, V), V >= 0.5.",
        );
        assert!(!g.fallback_full);
    }

    fn partition_of(src: &str, pred: &str) -> Option<usize> {
        let (g, db, _, _) = graph_of(src);
        let p = db.find_pred(pred).unwrap();
        g.units[g.unit_of_pred[&p]]
            .partition
            .as_ref()
            .map(|part| part.col)
    }

    #[test]
    fn paper_aggregates_split_on_their_recursion_invariant_column() {
        let control = "control(X, X) :- company(X).\n\
                       control(X, X) :- person(X).\n\
                       control(X, Y) :- control(X, Z), own(Z, Y, W), Z != Y, X != Y, msum(W, <Z>) > 0.5.";
        assert_eq!(partition_of(control, "control"), Some(0));
        let acc = "acc(X, Y, V) :- own(X, Y, W), X != Y, V = msum(W, <X, Y>).\n\
                   acc(X, Y, V) :- own(X, Z, W1), Z != X, acc(Z, Y, W2), Y != X, V = msum(W1 * W2, <Z>).\n\
                   cl(X, Y) :- acc(X, Y, V), th(T), V >= T.";
        assert_eq!(partition_of(acc, "acc"), Some(1));
        // A pure reader of control keeps it partitioned; the family unit
        // splits on the family.
        let family = format!(
            "{control}\n\
             fcontrol(F, Y) :- member(F, X), control(X, Y), X != Y.\n\
             fcontrol(F, Y) :- fcontrol(F, X), own(X, Y, W), X != Y, msum(W, <X>) > 0.5.\n\
             fcontrol(F, Y) :- member(F, I), own(I, Y, W), msum(W, <I>) > 0.5."
        );
        assert_eq!(partition_of(&family, "control"), Some(0));
        assert_eq!(partition_of(&family, "fcontrol"), Some(0));
    }

    #[test]
    fn units_without_a_safe_split_replay_whole() {
        // No column is carried unchanged: X and Y swap.
        assert_eq!(
            partition_of(
                "s(X, Y, V) :- e(X, Y, W), V = msum(W, <X>).\n\
                 s(Y, X, V) :- s(X, Y, W), e(X, Y, U), V = msum(U, <X>).",
                "s"
            ),
            None
        );
        // An aggregate reads the unit: its contribution order would see
        // the relation's row order, which a partial replay changes.
        assert_eq!(
            partition_of(
                "t(X, Y, V) :- e(X, Y, W), V = msum(W, <Y>).\n\
                 u(X, S) :- t(X, _, V), S = msum(V, <X>).",
                "t"
            ),
            None
        );
        // Skolem ids follow the evaluation order of the whole unit.
        assert_eq!(
            partition_of("l(Z, X, V) :- e(X, W), Z = #mk(X), V = msum(W, <X>).", "l"),
            None
        );
        // A compaction whose value column is the only candidate groups
        // across partitions; one on another column groups within them.
        assert_eq!(
            partition_of("@post(\"b\", \"max(0)\").\nb(X) :- score(X, _).", "b"),
            None
        );
        assert_eq!(
            partition_of("@post(\"b\", \"max(1)\").\nb(X, W) :- score(X, W).", "b"),
            Some(0)
        );
        // Pure units are maintained, not replayed.
        assert_eq!(
            partition_of("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).", "t"),
            None
        );
    }

    #[test]
    fn negation_introduces_separate_strata_units() {
        let (g, db, _, _) = graph_of(
            "reach(Y) :- start(Y). reach(Y) :- reach(X), e(X, Y).\n\
             unreach(X) :- node(X), not reach(X).",
        );
        assert_eq!(unit_mode(&g, &db, "reach"), Mode::DRed);
        assert_eq!(unit_mode(&g, &db, "unreach"), Mode::DRed);
        let ru = g.unit_of_pred[&db.find_pred("reach").unwrap()];
        let uu = g.unit_of_pred[&db.find_pred("unreach").unwrap()];
        assert!(g.units[ru].stratum < g.units[uu].stratum);
        assert_eq!(g.units[uu].neg_inputs.len(), 1);
    }
}
