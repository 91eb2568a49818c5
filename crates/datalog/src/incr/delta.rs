//! Delta enumeration for DRed-maintained units.
//!
//! The engine's executor evaluates a rule against whole relations, each
//! read as it is. Delete-and-rederive needs other readings of the same
//! relation in one enumeration: one atom pinned to a delta list, the
//! others reading the state before the update, or the surviving state
//! without the facts a rederivation may not use. This module provides a
//! small interpretive enumerator that walks a rule body atom by atom, in
//! its [`RulePlan`]'s order, against explicit per-atom [`RowsView`]s (old
//! state, new state, or a delta list), yielding every distinct binding
//! once. Delete-and-rederive is built on top of it.
//!
//! Views express the states delete-and-rederive needs without
//! materialising them. Physical deltas are applied to relations before the
//! maintained units that read them run, so for an input predicate with
//! delta `(ins, del)` the relation holds the NEW state and:
//!
//! * old state     = `AllMinusPlus(ins_set, del)`
//! * new state     = `All`
//! * the delta     = `List(del)` / `List(ins)`
//!
//! A maintained unit's *own* relations are only touched after its phases
//! complete, so inside DRed the unit predicates read as `All` (old) until
//! the overdeletion is applied; a rederivation reads them as
//! `AllMinus(dead)`, the old rows less the overdeleted facts not yet
//! rederived.

use crate::db::{Database, Relation};
use crate::error::{DatalogError, Result};
use crate::eval::exec::eval_pure_expr;
use crate::eval::resolve::{RAtom, RLiteral, RRule, RTerm};
use crate::fx::FxHashSet;
use crate::value::{Const, Tuple};

/// Net membership change of one predicate: tuples that left and tuples
/// that entered, with set views for O(1) membership tests.
#[derive(Debug, Default, Clone)]
pub(crate) struct PredDelta {
    pub ins: Vec<Tuple>,
    pub ins_set: FxHashSet<Tuple>,
    pub del: Vec<Tuple>,
    pub del_set: FxHashSet<Tuple>,
}

impl PredDelta {
    pub fn push_ins(&mut self, t: Tuple) {
        if self.ins_set.insert(t.clone()) {
            self.ins.push(t);
        }
    }

    pub fn push_del(&mut self, t: Tuple) {
        if self.del_set.insert(t.clone()) {
            self.del.push(t);
        }
    }

    pub fn is_empty(&self) -> bool {
        self.ins.is_empty() && self.del.is_empty()
    }

    /// Delta taking `old_rows` to the current contents of `rel`.
    pub fn from_diff(old_rows: &[Tuple], rel: &Relation) -> Self {
        let old_set: FxHashSet<&[Const]> = old_rows.iter().map(|t| &t[..]).collect();
        let mut d = PredDelta::default();
        for row in rel.rows() {
            if !old_set.contains(row) {
                d.push_ins(Tuple::from(row));
            }
        }
        for t in old_rows {
            if rel.find(t).is_none() {
                d.push_del(t.clone());
            }
        }
        d
    }
}

/// How one positive atom's rows are produced during enumeration.
#[derive(Clone, Copy)]
pub(crate) enum RowsView<'a> {
    /// Every row of the relation.
    All,
    /// Relation rows not in the set.
    AllMinus(&'a FxHashSet<Tuple>),
    /// Relation rows not in the set, then the extra list.
    AllMinusPlus(&'a FxHashSet<Tuple>, &'a [Tuple]),
    /// Exactly the listed tuples.
    List(&'a [Tuple]),
}

/// An evaluation plan for one rule: positive atoms in source order, or,
/// when some variables start bound, first the atoms those variables
/// reach, then each next atom the first that another bound variable
/// reaches, all in source order; every non-atom literal scheduled at the
/// earliest slot where its variables are bound; and the per-atom
/// bound-position mask for index probes.
#[derive(Debug)]
pub(crate) struct RulePlan {
    /// Body literal index of each positive atom, in plan order.
    pub atoms: Vec<usize>,
    /// Predicate of each atom (parallel to `atoms`).
    pub preds: Vec<u32>,
    /// Non-atom literals to evaluate before atom `k` (`slots[k]`) and
    /// after the last atom (`slots[atoms.len()]`).
    pub slots: Vec<Vec<usize>>,
    /// Bound-position mask of each atom given everything scheduled before
    /// it (plus the plan's initial bound set).
    pub masks: Vec<u64>,
}

impl RulePlan {
    /// Builds a plan. `initially_bound` is non-empty only for rederivation
    /// plans, where the head variables are pre-bound: starting from the
    /// atoms the head reaches makes testing one fact a few probes instead
    /// of a scan.
    pub fn build(rule: &RRule, initially_bound: &FxHashSet<u32>) -> Result<RulePlan> {
        let mut unplaced = Vec::new();
        let mut pending: Vec<usize> = Vec::new();
        for (li, lit) in rule.body.iter().enumerate() {
            match lit {
                RLiteral::Atom { .. } => unplaced.push(li),
                RLiteral::Agg { .. } => {
                    return Err(DatalogError::Validation(
                        "aggregate rule in a maintained unit".into(),
                    ))
                }
                _ => pending.push(li),
            }
        }
        let n = unplaced.len();
        let mut atoms = Vec::with_capacity(n);
        let mut preds = Vec::with_capacity(n);
        let mut bound: FxHashSet<u32> = initially_bound.clone();
        let mut slots: Vec<Vec<usize>> = Vec::with_capacity(n + 1);
        let mut masks = Vec::with_capacity(n);
        for slot in 0..=n {
            if slot > 0 {
                if let RLiteral::Atom { atom } = &rule.body[atoms[slot - 1]] {
                    collect_atom_vars(atom, &mut bound);
                }
            }
            let mut here = Vec::new();
            loop {
                let before = here.len();
                pending.retain(|&li| {
                    if lit_ready(&rule.body[li], &bound) {
                        if let RLiteral::Let(v, _) = &rule.body[li] {
                            bound.insert(*v);
                        }
                        here.push(li);
                        false
                    } else {
                        true
                    }
                });
                if here.len() == before {
                    break;
                }
            }
            slots.push(here);
            if slot < n {
                let atom_of = |li: usize| match &rule.body[li] {
                    RLiteral::Atom { atom } => atom,
                    _ => unreachable!(),
                };
                let reached = |li: usize, vars: &FxHashSet<u32>| {
                    atom_of(li)
                        .terms
                        .iter()
                        .any(|t| matches!(t, RTerm::Var(v) if vars.contains(v)))
                };
                let next = if initially_bound.is_empty() {
                    0
                } else {
                    let first = |vars| unplaced.iter().position(|&li| reached(li, vars));
                    first(initially_bound)
                        .or_else(|| first(&bound))
                        .unwrap_or(0)
                };
                let li = unplaced.remove(next);
                let atom = atom_of(li);
                atoms.push(li);
                preds.push(atom.pred);
                let mut mask = 0u64;
                for (i, t) in atom.terms.iter().enumerate() {
                    let is_bound = match t {
                        RTerm::Const(_) => true,
                        RTerm::Var(v) => bound.contains(v),
                        RTerm::Skolem { .. } => {
                            return Err(DatalogError::Validation(
                                "skolem term in a maintained unit".into(),
                            ))
                        }
                    };
                    if is_bound && i < 64 {
                        mask |= 1 << i;
                    }
                }
                masks.push(mask);
            }
        }
        if !pending.is_empty() {
            return Err(DatalogError::Validation(format!(
                "rule {}: body literal depends on variables no atom binds",
                rule.idx
            )));
        }
        Ok(RulePlan {
            atoms,
            preds,
            slots,
            masks,
        })
    }

    /// Registers this plan's probe masks on the relations it reads.
    pub fn register_indexes(&self, rule: &RRule, db: &mut Database) {
        for (k, &li) in self.atoms.iter().enumerate() {
            let RLiteral::Atom { atom } = &rule.body[li] else {
                unreachable!()
            };
            let mask = self.masks[k];
            if mask != 0 && (mask.count_ones() as usize) < atom.terms.len() {
                db.relation_mut(atom.pred).register_index(mask);
            }
        }
    }
}

fn lit_ready(lit: &RLiteral, bound: &FxHashSet<u32>) -> bool {
    let mut vars = Vec::new();
    match lit {
        RLiteral::Negated(a) => {
            for t in &a.terms {
                collect_term_vars(t, &mut vars);
            }
        }
        RLiteral::Cond(e) | RLiteral::Let(_, e) => collect_expr_vars(e, &mut vars),
        RLiteral::Atom { .. } | RLiteral::Agg { .. } => return false,
    }
    vars.iter().all(|v| bound.contains(v))
}

fn collect_atom_vars(atom: &RAtom, out: &mut FxHashSet<u32>) {
    let mut vars = Vec::new();
    for t in &atom.terms {
        collect_term_vars(t, &mut vars);
    }
    out.extend(vars);
}

fn collect_term_vars(t: &RTerm, out: &mut Vec<u32>) {
    match t {
        RTerm::Var(v) => out.push(*v),
        RTerm::Const(_) => {}
        RTerm::Skolem { args, .. } => {
            for a in args {
                collect_term_vars(a, out);
            }
        }
    }
}

fn collect_expr_vars(e: &crate::eval::resolve::RExpr, out: &mut Vec<u32>) {
    use crate::eval::resolve::RExpr;
    match e {
        RExpr::Var(v) => out.push(*v),
        RExpr::Const(_) => {}
        RExpr::Binary(_, a, b) | RExpr::Cmp(_, a, b) => {
            collect_expr_vars(a, out);
            collect_expr_vars(b, out);
        }
        RExpr::Call { args, .. } => {
            for a in args {
                collect_expr_vars(a, out);
            }
        }
    }
}

/// Enumerates every distinct binding of `rule` under the given per-atom
/// views, calling `on_match` once per full match. `on_match` returns
/// `false` to stop early; `enumerate` then returns `Ok(false)`.
///
/// `binding` must be `rule.nvars` long; entries for a rederivation plan's
/// head variables may be pre-set, everything else `None`. It is restored
/// on return.
pub(crate) fn enumerate<F>(
    plan: &RulePlan,
    rule: &RRule,
    db: &Database,
    views: &[RowsView<'_>],
    binding: &mut [Option<Const>],
    on_match: &mut F,
) -> Result<bool>
where
    F: FnMut(&[Option<Const>]) -> bool,
{
    debug_assert_eq!(views.len(), plan.atoms.len());
    walk(plan, rule, db, views, binding, 0, on_match)
}

fn walk<F>(
    plan: &RulePlan,
    rule: &RRule,
    db: &Database,
    views: &[RowsView<'_>],
    binding: &mut [Option<Const>],
    slot: usize,
    on_match: &mut F,
) -> Result<bool>
where
    F: FnMut(&[Option<Const>]) -> bool,
{
    // Non-atom literals scheduled at this slot: filters prune, lets bind.
    let mut let_trail: Vec<u32> = Vec::new();
    let mut pass = true;
    for &li in &plan.slots[slot] {
        match &rule.body[li] {
            RLiteral::Negated(atom) => {
                let tuple: Tuple = atom
                    .terms
                    .iter()
                    .map(|t| term_value(t, binding))
                    .collect::<Result<_>>()?;
                if db.relations[atom.pred as usize].find(&tuple).is_some() {
                    pass = false;
                    break;
                }
            }
            RLiteral::Cond(e) => match eval_pure_expr(e, binding)? {
                Const::Bool(true) => {}
                Const::Bool(false) => {
                    pass = false;
                    break;
                }
                other => {
                    return Err(DatalogError::Function(format!(
                        "condition evaluated to non-boolean {other}"
                    )))
                }
            },
            RLiteral::Let(v, e) => {
                let val = eval_pure_expr(e, binding)?;
                match binding[*v as usize] {
                    Some(existing) => {
                        if existing != val {
                            pass = false;
                            break;
                        }
                    }
                    None => {
                        binding[*v as usize] = Some(val);
                        let_trail.push(*v);
                    }
                }
            }
            _ => unreachable!("only filters and lets are scheduled in slots"),
        }
    }
    let mut keep_going = true;
    if pass {
        if slot == plan.atoms.len() {
            keep_going = on_match(binding);
        } else {
            keep_going = scan_atom(plan, rule, db, views, binding, slot, on_match)?;
        }
    }
    for v in let_trail {
        binding[v as usize] = None;
    }
    Ok(keep_going)
}

fn scan_atom<F>(
    plan: &RulePlan,
    rule: &RRule,
    db: &Database,
    views: &[RowsView<'_>],
    binding: &mut [Option<Const>],
    slot: usize,
    on_match: &mut F,
) -> Result<bool>
where
    F: FnMut(&[Option<Const>]) -> bool,
{
    let RLiteral::Atom { atom } = &rule.body[plan.atoms[slot]] else {
        unreachable!()
    };
    let rel = &db.relations[atom.pred as usize];
    let mask = plan.masks[slot];
    let full_mask = atom.terms.len() < 64 && mask.count_ones() as usize == atom.terms.len();

    let mut try_tuple = |tuple: &[Const], binding: &mut [Option<Const>]| -> Result<bool> {
        let mut trail: Vec<u32> = Vec::new();
        let ok = unify(atom, tuple, binding, &mut trail);
        let keep = if ok {
            walk(plan, rule, db, views, binding, slot + 1, on_match)?
        } else {
            true
        };
        for v in trail {
            binding[v as usize] = None;
        }
        Ok(keep)
    };

    match views[slot] {
        RowsView::List(list) => {
            for t in list {
                if !try_tuple(t, binding)? {
                    return Ok(false);
                }
            }
        }
        RowsView::All | RowsView::AllMinus(_) | RowsView::AllMinusPlus(..) => {
            let minus: Option<&FxHashSet<Tuple>> = match views[slot] {
                RowsView::AllMinus(s) | RowsView::AllMinusPlus(s, _) => Some(s),
                _ => None,
            };
            let skip = |t: &[Const]| minus.is_some_and(|s| s.contains(t));
            if mask != 0 {
                // All masked positions are bound: probe (or point lookup).
                let key: Tuple = {
                    let mut k = Vec::with_capacity(mask.count_ones() as usize);
                    for (i, t) in atom.terms.iter().enumerate() {
                        if mask & (1 << i) != 0 {
                            k.push(term_value(t, binding)?);
                        }
                    }
                    k.into()
                };
                if full_mask {
                    if rel.find(&key).is_some() && !skip(&key) && !try_tuple(&key, binding)? {
                        return Ok(false);
                    }
                } else {
                    for &row in rel.probe(mask, &key) {
                        let t = rel.row(row);
                        if !skip(t) && !try_tuple(t, binding)? {
                            return Ok(false);
                        }
                    }
                }
            } else {
                for row in 0..rel.len() as u32 {
                    let t = rel.row(row);
                    if !skip(t) && !try_tuple(t, binding)? {
                        return Ok(false);
                    }
                }
            }
            if let RowsView::AllMinusPlus(_, plus) = views[slot] {
                for t in plus {
                    if !try_tuple(t, binding)? {
                        return Ok(false);
                    }
                }
            }
        }
    }
    Ok(true)
}

fn unify(
    atom: &RAtom,
    tuple: &[Const],
    binding: &mut [Option<Const>],
    trail: &mut Vec<u32>,
) -> bool {
    if atom.terms.len() != tuple.len() {
        return false;
    }
    for (t, &c) in atom.terms.iter().zip(tuple.iter()) {
        match t {
            RTerm::Const(k) => {
                if *k != c {
                    return false;
                }
            }
            RTerm::Var(v) => match binding[*v as usize] {
                Some(existing) => {
                    if existing != c {
                        return false;
                    }
                }
                None => {
                    binding[*v as usize] = Some(c);
                    trail.push(*v);
                }
            },
            RTerm::Skolem { .. } => return false,
        }
    }
    true
}

fn term_value(t: &RTerm, binding: &[Option<Const>]) -> Result<Const> {
    match t {
        RTerm::Const(c) => Ok(*c),
        RTerm::Var(v) => binding[*v as usize].ok_or_else(|| {
            DatalogError::Validation("unbound variable during delta enumeration".into())
        }),
        RTerm::Skolem { .. } => Err(DatalogError::Validation(
            "skolem term in a maintained unit".into(),
        )),
    }
}

/// Instantiates a head atom under a full binding.
pub(crate) fn head_tuple(atom: &RAtom, binding: &[Option<Const>]) -> Result<Tuple> {
    atom.terms.iter().map(|t| term_value(t, binding)).collect()
}
