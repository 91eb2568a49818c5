//! Compiled plan execution: each cost-planned rule is lowered once per
//! stratum into a chain of specialized closures — the compile-once /
//! dispatch-many idiom — so the fixpoint inner loop runs pre-resolved
//! column offsets, pre-built probe keys and monomorphized
//! probe/scan/filter/let/agg stages instead of re-interpreting
//! [`Step`](crate::eval::plan::Step) variants per tuple.
//!
//! The byte-identity contract with the interpreted executor
//! ([`crate::eval::exec`]) is absolute: a compiled stage enumerates the
//! same rows in the same order, mutates the evaluation context in the
//! same sequence (Skolem invention, aggregate contributions, symbol
//! interning), and fails with the same error strings. Differential suites
//! enforce this over every bundled program.
//!
//! What compilation buys over interpretation:
//!
//! * **No step dispatch.** Each stage is one indirect call that already
//!   knows its kind; there is no per-row `match` on step variants and no
//!   slice indexing into a step list.
//! * **Check elision.** Rows produced by an index probe or a full-key
//!   find already satisfy every masked column (`tuple[i] == key[i]` by
//!   construction), so a compiled atom stage runs only the ops at
//!   *unmasked* columns — the binds plus within-atom repeat checks. A
//!   full-key find runs no ops at all.
//! * **Pre-built keys.** Probe keys made only of constants are
//!   materialized at compile time instead of rebuilt per visit.
//! * **Expression lowering.** Conditions and lets with the common
//!   `var ⟨cmp⟩ var` / `var ⟨op⟩ const` shapes skip the recursive
//!   [`RExpr`] walk; everything else falls back to the shared
//!   interpreter so the two paths cannot drift.
//! * **Columnar access.** Atoms over relations frozen to the columnar
//!   layout ([`crate::db::Columnar`]) read per-column strips instead of
//!   dereferencing one `Arc<[Const]>` per row, and single-column probes
//!   go through the CSR adjacency lists.

use crate::ast::{AggFunc, BinOp, CmpOp};
use crate::db::{ProvEntry, Relations, SkolemTable};
use crate::error::{DatalogError, Result};
use crate::eval::batch;
use crate::eval::exec::{arith, compare, eval_expr, RunCtx};
use crate::eval::plan::{KeyOp, RulePlan, RulePlans, Step, TermOp};
use crate::eval::resolve::{AggKind, RAgg, RAtom, RExpr, RRule, RTerm};
use crate::index::row_hash;
use crate::value::Const;

/// One compiled stage: consumes the current [`Frame`], enumerates its
/// matches (or applies its filter) and calls the next stage it owns.
type Stage = Box<dyn for<'r, 'b, 'c> Fn(&mut Frame<'r, 'b, 'c>) -> Result<()>>;

/// Funnel that forces closures into the higher-ranked [`Stage`] signature.
fn stage<F>(f: F) -> Stage
where
    F: for<'r, 'b, 'c> Fn(&mut Frame<'r, 'b, 'c>) -> Result<()> + 'static,
{
    Box::new(f)
}

/// Per-evaluation state threaded through a compiled chain. The scratch
/// buffers are borrowed from the context's [`Workspace`]
/// (`crate::eval::exec::Workspace`) for the duration of one rule
/// evaluation, exactly as the interpreted executor does.
pub(crate) struct Frame<'r, 'b, 'c> {
    relations: &'r Relations,
    /// First delta row for the delta-tagged atom stage (0 on naive plans).
    delta_start: u32,
    binding: Vec<Option<Const>>,
    support: Vec<(u32, u32)>,
    key_buf: Vec<Const>,
    tuple_buf: Vec<Const>,
    group_buf: Vec<Const>,
    ctx: &'c mut RunCtx<'b>,
}

/// A rule plan lowered to a closure chain, plus (for naive plans in
/// the batch subset) the vectorized lowering of the same plan.
pub(crate) struct CompiledRule {
    entry: Stage,
    nvars: usize,
    n_support: usize,
    /// Batch-at-a-time lowering; taken instead of `entry` when batch
    /// execution is enabled, provenance is off, and the plan's inputs
    /// are frozen columnar (see [`batch::ready`]).
    batch: Option<batch::BatchPlan>,
}

/// Compiled naive + per-delta-literal plans for one rule, parallel to
/// [`RulePlans`].
pub(crate) struct CompiledRulePlans {
    pub naive: CompiledRule,
    /// One compiled plan per positive body literal, aligned with
    /// `RRule::positive_literals`.
    pub delta: Vec<CompiledRule>,
}

/// Lowers every planned rule of a stratum. The result is indexed by rule
/// index like `plans` itself (entries outside the stratum stay `None`).
pub(crate) fn compile_stratum(
    rules: &[RRule],
    plans: &[Option<RulePlans>],
) -> Vec<Option<CompiledRulePlans>> {
    plans
        .iter()
        .enumerate()
        .map(|(ri, rp)| {
            rp.as_ref().map(|rp| {
                let rule = &rules[ri];
                CompiledRulePlans {
                    naive: compile_plan(rule, &rp.naive, None),
                    delta: rule
                        .positive_literals
                        .iter()
                        .zip(rp.delta.iter())
                        .map(|(&li, p)| compile_plan(rule, p, Some(li)))
                        .collect(),
                }
            })
        })
        .collect()
}

/// Evaluates one compiled rule against `relations`, mirroring
/// [`eval_rule`](crate::eval::exec::eval_rule): `delta_start` is the first
/// delta row when this is a delta plan (pass 0 for naive).
pub(crate) fn eval_compiled(
    cr: &CompiledRule,
    relations: &Relations,
    delta_start: u32,
    ctx: &mut RunCtx<'_>,
) -> Result<()> {
    if !ctx.provenance {
        if let Some(bp) = &cr.batch {
            if batch::ready(bp, relations) {
                return batch::eval_batch(bp, relations, ctx);
            }
        }
    }
    let mut binding = std::mem::take(&mut ctx.ws.binding);
    binding.clear();
    binding.resize(cr.nvars, None);
    let mut support = std::mem::take(&mut ctx.ws.support);
    support.clear();
    support.resize(cr.n_support, (0, 0));
    let key_buf = std::mem::take(&mut ctx.ws.key_buf);
    let tuple_buf = std::mem::take(&mut ctx.ws.tuple_buf);
    let group_buf = std::mem::take(&mut ctx.ws.group_buf);
    let mut f = Frame {
        relations,
        delta_start,
        binding,
        support,
        key_buf,
        tuple_buf,
        group_buf,
        ctx,
    };
    let result = (cr.entry)(&mut f);
    let Frame {
        binding,
        support,
        key_buf,
        tuple_buf,
        group_buf,
        ctx,
        ..
    } = f;
    ctx.ws.binding = binding;
    ctx.ws.support = support;
    ctx.ws.key_buf = key_buf;
    ctx.ws.tuple_buf = tuple_buf;
    ctx.ws.group_buf = group_buf;
    result
}

fn compile_plan(rule: &RRule, plan: &RulePlan, delta_li: Option<usize>) -> CompiledRule {
    let mut next = make_emit(rule);
    for step in plan.steps.iter().rev() {
        next = match step {
            Step::Atom(a) => {
                let data = AtomData::lower(a, delta_li == Some(a.lit));
                make_atom(data, next)
            }
            Step::Negated(li) => {
                let crate::eval::resolve::RLiteral::Negated(atom) = &rule.body[*li] else {
                    unreachable!("Negated step points at a negated literal")
                };
                make_negated(atom.clone(), next)
            }
            Step::Cond(li) => {
                let crate::eval::resolve::RLiteral::Cond(e) = &rule.body[*li] else {
                    unreachable!("Cond step points at a condition literal")
                };
                make_cond(lower_expr(e), next)
            }
            Step::Let(li) => {
                let crate::eval::resolve::RLiteral::Let(v, e) = &rule.body[*li] else {
                    unreachable!("Let step points at a let literal")
                };
                make_let(*v, lower_expr(e), next)
            }
            // Aggregates are terminal: the interpreted executor never
            // descends past them either, so the chained tail is dropped.
            Step::Agg(li) => {
                let crate::eval::resolve::RLiteral::Agg { agg, kind } = &rule.body[*li] else {
                    unreachable!("Agg step points at an aggregate literal")
                };
                make_agg(rule, agg.clone(), kind.clone())
            }
        };
    }
    CompiledRule {
        entry: next,
        nvars: rule.nvars,
        n_support: plan.n_support,
        // Only naive plans lower to batch form: delta plans read only
        // the rows the last round wrote, a range the batch form does not
        // take.
        batch: if delta_li.is_none() {
            batch::lower(rule, plan)
        } else {
            None
        },
    }
}

// ---------------------------------------------------------------------------
// Atom stages
// ---------------------------------------------------------------------------

/// Probe-key construction, resolved at compile time when possible.
enum KeyPlan {
    /// Unmasked atom: full scan, no key.
    None,
    /// All key components are constants — built once, here.
    Pre(Box<[Const]>),
    /// At least one component reads a binding at run time.
    Dyn(Box<[KeyOp]>),
}

/// Everything an atom stage needs, pre-resolved from its [`AtomStep`]
/// (`crate::eval::plan::AtomStep`).
struct AtomData {
    pred: u32,
    mask: u64,
    full_key: bool,
    key: KeyPlan,
    /// Unification ops at *unmasked* columns only, with their column
    /// offsets. Masked columns are guaranteed by the probe/find row
    /// source (check elision).
    ops: Box<[(usize, TermOp)]>,
    binds: Box<[u32]>,
    support_slot: usize,
    /// Whether the semi-naive delta restriction applies to this atom.
    is_delta: bool,
}

impl AtomData {
    fn lower(a: &crate::eval::plan::AtomStep, is_delta: bool) -> AtomData {
        let key = if a.mask == 0 {
            KeyPlan::None
        } else if a.key_ops.iter().all(|k| matches!(k, KeyOp::Const(_))) {
            KeyPlan::Pre(
                a.key_ops
                    .iter()
                    .map(|k| match k {
                        KeyOp::Const(c) => *c,
                        KeyOp::Var(_) => unreachable!("checked all-const"),
                    })
                    .collect(),
            )
        } else {
            KeyPlan::Dyn(a.key_ops.clone().into_boxed_slice())
        };
        // Check elision: rows from a probe or find already match
        // every masked column, so only unmasked ops remain. The planner
        // sets mask bits exactly on CheckConst and bound-var CheckVar
        // positions, so what survives is Binds plus within-atom repeats.
        let ops: Box<[(usize, TermOp)]> = a
            .ops
            .iter()
            .enumerate()
            .filter(|(i, _)| a.mask & (1u64 << i) == 0)
            .map(|(i, op)| (i, op.clone()))
            .collect();
        AtomData {
            pred: a.pred,
            mask: a.mask,
            full_key: a.full_key(),
            key,
            ops,
            binds: a.binds.clone().into_boxed_slice(),
            support_slot: a.support_slot,
            is_delta,
        }
    }
}

/// Runs the (already elided) unification ops for one row, reading column
/// values through `read`. Returns whether the row matches.
#[inline]
fn run_ops(
    ops: &[(usize, TermOp)],
    binding: &mut [Option<Const>],
    read: impl Fn(usize) -> Const,
) -> bool {
    for (col, op) in ops {
        let v = read(*col);
        match op {
            TermOp::CheckConst(c) => {
                if *c != v {
                    return false;
                }
            }
            TermOp::CheckVar(var) => {
                if binding[*var as usize] != Some(v) {
                    return false;
                }
            }
            TermOp::Bind(var) => binding[*var as usize] = Some(v),
        }
    }
    true
}

/// Visits one candidate row: unify, set the support slot, descend, undo.
#[inline]
fn visit_row(a: &AtomData, next: &Stage, f: &mut Frame<'_, '_, '_>, row: u32) -> Result<()> {
    let relations = f.relations;
    let rel = &relations[a.pred as usize];
    let ok = match rel.columnar() {
        Some(c) => run_ops(&a.ops, &mut f.binding, |col| c.col(col)[row as usize]),
        None => {
            let tuple = rel.row(row);
            run_ops(&a.ops, &mut f.binding, |col| tuple[col])
        }
    };
    let result = if ok {
        f.support[a.support_slot] = (a.pred, row);
        next(f)
    } else {
        Ok(())
    };
    // Undo is statically known: exactly the vars this atom binds.
    for v in a.binds.iter() {
        f.binding[*v as usize] = None;
    }
    result
}

fn make_atom(a: AtomData, next: Stage) -> Stage {
    stage(move |f| {
        let relations = f.relations;
        let rel = &relations[a.pred as usize];
        let start = if a.is_delta { f.delta_start } else { 0 };
        match &a.key {
            KeyPlan::None => {
                for row in start..rel.len() as u32 {
                    visit_row(&a, &next, f, row)?;
                }
            }
            KeyPlan::Pre(key) => {
                if a.full_key {
                    // In mask-bit order a full key IS the tuple.
                    if let Some(row) = rel.find(key) {
                        if row >= start {
                            visit_row(&a, &next, f, row)?;
                        }
                    }
                } else {
                    let rows = rel.lookup_rows(a.mask, key);
                    for &row in rows {
                        if row < start {
                            continue;
                        }
                        visit_row(&a, &next, f, row)?;
                    }
                }
            }
            KeyPlan::Dyn(key_ops) => {
                f.key_buf.clear();
                for k in key_ops.iter() {
                    f.key_buf.push(match k {
                        KeyOp::Const(c) => *c,
                        KeyOp::Var(v) => {
                            f.binding[*v as usize].expect("masked position must be bound")
                        }
                    });
                }
                // The probe key is consumed before descending, so reusing
                // `key_buf` across recursion levels is safe.
                if a.full_key {
                    if let Some(row) = rel.find(&f.key_buf) {
                        if row >= start {
                            visit_row(&a, &next, f, row)?;
                        }
                    }
                } else {
                    let rows = rel.lookup_rows(a.mask, &f.key_buf);
                    for &row in rows {
                        if row < start {
                            continue;
                        }
                        visit_row(&a, &next, f, row)?;
                    }
                }
            }
        }
        Ok(())
    })
}

// ---------------------------------------------------------------------------
// Filter stages
// ---------------------------------------------------------------------------

fn make_negated(atom: RAtom, next: Stage) -> Stage {
    stage(move |f| {
        f.tuple_buf.clear();
        for term in &atom.terms {
            let v = term_value(term, &f.binding, f.ctx.skolems)?;
            f.tuple_buf.push(v);
        }
        if f.relations[atom.pred as usize].find(&f.tuple_buf).is_none() {
            next(f)
        } else {
            Ok(())
        }
    })
}

fn make_cond(e: CExpr, next: Stage) -> Stage {
    // Lowered comparisons are boolean by construction; only the general
    // path needs the non-boolean guard.
    match e {
        CExpr::CmpVV(op, a, b) => stage(move |f| {
            let av = var_value(a, &f.binding)?;
            let bv = var_value(b, &f.binding)?;
            if compare(op, av, bv) {
                next(f)
            } else {
                Ok(())
            }
        }),
        CExpr::CmpVC(op, a, c) => stage(move |f| {
            let av = var_value(a, &f.binding)?;
            if compare(op, av, c) {
                next(f)
            } else {
                Ok(())
            }
        }),
        CExpr::CmpCV(op, c, b) => stage(move |f| {
            let bv = var_value(b, &f.binding)?;
            if compare(op, c, bv) {
                next(f)
            } else {
                Ok(())
            }
        }),
        e => stage(move |f| match eval_cexpr(&e, f)? {
            Const::Bool(true) => next(f),
            Const::Bool(false) => Ok(()),
            other => Err(DatalogError::Function(format!(
                "condition evaluated to non-boolean {other}"
            ))),
        }),
    }
}

fn make_let(var: u32, e: CExpr, next: Stage) -> Stage {
    stage(move |f| {
        let val = eval_cexpr(&e, f)?;
        match f.binding[var as usize] {
            Some(existing) => {
                if existing == val {
                    next(f)
                } else {
                    Ok(())
                }
            }
            None => {
                f.binding[var as usize] = Some(val);
                let r = next(f);
                f.binding[var as usize] = None;
                r
            }
        }
    })
}

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

fn make_emit(rule: &RRule) -> Stage {
    let existentials = rule.existentials.clone();
    let heads = rule.head.clone();
    let rule_idx = rule.idx;
    stage(move |f| {
        // Existential variables: one labelled null per (rule, var, frontier).
        let mut bound_ex: Vec<u32> = Vec::new();
        for (v, functor, frontier) in &existentials {
            let mut args = Vec::with_capacity(frontier.len());
            for fr in frontier {
                args.push(f.binding[*fr as usize].expect("frontier vars are bound"));
            }
            let null = Const::Null(f.ctx.skolems.apply(*functor, &args));
            f.binding[*v as usize] = Some(null);
            bound_ex.push(*v);
        }
        for atom in &heads {
            f.tuple_buf.clear();
            for t in &atom.terms {
                let v = term_value(t, &f.binding, f.ctx.skolems)?;
                f.tuple_buf.push(v);
            }
            // Emit-time dup-skip, exactly as the interpreted executor:
            // inserting an existing fact is a no-op that never overrides
            // provenance, so skip without buffering it.
            let hash = row_hash(&f.tuple_buf);
            if f.relations[atom.pred as usize]
                .find_hashed(hash, &f.tuple_buf)
                .is_some()
            {
                continue;
            }
            let prov = make_prov(rule_idx, &f.support, f.ctx.provenance);
            f.ctx.ws.out.push(atom.pred, hash, &f.tuple_buf, prov);
        }
        for v in bound_ex {
            f.binding[v as usize] = None;
        }
        Ok(())
    })
}

fn make_prov(rule_idx: u32, support: &[(u32, u32)], provenance: bool) -> Option<ProvEntry> {
    if provenance {
        Some(ProvEntry {
            rule: rule_idx,
            parents: support.to_vec(),
        })
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Aggregation (terminal stage)
// ---------------------------------------------------------------------------

fn make_agg(rule: &RRule, agg: RAgg, kind: AggKind) -> Stage {
    let head = rule.head[0].clone();
    let rule_idx = rule.idx;
    let value_expr = if agg.func == AggFunc::Count {
        None
    } else {
        Some(lower_expr(&agg.expr))
    };
    let contributors = agg.contributors.clone();
    let func = agg.func;
    match kind {
        AggKind::Let { head_value_pos, .. } => stage(move |f| {
            let value = contribution_value(&value_expr, f)?;
            fill_contrib(&contributors, f);
            // Group = head tuple minus the value position, built in the
            // reusable group buffer (the interpreted path allocates here).
            f.group_buf.clear();
            for (i, t) in head.terms.iter().enumerate() {
                if i != head_value_pos {
                    let v = term_value(t, &f.binding, f.ctx.skolems)?;
                    f.group_buf.push(v);
                }
            }
            let epsilon = f.ctx.epsilon;
            let (state, _) = f.ctx.agg.contribute(
                head.pred,
                &f.group_buf,
                func,
                rule_idx,
                &f.key_buf,
                value,
                epsilon,
            );
            let total = state.total();
            let emit = state
                .last_emitted
                .is_none_or(|l| (total - l).abs() > epsilon);
            if emit {
                state.last_emitted = Some(total);
                let value_const = state.total_const();
                f.tuple_buf.clear();
                let mut gi = 0usize;
                for i in 0..head.terms.len() {
                    if i == head_value_pos {
                        f.tuple_buf.push(value_const);
                    } else {
                        f.tuple_buf.push(f.group_buf[gi]);
                        gi += 1;
                    }
                }
                let prov = make_prov(rule_idx, &f.support, f.ctx.provenance);
                let hash = row_hash(&f.tuple_buf);
                f.ctx
                    .ws
                    .out
                    .push_emission(head.pred, hash, &f.tuple_buf, prov);
            }
            Ok(())
        }),
        AggKind::Cond { op, rhs } => {
            let rhs = lower_expr(&rhs);
            stage(move |f| {
                let value = contribution_value(&value_expr, f)?;
                fill_contrib(&contributors, f);
                f.tuple_buf.clear();
                for t in &head.terms {
                    let v = term_value(t, &f.binding, f.ctx.skolems)?;
                    f.tuple_buf.push(v);
                }
                let rhs_val = eval_cexpr(&rhs, f)?;
                let epsilon = f.ctx.epsilon;
                let (state, _) = f.ctx.agg.contribute(
                    head.pred,
                    &f.tuple_buf,
                    func,
                    rule_idx,
                    &f.key_buf,
                    value,
                    epsilon,
                );
                if !compare(op, state.total_const(), rhs_val) {
                    return Ok(());
                }
                // Already stored: re-deriving an existing fact is a no-op
                // at insert time.
                let hash = row_hash(&f.tuple_buf);
                if f.relations[head.pred as usize]
                    .find_hashed(hash, &f.tuple_buf)
                    .is_some()
                {
                    return Ok(());
                }
                let prov = make_prov(rule_idx, &f.support, f.ctx.provenance);
                f.ctx.ws.out.push(head.pred, hash, &f.tuple_buf, prov);
                Ok(())
            })
        }
    }
}

/// The numeric contribution of one match (`1.0` for `mcount`).
#[inline]
fn contribution_value(expr: &Option<CExpr>, f: &mut Frame<'_, '_, '_>) -> Result<f64> {
    match expr {
        None => Ok(1.0),
        Some(e) => eval_cexpr(e, f)?
            .as_f64()
            .ok_or_else(|| DatalogError::Function("aggregate contribution is not numeric".into())),
    }
}

/// Builds the contributor key into the frame's key buffer (free at this
/// point in the chain — aggregates are terminal).
#[inline]
fn fill_contrib(contributors: &[u32], f: &mut Frame<'_, '_, '_>) {
    f.key_buf.clear();
    for v in contributors {
        f.key_buf
            .push(f.binding[*v as usize].expect("contributor vars are bound (validated)"));
    }
}

// ---------------------------------------------------------------------------
// Expression lowering
// ---------------------------------------------------------------------------

/// A lowered expression: the shapes the bundled programs' hot filters
/// actually take get direct closure-free evaluation; anything else
/// delegates to the shared interpreter ([`eval_expr`]) so semantics and
/// error strings cannot drift.
enum CExpr {
    Const(Const),
    Var(u32),
    CmpVV(CmpOp, u32, u32),
    CmpVC(CmpOp, u32, Const),
    CmpCV(CmpOp, Const, u32),
    BinVV(BinOp, u32, u32),
    BinVC(BinOp, u32, Const),
    General(RExpr),
}

fn lower_expr(e: &RExpr) -> CExpr {
    match e {
        RExpr::Const(c) => CExpr::Const(*c),
        RExpr::Var(v) => CExpr::Var(*v),
        RExpr::Cmp(op, a, b) => match (a.as_ref(), b.as_ref()) {
            (RExpr::Var(x), RExpr::Var(y)) => CExpr::CmpVV(*op, *x, *y),
            (RExpr::Var(x), RExpr::Const(c)) => CExpr::CmpVC(*op, *x, *c),
            (RExpr::Const(c), RExpr::Var(y)) => CExpr::CmpCV(*op, *c, *y),
            _ => CExpr::General(e.clone()),
        },
        RExpr::Binary(op, a, b) => match (a.as_ref(), b.as_ref()) {
            (RExpr::Var(x), RExpr::Var(y)) => CExpr::BinVV(*op, *x, *y),
            (RExpr::Var(x), RExpr::Const(c)) => CExpr::BinVC(*op, *x, *c),
            _ => CExpr::General(e.clone()),
        },
        RExpr::Call { .. } => CExpr::General(e.clone()),
    }
}

/// Reads a bound variable, failing with the interpreter's message.
#[inline]
fn var_value(v: u32, binding: &[Option<Const>]) -> Result<Const> {
    binding[v as usize].ok_or_else(|| DatalogError::Validation(format!("unbound variable v{v}")))
}

fn eval_cexpr(e: &CExpr, f: &mut Frame<'_, '_, '_>) -> Result<Const> {
    match e {
        CExpr::Const(c) => Ok(*c),
        CExpr::Var(v) => var_value(*v, &f.binding),
        CExpr::CmpVV(op, a, b) => {
            let av = var_value(*a, &f.binding)?;
            let bv = var_value(*b, &f.binding)?;
            Ok(Const::Bool(compare(*op, av, bv)))
        }
        CExpr::CmpVC(op, a, c) => {
            let av = var_value(*a, &f.binding)?;
            Ok(Const::Bool(compare(*op, av, *c)))
        }
        CExpr::CmpCV(op, c, b) => {
            let bv = var_value(*b, &f.binding)?;
            Ok(Const::Bool(compare(*op, *c, bv)))
        }
        CExpr::BinVV(op, a, b) => {
            let av = var_value(*a, &f.binding)?;
            let bv = var_value(*b, &f.binding)?;
            arith(*op, av, bv)
        }
        CExpr::BinVC(op, a, c) => {
            let av = var_value(*a, &f.binding)?;
            arith(*op, av, *c)
        }
        CExpr::General(e) => eval_expr(e, &f.binding, f.ctx),
    }
}

/// Evaluates a ground term — the compiled twin of the interpreted
/// executor's `term_value`, same error string included.
fn term_value(t: &RTerm, binding: &[Option<Const>], skolems: &mut SkolemTable) -> Result<Const> {
    match t {
        RTerm::Const(c) => Ok(*c),
        RTerm::Var(v) => binding[*v as usize]
            .ok_or_else(|| DatalogError::Validation(format!("unbound variable v{v} at emission"))),
        RTerm::Skolem { functor, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(term_value(a, binding, skolems)?);
            }
            Ok(Const::Null(skolems.apply(*functor, &vals)))
        }
    }
}
