//! Rule evaluation: joins, conditions, aggregation, head emission.
//!
//! One [`eval_rule`] call enumerates all matches of a rule body against the
//! current relations — optionally restricting one positive atom to the
//! semi-naive delta — and buffers the derived head facts. The body is
//! walked in the order chosen by the cost-based planner
//! ([`crate::eval::plan`]); each positive atom carries a pre-compiled
//! unification program and probe key, so the hot loop does no per-row
//! analysis of the rule shape.
//!
//! The executor is allocation-lean: variable bindings, provenance support
//! slots, probe keys and head-tuple scratch all live in a reusable
//! [`Workspace`], and a derived head is only boxed into a `Tuple` after a
//! lookup confirms the fact is not already in the (round-frozen) relation —
//! inserting an existing tuple is a no-op that never overrides provenance,
//! so skipping it early is behavior-preserving.

use crate::ast::{AggFunc, BinOp, CmpOp};
use crate::builtins::{FnCtx, FunctionRegistry};
use crate::db::{ProvEntry, Relations, SkolemTable, SymbolTable};
use crate::error::{DatalogError, Result};
use crate::eval::agg::AggStore;
use crate::eval::plan::{AtomStep, KeyOp, RulePlan, Step, TermOp};
use crate::eval::resolve::{AggKind, RExpr, RLiteral, RRule, RTerm};
use crate::value::{Const, Tuple};

/// A buffered derivation.
#[derive(Debug)]
pub(crate) struct Derived {
    pub pred: u32,
    pub tuple: Tuple,
    pub prov: Option<ProvEntry>,
}

/// Reusable per-evaluation scratch space. One instance lives for the whole
/// fixpoint; every [`eval_rule`] call borrows its buffers, so steady-state
/// rule evaluation performs no allocations until a genuinely new fact is
/// emitted.
#[derive(Default)]
pub(crate) struct Workspace {
    pub(crate) binding: Vec<Option<Const>>,
    pub(crate) support: Vec<(u32, u32)>,
    pub(crate) key_buf: Vec<Const>,
    pub(crate) tuple_buf: Vec<Const>,
    /// Aggregate group scratch (compiled path only; the interpreted
    /// aggregate builds its group `Vec` inline).
    pub(crate) group_buf: Vec<Const>,
    /// Tuples this workspace has already pushed to `out`, per head
    /// predicate — consulted only with provenance off, where any single
    /// representative of an in-round duplicate is equivalent (insertion
    /// keeps one copy of each tuple, and without provenance the copies
    /// are indistinguishable). Skipping the duplicates here avoids their
    /// tuple allocations and their share of the post-round sort. Entries
    /// are never stale: every recorded tuple is inserted into its
    /// relation at the end of the round that pushed it.
    pub(crate) emitted: crate::fx::FxHashMap<u32, crate::fx::FxHashSet<Tuple>>,
}

/// Mutable evaluation context shared across rules of a round.
pub(crate) struct RunCtx<'b> {
    pub symbols: &'b mut SymbolTable,
    pub skolems: &'b mut SkolemTable,
    pub registry: &'b FunctionRegistry,
    pub agg: &'b mut AggStore,
    pub out: &'b mut Vec<Derived>,
    pub ws: &'b mut Workspace,
    pub epsilon: f64,
    pub provenance: bool,
}

/// Evaluates `rule` under `plan` against `relations`. If `delta` is
/// `Some((li, start))`, the positive atom at *original body literal* `li`
/// only matches rows `>= start`.
pub(crate) fn eval_rule(
    rule: &RRule,
    plan: &RulePlan,
    relations: &Relations,
    delta: Option<(usize, u32)>,
    ctx: &mut RunCtx<'_>,
) -> Result<()> {
    // Borrow the workspace buffers for the duration of this evaluation;
    // capacity is retained across calls.
    let mut binding = std::mem::take(&mut ctx.ws.binding);
    binding.clear();
    binding.resize(rule.nvars, None);
    let mut support = std::mem::take(&mut ctx.ws.support);
    support.clear();
    support.resize(plan.n_support, (0, 0));
    let key_buf = std::mem::take(&mut ctx.ws.key_buf);
    let tuple_buf = std::mem::take(&mut ctx.ws.tuple_buf);
    let mut ev = Evaluator {
        rule,
        plan,
        relations,
        delta,
        binding,
        support,
        key_buf,
        tuple_buf,
        ctx,
    };
    let result = ev.step(0);
    let Evaluator {
        binding,
        support,
        key_buf,
        tuple_buf,
        ctx,
        ..
    } = ev;
    ctx.ws.binding = binding;
    ctx.ws.support = support;
    ctx.ws.key_buf = key_buf;
    ctx.ws.tuple_buf = tuple_buf;
    result
}

struct Evaluator<'a, 'c> {
    rule: &'a RRule,
    plan: &'a RulePlan,
    relations: &'a Relations,
    delta: Option<(usize, u32)>,
    binding: Vec<Option<Const>>,
    /// Provenance parents, one slot per positive literal in original body
    /// order — slot addressing keeps parent order plan-independent.
    support: Vec<(u32, u32)>,
    key_buf: Vec<Const>,
    tuple_buf: Vec<Const>,
    ctx: &'a mut RunCtx<'c>,
}

impl<'a, 'c> Evaluator<'a, 'c> {
    fn step(&mut self, si: usize) -> Result<()> {
        // Copy the references so literal borrows are independent of self.
        let rule = self.rule;
        let plan = self.plan;
        if si == plan.steps.len() {
            return self.emit_heads();
        }
        match &plan.steps[si] {
            Step::Atom(step) => self.match_atom(si, step),
            Step::Negated(li) => {
                let RLiteral::Negated(atom) = &rule.body[*li] else {
                    unreachable!("Negated step points at a negated literal")
                };
                self.tuple_buf.clear();
                for term in &atom.terms {
                    let v = self.term_value(term)?;
                    self.tuple_buf.push(v);
                }
                if self.relations[atom.pred as usize]
                    .find(&self.tuple_buf)
                    .is_none()
                {
                    self.step(si + 1)
                } else {
                    Ok(())
                }
            }
            Step::Cond(li) => {
                let RLiteral::Cond(e) = &rule.body[*li] else {
                    unreachable!("Cond step points at a condition literal")
                };
                match eval_expr(e, &self.binding, self.ctx)? {
                    Const::Bool(true) => self.step(si + 1),
                    Const::Bool(false) => Ok(()),
                    other => Err(DatalogError::Function(format!(
                        "condition evaluated to non-boolean {other}"
                    ))),
                }
            }
            Step::Let(li) => {
                let RLiteral::Let(v, e) = &rule.body[*li] else {
                    unreachable!("Let step points at a let literal")
                };
                let val = eval_expr(e, &self.binding, self.ctx)?;
                match self.binding[*v as usize] {
                    Some(existing) => {
                        if existing == val {
                            self.step(si + 1)
                        } else {
                            Ok(())
                        }
                    }
                    None => {
                        self.binding[*v as usize] = Some(val);
                        let r = self.step(si + 1);
                        self.binding[*v as usize] = None;
                        r
                    }
                }
            }
            Step::Agg(li) => {
                let RLiteral::Agg { agg, kind } = &rule.body[*li] else {
                    unreachable!("Agg step points at an aggregate literal")
                };
                self.apply_aggregate(agg, kind)
            }
        }
    }

    fn match_atom(&mut self, si: usize, step: &'a AtomStep) -> Result<()> {
        // Copy the slice reference so `rows` borrows independently of self.
        let relations = self.relations;
        let rel = &relations[step.pred as usize];
        let delta_start = match self.delta {
            Some((dli, start)) if dli == step.lit => Some(start),
            _ => None,
        };
        // Collect candidate rows.
        enum Rows<'r> {
            Probe(&'r [u32]),
            /// Full-key membership test answered by the dedup map — no
            /// registered index involved.
            Find(Option<u32>),
            Scan(std::ops::Range<u32>),
        }
        let rows = if step.mask != 0 {
            self.key_buf.clear();
            for k in &step.key_ops {
                self.key_buf.push(match k {
                    KeyOp::Const(c) => *c,
                    KeyOp::Var(v) => {
                        self.binding[*v as usize].expect("masked position must be bound")
                    }
                });
            }
            // The probe key is consumed before descending, so reusing
            // `key_buf` across recursion levels is safe.
            if step.full_key() {
                // In mask-bit order a full key IS the tuple.
                Rows::Find(rel.find(&self.key_buf))
            } else {
                Rows::Probe(rel.lookup_rows(step.mask, &self.key_buf))
            }
        } else {
            let start = delta_start.unwrap_or(0);
            Rows::Scan(start..rel.len() as u32)
        };
        let visit = |ev: &mut Self, row: u32| -> Result<()> {
            let tuple = ev.relations[step.pred as usize].row(row);
            // Run the pre-compiled unification program for this atom.
            let mut ok = true;
            for (i, op) in step.ops.iter().enumerate() {
                match op {
                    TermOp::CheckConst(c) => {
                        if *c != tuple[i] {
                            ok = false;
                            break;
                        }
                    }
                    TermOp::CheckVar(v) => {
                        if ev.binding[*v as usize] != Some(tuple[i]) {
                            ok = false;
                            break;
                        }
                    }
                    TermOp::Bind(v) => ev.binding[*v as usize] = Some(tuple[i]),
                }
            }
            let result = if ok {
                ev.support[step.support_slot] = (step.pred, row);
                ev.step(si + 1)
            } else {
                Ok(())
            };
            // Undo is statically known: exactly the vars this atom binds.
            for v in &step.binds {
                ev.binding[*v as usize] = None;
            }
            result
        };
        match rows {
            Rows::Probe(rows) => {
                for &row in rows {
                    if let Some(start) = delta_start {
                        if row < start {
                            continue;
                        }
                    }
                    visit(self, row)?;
                }
            }
            Rows::Find(found) => {
                if let Some(row) = found {
                    if delta_start.is_none_or(|start| row >= start) {
                        visit(self, row)?;
                    }
                }
            }
            Rows::Scan(range) => {
                for row in range {
                    visit(self, row)?;
                }
            }
        }
        Ok(())
    }

    /// Evaluates a ground term (vars must be bound; Skolems are applied).
    fn term_value(&mut self, t: &RTerm) -> Result<Const> {
        match t {
            RTerm::Const(c) => Ok(*c),
            RTerm::Var(v) => self.binding[*v as usize].ok_or_else(|| {
                DatalogError::Validation(format!("unbound variable v{v} at emission"))
            }),
            RTerm::Skolem { functor, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.term_value(a)?);
                }
                Ok(Const::Null(self.ctx.skolems.apply(*functor, &vals)))
            }
        }
    }

    fn emit_heads(&mut self) -> Result<()> {
        let rule = self.rule;
        // Existential variables: one labelled null per (rule, var, frontier).
        let mut bound_ex: Vec<u32> = Vec::new();
        for (v, functor, frontier) in &rule.existentials {
            let mut args = Vec::with_capacity(frontier.len());
            for f in frontier {
                args.push(self.binding[*f as usize].expect("frontier vars are bound"));
            }
            let null = Const::Null(self.ctx.skolems.apply(*functor, &args));
            self.binding[*v as usize] = Some(null);
            bound_ex.push(*v);
        }
        for atom in &rule.head {
            self.tuple_buf.clear();
            for t in &atom.terms {
                let v = self.term_value(t)?;
                self.tuple_buf.push(v);
            }
            // The fact is already in the round-frozen relation: inserting it
            // again would be a no-op (set semantics, first-derivation
            // provenance), so skip without boxing a tuple.
            if self.relations[atom.pred as usize]
                .find(&self.tuple_buf)
                .is_some()
            {
                continue;
            }
            if !self.ctx.provenance {
                // No provenance to arbitrate between in-round duplicates:
                // one representative per workspace suffices.
                if self
                    .ctx
                    .ws
                    .emitted
                    .get(&atom.pred)
                    .is_some_and(|s| s.contains(self.tuple_buf.as_slice()))
                {
                    continue;
                }
                let tuple: Tuple = self.tuple_buf.as_slice().into();
                self.ctx
                    .ws
                    .emitted
                    .entry(atom.pred)
                    .or_default()
                    .insert(tuple.clone());
                self.ctx.out.push(Derived {
                    pred: atom.pred,
                    tuple,
                    prov: None,
                });
                continue;
            }
            let prov = self.make_prov();
            self.ctx.out.push(Derived {
                pred: atom.pred,
                tuple: self.tuple_buf.as_slice().into(),
                prov,
            });
        }
        for v in bound_ex {
            self.binding[v as usize] = None;
        }
        Ok(())
    }

    fn make_prov(&self) -> Option<ProvEntry> {
        if self.ctx.provenance {
            Some(ProvEntry {
                rule: self.rule.idx,
                parents: self.support.clone(),
            })
        } else {
            None
        }
    }

    fn apply_aggregate(&mut self, agg: &crate::eval::resolve::RAgg, kind: &AggKind) -> Result<()> {
        let rule = self.rule;
        let head = &rule.head[0];
        let head_pred = head.pred;
        // Contribution value.
        let value = if agg.func == AggFunc::Count {
            1.0
        } else {
            eval_expr(&agg.expr, &self.binding, self.ctx)?
                .as_f64()
                .ok_or_else(|| {
                    DatalogError::Function("aggregate contribution is not numeric".into())
                })?
        };
        // Contributor key.
        let mut contrib = Vec::with_capacity(agg.contributors.len());
        for v in &agg.contributors {
            contrib
                .push(self.binding[*v as usize].expect("contributor vars are bound (validated)"));
        }
        match kind {
            AggKind::Let {
                var,
                head_value_pos,
            } => {
                // Group = head tuple minus the value position.
                let mut group = Vec::with_capacity(head.terms.len() - 1);
                for (i, t) in head.terms.iter().enumerate() {
                    if i != *head_value_pos {
                        group.push(self.term_value(t)?);
                    }
                }
                let (state, _) = self.ctx.agg.contribute(
                    head_pred,
                    &group,
                    agg.func,
                    self.rule.idx,
                    &contrib,
                    value,
                    self.ctx.epsilon,
                );
                let total = state.total();
                let emit = state
                    .last_emitted
                    .is_none_or(|l| (total - l).abs() > self.ctx.epsilon);
                if emit {
                    state.last_emitted = Some(total);
                    let value_const = state.total_const();
                    let _ = var; // the value flows directly into the head slot
                    let mut tuple = Vec::with_capacity(head.terms.len());
                    let mut gi = 0usize;
                    for i in 0..head.terms.len() {
                        if i == *head_value_pos {
                            tuple.push(value_const);
                        } else {
                            tuple.push(group[gi]);
                            gi += 1;
                        }
                    }
                    let prov = self.make_prov();
                    self.ctx.out.push(Derived {
                        pred: head_pred,
                        tuple: tuple.into(),
                        prov,
                    });
                }
            }
            AggKind::Cond { op, rhs } => {
                self.tuple_buf.clear();
                for t in &head.terms {
                    let v = self.term_value(t)?;
                    self.tuple_buf.push(v);
                }
                let head_tuple: Tuple = self.tuple_buf.as_slice().into();
                let rhs_val = eval_expr(rhs, &self.binding, self.ctx)?;
                let (state, _) = self.ctx.agg.contribute(
                    head_pred,
                    &head_tuple,
                    agg.func,
                    self.rule.idx,
                    &contrib,
                    value,
                    self.ctx.epsilon,
                );
                let total = state.total_const();
                if compare(*op, total, rhs_val) {
                    // Duplicate-skip: re-deriving an existing fact is a
                    // no-op at insert time.
                    if self.relations[head_pred as usize]
                        .find(&head_tuple)
                        .is_none()
                    {
                        if !self.ctx.provenance {
                            let seen = self.ctx.ws.emitted.entry(head_pred).or_default();
                            if !seen.insert(head_tuple.clone()) {
                                return Ok(());
                            }
                            self.ctx.out.push(Derived {
                                pred: head_pred,
                                tuple: head_tuple,
                                prov: None,
                            });
                            return Ok(());
                        }
                        let prov = self.make_prov();
                        self.ctx.out.push(Derived {
                            pred: head_pred,
                            tuple: head_tuple,
                            prov,
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Compares constants under a comparison operator using the total order.
pub(crate) fn compare(op: CmpOp, a: Const, b: Const) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

/// Evaluates an expression under a binding.
pub(crate) fn eval_expr(
    e: &RExpr,
    binding: &[Option<Const>],
    ctx: &mut RunCtx<'_>,
) -> Result<Const> {
    match e {
        RExpr::Var(v) => binding[*v as usize]
            .ok_or_else(|| DatalogError::Validation(format!("unbound variable v{v}"))),
        RExpr::Const(c) => Ok(*c),
        RExpr::Binary(op, a, b) => {
            let av = eval_expr(a, binding, ctx)?;
            let bv = eval_expr(b, binding, ctx)?;
            arith(*op, av, bv)
        }
        RExpr::Cmp(op, a, b) => {
            let av = eval_expr(a, binding, ctx)?;
            let bv = eval_expr(b, binding, ctx)?;
            Ok(Const::Bool(compare(*op, av, bv)))
        }
        RExpr::Call {
            name,
            functor,
            args,
        } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_expr(a, binding, ctx)?);
            }
            if let Some(f) = ctx.registry.get(name) {
                let mut fctx = FnCtx {
                    symbols: ctx.symbols,
                    skolems: ctx.skolems,
                };
                f(&mut fctx, &vals).map_err(|e| DatalogError::Function(format!("#{name}: {e}")))
            } else {
                // Unregistered functors are Skolem functions (Algorithm 2
                // of the paper: `z = #sk_c(name)`).
                Ok(Const::Null(ctx.skolems.apply(*functor, &vals)))
            }
        }
    }
}

/// Evaluates a *pure* expression — no external calls, hence no access to
/// the symbol or Skolem tables — under a binding. Shares `arith`/`compare`
/// with [`eval_expr`] so the two paths cannot drift; the incremental
/// delta enumerator ([`crate::incr`]) uses this on rules already
/// classified call-free.
pub(crate) fn eval_pure_expr(e: &RExpr, binding: &[Option<Const>]) -> Result<Const> {
    match e {
        RExpr::Var(v) => binding[*v as usize]
            .ok_or_else(|| DatalogError::Validation(format!("unbound variable v{v}"))),
        RExpr::Const(c) => Ok(*c),
        RExpr::Binary(op, a, b) => arith(
            *op,
            eval_pure_expr(a, binding)?,
            eval_pure_expr(b, binding)?,
        ),
        RExpr::Cmp(op, a, b) => Ok(Const::Bool(compare(
            *op,
            eval_pure_expr(a, binding)?,
            eval_pure_expr(b, binding)?,
        ))),
        RExpr::Call { name, .. } => Err(DatalogError::Function(format!(
            "#{name}: external calls are not pure (incremental enumerator)"
        ))),
    }
}

pub(crate) fn arith(op: BinOp, a: Const, b: Const) -> Result<Const> {
    use Const::*;
    let err = || {
        DatalogError::Function(format!(
            "arithmetic on non-numeric operands ({a} {op:?} {b})"
        ))
    };
    match (a, b) {
        (Int(x), Int(y)) => Ok(match op {
            BinOp::Add => Int(x.wrapping_add(y)),
            BinOp::Sub => Int(x.wrapping_sub(y)),
            BinOp::Mul => Int(x.wrapping_mul(y)),
            BinOp::Div => Const::float(x as f64 / y as f64),
        }),
        _ => {
            let x = a.as_f64().ok_or_else(err)?;
            let y = b.as_f64().ok_or_else(err)?;
            Ok(match op {
                BinOp::Add => Const::float(x + y),
                BinOp::Sub => Const::float(x - y),
                BinOp::Mul => Const::float(x * y),
                BinOp::Div => Const::float(x / y),
            })
        }
    }
}
