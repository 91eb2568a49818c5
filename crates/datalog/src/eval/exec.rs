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
//! The executor does not allocate per match: variable bindings,
//! provenance support slots, probe keys and head-tuple scratch all live
//! in a reusable [`Workspace`], and a derived head is copied into the
//! round's arena ([`RoundBuffer`]) only after a lookup confirms the fact
//! is not already in the (round-frozen) relation — inserting an existing
//! tuple is a no-op that never overrides provenance, so skipping it early
//! is behavior-preserving.

use crate::ast::{AggFunc, BinOp, CmpOp};
use crate::builtins::{FnCtx, FunctionRegistry};
use crate::db::{Database, ProvEntry, Relations, SkolemTable, SymbolTable};
use crate::error::{DatalogError, Result};
use crate::eval::agg::AggStore;
use crate::eval::plan::{AtomStep, KeyOp, RulePlan, Step, TermOp};
use crate::eval::resolve::{AggKind, RExpr, RLiteral, RRule, RTerm};
use crate::index::{next_id, row_hash, Index};
use crate::value::Const;

/// One fixpoint round's derivations, in one arena: every buffered row
/// back to back in `data`, one `(pred, offset, prov)` record per
/// derivation, and the provenance beside them when it is recorded. The
/// engine starts each round with [`RoundBuffer::begin`], which empties it
/// and keeps every allocation, so a round buffers its facts without a
/// heap block of their own, and [`RoundBuffer::drain_into`] inserts them
/// in canonical order.
///
/// A dedup index over `(pred, row)` answers "already buffered this
/// round?". With provenance off, the rule heads and conditional
/// aggregates consult it ([`RoundBuffer::push`]): any representative of
/// an in-round duplicate is equivalent, because insertion keeps one copy
/// of each row and without provenance the copies are indistinguishable,
/// so the first one pushed stays and the later ones cost no row and no
/// share of the sort. A `V = m*(...)` emission skips it
/// ([`RoundBuffer::push_emission`]): epsilon-guarded emissions never
/// repeat a row within a round. With provenance on, every push collapses
/// onto the index: duplicates carry distinct derivation trees, and the
/// one with the least `(rule, parents)` — the first of equals — is kept,
/// which is what insertion in canonical order would keep.
#[derive(Debug, Default)]
pub(crate) struct RoundBuffer {
    data: Vec<Const>,
    /// In push order until the drain sorts them.
    records: Vec<Record>,
    /// With provenance on, one entry per record (`Record::prov`).
    provs: Vec<Option<ProvEntry>>,
    /// Record ids filed by [`RoundBuffer::slot_hash`].
    index: Index,
    provenance: bool,
    /// The records' canonical order, rebuilt by each drain.
    order: Vec<SortKey>,
}

/// One buffered derivation: its head predicate, its row at
/// `data[at..at + len]`, the row's [`row_hash`] (which the insert
/// reuses) and its provenance slot.
#[derive(Debug, Clone, Copy)]
struct Record {
    pred: u32,
    hash: u32,
    at: u32,
    len: u32,
    prov: u32,
}

/// A record's place in the canonical sort: its predicate and the
/// [`order_key`]s of its row's first two constants ahead of its id, so
/// that most comparisons of the sort read neither the records nor the
/// arena, and the sort moves 24 bytes per record.
#[derive(Debug, Clone, Copy)]
struct SortKey {
    keys: [u64; 2],
    pred: u32,
    id: u32,
}

/// A 64-bit key of `c` that never orders two constants against
/// [`Const`]'s order: `a < b` implies `order_key(a) <= order_key(b)`, so
/// unequal keys decide a comparison and equal ones leave it to the
/// constants. The type rank takes the top two bits; numbers (integers
/// as the `f64` they compare as) take the bits of their IEEE total order
/// shifted down to 62, symbols their id, nulls their id capped at 62
/// bits.
fn order_key(c: Const) -> u64 {
    const LOW: u64 = (1 << 62) - 1;
    let number = |f: f64| {
        let bits = f.to_bits() as i64;
        let ordered = (bits ^ (((bits >> 63) as u64) >> 1) as i64) as u64 ^ (1 << 63);
        1 << 62 | ordered >> 2
    };
    match c {
        Const::Bool(b) => u64::from(b),
        Const::Int(i) => number(i as f64),
        Const::Float(f) => number(f),
        Const::Sym(s) => 2 << 62 | u64::from(s),
        Const::Null(n) => 3 << 62 | n.min(LOW),
    }
}

impl Record {
    fn span(&self) -> std::ops::Range<usize> {
        self.at as usize..(self.at + self.len) as usize
    }
}

impl RoundBuffer {
    /// Empties the buffer for a round, keeping its capacity.
    pub(crate) fn begin(&mut self, provenance: bool) {
        self.data.clear();
        self.records.clear();
        self.provs.clear();
        self.index.clear();
        self.provenance = provenance;
    }

    /// The hash a record is filed under: its row's hash, namespaced by
    /// its predicate.
    fn slot_hash(pred: u32, hash: u32) -> u32 {
        hash ^ pred.wrapping_mul(0x9e37_79b9)
    }

    /// Buffers a rule-head derivation of `row` (whose [`row_hash`] is
    /// `hash`) into `pred`, unless this round already holds it: with
    /// provenance off the first copy stays, with it on the least
    /// derivation (see the type's doc).
    pub(crate) fn push(&mut self, pred: u32, hash: u32, row: &[Const], prov: Option<ProvEntry>) {
        let slot_hash = Self::slot_hash(pred, hash);
        let (records, data) = (&self.records, &self.data);
        let found = self.index.find(slot_hash, |id| {
            let r = &records[id as usize];
            r.pred == pred && data[r.span()] == *row
        });
        match found {
            Ok(id) => {
                let r = &mut self.records[id as usize];
                if self.provenance && prov < self.provs[r.prov as usize] {
                    // The later copy's row may differ in representation
                    // (`Int(2)` for `Float(2.0)`): keep it with its tree.
                    self.data[r.span()].copy_from_slice(row);
                    self.provs[r.prov as usize] = prov;
                }
            }
            Err(slot) => {
                let id = next_id(self.records.len());
                self.index.insert(slot, slot_hash, id);
                self.append(pred, hash, row, prov);
            }
        }
    }

    /// Buffers a `V = m*(...)` emission: like [`RoundBuffer::push`] with
    /// provenance on, and without a dedup probe with it off.
    pub(crate) fn push_emission(
        &mut self,
        pred: u32,
        hash: u32,
        row: &[Const],
        prov: Option<ProvEntry>,
    ) {
        if self.provenance {
            self.push(pred, hash, row, prov);
        } else {
            self.append(pred, hash, row, prov);
        }
    }

    fn append(&mut self, pred: u32, hash: u32, row: &[Const], prov: Option<ProvEntry>) {
        let at = u32::try_from(self.data.len() + row.len())
            .map(|end| end - row.len() as u32)
            .expect("a round buffers fewer than 2^32 constants");
        self.records.push(Record {
            pred,
            hash,
            at,
            len: row.len() as u32,
            prov: next_id(self.provs.len()),
        });
        self.data.extend_from_slice(row);
        if self.provenance {
            self.provs.push(prov);
        }
    }

    /// Sorts the records into canonical `(pred, row, prov)` order: a
    /// round's derived *set* does not depend on body-literal order, so
    /// inserting in this order pins row ids and provenance whatever plans
    /// produced the buffer.
    fn sort(&mut self) {
        let (records, data, provs) = (&self.records, &self.data, &self.provs);
        self.order.clear();
        self.order.extend(records.iter().enumerate().map(|(id, r)| {
            let row = &data[r.span()];
            let key = |i: usize| row.get(i).copied().map_or(0, order_key);
            SortKey {
                keys: [key(0), key(1)],
                pred: r.pred,
                id: id as u32,
            }
        }));
        let row = |k: &SortKey| &data[records[k.id as usize].span()];
        let prov = |k: &SortKey| &provs[records[k.id as usize].prov as usize];
        self.order.sort_unstable_by(|a, b| {
            a.pred
                .cmp(&b.pred)
                .then(a.keys.cmp(&b.keys))
                .then_with(|| row(a).cmp(row(b)))
                .then_with(|| match provs.is_empty() {
                    true => std::cmp::Ordering::Equal,
                    false => prov(a).cmp(prov(b)),
                })
        });
    }

    /// Inserts the round's derivations into `db` in canonical order (see
    /// [`RoundBuffer::sort`]), copying each row into its relation; returns
    /// how many were new. One copy-on-write check per predicate, not per
    /// fact.
    pub(crate) fn drain_into(&mut self, db: &mut Database) -> usize {
        self.sort();
        let mut new_facts = 0usize;
        for group in self.order.chunk_by(|a, b| a.pred == b.pred) {
            let rel = db.relation_mut(group[0].pred);
            for k in group {
                let r = &self.records[k.id as usize];
                let prov = self.provs.get_mut(r.prov as usize).and_then(Option::take);
                new_facts += usize::from(rel.insert_hashed(r.hash, &self.data[r.span()], prov).1);
            }
        }
        new_facts
    }
}

/// Reusable per-evaluation scratch space. One instance lives for the whole
/// fixpoint; every [`eval_rule`] call borrows its buffers, so steady-state
/// rule evaluation performs no allocations at all: a derived fact is
/// copied into the round's arena ([`RoundBuffer`]), whose capacity
/// carries over from round to round.
#[derive(Default)]
pub(crate) struct Workspace {
    pub(crate) binding: Vec<Option<Const>>,
    pub(crate) support: Vec<(u32, u32)>,
    pub(crate) key_buf: Vec<Const>,
    pub(crate) tuple_buf: Vec<Const>,
    /// Aggregate group scratch (compiled path only; the interpreted
    /// aggregate builds its group `Vec` inline).
    pub(crate) group_buf: Vec<Const>,
    /// The current round's derivations.
    pub(crate) out: RoundBuffer,
}

/// Mutable evaluation context shared across rules of a round.
pub(crate) struct RunCtx<'b> {
    pub symbols: &'b mut SymbolTable,
    pub skolems: &'b mut SkolemTable,
    pub registry: &'b FunctionRegistry,
    pub agg: &'b mut AggStore,
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
            /// Full-key membership test answered by the dedup index — no
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
            // provenance), so skip without buffering it.
            let hash = row_hash(&self.tuple_buf);
            if self.relations[atom.pred as usize]
                .find_hashed(hash, &self.tuple_buf)
                .is_some()
            {
                continue;
            }
            let prov = self.make_prov();
            self.ctx.ws.out.push(atom.pred, hash, &self.tuple_buf, prov);
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
                    let hash = row_hash(&tuple);
                    self.ctx.ws.out.push_emission(head_pred, hash, &tuple, prov);
                }
            }
            AggKind::Cond { op, rhs } => {
                self.tuple_buf.clear();
                for t in &head.terms {
                    let v = self.term_value(t)?;
                    self.tuple_buf.push(v);
                }
                let head_tuple = std::mem::take(&mut self.tuple_buf);
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
                // Duplicate-skip: re-deriving an existing fact is a
                // no-op at insert time.
                let hash = row_hash(&head_tuple);
                if compare(*op, total, rhs_val)
                    && self.relations[head_pred as usize]
                        .find_hashed(hash, &head_tuple)
                        .is_none()
                {
                    let prov = self.make_prov();
                    self.ctx.ws.out.push(head_pred, hash, &head_tuple, prov);
                }
                self.tuple_buf = head_tuple;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fx::FxHashMap;
    use crate::value::Tuple;

    fn splitmix(s: &mut u64) -> u64 {
        *s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// One push: whether it is a `V = m*(...)` emission, its predicate,
    /// row and provenance.
    type Push = (bool, u32, Vec<Const>, Option<ProvEntry>);

    /// A round as the engine buffered it before the arena: `(pred,
    /// Tuple, prov)` triples, the workspace's emitted set consulted by
    /// rule heads with provenance off, the least-derivation collapse with
    /// it on, then the canonical sort.
    fn triples(pushes: &[Push], provenance: bool) -> Vec<(u32, Tuple, Option<ProvEntry>)> {
        let mut out: Vec<(u32, Tuple, Option<ProvEntry>)> = Vec::new();
        let mut emitted: crate::fx::FxHashSet<(u32, Tuple)> = Default::default();
        for (emission, pred, row, prov) in pushes {
            let tuple: Tuple = row.as_slice().into();
            if !provenance && !emission && !emitted.insert((*pred, tuple.clone())) {
                continue;
            }
            out.push((*pred, tuple, prov.clone()));
        }
        if provenance {
            let mut best: FxHashMap<(u32, Tuple), usize> = FxHashMap::default();
            let mut keep = vec![false; out.len()];
            for (i, d) in out.iter().enumerate() {
                match best.get(&(d.0, d.1.clone())) {
                    None => {
                        best.insert((d.0, d.1.clone()), i);
                        keep[i] = true;
                    }
                    Some(&j) if d.2 < out[j].2 => {
                        keep[j] = false;
                        keep[i] = true;
                        best.insert((d.0, d.1.clone()), i);
                    }
                    Some(_) => {}
                }
            }
            let mut i = 0;
            out.retain(|_| {
                i += 1;
                keep[i - 1]
            });
        }
        out.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| a.1.cmp(&b.1))
                .then_with(|| a.2.cmp(&b.2))
        });
        out
    }

    #[test]
    fn order_keys_never_contradict_const_order() {
        let consts = [
            Const::Bool(false),
            Const::Bool(true),
            Const::Int(i64::MIN),
            Const::Int(-3),
            Const::Int(0),
            Const::Int(2),
            Const::Int(1 << 53),
            Const::Int((1 << 53) + 1),
            Const::Int(i64::MAX),
            Const::Float(f64::NEG_INFINITY),
            Const::Float(-2.5),
            Const::Float(-0.0),
            Const::Float(0.0),
            Const::Float(f64::MIN_POSITIVE),
            Const::Float(2.0),
            Const::Float(9.3e18),
            Const::Float(f64::INFINITY),
            Const::Sym(0),
            Const::Sym(u32::MAX),
            Const::Null(0),
            Const::Null(u64::MAX),
        ];
        for a in consts {
            for b in consts {
                if a < b {
                    assert!(order_key(a) <= order_key(b), "{a:?} < {b:?}");
                }
                if a == b {
                    assert_eq!(order_key(a), order_key(b), "{a:?} == {b:?}");
                }
            }
        }
    }

    #[test]
    fn round_order_equals_sorting_the_old_triples() {
        // Rows of a predicate have its fixed width (0 to 3). Rule-head
        // rows mix constants that are equal across representations
        // (`Int(2)` / `Float(2.0)`, one fact) and ones that are not
        // (`0.0` / `-0.0`); emission rows take symbols and nulls only, so
        // that no two equal rows of different representation tie in the
        // sort, where neither order would be canonical.
        let heads = [
            Const::Int(2),
            Const::Float(2.0),
            Const::Float(0.0),
            Const::Float(-0.0),
            Const::Sym(1),
            Const::Null(4),
        ];
        let emissions = [Const::Sym(1), Const::Sym(2), Const::Null(4)];
        let mut buf = RoundBuffer::default();
        for seed in 0..64u64 {
            let mut s = seed;
            let provenance = seed % 2 == 1;
            let pushes: Vec<Push> = (0..splitmix(&mut s) % 200)
                .map(|_| {
                    let pred = (splitmix(&mut s) % 4) as u32;
                    let emission = splitmix(&mut s).is_multiple_of(4);
                    let pool: &[Const] = if emission { &emissions } else { &heads };
                    let row = (0..pred)
                        .map(|_| pool[(splitmix(&mut s) % pool.len() as u64) as usize])
                        .collect();
                    let prov = provenance.then(|| ProvEntry {
                        rule: (splitmix(&mut s) % 3) as u32,
                        parents: vec![(0, (splitmix(&mut s) % 3) as u32)],
                    });
                    (emission, pred, row, prov)
                })
                .collect();
            // The buffer is reused across rounds, as the engine does.
            buf.begin(provenance);
            for (emission, pred, row, prov) in &pushes {
                let hash = row_hash(row);
                if *emission {
                    buf.push_emission(*pred, hash, row, prov.clone());
                } else {
                    buf.push(*pred, hash, row, prov.clone());
                }
            }
            buf.sort();
            let got: Vec<String> = buf
                .order
                .iter()
                .map(|k| {
                    let r = &buf.records[k.id as usize];
                    let prov = buf.provs.get(r.prov as usize).cloned().flatten();
                    format!("{} {:?} {prov:?}", r.pred, &buf.data[r.span()])
                })
                .collect();
            let want: Vec<String> = triples(&pushes, provenance)
                .into_iter()
                .map(|(pred, tuple, prov)| format!("{pred} {:?} {prov:?}", &tuple[..]))
                .collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }
}
