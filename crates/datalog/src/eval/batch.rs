//! Batch-at-a-time (vectorized) execution tier over frozen columnar
//! strips.
//!
//! The closure chains of [`super::compile`] evaluate tuple-at-a-time:
//! one indirect call per row per stage, bindings written and undone
//! through an `Option<Const>` array. When a naive plan's inputs are all
//! frozen [`Columnar`](crate::db) images, this module runs the same plan
//! batch-at-a-time instead: fixed-width batches of row indices (one
//! array per joined slot) refined by a *selection vector*, with
//! filters/compares running over packed column slices through the
//! [`kernels`](super::kernels). Variables never materialize — each
//! variable is resolved at lowering time to the column or computed slot
//! that defines it.
//!
//! ## Byte-identity
//!
//! The batch pipeline preserves the tuple executor's depth-first
//! enumeration order exactly: expansion steps (probes, cross scans)
//! append matches in ascending lane order and flush full batches
//! through the remaining steps *before* generating more rows, so the
//! emitted derivation sequence — and with it every downstream row id —
//! is identical to the closure chain's. The differential suites enforce
//! this against the reference oracle.
//!
//! ## Fallback rules
//!
//! Lowering ([`lower`]) produces a plan only for the *batch subset*:
//! naive (round 0) plans of rules without aggregates, existentials,
//! Skolem terms or external calls, whose conditions and lets take the
//! lowered comparison shapes (arithmetic lets stay tuple-at-a-time so
//! the batch path cannot fail mid-batch and reorder error surfacing).
//! At run time [`ready`] additionally requires every scanned or probed
//! relation to be frozen with the CSR masks the plan probes —
//! delta-side relations never are, so recursive rounds fall back to the
//! tuple chain, as do provenance-carrying runs (checked by the caller).

use crate::ast::CmpOp;
use crate::db::Relations;
use crate::error::Result;
use crate::eval::exec::{compare, RunCtx};
use crate::eval::kernels::{pack, pack_exact, select_cmp};
use crate::eval::plan::{KeyOp, RulePlan, Step, TermOp};
use crate::eval::resolve::{RExpr, RLiteral, RRule, RTerm};
use crate::index::row_hash;
use crate::value::Const;

/// Rows per batch. Large enough to amortize per-batch dispatch, small
/// enough that a batch's working set (a few row/let arrays) stays in
/// cache.
pub(crate) const BATCH_WIDTH: usize = 1024;

/// Widest probe/membership key the stack-allocated key buffers hold;
/// plans with wider keys stay on the tuple path.
const MAX_KEY: usize = 8;

/// Where a value lives at run time. Variables are resolved to sources
/// at lowering, so batches carry no binding array.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Src {
    /// Column `col` of the relation joined at generator slot `slot`.
    Col { pred: u32, slot: u16, col: u16 },
    /// Lane of the computed column `LetCol(i)`.
    LetCol(u16),
    /// A compile-time constant.
    Const(Const),
}

/// How the leading atom enumerates its rows.
#[derive(Debug)]
enum Lead {
    /// Full scan of the relation.
    Scan,
    /// Constant-key probe.
    Rows { mask: u64, key: Box<[Const]> },
    /// Constant full-key membership (0 or 1 rows).
    Find { key: Box<[Const]> },
}

/// A lowered expression for a computed column — the infallible subset.
#[derive(Debug)]
enum BExpr {
    Src(Src),
    Cmp(CmpOp, Src, Src),
}

/// One batch operator.
#[derive(Debug)]
enum BStep {
    /// Keyed join: for each selected lane, enumerate the CSR rows
    /// matching `key` into generator slot `slot` of the next depth.
    Probe {
        slot: u16,
        pred: u32,
        mask: u64,
        key: Box<[Src]>,
        carry_slots: Box<[u16]>,
        carry_lets: Box<[u16]>,
    },
    /// Unkeyed join (cross product) into the next depth.
    CrossScan {
        slot: u16,
        pred: u32,
        carry_slots: Box<[u16]>,
        carry_lets: Box<[u16]>,
    },
    /// Full-key membership test: keep lanes whose key is present
    /// (`want`) or absent (negation, `!want`). Defines no columns.
    Member {
        pred: u32,
        key: Box<[Src]>,
        want: bool,
    },
    /// Comparison filter: keep lanes where `lhs op rhs`.
    Filter { op: CmpOp, lhs: Src, rhs: Src },
    /// Computed column: `lets[dst][lane] = expr(lane)`.
    Compute { dst: u16, expr: BExpr },
}

/// A naive rule plan lowered for batch execution.
#[derive(Debug)]
pub(crate) struct BatchPlan {
    lead: Lead,
    lead_pred: u32,
    steps: Box<[BStep]>,
    /// Generator slots (lead + expansions); each owns a row array per
    /// batch depth.
    n_slots: usize,
    n_lets: usize,
    /// Batch depths: the lead plus one per expansion step.
    n_depths: usize,
    heads: Box<[(u32, Box<[Src]>)]>,
    /// Relations whose strips are read — must be frozen at run time.
    needs_cols: Box<[u32]>,
    /// `(pred, mask)` probes — must have a frozen CSR at run time.
    needs_csr: Box<[(u32, u64)]>,
    /// Maximal runs of consecutive selection-only steps (filters and
    /// members) as `(start, len)` into `steps`. Pure AND-refinements
    /// commute, so each block is re-ordered adaptively at run time by
    /// observed pass rate (cheapest-most-selective first) without
    /// changing the surviving selection or the emission order.
    blocks: Box<[(u16, u16)]>,
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// Resolves a term to its source, if representable.
fn term_src(t: &RTerm, var_src: &[Option<Src>]) -> Option<Src> {
    match t {
        RTerm::Const(c) => Some(Src::Const(*c)),
        RTerm::Var(v) => var_src[*v as usize],
        RTerm::Skolem { .. } => None,
    }
}

/// Lowers a condition/let comparison of the `var ⟨cmp⟩ var/const`
/// shapes; anything else (calls, arithmetic) is outside the subset.
fn cmp_shape(e: &RExpr, var_src: &[Option<Src>]) -> Option<(CmpOp, Src, Src)> {
    let RExpr::Cmp(op, a, b) = e else { return None };
    let side = |e: &RExpr| match e {
        RExpr::Var(v) => var_src[*v as usize],
        RExpr::Const(c) => Some(Src::Const(*c)),
        _ => None,
    };
    Some((*op, side(a)?, side(b)?))
}

/// True when [`lower`] produces a batch plan for this rule's naive plan
/// — the `--explain-plan` report's "batched" tag.
pub(crate) fn batch_eligible(rule: &RRule, plan: &RulePlan) -> bool {
    lower(rule, plan).is_some()
}

/// Lowers a naive rule plan into a [`BatchPlan`], or `None` when the
/// rule is outside the batch subset (see module docs).
pub(crate) fn lower(rule: &RRule, plan: &RulePlan) -> Option<BatchPlan> {
    if !rule.existentials.is_empty() {
        return None;
    }
    let mut var_src: Vec<Option<Src>> = vec![None; rule.nvars];
    let mut steps: Vec<BStep> = Vec::new();
    let mut n_slots = 0u16;
    let mut n_lets = 0u16;
    let mut n_depths = 1usize;
    let mut lead: Option<(Lead, u32)> = None;
    let mut needs_cols: Vec<u32> = Vec::new();
    let mut needs_csr: Vec<(u32, u64)> = Vec::new();
    for (si, step) in plan.steps.iter().enumerate() {
        match step {
            Step::Atom(a) => {
                if a.key_ops.len() > MAX_KEY {
                    return None;
                }
                let slot;
                if si == 0 {
                    // The planner keys the first step on constants only.
                    let key: Option<Box<[Const]>> = a
                        .key_ops
                        .iter()
                        .map(|k| match k {
                            KeyOp::Const(c) => Some(*c),
                            KeyOp::Var(_) => None,
                        })
                        .collect();
                    let key = key?;
                    let l = if a.mask == 0 {
                        Lead::Scan
                    } else if a.full_key() {
                        Lead::Find { key }
                    } else {
                        needs_csr.push((a.pred, a.mask));
                        Lead::Rows { mask: a.mask, key }
                    };
                    lead = Some((l, a.pred));
                    needs_cols.push(a.pred);
                    slot = 0;
                    n_slots = 1;
                } else if a.full_key() {
                    // Pure membership: no columns defined, no slot.
                    let key: Box<[Src]> = a
                        .key_ops
                        .iter()
                        .map(|k| match k {
                            KeyOp::Const(c) => Some(Src::Const(*c)),
                            KeyOp::Var(v) => var_src[*v as usize],
                        })
                        .collect::<Option<_>>()?;
                    steps.push(BStep::Member {
                        pred: a.pred,
                        key,
                        want: true,
                    });
                    continue;
                } else {
                    slot = n_slots;
                    n_slots += 1;
                    n_depths += 1;
                    needs_cols.push(a.pred);
                    if a.mask == 0 {
                        steps.push(BStep::CrossScan {
                            slot,
                            pred: a.pred,
                            carry_slots: Box::new([]),
                            carry_lets: Box::new([]),
                        });
                    } else {
                        let key: Box<[Src]> = a
                            .key_ops
                            .iter()
                            .map(|k| match k {
                                KeyOp::Const(c) => Some(Src::Const(*c)),
                                KeyOp::Var(v) => var_src[*v as usize],
                            })
                            .collect::<Option<_>>()?;
                        needs_csr.push((a.pred, a.mask));
                        steps.push(BStep::Probe {
                            slot,
                            pred: a.pred,
                            mask: a.mask,
                            key,
                            carry_slots: Box::new([]),
                            carry_lets: Box::new([]),
                        });
                    }
                }
                // Check elision, mirroring the tuple chain: only ops at
                // unmasked columns run — binds record the defining
                // column, checks become filters.
                for (col, op) in a.ops.iter().enumerate() {
                    if a.mask & (1u64 << col) != 0 {
                        continue;
                    }
                    let here = Src::Col {
                        pred: a.pred,
                        slot,
                        col: col as u16,
                    };
                    match op {
                        TermOp::CheckConst(c) => steps.push(BStep::Filter {
                            op: CmpOp::Eq,
                            lhs: here,
                            rhs: Src::Const(*c),
                        }),
                        TermOp::CheckVar(v) => steps.push(BStep::Filter {
                            op: CmpOp::Eq,
                            lhs: here,
                            rhs: var_src[*v as usize]?,
                        }),
                        TermOp::Bind(v) => var_src[*v as usize] = Some(here),
                    }
                }
            }
            Step::Negated(li) => {
                let RLiteral::Negated(atom) = &rule.body[*li] else {
                    unreachable!("Negated step points at a negated literal")
                };
                if atom.terms.len() > MAX_KEY {
                    return None;
                }
                let key: Box<[Src]> = atom
                    .terms
                    .iter()
                    .map(|t| term_src(t, &var_src))
                    .collect::<Option<_>>()?;
                steps.push(BStep::Member {
                    pred: atom.pred,
                    key,
                    want: false,
                });
            }
            Step::Cond(li) => {
                let RLiteral::Cond(e) = &rule.body[*li] else {
                    unreachable!("Cond step points at a condition literal")
                };
                let (op, lhs, rhs) = cmp_shape(e, &var_src)?;
                steps.push(BStep::Filter { op, lhs, rhs });
            }
            Step::Let(li) => {
                let RLiteral::Let(v, e) = &rule.body[*li] else {
                    unreachable!("Let step points at a let literal")
                };
                let expr = match e {
                    RExpr::Const(c) => BExpr::Src(Src::Const(*c)),
                    RExpr::Var(x) => BExpr::Src(var_src[*x as usize]?),
                    RExpr::Cmp(..) => {
                        let (op, a, b) = cmp_shape(e, &var_src)?;
                        BExpr::Cmp(op, a, b)
                    }
                    // Arithmetic can fail (type errors); excluding it
                    // keeps the batch path infallible, so batch
                    // breadth-first evaluation can never surface a
                    // different first error than tuple depth-first.
                    RExpr::Binary(..) | RExpr::Call { .. } => return None,
                };
                let dst = n_lets;
                n_lets += 1;
                steps.push(BStep::Compute { dst, expr });
                match var_src[*v as usize] {
                    // Bound let: equality check against the existing
                    // binding, exactly the tuple semantics.
                    Some(prev) => steps.push(BStep::Filter {
                        op: CmpOp::Eq,
                        lhs: Src::LetCol(dst),
                        rhs: prev,
                    }),
                    None => var_src[*v as usize] = Some(Src::LetCol(dst)),
                }
            }
            Step::Agg(_) => return None,
        }
    }
    let (lead, lead_pred) = lead?;
    let heads: Box<[(u32, Box<[Src]>)]> = rule
        .head
        .iter()
        .map(|h| {
            h.terms
                .iter()
                .map(|t| term_src(t, &var_src))
                .collect::<Option<Box<[Src]>>>()
                .map(|srcs| (h.pred, srcs))
        })
        .collect::<Option<_>>()?;
    fill_carries(&mut steps, &heads);
    needs_cols.sort_unstable();
    needs_cols.dedup();
    needs_csr.sort_unstable();
    needs_csr.dedup();
    let blocks = sel_blocks(&steps);
    Some(BatchPlan {
        lead,
        lead_pred,
        steps: steps.into_boxed_slice(),
        n_slots: n_slots as usize,
        n_lets: n_lets as usize,
        n_depths,
        heads,
        needs_cols: needs_cols.into_boxed_slice(),
        needs_csr: needs_csr.into_boxed_slice(),
        blocks,
    })
}

/// Maximal runs of consecutive [`BStep::Filter`]/[`BStep::Member`]
/// steps. Computes (let bindings) and expansions end a run: a filter
/// never moves across the step that defines a column it reads or the
/// generator that grows the batch.
fn sel_blocks(steps: &[BStep]) -> Box<[(u16, u16)]> {
    let mut blocks = Vec::new();
    let mut start = None;
    for (i, s) in steps.iter().enumerate() {
        let sel_only = matches!(s, BStep::Filter { .. } | BStep::Member { .. });
        match (sel_only, start) {
            (true, None) => start = Some(i),
            (false, Some(b)) => {
                blocks.push((b as u16, (i - b) as u16));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(b) = start {
        blocks.push((b as u16, (steps.len() - b) as u16));
    }
    blocks.into_boxed_slice()
}

/// Computes each expansion step's carry lists: the slots/lets defined
/// before it that any later step (or the emission) still reads. A
/// backward walk accumulates the used sets; carrying only live columns
/// keeps the per-row copy cost of deep join chains minimal.
fn fill_carries(steps: &mut [BStep], heads: &[(u32, Box<[Src]>)]) {
    let mut used_slots: Vec<u16> = Vec::new();
    let mut used_lets: Vec<u16> = Vec::new();
    let note = |s: &Src, used_slots: &mut Vec<u16>, used_lets: &mut Vec<u16>| match s {
        Src::Col { slot, .. } => {
            if !used_slots.contains(slot) {
                used_slots.push(*slot);
            }
        }
        Src::LetCol(l) => {
            if !used_lets.contains(l) {
                used_lets.push(*l);
            }
        }
        Src::Const(_) => {}
    };
    for (_, srcs) in heads {
        for s in srcs.iter() {
            note(s, &mut used_slots, &mut used_lets);
        }
    }
    for step in steps.iter_mut().rev() {
        match step {
            BStep::Probe {
                slot,
                key,
                carry_slots,
                carry_lets,
                ..
            } => {
                // The slot is born here: drop it from the live set so
                // earlier expansions never try to carry it.
                used_slots.retain(|s| s != slot);
                let mut cs = used_slots.clone();
                let mut cl = used_lets.clone();
                cs.sort_unstable();
                cl.sort_unstable();
                *carry_slots = cs.into_boxed_slice();
                *carry_lets = cl.into_boxed_slice();
                for s in key.iter() {
                    note(s, &mut used_slots, &mut used_lets);
                }
            }
            BStep::CrossScan {
                slot,
                carry_slots,
                carry_lets,
                ..
            } => {
                used_slots.retain(|s| s != slot);
                let mut cs = used_slots.clone();
                let mut cl = used_lets.clone();
                cs.sort_unstable();
                cl.sort_unstable();
                *carry_slots = cs.into_boxed_slice();
                *carry_lets = cl.into_boxed_slice();
            }
            BStep::Member { key, .. } => {
                for s in key.iter() {
                    note(s, &mut used_slots, &mut used_lets);
                }
            }
            BStep::Filter { lhs, rhs, .. } => {
                note(lhs, &mut used_slots, &mut used_lets);
                note(rhs, &mut used_slots, &mut used_lets);
            }
            BStep::Compute { dst, expr } => {
                // Same liveness cutoff for computed columns: the column
                // exists only from this step on.
                used_lets.retain(|l| l != dst);
                match expr {
                    BExpr::Src(s) => note(s, &mut used_slots, &mut used_lets),
                    BExpr::Cmp(_, a, b) => {
                        note(a, &mut used_slots, &mut used_lets);
                        note(b, &mut used_slots, &mut used_lets);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

/// Whether every relation the plan scans or probes currently has a
/// frozen image with the needed layout. A stratum freezes only the
/// relations it reads stably, but a relation it writes may still carry
/// an image from before: writes keep a carried image equal to a fresh
/// build over the current rows (`Relation::check_fresh`), so the batch
/// path is sound for any relation that has one. A relation without one
/// (never frozen, or its image dropped by a write) sends the plan down
/// the tuple chain.
pub(crate) fn ready(bp: &BatchPlan, relations: &Relations) -> bool {
    bp.needs_cols
        .iter()
        .all(|&p| relations[p as usize].columnar().is_some())
        && bp.needs_csr.iter().all(|&(p, m)| {
            relations[p as usize]
                .columnar()
                .is_some_and(|c| c.csr(m).is_some())
        })
}

/// One batch of candidate join results: per-slot row arrays + computed
/// columns, all `len` lanes long, refined by the selection vector.
#[derive(Default)]
struct Buf {
    rows: Vec<Vec<u32>>,
    lets: Vec<Vec<Const>>,
    len: usize,
    /// Selected lane indices, ascending. Filters shrink it in place.
    sel: Vec<u32>,
}

impl Buf {
    fn new(n_slots: usize, n_lets: usize) -> Buf {
        Buf {
            rows: vec![Vec::new(); n_slots],
            lets: vec![Vec::new(); n_lets],
            len: 0,
            sel: Vec::new(),
        }
    }

    fn clear(&mut self) {
        for r in &mut self.rows {
            r.clear();
        }
        for l in &mut self.lets {
            l.clear();
        }
        self.len = 0;
        self.sel.clear();
    }
}

/// Reusable gather/staging buffers for one rule evaluation.
#[derive(Default)]
struct Scratch {
    ra: Vec<u8>,
    ka: Vec<u64>,
    rb: Vec<u8>,
    kb: Vec<u64>,
    /// Kernel output: surviving dense indices into the selection.
    idx: Vec<u32>,
    /// Compute staging (values per selected lane).
    vals: Vec<Const>,
    /// Emission staging (one head tuple).
    tuple: Vec<Const>,
    /// Per-step membership cache for single-strip-column member keys:
    /// `cache[row]` is whether the member predicate holds for that row
    /// of the key's source strip. Built lazily on a step's first batch;
    /// one lookup per *source row* instead of one per expanded lane.
    member_cache: Vec<Option<Box<[bool]>>>,
    /// Adaptive execution order per selection block (original step
    /// indices), re-sorted by observed pass rate after every batch.
    block_order: Vec<Vec<u16>>,
    /// Cumulative lanes in / lanes surviving per step, driving the sort.
    step_in: Vec<u64>,
    step_out: Vec<u64>,
}

/// A [`Src`] resolved against one batch: strip and column references
/// hoisted out of the per-lane loops, so reading a lane is two indexed
/// loads with no relation lookup or enum walk.
enum RSrc<'a> {
    /// Frozen column strip, indirected through the slot's row array.
    Strip {
        strip: &'a [Const],
        rows: &'a [u32],
    },
    /// Computed column, indexed by lane directly.
    Lets(&'a [Const]),
    Const(Const),
}

impl RSrc<'_> {
    #[inline(always)]
    fn get(&self, lane: usize) -> Const {
        match self {
            RSrc::Strip { strip, rows } => strip[rows[lane] as usize],
            RSrc::Lets(col) => col[lane],
            RSrc::Const(c) => *c,
        }
    }
}

/// Resolves `src` against `buf` ([`ready`] guarantees the strips exist).
fn resolve<'a>(src: &Src, relations: &'a Relations, buf: &'a Buf) -> RSrc<'a> {
    match *src {
        Src::Const(c) => RSrc::Const(c),
        Src::LetCol(i) => RSrc::Lets(&buf.lets[i as usize]),
        Src::Col { pred, slot, col } => RSrc::Strip {
            strip: relations[pred as usize]
                .columnar()
                .expect("batch inputs are frozen (ready)")
                .col(col as usize),
            rows: &buf.rows[slot as usize],
        },
    }
}

/// Evaluates a batch plan against `relations`, emitting into `ctx`
/// exactly the derivation sequence the tuple chain would. Caller
/// guarantees `!ctx.provenance` and [`ready`].
pub(crate) fn eval_batch(
    bp: &BatchPlan,
    relations: &Relations,
    ctx: &mut RunCtx<'_>,
) -> Result<()> {
    let mut bufs: Vec<Buf> = (0..bp.n_depths)
        .map(|_| Buf::new(bp.n_slots, bp.n_lets))
        .collect();
    let mut scratch = Scratch::default();
    scratch.member_cache.resize(bp.steps.len(), None);
    scratch.block_order = bp
        .blocks
        .iter()
        .map(|&(s, l)| (s..s + l).collect())
        .collect();
    scratch.step_in = vec![0; bp.steps.len()];
    scratch.step_out = vec![0; bp.steps.len()];
    let rel = &relations[bp.lead_pred as usize];
    match &bp.lead {
        Lead::Scan => {
            let n = rel.len() as u32;
            let mut start = 0u32;
            while start < n {
                let take = BATCH_WIDTH.min((n - start) as usize) as u32;
                bufs[0].rows[0].extend(start..start + take);
                bufs[0].len = take as usize;
                start += take;
                if bufs[0].len == BATCH_WIDTH {
                    flush(bp, relations, &mut bufs, 0, &mut scratch, ctx)?;
                }
            }
        }
        Lead::Rows { mask, key } => {
            feed_lead(
                bp,
                relations,
                &mut bufs,
                rel.lookup_rows(*mask, key),
                &mut scratch,
                ctx,
            )?;
        }
        Lead::Find { key } => {
            if let Some(row) = rel.find(key) {
                bufs[0].rows[0].push(row);
                bufs[0].len = 1;
            }
        }
    }
    if bufs[0].len > 0 {
        // Tail batch (< WIDTH).
        flush(bp, relations, &mut bufs, 0, &mut scratch, ctx)?;
    }
    Ok(())
}

/// Feeds probed lead rows into depth 0 in `BATCH_WIDTH` chunks.
fn feed_lead(
    bp: &BatchPlan,
    relations: &Relations,
    bufs: &mut [Buf],
    rows: &[u32],
    scratch: &mut Scratch,
    ctx: &mut RunCtx<'_>,
) -> Result<()> {
    let mut m = 0usize;
    while m < rows.len() {
        let take = BATCH_WIDTH.min(rows.len() - m);
        bufs[0].rows[0].extend_from_slice(&rows[m..m + take]);
        bufs[0].len = take;
        m += take;
        if bufs[0].len == BATCH_WIDTH {
            flush(bp, relations, bufs, 0, scratch, ctx)?;
        }
    }
    Ok(())
}

/// Selects all `len` lanes of `bufs[0]`, runs the remaining steps, then
/// resets the batch for refilling. `bufs` is the depth sub-slice whose
/// first element is the batch being flushed.
fn flush(
    bp: &BatchPlan,
    relations: &Relations,
    bufs: &mut [Buf],
    step_idx: usize,
    scratch: &mut Scratch,
    ctx: &mut RunCtx<'_>,
) -> Result<()> {
    {
        let out = &mut bufs[0];
        let n = out.len as u32;
        out.sel.clear();
        out.sel.extend(0..n);
    }
    let r = run_steps(bp, relations, bufs, step_idx, scratch, ctx);
    bufs[0].clear();
    r
}

/// Compacts a selection in place to the dense survivor indices in
/// `idx` (ascending, so `w <= i` and in-place writes are safe).
fn compact_sel(sel: &mut Vec<u32>, idx: &[u32]) {
    let mut w = 0usize;
    for &i in idx {
        sel[w] = sel[i as usize];
        w += 1;
    }
    sel.truncate(w);
}

/// Runs plan steps from `step_idx` over the selected lanes of `bufs[0]`,
/// expanding into the deeper batches of `bufs[1..]` as needed, and emits
/// at the end. All depth indexing is relative: expansions recurse with
/// the sub-slice starting at their output depth.
fn run_steps(
    bp: &BatchPlan,
    relations: &Relations,
    bufs: &mut [Buf],
    step_idx: usize,
    scratch: &mut Scratch,
    ctx: &mut RunCtx<'_>,
) -> Result<()> {
    let mut i = step_idx;
    while i < bp.steps.len() {
        if bufs[0].sel.is_empty() {
            return Ok(());
        }
        // Selection blocks run as a unit in their adaptive order.
        if let Some(bi) = bp.blocks.iter().position(|&(s, _)| s as usize == i) {
            run_block(bp, relations, &mut bufs[0], bi, scratch);
            i += bp.blocks[bi].1 as usize;
            continue;
        }
        match &bp.steps[i] {
            BStep::Filter { .. } | BStep::Member { .. } => {
                unreachable!("selection steps always start inside a block")
            }
            BStep::Compute { dst, expr } => {
                scratch.vals.clear();
                {
                    let buf = &bufs[0];
                    match expr {
                        BExpr::Src(s) => {
                            let rs = resolve(s, relations, buf);
                            for &lane in &buf.sel {
                                scratch.vals.push(rs.get(lane as usize));
                            }
                        }
                        BExpr::Cmp(op, a, b) => {
                            let ra = resolve(a, relations, buf);
                            let rb = resolve(b, relations, buf);
                            for &lane in &buf.sel {
                                scratch.vals.push(Const::Bool(compare(
                                    *op,
                                    ra.get(lane as usize),
                                    rb.get(lane as usize),
                                )));
                            }
                        }
                    }
                }
                let buf = &mut bufs[0];
                let col = &mut buf.lets[*dst as usize];
                col.clear();
                col.resize(buf.len, Const::Bool(false));
                for (k, &lane) in buf.sel.iter().enumerate() {
                    col[lane as usize] = scratch.vals[k];
                }
            }
            BStep::Probe {
                slot,
                pred,
                mask,
                key,
                carry_slots,
                carry_lets,
            } => {
                let (cur, rest) = bufs.split_first_mut().expect("expansion has a next depth");
                return expand(
                    bp,
                    relations,
                    cur,
                    rest,
                    i + 1,
                    *slot,
                    *pred,
                    Some((*mask, key)),
                    carry_slots,
                    carry_lets,
                    scratch,
                    ctx,
                );
            }
            BStep::CrossScan {
                slot,
                pred,
                carry_slots,
                carry_lets,
            } => {
                let (cur, rest) = bufs.split_first_mut().expect("expansion has a next depth");
                return expand(
                    bp,
                    relations,
                    cur,
                    rest,
                    i + 1,
                    *slot,
                    *pred,
                    None,
                    carry_slots,
                    carry_lets,
                    scratch,
                    ctx,
                );
            }
        }
        i += 1;
    }
    emit(bp, relations, &bufs[0], scratch, ctx);
    Ok(())
}

/// Runs the `bi`-th selection block over `buf` in its current adaptive
/// order, then re-sorts the order by cumulative pass rate so the most
/// selective step runs first on later batches. Selection steps only
/// shrink `sel` (the survivor set is order-independent), so any order
/// yields the same lanes — and the same emissions — as plan order.
fn run_block(
    bp: &BatchPlan,
    relations: &Relations,
    buf: &mut Buf,
    bi: usize,
    scratch: &mut Scratch,
) {
    let order = std::mem::take(&mut scratch.block_order[bi]);
    for &si in &order {
        if buf.sel.is_empty() {
            break;
        }
        let before = buf.sel.len() as u64;
        run_sel_step(&bp.steps[si as usize], si as usize, relations, buf, scratch);
        scratch.step_in[si as usize] += before;
        scratch.step_out[si as usize] += buf.sel.len() as u64;
    }
    let mut order = order;
    if order.len() > 1 {
        let rate = |s: u16| {
            let inn = scratch.step_in[s as usize];
            if inn == 0 {
                1.0
            } else {
                scratch.step_out[s as usize] as f64 / inn as f64
            }
        };
        order.sort_by(|&a, &b| {
            rate(a)
                .partial_cmp(&rate(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }
    scratch.block_order[bi] = order;
}

/// One selection-only step (filter or membership test) over the
/// selected lanes of `buf`, shrinking `buf.sel` in place.
fn run_sel_step(
    step: &BStep,
    step_idx: usize,
    relations: &Relations,
    buf: &mut Buf,
    scratch: &mut Scratch,
) {
    match step {
        BStep::Filter { op, lhs, rhs } => {
            scratch.idx.clear();
            {
                let buf = &*buf;
                let exact = gather(lhs, relations, buf, &mut scratch.ra, &mut scratch.ka)
                    && gather(rhs, relations, buf, &mut scratch.rb, &mut scratch.kb);
                if exact {
                    select_cmp(
                        *op,
                        &scratch.ra,
                        &scratch.ka,
                        &scratch.rb,
                        &scratch.kb,
                        &mut scratch.idx,
                    );
                } else {
                    // Huge-magnitude ints break the packed order (see
                    // kernels docs): compare the lanes exactly.
                    let a = resolve(lhs, relations, buf);
                    let b = resolve(rhs, relations, buf);
                    for (k, &lane) in buf.sel.iter().enumerate() {
                        if compare(*op, a.get(lane as usize), b.get(lane as usize)) {
                            scratch.idx.push(k as u32);
                        }
                    }
                }
            }
            compact_sel(&mut buf.sel, &scratch.idx);
        }
        BStep::Member { pred, key, want } => {
            scratch.idx.clear();
            if let [Src::Col {
                pred: sp,
                slot,
                col,
            }] = key[..]
            {
                // Single strip-column key: membership depends only on
                // the source row, so test each source row once and
                // answer every lane with an array load.
                let rel = &relations[*pred as usize];
                let cache = scratch.member_cache[step_idx].get_or_insert_with(|| {
                    relations[sp as usize]
                        .columnar()
                        .expect("batch inputs are frozen (ready)")
                        .col(col as usize)
                        .iter()
                        .map(|c| rel.find(std::slice::from_ref(c)).is_some())
                        .collect()
                });
                let rows = &buf.rows[slot as usize];
                for (k, &lane) in buf.sel.iter().enumerate() {
                    if cache[rows[lane as usize] as usize] == *want {
                        scratch.idx.push(k as u32);
                    }
                }
            } else {
                let buf = &*buf;
                let rel = &relations[*pred as usize];
                let rkey: Vec<RSrc> = key.iter().map(|s| resolve(s, relations, buf)).collect();
                let mut kb = [Const::Bool(false); MAX_KEY];
                let klen = key.len();
                // Present/absent per distinct key; the canonical
                // per-round sort clusters equal keys, so memoizing
                // the last one skips most map lookups.
                let mut memo: Option<([Const; MAX_KEY], bool)> = None;
                for (k, &lane) in buf.sel.iter().enumerate() {
                    for (j, rs) in rkey.iter().enumerate() {
                        kb[j] = rs.get(lane as usize);
                    }
                    let present = match &memo {
                        Some((mk, p)) if mk[..klen] == kb[..klen] => *p,
                        _ => {
                            let p = rel.find(&kb[..klen]).is_some();
                            memo = Some((kb, p));
                            p
                        }
                    };
                    if present == *want {
                        scratch.idx.push(k as u32);
                    }
                }
            }
            compact_sel(&mut buf.sel, &scratch.idx);
        }
        _ => unreachable!("selection blocks contain only filters and members"),
    }
}

/// Packs `src` for every selected lane of `buf` into `ranks`/`keys`;
/// returns whether every lane packed order-exactly.
fn gather(
    src: &Src,
    relations: &Relations,
    buf: &Buf,
    ranks: &mut Vec<u8>,
    keys: &mut Vec<u64>,
) -> bool {
    ranks.clear();
    keys.clear();
    let mut exact = true;
    match resolve(src, relations, buf) {
        RSrc::Const(c) => {
            let (r, k) = pack(c);
            ranks.resize(buf.sel.len(), r);
            keys.resize(buf.sel.len(), k);
            exact = pack_exact(c);
        }
        RSrc::Strip { strip, rows } => {
            ranks.reserve(buf.sel.len());
            keys.reserve(buf.sel.len());
            for &lane in &buf.sel {
                let c = strip[rows[lane as usize] as usize];
                let (r, k) = pack(c);
                ranks.push(r);
                keys.push(k);
                exact &= pack_exact(c);
            }
        }
        RSrc::Lets(col) => {
            ranks.reserve(buf.sel.len());
            keys.reserve(buf.sel.len());
            for &lane in &buf.sel {
                let c = col[lane as usize];
                let (r, k) = pack(c);
                ranks.push(r);
                keys.push(k);
                exact &= pack_exact(c);
            }
        }
    }
    exact
}

/// Expansion: enumerates the join matches of every selected lane of
/// `cur` into `rest[0]`, flushing each full output batch through the
/// remaining steps before generating more — ascending lane order plus
/// flush-before-continue is what preserves the tuple chain's
/// depth-first emission order. Copies are chunked: the new slot's rows
/// arrive via slice/range extends and every carried column is a
/// run-length `resize` (one value per input lane), not per-row pushes.
#[allow(clippy::too_many_arguments)]
fn expand(
    bp: &BatchPlan,
    relations: &Relations,
    cur: &Buf,
    rest: &mut [Buf],
    next_step: usize,
    slot: u16,
    pred: u32,
    probe: Option<(u64, &[Src])>,
    carry_slots: &[u16],
    carry_lets: &[u16],
    scratch: &mut Scratch,
    ctx: &mut RunCtx<'_>,
) -> Result<()> {
    let rel = &relations[pred as usize];
    rest[0].clear();
    let rkey: Vec<RSrc> = probe
        .map(|(_, key)| key.iter().map(|s| resolve(s, relations, cur)).collect())
        .unwrap_or_default();
    let mut kb = [Const::Bool(false); MAX_KEY];
    let mut memo: Option<([Const; MAX_KEY], &[u32])> = None;
    for &lane in &cur.sel {
        let lane = lane as usize;
        // Cross scans enumerate every row; probes the CSR matches.
        let matches: &[u32] = match probe {
            None => &[],
            Some((mask, key)) => {
                let klen = key.len();
                for (j, rs) in rkey.iter().enumerate() {
                    kb[j] = rs.get(lane);
                }
                match &memo {
                    // Canonical round ordering clusters equal keys
                    // (e.g. close-link pairs share a holder), so the
                    // last key's row list usually answers directly.
                    Some((mk, rows)) if mk[..klen] == kb[..klen] => rows,
                    _ => {
                        let rows = rel.lookup_rows(mask, &kb[..klen]);
                        memo = Some((kb, rows));
                        rows
                    }
                }
            }
        };
        let total = if probe.is_none() {
            rel.len()
        } else {
            matches.len()
        };
        let mut m = 0usize;
        while m < total {
            let out = &mut rest[0];
            let take = (BATCH_WIDTH - out.len).min(total - m);
            match probe {
                Some(_) => out.rows[slot as usize].extend_from_slice(&matches[m..m + take]),
                None => out.rows[slot as usize].extend(m as u32..(m + take) as u32),
            }
            for &s in carry_slots {
                let v = cur.rows[s as usize][lane];
                let r = &mut out.rows[s as usize];
                r.resize(r.len() + take, v);
            }
            for &l in carry_lets {
                let v = cur.lets[l as usize][lane];
                let c = &mut out.lets[l as usize];
                c.resize(c.len() + take, v);
            }
            out.len += take;
            m += take;
            if out.len == BATCH_WIDTH {
                flush(bp, relations, rest, next_step, scratch, ctx)?;
            }
        }
    }
    if rest[0].len > 0 {
        flush(bp, relations, rest, next_step, scratch, ctx)?;
    }
    Ok(())
}

/// Emits every selected lane's head tuples, replicating the tuple
/// chain's provenance-off emission exactly: relation-level dup skip,
/// then the round buffer's own dup skip. Head sources are
/// resolved once per batch; the lane loop stays outermost so multi-head
/// rules keep the tuple chain's per-row head order.
fn emit(
    bp: &BatchPlan,
    relations: &Relations,
    buf: &Buf,
    scratch: &mut Scratch,
    ctx: &mut RunCtx<'_>,
) {
    let heads: Vec<(u32, Vec<RSrc>)> = bp
        .heads
        .iter()
        .map(|(p, srcs)| {
            (
                *p,
                srcs.iter().map(|s| resolve(s, relations, buf)).collect(),
            )
        })
        .collect();
    for &lane in &buf.sel {
        for (pred, rsrcs) in &heads {
            scratch.tuple.clear();
            for rs in rsrcs {
                scratch.tuple.push(rs.get(lane as usize));
            }
            let hash = row_hash(&scratch.tuple);
            if relations[*pred as usize]
                .find_hashed(hash, &scratch.tuple)
                .is_some()
            {
                continue;
            }
            ctx.ws.out.push(*pred, hash, &scratch.tuple, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Empty batch: no survivors in, no survivors out — and the loop in
    /// [`compact_sel`] must not index past the (empty) selection.
    #[test]
    fn compact_sel_empty_batch() {
        let mut sel: Vec<u32> = Vec::new();
        compact_sel(&mut sel, &[]);
        assert!(sel.is_empty());
        // A populated selection where the kernel kept nothing.
        let mut sel = vec![0, 1, 2, 3];
        compact_sel(&mut sel, &[]);
        assert!(sel.is_empty());
    }

    /// All-selected: the identity survivor list leaves the selection
    /// untouched, including a non-contiguous one from earlier filters.
    #[test]
    fn compact_sel_all_selected() {
        let mut sel = vec![3, 7, 9, 42, 1023];
        let idx: Vec<u32> = (0..sel.len() as u32).collect();
        compact_sel(&mut sel, &idx);
        assert_eq!(sel, vec![3, 7, 9, 42, 1023]);
    }

    /// Tail batch smaller than [`BATCH_WIDTH`]: survivor indices are
    /// *dense positions into the selection*, not lane numbers, so a
    /// partial last batch compacts exactly like a full one.
    #[test]
    fn compact_sel_tail_shorter_than_batch_width() {
        let n = 37; // deliberately < BATCH_WIDTH and not a multiple of 8
        assert!(n < BATCH_WIDTH);
        let mut sel: Vec<u32> = (0..n as u32).collect();
        // Keep every third survivor, by dense position.
        let idx: Vec<u32> = (0..n as u32).step_by(3).collect();
        compact_sel(&mut sel, &idx);
        assert_eq!(sel, (0..n as u32).step_by(3).collect::<Vec<_>>());
        // Second refinement over the already-sparse selection.
        compact_sel(&mut sel, &[0, 2, 4]);
        assert_eq!(sel, vec![0, 6, 12]);
    }

    /// Selection blocks are the maximal runs of filters/members; computes
    /// and expansions end a run (they define columns or change depth, so
    /// they must not be reordered past).
    #[test]
    fn sel_blocks_split_on_non_selection_steps() {
        let f = || BStep::Filter {
            op: CmpOp::Ne,
            lhs: Src::LetCol(0),
            rhs: Src::LetCol(1),
        };
        let m = || BStep::Member {
            pred: 0,
            key: Box::new([Src::LetCol(0)]),
            want: true,
        };
        let c = || BStep::Compute {
            dst: 0,
            expr: BExpr::Src(Src::LetCol(0)),
        };
        let steps = [f(), m(), f(), c(), f(), c(), m(), f()];
        assert_eq!(&*sel_blocks(&steps), &[(0, 3), (4, 1), (6, 2)]);
        assert!(sel_blocks(&[c()]).is_empty());
        assert!(sel_blocks(&[]).is_empty());
    }
}
