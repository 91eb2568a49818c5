//! Cost-based join planning for rule bodies.
//!
//! At stratum entry the engine collects per-relation cardinality statistics
//! ([`StratumStats`]) and compiles every rule of the stratum into execution
//! plans ([`RulePlans`]): one *naive* plan for round 0 and one *delta* plan
//! per positive body atom for the semi-naive rounds. A plan is a total
//! order over the body literals plus, for each positive atom, the
//! pre-compiled unification program ([`TermOp`]) and probe key
//! ([`AtomStep::key_ops`]) under that order.
//!
//! The planner is a greedy bound-variable/selectivity heuristic: it
//! repeatedly picks the unplaced atom with the smallest estimated
//! cardinality given the variables bound so far (`rows / Π distinct(col)`
//! over bound columns), and schedules negated atoms, conditions and `Let`
//! bindings eagerly at the earliest point where their variables are bound —
//! filters commute with joins, so pushing them down only prunes the
//! enumeration. Delta plans force the delta atom first: its rows are
//! exactly the facts derived in the previous round, almost always the
//! smallest input by far.
//!
//! **Reordering legality.** Only `pure` rules are reordered. The other
//! rules observe evaluation *order* through shared state — aggregate
//! running totals (`total += value` over floats), Skolem OID invention
//! sequence, symbol interning by external calls — so they always get the
//! *identity plan* (body order as written, masks exactly as the original
//! bound-position analysis computed them). Together with the engine's
//! canonical per-round derivation ordering this makes the planner
//! byte-identical to the unplanned oracle: the set of body matches of a
//! reorderable rule is order-independent, and everything order-sensitive is
//! never reordered.
//!
//! Index registration moved here from rule resolution: only the `(pred,
//! mask)` pairs the chosen plans actually probe get an index, instead of
//! one per syntactic key pattern.

use std::fmt::Write as _;

use crate::ast::AggFunc;
use crate::db::{Database, Relation, Relations};
use crate::eval::resolve::{AggKind, RAtom, RExpr, RLiteral, RRule, RTerm};
use crate::fx::{FxHashMap, FxHashSet};
use crate::value::Const;

/// Rows sampled per relation when estimating per-column distinct counts.
pub(crate) const DISTINCT_SAMPLE: usize = 4096;

/// One column of an atom's unification program.
#[derive(Debug, Clone)]
pub(crate) enum TermOp {
    /// The column must equal this constant.
    CheckConst(Const),
    /// The column must equal the current binding of this variable (bound by
    /// an earlier step, or by an earlier column of the same atom).
    CheckVar(u32),
    /// The column binds this variable.
    Bind(u32),
}

/// One component of an atom's index-probe key, in mask-bit order.
#[derive(Debug, Clone)]
pub(crate) enum KeyOp {
    Const(Const),
    Var(u32),
}

/// A positive atom scheduled in a plan.
#[derive(Debug, Clone)]
pub(crate) struct AtomStep {
    /// Original body literal index (delta restriction is keyed on this).
    pub lit: usize,
    pub pred: u32,
    /// Bound-position mask under this plan's order.
    pub mask: u64,
    /// Per-column unification ops (length = atom arity).
    pub ops: Vec<TermOp>,
    /// Probe-key components for `mask` (empty when `mask == 0`).
    pub key_ops: Vec<KeyOp>,
    /// Variables this atom binds (for backtracking undo).
    pub binds: Vec<u32>,
    /// Slot among the rule's positive literals *in original body order* —
    /// provenance supports are recorded per slot so parent order is
    /// plan-independent.
    pub support_slot: usize,
    /// Estimated matches per enumeration of this step (for reports).
    pub est: f64,
}

impl AtomStep {
    /// True when every column is part of the probe key. Such a step is a
    /// pure membership test: the relation's dedup map answers it directly
    /// ([`Relation::find`]), so no per-column hash index is registered or
    /// built for it.
    pub fn full_key(&self) -> bool {
        self.ops.len() < 64 && self.mask == (1u64 << self.ops.len()) - 1
    }
}

/// A scheduled body literal. Non-atom variants index into `rule.body`.
#[derive(Debug, Clone)]
pub(crate) enum Step {
    Atom(AtomStep),
    Negated(usize),
    Cond(usize),
    Let(usize),
    Agg(usize),
}

/// A complete execution order for one rule body.
#[derive(Debug, Clone)]
pub(crate) struct RulePlan {
    pub steps: Vec<Step>,
    /// Number of positive literals (provenance support slots).
    pub n_support: usize,
    /// False when this is the identity plan (the oracle, or the rule is
    /// order-sensitive).
    pub planned: bool,
}

/// All plans of one rule: the naive round-0 plan plus one delta plan per
/// positive literal (parallel to `rule.positive_literals`).
#[derive(Debug, Clone)]
pub(crate) struct RulePlans {
    pub naive: RulePlan,
    pub delta: Vec<RulePlan>,
}

/// Cardinality statistics of one relation at stratum entry.
#[derive(Debug, Clone)]
pub(crate) struct PredStats {
    pub rows: usize,
    /// Estimated distinct values per column.
    pub distinct: Vec<f64>,
}

impl PredStats {
    fn measure(rel: &Relation) -> Self {
        let rows = rel.len();
        let arity = if rows > 0 { rel.row(0).len() } else { 0 };
        let sample = rows.min(DISTINCT_SAMPLE);
        let mut sets: Vec<FxHashSet<Const>> = vec![FxHashSet::default(); arity];
        for row in rel.rows().take(sample) {
            for (i, c) in row.iter().enumerate() {
                sets[i].insert(*c);
            }
        }
        let distinct = sets
            .iter()
            .map(|s| {
                let d = s.len();
                // Saturation heuristic: if every sampled value was fresh the
                // column looks key-like — extrapolate to the full relation;
                // otherwise assume the domain has plateaued.
                if d == sample && rows > sample {
                    rows as f64
                } else {
                    d as f64
                }
            })
            .collect();
        PredStats { rows, distinct }
    }
}

/// Statistics for every predicate a stratum's rule bodies read.
#[derive(Debug, Default)]
pub(crate) struct StratumStats {
    preds: FxHashMap<u32, PredStats>,
}

impl StratumStats {
    pub fn collect(rules: &[RRule], stratum: &[usize], relations: &Relations) -> Self {
        let mut preds: FxHashMap<u32, PredStats> = FxHashMap::default();
        for &ri in stratum {
            for lit in &rules[ri].body {
                if let RLiteral::Atom { atom, .. } = lit {
                    preds
                        .entry(atom.pred)
                        .or_insert_with(|| PredStats::measure(&relations[atom.pred as usize]));
                }
            }
        }
        StratumStats { preds }
    }

    /// As [`StratumStats::collect`], but restricted to predicates read by
    /// rules the planner may actually reorder (`pure`), reusing cached
    /// measurements for relations whose row count is unchanged. Sampling
    /// reads the first [`DISTINCT_SAMPLE`] rows and relations only grow,
    /// so an unchanged length implies unchanged statistics. Identity-planned rules
    /// never consult stats for ordering, which makes skipping their
    /// predicates observable only in `--explain-plan` estimates — the hot
    /// replanning loop must not pay to sample wide attribute relations that
    /// only order-sensitive rules read.
    pub fn collect_reorderable(
        rules: &[RRule],
        stratum: &[usize],
        relations: &Relations,
        cache: &mut FxHashMap<u32, PredStats>,
    ) -> Self {
        let mut preds: FxHashMap<u32, PredStats> = FxHashMap::default();
        for &ri in stratum {
            if !rules[ri].pure {
                continue;
            }
            for lit in &rules[ri].body {
                if let RLiteral::Atom { atom, .. } = lit {
                    if preds.contains_key(&atom.pred) {
                        continue;
                    }
                    let rel = &relations[atom.pred as usize];
                    let ps = match cache.get(&atom.pred) {
                        Some(ps) if ps.rows == rel.len() => ps.clone(),
                        _ => {
                            let ps = PredStats::measure(rel);
                            cache.insert(atom.pred, ps.clone());
                            ps
                        }
                    };
                    preds.insert(atom.pred, ps);
                }
            }
        }
        StratumStats { preds }
    }

    fn pred(&self, pred: u32) -> Option<&PredStats> {
        self.preds.get(&pred)
    }
}

/// Estimated matches of `atom` per enumeration, given the bound variables.
fn estimate(atom: &RAtom, bound: &[bool], stats: &StratumStats) -> f64 {
    let Some(ps) = stats.pred(atom.pred) else {
        return 1.0;
    };
    let mut est = ps.rows.max(1) as f64;
    for (i, t) in atom.terms.iter().enumerate() {
        let restricted = match t {
            RTerm::Const(_) => true,
            RTerm::Var(v) => bound[*v as usize],
            RTerm::Skolem { .. } => false,
        };
        if restricted {
            est /= ps.distinct.get(i).copied().unwrap_or(1.0).max(1.0);
        }
    }
    est.max(1e-3)
}

fn atom_vars_bound(atom: &RAtom, bound: &[bool]) -> bool {
    atom.terms.iter().all(|t| match t {
        RTerm::Var(v) => bound[*v as usize],
        RTerm::Const(_) => true,
        RTerm::Skolem { .. } => false,
    })
}

fn expr_vars_bound(e: &RExpr, bound: &[bool]) -> bool {
    match e {
        RExpr::Var(v) => bound[*v as usize],
        RExpr::Const(_) => true,
        RExpr::Binary(_, a, b) | RExpr::Cmp(_, a, b) => {
            expr_vars_bound(a, bound) && expr_vars_bound(b, bound)
        }
        RExpr::Call { args, .. } => args.iter().all(|a| expr_vars_bound(a, bound)),
    }
}

fn bind_atom_vars(atom: &RAtom, bound: &mut [bool]) {
    for t in &atom.terms {
        if let RTerm::Var(v) = t {
            bound[*v as usize] = true;
        }
    }
}

/// Greedy order selection: delta/forced atom first, then cheapest-next atom
/// with eager filter placement. Returns original-literal indexes.
fn choose_order(rule: &RRule, stats: &StratumStats, force_first: Option<usize>) -> Vec<usize> {
    let body = &rule.body;
    let n_atoms = body
        .iter()
        .filter(|l| matches!(l, RLiteral::Atom { .. }))
        .count();
    let mut order = Vec::with_capacity(body.len());
    let mut used = vec![false; body.len()];
    let mut bound = vec![false; rule.nvars];
    let mut atoms_placed = 0usize;

    if let Some(li) = force_first {
        if let RLiteral::Atom { atom, .. } = &body[li] {
            bind_atom_vars(atom, &mut bound);
            used[li] = true;
            order.push(li);
            atoms_placed += 1;
        }
    }

    loop {
        // Eager placement of negations, conditions and Lets whose inputs
        // are bound — but never ahead of the first atom, so the batch
        // tier can always lead with the plan's first step.
        if atoms_placed > 0 || n_atoms == 0 {
            let mut progress = true;
            while progress {
                progress = false;
                for li in 0..body.len() {
                    if used[li] {
                        continue;
                    }
                    let eligible = match &body[li] {
                        RLiteral::Atom { .. } | RLiteral::Agg { .. } => false,
                        RLiteral::Negated(a) => atom_vars_bound(a, &bound),
                        RLiteral::Cond(e) => expr_vars_bound(e, &bound),
                        RLiteral::Let(_, e) => expr_vars_bound(e, &bound),
                    };
                    if eligible {
                        if let RLiteral::Let(v, _) = &body[li] {
                            bound[*v as usize] = true;
                        }
                        used[li] = true;
                        order.push(li);
                        progress = true;
                    }
                }
            }
        }
        // Cheapest next atom; ties resolve to the leftmost literal so plans
        // are deterministic.
        let mut best: Option<(f64, usize)> = None;
        for li in 0..body.len() {
            if used[li] {
                continue;
            }
            if let RLiteral::Atom { atom, .. } = &body[li] {
                let est = estimate(atom, &bound, stats);
                if best.is_none_or(|(b, _)| est < b) {
                    best = Some((est, li));
                }
            }
        }
        match best {
            Some((_, li)) => {
                if let RLiteral::Atom { atom, .. } = &body[li] {
                    bind_atom_vars(atom, &mut bound);
                }
                used[li] = true;
                order.push(li);
                atoms_placed += 1;
            }
            None => break,
        }
    }
    // Anything left (the aggregate literal, which must stay last; or a
    // literal the eager pass could not prove bound) keeps body order.
    for (li, was_used) in used.iter().enumerate() {
        if !was_used {
            order.push(li);
        }
    }
    order
}

/// Checks that an order respects boundness: every negation/condition/Let
/// input is bound by earlier steps, and the aggregate (if any) stays last.
fn order_is_legal(rule: &RRule, order: &[usize]) -> bool {
    let mut bound = vec![false; rule.nvars];
    for (pos, &li) in order.iter().enumerate() {
        match &rule.body[li] {
            RLiteral::Atom { atom, .. } => bind_atom_vars(atom, &mut bound),
            RLiteral::Negated(a) => {
                if !atom_vars_bound(a, &bound) {
                    return false;
                }
            }
            RLiteral::Cond(e) => {
                if !expr_vars_bound(e, &bound) {
                    return false;
                }
            }
            RLiteral::Let(v, e) => {
                if !expr_vars_bound(e, &bound) {
                    return false;
                }
                bound[*v as usize] = true;
            }
            RLiteral::Agg { .. } => {
                if pos + 1 != order.len() {
                    return false;
                }
            }
        }
    }
    true
}

/// Compiles an order into executable steps, recomputing masks and
/// unification ops under that order.
fn build_plan(rule: &RRule, order: &[usize], stats: &StratumStats, planned: bool) -> RulePlan {
    let mut bound = vec![false; rule.nvars];
    let mut steps = Vec::with_capacity(order.len());
    for &li in order {
        match &rule.body[li] {
            RLiteral::Atom { atom, .. } => {
                let est = estimate(atom, &bound, stats);
                let mut mask = 0u64;
                let mut ops = Vec::with_capacity(atom.terms.len());
                let mut key_ops = Vec::new();
                let mut binds: Vec<u32> = Vec::new();
                for (i, t) in atom.terms.iter().enumerate() {
                    match t {
                        RTerm::Const(c) => {
                            mask |= 1 << i;
                            ops.push(TermOp::CheckConst(*c));
                            key_ops.push(KeyOp::Const(*c));
                        }
                        RTerm::Var(v) => {
                            if bound[*v as usize] {
                                mask |= 1 << i;
                                ops.push(TermOp::CheckVar(*v));
                                key_ops.push(KeyOp::Var(*v));
                            } else if binds.contains(v) {
                                // Within-atom repeat: checked by
                                // unification, not by the probe key.
                                ops.push(TermOp::CheckVar(*v));
                            } else {
                                binds.push(*v);
                                ops.push(TermOp::Bind(*v));
                            }
                        }
                        RTerm::Skolem { .. } => unreachable!("validated: no skolems in body atoms"),
                    }
                }
                for &v in &binds {
                    bound[v as usize] = true;
                }
                let support_slot = rule
                    .positive_literals
                    .iter()
                    .position(|&p| p == li)
                    .expect("atom literal is positive");
                steps.push(Step::Atom(AtomStep {
                    lit: li,
                    pred: atom.pred,
                    mask,
                    ops,
                    key_ops,
                    binds,
                    support_slot,
                    est,
                }));
            }
            RLiteral::Negated(_) => steps.push(Step::Negated(li)),
            RLiteral::Cond(_) => steps.push(Step::Cond(li)),
            RLiteral::Let(v, _) => {
                bound[*v as usize] = true;
                steps.push(Step::Let(li));
            }
            RLiteral::Agg { .. } => steps.push(Step::Agg(li)),
        }
    }
    RulePlan {
        steps,
        n_support: rule.positive_literals.len(),
        planned,
    }
}

/// A reordered plan is adopted only when its estimated cost beats the
/// textual order by this factor. Cardinality estimates carry real noise
/// (sampled distincts, unmodelled filter selectivity); near-ties go to the
/// textual order, which is what the oracle executes — so the
/// planner can only diverge from the baseline where the model predicts a
/// clear win.
const REORDER_MARGIN: f64 = 2.0;

/// Default selectivity of a negation or comparison filter. The exact value
/// matters less than being below 1: it lets the cost model reward orders
/// that run filters before expensive probes — which is where most of the
/// planner's win on the bundled programs comes from — instead of scoring
/// filter placement as a no-op.
const FILTER_SELECTIVITY: f64 = 0.5;

/// Estimated enumerations of an order: each atom step costs the product of
/// the estimated matches of all atoms placed so far; each filter passed
/// multiplies the surviving rows by [`FILTER_SELECTIVITY`].
fn order_cost(rule: &RRule, order: &[usize], stats: &StratumStats) -> f64 {
    let mut bound = vec![false; rule.nvars];
    let mut rows = 1.0f64;
    let mut cost = 0.0f64;
    for &li in order {
        match &rule.body[li] {
            RLiteral::Atom { atom, .. } => {
                let est = estimate(atom, &bound, stats);
                rows *= est;
                cost += rows;
                bind_atom_vars(atom, &mut bound);
            }
            RLiteral::Negated(_) | RLiteral::Cond(_) => rows *= FILTER_SELECTIVITY,
            RLiteral::Let(v, _) => bound[*v as usize] = true,
            RLiteral::Agg { .. } => {}
        }
    }
    cost
}

/// Plans one rule. `force_first` pins a delta atom to the front (planned
/// rules only); order-sensitive rules always get the identity order.
fn plan_rule(
    rule: &RRule,
    stats: &StratumStats,
    force_first: Option<usize>,
    enable: bool,
) -> RulePlan {
    let reorder = enable && rule.pure;
    if reorder {
        let order = choose_order(rule, stats, force_first);
        if order_is_legal(rule, &order) {
            // Hysteresis applies to the naive plan only. A delta plan's
            // leading atom enumerates the per-round delta — far smaller
            // than the relation statistics imply — so a full-stats cost
            // comparison would wrongly reject the structural semi-naive
            // choice of driving from the delta.
            let adopt = force_first.is_some()
                || order_cost(rule, &order, stats) * REORDER_MARGIN
                    <= order_cost(rule, &(0..rule.body.len()).collect::<Vec<_>>(), stats);
            let chosen = if adopt {
                order
            } else {
                (0..rule.body.len()).collect()
            };
            return build_plan(rule, &chosen, stats, true);
        }
        debug_assert!(false, "planner produced an illegal order: {order:?}");
    }
    let identity: Vec<usize> = (0..rule.body.len()).collect();
    build_plan(rule, &identity, stats, false)
}

/// Plans every rule of a stratum. The result is indexed by global rule
/// index; entries for rules outside the stratum are `None`.
pub(crate) fn plan_stratum(
    rules: &[RRule],
    stratum: &[usize],
    stats: &StratumStats,
    enable: bool,
) -> Vec<Option<RulePlans>> {
    let mut out: Vec<Option<RulePlans>> = (0..rules.len()).map(|_| None).collect();
    for &ri in stratum {
        let rule = &rules[ri];
        let naive = plan_rule(rule, stats, None, enable);
        let delta = rule
            .positive_literals
            .iter()
            .map(|&li| plan_rule(rule, stats, Some(li), enable))
            .collect();
        out[ri] = Some(RulePlans { naive, delta });
    }
    out
}

// ---------------------------------------------------------------------------
// Plan rendering (Engine::plan_report / vadalink --explain-plan)
// ---------------------------------------------------------------------------

fn var_name(vars: &[String], v: u32) -> String {
    vars.get(v as usize)
        .cloned()
        .unwrap_or_else(|| format!("v{v}"))
}

fn render_const(c: Const, db: &Database) -> String {
    match c {
        Const::Sym(_) => format!("\"{}\"", db.display(c)),
        _ => db.display(c),
    }
}

fn render_expr(e: &RExpr, vars: &[String], db: &Database) -> String {
    match e {
        RExpr::Var(v) => var_name(vars, *v),
        RExpr::Const(c) => render_const(*c, db),
        RExpr::Binary(op, a, b) => {
            use crate::ast::BinOp::*;
            let sym = match op {
                Add => "+",
                Sub => "-",
                Mul => "*",
                Div => "/",
            };
            format!(
                "({} {sym} {})",
                render_expr(a, vars, db),
                render_expr(b, vars, db)
            )
        }
        RExpr::Cmp(op, a, b) => {
            format!(
                "{} {} {}",
                render_expr(a, vars, db),
                cmp_sym(*op),
                render_expr(b, vars, db)
            )
        }
        RExpr::Call { name, args, .. } => {
            let rendered: Vec<String> = args.iter().map(|a| render_expr(a, vars, db)).collect();
            format!("#{name}({})", rendered.join(", "))
        }
    }
}

fn cmp_sym(op: crate::ast::CmpOp) -> &'static str {
    use crate::ast::CmpOp::*;
    match op {
        Eq => "==",
        Ne => "!=",
        Lt => "<",
        Le => "<=",
        Gt => ">",
        Ge => ">=",
    }
}

fn render_atom(atom: &RAtom, vars: &[String], db: &Database) -> String {
    let terms: Vec<String> = atom
        .terms
        .iter()
        .map(|t| match t {
            RTerm::Var(v) => var_name(vars, *v),
            RTerm::Const(c) => render_const(*c, db),
            RTerm::Skolem { .. } => "#sk(..)".to_owned(),
        })
        .collect();
    format!("{}({})", db.pred_name(atom.pred), terms.join(", "))
}

fn agg_fn_name(f: AggFunc) -> &'static str {
    match f {
        AggFunc::Sum => "msum",
        AggFunc::Prod => "mprod",
        AggFunc::Max => "mmax",
        AggFunc::Min => "mmin",
        AggFunc::Count => "mcount",
    }
}

fn render_step(step: &Step, rule: &RRule, vars: &[String], db: &Database) -> String {
    match step {
        Step::Atom(a) => {
            let RLiteral::Atom { atom, .. } = &rule.body[a.lit] else {
                unreachable!()
            };
            let rendered = render_atom(atom, vars, db);
            if a.mask == 0 {
                format!("scan {rendered} est≈{:.1}", a.est)
            } else {
                let keys: Vec<String> = a
                    .key_ops
                    .iter()
                    .map(|k| match k {
                        KeyOp::Var(v) => var_name(vars, *v),
                        KeyOp::Const(c) => render_const(*c, db),
                    })
                    .collect();
                format!(
                    "probe {rendered} key={{{}}} est≈{:.1}",
                    keys.join(","),
                    a.est
                )
            }
        }
        Step::Negated(li) => {
            let RLiteral::Negated(atom) = &rule.body[*li] else {
                unreachable!()
            };
            format!("check not {}", render_atom(atom, vars, db))
        }
        Step::Cond(li) => {
            let RLiteral::Cond(e) = &rule.body[*li] else {
                unreachable!()
            };
            format!("filter {}", render_expr(e, vars, db))
        }
        Step::Let(li) => {
            let RLiteral::Let(v, e) = &rule.body[*li] else {
                unreachable!()
            };
            format!("bind {} = {}", var_name(vars, *v), render_expr(e, vars, db))
        }
        Step::Agg(li) => {
            let RLiteral::Agg { agg, kind } = &rule.body[*li] else {
                unreachable!()
            };
            let contribs: Vec<String> = agg
                .contributors
                .iter()
                .map(|v| var_name(vars, *v))
                .collect();
            let call = format!(
                "{}({}, <{}>)",
                agg_fn_name(agg.func),
                render_expr(&agg.expr, vars, db),
                contribs.join(", ")
            );
            match kind {
                AggKind::Let { var, .. } => format!("aggregate {} = {call}", var_name(vars, *var)),
                AggKind::Cond { op, rhs } => {
                    format!(
                        "aggregate {call} {} {}",
                        cmp_sym(*op),
                        render_expr(rhs, vars, db)
                    )
                }
            }
        }
    }
}

fn render_plan(plan: &RulePlan, rule: &RRule, vars: &[String], db: &Database) -> String {
    if plan.steps.is_empty() {
        return "(ground fact)".to_owned();
    }
    let parts: Vec<String> = plan
        .steps
        .iter()
        .map(|s| render_step(s, rule, vars, db))
        .collect();
    parts.join("\n      -> ")
}

/// Renders the plans of one rule for [`crate::Engine::plan_report`].
pub(crate) fn render_rule_report(
    ri: usize,
    rule: &RRule,
    plans: &RulePlans,
    vars: &[String],
    db: &Database,
    executor: &str,
) -> String {
    let mut out = String::new();
    let heads: Vec<String> = rule.head.iter().map(|h| render_atom(h, vars, db)).collect();
    let tag = if plans.naive.planned {
        "cost-planned"
    } else if rule.pure {
        "identity (planning disabled)"
    } else {
        "identity (order-sensitive rule)"
    };
    let _ = writeln!(out, "  rule {ri}: {} [{tag}]", heads.join(", "));
    let _ = writeln!(out, "    executor: {executor}");
    let _ = writeln!(
        out,
        "    naive: {}",
        render_plan(&plans.naive, rule, vars, db)
    );
    for (k, plan) in plans.delta.iter().enumerate() {
        let li = rule.positive_literals[k];
        let RLiteral::Atom { atom, .. } = &rule.body[li] else {
            unreachable!()
        };
        let _ = writeln!(
            out,
            "    delta via {}: {}",
            db.pred_name(atom.pred),
            render_plan(plan, rule, vars, db)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Program;
    use crate::eval::resolve::resolve_rules;
    use crate::eval::Engine;

    /// Resolves a program against a database set up by `setup`.
    fn ctx(src: &str, setup: impl FnOnce(&mut Database)) -> (Vec<RRule>, Database) {
        let program = Program::parse(src).unwrap();
        Engine::new(&program).unwrap();
        let mut db = Database::new();
        setup(&mut db);
        let rules = resolve_rules(&program, &mut db).unwrap();
        (rules, db)
    }

    fn plans_for(rules: &[RRule], db: &Database, enable: bool) -> Vec<Option<RulePlans>> {
        let stratum: Vec<usize> = (0..rules.len()).collect();
        let stats = StratumStats::collect(rules, &stratum, &db.relations);
        plan_stratum(rules, &stratum, &stats, enable)
    }

    fn atom_lits(plan: &RulePlan) -> Vec<usize> {
        plan.steps
            .iter()
            .filter_map(|s| match s {
                Step::Atom(a) => Some(a.lit),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn smallest_relation_drives_the_join() {
        // big has 100 rows, tiny has 1: the planner must scan tiny first
        // and probe big on the join variable.
        let (rules, db) = ctx("r(X, Y) :- big(X, Y), tiny(X).", |db| {
            for i in 0..100 {
                db.fact("big").int(i).int(i + 1).assert();
            }
            db.fact("tiny").int(7).assert();
        });
        let plans = plans_for(&rules, &db, true);
        let naive = &plans[0].as_ref().unwrap().naive;
        assert!(naive.planned);
        assert_eq!(atom_lits(naive), vec![1, 0], "tiny scans first");
        let Step::Atom(second) = &naive.steps[1] else {
            panic!("second step is the big atom")
        };
        assert_eq!(second.mask, 0b01, "big probes on X");
        assert!(matches!(second.key_ops[..], [KeyOp::Var(_)]));
    }

    #[test]
    fn conditions_and_negation_are_pushed_down() {
        // X > 3 depends only on e's first column; not blocked(X) likewise.
        // Both must run immediately after e(X, Y), before the join with f.
        let (rules, db) = ctx(
            "r(X, Z) :- e(X, Y), f(Y, Z), X > 3, not blocked(X).",
            |db| {
                for i in 0..50 {
                    db.fact("e").int(i).int(i).assert();
                    db.fact("f").int(i).int(i).assert();
                    db.fact("f").int(i).int(i + 1).assert();
                }
                db.fact("blocked").int(4).assert();
            },
        );
        let plans = plans_for(&rules, &db, true);
        let naive = &plans[0].as_ref().unwrap().naive;
        let kinds: Vec<&str> = naive
            .steps
            .iter()
            .map(|s| match s {
                Step::Atom(_) => "atom",
                Step::Negated(_) => "neg",
                Step::Cond(_) => "cond",
                Step::Let(_) => "let",
                Step::Agg(_) => "agg",
            })
            .collect();
        // e (or f) first, then both filters, then the remaining atom.
        assert_eq!(kinds, vec!["atom", "cond", "neg", "atom"], "{kinds:?}");
        assert!(order_is_legal(&rules[0], &plan_order(naive)));
    }

    fn plan_order(plan: &RulePlan) -> Vec<usize> {
        plan.steps
            .iter()
            .map(|s| match s {
                Step::Atom(a) => a.lit,
                Step::Negated(li) | Step::Cond(li) | Step::Let(li) | Step::Agg(li) => *li,
            })
            .collect()
    }

    #[test]
    fn lets_wait_for_their_inputs() {
        // V = Y * 2 can only run after f(X, Y) binds Y, even though the
        // planner wants cheap steps early.
        let (rules, db) = ctx("r(X, V) :- e(X), f(X, Y), V = Y * 2, V > 0.", |db| {
            for i in 0..10 {
                db.fact("e").int(i).assert();
                db.fact("f").int(i).int(i).assert();
            }
        });
        let plans = plans_for(&rules, &db, true);
        let naive = &plans[0].as_ref().unwrap().naive;
        let order = plan_order(naive);
        assert!(order_is_legal(&rules[0], &order), "order {order:?}");
        let let_pos = naive
            .steps
            .iter()
            .position(|s| matches!(s, Step::Let(_)))
            .unwrap();
        let f_pos = naive
            .steps
            .iter()
            .position(|s| matches!(s, Step::Atom(a) if a.lit == 1))
            .unwrap();
        assert!(let_pos > f_pos, "Let after f: {order:?}");
    }

    #[test]
    fn aggregate_rules_get_identity_plans() {
        let (rules, db) = ctx(
            "acc(X, V) :- own(X, W), big(X, _), V = msum(W, <X>).",
            |db| {
                for i in 0..100 {
                    db.fact("big").int(i).int(i).assert();
                }
                db.fact("own").int(1).float(0.5).assert();
            },
        );
        let plans = plans_for(&rules, &db, true);
        let naive = &plans[0].as_ref().unwrap().naive;
        assert!(!naive.planned, "aggregate rules are order-sensitive");
        // Identity order: own, big, agg — even though big is larger and the
        // cost model would prefer own last.
        assert_eq!(plan_order(naive), vec![0, 1, 2]);
        assert!(matches!(naive.steps.last(), Some(Step::Agg(_))));
    }

    #[test]
    fn disabled_planner_produces_identity_plans() {
        let (rules, db) = ctx("r(X, Y) :- big(X, Y), tiny(X).", |db| {
            for i in 0..100 {
                db.fact("big").int(i).int(i + 1).assert();
            }
            db.fact("tiny").int(7).assert();
        });
        let plans = plans_for(&rules, &db, false);
        let naive = &plans[0].as_ref().unwrap().naive;
        assert!(!naive.planned);
        assert_eq!(atom_lits(naive), vec![0, 1], "body order as written");
        // Identity masks match the original bound-position analysis.
        let Step::Atom(second) = &naive.steps[1] else {
            panic!()
        };
        assert_eq!(second.mask, 0b1);
    }

    #[test]
    fn delta_plans_put_the_delta_atom_first() {
        let (rules, db) = ctx("t(X, Z) :- t(X, Y), e(Y, Z). t(X, Y) :- e(X, Y).", |db| {
            for i in 0..20 {
                db.fact("e").int(i).int(i + 1).assert();
            }
        });
        let plans = plans_for(&rules, &db, true);
        let rp = plans[0].as_ref().unwrap();
        // Delta via e (literal 1) must drive even though t is smaller here.
        let k = rules[0]
            .positive_literals
            .iter()
            .position(|&li| li == 1)
            .unwrap();
        assert_eq!(atom_lits(&rp.delta[k])[0], 1, "delta atom first");
        // The non-delta atom then probes on the shared variable.
        let Step::Atom(second) = &rp.delta[k].steps[1] else {
            panic!()
        };
        assert!(second.mask != 0, "joined atom probes, not scans");
    }

    #[test]
    fn first_step_mask_has_only_constants() {
        // Whatever the order, nothing is bound before the first atom, so
        // its probe key (if any) is all constants — the invariant the
        // batch tier's lead relies on.
        let (rules, db) = ctx("r(X) :- e(\"a\", X), f(X).", |db| {
            db.assert_str_facts("e", &[&["a", "b"], &["a", "c"], &["b", "c"]]);
            db.assert_str_facts("f", &[&["b"]]);
        });
        let plans = plans_for(&rules, &db, true);
        for rp in plans.iter().flatten() {
            for plan in std::iter::once(&rp.naive).chain(rp.delta.iter()) {
                if let Some(Step::Atom(a)) = plan.steps.first() {
                    assert!(
                        a.key_ops.iter().all(|k| matches!(k, KeyOp::Const(_))),
                        "leading probe key must be constant-only"
                    );
                }
            }
        }
    }

    #[test]
    fn estimate_uses_bound_columns() {
        let (rules, db) = ctx("r(X, Y) :- e(X, Y).", |db| {
            // 100 rows, 10 distinct X, 100 distinct Y.
            for i in 0..100 {
                db.fact("e").int(i % 10).int(i).assert();
            }
        });
        let stratum = vec![0usize];
        let stats = StratumStats::collect(&rules, &stratum, &db.relations);
        let RLiteral::Atom { atom, .. } = &rules[0].body[0] else {
            panic!()
        };
        let unbound = estimate(atom, &[false, false], &stats);
        let x_bound = estimate(atom, &[true, false], &stats);
        let both = estimate(atom, &[true, true], &stats);
        assert_eq!(unbound, 100.0);
        assert!((x_bound - 10.0).abs() < 1e-9, "100/10 = {x_bound}");
        assert!(both < 0.2, "fully bound is near-unique: {both}");
    }

    #[test]
    fn distinct_sampling_saturation() {
        let mut rel = Relation::default();
        for i in 0..(DISTINCT_SAMPLE as i64 + 500) {
            rel.insert(&[Const::Int(i), Const::Int(i % 3)], None);
        }
        let ps = PredStats::measure(&rel);
        // Column 0 is key-like: sample saturates, extrapolate to all rows.
        assert_eq!(ps.distinct[0], ps.rows as f64);
        // Column 1 plateaus at 3 distinct values.
        assert_eq!(ps.distinct[1], 3.0);
    }
}
