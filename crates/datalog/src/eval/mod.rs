//! The reasoning engine: stratified semi-naive fixpoint with chase-style
//! existentials and monotonic aggregation.
//!
//! An [`Engine`] is compiled once from a [`Program`] (the analyzer's
//! safety, schema and stratifiability passes, then the strata they
//! admit) and can then be [run](Engine::run) against any
//! [`Database`]. Evaluation proceeds stratum by stratum; within a stratum,
//! round 0 evaluates every rule naively and subsequent rounds evaluate each
//! rule once per delta position (positive body atom whose predicate is
//! derived in the stratum), restricted to the facts added in the previous
//! round. Set semantics (tuple dedup) plays the role of Vadalog's
//! isomorphism check; the fact and round budgets in [`EngineOptions`] are
//! the defense-in-depth termination guards discussed in Section 4.4 of the
//! paper.
//!
//! At each stratum entry the engine samples relation cardinalities and
//! compiles every rule into cost-based execution plans ([`plan`]): joins
//! are greedily reordered by estimated selectivity, filters and negations
//! are pushed to the earliest point where their variables are bound, and
//! semi-naive rounds drive from the delta atom. Only the hash indexes the
//! chosen plans actually probe are registered. Each round's derivations
//! are inserted in canonical `(pred, tuple, prov)` order — the derived
//! *set* of a round does not depend on join order, so canonical insertion
//! makes row ids and provenance byte-identical between the planned
//! production executors and the unplanned reference oracle.
//!
//! A fixpoint runs on one thread. The recursion of every bundled program
//! carries an aggregate, a Skolem term or an external call, whose state
//! is shared across a round, so the rules that do the work cannot be
//! split over worker threads without merging that state (DESIGN §8).

pub(crate) mod agg;
pub(crate) mod batch;
pub(crate) mod compile;
pub(crate) mod exec;
pub(crate) mod kernels;
pub(crate) mod plan;
pub(crate) mod resolve;

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::analysis::{self, Analysis, AnalysisConfig, ProgramIndex};
use crate::ast::{Lit, PostOp, Program, Query};
use crate::builtins::FunctionRegistry;
use crate::db::{Database, ProvEntry, Relations};
use crate::error::{DatalogError, Result};
use crate::index::{key_hash, next_id, Index};
use crate::value::Const;

use agg::AggStore;
use compile::{compile_stratum, eval_compiled, CompiledRulePlans};
use exec::{eval_rule, RunCtx, Workspace};
use plan::{plan_stratum, RulePlans, Step, StratumStats};
use resolve::{resolve_rules, CompiledProgram, RLiteral, RRule};

/// Tunable evaluation options.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Hard cap on the total number of stored facts.
    pub max_facts: usize,
    /// Hard cap on fixpoint rounds per stratum.
    pub max_rounds: usize,
    /// Minimum aggregate-value change that counts as "new" — guarantees
    /// termination of convergent recursive aggregations (e.g. accumulated
    /// ownership over cyclic shareholding).
    pub epsilon: f64,
    /// Record provenance for derived facts (enables explanations).
    pub provenance: bool,
    /// Apply `@post` directives and auto-compaction of aggregate
    /// predicates: when the predicate's stratum converges if every reader
    /// outside it is subsumption-safe, after the fixpoint otherwise.
    pub apply_post: bool,
    /// Static-analysis configuration applied at engine construction:
    /// programs carrying error-level diagnostics of the safety, schema or
    /// stratifiability passes are rejected as [`DatalogError::Analysis`]
    /// ([`AnalysisConfig::strict`] also rejects implicit existentials).
    pub analysis: AnalysisConfig,
    /// Evaluate with the reference oracle instead of the production
    /// pipeline: rule bodies in textual literal order, run by the
    /// [`exec`] step machine over the row store — no cost planning, no
    /// closure chains, no frozen images, no batches. The differential
    /// suites and `compile_bench` compare production against it; nothing
    /// else sets it. Byte-identical to production by contract.
    #[doc(hidden)]
    pub oracle: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            max_facts: 50_000_000,
            max_rounds: 100_000,
            epsilon: 1e-9,
            provenance: false,
            apply_post: true,
            analysis: AnalysisConfig::default(),
            oracle: false,
        }
    }
}

/// Statistics of one evaluation.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Total semi-naive rounds across strata.
    pub rounds: usize,
    /// Number of new facts derived (after dedup).
    pub derived: usize,
    /// Number of strata evaluated.
    pub strata: usize,
    /// Wall-clock duration of the run.
    pub duration: Duration,
    /// Monotonic-aggregate groups the run kept, over all strata.
    pub agg_groups: usize,
    /// Contributors to those groups (one per rule and contributor key).
    pub agg_contributors: usize,
}

/// A compiled, reusable reasoning engine.
#[derive(Debug)]
pub struct Engine {
    program: Program,
    compiled: CompiledProgram,
    registry: FunctionRegistry,
    options: EngineOptions,
}

impl Engine {
    /// Compiles a program with the standard function library and default
    /// options.
    pub fn new(program: &Program) -> Result<Self> {
        Self::with(
            program,
            FunctionRegistry::default(),
            EngineOptions::default(),
        )
    }

    /// Compiles a program with a custom registry and options.
    pub fn with(
        program: &Program,
        registry: FunctionRegistry,
        options: EngineOptions,
    ) -> Result<Self> {
        let ix = ProgramIndex::new(program);
        let mut diagnostics = Vec::new();
        let graph = analysis::check(&ix, &options.analysis, &mut diagnostics);
        let analysis = Analysis::sorted(diagnostics);
        if analysis.has_errors() {
            return Err(DatalogError::Analysis(analysis.into_errors()));
        }
        let compiled = resolve::compile(&ix, &graph);
        Ok(Engine {
            program: program.clone(),
            compiled,
            registry,
            options,
        })
    }

    /// The compiled program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Stratum index of a predicate (0 = lowest), if it occurs in the
    /// program. Useful for inspecting how the dependency condensation
    /// layered the rules: base relations sit at 0, and every
    /// cross-component edge (positive or negated) adds a layer.
    pub fn stratum_of(&self, pred: &str) -> Option<usize> {
        self.compiled.pred_stratum.get(pred).copied()
    }

    /// Evaluation options (mutable, to tweak between runs).
    pub fn options_mut(&mut self) -> &mut EngineOptions {
        &mut self.options
    }

    /// Evaluation options (read-only).
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The name-level compilation output (strata, compactions).
    pub(crate) fn compiled(&self) -> &CompiledProgram {
        &self.compiled
    }

    /// The function registry the engine evaluates external calls with.
    pub(crate) fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// Registers an external function (callable as `#name`).
    pub fn register_function(
        &mut self,
        name: &str,
        f: impl Fn(
                &mut crate::builtins::FnCtx<'_>,
                &[crate::value::Const],
            ) -> std::result::Result<crate::value::Const, String>
            + Send
            + Sync
            + 'static,
    ) {
        self.registry.register(name, f);
    }

    /// Renders the execution plans the engine would choose for `db`:
    /// per stratum and rule, the literal order, probe keys and estimated
    /// cardinalities, then one line per posted predicate saying when it
    /// is compacted. Estimates reflect the database as given (pre-fixpoint
    /// sizes); in-stratum derived predicates start at their current size.
    /// Under the reference oracle the report shows the identity plans.
    pub fn plan_report(&self, db: &Database) -> Result<String> {
        use std::fmt::Write as _;
        // Resolution interns predicates and constants, so work on a clone.
        let mut db = db.clone();
        let rules = resolve_rules(&self.program, &mut db)?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "execution: {} plans",
            if self.options.oracle {
                "interpreted"
            } else {
                "compiled (closure-chain)"
            }
        );
        for (si, stratum) in self.compiled.strata.iter().enumerate() {
            let _ = writeln!(out, "stratum {si}:");
            let stats = StratumStats::collect(&rules, stratum, &db.relations);
            let plans = plan_stratum(&rules, stratum, &stats, !self.options.oracle);
            // A stratum freezes none of its own predicates, so a rule
            // reading one takes the batched path at run time only when
            // that relation still carries an image from an earlier
            // stratum (`batch::ready`); the report assumes it does not.
            let stratum_preds: std::collections::HashSet<u32> = stratum
                .iter()
                .flat_map(|&ri| rules[ri].head.iter().map(|h| h.pred))
                .collect();
            for &ri in stratum {
                let rp = plans[ri].as_ref().expect("stratum rules are planned");
                let vars = &self.program.rules[ri].vars;
                let reads_stratum = rules[ri].body.iter().any(|l| match l {
                    RLiteral::Atom { atom, .. } | RLiteral::Negated(atom) => {
                        stratum_preds.contains(&atom.pred)
                    }
                    _ => false,
                });
                // The executor each round would use: batched rules still
                // fall back to tuple chains for delta rounds (delta plans
                // have no batch form).
                let executor = if self.options.oracle {
                    "interpreted"
                } else if self.options.provenance || !batch::batch_eligible(&rules[ri], &rp.naive) {
                    "tuple"
                } else if reads_stratum {
                    "tuple (batch-eligible, but recursive inputs stay unfrozen)"
                } else {
                    "batched (tuple for delta rounds)"
                };
                out.push_str(&plan::render_rule_report(
                    ri, &rules[ri], rp, vars, &db, executor,
                ));
            }
        }
        // When each posted predicate is compacted; all posts of one
        // predicate share the timing.
        let mut reported: Vec<&str> = Vec::new();
        for post in &self.compiled.posts {
            if reported.contains(&post.pred.as_str()) {
                continue;
            }
            reported.push(&post.pred);
            let when = match (post.compacts_at(), post.unsafe_reader) {
                (Some(si), _) => format!("when stratum {si} converges"),
                (None, Some(ri)) => format!(
                    "after the run: rule {ri} reads its value column outside a monotone guard"
                ),
                (None, None) => "after the run: no rule derives it".to_owned(),
            };
            let _ = writeln!(out, "{}: compacted {when}", post.pred);
        }
        Ok(out)
    }

    /// Runs the program to fixpoint over `db`.
    pub fn run(&self, db: &mut Database) -> Result<RunStats> {
        let (compiled, registry, options) = (&self.compiled, &self.registry, &self.options);
        let start = Instant::now();
        let rules = resolve_rules(&self.program, db)?;
        if options.provenance {
            for rel in db.relations.iter_mut().filter(|r| !r.tracks_prov()) {
                Arc::make_mut(rel).set_track_prov(true);
            }
        }
        let mut stats = RunStats::default();
        let mut agg = AggStore::default();
        let mut ws = Workspace::default();

        for (si, stratum) in compiled.strata.iter().enumerate() {
            stats.strata += 1;
            run_stratum(
                &rules, stratum, si, db, registry, options, &mut agg, &mut ws, &mut stats,
            )?;
            // A posted predicate whose readers are all subsumption-safe is
            // compacted as soon as its stratum converges, so later strata
            // join one row per group instead of every intermediate emission
            // (DESIGN §9, "When a posted predicate is compacted").
            if options.apply_post {
                for post in compiled
                    .posts
                    .iter()
                    .filter(|p| p.compacts_at() == Some(si))
                {
                    apply_post(db, &post.pred, &post.op);
                }
            }
        }

        if options.apply_post {
            for post in compiled.posts.iter().filter(|p| p.compacts_at().is_none()) {
                apply_post(db, &post.pred, &post.op);
            }
        }
        stats.agg_groups = agg.groups();
        stats.agg_contributors = agg.contributors();
        stats.duration = start.elapsed();
        Ok(stats)
    }
}

/// Canonically renders the facts of `goal`'s predicate that match its
/// bound constants, sorted — the read path of `vadalink query` and serve
/// lookups, and the comparison lens of the differential tests.
pub fn goal_matches(db: &Database, goal: &Query) -> Vec<String> {
    let mut pattern: Vec<Option<Const>> = Vec::with_capacity(goal.args.len());
    for a in &goal.args {
        pattern.push(match a {
            None => None,
            Some(Lit::Str(s)) => match db.find_sym(s) {
                Some(c) => Some(c),
                // The constant was never interned: nothing can match.
                None => return Vec::new(),
            },
            Some(Lit::Int(i)) => Some(Const::Int(*i)),
            Some(Lit::Float(f)) => Some(Const::float(*f)),
            Some(Lit::Bool(b)) => Some(Const::Bool(*b)),
        });
    }
    let mut out: Vec<String> = db
        .query(&goal.pred, &pattern)
        .into_iter()
        .map(|row| {
            let parts: Vec<String> = row.iter().map(|c| db.canonical(*c)).collect();
            format!("{}({})", goal.pred, parts.join(", "))
        })
        .collect();
    out.sort();
    out
}

/// Runs one stratum's semi-naive fixpoint over `db`: round 0 evaluates
/// every rule in `stratum` naively, later rounds once per (rule,
/// in-stratum delta literal). Extracted from [`Engine::run`] so the
/// incremental-maintenance subsystem ([`crate::incr`]) can replay a rule
/// subset (one dependency unit) with its own aggregate
/// store; the behavior — canonical per-round insertion order, growth-
/// triggered replanning, budgets — is exactly the engine's.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_stratum(
    rules: &[RRule],
    stratum: &[usize],
    stratum_label: usize,
    db: &mut Database,
    registry: &FunctionRegistry,
    options: &EngineOptions,
    agg: &mut AggStore,
    ws: &mut Workspace,
    stats: &mut RunStats,
) -> Result<()> {
    {
        // Predicates derived in this stratum (delta sources).
        let stratum_preds: Vec<u32> = stratum
            .iter()
            .flat_map(|&ri| rules[ri].head.iter().map(|h| h.pred))
            .collect();
        // Plan the stratum's rules against current cardinalities and
        // register exactly the probe indexes the plans use. When any
        // rule actually got a cost-based order, the stratum *replans
        // every round*: recursive predicates are empty at stratum
        // entry, so only from round 1 onward do the delta plans see the
        // real relation sizes they join against. Plans influence
        // evaluation order only — the canonical sort below makes any
        // order produce the same database — so replanning is free of
        // output drift, and `register_index` is a no-op for masks
        // already present. Strata of identity plans (the oracle, or
        // every rule order-sensitive) skip the per-round stats pass.
        // Stats are scoped to reorderable rules' predicates and cached
        // by row count, so each round only re-samples relations that
        // both grew and feed a cost-planned join.
        let mut stats_cache = crate::fx::FxHashMap::default();
        let production = !options.oracle;
        let stratum_preds_ref = &stratum_preds;
        let mut plan_round = |db: &mut Database| {
            let stratum_stats = if production {
                StratumStats::collect_reorderable(rules, stratum, &db.relations, &mut stats_cache)
            } else {
                StratumStats::default()
            };
            let plans = plan_stratum(rules, stratum, &stratum_stats, production);
            // Relations *stable for this stratum* — no stratum rule derives
            // into them, so the round loop never writes into a frozen
            // image mid-stratum — are promoted to the columnar
            // layout: per-column strips, plus CSR adjacency for the
            // probe masks the plans use, multi-column keys included
            // (those skip the hash index entirely). Unstable
            // (delta-side) relations keep the on-demand hash indexes.
            let mut freeze: crate::fx::FxHashMap<u32, Vec<u64>> = crate::fx::FxHashMap::default();
            for rp in plans.iter().flatten() {
                for p in std::iter::once(&rp.naive).chain(rp.delta.iter()) {
                    for step in &p.steps {
                        if let Step::Atom(a) = step {
                            let stable = production && !stratum_preds_ref.contains(&a.pred);
                            if stable {
                                let masks = freeze.entry(a.pred).or_default();
                                if a.mask != 0 && !a.full_key() {
                                    if !masks.contains(&a.mask) {
                                        masks.push(a.mask);
                                    }
                                    continue;
                                }
                            }
                            // Full-key probes go through the dedup map
                            // instead of a registered index.
                            if !a.full_key() && !db.relations[a.pred as usize].has_index(a.mask) {
                                db.relation_mut(a.pred).register_index(a.mask);
                            }
                        }
                    }
                }
            }
            // Checked before `relation_mut`, which would copy a relation
            // a clone of the database still shares only to find it
            // already frozen.
            for (pred, masks) in &freeze {
                if !db.relations[*pred as usize].frozen_for(masks) {
                    db.relation_mut(*pred).freeze_columnar(masks);
                }
            }
            let compiled = production.then(|| compile_stratum(rules, &plans));
            (plans, compiled)
        };
        let (mut plans, mut compiled) = plan_round(db);
        // Replanning can only change an order for a cost-planned rule
        // with at least two joinable atoms whose body reads a predicate
        // this stratum is still deriving — anything else sees the same
        // statistics every round. `watched` collects the predicates
        // those rules read; a later round replans only when one of them
        // grew enough (2x, or from empty) to plausibly flip an order.
        let mut watched: Vec<u32> = Vec::new();
        for &ri in stratum {
            let planned = plans[ri]
                .as_ref()
                .is_some_and(|rp| rp.naive.planned || rp.delta.iter().any(|p| p.planned));
            if !planned {
                continue;
            }
            let atoms: Vec<u32> = rules[ri]
                .body
                .iter()
                .filter_map(|lit| match lit {
                    RLiteral::Atom { atom } => Some(atom.pred),
                    _ => None,
                })
                .collect();
            if atoms.len() >= 2 && atoms.iter().any(|p| stratum_preds.contains(p)) {
                watched.extend(atoms);
            }
        }
        watched.sort_unstable();
        watched.dedup();
        let mut planned_len: Vec<usize> = watched
            .iter()
            .map(|&p| db.relations[p as usize].len())
            .collect();
        let mut prev_len: Vec<u32> = db.relations.iter().map(|r| r.len() as u32).collect();
        let mut round = 0usize;
        loop {
            if round >= options.max_rounds {
                return Err(DatalogError::BudgetExceeded(format!(
                    "exceeded {} rounds in stratum {}",
                    options.max_rounds, stratum_label
                )));
            }
            if round > 0 && !watched.is_empty() {
                let grown = watched.iter().zip(&planned_len).any(|(&p, &l)| {
                    let n = db.relations[p as usize].len();
                    if l == 0 {
                        n > 0
                    } else {
                        n >= l * 2
                    }
                });
                if grown {
                    (plans, compiled) = plan_round(db);
                    for (i, &p) in watched.iter().enumerate() {
                        planned_len[i] = db.relations[p as usize].len();
                    }
                }
            }
            ws.out.begin(options.provenance);
            {
                let db_ref = &mut *db;
                let relations = &db_ref.relations;
                // The round's rule evaluations in sequential order:
                // round 0 is the naive pass; later rounds contribute
                // one item per (rule, in-stratum delta literal).
                let mut items: Vec<(usize, Option<(usize, u32)>)> = Vec::new();
                for &ri in stratum {
                    let rule = &rules[ri];
                    if round == 0 {
                        items.push((ri, None));
                    } else {
                        for (k, &li) in rule.positive_literals.iter().enumerate() {
                            let pred = rule.positive_preds[k];
                            if !stratum_preds.contains(&pred) {
                                continue;
                            }
                            let dstart = prev_len[pred as usize];
                            if (dstart as usize) >= relations[pred as usize].len() {
                                continue;
                            }
                            items.push((ri, Some((li, dstart))));
                        }
                    }
                }
                let mut ctx = RunCtx {
                    symbols: &mut db_ref.symbols,
                    skolems: &mut db_ref.skolems,
                    registry,
                    agg: &mut *agg,
                    ws: &mut *ws,
                    epsilon: options.epsilon,
                    provenance: options.provenance,
                };
                eval_round(
                    rules,
                    &plans,
                    compiled.as_deref(),
                    relations,
                    &items,
                    &mut ctx,
                )?;
            }
            // Snapshot lengths, then insert this round's derivations in
            // canonical `(pred, row, prov)` order (`RoundBuffer::drain_into`):
            // they become the next round's deltas. The buffer already
            // holds one copy of each row per predicate (the least
            // derivation of each with provenance on), so the sort sees
            // only unique rows — joins that re-derive one head many times
            // per round (a close-link pair once per common shareholder)
            // shrink by orders of magnitude before it.
            for (i, rel) in db.relations.iter().enumerate() {
                prev_len[i] = rel.len() as u32;
            }
            let new_facts = ws.out.drain_into(db);
            stats.derived += new_facts;
            stats.rounds += 1;
            round += 1;
            if db.total_facts() > options.max_facts {
                return Err(DatalogError::BudgetExceeded(format!(
                    "exceeded {} facts",
                    options.max_facts
                )));
            }
            if new_facts == 0 {
                break;
            }
        }
    }
    Ok(())
}

/// Evaluates one round's work items in order: production runs each
/// item's compiled rule, the oracle the step machine over its plan — both
/// enumerate identically. Round 0 items run the naive plan, later ones the
/// plan driven by their delta literal.
fn eval_round(
    rules: &[RRule],
    plans: &[Option<RulePlans>],
    compiled: Option<&[Option<CompiledRulePlans>]>,
    relations: &Relations,
    items: &[(usize, Option<(usize, u32)>)],
    ctx: &mut RunCtx<'_>,
) -> Result<()> {
    for &(ri, delta) in items {
        let k = delta.map(|(li, _)| {
            rules[ri]
                .positive_literals
                .iter()
                .position(|&p| p == li)
                .expect("delta literal is a positive atom")
        });
        match compiled {
            Some(compiled) => {
                let cp = compiled[ri].as_ref().expect("stratum rules are compiled");
                let cr = k.map_or(&cp.naive, |k| &cp.delta[k]);
                eval_compiled(cr, relations, delta.map_or(0, |(_, s)| s), ctx)?;
            }
            None => {
                let rp = plans[ri].as_ref().expect("stratum rules are planned");
                let plan = k.map_or(&rp.naive, |k| &rp.delta[k]);
                eval_rule(&rules[ri], plan, relations, delta, ctx)?;
            }
        }
    }
    Ok(())
}

/// Applies a `@post` grouping filter: per grouping of all columns except the
/// value column, keep only the row with the extremal value (the first of
/// equals), and store the survivors sorted.
///
/// The survivors are grouped by row id through the shared index
/// ([`crate::index`]) over their non-value columns, compared in the row
/// store itself; their ids are sorted by row and the relation keeps those
/// rows ([`crate::db::Relation::keep_rows`]) — no row is copied out
/// before the one rewrite. With provenance tracked every parent pointer
/// into the relation is remapped: to the row's new id when it survived,
/// to [`ProvEntry::COMPACTED`] when it did not.
pub(crate) fn apply_post(db: &mut Database, pred: &str, op: &PostOp) {
    let Some(p) = db.find_pred(pred) else {
        return;
    };
    let (col, keep_max) = match op {
        PostOp::MaxBy(c) => (*c, true),
        PostOp::MinBy(c) => (*c, false),
    };
    let rel = &db.relations[p as usize];
    if rel.is_empty() {
        return;
    }
    let arity = rel.row(0).len();
    if col >= arity {
        return;
    }
    // `best[g]` is the surviving row of group `g` so far.
    let mut groups = Index::default();
    let mut best: Vec<u32> = Vec::new();
    let mut key: Vec<Const> = Vec::with_capacity(arity - 1);
    let same_group = |a: &[Const], b: &[Const]| {
        a.iter()
            .zip(b)
            .enumerate()
            .all(|(i, (x, y))| i == col || x == y)
    };
    for (id, row) in rel.rows().enumerate() {
        key.clear();
        key.extend(row[..col].iter().chain(&row[col + 1..]));
        let hash = key_hash(0, &key);
        match groups.find(hash, |g| same_group(rel.row(best[g as usize]), row)) {
            Ok(g) => {
                let prev = rel.row(best[g as usize])[col];
                let replace = if keep_max {
                    row[col] > prev
                } else {
                    row[col] < prev
                };
                if replace {
                    best[g as usize] = id as u32;
                }
            }
            Err(slot) => {
                groups.insert(slot, hash, next_id(best.len()));
                best.push(id as u32);
            }
        }
    }
    best.sort_unstable_by(|&a, &b| rel.row(a).cmp(rel.row(b)));
    let remap: Vec<u32> = if rel.tracks_prov() {
        let mut remap = vec![ProvEntry::COMPACTED; rel.len()];
        for (new, &old) in best.iter().enumerate() {
            remap[old as usize] = new as u32;
        }
        remap
    } else {
        Vec::new()
    };
    db.relation_mut(p).keep_rows(&best);
    if !remap.is_empty() {
        for r in db.relations.iter_mut().filter(|r| r.tracks_prov()) {
            Arc::make_mut(r).remap_parents(p, &remap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Const;

    fn run_src(src: &str, setup: impl FnOnce(&mut Database)) -> Database {
        let program = Program::parse(src).unwrap();
        let engine = Engine::new(&program).unwrap();
        let mut db = Database::new();
        setup(&mut db);
        engine.run(&mut db).unwrap();
        db
    }

    #[test]
    fn transitive_closure() {
        let db = run_src("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).", |db| {
            db.assert_str_facts("e", &[&["a", "b"], &["b", "c"], &["c", "d"]]);
        });
        assert_eq!(db.fact_count("t"), 6);
        assert!(db.contains_str_fact("t", &["a", "d"]));
        assert!(!db.contains_str_fact("t", &["b", "a"]));
    }

    #[test]
    fn cyclic_transitive_closure_terminates() {
        let db = run_src("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).", |db| {
            db.assert_str_facts("e", &[&["a", "b"], &["b", "a"]]);
        });
        assert_eq!(db.fact_count("t"), 4); // aa ab ba bb
    }

    #[test]
    fn ground_facts_in_program() {
        let db = run_src("e(a, b). e(b, c). t(X, Z) :- e(X, Y), e(Y, Z).", |_| {});
        assert!(db.contains_str_fact("t", &["a", "c"]));
    }

    #[test]
    fn stratified_negation() {
        let db = run_src(
            "reach(X) :- start(X). reach(Y) :- reach(X), e(X, Y).\n\
             unreach(X) :- node(X), not reach(X).",
            |db| {
                db.assert_str_facts("node", &[&["a"], &["b"], &["c"]]);
                db.assert_str_facts("start", &[&["a"]]);
                db.assert_str_facts("e", &[&["a", "b"]]);
            },
        );
        assert_eq!(db.dump("unreach"), vec!["c"]);
    }

    #[test]
    fn comparisons_and_arithmetic() {
        let db = run_src("big(X, V) :- n(X, W), V = W * 2 + 1, V > 5.", |db| {
            db.fact("n").sym("a").int(1).assert();
            db.fact("n").sym("b").int(3).assert();
        });
        assert_eq!(db.fact_count("big"), 1);
        let rel = db.relation("big").unwrap();
        assert_eq!(rel.row(0)[1], Const::Int(7));
    }

    #[test]
    fn company_control_paper_figure_1() {
        // Figure 1 of the paper: P1 controls C, D, E (jointly via D and a
        // direct 20%), and F (via E and D); no one controls L alone.
        let db = run_src(
            "control(X, X) :- company(X).\n\
             control(X, X) :- person(X).\n\
             control(X, Y) :- control(X, Z), own(Z, Y, W), X != Y, msum(W, <Z>) > 0.5.",
            |db| {
                for c in ["c", "d", "e", "f", "g", "h", "i", "l"] {
                    db.assert_str_facts("company", &[&[c]]);
                }
                db.assert_str_facts("person", &[&["p1"], &["p2"]]);
                for (x, y, w) in [
                    ("p1", "c", 0.8),
                    ("p1", "d", 0.75),
                    ("d", "e", 0.4),
                    ("p1", "e", 0.2),
                    ("d", "f", 0.2),
                    ("e", "f", 0.4),
                    ("p2", "g", 0.6),
                    ("g", "h", 0.6),
                    ("h", "i", 0.1),
                    ("p2", "i", 0.5),
                    ("f", "l", 0.2),
                    ("i", "l", 0.4),
                ] {
                    db.fact("own").sym(x).sym(y).float(w).assert();
                }
            },
        );
        for target in ["c", "d", "e", "f"] {
            assert!(
                db.contains_str_fact("control", &["p1", target]),
                "p1 should control {target}"
            );
        }
        assert!(!db.contains_str_fact("control", &["p1", "l"]));
        for target in ["g", "h", "i"] {
            assert!(
                db.contains_str_fact("control", &["p2", target]),
                "p2 should control {target}"
            );
        }
        assert!(!db.contains_str_fact("control", &["p2", "l"]));
    }

    #[test]
    fn control_handles_ownership_cycles() {
        // a owns 60% of b, b owns 60% of c, c owns 60% of b (cycle b<->c).
        let db = run_src(
            "control(X, X) :- company(X).\n\
             control(X, Y) :- control(X, Z), own(Z, Y, W), X != Y, msum(W, <Z>) > 0.5.",
            |db| {
                db.assert_str_facts("company", &[&["a"], &["b"], &["c"]]);
                db.fact("own").sym("a").sym("b").float(0.6).assert();
                db.fact("own").sym("b").sym("c").float(0.6).assert();
                db.fact("own").sym("c").sym("b").float(0.6).assert();
            },
        );
        assert!(db.contains_str_fact("control", &["a", "b"]));
        assert!(db.contains_str_fact("control", &["a", "c"]));
    }

    #[test]
    fn joint_control_requires_summation() {
        // x controls a (60%) and b (60%); a and b each own 30% of y.
        // Only the msum over {a, b} pushes x over 50% of y.
        let db = run_src(
            "control(X, X) :- company(X).\n\
             control(X, Y) :- control(X, Z), own(Z, Y, W), X != Y, msum(W, <Z>) > 0.5.",
            |db| {
                db.assert_str_facts("company", &[&["x"], &["a"], &["b"], &["y"]]);
                db.fact("own").sym("x").sym("a").float(0.6).assert();
                db.fact("own").sym("x").sym("b").float(0.6).assert();
                db.fact("own").sym("a").sym("y").float(0.3).assert();
                db.fact("own").sym("b").sym("y").float(0.3).assert();
            },
        );
        assert!(db.contains_str_fact("control", &["x", "y"]));
    }

    #[test]
    fn accumulated_ownership_with_let_aggregate() {
        // Diamond: x -0.5-> a -0.5-> y and x -0.4-> b -0.25-> y.
        // Φ(x,y) = 0.25 + 0.1 = 0.35.
        let db = run_src(
            "acc(X, Y, V) :- own(X, Y, W), V = msum(W, <X, Y>).\n\
             acc(X, Y, V) :- own(X, Z, W1), acc(Z, Y, W2), Z != Y, V = msum(W1 * W2, <Z>).",
            |db| {
                db.fact("own").sym("x").sym("a").float(0.5).assert();
                db.fact("own").sym("a").sym("y").float(0.5).assert();
                db.fact("own").sym("x").sym("b").float(0.4).assert();
                db.fact("own").sym("b").sym("y").float(0.25).assert();
            },
        );
        // After auto-compaction, one acc fact per (x, y) pair with the total.
        let rel = db.relation("acc").unwrap();
        let x = db.sym_of("x");
        let y = db.sym_of("y");
        let mut found = None;
        for row in rel.rows() {
            if row[0] == x && row[1] == y {
                assert!(found.is_none(), "compaction should leave one row");
                found = Some(row[2].as_f64().unwrap());
            }
        }
        assert!((found.unwrap() - 0.35).abs() < 1e-9);
    }

    #[test]
    fn shared_aggregate_total_across_rules() {
        // Algorithm 8 semantics: two rules contribute to the same total.
        // p contributes via u(=0.3) and v(=0.3); threshold 0.5 crossed only
        // by the combination.
        let db = run_src(
            "reaches(P) :- u(P, W), msum(W, <P>) > 0.5.\n\
             reaches(P) :- v(P, W), msum(W, <P>) > 0.5.",
            |db| {
                db.fact("u").sym("p").float(0.3).assert();
                db.fact("v").sym("p").float(0.3).assert();
            },
        );
        // Contributor keys are namespaced by rule, so the two 0.3s add up.
        assert!(db.contains_str_fact("reaches", &["p"]));
    }

    #[test]
    fn existential_invents_nulls() {
        let db = run_src(
            "link(Z, X, Y) :- own(X, Y, _), Z = #mk(X, Y).\n\
             haslink(X, Y) :- link(_, X, Y).",
            |db| {
                db.fact("own").sym("a").sym("b").float(0.5).assert();
            },
        );
        assert_eq!(db.fact_count("link"), 1);
        let rel = db.relation("link").unwrap();
        assert!(rel.row(0)[0].is_null());
        assert!(db.contains_str_fact("haslink", &["a", "b"]));
    }

    #[test]
    fn implicit_existentials_are_skolemized() {
        // Head var Z not in body → labelled null, one per distinct frontier.
        let db = run_src("edge(Z, X, Y) :- own(X, Y, _).", |db| {
            db.fact("own").sym("a").sym("b").float(0.5).assert();
            db.fact("own").sym("a").sym("b").float(0.7).assert();
            db.fact("own").sym("a").sym("c").float(0.2).assert();
        });
        // Frontier is (X, Y): (a,b) appears twice → same null; (a,c) fresh.
        assert_eq!(db.fact_count("edge"), 2);
    }

    #[test]
    fn skolem_functions_are_deterministic_and_disjoint() {
        let db = run_src(
            "n1(Z) :- p(X), Z = #ska(X).\n\
             n2(Z) :- p(X), Z = #skb(X).\n\
             n3(Z) :- p(X), Z = #ska(X).",
            |db| {
                db.assert_str_facts("p", &[&["a"]]);
            },
        );
        let z1 = db.relation("n1").unwrap().row(0)[0];
        let z2 = db.relation("n2").unwrap().row(0)[0];
        let z3 = db.relation("n3").unwrap().row(0)[0];
        assert_eq!(z1, z3, "determinism across rules");
        assert_ne!(z1, z2, "disjoint ranges");
    }

    #[test]
    fn conjunctive_heads() {
        let db = run_src("node(X), nodetype(X, company) :- company(X).", |db| {
            db.assert_str_facts("company", &[&["acme"]]);
        });
        assert!(db.contains_str_fact("node", &["acme"]));
        assert!(db.contains_str_fact("nodetype", &["acme", "company"]));
    }

    #[test]
    fn external_functions() {
        let program = Program::parse("len(X, L) :- w(X), L = #strlen(X).").unwrap();
        let engine = Engine::new(&program).unwrap();
        let mut db = Database::new();
        db.assert_str_facts("w", &[&["hello"]]);
        engine.run(&mut db).unwrap();
        let rel = db.relation("len").unwrap();
        assert_eq!(rel.row(0)[1], Const::Int(5));
    }

    #[test]
    fn custom_function_registration() {
        let program = Program::parse("d(X, Y) :- p(X), Y = #triple(X).").unwrap();
        let mut engine = Engine::new(&program).unwrap();
        engine.register_function("triple", |_, args| {
            Ok(Const::Int(args[0].as_i64().ok_or("not int")? * 3))
        });
        let mut db = Database::new();
        db.fact("p").int(14).assert();
        engine.run(&mut db).unwrap();
        assert_eq!(db.relation("d").unwrap().row(0)[1], Const::Int(42));
    }

    #[test]
    fn mcount_aggregate() {
        let db = run_src("deg(X, C) :- e(X, Y), C = mcount(1, <Y>).", |db| {
            db.assert_str_facts("e", &[&["a", "b"], &["a", "c"], &["a", "b"], &["b", "c"]]);
        });
        let rel = db.relation("deg").unwrap();
        let a = db.sym_of("a");
        for row in rel.rows() {
            if row[0] == a {
                assert_eq!(row[1], Const::Int(2));
            }
        }
    }

    #[test]
    fn post_directive_keeps_extremal_rows() {
        let db = run_src(
            "@post(\"best\", \"max(1)\").\n\
             best(X, W) :- score(X, W).",
            |db| {
                db.fact("score").sym("a").float(1.0).assert();
                db.fact("score").sym("a").float(3.0).assert();
                db.fact("score").sym("b").float(2.0).assert();
            },
        );
        let rel = db.relation("best").unwrap();
        assert_eq!(rel.len(), 2);
        let a = db.sym_of("a");
        for row in rel.rows() {
            if row[0] == a {
                assert_eq!(row[1].as_f64(), Some(3.0));
            }
        }
    }

    #[test]
    fn fact_budget_is_enforced() {
        let program = Program::parse("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).").unwrap();
        let mut engine = Engine::new(&program).unwrap();
        engine.options_mut().max_facts = 10;
        let mut db = Database::new();
        for i in 0..20 {
            let a = format!("n{i}");
            let b = format!("n{}", i + 1);
            db.fact("e").sym(&a).sym(&b).assert();
        }
        let err = engine.run(&mut db).unwrap_err();
        assert!(matches!(err, DatalogError::BudgetExceeded(_)));
    }

    #[test]
    fn recursive_aggregate_over_cycle_converges() {
        // a -> b -> a ownership cycle with product < 1: accumulated
        // ownership converges geometrically; the epsilon guard terminates.
        let db = run_src(
            "acc(X, Y, V) :- own(X, Y, W), V = msum(W, <X, Y>).\n\
             acc(X, Y, V) :- own(X, Z, W1), acc(Z, Y, W2), Z != Y, V = msum(W1 * W2, <Z>).",
            |db| {
                db.fact("own").sym("a").sym("b").float(0.5).assert();
                db.fact("own").sym("b").sym("a").float(0.5).assert();
                db.fact("own").sym("b").sym("c").float(0.8).assert();
            },
        );
        // Φ(a,c): walks a->b->c, a->b->a->b->c, ... = 0.4·(1+0.25+...) = 0.5333…
        let a = db.sym_of("a");
        let c = db.sym_of("c");
        let rel = db.relation("acc").unwrap();
        let mut val = None;
        for row in rel.rows() {
            if row[0] == a && row[1] == c {
                val = Some(row[2].as_f64().unwrap());
            }
        }
        let expected = 0.4 / (1.0 - 0.25);
        assert!(
            (val.unwrap() - expected).abs() < 1e-6,
            "got {val:?}, want {expected}"
        );
    }

    #[test]
    fn rerunning_is_idempotent() {
        let program = Program::parse("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).").unwrap();
        let engine = Engine::new(&program).unwrap();
        let mut db = Database::new();
        db.assert_str_facts("e", &[&["a", "b"], &["b", "c"]]);
        engine.run(&mut db).unwrap();
        let n = db.fact_count("t");
        let stats = engine.run(&mut db).unwrap();
        assert_eq!(db.fact_count("t"), n);
        assert_eq!(stats.derived, 0);
    }

    #[test]
    fn run_reports_the_aggregate_census() {
        // Two rules share the group of `a`; `b` has its own.
        let program = Program::parse(
            "s(X, V) :- e(X, Y, W), V = msum(W, <Y>).
             s(X, V) :- f(X, Y, W), V = msum(W, <Y>).",
        )
        .unwrap();
        let engine = Engine::new(&program).unwrap();
        let mut db = Database::new();
        let [a, b, c] = ["a", "b", "c"].map(|s| db.sym(s));
        for (pred, x, y, w) in [
            ("e", a, b, 0.5),
            ("e", a, c, 0.25),
            ("e", b, c, 1.0),
            ("f", a, b, 0.125),
        ] {
            db.assert_fact(pred, &[x, y, Const::float(w)]).unwrap();
        }
        let stats = engine.run(&mut db).unwrap();
        assert_eq!((stats.agg_groups, stats.agg_contributors), (2, 4));
        let plain = Engine::new(&Program::parse("t(X) :- e(X, _, _).").unwrap()).unwrap();
        let stats = plain.run(&mut db).unwrap();
        assert_eq!((stats.agg_groups, stats.agg_contributors), (0, 0));
    }

    #[test]
    fn stratum_of_reports_layers() {
        let program = Program::parse("r(X) :- n(X), not t(X). t(X) :- e(X, _).").unwrap();
        let engine = Engine::new(&program).unwrap();
        // Base relations occupy layer 0; every cross-component
        // dependency (not just negation) bumps the layer.
        assert_eq!(engine.stratum_of("e"), Some(0));
        assert_eq!(engine.stratum_of("t"), Some(1));
        assert_eq!(engine.stratum_of("r"), Some(2));
        assert_eq!(engine.stratum_of("zzz"), None);
    }

    #[test]
    fn negation_on_derived_relation() {
        let db = run_src(
            "owner(X) :- own(X, _, _).\n\
             leaf(X) :- company(X), not owner(X).",
            |db| {
                db.assert_str_facts("company", &[&["a"], &["b"]]);
                db.fact("own").sym("a").sym("b").float(1.0).assert();
            },
        );
        assert_eq!(db.dump("leaf"), vec!["b"]);
    }

    #[test]
    fn repeated_variables_in_atoms_unify() {
        let db = run_src("selfloop(X) :- e(X, X).", |db| {
            db.assert_str_facts("e", &[&["a", "a"], &["a", "b"]]);
        });
        assert_eq!(db.dump("selfloop"), vec!["a"]);
    }

    impl Database {
        /// Test helper: symbol constant for an existing string.
        fn sym_of(&self, s: &str) -> Const {
            Const::Sym(self.symbols.lookup(s).expect("symbol exists"))
        }
    }

    #[test]
    fn engine_rejects_ill_formed_programs_with_diagnostics() {
        // Cross-rule arity mismatch: caught at construction (V006), not
        // at run time.
        let program = Program::parse("p(X, Y) :- e(X, Y). q(X) :- p(X).").unwrap();
        match Engine::new(&program) {
            Err(DatalogError::Analysis(ds)) => {
                assert!(ds.iter().any(|d| d.code == crate::analysis::DiagCode::V006));
            }
            other => panic!("expected Analysis error, got {other:?}"),
        }
    }

    #[test]
    fn implicit_existentials_stay_accepted_by_default() {
        // V002 is a warning under the default config: Skolemizing unbound
        // head variables is the Datalog± chase, not an error.
        let program = Program::parse("edge(Z, X) :- own(X, _).").unwrap();
        Engine::new(&program).expect("existential program is legal");
        let options = EngineOptions {
            analysis: AnalysisConfig::strict(),
            ..EngineOptions::default()
        };
        assert!(matches!(
            Engine::with(&program, FunctionRegistry::default(), options),
            Err(DatalogError::Analysis(_))
        ));
    }
}
