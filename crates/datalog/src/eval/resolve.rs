//! Stratification and rule resolution.
//!
//! [`compile`] runs once per [`crate::Engine`], after the analyzer has
//! accepted the program: it layers the components of the analyzer's
//! predicate dependency graph into strata by longest path (negation is
//! never recursive by then; monotonic aggregation may be — that is the
//! point of Vadalog's `m*` family) and schedules the compactions.
//! [`resolve_rules`] runs per evaluation: it interns predicate names,
//! constants and Skolem functors into the target database; index
//! registration happens later, when the cost-based planner knows which
//! probe keys its chosen join orders actually use.

use std::collections::{HashMap, HashSet};

use crate::analysis::strat::DepGraph;
use crate::analysis::{expr_vars, term_vars, ProgramIndex};
use crate::ast::*;
use crate::db::Database;
use crate::error::{DatalogError, Result};
use crate::value::Const;

/// Name-level compilation output (no database required).
#[derive(Debug, Clone)]
pub(crate) struct CompiledProgram {
    /// Rule indices grouped by stratum, in evaluation order.
    pub strata: Vec<Vec<usize>>,
    /// Stratum of each predicate name.
    pub pred_stratum: HashMap<String, usize>,
    /// Every compaction in application order: automatic ones for
    /// aggregate-only predicates (by name), then the `@post` directives.
    pub posts: Vec<Post>,
}

/// One compaction of a posted predicate, and when it runs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Post {
    pub pred: String,
    pub op: PostOp,
    /// Index into [`CompiledProgram::strata`] of the stratum deriving
    /// `pred`; `None` when no rule derives it.
    pub stratum: Option<usize>,
    /// The first rule outside that stratum whose read of `pred` the
    /// compacted relation does not subsume ([`reader_is_subsumption_safe`],
    /// checked against every compaction of `pred`).
    pub unsafe_reader: Option<usize>,
}

impl Post {
    /// The stratum whose convergence triggers the compaction, or `None`
    /// when it waits for the end of the run: an unsafe reader must see
    /// every intermediate row, and an underived predicate has no stratum.
    pub fn compacts_at(&self) -> Option<usize> {
        self.stratum.filter(|_| self.unsafe_reader.is_none())
    }
}

/// Layers an analyzer-accepted program into strata and schedules its
/// compactions. `graph` is the stratifiability pass's dependency graph
/// over `ix`, whose components are already free of recursive negation.
pub(crate) fn compile(ix: &ProgramIndex<'_>, graph: &DepGraph) -> CompiledProgram {
    let program = ix.program;
    let comp = &graph.comp;
    let ncomp = comp.iter().copied().max().map(|c| c + 1).unwrap_or(0);

    // Longest-path strata over the condensation (Kahn). Every
    // cross-component dependency bumps the level — not just negation.
    // Negation *requires* the split (the lower side must be complete
    // before the upper side reads it); positive edges merely *benefit*:
    // a component evaluated after its inputs converge sees them as
    // stable relations, so the executor can promote them to the frozen
    // columnar layout and skip re-firing its rules while the inputs are
    // still growing. Stratified semantics is preserved — this is the
    // standard component-wise evaluation order, strictly finer than the
    // negation-only split.
    let mut cadj: Vec<Vec<usize>> = vec![Vec::new(); ncomp];
    let mut indeg = vec![0usize; ncomp];
    let mut seen_edges: HashSet<(usize, usize)> = HashSet::new();
    for (a, succ) in graph.adj.iter().enumerate() {
        for &b in succ {
            let (ca, cb) = (comp[a], comp[b]);
            if ca != cb && seen_edges.insert((ca, cb)) {
                cadj[ca].push(cb);
                indeg[cb] += 1;
            }
        }
    }
    let mut level = vec![0usize; ncomp];
    let mut queue: Vec<usize> = (0..ncomp).filter(|&c| indeg[c] == 0).collect();
    while let Some(c) = queue.pop() {
        for &d in &cadj[c] {
            level[d] = level[d].max(level[c] + 1);
            indeg[d] -= 1;
            if indeg[d] == 0 {
                queue.push(d);
            }
        }
    }

    // A predicate only directives name is in no rule, so it has no stratum.
    let pred_stratum: HashMap<String, usize> = (0..ix.len() as u32)
        .filter(|&id| !ix.directive_only(id))
        .map(|id| (ix.name(id).to_owned(), level[comp[id as usize]]))
        .collect();

    // Assign rules to the stratum of their head (heads share one).
    let max_level = level.iter().copied().max().unwrap_or(0);
    let mut strata: Vec<Vec<usize>> = vec![Vec::new(); max_level + 1];
    for (ri, rule) in program.rules.iter().enumerate() {
        let s = rule
            .head
            .iter()
            .map(|h| pred_stratum[&h.pred])
            .max()
            .unwrap_or(0);
        strata[s].push(ri);
    }
    strata.retain(|s| !s.is_empty());

    // Auto-compaction: predicates derived exclusively by LetAgg rules.
    let mut letagg_value_pos: HashMap<String, (usize, AggFunc)> = HashMap::new();
    let mut disqualified: HashSet<String> = HashSet::new();
    for rule in &program.rules {
        let letagg = rule.body.iter().find_map(|l| match l {
            Literal::LetAgg(v, agg) => Some((*v, agg.func)),
            _ => None,
        });
        match letagg {
            Some((v, func)) => {
                let head = &rule.head[0];
                let pos = head
                    .terms
                    .iter()
                    .position(|t| matches!(t, Term::Var(u) if *u == v))
                    .expect("V014: the aggregate value appears in the head");
                match letagg_value_pos.get(&head.pred) {
                    None => {
                        letagg_value_pos.insert(head.pred.clone(), (pos, func));
                    }
                    Some(&(p, f)) if p == pos && f == func => {}
                    Some(_) => {
                        disqualified.insert(head.pred.clone());
                    }
                }
            }
            None => {
                for h in &rule.head {
                    disqualified.insert(h.pred.clone());
                }
            }
        }
    }
    let mut auto_post: Vec<(String, PostOp)> = letagg_value_pos
        .into_iter()
        .filter(|(p, _)| !disqualified.contains(p))
        // mprod has no fixed direction (products of sub-unit values
        // decrease, of >1 values increase): leave compaction to an
        // explicit @post directive.
        .filter(|(_, (_, func))| *func != AggFunc::Prod)
        .map(|(p, (pos, func))| {
            let op = if func == AggFunc::Min {
                PostOp::MinBy(pos)
            } else {
                PostOp::MaxBy(pos)
            };
            (p, op)
        })
        .collect();
    auto_post.sort_by(|a, b| a.0.cmp(&b.0));
    let directives = program.directives.iter().filter_map(|d| match d {
        Directive::Post(p, op) => Some((p.clone(), op.clone())),
        _ => None,
    });
    let named: Vec<(String, PostOp)> = auto_post.into_iter().chain(directives).collect();
    let posts: Vec<Post> = named
        .iter()
        .map(|(pred, op)| {
            let stratum = strata.iter().position(|s| {
                s.iter()
                    .any(|&ri| program.rules[ri].head.iter().any(|h| h.pred == *pred))
            });
            let own: &[usize] = stratum.map_or(&[], |s| &strata[s]);
            // Every compaction of `pred` must subsume the reader.
            let unsafe_reader = (0..program.rules.len()).find(|ri| {
                !own.contains(ri)
                    && named.iter().any(|(p, op)| {
                        p == pred && !reader_is_subsumption_safe(&program.rules[*ri], pred, op)
                    })
            });
            Post {
                pred: pred.clone(),
                op: op.clone(),
                stratum,
                unsafe_reader,
            }
        })
        .collect();

    CompiledProgram {
        strata,
        pred_stratum,
        posts,
    }
}

/// True when `rule`'s use of posted predicate `pred` is subsumed by the
/// compacted relation: every occurrence's value-column term is a variable
/// used *only* in direction-compatible comparison guards (`>=` / `>` for
/// `max`-posted, `<=` / `<` for `min`-posted). Compaction keeps the
/// extremal row per group, and a monotone aggregate's extremal row is its
/// last emission, so a reader passes exactly when anything it derives from
/// an intermediate row it also derives from the surviving one. Such a
/// reader may read the relation compacted; any other must see every row.
fn reader_is_subsumption_safe(rule: &Rule, pred: &str, op: &PostOp) -> bool {
    let (col, keep_max) = match op {
        PostOp::MaxBy(c) => (*c, true),
        PostOp::MinBy(c) => (*c, false),
    };
    let mut value_vars: Vec<VarId> = Vec::new();
    for lit in &rule.body {
        match lit {
            Literal::Atom(atom) if atom.pred == pred => match atom.terms.get(col) {
                Some(Term::Var(v)) => value_vars.push(*v),
                // A constant or missing value column joins on exact
                // values: intermediates are not subsumed.
                _ => return false,
            },
            Literal::Negated(a) if a.pred == pred => return false,
            _ => {}
        }
    }
    // Each value variable may appear in exactly one atom position (its
    // own), nowhere in the head, and only in monotone guards.
    for &v in &value_vars {
        let mut atom_occurrences = 0usize;
        for lit in &rule.body {
            match lit {
                Literal::Atom(atom) | Literal::Negated(atom) => {
                    atom_occurrences += atom.terms.iter().filter(|t| term_uses_var(t, v)).count();
                }
                Literal::Cond(e) => {
                    if expr_uses_var(e, v) && !is_monotone_guard(e, v, keep_max) {
                        return false;
                    }
                }
                Literal::Let(_, e) => {
                    if expr_uses_var(e, v) {
                        return false;
                    }
                }
                Literal::LetAgg(_, agg) => {
                    if expr_uses_var(&agg.expr, v) || agg.contributors.contains(&v) {
                        return false;
                    }
                }
                Literal::AggCond { agg, rhs, .. } => {
                    if expr_uses_var(&agg.expr, v)
                        || agg.contributors.contains(&v)
                        || expr_uses_var(rhs, v)
                    {
                        return false;
                    }
                }
            }
        }
        if atom_occurrences != 1 {
            return false;
        }
        if rule
            .head
            .iter()
            .any(|h| h.terms.iter().any(|t| term_uses_var(t, v)))
        {
            return false;
        }
    }
    true
}

fn term_uses_var(t: &Term, v: VarId) -> bool {
    let mut vs = Vec::new();
    term_vars(t, &mut vs);
    vs.contains(&v)
}

fn expr_uses_var(e: &Expr, v: VarId) -> bool {
    let mut vs = Vec::new();
    expr_vars(e, &mut vs);
    vs.contains(&v)
}

/// `v >= e` / `v > e` (max-posted) or `v <= e` / `v < e` (min-posted),
/// in either orientation, with `v` absent from the other side.
fn is_monotone_guard(e: &Expr, v: VarId, keep_max: bool) -> bool {
    use CmpOp::*;
    let Expr::Cmp(op, a, b) = e else {
        return false;
    };
    let var_left = matches!(**a, Expr::Var(u) if u == v) && !expr_uses_var(b, v);
    let var_right = matches!(**b, Expr::Var(u) if u == v) && !expr_uses_var(a, v);
    match (var_left, var_right) {
        (true, false) => {
            if keep_max {
                matches!(op, Gt | Ge)
            } else {
                matches!(op, Lt | Le)
            }
        }
        (false, true) => {
            if keep_max {
                matches!(op, Lt | Le)
            } else {
                matches!(op, Gt | Ge)
            }
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Resolved (database-interned) rule representation
// ---------------------------------------------------------------------------

/// A term with interned constants.
#[derive(Debug, Clone)]
pub(crate) enum RTerm {
    Var(u32),
    Const(Const),
    Skolem { functor: u32, args: Vec<RTerm> },
}

/// An atom with an interned predicate.
#[derive(Debug, Clone)]
pub(crate) struct RAtom {
    pub pred: u32,
    pub terms: Vec<RTerm>,
}

/// A resolved expression.
#[derive(Debug, Clone)]
pub(crate) enum RExpr {
    Var(u32),
    Const(Const),
    Binary(BinOp, Box<RExpr>, Box<RExpr>),
    Cmp(CmpOp, Box<RExpr>, Box<RExpr>),
    Call {
        /// Surface name (for registry lookup and error messages).
        name: String,
        /// Interned functor symbol (for the Skolem fallback).
        functor: u32,
        args: Vec<RExpr>,
    },
}

/// A resolved aggregate.
#[derive(Debug, Clone)]
pub(crate) struct RAgg {
    pub func: AggFunc,
    pub expr: RExpr,
    pub contributors: Vec<u32>,
}

/// How an aggregate is used in its rule.
#[derive(Debug, Clone)]
pub(crate) enum AggKind {
    /// `V = msum(...)`: bind the running value to `V` (head position given).
    Let { var: u32, head_value_pos: usize },
    /// `msum(...) >= rhs`: derive the head when the condition holds.
    Cond { op: CmpOp, rhs: RExpr },
}

/// A resolved body literal.
#[derive(Debug, Clone)]
pub(crate) enum RLiteral {
    /// Positive atom. Bound-position masks are computed by the planner for
    /// whatever literal order it chooses, not stored here.
    Atom {
        atom: RAtom,
    },
    Negated(RAtom),
    Cond(RExpr),
    Let(u32, RExpr),
    Agg {
        agg: RAgg,
        kind: AggKind,
    },
}

/// A fully resolved rule.
#[derive(Debug, Clone)]
pub(crate) struct RRule {
    pub idx: u32,
    pub head: Vec<RAtom>,
    pub body: Vec<RLiteral>,
    pub nvars: usize,
    /// Existential head vars: (var, skolem functor, frontier vars).
    pub existentials: Vec<(u32, u32, Vec<u32>)>,
    /// Literal indexes of positive atoms (semi-naive delta candidates).
    pub positive_literals: Vec<usize>,
    /// Predicate of each positive literal (parallel to `positive_literals`).
    pub positive_preds: Vec<u32>,
    /// True when evaluating the rule touches none of the shared mutable
    /// evaluation state — no aggregate accumulators, no Skolem invention
    /// (existentials, `#f(..)` terms or unregistered-call fallbacks), no
    /// symbol interning (external `#f(..)` calls) — so its set of matches
    /// does not depend on the order it enumerates them in. Gates exactly
    /// two things: the planner may reorder the body
    /// ([`crate::eval::plan`]), and incremental maintenance may keep the
    /// rule's unit by DRed instead of replay ([`crate::incr`]).
    pub pure: bool,
}

/// True when the term invents no Skolem OIDs at evaluation time.
pub(crate) fn rterm_pure(t: &RTerm) -> bool {
    match t {
        RTerm::Var(_) | RTerm::Const(_) => true,
        RTerm::Skolem { .. } => false,
    }
}

/// True when evaluating the expression cannot touch the symbol or Skolem
/// tables (no external calls; calls also double as Skolem fallbacks).
pub(crate) fn rexpr_pure(e: &RExpr) -> bool {
    match e {
        RExpr::Var(_) | RExpr::Const(_) => true,
        RExpr::Binary(_, a, b) | RExpr::Cmp(_, a, b) => rexpr_pure(a) && rexpr_pure(b),
        RExpr::Call { .. } => false,
    }
}

fn rule_is_pure(head: &[RAtom], body: &[RLiteral], existentials: &[(u32, u32, Vec<u32>)]) -> bool {
    existentials.is_empty()
        && head.iter().all(|h| h.terms.iter().all(rterm_pure))
        && body.iter().all(|l| match l {
            RLiteral::Atom { .. } => true,
            RLiteral::Negated(a) => a.terms.iter().all(rterm_pure),
            RLiteral::Cond(e) => rexpr_pure(e),
            RLiteral::Let(_, e) => rexpr_pure(e),
            RLiteral::Agg { .. } => false,
        })
}

fn resolve_lit(lit: &Lit, db: &mut Database) -> Const {
    match lit {
        Lit::Str(s) => db.sym(s),
        Lit::Int(i) => Const::Int(*i),
        Lit::Float(f) => Const::float(*f),
        Lit::Bool(b) => Const::Bool(*b),
    }
}

fn resolve_term(t: &Term, db: &mut Database) -> RTerm {
    match t {
        Term::Var(v) => RTerm::Var(*v),
        Term::Lit(l) => RTerm::Const(resolve_lit(l, db)),
        Term::Skolem { functor, args } => RTerm::Skolem {
            functor: db.symbols.intern(&format!("#{functor}")),
            args: args.iter().map(|a| resolve_term(a, db)).collect(),
        },
    }
}

fn resolve_expr(e: &Expr, db: &mut Database) -> RExpr {
    match e {
        Expr::Var(v) => RExpr::Var(*v),
        Expr::Lit(l) => RExpr::Const(resolve_lit(l, db)),
        Expr::Binary(op, a, b) => RExpr::Binary(
            *op,
            Box::new(resolve_expr(a, db)),
            Box::new(resolve_expr(b, db)),
        ),
        Expr::Cmp(op, a, b) => RExpr::Cmp(
            *op,
            Box::new(resolve_expr(a, db)),
            Box::new(resolve_expr(b, db)),
        ),
        Expr::Call(name, args) => RExpr::Call {
            name: name.clone(),
            functor: db.symbols.intern(&format!("#{name}")),
            args: args.iter().map(|a| resolve_expr(a, db)).collect(),
        },
    }
}

fn resolve_atom(a: &Atom, db: &mut Database) -> Result<RAtom> {
    let pred = db.pred_id(&a.pred);
    db.check_arity(pred, a.terms.len())
        .map_err(|e| DatalogError::Validation(format!("atom {}: {e}", a.pred)))?;
    Ok(RAtom {
        pred,
        terms: a.terms.iter().map(|t| resolve_term(t, db)).collect(),
    })
}

/// Resolves all rules against `db`. The bound-position masks computed here
/// describe the body *as written*; the cost-based planner recomputes masks
/// for its chosen orders and registers the indexes its plans probe.
pub(crate) fn resolve_rules(program: &Program, db: &mut Database) -> Result<Vec<RRule>> {
    let mut out = Vec::with_capacity(program.rules.len());
    for (ri, rule) in program.rules.iter().enumerate() {
        let mut bound: HashSet<VarId> = HashSet::new();
        let mut body = Vec::with_capacity(rule.body.len());
        let mut positive_literals = Vec::new();
        let mut positive_preds = Vec::new();
        for (li, lit) in rule.body.iter().enumerate() {
            match lit {
                Literal::Atom(a) => {
                    let ra = resolve_atom(a, db)?;
                    for t in &ra.terms {
                        if let RTerm::Var(v) = t {
                            bound.insert(*v);
                        }
                    }
                    positive_literals.push(li);
                    positive_preds.push(ra.pred);
                    body.push(RLiteral::Atom { atom: ra });
                }
                Literal::Negated(a) => {
                    body.push(RLiteral::Negated(resolve_atom(a, db)?));
                }
                Literal::Cond(e) => body.push(RLiteral::Cond(resolve_expr(e, db))),
                Literal::Let(v, e) => {
                    let re = resolve_expr(e, db);
                    bound.insert(*v);
                    body.push(RLiteral::Let(*v, re));
                }
                Literal::LetAgg(v, agg) => {
                    let ragg = RAgg {
                        func: agg.func,
                        expr: resolve_expr(&agg.expr, db),
                        contributors: agg.contributors.clone(),
                    };
                    let head_value_pos = rule.head[0]
                        .terms
                        .iter()
                        .position(|t| matches!(t, Term::Var(u) if u == v))
                        .expect("V014: the aggregate value appears in the head");
                    bound.insert(*v);
                    body.push(RLiteral::Agg {
                        agg: ragg,
                        kind: AggKind::Let {
                            var: *v,
                            head_value_pos,
                        },
                    });
                }
                Literal::AggCond { agg, op, rhs } => {
                    let ragg = RAgg {
                        func: agg.func,
                        expr: resolve_expr(&agg.expr, db),
                        contributors: agg.contributors.clone(),
                    };
                    body.push(RLiteral::Agg {
                        agg: ragg,
                        kind: AggKind::Cond {
                            op: *op,
                            rhs: resolve_expr(rhs, db),
                        },
                    });
                }
            }
        }
        // Heads and existentials.
        let mut head = Vec::with_capacity(rule.head.len());
        for h in &rule.head {
            head.push(resolve_atom(h, db)?);
        }
        let mut existentials = Vec::new();
        let mut seen_ex: HashSet<VarId> = HashSet::new();
        // Frontier: bound vars appearing anywhere in the head, in id order.
        let mut frontier: Vec<VarId> = Vec::new();
        for h in &rule.head {
            let mut vs = Vec::new();
            for t in &h.terms {
                term_vars(t, &mut vs);
            }
            for v in vs {
                if bound.contains(&v) && !frontier.contains(&v) {
                    frontier.push(v);
                }
            }
        }
        frontier.sort_unstable();
        for h in &rule.head {
            let mut vs = Vec::new();
            for t in &h.terms {
                term_vars(t, &mut vs);
            }
            for v in vs {
                if !bound.contains(&v) && seen_ex.insert(v) {
                    let functor = db
                        .symbols
                        .intern(&format!("∃{}#{}", ri, rule.vars[v as usize]));
                    existentials.push((v, functor, frontier.clone()));
                }
            }
        }
        // Negated atoms probe by full-tuple find(); no index registration
        // needed (the dedup map serves as the full-key index).
        let pure = rule_is_pure(&head, &body, &existentials);
        out.push(RRule {
            idx: ri as u32,
            head,
            body,
            nvars: rule.vars.len(),
            existentials,
            positive_literals,
            positive_preds,
            pure,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Engine;

    fn compile_src(src: &str) -> Result<CompiledProgram> {
        Engine::new(&Program::parse(src).unwrap()).map(|e| e.compiled().clone())
    }

    #[test]
    fn simple_program_is_single_stratum() {
        let c = compile_src("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).").unwrap();
        assert_eq!(c.strata.len(), 1);
        assert_eq!(c.strata[0], vec![0, 1]);
        // Base relations sit below the components derived from them.
        assert_eq!(c.pred_stratum["e"], 0);
        assert_eq!(c.pred_stratum["t"], 1);
    }

    #[test]
    fn negation_introduces_stratum() {
        let c = compile_src("r(X) :- n(X), not t(X). t(X) :- e(X, _). ").unwrap();
        assert_eq!(c.strata.len(), 2);
        assert!(c.pred_stratum["r"] > c.pred_stratum["t"]);
    }

    #[test]
    fn auto_post_for_aggregate_only_predicates() {
        let c = compile_src(
            "acc(X, Y, V) :- e(X, Y, W), V = msum(W, <X>).\n\
             acc(X, Y, V) :- e(X, Z, W1), acc(Z, Y, W2), V = msum(W1 * W2, <Z>).",
        )
        .unwrap();
        assert_eq!(
            c.posts,
            vec![Post {
                pred: "acc".to_owned(),
                op: PostOp::MaxBy(2),
                stratum: Some(0),
                unsafe_reader: None,
            }]
        );
    }

    #[test]
    fn compaction_waits_for_the_run_only_behind_an_unsafe_reader() {
        let safe = compile_src(
            "acc(X, V) :- own(X, W), V = msum(W, <X>).\n\
             big(X) :- acc(X, V), V >= 0.5.",
        )
        .unwrap();
        assert_eq!(safe.posts[0].compacts_at(), Some(0));
        // `V <= 0.5` on a max-posted aggregate fires on intermediate
        // emissions the compacted relation no longer holds.
        let unsafe_reader = compile_src(
            "acc(X, V) :- own(X, W), V = msum(W, <X>).\n\
             small(X) :- acc(X, V), V <= 0.5.",
        )
        .unwrap();
        assert_eq!(unsafe_reader.posts[0].unsafe_reader, Some(1));
        assert_eq!(unsafe_reader.posts[0].compacts_at(), None);
        // A min-posted aggregate is safe under the opposite guard.
        let min = compile_src(
            "low(X, V) :- own(X, W), V = mmin(W, <X>).\n\
             cheap(X) :- low(X, V), 0.5 >= V.",
        )
        .unwrap();
        assert_eq!(min.posts[0].op, PostOp::MinBy(1));
        assert_eq!(min.posts[0].compacts_at(), Some(0));
        // An explicit @post on a relation no rule derives compacts after
        // the run, whatever reads it.
        let edb = compile_src(
            "@post(\"score\", \"max(1)\").\n\
             top(X) :- score(X, W), W >= 1.0.",
        )
        .unwrap();
        assert_eq!(edb.posts[0].stratum, None);
        assert_eq!(edb.posts[0].compacts_at(), None);
    }

    #[test]
    fn value_column_uses_outside_a_guard_are_unsafe() {
        let reader_safe = |src: &str| {
            let c =
                compile_src(&format!("acc(X, V) :- own(X, W), V = msum(W, <X>).\n{src}")).unwrap();
            c.posts[0].unsafe_reader.is_none()
        };
        assert!(reader_safe("r(X) :- acc(X, V), V > 0.5."));
        assert!(reader_safe("r(X) :- acc(X, _)."));
        assert!(!reader_safe("r(X, V) :- acc(X, V)."));
        assert!(!reader_safe("r(X) :- acc(X, 1.0)."));
        assert!(!reader_safe("r(X) :- n(X, W), not acc(X, W)."));
        assert!(!reader_safe("r(X, U) :- acc(X, V), U = V * 2."));
        assert!(!reader_safe("r(X) :- acc(X, V), acc(X, V)."));
        assert!(!reader_safe("r(X, S) :- acc(X, V), S = msum(V, <X>)."));
    }

    #[test]
    fn mixed_predicates_not_auto_posted() {
        let c = compile_src(
            "acc(X, Y, V) :- e(X, Y, W), V = msum(W, <X>).\n\
             acc(X, Y, 1.0) :- direct(X, Y).",
        )
        .unwrap();
        assert!(c.posts.is_empty());
    }

    #[test]
    fn purity_classification() {
        use crate::db::Database;
        let resolve = |src: &str| {
            let program = Program::parse(src).unwrap();
            Engine::new(&program).unwrap();
            let mut db = Database::new();
            resolve_rules(&program, &mut db).unwrap()
        };
        // Pure joins, negation, conditions and call-free bindings are pure.
        let safe = resolve(
            "t(X, Z) :- t(X, Y), e(Y, Z).\n\
             r(X) :- n(X), not t(X, X).\n\
             b(X, V) :- n2(X, W), V = W * 2 + 1, V > 5.",
        );
        assert!(safe.iter().all(|r| r.pure), "{safe:?}");
        // Aggregates, existentials, Skolem terms and external calls all
        // touch shared state, so their evaluation order is observable.
        let unsafe_rules = resolve(
            "acc(X, V) :- own(X, W), V = msum(W, <X>).\n\
             edge(Z, X) :- own2(X, _).\n\
             link(Z, X) :- own3(X, _), Z = #mk(X).\n\
             len(X, L) :- w(X), L = #strlen(X).",
        );
        assert!(unsafe_rules.iter().all(|r| !r.pure), "{unsafe_rules:?}");
    }

    #[test]
    fn conjunctive_heads_share_stratum() {
        // node and nodetype are derived together, so they share a stratum;
        // q negates node and so sits strictly above both.
        let c =
            compile_src("node(X), nodetype(X) :- company(X). q(X) :- nodetype(X), not node(X).")
                .unwrap();
        assert_eq!(c.pred_stratum["node"], c.pred_stratum["nodetype"]);
        assert!(c.pred_stratum["q"] > c.pred_stratum["node"]);
    }
}
