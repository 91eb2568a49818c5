//! Safety / range-restriction pass (V001–V004, V013–V015).
//!
//! A rule is *safe* when every variable it evaluates is bound by a
//! positive body atom or an earlier `V = expr` binding, reading the body
//! left to right — the classic Datalog range restriction, extended with
//! Vadalog's bindings and monotonic aggregates. Variables occurring only
//! under negation are **not** bound (negation tests absence; it produces
//! no bindings), which is exactly the semantics the evaluator implements.
//!
//! Head variables that the body leaves unbound are *implicit
//! existentials*: legal Datalog± (the engine Skolemizes them into
//! labelled nulls) but suspicious in hand-written programs, so they get
//! their own code (V002) whose severity depends on
//! [`AnalysisConfig::strict_existentials`].
//!
//! The pass is the engine's only boundness and aggregate-shape check:
//! [`crate::Engine`] construction runs it and rejects any error. It does
//! not stop at the first finding: it reports every violation in every
//! rule so a program author sees the full picture in one run.

use std::collections::HashSet;

use crate::ast::{Literal, Rule, Term, VarId};

use super::diagnostics::{DiagCode, Diagnostic, Severity};
use super::{expr_vars, term_vars, AnalysisConfig, ProgramIndex};

/// Runs the pass over every rule.
pub fn run(ix: &ProgramIndex<'_>, cfg: &AnalysisConfig, out: &mut Vec<Diagnostic>) {
    for (ri, rule) in ix.program.rules.iter().enumerate() {
        check_rule(rule, ri, cfg, out);
    }
}

/// Emits a diagnostic for rule `ri`.
fn emit(
    out: &mut Vec<Diagnostic>,
    rule: &Rule,
    ri: usize,
    code: DiagCode,
    severity: Severity,
    message: String,
) {
    out.push(Diagnostic {
        code,
        severity,
        rule: Some(ri),
        span: Some(rule.span),
        message,
    });
}

fn check_rule(rule: &Rule, ri: usize, cfg: &AnalysisConfig, out: &mut Vec<Diagnostic>) {
    let mut bound: HashSet<VarId> = HashSet::new();
    // Deduplicate per-variable findings within one rule: a variable used
    // unbound three times is one mistake, not three.
    let mut flagged: HashSet<(DiagCode, VarId)> = HashSet::new();
    let mut aggregates = 0usize;
    for (li, lit) in rule.body.iter().enumerate() {
        match lit {
            Literal::Atom(a) => {
                let mut vs = Vec::new();
                for t in &a.terms {
                    if matches!(t, Term::Skolem { .. }) {
                        emit(
                            out,
                            rule,
                            ri,
                            DiagCode::V015,
                            Severity::Error,
                            format!(
                                "Skolem term in body atom {} — Skolem functions invent values \
                                 and may appear only in heads or bindings",
                                a.pred
                            ),
                        );
                    }
                    term_vars(t, &mut vs);
                }
                bound.extend(vs);
            }
            Literal::Negated(a) => {
                let mut vs = Vec::new();
                for t in &a.terms {
                    term_vars(t, &mut vs);
                }
                for v in vs {
                    if !bound.contains(&v) && flagged.insert((DiagCode::V001, v)) {
                        emit(
                            out,
                            rule,
                            ri,
                            DiagCode::V001,
                            Severity::Error,
                            format!(
                                "variable {} in negated atom `not {}(..)` is not bound by a \
                                 positive body literal",
                                rule.vars[v as usize], a.pred
                            ),
                        );
                    }
                }
            }
            Literal::Cond(e) => {
                let mut vs = Vec::new();
                expr_vars(e, &mut vs);
                for v in vs {
                    if !bound.contains(&v) && flagged.insert((DiagCode::V003, v)) {
                        emit(
                            out,
                            rule,
                            ri,
                            DiagCode::V003,
                            Severity::Error,
                            format!(
                                "variable {} in condition is not bound by a positive body literal",
                                rule.vars[v as usize]
                            ),
                        );
                    }
                }
            }
            Literal::Let(v, e) => {
                let mut vs = Vec::new();
                expr_vars(e, &mut vs);
                for u in vs {
                    if !bound.contains(&u) && flagged.insert((DiagCode::V004, u)) {
                        emit(
                            out,
                            rule,
                            ri,
                            DiagCode::V004,
                            Severity::Error,
                            format!(
                                "variable {} on the right side of `{} = ...` is not bound",
                                rule.vars[u as usize], rule.vars[*v as usize]
                            ),
                        );
                    }
                }
                bound.insert(*v);
            }
            Literal::LetAgg(v, agg) => {
                aggregates += 1;
                if li + 1 != rule.body.len() {
                    emit(
                        out,
                        rule,
                        ri,
                        DiagCode::V014,
                        Severity::Error,
                        "the aggregate literal must be last in the body".to_owned(),
                    );
                }
                check_agg_vars(rule, ri, agg, &bound, &mut flagged, out);
                if bound.contains(v) {
                    emit(
                        out,
                        rule,
                        ri,
                        DiagCode::V014,
                        Severity::Error,
                        format!(
                            "aggregate target variable {} is already bound",
                            rule.vars[*v as usize]
                        ),
                    );
                }
                bound.insert(*v);
                check_letagg_head(rule, ri, *v, out);
            }
            Literal::AggCond { agg, rhs, .. } => {
                aggregates += 1;
                if li + 1 != rule.body.len() {
                    emit(
                        out,
                        rule,
                        ri,
                        DiagCode::V014,
                        Severity::Error,
                        "the aggregate literal must be last in the body".to_owned(),
                    );
                }
                check_agg_vars(rule, ri, agg, &bound, &mut flagged, out);
                let mut vs = Vec::new();
                expr_vars(rhs, &mut vs);
                for u in vs {
                    if !bound.contains(&u) && flagged.insert((DiagCode::V004, u)) {
                        emit(
                            out,
                            rule,
                            ri,
                            DiagCode::V004,
                            Severity::Error,
                            format!(
                                "variable {} on the aggregate comparison right side is not bound",
                                rule.vars[u as usize]
                            ),
                        );
                    }
                }
                check_aggcond_head(rule, ri, &bound, out);
            }
        }
    }
    if aggregates > 1 {
        emit(
            out,
            rule,
            ri,
            DiagCode::V014,
            Severity::Error,
            format!("{aggregates} aggregates in one body (at most one is allowed)"),
        );
    }

    // Heads: Skolem arguments must be bound; other unbound head variables
    // are implicit existentials (V002).
    let mut existential_flagged: HashSet<VarId> = HashSet::new();
    for h in &rule.head {
        for t in &h.terms {
            match t {
                Term::Skolem { args, functor } => {
                    let mut vs = Vec::new();
                    for a in args {
                        term_vars(a, &mut vs);
                    }
                    for v in vs {
                        if !bound.contains(&v) && flagged.insert((DiagCode::V004, v)) {
                            emit(
                                out,
                                rule,
                                ri,
                                DiagCode::V004,
                                Severity::Error,
                                format!(
                                    "Skolem argument {} of #{functor} is not bound by the body",
                                    rule.vars[v as usize]
                                ),
                            );
                        }
                    }
                }
                Term::Var(v) => {
                    if !rule.body.is_empty() && !bound.contains(v) && existential_flagged.insert(*v)
                    {
                        let severity = if cfg.strict_existentials {
                            Severity::Error
                        } else {
                            Severity::Warning
                        };
                        emit(
                            out,
                            rule,
                            ri,
                            DiagCode::V002,
                            severity,
                            format!(
                                "head variable {} of {} is not bound by the body — the engine \
                                 invents a labelled null (bind it, or make the invention \
                                 explicit with `{} = #skolem(...)`)",
                                rule.vars[*v as usize], h.pred, rule.vars[*v as usize]
                            ),
                        );
                    }
                }
                Term::Lit(_) => {}
            }
        }
    }

    // Facts must be ground (V013): an empty body binds nothing.
    if rule.body.is_empty() {
        for h in &rule.head {
            let mut vs = Vec::new();
            for t in &h.terms {
                term_vars(t, &mut vs);
            }
            if let Some(&v) = vs.first() {
                emit(
                    out,
                    rule,
                    ri,
                    DiagCode::V013,
                    Severity::Error,
                    format!(
                        "fact {}(..) contains variable {} — facts must be ground",
                        h.pred, rule.vars[v as usize]
                    ),
                );
            }
        }
    }
}

fn check_agg_vars(
    rule: &Rule,
    ri: usize,
    agg: &crate::ast::Aggregate,
    bound: &HashSet<VarId>,
    flagged: &mut HashSet<(DiagCode, VarId)>,
    out: &mut Vec<Diagnostic>,
) {
    let mut vs = Vec::new();
    expr_vars(&agg.expr, &mut vs);
    vs.extend(agg.contributors.iter().copied());
    for v in vs {
        if !bound.contains(&v) && flagged.insert((DiagCode::V004, v)) {
            emit(
                out,
                rule,
                ri,
                DiagCode::V004,
                Severity::Error,
                format!(
                    "variable {} inside {}(...) is not bound",
                    rule.vars[v as usize],
                    agg.func.name()
                ),
            );
        }
    }
}

/// Head-shape rules for `V = magg(...)` bindings: single skolem-free head
/// atom carrying the value exactly once.
fn check_letagg_head(rule: &Rule, ri: usize, v: VarId, out: &mut Vec<Diagnostic>) {
    if rule.head.len() != 1 {
        emit(
            out,
            rule,
            ri,
            DiagCode::V014,
            Severity::Error,
            "aggregate rules must have a single head atom".to_owned(),
        );
        return;
    }
    let mut occurrences = 0;
    for t in &rule.head[0].terms {
        match t {
            Term::Var(u) if *u == v => occurrences += 1,
            Term::Skolem { .. } => {
                emit(
                    out,
                    rule,
                    ri,
                    DiagCode::V014,
                    Severity::Error,
                    "aggregate rule heads must not contain Skolem terms".to_owned(),
                );
            }
            _ => {}
        }
    }
    if occurrences != 1 {
        emit(
            out,
            rule,
            ri,
            DiagCode::V014,
            Severity::Error,
            format!(
                "the aggregate value {} must appear exactly once in the head (found {})",
                rule.vars[v as usize], occurrences
            ),
        );
    }
}

/// Head-shape rules for aggregate conditions: single head atom, fully
/// bound, no Skolems (the aggregate controls derivation, not invention).
fn check_aggcond_head(rule: &Rule, ri: usize, bound: &HashSet<VarId>, out: &mut Vec<Diagnostic>) {
    if rule.head.len() != 1 {
        emit(
            out,
            rule,
            ri,
            DiagCode::V014,
            Severity::Error,
            "aggregate rules must have a single head atom".to_owned(),
        );
        return;
    }
    for t in &rule.head[0].terms {
        match t {
            Term::Var(u) if !bound.contains(u) => {
                emit(
                    out,
                    rule,
                    ri,
                    DiagCode::V014,
                    Severity::Error,
                    format!(
                        "aggregate rule head variable {} must be bound (no existentials \
                         under aggregation)",
                        rule.vars[*u as usize]
                    ),
                );
            }
            Term::Skolem { .. } => {
                emit(
                    out,
                    rule,
                    ri,
                    DiagCode::V014,
                    Severity::Error,
                    "aggregate rule heads must not contain Skolem terms".to_owned(),
                );
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze_with, AnalysisConfig};
    use crate::ast::Program;

    fn codes(src: &str) -> Vec<DiagCode> {
        analyze_with(&Program::parse(src).unwrap(), &AnalysisConfig::default())
            .errors()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn negated_only_variables_are_unbound() {
        assert_eq!(codes("p(X) :- e(X), not q(Y)."), vec![DiagCode::V001]);
    }

    #[test]
    fn negation_does_not_bind_for_later_literals() {
        // Y first occurs under negation; using it in a condition later is
        // still a V003 (plus the V001 for the negated occurrence itself).
        let c = codes("p(X) :- e(X), not q(Y), Y > 3.");
        assert!(c.contains(&DiagCode::V001), "{c:?}");
        assert!(c.contains(&DiagCode::V003), "{c:?}");
    }

    #[test]
    fn condition_and_binding_unbound_vars() {
        assert_eq!(codes("p(X) :- e(X), Z > 1."), vec![DiagCode::V003]);
        assert_eq!(
            codes("p(X) :- e(X), V = Q + 1, V > 0."),
            vec![DiagCode::V004]
        );
    }

    #[test]
    fn let_binds_for_subsequent_literals() {
        assert_eq!(
            codes("p(X, V) :- e(X), V = X, V > 1."),
            Vec::<DiagCode>::new()
        );
    }

    #[test]
    fn skolem_in_body_atom_rejected() {
        assert_eq!(codes("p(X) :- e(#f(X))."), vec![DiagCode::V015]);
    }

    #[test]
    fn nonground_fact_rejected() {
        assert_eq!(codes("p(X)."), vec![DiagCode::V013]);
    }

    #[test]
    fn unbound_skolem_argument_rejected() {
        assert_eq!(codes("p(#f(Q)) :- e(X)."), vec![DiagCode::V004]);
    }

    #[test]
    fn aggregate_not_last_rejected() {
        let c = codes("p(X, V) :- n(X, W), V = msum(W, <X>), n(X, _).");
        assert!(c.contains(&DiagCode::V014), "{c:?}");
    }

    #[test]
    fn aggregate_value_must_reach_head() {
        let c = codes("p(X) :- n(X, W), V = msum(W, <X>).");
        assert!(c.contains(&DiagCode::V014), "{c:?}");
    }

    #[test]
    fn two_aggregates_rejected() {
        let c = codes("p(X, V) :- n(X, W), V = msum(W, <X>), msum(W, <X>) > 1.");
        assert!(c.contains(&DiagCode::V014), "{c:?}");
    }

    #[test]
    fn duplicate_unbound_uses_reported_once() {
        let a = analyze_with(
            &Program::parse("p(X) :- e(X), Q > 1, Q > 2, Q > 3.").unwrap(),
            &AnalysisConfig::default(),
        );
        assert_eq!(a.errors().count(), 1);
    }

    #[test]
    fn bundled_style_programs_are_safe() {
        let c = codes(
            "control(X, X) :- company(X).\n\
             control(X, Y) :- control(X, Z), own(Z, Y, W), Z != Y, msum(W, <Z>) > 0.5.",
        );
        assert!(c.is_empty(), "{c:?}");
    }
}
