//! Style lints: singleton variables and unused bindings (V010, V011).
//!
//! Neither finding makes a program wrong, but both are classic typo
//! shapes. A named variable used exactly once joins with nothing — when
//! that is intended, Datalog convention spells it `_` (or an
//! underscore-prefixed name, which this pass exempts); when it is not,
//! the author probably misspelled one of two occurrences (`Compny` /
//! `Company`), which silently turns a join into a cross product. An
//! unused `V = expr` binding computes a value nobody reads, which usually
//! means a head forgot to carry it.

use std::collections::HashMap;

use crate::ast::{Literal, Rule, VarId};

use super::diagnostics::{DiagCode, Diagnostic, Severity};
use super::{expr_vars, term_vars, AnalysisConfig, ProgramIndex};

/// Runs the pass.
pub fn run(ix: &ProgramIndex<'_>, _cfg: &AnalysisConfig, out: &mut Vec<Diagnostic>) {
    for (ri, rule) in ix.program.rules.iter().enumerate() {
        check_rule(rule, ri, out);
    }
}

/// Counts every occurrence of every variable in the rule, in both head
/// and body, including expression and aggregate positions.
fn occurrence_counts(rule: &Rule) -> HashMap<VarId, usize> {
    let mut vs: Vec<VarId> = Vec::new();
    for h in &rule.head {
        for t in &h.terms {
            term_vars(t, &mut vs);
        }
    }
    for lit in &rule.body {
        match lit {
            Literal::Atom(a) | Literal::Negated(a) => {
                for t in &a.terms {
                    term_vars(t, &mut vs);
                }
            }
            Literal::Cond(e) => expr_vars(e, &mut vs),
            Literal::Let(v, e) => {
                vs.push(*v);
                expr_vars(e, &mut vs);
            }
            Literal::LetAgg(v, agg) => {
                vs.push(*v);
                expr_vars(&agg.expr, &mut vs);
                vs.extend(agg.contributors.iter().copied());
            }
            Literal::AggCond { agg, rhs, .. } => {
                expr_vars(&agg.expr, &mut vs);
                vs.extend(agg.contributors.iter().copied());
                expr_vars(rhs, &mut vs);
            }
        }
    }
    let mut counts: HashMap<VarId, usize> = HashMap::new();
    for v in vs {
        *counts.entry(v).or_insert(0) += 1;
    }
    counts
}

fn check_rule(rule: &Rule, ri: usize, out: &mut Vec<Diagnostic>) {
    let counts = occurrence_counts(rule);

    // V011: a `V = expr` binding whose target is read nowhere else.
    // Reported instead of (not in addition to) the singleton lint.
    let mut unused_binding: Vec<VarId> = Vec::new();
    for lit in &rule.body {
        if let Literal::Let(v, _) = lit {
            if counts.get(v) == Some(&1) {
                unused_binding.push(*v);
                out.push(Diagnostic {
                    code: DiagCode::V011,
                    severity: Severity::Warning,
                    rule: Some(ri),
                    span: Some(rule.span),
                    message: format!(
                        "binding `{} = ...` is never used (not in the head nor any \
                         later literal)",
                        rule.vars[*v as usize]
                    ),
                });
            }
        }
    }

    // V010: named singleton variables, in VarId order for determinism.
    let mut singletons: Vec<VarId> = counts
        .iter()
        .filter(|&(v, &c)| {
            c == 1 && !rule.vars[*v as usize].starts_with('_') && !unused_binding.contains(v)
        })
        .map(|(v, _)| *v)
        .collect();
    singletons.sort_unstable();
    for v in singletons {
        out.push(Diagnostic {
            code: DiagCode::V010,
            severity: Severity::Warning,
            rule: Some(ri),
            span: Some(rule.span),
            message: format!(
                "variable {} occurs only once; use _ (or an _-prefixed name) if that \
                 is intentional",
                rule.vars[v as usize]
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::{analyze_with, AnalysisConfig};
    use super::*;
    use crate::ast::Program;

    fn lint_codes(src: &str) -> Vec<DiagCode> {
        analyze_with(&Program::parse(src).unwrap(), &AnalysisConfig::default())
            .diagnostics
            .iter()
            .filter(|d| matches!(d.code, DiagCode::V010 | DiagCode::V011))
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn singleton_named_variable_is_flagged() {
        assert_eq!(lint_codes("p(X) :- e(X, Stray)."), vec![DiagCode::V010]);
    }

    #[test]
    fn underscore_names_are_exempt() {
        assert!(lint_codes("p(X) :- e(X, _), f(X, _ignored).").is_empty());
    }

    #[test]
    fn join_variables_are_not_singletons() {
        assert!(lint_codes("p(X, Y) :- e(X, Y), f(Y).").is_empty());
    }

    #[test]
    fn unused_binding_is_v011_not_v010() {
        assert_eq!(
            lint_codes("p(X) :- e(X, W), V = W * 2."),
            vec![DiagCode::V011]
        );
    }

    #[test]
    fn used_binding_is_clean() {
        assert!(lint_codes("p(X, V) :- e(X, W), V = W * 2.").is_empty());
    }
}
