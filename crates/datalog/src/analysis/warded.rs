//! Wardedness pass (V012): does the program stay in Warded Datalog±?
//!
//! The paper's tractability claim rests on the warded fragment: reasoning
//! is PTIME in data complexity when every rule confines its *dangerous*
//! variables — those that may carry invented labelled nulls into the head
//! — to a single body atom (the *ward*) that shares only harmless
//! variables with the rest of the body. The construction is standard:
//!
//! 1. **Affected positions** — predicate positions that may hold labelled
//!    nulls: positions receiving an existential variable or Skolem term,
//!    closed under propagation.
//! 2. **Harmful variables** of a rule — body variables all of whose
//!    (positive) body occurrences are at affected positions.
//! 3. **Dangerous variables** — harmful variables that also reach the head.
//! 4. **Warded** — all dangerous variables share one body atom, and that
//!    atom shares only harmless variables with the other atoms.
//!
//! Only *positive* atoms bind: a variable occurring solely under negation
//! is not grounded by the body, so a head occurrence of it is existential
//! (an earlier version of this analysis treated negated atoms as binding,
//! silently under-approximating the affected positions).
//!
//! The check is advisory (warning-level V012): the engine evaluates any
//! stratifiable program, relying on its fact budget for termination, but
//! the diagnostic tells the user the PTIME guarantee no longer applies —
//! the distinction Section 4.4 of the paper draws.
//!
//! All predicate bookkeeping is keyed by the dense ids of the
//! [`ProgramIndex`]; name strings are never cloned in the fixpoint.

use std::collections::{HashMap, HashSet};

use crate::ast::{Literal, Term, VarId};

use super::diagnostics::{DiagCode, Diagnostic, Severity};
use super::{term_vars, AnalysisConfig, ProgramIndex};

/// Runs the pass, reporting each violation as a V012 warning.
pub fn run(ix: &ProgramIndex<'_>, _cfg: &AnalysisConfig, out: &mut Vec<Diagnostic>) {
    let affected = affected_positions(ix);
    for (ri, message) in violations(ix, &affected) {
        out.push(Diagnostic {
            code: DiagCode::V012,
            severity: Severity::Warning,
            rule: Some(ri),
            span: ix.program.rules.get(ri).map(|r| r.span),
            message: format!("rule leaves the warded fragment: {message}"),
        });
    }
}

/// Variables bound by the rule body: positive atoms and binding targets.
/// Negated atoms deliberately do not contribute (negation tests absence
/// and grounds nothing).
fn body_bound_vars(rule: &crate::ast::Rule) -> HashSet<VarId> {
    let mut bound: HashSet<VarId> = HashSet::new();
    let mut vs = Vec::new();
    for lit in &rule.body {
        match lit {
            Literal::Atom(a) => {
                for t in &a.terms {
                    term_vars(t, &mut vs);
                }
                bound.extend(vs.drain(..));
            }
            Literal::Let(v, _) | Literal::LetAgg(v, _) => {
                bound.insert(*v);
            }
            _ => {}
        }
    }
    bound
}

/// Predicate positions that may hold labelled nulls, as
/// `(predicate id, position)` pairs.
fn affected_positions(ix: &ProgramIndex<'_>) -> HashSet<(u32, usize)> {
    let mut affected: HashSet<(u32, usize)> = HashSet::new();
    // Base: positions receiving existential variables or Skolem terms.
    for rule in &ix.program.rules {
        let bound = body_bound_vars(rule);
        for h in &rule.head {
            let hid = match ix.id(&h.pred) {
                Some(id) => id,
                None => continue,
            };
            for (i, t) in h.terms.iter().enumerate() {
                let invented = match t {
                    Term::Var(v) => !bound.contains(v),
                    Term::Skolem { .. } => true,
                    Term::Lit(_) => false,
                };
                if invented {
                    affected.insert((hid, i));
                }
            }
        }
    }
    // Propagation to fixpoint: a body variable occurring only at affected
    // positions may carry a null into its head positions.
    loop {
        let mut changed = false;
        for rule in &ix.program.rules {
            let occurrences = positive_occurrences(ix, rule, &affected);
            for h in &rule.head {
                let hid = match ix.id(&h.pred) {
                    Some(id) => id,
                    None => continue,
                };
                let mut vs = Vec::new();
                for (i, t) in h.terms.iter().enumerate() {
                    vs.clear();
                    term_vars(t, &mut vs);
                    for &v in &vs {
                        if let Some(occ) = occurrences.get(&v) {
                            if !occ.is_empty() && occ.iter().all(|&(_, aff)| aff) {
                                changed |= affected.insert((hid, i));
                            }
                        }
                    }
                }
            }
        }
        if !changed {
            return affected;
        }
    }
}

/// Per-rule violations as `(rule index, message)` pairs, sorted.
fn violations(ix: &ProgramIndex<'_>, affected: &HashSet<(u32, usize)>) -> Vec<(usize, String)> {
    let mut violations = Vec::new();
    for (ri, rule) in ix.program.rules.iter().enumerate() {
        let occurrences = positive_occurrences(ix, rule, affected);
        let mut harmful: Vec<VarId> = occurrences
            .iter()
            .filter(|(_, occ)| !occ.is_empty() && occ.iter().all(|&(_, aff)| aff))
            .map(|(&v, _)| v)
            .collect();
        if harmful.is_empty() {
            continue;
        }
        harmful.sort_unstable();
        // Dangerous: harmful and exported to the head.
        let mut head_vars: Vec<VarId> = Vec::new();
        for h in &rule.head {
            for t in &h.terms {
                term_vars(t, &mut head_vars);
            }
        }
        let dangerous: Vec<VarId> = harmful
            .iter()
            .copied()
            .filter(|v| head_vars.contains(v))
            .collect();
        if dangerous.is_empty() {
            continue;
        }
        // All dangerous variables must share one body atom (the ward).
        let mut candidate_wards: Option<HashSet<usize>> = None;
        for &v in &dangerous {
            let lits: HashSet<usize> = occurrences[&v].iter().map(|&(li, _)| li).collect();
            candidate_wards = Some(match candidate_wards {
                None => lits,
                Some(prev) => prev.intersection(&lits).copied().collect(),
            });
        }
        let wards = candidate_wards.unwrap_or_default();
        if wards.is_empty() {
            violations.push((
                ri,
                format!(
                    "dangerous variables {:?} do not share a single body atom",
                    dangerous
                        .iter()
                        .map(|&v| rule.vars[v as usize].as_str())
                        .collect::<Vec<_>>()
                ),
            ));
            continue;
        }
        // The ward may share only harmless variables with other atoms.
        let ward_ok = wards.iter().any(|&ward| {
            occurrences.iter().all(|(v, occ)| {
                let in_ward = occ.iter().any(|&(li, _)| li == ward);
                let outside = occ.iter().any(|&(li, _)| li != ward);
                !(in_ward && outside && harmful.contains(v))
            })
        });
        if !ward_ok {
            violations.push((
                ri,
                "the ward shares harmful variables with other body atoms".to_owned(),
            ));
        }
    }

    violations.sort();
    violations
}

/// For each variable of the rule, its positive-atom occurrences as
/// `(body literal index, at affected position?)` pairs.
fn positive_occurrences(
    ix: &ProgramIndex<'_>,
    rule: &crate::ast::Rule,
    affected: &HashSet<(u32, usize)>,
) -> HashMap<VarId, Vec<(usize, bool)>> {
    let mut occurrences: HashMap<VarId, Vec<(usize, bool)>> = HashMap::new();
    let mut vs = Vec::new();
    for (li, lit) in rule.body.iter().enumerate() {
        if let Literal::Atom(a) = lit {
            let id = match ix.id(&a.pred) {
                Some(id) => id,
                None => continue,
            };
            for (i, t) in a.terms.iter().enumerate() {
                vs.clear();
                term_vars(t, &mut vs);
                for &v in &vs {
                    occurrences
                        .entry(v)
                        .or_default()
                        .push((li, affected.contains(&(id, i))));
                }
            }
        }
    }
    occurrences
}

#[cfg(test)]
mod tests {
    use super::super::{analyze_with, AnalysisConfig};
    use super::*;
    use crate::ast::Program;

    /// Affected positions by name, and the violations.
    type Report = (Vec<(String, usize)>, Vec<(usize, String)>);

    fn report(src: &str) -> Report {
        let program = Program::parse(src).unwrap();
        let ix = ProgramIndex::new(&program);
        let affected = affected_positions(&ix);
        let violations = violations(&ix, &affected);
        let affected = affected
            .into_iter()
            .map(|(id, i)| (ix.name(id).to_owned(), i))
            .collect();
        (affected, violations)
    }

    #[test]
    fn plain_datalog_is_warded() {
        let (affected, violations) = report("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).");
        assert!(violations.is_empty());
        assert!(affected.is_empty());
    }

    #[test]
    fn control_program_is_warded() {
        let (_, violations) = report(
            "control(X, X) :- company(X).\n\
             control(X, Y) :- control(X, Z), own(Z, Y, W), Z != Y, msum(W, <Z>) > 0.5.",
        );
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn existentials_mark_affected_positions() {
        let (affected, violations) = report("link(Z, X) :- own(X, _).");
        assert!(violations.is_empty());
        assert!(affected.contains(&("link".to_owned(), 0)));
        assert!(!affected.contains(&("link".to_owned(), 1)));
    }

    #[test]
    fn negated_only_variables_are_existential() {
        // Regression: Y occurs only under negation, which binds nothing,
        // so the head position receiving Y is affected. An earlier version
        // let negated atoms bind and missed this.
        let (affected, _) = report("p(X, Y) :- e(X), not q(Y).");
        assert!(affected.contains(&("p".to_owned(), 1)), "{affected:?}");
        assert!(!affected.contains(&("p".to_owned(), 0)), "{affected:?}");
    }

    #[test]
    fn affectedness_propagates_through_rules() {
        let (affected, _) = report(
            "mk(Z, X) :- src(X).\n\
             copy(Z) :- mk(Z, _).\n\
             copy2(Z) :- copy(Z).",
        );
        assert!(affected.contains(&("mk".to_owned(), 0)));
        assert!(affected.contains(&("copy".to_owned(), 0)));
        assert!(affected.contains(&("copy2".to_owned(), 0)));
    }

    #[test]
    fn harmless_join_on_invented_value_is_warded() {
        // Z is dangerous but occurs in a single atom (the ward); the join
        // with other atoms happens on the harmless X.
        let (_, violations) = report(
            "mk(Z, X) :- src(X).\n\
             out(Z, Y) :- mk(Z, X), other(X, Y).",
        );
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn dangerous_join_across_atoms_is_a_violation() {
        // Z may be a null and is joined across two body atoms AND exported
        // to the head: the classic non-warded pattern.
        let (_, violations) = report(
            "mk(Z, X) :- src(X).\n\
             mk2(Z, X) :- src(X).\n\
             out(Z) :- mk(Z, X), mk2(Z, Y).",
        );
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].0, 2);
    }

    #[test]
    fn generic_pipeline_program_is_warded() {
        // The paper's full Algorithm 2+5+4 pipeline stays in the fragment.
        let (_, violations) = report(
            r#"
            node(Z, N) :- company_attr(N, A), Z = #sk_node(N).
            g_ctl(Z, Z) :- node(Z, _).
            g_ctl(X, Y) :- g_ctl(X, Z), link(E, Z, Y, W), Z != Y, msum(W, <Z>) > 0.5.
            g_control(NX, NY) :- g_ctl(X, Y), X != Y, node(X, NX), node(Y, NY).
            "#,
        );
        // g_ctl joins node OIDs across atoms, but only exports the
        // harmless names NX/NY... the OID X is harmful AND joined across
        // g_ctl and node — yet not exported to the head, so it is not
        // dangerous. The program is warded.
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn violations_surface_as_v012_warnings() {
        let a = analyze_with(
            &Program::parse(
                "mk(Z, X) :- src(X).\n\
                 mk2(Z, X) :- src(X).\n\
                 out(Z) :- mk(Z, X), mk2(Z, Y).",
            )
            .unwrap(),
            &AnalysisConfig::default(),
        );
        let v: Vec<_> = a
            .diagnostics
            .iter()
            .filter(|d| d.code == DiagCode::V012)
            .collect();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Some(2));
        assert_eq!(v[0].severity, Severity::Warning);
    }

    #[test]
    fn warded_pass_is_advisory_only() {
        // Non-warded but otherwise well-formed: still clean (no errors).
        let a = analyze_with(
            &Program::parse(
                "mk(Z, X) :- src(X).\n\
                 mk2(Z, X) :- src(X).\n\
                 out(Z) :- mk(Z, X), mk2(Z, Y).",
            )
            .unwrap(),
            &AnalysisConfig::default(),
        );
        assert!(a.is_clean());
    }
}
