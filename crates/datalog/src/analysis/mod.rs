//! Static analysis of Vadalog programs: a compile-time pass pipeline that
//! catches ill-formed programs *before* evaluation.
//!
//! The Vadalog system papers describe program analysis as a first-class
//! engine stage — malformed programs should fail at load time with precise
//! diagnostics, not deep inside an expensive fixpoint. This module is that
//! stage. [`analyze`] (or [`analyze_with`] for a custom
//! [`AnalysisConfig`]) runs every pass over a parsed [`Program`] and
//! returns an [`Analysis`] holding structured [`Diagnostic`]s with stable
//! codes, severities, rule indices and source spans:
//!
//! * [`safety`] — range restriction / boundness (V001–V004, V013–V015);
//! * [`schema`] — arity consistency and directive targets (V006–V008);
//! * [`strat`] — stratifiability with an explicit negation-cycle witness
//!   (V005) and recursive-aggregation notes (V016);
//! * [`reachability`] — dead rules and unreachable predicates relative to
//!   the declared `@output`s (V009);
//! * [`lints`] — singleton variables and unused bindings (V010, V011);
//! * [`warded`] — the paper's wardedness check (Section 4.4), advisory
//!   because the engine evaluates any stratifiable program (V012);
//! * [`constprop`] — constant and value-kind propagation: rules that can
//!   be proven dead (V017–V020).
//!
//! Only the first three passes can emit errors, and [`crate::Engine`]
//! construction runs exactly those (`check`): it rejects a program with
//! any error-level diagnostic and stratifies the dependency graph the
//! [`strat`] pass built, so the analyzer is the engine's only validator.
//! The advisory passes run in [`analyze`] / [`analyze_with`] alone, which
//! `vadalink check` calls. Predicate names are interned once into a
//! [`ProgramIndex`] shared by all passes, so no pass clones name strings
//! in its inner loops.

pub mod constprop;
pub mod diagnostics;
pub mod lints;
pub mod reachability;
pub mod safety;
pub mod schema;
pub mod strat;
pub mod warded;

use std::collections::HashMap;

use crate::ast::{Expr, Literal, Program, Term, VarId};

pub use diagnostics::{DiagCode, Diagnostic, Severity};

/// Collects the variables of a term (flattening Skolem arguments).
pub(crate) fn term_vars(t: &Term, out: &mut Vec<VarId>) {
    match t {
        Term::Var(v) => out.push(*v),
        Term::Lit(_) => {}
        Term::Skolem { args, .. } => {
            for a in args {
                term_vars(a, out);
            }
        }
    }
}

/// Collects the variables of an expression.
pub(crate) fn expr_vars(e: &Expr, out: &mut Vec<VarId>) {
    match e {
        Expr::Var(v) => out.push(*v),
        Expr::Lit(_) => {}
        Expr::Binary(_, a, b) | Expr::Cmp(_, a, b) => {
            expr_vars(a, out);
            expr_vars(b, out);
        }
        Expr::Call(_, args) => {
            for a in args {
                expr_vars(a, out);
            }
        }
    }
}

/// Interned predicate names of one program, shared by every pass.
///
/// Building the table is one walk over the program; afterwards passes key
/// their maps and sets by dense `u32` ids instead of cloning `String`s
/// per occurrence (the old `warded::affected_positions` hot spot).
pub struct ProgramIndex<'p> {
    /// The program under analysis.
    pub program: &'p Program,
    ids: HashMap<&'p str, u32>,
    names: Vec<&'p str>,
    /// Number of predicates that occur in rule heads or bodies (ids below
    /// this bound); directive-only predicates get ids at or above it.
    atom_preds: u32,
}

impl<'p> ProgramIndex<'p> {
    /// Builds the index: atom predicates first, then directive targets.
    pub fn new(program: &'p Program) -> Self {
        let mut ids = HashMap::new();
        let mut names = Vec::new();
        let intern = |name: &'p str, ids: &mut HashMap<&'p str, u32>, names: &mut Vec<&'p str>| {
            *ids.entry(name).or_insert_with(|| {
                names.push(name);
                (names.len() - 1) as u32
            })
        };
        for rule in &program.rules {
            for h in &rule.head {
                intern(&h.pred, &mut ids, &mut names);
            }
            for lit in &rule.body {
                if let Literal::Atom(a) | Literal::Negated(a) = lit {
                    intern(&a.pred, &mut ids, &mut names);
                }
            }
        }
        let atom_preds = names.len() as u32;
        for d in &program.directives {
            let name = match d {
                crate::ast::Directive::Input(p)
                | crate::ast::Directive::Output(p)
                | crate::ast::Directive::Post(p, _) => p.as_str(),
            };
            intern(name, &mut ids, &mut names);
        }
        ProgramIndex {
            program,
            ids,
            names,
            atom_preds,
        }
    }

    /// Dense id of a predicate name (every name in the program has one).
    pub fn id(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// Name of a predicate id.
    pub fn name(&self, id: u32) -> &'p str {
        self.names[id as usize]
    }

    /// Number of interned predicates.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the program mentions no predicates at all.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// True when the predicate occurs only in directives, never in an atom.
    pub fn directive_only(&self, id: u32) -> bool {
        id >= self.atom_preds
    }
}

/// Configuration of the analyzer.
///
/// The default configuration matches the engine's historical behavior:
/// hard safety violations are errors and implicit existentials (legal
/// Datalog±) are warnings. The [`strict`](AnalysisConfig::strict)
/// profile — used by `vadalink check` — escalates implicit existentials to
/// errors because in hand-authored programs they are almost always
/// misspelled variables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Treat implicit existentials (V002) as errors instead of warnings
    /// (default `false`: the engine Skolemizes them, which is the
    /// Datalog± chase and sometimes intended).
    pub strict_existentials: bool,
}

impl AnalysisConfig {
    /// The pedantic profile of `vadalink check`: V002 escalates to an
    /// error.
    pub fn strict() -> Self {
        AnalysisConfig {
            strict_existentials: true,
        }
    }
}

/// The result of analyzing one program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Analysis {
    /// All findings, sorted by rule index, then code.
    pub diagnostics: Vec<Diagnostic>,
}

impl Analysis {
    /// Orders findings by rule index, then code.
    pub(crate) fn sorted(mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by(|a, b| {
            (a.rule, a.code, a.severity, &a.message).cmp(&(b.rule, b.code, b.severity, &b.message))
        });
        Analysis { diagnostics }
    }

    /// True when no error-level diagnostic was reported.
    pub fn is_clean(&self) -> bool {
        !self.has_errors()
    }

    /// True when at least one error-level diagnostic was reported.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Iterates over the error-level diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Iterates over the warning-level diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Consumes the analysis, keeping only error-level diagnostics.
    pub fn into_errors(self) -> Vec<Diagnostic> {
        self.diagnostics
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }

    /// Renders every diagnostic against the program source, one per line.
    pub fn render(&self, src: &str) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render(src));
            out.push('\n');
        }
        out
    }
}

/// Runs the full pass pipeline with the default [`AnalysisConfig`].
pub fn analyze(program: &Program) -> Analysis {
    analyze_with(program, &AnalysisConfig::default())
}

/// Runs the full pass pipeline with a custom configuration.
pub fn analyze_with(program: &Program, cfg: &AnalysisConfig) -> Analysis {
    let ix = ProgramIndex::new(program);
    let mut out = Vec::new();
    check(&ix, cfg, &mut out);
    reachability::run(&ix, cfg, &mut out);
    lints::run(&ix, cfg, &mut out);
    warded::run(&ix, cfg, &mut out);
    constprop::run(&ix, cfg, &mut out);
    Analysis::sorted(out)
}

/// Runs the passes that can emit errors — safety, schema and
/// stratifiability — and returns the dependency graph the last one
/// checked. [`crate::Engine`] construction runs only these.
pub(crate) fn check(
    ix: &ProgramIndex<'_>,
    cfg: &AnalysisConfig,
    out: &mut Vec<Diagnostic>,
) -> strat::DepGraph {
    safety::run(ix, cfg, out);
    schema::run(ix, cfg, out);
    strat::run(ix, cfg, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(src: &str, cfg: &AnalysisConfig) -> Analysis {
        analyze_with(&Program::parse(src).unwrap(), cfg)
    }

    #[test]
    fn clean_program_has_no_diagnostics_at_all() {
        let a = diags(
            "@output(\"t\").\nt(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).",
            &AnalysisConfig::strict(),
        );
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn strictness_escalates_implicit_existentials() {
        let src = "edge(Z, X, Y) :- own(X, Y, W), W > 0.1.";
        let lax = diags(src, &AnalysisConfig::default());
        assert!(lax.is_clean(), "{:?}", lax.diagnostics);
        assert!(lax.warnings().any(|d| d.code == DiagCode::V002));
        let strict = diags(src, &AnalysisConfig::strict());
        assert!(strict.has_errors());
        assert_eq!(strict.errors().next().unwrap().code, DiagCode::V002);
    }

    #[test]
    fn diagnostics_carry_rule_spans() {
        let src = "ok(X) :- e(X).\nbad(Q) :- e(X), not n(Q).";
        let a = diags(src, &AnalysisConfig::default());
        let d = a.errors().next().expect("V001 expected");
        assert_eq!(d.code, DiagCode::V001);
        assert_eq!(d.rule, Some(1));
        let (line, col) = d.span.expect("span").line_col(src);
        assert_eq!((line, col), (2, 1));
    }

    #[test]
    fn program_index_interns_each_name_once() {
        let p = Program::parse(
            "@output(\"t\").\n@post(\"ghost\", \"max(0)\").\nt(X) :- e(X), not f(X).",
        )
        .unwrap();
        let ix = ProgramIndex::new(&p);
        assert_eq!(ix.len(), 4); // t, e, f, ghost
        assert!(ix.directive_only(ix.id("ghost").unwrap()));
        assert!(!ix.directive_only(ix.id("t").unwrap()));
        assert_eq!(ix.name(ix.id("e").unwrap()), "e");
    }

    #[test]
    fn engine_gate_leaves_no_structural_error() {
        // Exhaustive check over a small grammar: every program is either
        // rejected by `Engine::new` or constructed and run on a small
        // database without a structural error — the analyzer is the only
        // guard in front of the stratifier and the executors. The only
        // runtime outcomes left are success, a budget stop and a dynamic
        // type error (value-level typing is outside the analyzer's scope).
        use crate::builtins::FunctionRegistry;
        use crate::db::Database;
        use crate::error::DatalogError;
        use crate::eval::{Engine, EngineOptions};

        let heads = [
            "p(X)",
            "p(X, V)",
            "p(Z, X)",
            "p(#g(X))",
            "p(X), r(X)",
            "p(X), r(Z)",
        ];
        let bodies = [
            "e(X, Y)",
            "e(X, X)",
            "e(W, X)",
            "q(X)",
            "not q(X)",
            "not q(Z)",
            "X != Y",
            "Z > 1",
            "V = X + 1",
            "V = msum(W, <X>)",
            "msum(W, <Y>) > 0.5",
            "w(#f(X))",
        ];
        let mut programs = vec![
            "p(X).".to_owned(),
            "p(1).".to_owned(),
            "p(X) :- q(X), not p(X).".to_owned(),
        ];
        for h in heads {
            for b1 in bodies {
                programs.push(format!("{h} :- {b1}."));
                for b2 in bodies {
                    programs.push(format!("{h} :- {b1}, {b2}."));
                }
            }
        }
        let opts = EngineOptions {
            max_facts: 2_000,
            max_rounds: 200,
            ..EngineOptions::default()
        };
        let mut accepted = 0;
        for src in &programs {
            let Ok(program) = Program::parse(src) else {
                continue;
            };
            let Ok(engine) = Engine::with(&program, FunctionRegistry::default(), opts.clone())
            else {
                continue;
            };
            accepted += 1;
            let mut db = Database::new();
            db.assert_str_facts("e", &[&["a", "b"], &["b", "a"], &["a", "a"]]);
            db.assert_str_facts("q", &[&["a"]]);
            match engine.run(&mut db) {
                Ok(_) | Err(DatalogError::BudgetExceeded(_) | DatalogError::Function(_)) => {}
                Err(e) => panic!("engine-accepted program fails at run time: {src}\n{e}"),
            }
        }
        assert!(
            accepted > 100,
            "grammar too restrictive: {accepted} accepted"
        );
    }

    #[test]
    fn engine_gate_runs_only_the_passes_that_can_reject() {
        // A singleton variable is a lint (V010): `analyze` reports it,
        // while the engine's gate never runs the advisory passes.
        let p = Program::parse("p(X) :- e(X, Stray).").unwrap();
        let a = analyze(&p);
        assert!(a.warnings().any(|d| d.code == DiagCode::V010), "{a:?}");
        let mut out = Vec::new();
        check(&ProgramIndex::new(&p), &AnalysisConfig::default(), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn analysis_render_is_line_per_diagnostic() {
        let src = "p(X) :- e(X), not q(Y).";
        let a = diags(src, &AnalysisConfig::default());
        let rendered = a.render(src);
        assert!(rendered.contains("error[V001]"), "{rendered}");
        assert_eq!(rendered.trim_end().lines().count(), a.diagnostics.len());
    }
}
