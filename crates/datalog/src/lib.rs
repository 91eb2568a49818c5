//! # datalog — a Vadalog-style Datalog± reasoning engine
//!
//! This crate is the reproduction's stand-in for the proprietary **Vadalog**
//! engine the paper builds on \[Bellomarini et al., VLDB 2018\]. It
//! implements the language features the paper's programs (Algorithms 2–9)
//! actually use:
//!
//! * plain Datalog with recursion, evaluated **semi-naively** to fixpoint;
//! * **existential rules** (Datalog±): head variables not bound by the body
//!   are Skolemized into labelled nulls (the "Skolem chase");
//! * explicit **Skolem functions** `#sk_name(args)` with the paper's three
//!   OID-invention properties — determinism, injectivity, disjoint ranges;
//! * **monotonic aggregation** — `msum`, `mmax`, `mmin`, `mcount`, `mprod`
//!   with contributor keys (`msum(W, <Z>)`), shared per head-predicate/group
//!   across rules, exactly the semantics Algorithm 8 of the paper relies on
//!   ("the two monotonic summations contribute to the same total");
//! * **stratified negation** (`not atom(...)`);
//! * comparisons and arithmetic expressions over constants;
//! * **external functions** registered from Rust (the paper's
//!   `#GraphEmbedClust`, `#GenerateBlocks`, `#LinkProbability` hooks);
//! * `@output` / `@post` directives (post-processing, e.g. keep the maximum
//!   aggregate value per group);
//! * optional **provenance** recording and derivation-tree explanations
//!   (the paper's "explainable and unambiguous" property);
//! * a **static analyzer** ([`analysis`]) with stable diagnostic codes
//!   covering safety, stratifiability, arity consistency, dead rules,
//!   style lints and wardedness; [`Engine::new`] rejects programs with
//!   error-level diagnostics — the analyzer is its only validator.
//!
//! ## Quick start
//!
//! ```
//! use datalog::{Database, Engine, Program};
//!
//! let program = Program::parse(
//!     r#"
//!     @output("control").
//!     control(X, X) :- company(X).
//!     control(X, Y) :- control(X, Z), own(Z, Y, W), msum(W, <Z>) > 0.5.
//!     "#,
//! )
//! .unwrap();
//! let mut db = Database::new();
//! db.assert_str_facts("company", &[&["a"], &["b"], &["c"]]);
//! db.fact("own").sym("a").sym("b").float(0.6).assert();
//! db.fact("own").sym("b").sym("c").float(0.51).assert();
//! let engine = Engine::new(&program).unwrap();
//! engine.run(&mut db).unwrap();
//! assert!(db.contains_str_fact("control", &["a", "c"]));
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod ast;
pub mod builtins;
pub mod db;
pub mod error;
pub mod eval;
pub mod explain;
pub mod fx;
pub mod incr;
pub(crate) mod index;
pub mod parser;
pub mod value;

pub use analysis::{
    analyze, analyze_with, Analysis, AnalysisConfig, DiagCode, Diagnostic, Severity,
};
pub use ast::{Program, Query, Rule};
pub use builtins::FunctionRegistry;
pub use db::{Database, FactBuilder};
pub use error::DatalogError;
pub use eval::{goal_matches, Engine, EngineOptions, RunStats};
pub use explain::Derivation;
pub use incr::{ChangeSet, IncrementalEngine, SessionInfo, Update, UpdateStats};
pub use value::Const;
