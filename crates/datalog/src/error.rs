//! Error types for parsing, validation and evaluation.

use std::fmt;

use crate::analysis::Diagnostic;

/// Any error raised by the datalog crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatalogError {
    /// Syntax error while parsing a program.
    Parse {
        /// 1-based line of the offending token.
        line: usize,
        /// Description of what went wrong.
        message: String,
    },
    /// A structurally invalid program (e.g. unbound variable in a negated
    /// atom, inconsistent arity, non-stratifiable negation).
    Validation(String),
    /// The static analyzer rejected the program at [`crate::Engine`]
    /// construction: at least one error-level [`Diagnostic`] (the vector
    /// holds only those). Every engine runs this gate; it is the only
    /// check between the parser and the stratifier.
    Analysis(Vec<Diagnostic>),
    /// Arity or type mismatch when asserting facts.
    BadFact(String),
    /// A resource budget was exceeded during evaluation (the engine's
    /// defense-in-depth termination guard).
    BudgetExceeded(String),
    /// An external function failed or is missing.
    Function(String),
}

impl fmt::Display for DatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatalogError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            DatalogError::Validation(m) => write!(f, "invalid program: {m}"),
            DatalogError::Analysis(ds) => {
                write!(f, "program rejected by static analysis:")?;
                for d in ds {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            DatalogError::BadFact(m) => write!(f, "bad fact: {m}"),
            DatalogError::BudgetExceeded(m) => write!(f, "budget exceeded: {m}"),
            DatalogError::Function(m) => write!(f, "function error: {m}"),
        }
    }
}

impl std::error::Error for DatalogError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, DatalogError>;
