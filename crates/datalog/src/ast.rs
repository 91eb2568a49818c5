//! Abstract syntax of Vadalog-style programs.
//!
//! A program is a list of rules plus directives. Rules are written either
//! `head :- body.` or `body -> head.` (the paper uses the arrow form).
//! Heads may be conjunctive (Algorithm 2 of the paper derives `Node` and
//! `NodeType` in one rule). Body literals are positive atoms, negated
//! atoms, boolean conditions, `V = expr` bindings and monotonic-aggregate
//! conditions or bindings (`msum(W, <Z>) > 0.5`, `V = msum(W1*W2, <E,Z>)`).

use crate::error::Result;
use crate::parser;

/// A byte-offset range into the program source text.
///
/// Spans are attached to rules and directives by the parser and carried
/// into [`crate::analysis`] diagnostics so tooling can report precise
/// `line:column` locations. Spans are *ignored* by `PartialEq` on the
/// nodes that carry them: two programs that print identically compare
/// equal even when parsed from differently formatted sources.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
}

impl Span {
    /// Builds a span from byte offsets.
    pub fn new(start: usize, end: usize) -> Span {
        Span {
            start: start as u32,
            end: end as u32,
        }
    }

    /// 1-based `(line, column)` of the span start within `src`.
    ///
    /// Column counts characters, not bytes, so multi-byte identifiers in
    /// comments do not shift reported positions. Offsets past the end of
    /// `src` clamp to the last position.
    pub fn line_col(&self, src: &str) -> (usize, usize) {
        let at = (self.start as usize).min(src.len());
        let mut line = 1;
        let mut col = 1;
        for (i, c) in src.char_indices() {
            if i >= at {
                break;
            }
            if c == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        (line, col)
    }
}

/// Literal constant as written in the source (pre-interning).
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    /// String literal or lowercase identifier.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Boolean literal.
    Bool(bool),
}

/// Variable index local to a rule (indexes [`Rule::vars`]).
pub type VarId = u32;

/// A term in an atom.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// A rule variable.
    Var(VarId),
    /// A literal constant.
    Lit(Lit),
    /// A Skolem-function application `#name(t1, ..., tn)` (head only).
    Skolem {
        /// Functor name (without the leading `#`).
        functor: String,
        /// Argument terms (variables or literals).
        args: Vec<Term>,
    },
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition (also string concatenation is *not* supported — numeric only).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=` — equality test (or binding when the left side is an unbound var).
    Eq,
    /// `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
}

/// Arithmetic / boolean expression over bound variables.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Variable reference (must be bound when evaluated).
    Var(VarId),
    /// Literal constant.
    Lit(Lit),
    /// Binary arithmetic.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Comparison producing a boolean.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Call of an externally registered function `#name(e1, ..., en)`.
    Call(String, Vec<Expr>),
}

/// Monotonic aggregation functions (Vadalog's `m*` family).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `msum` — sum of per-contributor maxima (monotonically increasing).
    Sum,
    /// `mprod` — product of per-contributor maxima.
    Prod,
    /// `mmax` — maximum over contributors.
    Max,
    /// `mmin` — minimum over contributors (monotonically decreasing).
    Min,
    /// `mcount` — number of distinct contributors.
    Count,
}

impl AggFunc {
    /// Parses the surface name (e.g. `"msum"`).
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "msum" => AggFunc::Sum,
            "mprod" => AggFunc::Prod,
            "mmax" => AggFunc::Max,
            "mmin" => AggFunc::Min,
            "mcount" => AggFunc::Count,
            _ => None?,
        })
    }

    /// Surface name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Sum => "msum",
            AggFunc::Prod => "mprod",
            AggFunc::Max => "mmax",
            AggFunc::Min => "mmin",
            AggFunc::Count => "mcount",
        }
    }
}

/// A monotonic aggregate expression `func(expr, <contributors>)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Aggregation function.
    pub func: AggFunc,
    /// Per-match contribution (ignored for `mcount`).
    pub expr: Expr,
    /// Contributor-key variables: each distinct grounding contributes once.
    pub contributors: Vec<VarId>,
}

/// An atom `pred(t1, ..., tn)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Atom {
    /// Predicate name.
    pub pred: String,
    /// Argument terms.
    pub terms: Vec<Term>,
}

/// A body literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Positive atom.
    Atom(Atom),
    /// Negated atom `not pred(...)` — stratified; all vars must be bound.
    Negated(Atom),
    /// Boolean condition over bound variables (comparisons, calls).
    Cond(Expr),
    /// Binding `V = expr` where `V` is unbound at this position.
    Let(VarId, Expr),
    /// Aggregate binding `V = msum(expr, <ks>)`.
    LetAgg(VarId, Aggregate),
    /// Aggregate condition `msum(expr, <ks>) >= rhs`.
    AggCond {
        /// The aggregate.
        agg: Aggregate,
        /// Comparison operator applied to the running aggregate value.
        op: CmpOp,
        /// Right-hand side (evaluated per match; normally a literal).
        rhs: Expr,
    },
}

/// A rule with a (possibly conjunctive) head.
#[derive(Debug, Clone, Default)]
pub struct Rule {
    /// Head atoms (all derived for each body match).
    pub head: Vec<Atom>,
    /// Body literals, evaluated left to right.
    pub body: Vec<Literal>,
    /// Variable names, indexed by [`VarId`].
    pub vars: Vec<String>,
    /// Source location of the whole rule (zero for synthetic rules).
    pub span: Span,
}

impl PartialEq for Rule {
    /// Structural equality; the source [`Span`] is intentionally ignored
    /// so print→parse roundtrips compare equal.
    fn eq(&self, other: &Self) -> bool {
        self.head == other.head && self.body == other.body && self.vars == other.vars
    }
}

/// Post-processing operation for `@post`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PostOp {
    /// Keep, per grouping of all other columns, the row with the maximum
    /// value in the given 0-based column.
    MaxBy(usize),
    /// As [`PostOp::MaxBy`] but minimum.
    MinBy(usize),
}

/// A program directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    /// `@input("pred").` — documentation of extensional predicates.
    Input(String),
    /// `@output("pred").` — marks a predicate as an output of the program.
    Output(String),
    /// `@post("pred", "max(i)").` — post-process a relation after fixpoint.
    Post(String, PostOp),
}

/// A parsed program.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Rules in source order.
    pub rules: Vec<Rule>,
    /// Directives in source order.
    pub directives: Vec<Directive>,
    /// Source location of each directive, parallel to `directives`
    /// (empty for synthetic programs).
    pub directive_spans: Vec<Span>,
}

impl PartialEq for Program {
    /// Structural equality; directive spans are intentionally ignored so
    /// print→parse roundtrips compare equal.
    fn eq(&self, other: &Self) -> bool {
        self.rules == other.rules && self.directives == other.directives
    }
}

impl Program {
    /// Parses a program from its textual form.
    pub fn parse(src: &str) -> Result<Program> {
        parser::parse_program(src)
    }

    /// Names of the predicates the rule bodies read, positively or under
    /// negation — one item per occurrence, so names repeat. Whatever of
    /// these no rule derives must come from the extensional component;
    /// an input mapping needs to load nothing else.
    pub fn body_predicates(&self) -> impl Iterator<Item = &str> {
        self.rules.iter().flat_map(|r| {
            r.body.iter().filter_map(|lit| match lit {
                Literal::Atom(a) | Literal::Negated(a) => Some(a.pred.as_str()),
                _ => None,
            })
        })
    }

    /// Names of `@output` predicates.
    pub fn outputs(&self) -> impl Iterator<Item = &str> {
        self.directives.iter().filter_map(|d| match d {
            Directive::Output(p) => Some(p.as_str()),
            _ => None,
        })
    }
}

/// A query goal `pred(t1, ..., tn)?`, answered from an evaluated
/// database by [`crate::goal_matches`]. Each argument is either a ground
/// constant (a *bound* position, written as a literal) or a variable (a
/// *free* position whose values the query asks for); a bound argument
/// makes the read an index read.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Queried predicate name.
    pub pred: String,
    /// One entry per argument: `Some(lit)` for a bound constant, `None`
    /// for a free (answer) position.
    pub args: Vec<Option<Lit>>,
    /// Variable names of the free positions, parallel to `args`
    /// (`None` at bound positions).
    pub var_names: Vec<Option<String>>,
}

impl Query {
    /// Parses a goal from its textual form, e.g. `control(c123, X)?`
    /// (the trailing `?` is optional).
    pub fn parse(src: &str) -> Result<Query> {
        parser::parse_query(src)
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match a {
                Some(lit) => write!(f, "{lit}")?,
                None => match &self.var_names[i] {
                    Some(v) => write!(f, "{v}")?,
                    None => write!(f, "_")?,
                },
            }
        }
        write!(f, ")?")
    }
}

impl Rule {
    /// Iterates over all positive body atoms.
    pub fn positive_atoms(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter_map(|l| match l {
            Literal::Atom(a) => Some(a),
            _ => None,
        })
    }

    /// Iterates over all negated body atoms.
    pub fn negated_atoms(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter_map(|l| match l {
            Literal::Negated(a) => Some(a),
            _ => None,
        })
    }

    /// The rule's first aggregate, if any (the analyzer rejects a second
    /// one, V014, before any engine sees the rule).
    pub fn aggregate(&self) -> Option<&Aggregate> {
        self.body.iter().find_map(|l| match l {
            Literal::LetAgg(_, a) => Some(a),
            Literal::AggCond { agg, .. } => Some(agg),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_func_names_roundtrip() {
        for f in [
            AggFunc::Sum,
            AggFunc::Prod,
            AggFunc::Max,
            AggFunc::Min,
            AggFunc::Count,
        ] {
            assert_eq!(AggFunc::from_name(f.name()), Some(f));
        }
        assert_eq!(AggFunc::from_name("sum"), None);
    }

    #[test]
    fn outputs_iterator() {
        let p = Program {
            directives: vec![
                Directive::Input("a".into()),
                Directive::Output("b".into()),
                Directive::Output("c".into()),
            ],
            ..Default::default()
        };
        let outs: Vec<&str> = p.outputs().collect();
        assert_eq!(outs, vec!["b", "c"]);
    }
}

// ---------------------------------------------------------------------------
// Pretty-printing (the inverse of the parser; used for program inspection
// and parse/print round-trip testing)
// ---------------------------------------------------------------------------

use std::fmt;

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lit::Str(s) => write!(f, "{s:?}"),
            Lit::Int(i) => write!(f, "{i}"),
            Lit::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Lit::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// Renders a term using the rule's variable names.
fn fmt_term(t: &Term, vars: &[String], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match t {
        Term::Var(v) => write!(f, "{}", vars[*v as usize]),
        Term::Lit(l) => write!(f, "{l}"),
        Term::Skolem { functor, args } => {
            write!(f, "#{functor}(")?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                fmt_term(a, vars, f)?;
            }
            write!(f, ")")
        }
    }
}

fn fmt_expr(e: &Expr, vars: &[String], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match e {
        Expr::Var(v) => write!(f, "{}", vars[*v as usize]),
        Expr::Lit(l) => write!(f, "{l}"),
        Expr::Binary(op, a, b) => {
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
            };
            write!(f, "(")?;
            fmt_expr(a, vars, f)?;
            write!(f, " {sym} ")?;
            fmt_expr(b, vars, f)?;
            write!(f, ")")
        }
        Expr::Cmp(op, a, b) => {
            fmt_expr(a, vars, f)?;
            write!(f, " {} ", cmp_symbol(*op))?;
            fmt_expr(b, vars, f)
        }
        Expr::Call(name, args) => {
            write!(f, "#{name}(")?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                fmt_expr(a, vars, f)?;
            }
            write!(f, ")")
        }
    }
}

fn cmp_symbol(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

fn fmt_agg(agg: &Aggregate, vars: &[String], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "{}(", agg.func.name())?;
    fmt_expr(&agg.expr, vars, f)?;
    if !agg.contributors.is_empty() {
        write!(f, ", <")?;
        for (i, v) in agg.contributors.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", vars[*v as usize])?;
        }
        write!(f, ">")?;
    }
    write!(f, ")")
}

fn fmt_atom(a: &Atom, vars: &[String], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "{}(", a.pred)?;
    for (i, t) in a.terms.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        fmt_term(t, vars, f)?;
    }
    write!(f, ")")
}

impl Rule {
    /// Renders the rule in `head :- body.` form.
    pub fn render(&self) -> String {
        struct R<'a>(&'a Rule);
        impl fmt::Display for R<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let rule = self.0;
                for (i, h) in rule.head.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    fmt_atom(h, &rule.vars, f)?;
                }
                if !rule.body.is_empty() {
                    write!(f, " :- ")?;
                    for (i, l) in rule.body.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        match l {
                            Literal::Atom(a) => fmt_atom(a, &rule.vars, f)?,
                            Literal::Negated(a) => {
                                write!(f, "not ")?;
                                fmt_atom(a, &rule.vars, f)?;
                            }
                            Literal::Cond(e) => fmt_expr(e, &rule.vars, f)?,
                            Literal::Let(v, e) => {
                                write!(f, "{} = ", rule.vars[*v as usize])?;
                                fmt_expr(e, &rule.vars, f)?;
                            }
                            Literal::LetAgg(v, agg) => {
                                write!(f, "{} = ", rule.vars[*v as usize])?;
                                fmt_agg(agg, &rule.vars, f)?;
                            }
                            Literal::AggCond { agg, op, rhs } => {
                                fmt_agg(agg, &rule.vars, f)?;
                                write!(f, " {} ", cmp_symbol(*op))?;
                                fmt_expr(rhs, &rule.vars, f)?;
                            }
                        }
                    }
                }
                write!(f, ".")
            }
        }
        R(self).to_string()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.directives {
            match d {
                Directive::Input(p) => writeln!(f, "@input({p:?}).")?,
                Directive::Output(p) => writeln!(f, "@output({p:?}).")?,
                Directive::Post(p, PostOp::MaxBy(i)) => writeln!(f, "@post({p:?}, \"max({i})\").")?,
                Directive::Post(p, PostOp::MinBy(i)) => writeln!(f, "@post({p:?}, \"min({i})\").")?,
            }
        }
        for r in &self.rules {
            writeln!(f, "{}", r.render())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;

    #[test]
    fn roundtrip_control_program() {
        let src = r#"
            @output("control").
            control(X, X) :- company(X).
            control(X, Y) :- control(X, Z), own(Z, Y, W), Z != Y, msum(W, <Z>) > 0.5.
        "#;
        let p1 = Program::parse(src).unwrap();
        let printed = p1.to_string();
        let p2 = Program::parse(&printed).unwrap();
        assert_eq!(p1, p2, "print→parse must be the identity:\n{printed}");
    }

    #[test]
    fn roundtrip_skolems_negation_arith() {
        let src = r#"
            @post("best", "max(1)").
            node(#mk(N), N) :- company(N), not hidden(N), V = 2 * 3 + 1, V > 5.
            best(X, W) :- score(X, W).
        "#;
        let p1 = Program::parse(src).unwrap();
        let p2 = Program::parse(&p1.to_string()).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn roundtrip_let_aggregate_and_facts() {
        let src = r#"
            acc(X, Y, V) :- own(X, Y, W), V = msum(W, <X, Y>).
            seed("a", -3, -0.5, true).
        "#;
        let p1 = Program::parse(src).unwrap();
        let p2 = Program::parse(&p1.to_string()).unwrap();
        assert_eq!(p1, p2);
    }
}
