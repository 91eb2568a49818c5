//! Ground constants of the reasoning engine.
//!
//! The engine works over the domain of Section 3 of the paper: countably
//! infinite disjoint sets of *constants* and *labelled nulls*. Strings are
//! interned into symbols by the [`crate::db::Database`]; nulls carry the id
//! assigned by the Skolem table, which guarantees determinism, injectivity
//! and disjoint ranges across functors (the paper's OID-invention
//! properties).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A ground term: constant or labelled null.
#[derive(Clone, Copy, Debug)]
pub enum Const {
    /// Interned string constant (symbol id into the database interner).
    Sym(u32),
    /// Integer constant.
    Int(i64),
    /// Float constant; `NaN` must not be constructed (see [`Const::float`]).
    Float(f64),
    /// Boolean constant.
    Bool(bool),
    /// Labelled null (OID invented by a Skolem function or the chase).
    Null(u64),
}

impl Const {
    /// Builds a float constant, mapping `NaN` to `0.0` to preserve the
    /// total-order/hash invariants (reasoning over `NaN` is meaningless).
    pub fn float(f: f64) -> Self {
        if f.is_nan() {
            Const::Float(0.0)
        } else {
            Const::Float(f)
        }
    }

    /// Numeric view (Int and Float only).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Const::Int(i) => Some(*i as f64),
            Const::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Const::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Symbol view.
    pub fn as_sym(&self) -> Option<u32> {
        match self {
            Const::Sym(s) => Some(*s),
            _ => None,
        }
    }

    /// True for labelled nulls.
    pub fn is_null(&self) -> bool {
        matches!(self, Const::Null(_))
    }

    fn rank(&self) -> u8 {
        match self {
            Const::Bool(_) => 0,
            Const::Int(_) => 1,
            Const::Float(_) => 1, // numerics compare cross-type
            Const::Sym(_) => 2,
            Const::Null(_) => 3,
        }
    }
}

impl PartialEq for Const {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Const {}

impl PartialOrd for Const {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Const {
    fn cmp(&self, other: &Self) -> Ordering {
        use Const::*;
        match (self, other) {
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Sym(a), Sym(b)) => a.cmp(b),
            (Null(a), Null(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl Hash for Const {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Const::Bool(b) => {
                0u8.hash(state);
                b.hash(state);
            }
            // Numerics that compare equal must hash equal.
            Const::Int(i) => {
                1u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Const::Float(f) => {
                1u8.hash(state);
                f.to_bits().hash(state);
            }
            Const::Sym(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Const::Null(n) => {
                3u8.hash(state);
                n.hash(state);
            }
        }
    }
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Sym(s) => write!(f, "s{s}"),
            Const::Int(i) => write!(f, "{i}"),
            Const::Float(x) => write!(f, "{x}"),
            Const::Bool(b) => write!(f, "{b}"),
            Const::Null(n) => write!(f, "_:{n}"),
        }
    }
}

/// A ground tuple, owned on its own: the form a fact takes at the
/// engine's API edges — incremental deltas, Skolem definitions, hash-join
/// keys. Relations and the fixpoint's round buffer never hold one: they
/// copy a fact's constants into their row-major arenas and hand out
/// `&[Const]` slices ([`crate::db::Relation::row`]). Shared (`Arc`) so
/// that copies of one delta or key bump a refcount.
pub type Tuple = std::sync::Arc<[Const]>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(c: &Const) -> u64 {
        let mut s = DefaultHasher::new();
        c.hash(&mut s);
        s.finish()
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Const::Int(2), Const::Float(2.0));
        assert_eq!(h(&Const::Int(2)), h(&Const::Float(2.0)));
        assert!(Const::Int(2) < Const::Float(2.5));
    }

    #[test]
    fn nan_is_normalized() {
        assert_eq!(Const::float(f64::NAN), Const::Float(0.0));
    }

    #[test]
    fn nulls_are_distinct_from_everything() {
        assert_ne!(Const::Null(0), Const::Int(0));
        assert_ne!(Const::Null(0), Const::Sym(0));
        assert_eq!(Const::Null(7), Const::Null(7));
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            Const::Null(1),
            Const::Sym(0),
            Const::Float(1.5),
            Const::Bool(false),
            Const::Int(3),
        ];
        v.sort();
        assert_eq!(v[0], Const::Bool(false));
        assert!(v.last().unwrap().is_null());
    }
}
