//! Batch comparison kernels for the vectorized executor tier
//! ([`super::batch`]).
//!
//! A [`Const`] is a 16-byte tagged enum; comparing two of them walks the
//! `Ord` impl's rank/variant matching per element. The batch executor
//! instead *packs* each operand lane into a `(rank: u8, key: u64)` pair
//! whose lexicographic unsigned order equals the engine's total `Const`
//! order, then filters a whole batch with one tight compare loop over
//! the packed arrays.
//!
//! The packing is *exact* except for one corner: `Const::cmp` compares
//! `Int`/`Int` with exact `i64` arithmetic but `Int`/`Float` through an
//! `as f64` cast, so no single 64-bit key can reproduce both at
//! magnitudes past 2^53 (where the cast rounds). [`pack_exact`] reports
//! whether a packed lane is within the exact range; callers fall back
//! to per-lane [`Const`] comparison for the (practically nonexistent)
//! inexact batches. Proptests in this module pin kernel
//! results to [`compare`](super::exec::compare) across the boundary.

use crate::ast::CmpOp;
use crate::value::Const;

/// Largest integer magnitude that `as f64` maps injectively; beyond it
/// the packed key can merge or reorder neighboring `Int`s.
const EXACT_INT: u64 = 1u64 << 53;

/// Maps an `f64` to a `u64` whose unsigned order equals
/// [`f64::total_cmp`]: flip all bits of negatives, flip only the sign
/// bit of non-negatives.
#[inline(always)]
fn ord_f64(f: f64) -> u64 {
    let b = f.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1u64 << 63)
    }
}

/// Packs one constant into its order-preserving `(rank, key)` pair.
/// Ranks mirror [`Const::rank`]: Bool < Int/Float (shared numeric rank)
/// < Sym < Null; within the numeric rank both variants map through
/// [`ord_f64`], matching the engine's cross-type `total_cmp` semantics.
#[inline(always)]
pub(crate) fn pack(c: Const) -> (u8, u64) {
    match c {
        Const::Bool(b) => (0, b as u64),
        Const::Int(i) => (1, ord_f64(i as f64)),
        Const::Float(f) => (1, ord_f64(f)),
        Const::Sym(s) => (2, s as u64),
        Const::Null(n) => (3, n),
    }
}

/// True when packing `c` is order-exact (see module docs).
#[inline(always)]
pub(crate) fn pack_exact(c: Const) -> bool {
    match c {
        Const::Int(i) => i.unsigned_abs() <= EXACT_INT,
        _ => true,
    }
}

/// Whether `op` holds for the packed pair orderings `(lt, eq)`.
#[inline(always)]
fn holds(op: CmpOp, lt: bool, eq: bool) -> bool {
    match op {
        CmpOp::Eq => eq,
        CmpOp::Ne => !eq,
        CmpOp::Lt => lt,
        CmpOp::Le => lt | eq,
        CmpOp::Gt => !(lt | eq),
        CmpOp::Ge => !lt,
    }
}

/// Filters lane indices `0..n` by `op` over two packed operand arrays,
/// appending surviving indices to `out` in ascending order. All four
/// slices have equal length.
pub(crate) fn select_cmp(
    op: CmpOp,
    ra: &[u8],
    ka: &[u64],
    rb: &[u8],
    kb: &[u64],
    out: &mut Vec<u32>,
) {
    debug_assert!(ra.len() == ka.len() && rb.len() == kb.len() && ka.len() == kb.len());
    for i in 0..ka.len() {
        let lt = (ra[i], ka[i]) < (rb[i], kb[i]);
        let eq = ra[i] == rb[i] && ka[i] == kb[i];
        if holds(op, lt, eq) {
            out.push(i as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::exec::compare;
    use proptest::prelude::*;

    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// Decodes a generated `(tag, bits)` pair into a constant covering
    /// every variant — full-domain ints included, so huge-magnitude
    /// lanes exercise the inexact-pack corner.
    fn mk_const(tag: u8, bits: u64) -> Const {
        match tag % 6 {
            0 => Const::Bool(bits & 1 == 1),
            1 => Const::Int(bits as i64),
            2 => Const::Int((bits % 2000) as i64 - 1000),
            3 => Const::float(((bits % 4000) as f64 - 2000.0) / 8.0),
            4 => Const::Sym((bits % 64) as u32),
            _ => Const::Null(bits % 64),
        }
    }

    /// Small-magnitude variant: packing is always exact.
    fn mk_exact_const(tag: u8, bits: u64) -> Const {
        match mk_const(tag, bits) {
            Const::Int(i) => Const::Int(i % 1_000_000),
            c => c,
        }
    }

    /// Packs a whole slice into the parallel rank/key arrays; returns
    /// whether every lane packed exactly.
    fn pack_lanes(vals: &[Const], ranks: &mut Vec<u8>, keys: &mut Vec<u64>) -> bool {
        ranks.clear();
        keys.clear();
        let mut exact = true;
        for &c in vals {
            let (r, k) = pack(c);
            ranks.push(r);
            keys.push(k);
            exact &= pack_exact(c);
        }
        exact
    }

    proptest! {
        /// Packed order equals the engine's Const order wherever both
        /// lanes pack exactly — including Int/Float mixes, negative
        /// zero, and cross-rank pairs.
        #[test]
        fn packed_order_matches_const_order(
            a in (0u8..6, 0u64..u64::MAX).prop_map(|(t, b)| mk_exact_const(t, b)),
            b in (0u8..6, 0u64..u64::MAX).prop_map(|(t, b)| mk_exact_const(t, b)),
        ) {
            let (ra, ka) = pack(a);
            let (rb, kb) = pack(b);
            prop_assert_eq!((ra, ka).cmp(&(rb, kb)), a.cmp(&b));
        }

        /// The kernel agrees with per-lane `compare` on exact batches,
        /// for every operator.
        #[test]
        fn kernel_matches_compare(
            pairs in prop::collection::vec((0u8..6, any::<u64>(), 0u8..6, any::<u64>()), 0..40),
        ) {
            let (mut ra, mut ka) = (Vec::new(), Vec::new());
            let (mut rb, mut kb) = (Vec::new(), Vec::new());
            let av: Vec<Const> = pairs.iter().map(|p| mk_exact_const(p.0, p.1)).collect();
            let bv: Vec<Const> = pairs.iter().map(|p| mk_exact_const(p.2, p.3)).collect();
            pack_lanes(&av, &mut ra, &mut ka);
            pack_lanes(&bv, &mut rb, &mut kb);
            for op in OPS {
                let mut got = Vec::new();
                select_cmp(op, &ra, &ka, &rb, &kb, &mut got);
                let want: Vec<u32> = av
                    .iter()
                    .zip(&bv)
                    .enumerate()
                    .filter(|(_, (a, b))| compare(op, **a, **b))
                    .map(|(i, _)| i as u32)
                    .collect();
                prop_assert_eq!(&got, &want, "op {:?}", op);
            }
        }
    }

    #[test]
    fn pack_exact_flags_huge_ints() {
        assert!(pack_exact(Const::Int(1 << 53)));
        assert!(!pack_exact(Const::Int((1 << 53) + 1)));
        assert!(!pack_exact(Const::Int(i64::MIN)));
        // Floats are always exact: they compare via total_cmp on both
        // sides, which ord_f64 reproduces bit for bit.
        assert!(pack_exact(Const::float(f64::MAX)));
    }

    #[test]
    fn ord_f64_orders_negative_zero_and_infinities() {
        let seq = [f64::NEG_INFINITY, -1.5, -0.0, 0.0, 1.5, f64::INFINITY];
        for w in seq.windows(2) {
            assert!(
                ord_f64(w[0]) < ord_f64(w[1]) || w[0].total_cmp(&w[1]).is_eq(),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
        assert!(ord_f64(-0.0) < ord_f64(0.0));
    }
}
