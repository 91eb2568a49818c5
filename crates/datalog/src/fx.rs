//! Dependency-free FxHash-style hasher for the evaluation hot path.
//!
//! Every key the engine hashes — rows in a relation's dedup index and a
//! round's buffer, hash-join keys, the Skolem table, aggregate groups —
//! is a short slice of [`crate::value::Const`] or a short name (the
//! symbol table, the predicate table). SipHash (the `std` default) pays
//! its DoS-resistance tax on every probe of the fixpoint inner loop; these
//! keys are interned ids, small numerics and names under our own
//! control, so a fast multiply-rotate hash is the right trade. The
//! per-word step is the Fx construction used by rustc (word-at-a-time
//! `rotate ^ mix * K`), implemented here locally because the build
//! environment has no registry access.
//!
//! **The per-word step alone does not hash byte strings for `std`'s map.**
//! A multiply carries entropy upwards only: bit *i* of `x * K` depends on
//! bits `0..=i` of `x`. hashbrown picks the bucket from the *low* bits of
//! the hash (`hash & mask`) and the control byte from the *top seven*. For
//! word keys that is a feature: dense interned ids land on distinct,
//! neighbouring buckets (225 000 sequential `u32`s occupy 225 000 bucket
//! indexes of 2¹⁸ — a random hash manages ~151 000), which is why the
//! `write_*` path and [`FxHasher::finish`] leave the state as it is. For
//! a short string it is a defect: the low 18 bits are a function of its
//! first two bytes and the five bits the rotate carries round, so the
//! 225 000 node symbols `n0..n224999` of a 150 000-person register landed
//! on 289 bucket indexes, every probe walked a chain, and an intern cost
//! ~1 µs. [`FxHasher::write`] therefore ends by stirring the state — fold
//! the high half onto the low half, multiply once more, rotate the
//! best-mixed top bits down to where the bucket index is read — after
//! which names are within sampling noise of uniform at both ends (the
//! `tests` module pins this as numbers, not as a hope). Stirring in
//! `finish` instead would fix strings just as well but scatter the word
//! keys too: measured, a one-edge incremental update at 15 000 persons
//! (hash-set diffs over dense `[Sym, Sym]` rows) got 5 % slower.
//!
//! Determinism matters more than speed here: the hasher has no random
//! state, so iteration-order-independent uses (all of ours — lookups,
//! membership, entry updates; the few places that walk a map collect and
//! sort, or fold with a commutative operation, before anything reaches
//! output) behave identically across runs, threads and platforms of the
//! same pointer width.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the Fx construction (a.k.a. the Firefox hash): an
/// arbitrary odd constant close to the golden ratio in 64 bits.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time multiply-rotate hasher; not DoS-resistant by design.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let mut word = [0u8; 8];
            word.copy_from_slice(&bytes[..8]);
            self.add_to_hash(u64::from_le_bytes(word));
            bytes = &bytes[8..];
        }
        if !bytes.is_empty() {
            let mut word = [0u8; 8];
            word[..bytes.len()].copy_from_slice(bytes);
            // Fold the length in so "ab" ++ "" and "a" ++ "b" differ.
            self.add_to_hash(u64::from_le_bytes(word) ^ (bytes.len() as u64) << 56);
        }
        // Byte strings only (see the module doc): without this the
        // state's low bits — hashbrown's bucket index — see little more
        // than the first bytes of a short name.
        let h = self.hash;
        self.hash = (h ^ (h >> 32)).wrapping_mul(SEED).rotate_left(26);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`] (zero-sized, no random state).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        m.insert(1, 2);
        assert_eq!(m.get(&1), Some(&2));
    }

    #[test]
    fn byte_boundaries_matter() {
        // Same bytes split differently must not collide trivially.
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2][..]));
        assert_ne!(hash_of(&"ab"), hash_of(&"a"));
    }

    /// Distinct bucket indexes at 2¹⁸ buckets (`hash & mask`, hashbrown's
    /// `h1`) and distinct control bytes (top 7 bits, its `h2`) over `keys`.
    fn spread<T: Hash>(keys: impl Iterator<Item = T>) -> (usize, usize) {
        let mut buckets = vec![false; 1 << 18];
        let mut tags = [false; 128];
        for k in keys {
            let h = hash_of(&k);
            buckets[(h & ((1 << 18) - 1)) as usize] = true;
            tags[(h >> 57) as usize] = true;
        }
        let count = |seen: &[bool]| seen.iter().filter(|&&b| b).count();
        (count(&buckets), count(&tags))
    }

    #[test]
    fn keys_spread_over_buckets_and_control_bytes() {
        use crate::value::Const;
        // 225 000 keys thrown uniformly into 2¹⁸ buckets occupy
        // 2¹⁸·(1 − e^(−n/2¹⁸)) ≈ 151 000 of them; a hash within 10 % of
        // that (or above it, as dense ids are) is as good as random for
        // probing. Unstirred, the node symbols of a 150 000-person
        // register occupy 289.
        const N: usize = 225_000;
        let ideal = (1u64 << 18) as f64 * (1.0 - (-(N as f64) / (1u64 << 18) as f64).exp());
        let floor = (ideal * 0.9) as usize;
        let check = |what: &str, (buckets, tags): (usize, usize)| {
            assert!(
                buckets >= floor,
                "{what}: {buckets} distinct bucket indexes, want >= {floor}"
            );
            assert_eq!(tags, 128, "{what}: control bytes");
        };
        check("node symbols", spread((0..N).map(|i| format!("n{i}"))));
        check("sequential u32", spread(0..N as u32));
        check(
            "own tuples",
            spread((0..N as u32).map(|i| -> Box<[Const]> {
                let w = f64::from(i % 97 + 1) / 100.0;
                vec![Const::Sym(i), Const::Sym(i / 3 + 7), Const::Float(w)].into()
            })),
        );
    }

    #[test]
    fn tuple_keys_round_trip() {
        use crate::value::Const;
        let mut m: FxHashMap<Box<[Const]>, u32> = FxHashMap::default();
        let t: Box<[Const]> = vec![Const::Sym(3), Const::Float(0.5)].into();
        m.insert(t.clone(), 7);
        assert_eq!(m.get(&t), Some(&7));
        // Cross-type numeric equality must keep hashing consistently.
        let a: Box<[Const]> = vec![Const::Int(2)].into();
        let b: Box<[Const]> = vec![Const::Float(2.0)].into();
        assert_eq!(hash_of(&a), hash_of(&b));
    }
}
