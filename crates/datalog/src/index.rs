//! The engine's one hash index: open addressing from a key's 32-bit hash
//! to a record id, for records whose keys live in an arena the caller
//! owns.
//!
//! Three stores key their records through it: a relation's dedup index
//! (row ids into its row-major `Vec<Const>`), a fixpoint round's buffer
//! of derivations (record ids into the round's arena, DESIGN §13) and the
//! monotonic-aggregate store (group and contributor records). The
//! symbol table keys its names through it too. An index holds no key:
//! a probe hands it a predicate that compares the candidate record's key
//! in the caller's arena with the one looked for, under [`Const`]'s `==`
//! — never a byte comparison, since `Int(2) == Float(2.0)` is one fact
//! and `0.0` / `-0.0` are two.
//!
//! A slot holds the id and the key's 32-bit hash. Probing is linear from
//! the home slot, the hash's top bits (a multiply-rotate hash mixes its
//! high bits best), so growing never reads a key, and a probe compares
//! keys only when the hashes agree. The table is kept at most half full.
//! Removal shifts the entries behind a freed slot back, so the table
//! never holds tombstones.

use std::hash::{Hash, Hasher};

use crate::fx::FxHasher;
use crate::value::Const;

/// Marks an empty slot; no record has this id.
pub(crate) const NONE: u32 = u32::MAX;

/// The top 32 bits of the Fx hash of `(head, key)`: `head` namespaces
/// keys of different tables or predicates that share one index.
pub(crate) fn key_hash(head: u64, key: &[Const]) -> u32 {
    let mut h = FxHasher::default();
    head.hash(&mut h);
    key.hash(&mut h);
    top(&h)
}

/// The hash a relation files a row under ([`key_hash`] with head 0).
pub(crate) fn row_hash(row: &[Const]) -> u32 {
    key_hash(0, row)
}

/// The top 32 bits of the hash of a string (symbol names).
pub(crate) fn str_hash(s: &str) -> u32 {
    let mut h = FxHasher::default();
    s.hash(&mut h);
    top(&h)
}

fn top(h: &FxHasher) -> u32 {
    (h.finish() >> 32) as u32
}

/// The id of a record appended to a table holding `len` records.
pub(crate) fn next_id(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&id| id != NONE)
        .expect("a table holds fewer than u32::MAX records")
}

/// Open-addressing hash index from a key hash to a record id (module
/// doc).
#[derive(Debug, Default, Clone)]
pub(crate) struct Index {
    slots: Vec<(u32, u32)>,
    len: usize,
}

impl Index {
    /// The id among those filed under `hash` that `is_key` accepts, or
    /// the free slot where that key belongs. Grows first if one more
    /// entry would pass the load limit, so the slot stays valid for
    /// [`Index::insert`].
    pub(crate) fn find(
        &mut self,
        hash: u32,
        is_key: impl FnMut(u32) -> bool,
    ) -> std::result::Result<u32, usize> {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow((self.len + 1) * 2);
        }
        self.probe(hash, is_key)
    }

    /// The id among those filed under `hash` that `is_key` accepts.
    pub(crate) fn get(&self, hash: u32, is_key: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        self.probe(hash, is_key).ok()
    }

    fn probe(
        &self,
        hash: u32,
        mut is_key: impl FnMut(u32) -> bool,
    ) -> std::result::Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        loop {
            let (id, h) = self.slots[i];
            if id == NONE {
                return Err(i);
            }
            if h == hash && is_key(id) {
                return Ok(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Files `id` under `hash` in the free `slot` a [`Index::find`] for
    /// its key just returned.
    pub(crate) fn insert(&mut self, slot: usize, hash: u32, id: u32) {
        self.slots[slot] = (id, hash);
        self.len += 1;
    }

    /// Files `id` under `hash` without looking for its key: for a caller
    /// that knows the key is not in the index yet.
    pub(crate) fn push(&mut self, hash: u32, id: u32) {
        match self.find(hash, |_| false) {
            Err(slot) => self.insert(slot, hash, id),
            Ok(_) => unreachable!("a probe that accepts no key finds none"),
        }
    }

    /// Removes the entry of `id`, filed under `hash`, and shifts the
    /// entries of its probe run back over the hole, so every remaining
    /// entry stays reachable from its home slot without tombstones.
    pub(crate) fn remove(&mut self, hash: u32, id: u32) {
        let mask = self.slots.len() - 1;
        let mut hole = self.home(hash);
        while self.slots[hole].0 != id {
            debug_assert_ne!(self.slots[hole].0, NONE, "removed id is filed");
            hole = (hole + 1) & mask;
        }
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let (next, h) = self.slots[j];
            if next == NONE {
                break;
            }
            // The entry at `j` may move back to the hole unless its home
            // lies cyclically in `(hole, j]`: then the hole is before its
            // home and a probe for it never passes the hole.
            let home = self.home(h);
            let stays = if hole <= j {
                hole < home && home <= j
            } else {
                hole < home || home <= j
            };
            if !stays {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole] = (NONE, 0);
        self.len -= 1;
    }

    /// Renumbers the filed ids as the ids `removed` (ascending, none of
    /// them filed any more) leave: each id drops by the number of removed
    /// ids below it, so survivors close ranks in their order. The hashes,
    /// and so the slots, stay where they are. One pass without a branch
    /// on the ids, which sit in the slots in no order a predictor could
    /// learn.
    pub(crate) fn close_ranks(&mut self, removed: &[u32]) {
        match removed {
            [] => {}
            &[r] => {
                for (id, _) in &mut self.slots {
                    *id -= u32::from((*id > r) & (*id != NONE));
                }
            }
            _ => {
                for (id, _) in &mut self.slots {
                    let below = removed.partition_point(|&r| r < *id) as u32;
                    *id -= below * u32::from(*id != NONE);
                }
            }
        }
    }

    /// Empties the index, keeping its capacity. Free when it is empty.
    pub(crate) fn clear(&mut self) {
        if self.len > 0 {
            self.slots.fill((NONE, 0));
            self.len = 0;
        }
    }

    /// Makes room for `additional` more entries without growing on the
    /// way.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let want = (self.len + additional) * 2;
        if want > self.slots.len() {
            self.grow(want);
        }
    }

    /// Number of filed ids.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Heap bytes of the slot array.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<(u32, u32)>()
    }

    fn home(&self, hash: u32) -> usize {
        (u64::from(hash) >> (32 - self.slots.len().trailing_zeros())) as usize
    }

    /// Re-files every entry in a table of at least `min` slots (a power
    /// of two, at least 16).
    fn grow(&mut self, min: usize) {
        let cap = min.next_power_of_two().max(16);
        let old = std::mem::replace(&mut self.slots, vec![(NONE, 0); cap]);
        let mask = cap - 1;
        for (id, hash) in old.into_iter().filter(|&(id, _)| id != NONE) {
            let mut i = self.home(hash);
            while self.slots[i].0 != NONE {
                i = (i + 1) & mask;
            }
            self.slots[i] = (id, hash);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys are `u32`s in a side array; `hashes` picks each one's hash,
    /// so tests can force collisions and wrap-around.
    fn file(index: &mut Index, keys: &mut Vec<u32>, hash: u32, key: u32) -> bool {
        match index.find(hash, |id| keys[id as usize] == key) {
            Ok(_) => false,
            Err(slot) => {
                index.insert(slot, hash, next_id(keys.len()));
                keys.push(key);
                true
            }
        }
    }

    fn lookup(index: &Index, keys: &[u32], hash: u32, key: u32) -> Option<u32> {
        index.get(hash, |id| keys[id as usize] == key)
    }

    #[test]
    fn finds_what_it_filed_and_nothing_else() {
        let (mut index, mut keys) = (Index::default(), Vec::new());
        assert_eq!(lookup(&index, &keys, 7, 7), None);
        for k in 0..1000u32 {
            assert!(file(&mut index, &mut keys, k.wrapping_mul(0x9e37_79b9), k));
        }
        assert!(!file(
            &mut index,
            &mut keys,
            5u32.wrapping_mul(0x9e37_79b9),
            5
        ));
        assert_eq!(index.len(), 1000);
        assert!(index.heap_bytes() >= 2000 * 8);
        for k in 0..1000u32 {
            assert_eq!(
                lookup(&index, &keys, k.wrapping_mul(0x9e37_79b9), k),
                Some(k)
            );
        }
        assert_eq!(lookup(&index, &keys, 1, 5000), None);
    }

    #[test]
    fn removal_keeps_every_colliding_entry_reachable() {
        // Seven keys share three hashes whose home slots are 15, 14 and 0
        // of a 16-slot table, so their runs interleave and wrap around,
        // and removals must shift entries back across the wrap.
        let hashes = [0xFFFF_FFFF, 0xEFFF_FFFF, 0x0FFF_FFFF];
        for removed in 0..7u32 {
            let (mut index, mut keys) = (Index::default(), Vec::new());
            for k in 0..7u32 {
                file(&mut index, &mut keys, hashes[k as usize % 3], k);
            }
            index.remove(hashes[removed as usize % 3], removed);
            for k in 0..7u32 {
                let want = (k != removed).then_some(k);
                assert_eq!(
                    lookup(&index, &keys, hashes[k as usize % 3], k),
                    want,
                    "removed {removed}, key {k}"
                );
            }
            assert_eq!(index.len(), 6);
        }
    }

    #[test]
    fn ids_close_ranks_and_clear_keeps_capacity() {
        let (mut index, mut keys) = (Index::default(), Vec::new());
        for k in 0..100u32 {
            file(&mut index, &mut keys, k.wrapping_mul(0x9e37_79b9), k);
        }
        // Drop key 10, then keys 3 and 50: later ids close ranks, as a
        // relation's do.
        for gone in [&[10][..], &[3, 50]] {
            for &k in gone.iter().rev() {
                let key = keys[k as usize];
                index.remove(key.wrapping_mul(0x9e37_79b9), k);
                keys.remove(k as usize);
            }
            index.close_ranks(gone);
            for (id, &k) in keys.iter().enumerate() {
                assert_eq!(
                    lookup(&index, &keys, k.wrapping_mul(0x9e37_79b9), k),
                    Some(id as u32)
                );
            }
        }
        let bytes = index.heap_bytes();
        index.clear();
        assert_eq!((index.len(), index.heap_bytes()), (0, bytes));
        assert_eq!(lookup(&index, &keys, 0, 0), None);
        index.reserve(10_000);
        assert!(index.heap_bytes() >= 20_000 * 8);
    }

    #[test]
    fn hashes_follow_const_equality() {
        // One fact: the same hash. Two facts: (almost always) two hashes.
        assert_eq!(row_hash(&[Const::Int(2)]), row_hash(&[Const::Float(2.0)]));
        assert_ne!(
            row_hash(&[Const::Float(0.0)]),
            row_hash(&[Const::Float(-0.0)])
        );
        assert_ne!(key_hash(0, &[Const::Int(1)]), key_hash(1, &[Const::Int(1)]));
        assert_eq!(str_hash("n1"), str_hash("n1"));
    }
}
