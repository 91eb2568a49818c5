//! Monotonic aggregation state.
//!
//! Vadalog's `m*` aggregates are *stateful fact-level functions*: every body
//! match contributes to a running value; monotonicity guarantees the final
//! value is the extremum of the emitted series (Section 4 of the paper).
//!
//! State is keyed by `(head predicate, group tuple)` and **shared across
//! rules** deriving the same head — the property Algorithm 8 of the paper
//! relies on ("the two monotonic summations of Rules (2) and (3) contribute
//! to the same total"). Contributor keys are namespaced by rule id so that
//! syntactically unrelated contributors can never collide.
//!
//! Per contributor key the store keeps the extremal contribution seen so
//! far; the group value is the fold of per-contributor extrema:
//!
//! | func     | per-contributor | group value            | direction |
//! |----------|-----------------|------------------------|-----------|
//! | `msum`   | max             | Σ of maxima            | ↑         |
//! | `mprod`  | max             | Π of maxima            | ↑ for ≥1  |
//! | `mmax`   | max             | max of maxima          | ↑         |
//! | `mmin`   | min             | min of minima          | ↓         |
//! | `mcount` | presence        | number of contributors | ↑         |
//!
//! The per-contributor *max* rule is what makes recursive summations (e.g.
//! accumulated ownership, Algorithm 6) converge: a contributor's value can
//! only be refined upward as the fixpoint proceeds, and the total is always
//! the sum of the best-known contributions — never a double count.
//!
//! **Layout.** A run's whole state lives in a few flat vectors (DESIGN
//! §13): every group tuple and contributor key is copied once into one
//! `Vec<Const>` arena, groups and contributors are records addressed by
//! `u32`, and one open-addressing [`Index`] per table (the engine's
//! shared index, [`crate::index`]) maps a key to its record. A group's
//! contributors chain from the group through `Contributor::next`, which
//! only `mprod` walks. A new group or contributor costs amortised vector
//! growth and no allocation of its own, and dropping the store frees a
//! handful of blocks — on company control nearly every group has a
//! single contributor, so the misses, not the hits, are the traffic.

use crate::ast::AggFunc;
use crate::index::{key_hash, next_id, Index, NONE};
use crate::value::Const;

/// Running state of one aggregation group: its record in the store.
#[derive(Debug)]
pub(crate) struct AggState {
    func: AggFunc,
    total: f64,
    /// Last value emitted as a head fact (for `V = m*(...)` rules).
    pub last_emitted: Option<f64>,
    pred: u32,
    /// The group tuple is `keys[key..key + len]` of the store's arena.
    key: u32,
    len: u32,
    /// The newest contributor; older ones follow `Contributor::next`.
    first: u32,
}

impl AggState {
    /// Current group value.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Current group value as a constant (`mcount` yields an integer).
    pub fn total_const(&self) -> Const {
        match self.func {
            AggFunc::Count => Const::Int(self.total as i64),
            _ => Const::float(self.total),
        }
    }
}

/// One contributor's extremal contribution to one group.
#[derive(Debug)]
struct Contributor {
    value: f64,
    group: u32,
    rule: u32,
    /// The contributor key is `keys[key..key + len]` of the arena.
    key: u32,
    len: u32,
    next: u32,
}

/// All aggregation groups of one engine run.
#[derive(Debug, Default)]
pub(crate) struct AggStore {
    keys: Vec<Const>,
    groups: Vec<AggState>,
    contributors: Vec<Contributor>,
    group_index: Index,
    contributor_index: Index,
    /// `mprod`'s scratch list of contributor maxima.
    maxima: Vec<f64>,
}

impl AggStore {
    /// Applies a contribution to `(pred, group)`; returns a mutable
    /// reference to the state plus whether the value changed by more
    /// than `epsilon`.
    #[allow(clippy::too_many_arguments)]
    pub fn contribute(
        &mut self,
        pred: u32,
        group: &[Const],
        func: AggFunc,
        rule: u32,
        contributor: &[Const],
        value: f64,
        epsilon: f64,
    ) -> (&mut AggState, bool) {
        let keys = &mut self.keys;
        let groups = &mut self.groups;
        let hash = key_hash(u64::from(pred), group);
        let gid = match self.group_index.find(hash, |id| {
            let g = &groups[id as usize];
            g.pred == pred && key_at(keys, g.key, g.len) == group
        }) {
            Ok(id) => id,
            Err(slot) => {
                let id = next_id(groups.len());
                let (key, len) = intern(keys, group);
                // The empty product is 1; every other fold starts at the
                // per-contributor identity.
                let total = match func {
                    AggFunc::Prod => 1.0,
                    _ => identity(func),
                };
                groups.push(AggState {
                    func,
                    total,
                    last_emitted: None,
                    pred,
                    key,
                    len,
                    first: NONE,
                });
                self.group_index.insert(slot, hash, id);
                id
            }
        };
        let state = &mut groups[gid as usize];
        debug_assert_eq!(
            state.func, func,
            "aggregate function mismatch for shared group state"
        );
        // A first-seen contributor starts at its function's identity, so
        // the refinement below treats it exactly as a known one.
        let contributors = &mut self.contributors;
        let hash = key_hash(u64::from(gid) << 32 | u64::from(rule), contributor);
        let cid = match self.contributor_index.find(hash, |id| {
            let c = &contributors[id as usize];
            c.group == gid && c.rule == rule && key_at(keys, c.key, c.len) == contributor
        }) {
            Ok(id) => id,
            Err(slot) => {
                let id = next_id(contributors.len());
                let (key, len) = intern(keys, contributor);
                let next = std::mem::replace(&mut state.first, id);
                contributors.push(Contributor {
                    value: identity(func),
                    group: gid,
                    rule,
                    key,
                    len,
                    next,
                });
                self.contributor_index.insert(slot, hash, id);
                id
            }
        };
        let slot = &mut contributors[cid as usize].value;
        let old_total = state.total;
        match func {
            AggFunc::Sum => {
                if value > *slot {
                    state.total += value - *slot;
                    *slot = value;
                }
            }
            AggFunc::Prod => {
                if value > *slot {
                    *slot = value;
                    // Recompute: safe against zeros and float drift. In
                    // ascending value order, not arrival order: a float
                    // product depends on its order.
                    self.maxima.clear();
                    let mut c = state.first;
                    while c != NONE {
                        let r = &contributors[c as usize];
                        self.maxima.push(r.value);
                        c = r.next;
                    }
                    self.maxima.sort_unstable_by(f64::total_cmp);
                    state.total = self.maxima.iter().product();
                }
            }
            AggFunc::Max => {
                if value > *slot {
                    *slot = value;
                }
                if value > state.total {
                    state.total = value;
                }
            }
            AggFunc::Min => {
                if value < *slot {
                    *slot = value;
                }
                if value < state.total {
                    state.total = value;
                }
            }
            AggFunc::Count => {
                if *slot == 0.0 {
                    *slot = 1.0;
                    state.total += 1.0;
                }
            }
        }
        let changed = (state.total - old_total).abs() > epsilon;
        (state, changed)
    }

    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of contributors, over all groups.
    pub fn contributors(&self) -> usize {
        self.contributors.len()
    }
}

/// A new contributor's stored extremum before its first contribution,
/// and (except for `mprod`, whose empty product is 1) a new group's total.
fn identity(func: AggFunc) -> f64 {
    match func {
        AggFunc::Prod | AggFunc::Max => f64::NEG_INFINITY,
        AggFunc::Min => f64::INFINITY,
        AggFunc::Sum | AggFunc::Count => 0.0,
    }
}

/// Copies `key` into the arena; returns its offset and length.
fn intern(keys: &mut Vec<Const>, key: &[Const]) -> (u32, u32) {
    let at = u32::try_from(keys.len()).expect("aggregate key arena fits u32 offsets");
    keys.extend_from_slice(key);
    (at, key.len() as u32)
}

fn key_at(keys: &[Const], at: u32, len: u32) -> &[Const] {
    &keys[at as usize..(at + len) as usize]
}

#[cfg(test)]
mod tests;
