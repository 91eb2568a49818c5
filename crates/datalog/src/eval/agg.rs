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

use crate::ast::AggFunc;
use crate::fx::FxHashMap;
use crate::value::{Const, Tuple};

/// Running state of one aggregation group.
///
/// Contributor maxima are nested per rule id so the hot path can look a
/// contributor up by `&[Const]` (via `Arc<[Const]>: Borrow<[Const]>`)
/// without allocating a key tuple; a `Tuple` is only materialised the
/// first time a contributor is seen.
#[derive(Debug, Clone)]
pub(crate) struct AggState {
    func: AggFunc,
    contributions: FxHashMap<u32, FxHashMap<Tuple, f64>>,
    total: f64,
    /// Last value emitted as a head fact (for `V = m*(...)` rules).
    pub last_emitted: Option<f64>,
}

impl AggState {
    fn new(func: AggFunc) -> Self {
        let total = match func {
            AggFunc::Prod => 1.0,
            AggFunc::Max => f64::NEG_INFINITY,
            AggFunc::Min => f64::INFINITY,
            _ => 0.0,
        };
        AggState {
            func,
            contributions: FxHashMap::default(),
            total,
            last_emitted: None,
        }
    }

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

    /// Applies a contribution; returns `true` if the group value changed by
    /// more than `epsilon`.
    ///
    /// The hit path (contributor already known) is a single slice-keyed
    /// lookup; only a first-seen contributor allocates its key tuple.
    fn contribute(&mut self, rule: u32, contributor: &[Const], value: f64, epsilon: f64) -> bool {
        let old_total = self.total;
        let per_rule = self.contributions.entry(rule).or_default();
        match self.func {
            AggFunc::Sum => {
                if let Some(slot) = per_rule.get_mut(contributor) {
                    if value > *slot {
                        self.total += value - *slot;
                        *slot = value;
                    }
                } else if value > 0.0 {
                    per_rule.insert(contributor.into(), value);
                    self.total += value;
                } else {
                    per_rule.insert(contributor.into(), 0.0);
                }
            }
            AggFunc::Prod => {
                let improved = if let Some(slot) = per_rule.get_mut(contributor) {
                    if value > *slot {
                        *slot = value;
                        true
                    } else {
                        false
                    }
                } else if value > f64::NEG_INFINITY {
                    per_rule.insert(contributor.into(), value);
                    true
                } else {
                    per_rule.insert(contributor.into(), f64::NEG_INFINITY);
                    false
                };
                if improved {
                    // Recompute: safe against zeros and float drift. In
                    // ascending value order, not the maps': a float
                    // product depends on its order, and bucket order is
                    // the hasher's business, not the program's.
                    let maps = self.contributions.values();
                    let mut maxima: Vec<f64> = maps.flat_map(|m| m.values().copied()).collect();
                    maxima.sort_unstable_by(f64::total_cmp);
                    self.total = maxima.into_iter().product();
                }
            }
            AggFunc::Max => {
                if let Some(slot) = per_rule.get_mut(contributor) {
                    if value > *slot {
                        *slot = value;
                    }
                } else if value > f64::NEG_INFINITY {
                    per_rule.insert(contributor.into(), value);
                } else {
                    per_rule.insert(contributor.into(), f64::NEG_INFINITY);
                }
                if value > self.total {
                    self.total = value;
                }
            }
            AggFunc::Min => {
                if let Some(slot) = per_rule.get_mut(contributor) {
                    if value < *slot {
                        *slot = value;
                    }
                } else if value < f64::INFINITY {
                    per_rule.insert(contributor.into(), value);
                } else {
                    per_rule.insert(contributor.into(), f64::INFINITY);
                }
                if value < self.total {
                    self.total = value;
                }
            }
            AggFunc::Count => {
                if !per_rule.contains_key(contributor) {
                    per_rule.insert(contributor.into(), 1.0);
                    self.total += 1.0;
                }
            }
        }
        (self.total - old_total).abs() > epsilon
    }
}

/// All aggregation groups of one engine run.
///
/// Groups are nested per head predicate so the group tuple can be looked
/// up by `&[Const]` without allocating — the fixpoint inner loop calls
/// `contribute` once per joined row, and in steady state every lookup
/// hits an existing group.
#[derive(Debug, Default)]
pub(crate) struct AggStore {
    groups: FxHashMap<u32, FxHashMap<Tuple, AggState>>,
}

impl AggStore {
    /// Applies a contribution to `(pred, group)`; returns a mutable
    /// reference to the state plus whether the value changed.
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
        let per_pred = self.groups.entry(pred).or_default();
        if !per_pred.contains_key(group) {
            per_pred.insert(group.into(), AggState::new(func));
        }
        let state = per_pred.get_mut(group).expect("group state just ensured");
        debug_assert_eq!(
            state.func, func,
            "aggregate function mismatch for shared group state"
        );
        let changed = state.contribute(rule, contributor, value, epsilon);
        (state, changed)
    }

    /// Number of active groups.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.groups.values().map(|m| m.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> Tuple {
        vals.iter().map(|&i| Const::Int(i)).collect()
    }

    #[test]
    fn msum_sums_distinct_contributors() {
        let mut store = AggStore::default();
        let (s, c1) = store.contribute(0, &t(&[1]), AggFunc::Sum, 0, &t(&[10]), 0.3, 1e-12);
        assert!(c1);
        assert_eq!(s.total(), 0.3);
        let (s, c2) = store.contribute(0, &t(&[1]), AggFunc::Sum, 0, &t(&[11]), 0.4, 1e-12);
        assert!(c2);
        assert!((s.total() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn msum_takes_per_contributor_max_not_double_count() {
        let mut store = AggStore::default();
        store.contribute(0, &t(&[1]), AggFunc::Sum, 0, &t(&[10]), 0.3, 1e-12);
        // Same contributor re-derived with a *larger* partial value
        // (recursive refinement): total moves to the new value, not the sum.
        let (s, changed) = store.contribute(0, &t(&[1]), AggFunc::Sum, 0, &t(&[10]), 0.5, 1e-12);
        assert!(changed);
        assert!((s.total() - 0.5).abs() < 1e-12);
        // Smaller re-derivation is ignored (monotone).
        let (s, changed) = store.contribute(0, &t(&[1]), AggFunc::Sum, 0, &t(&[10]), 0.2, 1e-12);
        assert!(!changed);
        assert!((s.total() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rule_namespacing_shares_the_total() {
        // Two rules contribute to the same (pred, group) total — the
        // Algorithm 8 semantics.
        let mut store = AggStore::default();
        store.contribute(0, &t(&[1]), AggFunc::Sum, 0, &t(&[7]), 0.3, 1e-12);
        let (s, _) = store.contribute(0, &t(&[1]), AggFunc::Sum, 1, &t(&[7]), 0.4, 1e-12);
        // Same contributor tuple under different rules: both count.
        assert!((s.total() - 0.7).abs() < 1e-12);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn groups_are_independent() {
        let mut store = AggStore::default();
        store.contribute(0, &t(&[1]), AggFunc::Sum, 0, &t(&[7]), 0.3, 1e-12);
        let (s, _) = store.contribute(0, &t(&[2]), AggFunc::Sum, 0, &t(&[7]), 0.4, 1e-12);
        assert!((s.total() - 0.4).abs() < 1e-12);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn mcount_counts_distinct() {
        let mut store = AggStore::default();
        store.contribute(0, &t(&[]), AggFunc::Count, 0, &t(&[1]), 1.0, 1e-12);
        store.contribute(0, &t(&[]), AggFunc::Count, 0, &t(&[1]), 1.0, 1e-12);
        let (s, _) = store.contribute(0, &t(&[]), AggFunc::Count, 0, &t(&[2]), 1.0, 1e-12);
        assert_eq!(s.total_const(), Const::Int(2));
    }

    #[test]
    fn mmax_and_mmin_track_extrema() {
        let mut store = AggStore::default();
        store.contribute(0, &t(&[]), AggFunc::Max, 0, &t(&[1]), 3.0, 1e-12);
        let (s, _) = store.contribute(0, &t(&[]), AggFunc::Max, 0, &t(&[2]), 1.0, 1e-12);
        assert_eq!(s.total(), 3.0);
        store.contribute(1, &t(&[]), AggFunc::Min, 0, &t(&[1]), 3.0, 1e-12);
        let (s, _) = store.contribute(1, &t(&[]), AggFunc::Min, 0, &t(&[2]), 1.0, 1e-12);
        assert_eq!(s.total(), 1.0);
    }

    #[test]
    fn mprod_multiplies_contributor_maxima() {
        let mut store = AggStore::default();
        store.contribute(0, &t(&[]), AggFunc::Prod, 0, &t(&[1]), 2.0, 1e-12);
        let (s, _) = store.contribute(0, &t(&[]), AggFunc::Prod, 0, &t(&[2]), 3.0, 1e-12);
        assert!((s.total() - 6.0).abs() < 1e-12);
        let (s, _) = store.contribute(0, &t(&[]), AggFunc::Prod, 0, &t(&[1]), 5.0, 1e-12);
        assert!((s.total() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn mprod_does_not_depend_on_arrival_or_bucket_order() {
        // The same forty maxima arriving forwards and backwards, under
        // two rule ids: one product, to the bit.
        let value = |i: i64| 1.0 + 1.0 / (i as f64 + 3.0);
        let total = |order: &mut dyn Iterator<Item = i64>| {
            let mut store = AggStore::default();
            let mut last = 0.0;
            for i in order {
                let rule = (i % 2) as u32;
                last = store
                    .contribute(0, &t(&[]), AggFunc::Prod, rule, &t(&[i]), value(i), 0.0)
                    .0
                    .total();
            }
            last.to_bits()
        };
        let sorted: f64 = (0..40).map(value).rev().product();
        assert_eq!(total(&mut (0..40)), sorted.to_bits());
        assert_eq!(total(&mut (0..40).rev()), sorted.to_bits());
    }

    #[test]
    fn epsilon_suppresses_jitter() {
        let mut store = AggStore::default();
        let (s, _) = store.contribute(0, &t(&[]), AggFunc::Sum, 0, &t(&[1]), 1.0, 1e-6);
        s.last_emitted = Some(1.0);
        let (_, changed) =
            store.contribute(0, &t(&[]), AggFunc::Sum, 0, &t(&[1]), 1.0 + 1e-9, 1e-6);
        assert!(!changed);
    }
}
