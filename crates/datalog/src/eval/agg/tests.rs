use super::*;
use crate::value::Tuple;

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
    assert_eq!(store.groups(), 1);
}

#[test]
fn groups_are_independent() {
    let mut store = AggStore::default();
    store.contribute(0, &t(&[1]), AggFunc::Sum, 0, &t(&[7]), 0.3, 1e-12);
    let (s, _) = store.contribute(0, &t(&[2]), AggFunc::Sum, 0, &t(&[7]), 0.4, 1e-12);
    assert!((s.total() - 0.4).abs() < 1e-12);
    assert_eq!(store.groups(), 2);
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
    let (_, changed) = store.contribute(0, &t(&[]), AggFunc::Sum, 0, &t(&[1]), 1.0 + 1e-9, 1e-6);
    assert!(!changed);
}

/// The reference for the arena store: the nested-map store it replaced,
/// as linear lists, updated with that store's per-function branches.
#[derive(Default)]
struct Model {
    groups: Vec<ModelGroup>,
}

struct ModelGroup {
    pred: u32,
    key: Vec<Const>,
    func: AggFunc,
    total: f64,
    last_emitted: Option<f64>,
    contributors: Vec<(u32, Vec<Const>, f64)>,
}

impl Model {
    #[allow(clippy::too_many_arguments)]
    fn contribute(
        &mut self,
        pred: u32,
        group: &[Const],
        func: AggFunc,
        rule: u32,
        contributor: &[Const],
        value: f64,
        epsilon: f64,
    ) -> (&mut ModelGroup, bool) {
        let at = self
            .groups
            .iter()
            .position(|g| g.pred == pred && g.key == group);
        let g = match at {
            Some(i) => &mut self.groups[i],
            None => {
                let total = match func {
                    AggFunc::Prod => 1.0,
                    AggFunc::Max => f64::NEG_INFINITY,
                    AggFunc::Min => f64::INFINITY,
                    _ => 0.0,
                };
                self.groups.push(ModelGroup {
                    pred,
                    key: group.to_vec(),
                    func,
                    total,
                    last_emitted: None,
                    contributors: Vec::new(),
                });
                self.groups.last_mut().unwrap()
            }
        };
        let old_total = g.total;
        let known = g
            .contributors
            .iter()
            .position(|(r, k, _)| *r == rule && k == contributor);
        let add = |g: &mut ModelGroup, v: f64| g.contributors.push((rule, contributor.to_vec(), v));
        match (func, known) {
            (AggFunc::Sum, Some(i)) => {
                let slot = &mut g.contributors[i].2;
                if value > *slot {
                    g.total += value - *slot;
                    *slot = value;
                }
            }
            (AggFunc::Sum, None) if value > 0.0 => {
                add(g, value);
                g.total += value;
            }
            (AggFunc::Sum, None) => add(g, 0.0),
            (AggFunc::Prod, _) => {
                let improved = match known {
                    Some(i) if value > g.contributors[i].2 => {
                        g.contributors[i].2 = value;
                        true
                    }
                    Some(_) => false,
                    None if value > f64::NEG_INFINITY => {
                        add(g, value);
                        true
                    }
                    None => {
                        add(g, f64::NEG_INFINITY);
                        false
                    }
                };
                if improved {
                    let mut maxima: Vec<f64> = g.contributors.iter().map(|c| c.2).collect();
                    maxima.sort_unstable_by(f64::total_cmp);
                    g.total = maxima.into_iter().product();
                }
            }
            (AggFunc::Max | AggFunc::Min, _) => {
                let max = func == AggFunc::Max;
                let better = |a: f64, b: f64| if max { a > b } else { a < b };
                let none = if max {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                };
                match known {
                    Some(i) if better(value, g.contributors[i].2) => g.contributors[i].2 = value,
                    Some(_) => {}
                    None if better(value, none) => add(g, value),
                    None => add(g, none),
                }
                if better(value, g.total) {
                    g.total = value;
                }
            }
            (AggFunc::Count, Some(_)) => {}
            (AggFunc::Count, None) => {
                add(g, 1.0);
                g.total += 1.0;
            }
        }
        let changed = (g.total - old_total).abs() > epsilon;
        (g, changed)
    }
}

fn splitmix(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn arena_store_matches_the_reference_model() {
    // One function per predicate; group arity 0, 1 or 2 by predicate and
    // contributor arity 0, 1 or 2 by rule, so every group is shared by
    // three rules. Keys mix integers and equal floats (`1` and `1.0` are
    // one key), values include both zeros and both infinities, and the
    // finite ones are k/333 - 1, which round when summed.
    const FUNCS: [AggFunc; 5] = [
        AggFunc::Sum,
        AggFunc::Prod,
        AggFunc::Max,
        AggFunc::Min,
        AggFunc::Count,
    ];
    const SPECIAL: [f64; 4] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY];
    const EPSILONS: [f64; 3] = [0.0, 1e-9, 0.3];
    for seed in 0..200u64 {
        let mut s = seed;
        let mut store = AggStore::default();
        let mut model = Model::default();
        let key = |s: &mut u64, arity: u32, span: u64| -> Vec<Const> {
            (0..arity)
                .map(|_| {
                    let r = splitmix(s);
                    let v = (r % span) as i64;
                    if r.is_multiple_of(5) {
                        Const::float(v as f64)
                    } else {
                        Const::Int(v)
                    }
                })
                .collect()
        };
        for step in 0..400 {
            let pred = (splitmix(&mut s) % 5) as u32;
            let func = FUNCS[pred as usize];
            let group = key(&mut s, pred % 3, 6);
            let rule = (splitmix(&mut s) % 3) as u32;
            let contributor = key(&mut s, rule, 5);
            let r = splitmix(&mut s);
            let value = if r.is_multiple_of(16) {
                SPECIAL[(r / 16 % 4) as usize]
            } else {
                (r / 16 % 1000) as f64 / 333.0 - 1.0
            };
            let epsilon = EPSILONS[(splitmix(&mut s) % 3) as usize];
            let (got, changed) =
                store.contribute(pred, &group, func, rule, &contributor, value, epsilon);
            let (want, want_changed) =
                model.contribute(pred, &group, func, rule, &contributor, value, epsilon);
            let at = format!("seed {seed} step {step}");
            assert_eq!(got.total().to_bits(), want.total.to_bits(), "{at}");
            assert_eq!(changed, want_changed, "{at}");
            assert_eq!(
                got.last_emitted.map(f64::to_bits),
                want.last_emitted.map(f64::to_bits)
            );
            assert_eq!(got.func, want.func, "{at}");
            if splitmix(&mut s).is_multiple_of(3) {
                got.last_emitted = Some(got.total());
                want.last_emitted = Some(want.total);
            }
        }
        assert_eq!(store.groups(), model.groups.len());
        let contributors = model
            .groups
            .iter()
            .map(|g| g.contributors.len())
            .sum::<usize>();
        assert_eq!(store.contributors(), contributors);
    }
}

#[test]
fn keys_with_one_hash_keep_their_own_records() {
    // Two distinct keys with one hash share a home slot and a hash tag,
    // so telling them apart takes the key comparison. An integer hashes
    // through its `f64` bits (so that `1` and `1.0` hash alike), and
    // 2^53 + 1 rounds to 2^53: equal hashes, unequal keys. Group keys
    // hash under their predicate and contributor keys under `(group id,
    // rule)`; both heads are 0 here.
    let (a, b) = (1i64 << 53, (1i64 << 53) + 1);
    assert_eq!(key_hash(0, &t(&[a])), key_hash(0, &t(&[b])));
    let mut store = AggStore::default();
    store.contribute(0, &t(&[a]), AggFunc::Sum, 0, &t(&[]), 0.25, 0.0);
    let (s, _) = store.contribute(0, &t(&[b]), AggFunc::Sum, 0, &t(&[]), 0.5, 0.0);
    assert_eq!(s.total(), 0.5);
    let (s, changed) = store.contribute(0, &t(&[a]), AggFunc::Sum, 0, &t(&[]), 0.125, 0.0);
    assert_eq!((s.total(), changed), (0.25, false));
    assert_eq!(store.groups(), 2);
    // Group `[a]` has id 0: its contributors hash under head 0 as well.
    store.contribute(0, &t(&[a]), AggFunc::Sum, 0, &t(&[b]), 1.0, 0.0);
    let (s, _) = store.contribute(0, &t(&[a]), AggFunc::Sum, 0, &t(&[a]), 2.0, 0.0);
    assert_eq!(s.total(), 3.25);
    let (s, changed) = store.contribute(0, &t(&[a]), AggFunc::Sum, 0, &t(&[b]), 0.5, 0.0);
    assert_eq!((s.total(), changed), (3.25, false));
    assert_eq!(store.contributors(), 4);
}
