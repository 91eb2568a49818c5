//! Vendored, dependency-free subset of the `proptest` 1.x API.
//!
//! The build container has no network access and no registry cache, so the
//! workspace vendors the slice of `proptest` its test suites use (see
//! `shims/README.md`): the `proptest!` / `prop_assert!` / `prop_assert_eq!`
//! macros, `Strategy` + `prop_map`, strategies for ranges, tuples,
//! `any::<T>()`, regex-subset string literals, `prop::collection::vec`,
//! `prop::sample::select` and `prop::char::range`, and
//! `ProptestConfig::with_cases`.
//!
//! Differences from upstream, deliberately accepted for an offline test
//! harness: cases are generated from a fixed deterministic seed (per test
//! name), there is no failure persistence file, and **no shrinking** — a
//! failing case is reported verbatim. String "regex" strategies support the
//! subset actually used in this workspace: a single `.` or `[...]` character
//! class followed by an optional `{n}` / `{m,n}` repetition.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------------
// Deterministic generator (SplitMix64): quality is ample for test-case
// generation and keeps the shim dependency-free.

#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

// ---------------------------------------------------------------------------
// Core strategy abstraction.

/// A generator of test-case values. Upstream this is a value *tree* that
/// supports shrinking; the shim generates plain values.
pub trait Strategy {
    type Value: fmt::Debug;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O: fmt::Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        _whence: &'static str,
        f: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter { inner: self, f }
    }
}

pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: fmt::Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

pub struct Filter<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        // Bounded retry; a chronically unsatisfiable filter is a test bug.
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter rejected 1000 consecutive candidates");
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// A constant strategy.
#[derive(Clone, Debug)]
pub struct Just<T: Clone + fmt::Debug>(pub T);

impl<T: Clone + fmt::Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// ---------------------------------------------------------------------------
// Numeric range strategies.

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}
impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.unit_f64() as $t * (self.end - self.start)
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                lo + rng.unit_f64() as $t * (hi - lo)
            }
        }
    )*};
}
impl_float_range_strategy!(f32, f64);

// ---------------------------------------------------------------------------
// Tuple strategies.

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

// ---------------------------------------------------------------------------
// `any::<T>()`.

/// Types with a canonical whole-domain strategy.
pub trait Arbitrary: Sized + fmt::Debug {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Finite, sign-symmetric, wide dynamic range.
        let mag = (rng.unit_f64() * 2.0 - 1.0) * 1e12;
        mag * rng.unit_f64()
    }
}

impl Arbitrary for char {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Mostly ASCII with a sprinkling of wider code points.
        if rng.below(4) == 0 {
            char::from_u32(0xA0 + rng.below(0x2000) as u32).unwrap_or('¤')
        } else {
            (0x20u8 + rng.below(0x5F) as u8) as char
        }
    }
}

pub struct Any<T: Arbitrary> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

// ---------------------------------------------------------------------------
// Regex-subset string strategies: `&str` literals act as generators.
//
// Supported: a single `.` or `[...]` character class (ranges `a-z` and
// literal chars, unicode ok) followed by `{n}`, `{m,n}`, or nothing.

#[derive(Clone, Debug)]
struct CharClass {
    /// Concrete choices; `None` means "any printable char" (the `.` class).
    choices: Option<Vec<char>>,
}

impl CharClass {
    fn pick(&self, rng: &mut TestRng) -> char {
        match &self.choices {
            Some(cs) => cs[rng.below(cs.len() as u64) as usize],
            None => {
                // "." — printable ASCII most of the time, occasionally a
                // wider code point so unicode paths get exercised.
                if rng.below(8) == 0 {
                    char::from_u32(0xA1 + rng.below(0x500) as u32).unwrap_or('¿')
                } else {
                    (0x20u8 + rng.below(0x5F) as u8) as char
                }
            }
        }
    }
}

fn parse_pattern(pattern: &str) -> (CharClass, usize, usize) {
    let chars: Vec<char> = pattern.chars().collect();
    let mut i;
    let class = match chars.first() {
        Some('.') => {
            i = 1;
            CharClass { choices: None }
        }
        Some('[') => {
            let mut set = Vec::new();
            i = 1;
            while i < chars.len() && chars[i] != ']' {
                if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                    let (lo, hi) = (chars[i] as u32, chars[i + 2] as u32);
                    assert!(lo <= hi, "bad char range in pattern {pattern:?}");
                    set.extend((lo..=hi).filter_map(char::from_u32));
                    i += 3;
                } else {
                    set.push(chars[i]);
                    i += 1;
                }
            }
            assert!(
                i < chars.len(),
                "unterminated character class in pattern {pattern:?}"
            );
            i += 1; // closing ']'
            assert!(!set.is_empty(), "empty character class in {pattern:?}");
            CharClass { choices: Some(set) }
        }
        _ => {
            // Treat the whole literal as itself (degenerate but harmless).
            return (
                CharClass {
                    choices: Some(chars.clone()),
                },
                chars.len(),
                chars.len(),
            );
        }
    };
    if i >= chars.len() {
        return (class, 1, 1);
    }
    assert_eq!(
        chars[i], '{',
        "unsupported pattern {pattern:?}: expected `{{m,n}}` repetition"
    );
    let rest: String = chars[i + 1..].iter().collect();
    let body = rest
        .strip_suffix('}')
        .unwrap_or_else(|| panic!("unterminated repetition in pattern {pattern:?}"));
    let (lo, hi) = match body.split_once(',') {
        Some((a, b)) => (
            a.trim().parse().expect("bad repetition lower bound"),
            b.trim().parse().expect("bad repetition upper bound"),
        ),
        None => {
            let n = body.trim().parse().expect("bad repetition count");
            (n, n)
        }
    };
    (class, lo, hi)
}

impl Strategy for &'static str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let (class, lo, hi) = parse_pattern(self);
        let len = lo + rng.below((hi - lo + 1) as u64) as usize;
        (0..len).map(|_| class.pick(rng)).collect()
    }
}

// ---------------------------------------------------------------------------
// Collections, sampling, chars.

pub mod collection {
    use super::{fmt, Range, Strategy, TestRng};

    /// Size specification for collection strategies.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: fmt::Debug,
    {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_exclusive - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod sample {
    use super::{fmt, Strategy, TestRng};

    pub struct Select<T: Clone + fmt::Debug> {
        choices: Vec<T>,
    }

    /// Uniform choice from a non-empty vector.
    pub fn select<T: Clone + fmt::Debug>(choices: Vec<T>) -> Select<T> {
        assert!(!choices.is_empty(), "sample::select on an empty vector");
        Select { choices }
    }

    impl<T: Clone + fmt::Debug> Strategy for Select<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            self.choices[rng.below(self.choices.len() as u64) as usize].clone()
        }
    }
}

pub mod char {
    use super::{Strategy, TestRng};

    pub struct CharRange {
        lo: u32,
        hi: u32,
    }

    /// Uniform choice from an inclusive code-point range.
    pub fn range(lo: char, hi: char) -> CharRange {
        assert!(lo <= hi, "empty char range");
        CharRange {
            lo: lo as u32,
            hi: hi as u32,
        }
    }

    impl Strategy for CharRange {
        type Value = char;

        fn generate(&self, rng: &mut TestRng) -> char {
            // Surrogate gap: retry (bounded; the gap is a single interval).
            for _ in 0..8 {
                let cp = self.lo + rng.below((self.hi - self.lo + 1) as u64) as u32;
                if let Some(c) = char::from_u32(cp) {
                    return c;
                }
            }
            char::from_u32(self.lo).expect("char range lower bound")
        }
    }
}

// ---------------------------------------------------------------------------
// Runner plumbing used by the macros.

/// Failure raised by `prop_assert!`-family macros.
#[derive(Debug)]
pub struct TestCaseError {
    pub message: String,
}

impl TestCaseError {
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Stable per-test seed so failures reproduce across runs and machines.
pub fn seed_for(test_name: &str, case: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h ^ ((case as u64) << 32 | 0x9E37_79B9)
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+),
                l,
                r
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            $(let $arg = &$strat;)+
            for case in 0..config.cases {
                let mut rng = $crate::TestRng::new($crate::seed_for(stringify!($name), case));
                $(let $arg = $crate::Strategy::generate($arg, &mut rng);)+
                let rendered = format!(
                    concat!($("\n  ", stringify!($arg), " = {:?}",)+),
                    $(&$arg),+
                );
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest case {}/{} failed: {}\ninputs:{}",
                        case + 1,
                        config.cases,
                        e,
                        rendered
                    );
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, Just,
        ProptestConfig, Strategy, TestCaseError, TestRng,
    };

    pub mod prop {
        pub use crate::char;
        pub use crate::collection;
        pub use crate::sample;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn string_patterns_match_shape() {
        let mut rng = TestRng::new(1);
        for _ in 0..200 {
            let s = "[a-z]{1,6}".generate(&mut rng);
            assert!((1..=6).contains(&s.chars().count()), "{s:?}");
            assert!(s.chars().all(|c| c.is_ascii_lowercase()), "{s:?}");

            let t = ".{0,20}".generate(&mut rng);
            assert!(t.chars().count() <= 20);

            let u = "[a-zà-ü]{0,12}".generate(&mut rng);
            assert!(u.chars().count() <= 12);
            assert!(
                u.chars()
                    .all(|c| c.is_ascii_lowercase() || ('à'..='ü').contains(&c)),
                "{u:?}"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let strat = prop::collection::vec(0u8..10, 0..20);
        let a = strat.generate(&mut TestRng::new(9));
        let b = strat.generate(&mut TestRng::new(9));
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_roundtrip(xs in prop::collection::vec(any::<i64>(), 0..8), k in 1usize..5) {
            prop_assert!(xs.len() < 8);
            prop_assert_eq!(k.min(4), k);
            let doubled: Vec<i64> = xs.iter().map(|x| x.wrapping_mul(2)).collect();
            prop_assert_eq!(doubled.len(), xs.len());
        }

        #[test]
        fn tuple_and_select(pair in (0u8..4, prop::sample::select(vec!["a", "b"])), c in prop::char::range('a', 'z')) {
            prop_assert!(pair.0 < 4);
            prop_assert!(pair.1 == "a" || pair.1 == "b");
            prop_assert!(c.is_ascii_lowercase());
        }
    }
}
