//! Vendored, dependency-free subset of the `rand` 0.9 API.
//!
//! The build container has no network access and no registry cache, so the
//! workspace vendors the small slice of `rand` it actually uses (see
//! `shims/README.md`): `StdRng` + `SeedableRng::seed_from_u64`, the `Rng`
//! extension methods `random`, `random_range` and `random_bool`, and
//! `seq::SliceRandom::shuffle`. The generator is xoshiro256++ seeded via
//! SplitMix64 — not the upstream ChaCha12, so streams differ from crates.io
//! `rand`, but every consumer in this workspace only relies on seeded
//! determinism and statistical quality, never on exact upstream streams.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Low-level generator interface: everything derives from `next_u64`.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seedable generators; only `seed_from_u64` is exercised in this workspace.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types producible by `Rng::random` (upstream: the `StandardUniform`
/// distribution). Floats land in `[0, 1)`.
pub trait Standard: Sized {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Standard for bool {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Types usable as `random_range` bounds.
pub trait SampleUniform: PartialOrd + Copy {
    /// Uniform draw from `[low, high)` (`high` already adjusted by the
    /// range wrapper for inclusive ranges).
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty => $wide:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "random_range: empty range");
                let span = (high as $wide).wrapping_sub(low as $wide) as u64;
                // Multiply-shift bounded draw (Lemire, without rejection):
                // bias is < span / 2^64, far below anything observable here.
                let draw = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                ((low as $wide).wrapping_add(draw as $wide)) as $t
            }
        }
    )*};
}
impl_sample_uniform_int!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64
);

impl SampleUniform for f64 {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        assert!(low < high, "random_range: empty range");
        low + f64::from_rng(rng) * (high - low)
    }
}

impl SampleUniform for f32 {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        assert!(low < high, "random_range: empty range");
        low + f32::from_rng(rng) * (high - low)
    }
}

/// Ranges accepted by `Rng::random_range`.
pub trait SampleRange<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

macro_rules! impl_sample_range_inclusive_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (low, high) = (*self.start(), *self.end());
                assert!(low <= high, "random_range: empty range");
                if high < <$t>::MAX {
                    <$t>::sample_half_open(rng, low, high + 1)
                } else if low > <$t>::MIN {
                    <$t>::sample_half_open(rng, low - 1, high).max(low)
                } else {
                    // Full domain.
                    <$t as Standard>::from_rng(rng)
                }
            }
        }
    )*};
}
impl_sample_range_inclusive_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (low, high) = (*self.start(), *self.end());
        assert!(low <= high, "random_range: empty range");
        low + f64::from_rng(rng) * (high - low)
    }
}

/// High-level convenience methods, blanket-implemented for every generator.
pub trait Rng: RngCore {
    fn random<T: Standard>(&mut self) -> T {
        T::from_rng(self)
    }

    fn random_range<T: SampleUniform, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    fn random_bool(&mut self, p: f64) -> bool {
        f64::from_rng(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard seeded generator: xoshiro256++ with
    /// SplitMix64 state expansion (Blackman & Vigna). Upstream `StdRng`
    /// is ChaCha12; consumers here require determinism and statistical
    /// quality only, not the upstream byte stream.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

pub mod seq {
    use super::{Rng, RngCore};

    /// Slice helpers; only `shuffle` is exercised in this workspace.
    pub trait SliceRandom {
        type Item;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        fn choose<'a, R: RngCore + ?Sized>(&'a self, rng: &mut R) -> Option<&'a Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            // Fisher–Yates.
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<'a, R: RngCore + ?Sized>(&'a self, rng: &mut R) -> Option<&'a T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.random_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn seeded_streams_are_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).random::<u64>(), c.random::<u64>());
    }

    #[test]
    fn unit_floats_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean}");
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = rng.random_range(-3000..3000);
            assert!((-3000..3000).contains(&v));
            let u = rng.random_range(5..=7);
            assert!((5..=7).contains(&u));
            let f = rng.random_range(0.85..1.0);
            assert!((0.85..1.0).contains(&f));
        }
        // Both ends of a small inclusive range are reachable.
        let mut seen = [false; 3];
        for _ in 0..1000 {
            seen[rng.random_range(0..=2usize)] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice in order");
    }
}
