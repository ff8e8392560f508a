//! Minimal, dependency-free random number generation for the pfcim
//! workspace.
//!
//! This crate is an in-tree stand-in for the `rand` crate providing
//! exactly the API surface the workspace uses, so that the whole build is
//! hermetic (no registry access required). The design follows the same
//! split the workspace code assumes:
//!
//! * [`Rng`] — the object-safe core trait (`next_u64`), so samplers can
//!   take `&mut dyn Rng`;
//! * [`RngExt`] — the blanket extension trait carrying the generic
//!   conveniences (`random`, `random_range`);
//! * [`SeedableRng`] — deterministic construction from a `u64` seed;
//! * [`rngs::SmallRng`] — a small, fast, high-quality generator
//!   (xoshiro256++ seeded via SplitMix64);
//! * [`seq::IndexedRandom`] — uniform slice element selection.
//!
//! All generators are fully deterministic given their seed; nothing here
//! touches OS entropy.

#![deny(missing_docs)]
#![warn(clippy::all)]

/// The object-safe core of a random number generator.
///
/// Everything else ([`RngExt`], [`seq::IndexedRandom`], the distribution
/// helpers) is derived from a stream of uniform `u64`s.
pub trait Rng {
    /// The next uniformly distributed 64-bit value of the stream.
    fn next_u64(&mut self) -> u64;

    /// The next uniformly distributed 32-bit value (upper bits of
    /// [`Rng::next_u64`], which are the strongest bits of xoshiro-family
    /// generators).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A type that can be sampled uniformly from an [`Rng`] stream.
///
/// Implemented for the primitive types the workspace draws directly:
/// floats in `[0, 1)`, full-range integers, and fair booleans.
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 random mantissa bits.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 random mantissa bits.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl Standard for bool {
    /// A fair coin (the top bit of the stream).
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

/// A range argument accepted by [`RngExt::random_range`].
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end - self.start) as u64;
                self.start + bounded_u64(rng, span) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample from empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return lo + rng.next_u64() as $t;
                }
                lo + bounded_u64(rng, span + 1) as $t
            }
        }
    )*};
}

impl_int_sample_range!(u8, u16, u32, u64, usize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample from empty range");
        let u: f64 = Standard::sample(rng);
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f64> for core::ops::RangeInclusive<f64> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample from empty range");
        let u: f64 = Standard::sample(rng);
        lo + u * (hi - lo)
    }
}

/// Uniform value in `[0, bound)` by 128-bit widening multiply (Lemire's
/// method without the rejection step; the bias is below `2^-64` for the
/// bounds used here).
fn bounded_u64<R: Rng + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    ((u128::from(rng.next_u64()) * u128::from(bound)) >> 64) as u64
}

/// Generic conveniences over any [`Rng`], blanket-implemented so they are
/// available on `&mut dyn Rng` too.
pub trait RngExt: Rng {
    /// A uniformly distributed value of `T` (floats land in `[0, 1)`).
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A value drawn uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// Deterministic construction of a generator from seed material.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;

    /// Build a generator seeded from another generator's stream.
    fn from_rng<R: Rng + ?Sized>(source: &mut R) -> Self {
        Self::seed_from_u64(source.next_u64())
    }
}

pub mod rngs {
    //! Concrete generator implementations.

    use super::{Rng, SeedableRng};

    /// A small, fast generator: xoshiro256++ with SplitMix64 seed
    /// expansion. Deterministic, not cryptographically secure.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut sm);
            }
            // xoshiro256++ requires a non-zero state; SplitMix64 only maps
            // a single input to an all-zero block, but guard anyway.
            if s == [0, 0, 0, 0] {
                s[0] = 0x9e37_79b9_7f4a_7c15;
            }
            Self { s }
        }
    }

    impl Rng for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

pub mod seq {
    //! Random selection from sequences.

    use super::{Rng, RngExt};

    /// Uniform random element selection from indexable sequences.
    pub trait IndexedRandom {
        /// Element type.
        type Output;

        /// A uniformly chosen element, or `None` when empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Output>;
    }

    impl<T> IndexedRandom for [T] {
        type Output = T;

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
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
    use super::rngs::SmallRng;
    use super::seq::IndexedRandom;
    use super::{Rng, RngExt, SeedableRng};

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(SmallRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn unit_floats_are_in_range_and_roughly_uniform() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn random_range_is_uniform_over_small_spans() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            counts[rng.random_range(0..5usize)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "{counts:?}");
        }
        for _ in 0..1000 {
            let v = rng.random_range(3..=7usize);
            assert!((3..=7).contains(&v));
        }
    }

    #[test]
    fn dyn_rng_is_usable() {
        let mut rng = SmallRng::seed_from_u64(3);
        let dynr: &mut dyn Rng = &mut rng;
        let x: f64 = dynr.random();
        assert!((0.0..1.0).contains(&x));
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut rng = SmallRng::seed_from_u64(4);
        let items = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[*items.choose(&mut rng).unwrap() - 1] = true;
        }
        assert_eq!(seen, [true; 3]);
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn bool_and_random_bool_are_balanced() {
        let mut rng = SmallRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| rng.random::<bool>()).count();
        assert!((hits as f64 - 5_000.0).abs() < 300.0, "{hits}");
        let biased = (0..10_000).filter(|_| rng.random_bool(0.9)).count();
        assert!((biased as f64 - 9_000.0).abs() < 300.0, "{biased}");
    }
}
