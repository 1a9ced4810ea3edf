//! A small, offline work-alike of the `rand` API surface this workspace
//! uses: `rngs::StdRng`, `SeedableRng::seed_from_u64`, `Rng::gen_range`
//! over half-open integer ranges, and `Rng::gen_bool`.
//!
//! The generator is SplitMix64 — deterministic for a given seed, which is
//! all the program generator and the property tests require (statistical
//! quality far beyond "not obviously patterned" is irrelevant here).

#![forbid(unsafe_code)]

use std::ops::Range;

/// Types that can be drawn uniformly from a half-open range.
pub trait SampleUniform: Copy {
    fn sample_from(rng: &mut dyn RngCore, range: Range<Self>) -> Self;
}

/// The raw 64-bit source every generator provides.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

macro_rules! impl_sample_uniform {
    ($($ty:ty),*) => {$(
        impl SampleUniform for $ty {
            fn sample_from(rng: &mut dyn RngCore, range: Range<$ty>) -> $ty {
                assert!(range.start < range.end, "cannot sample empty range");
                let span = (range.end as i128 - range.start as i128) as u128;
                let offset = (rng.next_u64() as u128) % span;
                (range.start as i128 + offset as i128) as $ty
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The sampling / convenience methods, blanket-implemented for every core.
pub trait Rng: RngCore {
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_from(self, range)
    }

    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        // 53 random bits → uniform in [0, 1)
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }

    fn gen_u64(&mut self) -> u64
    where
        Self: Sized,
    {
        self.next_u64()
    }
}

impl<T: RngCore> Rng for T {}

/// Construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod distributions {
    //! The distribution surface of `rand_distr` this workspace uses: the
    //! [`Distribution`] trait and a [`Zipf`] law for skewed request
    //! generators (cache eviction-policy experiments model a few hot
    //! programs dominating a long tail, per the NDN caching-policy study in
    //! PAPERS.md).

    use super::Rng;

    /// Types that produce values of `T` from a source of randomness.
    pub trait Distribution<T> {
        fn sample<R: Rng>(&self, rng: &mut R) -> T;
    }

    /// A Zipf distribution over ranks `1..=n`: `P(k) ∝ 1 / k^s`.
    ///
    /// Sampling inverts the precomputed CDF with a binary search —
    /// `O(log n)` per draw, exact for any exponent `s ≥ 0` (`s = 0` is the
    /// uniform distribution, larger `s` concentrates the mass on the lowest
    /// ranks).
    #[derive(Debug, Clone)]
    pub struct Zipf {
        cdf: Vec<f64>,
    }

    impl Zipf {
        /// A Zipf law over `1..=n` with exponent `s`.  `n` must be nonzero
        /// and `s` finite and nonnegative.
        pub fn new(n: u64, s: f64) -> Result<Zipf, &'static str> {
            if n == 0 {
                return Err("Zipf requires at least one rank");
            }
            if !s.is_finite() || s < 0.0 {
                return Err("Zipf exponent must be finite and >= 0");
            }
            let mut cdf = Vec::with_capacity(n as usize);
            let mut total = 0.0f64;
            for k in 1..=n {
                total += (k as f64).powf(-s);
                cdf.push(total);
            }
            for c in &mut cdf {
                *c /= total;
            }
            Ok(Zipf { cdf })
        }

        /// Number of ranks.
        pub fn len(&self) -> usize {
            self.cdf.len()
        }

        pub fn is_empty(&self) -> bool {
            self.cdf.is_empty()
        }
    }

    impl Distribution<u64> for Zipf {
        /// Draw a rank in `1..=n` (rank 1 is the most probable).
        fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
            // 53 random bits → uniform in [0, 1)
            let unit = (rng.gen_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let idx = self.cdf.partition_point(|&c| c < unit);
            (idx.min(self.cdf.len() - 1) + 1) as u64
        }
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// SplitMix64: passes through every 64-bit state exactly once and is
    /// trivially seedable — the standard choice for deterministic test RNGs.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            StdRng { state: seed }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1_000_000), b.gen_range(0u64..1_000_000));
        }
    }

    #[test]
    fn ranges_are_respected() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            let x = rng.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&y));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(1);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((1_800..3_200).contains(&hits), "got {hits}");
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        use super::distributions::{Distribution, Zipf};
        let zipf = Zipf::new(100, 1.1).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u32; 100];
        for _ in 0..50_000 {
            let rank = zipf.sample(&mut rng);
            assert!((1..=100).contains(&rank));
            counts[(rank - 1) as usize] += 1;
        }
        assert!(counts[0] > counts[9], "rank 1 beats rank 10: {counts:?}");
        assert!(counts[9] > counts[99], "rank 10 beats rank 100");
        // Rank 1 carries ~21% of the mass at s=1.1, n=100.
        assert!((8_000..16_000).contains(&counts[0]), "got {}", counts[0]);
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        use super::distributions::{Distribution, Zipf};
        let zipf = Zipf::new(10, 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0u32; 10];
        for _ in 0..20_000 {
            counts[(zipf.sample(&mut rng) - 1) as usize] += 1;
        }
        for c in counts {
            assert!((1_500..2_500).contains(&c), "uniform-ish: {counts:?}");
        }
    }

    #[test]
    fn zipf_is_deterministic_and_validates() {
        use super::distributions::{Distribution, Zipf};
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(4, -1.0).is_err());
        assert!(Zipf::new(4, f64::NAN).is_err());
        let zipf = Zipf::new(64, 1.3).unwrap();
        assert_eq!(zipf.len(), 64);
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(zipf.sample(&mut a), zipf.sample(&mut b));
        }
    }

    #[test]
    fn different_seeds_disagree() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen_range(0u64..u64::MAX)).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen_range(0u64..u64::MAX)).collect();
        assert_ne!(va, vb);
    }
}
