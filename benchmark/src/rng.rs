//! Seeded randomness for the request streams: SplitMix64 and a Zipf sampler.
//!
//! Hand-rolled so `ledger-e2e` depends on no crate at all, and so a stream is
//! a pure function of its seed on every toolchain.

/// SplitMix64 (Steele, Lea & Flood): one `u64` of state, full period.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for client thread `lane` of a run seeded `seed`.
    pub fn for_lane(seed: u64, lane: usize) -> Rng {
        let mut rng = Rng(seed ^ (lane as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf over ranks `0..n` with exponent `s`: rank `k` is drawn with
/// probability proportional to `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += (k as f64).powf(-s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let zipf = Zipf::new(64, 1.2);
        let draw = |seed| {
            let mut rng = Rng::for_lane(seed, 0);
            (0..1000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = Zipf::new(64, 1.2);
        let mut rng = Rng::new(1);
        let mut counts = [0u32; 64];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // Rank 0 carries 1/H(64, 1.2) ≈ 27 % of the mass.
        assert!((25_000..30_000).contains(&counts[0]), "{}", counts[0]);
        assert!(counts[0] > counts[1] && counts[1] > counts[7] && counts[7] > counts[63]);
        assert!(counts[63] > 0);
    }

    #[test]
    fn lanes_differ() {
        assert_ne!(
            Rng::for_lane(1, 0).next_u64(),
            Rng::for_lane(1, 1).next_u64()
        );
    }
}
