//! The benchmark's own input generator.
//!
//! Inputs are drawn from this generator and never from the program's
//! (vendored) `rand`, so a later change to the program cannot change the
//! inputs a seed produces.

/// SplitMix64: small, fast, and good enough to draw keys, issuers and mixes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `[0, n)`; `n` must be positive. The modulo bias is below
    /// 2⁻²⁴ for every `n` the benchmark uses (`n` ≤ 2⁴⁰).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A value in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An index into a non-empty slice of length `len`.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }
}

/// The seed of round `round` of a run seeded with `seed`.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    let mut r = Rng::new(seed ^ (round as u64).wrapping_mul(0xa24b_aed4_963e_e407));
    // Simulator seeds stay small and positive so they print readably.
    r.next_u64() >> 16
}

/// Zipf over `hotspots` equal-width buckets of `[0, domain)`: bucket of rank
/// `r` (1-based) is drawn with probability ∝ `1 / r^theta`, keys are uniform
/// inside the bucket.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    bucket: u64,
}

impl Zipf {
    /// Builds the distribution.
    pub fn new(domain: u64, hotspots: u64, theta: f64) -> Self {
        let mut acc = 0.0;
        let cdf: Vec<f64> = (1..=hotspots)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(theta);
                acc
            })
            .collect();
        Zipf {
            cdf,
            bucket: domain / hotspots,
        }
    }

    /// Draws one key.
    pub fn key(&self, rng: &mut Rng) -> u64 {
        let total = *self.cdf.last().expect("at least one hotspot");
        let target = rng.unit() * total;
        let rank = self.cdf.partition_point(|c| *c <= target);
        let rank = rank.min(self.cdf.len() - 1) as u64;
        rank * self.bucket + rng.below(self.bucket)
    }
}
