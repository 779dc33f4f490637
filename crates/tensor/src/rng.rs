//! Seeded random number generation.
//!
//! Every stochastic component in the workspace (weight init, dataset
//! synthesis, shuffling) draws from this wrapper so that experiments are
//! reproducible from a single `u64` seed.
//!
//! The generator is a self-contained xoshiro256++ implementation (public
//! domain algorithm by Blackman & Vigna) seeded through SplitMix64, so the
//! workspace builds with **zero external dependencies** — the previous
//! `rand::rngs::StdRng` backend required crates.io access, which the build
//! environment does not have.

/// A deterministic random number generator seeded from a `u64`.
///
/// Implements xoshiro256++ with SplitMix64 state expansion and adds the
/// normal sampling used for weight initialization (Box-Muller, so no extra
/// distribution dependency is needed).
///
/// # Example
///
/// ```
/// use pivot_tensor::Rng;
///
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    state: [u64; 4],
    cached_normal: Option<f32>,
}

/// SplitMix64 step, used to expand a 64-bit seed into the 256-bit
/// xoshiro state (the seeding procedure recommended by the authors).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self {
            state,
            cached_normal: None,
        }
    }

    /// The raw xoshiro256++ step: uniform over all `u64` values.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[0]
            .wrapping_add(self.state[3])
            .rotate_left(23)
            .wrapping_add(self.state[0]);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Uniform sample in `[0, 1)` with 24 bits of mantissa entropy.
    fn unit_f32(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32) * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform integer in `[0, n)` via Lemire's multiply-shift reduction
    /// with rejection (unbiased).
    fn below_u64(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let wide = (x as u128) * (n as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= n || lo >= n.wrapping_neg() % n {
                return hi;
            }
        }
    }

    /// Derives an independent child generator; useful for giving each
    /// subsystem its own stream without coupling their draw counts.
    pub fn fork(&mut self, salt: u64) -> Self {
        let base: u64 = self.next_u64();
        Self::new(base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "uniform requires lo < hi");
        lo + (hi - lo) * self.unit_f32()
    }

    /// Uniform integer sample in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below requires n > 0");
        self.below_u64(n as u64) as usize
    }

    /// Bernoulli sample with probability `p` of `true`.
    pub fn chance(&mut self, p: f32) -> bool {
        self.unit_f32() < p
    }

    /// Standard normal sample via Box-Muller.
    pub fn normal(&mut self) -> f32 {
        if let Some(z) = self.cached_normal.take() {
            return z;
        }
        // Draw u1 in (0, 1] to avoid ln(0).
        let u1: f32 = 1.0 - self.unit_f32();
        let u2: f32 = self.unit_f32();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        self.cached_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Fisher-Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below_u64(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(1);
        for _ in 0..100 {
            assert_eq!(a.normal().to_bits(), b.normal().to_bits());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..32).filter(|_| a.normal() == b.normal()).count();
        assert!(same < 4);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = Rng::new(99);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = Rng::new(11);
        for _ in 0..10_000 {
            let x = rng.uniform(-2.5, 3.5);
            assert!((-2.5..3.5).contains(&x));
        }
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut rng = Rng::new(13);
        let mut counts = [0usize; 7];
        let n = 70_000;
        for _ in 0..n {
            counts[rng.below(7)] += 1;
        }
        for &c in &counts {
            let expected = n / 7;
            assert!(
                (c as f64 - expected as f64).abs() < expected as f64 * 0.1,
                "count {c} far from {expected}"
            );
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::new(5);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut base = Rng::new(3);
        let mut f1 = base.fork(1);
        let mut f2 = base.fork(1);
        // Forks taken sequentially consume base state, so they differ.
        assert_ne!(f1.normal().to_bits(), f2.normal().to_bits());
    }
}
