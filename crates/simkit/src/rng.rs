//! Deterministic random sources and the samplers the paper's workloads use.
//!
//! Everything is seeded explicitly so that every experiment in the
//! repository is reproducible bit-for-bit. The samplers cover the
//! distributions cited by the evaluation: zipf-like key popularity
//! (Breslau et al., used for Memcached and YCSB), exponential
//! inter-arrivals, and log-normal value sizes from the Facebook "ETC"
//! workload characterisation (Atikoglu et al.).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic, explicitly seeded random source.
///
/// # Example
///
/// ```
/// use simkit::rng::DetRng;
///
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: StdRng,
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives the `stream`-th independent generator from a master seed
    /// **without** consuming state from any live generator.
    ///
    /// This is the parallel-sweep splitting function: every sweep point
    /// gets `split_stream(master_seed, point_index)`, so the stream a
    /// point sees depends only on `(master_seed, point_index)` — never
    /// on which worker ran it or in what order. That is what makes a
    /// 1-worker and an N-worker sweep bit-identical.
    ///
    /// The mix is a double SplitMix64-style finalizer over the seed and
    /// stream id, so adjacent stream indices land far apart in seed
    /// space.
    ///
    /// # Example
    ///
    /// ```
    /// use simkit::rng::DetRng;
    ///
    /// let mut a = DetRng::split_stream(42, 3);
    /// let mut b = DetRng::split_stream(42, 3);
    /// let mut c = DetRng::split_stream(42, 4);
    /// assert_eq!(a.next_u64(), b.next_u64());
    /// assert_ne!(a.next_u64(), c.next_u64());
    /// ```
    pub fn split_stream(master_seed: u64, stream: u64) -> DetRng {
        DetRng::new(splitmix64(
            master_seed ^ splitmix64(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        ))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform usize in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot pick from empty collection");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with success probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.f64(); // avoid ln(0)
        -mean * u.ln()
    }

    /// Standard normal via Box–Muller.
    pub(crate) fn normal(&mut self, mu: f64, sigma: f64) -> f64 {
        let u1 = 1.0 - self.f64();
        let u2 = self.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mu + sigma * z
    }

    /// Log-normal: `exp(N(mu, sigma))`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }
}

/// SplitMix64 finalizer: a full-avalanche bijection on u64, the
/// standard way to spread structured seeds (small integers, sequential
/// stream ids) across the whole seed space.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A zipf-like sampler over keys `0..n` with exponent `theta`.
///
/// Uses the truncated continuous power-law inverse-CDF approximation:
/// exact enough to reproduce the cache-hit ratios the paper reports
/// (80–82% for the Memcached setup) while sampling in O(1) for key
/// spaces of hundreds of millions of items.
///
/// # Example
///
/// ```
/// use simkit::rng::{DetRng, ZipfSampler};
///
/// let mut rng = DetRng::new(7);
/// let zipf = ZipfSampler::new(1_000_000, 1.0);
/// let k = zipf.sample(&mut rng);
/// assert!(k < 1_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    n: u64,
    theta: f64,
}

impl ZipfSampler {
    /// Creates a sampler over `0..n` with exponent `theta > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta <= 0`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipf needs a non-empty key space");
        assert!(theta > 0.0, "zipf exponent must be positive");
        ZipfSampler { n, theta }
    }

    /// Draws a key in `[0, n)`; key 0 is the most popular.
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        let u = rng.f64();
        let b = self.n as f64;
        let x = if (self.theta - 1.0).abs() < 1e-9 {
            // s == 1: inverse of H(x) = ln(x) over [1, b].
            b.powf(u)
        } else {
            // s != 1: inverse of H(x) = (x^{1-s} - 1)/(1-s) over [1, b].
            let one_minus = 1.0 - self.theta;
            (u * (b.powf(one_minus) - 1.0) + 1.0).powf(1.0 / one_minus)
        };
        let k = x.floor() as u64;
        k.clamp(1, self.n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_stream_is_order_free() {
        // Streams depend only on (seed, index): deriving them in any
        // order, from any thread, yields identical generators.
        let forward: Vec<u64> = (0..8)
            .map(|i| DetRng::split_stream(99, i).next_u64())
            .collect();
        let backward: Vec<u64> = (0..8)
            .rev()
            .map(|i| DetRng::split_stream(99, i).next_u64())
            .collect();
        let reversed: Vec<u64> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed);
        // And adjacent streams are distinct.
        for w in forward.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }

    #[test]
    fn split_stream_differs_from_master() {
        let mut master = DetRng::new(42);
        let mut s0 = DetRng::split_stream(42, 0);
        assert_ne!(master.next_u64(), s0.next_u64());
    }

    #[test]
    fn range_bounds() {
        let mut rng = DetRng::new(2);
        for _ in 0..1000 {
            let v = rng.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn exp_mean_is_close() {
        let mut rng = DetRng::new(3);
        let mean = 50.0;
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.exp(mean)).sum();
        let observed = sum / n as f64;
        assert!((observed - mean).abs() < mean * 0.05, "observed {observed}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = DetRng::new(4);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1);
        assert!((var - 4.0).abs() < 0.3);
    }

    #[test]
    fn zipf_is_skewed_and_bounded() {
        let mut rng = DetRng::new(8);
        let zipf = ZipfSampler::new(10_000, 1.0);
        let mut head = 0u64;
        let trials = 50_000;
        for _ in 0..trials {
            let k = zipf.sample(&mut rng);
            assert!(k < 10_000);
            if k < 100 {
                head += 1;
            }
        }
        // With theta=1 and n=1e4, the top 1% of keys should draw roughly
        // half the probability mass (ln(100)/ln(10000) = 0.5).
        let frac = head as f64 / trials as f64;
        assert!(frac > 0.40 && frac < 0.60, "head fraction {frac}");
    }

    #[test]
    fn zipf_head_key_share_matches_the_closed_form() {
        // The sampler inverts the truncated continuous power law, so
        // the hottest key's share has a closed form: with theta=1 over
        // [1, n], P(key 0) = P(x < 2) = ln(2)/ln(n). The fleet
        // scenarios lean on this share to place hotspots; pin it to
        // within a percentage point so a regression in the inverse-CDF
        // can't silently flatten (or sharpen) every hotspot.
        let mut rng = DetRng::new(11);
        let n = 10_000u64;
        let zipf = ZipfSampler::new(n, 1.0);
        let trials = 200_000u64;
        let mut head = 0u64;
        for _ in 0..trials {
            if zipf.sample(&mut rng) == 0 {
                head += 1;
            }
        }
        let expected = 2f64.ln() / (n as f64).ln(); // ~0.0753
        let observed = head as f64 / trials as f64;
        assert!(
            (observed - expected).abs() < 0.01,
            "head key share {observed:.4}, closed form {expected:.4}"
        );
    }

    #[test]
    fn zipf_streams_are_bit_identical_across_sweep_workers() {
        // Fleet scenarios deal zipf keys to clients through the sweep
        // harness; the deal must not depend on how many workers ran
        // the sweep. Each point draws its keys from the stream split
        // by (seed, point index), so 1 worker and 4 workers must
        // produce byte-for-byte the same key sequences.
        let sample_point = |_i: usize, client: u64, mut rng: DetRng| -> Vec<u64> {
            let zipf = ZipfSampler::new(1 << 20, 0.99);
            (0..512).map(|_| zipf.sample(&mut rng) ^ client).collect()
        };
        let points: Vec<u64> = (0..16).collect();
        let one = crate::sweep::sweep_with_workers(1234, points.clone(), 1, sample_point);
        let four = crate::sweep::sweep_with_workers(1234, points, 4, sample_point);
        assert_eq!(one, four, "zipf sample streams diverged across worker counts");
    }

    #[test]
    fn zipf_non_unit_exponent() {
        let mut rng = DetRng::new(9);
        let zipf = ZipfSampler::new(1000, 0.99);
        for _ in 0..1000 {
            assert!(zipf.sample(&mut rng) < 1000);
        }
        let steep = ZipfSampler::new(1000, 2.0);
        let mut zero = 0;
        for _ in 0..1000 {
            if steep.sample(&mut rng) == 0 {
                zero += 1;
            }
        }
        // theta=2 concentrates roughly half the mass on the first key
        // (continuous approximation: P(x < 2) = (1 - 1/2)/(1 - 1/n)).
        assert!(zero > 400, "zero draws: {zero}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        DetRng::new(0).range(5, 5);
    }
}
