//! Statistics collection: log-bucketed histograms, CDFs and online moments.
//!
//! The benchmark harnesses use [`Histogram`] for request latencies (paper
//! Fig. 8 is a latency CDF) and [`Welford`] for cheap mean/variance of
//! throughput series.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Number of linear sub-buckets per power-of-two bucket. 32 sub-buckets
/// bound the relative quantile error to ~3%.
const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = 5; // log2(SUB_BUCKETS)

/// A log-bucketed histogram of `u64` values (HdrHistogram-style).
///
/// Records values with bounded relative error and answers quantile and
/// CDF queries. Suited to latencies spanning nanoseconds to seconds.
///
/// The bucket space is fixed: 64 exponent rows of 32 linear sub-buckets.
/// Storage is range-sized: only the rows up to the highest recorded
/// bucket are held, and a value past the end grows the vector by whole
/// rows. A latency histogram therefore holds a few hundred buckets, not
/// all 2,048; one that never records holds none. Copies, merges,
/// differences and queries walk only the stored range.
///
/// # Example
///
/// ```
/// use simkit::stats::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.quantile(0.5);
/// assert!((450..=550).contains(&p50), "median {p50}");
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram. It allocates nothing until the first
    /// recording: bucket storage grows by whole rows of `SUB_BUCKETS`
    /// up to the highest bucket recorded.
    pub fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros();
        let shift = exp - SUB_BITS;
        let sub = (value >> shift) as usize & (SUB_BUCKETS - 1);
        ((exp - SUB_BITS + 1) as usize) * SUB_BUCKETS + sub
    }

    fn value_of(index: usize) -> u64 {
        let bucket = index / SUB_BUCKETS;
        let sub = (index % SUB_BUCKETS) as u64;
        if bucket == 0 {
            return sub;
        }
        // `bucket` ≤ 63 (64 exponent buckets), so the conversion holds.
        let shift = u32::try_from(bucket - 1).unwrap_or(u32::MAX);
        // Upper edge of the sub-bucket (conservative for quantiles). The
        // top sub-bucket's edge is 2^64 − 1: its shift wraps to zero.
        ((SUB_BUCKETS as u64 + sub + 1) << shift).wrapping_sub(1)
    }

    /// Stored length covering bucket `index`: whole rows, so a stream
    /// of rising values reallocates once per row at most.
    fn rows_to(index: usize) -> usize {
        (index / SUB_BUCKETS + 1) * SUB_BUCKETS
    }

    /// The slow path of [`Histogram::record_n`]: `index` lies past the
    /// stored rows.
    #[cold]
    fn grow_and_add(&mut self, index: usize, n: u64) {
        self.counts.resize(Self::rows_to(index), 0);
        self.counts[index] = n;
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical observations.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = Self::index_of(value);
        match self.counts.get_mut(idx) {
            Some(c) => *c += n,
            None => self.grow_and_add(idx, n),
        }
        self.total += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether the histogram is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in `[0, 1]` (upper bucket edge, so the answer
    /// is ≥ the true quantile by at most ~3%).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return 0;
        }
        let rank = crate::units::f64_to_u64_saturating((q * self.total as f64).ceil())
            .clamp(1, self.total);
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value_of(i).min(self.max);
            }
        }
        self.max
    }

    /// Extracts the empirical CDF as `(value, cumulative_fraction)` points,
    /// one per non-empty bucket. This is what the Fig. 8 harness plots.
    pub fn cdf(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        if self.total == 0 {
            return out;
        }
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            if *c == 0 {
                continue;
            }
            seen += c;
            out.push((
                Self::value_of(i).min(self.max),
                seen as f64 / self.total as f64,
            ));
        }
        out
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Bucket-wise difference `self − earlier` (saturating), for diffing
    /// two snapshots of the same cumulative histogram. `earlier` must be a
    /// prefix of `self`'s recordings for the result to be meaningful.
    ///
    /// `min`/`max` of the difference are reconstructed from the surviving
    /// bucket edges, so they carry the same ~3% relative error as
    /// quantiles rather than being exact.
    pub fn subtract(&self, earlier: &Histogram) -> Histogram {
        self.span_since(earlier).to_histogram()
    }

    /// [`Histogram::subtract`] in compact form: only the buckets from the
    /// lowest to the highest non-empty one of `self − earlier`.
    pub(crate) fn span_since(&self, earlier: &Histogram) -> BucketSpan {
        let diff = |i: usize| {
            let before = earlier.counts.get(i).copied().unwrap_or(0);
            self.counts[i].saturating_sub(before)
        };
        let sum = self.sum.saturating_sub(earlier.sum);
        let Some(hi) = (0..self.counts.len()).rev().find(|&i| diff(i) > 0) else {
            return BucketSpan::empty(sum);
        };
        let lo = (0..hi).find(|&i| diff(i) > 0).unwrap_or(hi);
        let counts: Box<[u64]> = (lo..=hi).map(diff).collect();
        let mut span = BucketSpan {
            lo,
            total: counts.iter().sum(),
            counts,
            sum,
            min: u64::MAX,
            max: 0,
        };
        for (i, &c) in (lo..).zip(span.counts.iter()) {
            if c > 0 {
                let edge = Self::value_of(i).min(self.max);
                span.min = span.min.min(edge);
                span.max = span.max.max(edge);
            }
        }
        span
    }

    /// All of `self` in compact form, exact `min`/`max` included.
    pub(crate) fn span(&self) -> BucketSpan {
        let Some(hi) = self.counts.iter().rposition(|&c| c > 0) else {
            return BucketSpan::empty(self.sum);
        };
        let lo = self.counts.iter().position(|&c| c > 0).unwrap_or(hi);
        BucketSpan {
            lo,
            counts: self.counts[lo..=hi].into(),
            total: self.total,
            sum: self.sum,
            min: self.min,
            max: self.max,
        }
    }
}

/// A histogram stored from its lowest non-empty bucket to its highest:
/// what a [`Recorder`](crate::obs::Recorder) window keeps of each timer's
/// delta. A 1 µs latency distribution spans tens of buckets where its
/// range-sized [`Histogram`] stores every bucket from zero up, so
/// [`Histogram::record`] keeps its direct index and only retained
/// windows pay the offset.
#[derive(Debug, Clone)]
pub(crate) struct BucketSpan {
    lo: usize,
    counts: Box<[u64]>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl BucketSpan {
    fn empty(sum: u128) -> Self {
        BucketSpan {
            lo: 0,
            counts: Box::default(),
            total: 0,
            sum,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Whether the span holds no observation.
    pub(crate) fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The range-sized histogram this span stands for.
    pub(crate) fn to_histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        h.sum = self.sum;
        if self.counts.is_empty() {
            return h;
        }
        let hi = self.lo + self.counts.len() - 1;
        h.counts = vec![0; Histogram::rows_to(hi)];
        h.counts[self.lo..=hi].copy_from_slice(&self.counts);
        h.total = self.total;
        h.min = self.min;
        h.max = self.max;
        h
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50={} p90={} p99={} max={}",
            self.total,
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.9),
            self.quantile(0.99),
            self.max
        )
    }
}

/// Online mean/variance accumulator (Welford's algorithm).
///
/// # Example
///
/// ```
/// use simkit::stats::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.add(x);
/// }
/// assert!((w.mean() - 5.0).abs() < 1e-12);
/// assert!((w.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Default, Clone, Copy, Serialize, Deserialize)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 with fewer than one observation).
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample standard deviation (0 with fewer than two observations).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0);
        assert!(h.cdf().is_empty());
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_BUCKETS as u64 - 1);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn quantile_bounded_relative_error() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for &(q, expect) in &[(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.05, "q={q} got={got} expect={expect} rel={rel}");
        }
    }

    #[test]
    fn cdf_is_monotone_and_complete() {
        let mut h = Histogram::new();
        for v in [10u64, 100, 1_000, 10_000, 100_000] {
            h.record_n(v, 20);
        }
        let cdf = h.cdf();
        assert!(!cdf.is_empty());
        let mut prev = 0.0;
        for &(_, f) in &cdf {
            assert!(f >= prev);
            prev = f;
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_n(100, 5);
        b.record_n(1_000_000, 7);
        a.merge(&b);
        assert_eq!(a.count(), 12);
        assert_eq!(a.min(), 100);
        assert!(a.max() >= 1_000_000);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.record_n(42, 9);
        let before = (a.count(), a.min(), a.max(), a.mean());
        a.merge(&Histogram::new());
        assert_eq!((a.count(), a.min(), a.max(), a.mean()), before);

        let mut empty = Histogram::new();
        empty.merge(&a);
        assert_eq!(empty.count(), 9);
        assert_eq!(empty.min(), 42);
    }

    #[test]
    fn merged_quantile_extremes() {
        // p0 / p100 after merging disjoint ranges land on the global
        // extremes (within bucket resolution), not on either input's.
        let mut low = Histogram::new();
        let mut high = Histogram::new();
        for v in 1..=100u64 {
            low.record(v);
        }
        for v in 900_000..=1_000_000u64 {
            high.record(v);
        }
        low.merge(&high);
        assert_eq!(low.quantile(0.0), 1);
        let p100 = low.quantile(1.0);
        assert!(p100 >= 1_000_000 - 1_000_000 / 20, "p100 {p100}");
        assert!(p100 <= low.max());
    }

    #[test]
    fn empty_histogram_quantile_edges() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn single_value_quantiles_collapse() {
        let mut h = Histogram::new();
        h.record(17);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 17, "q={q}");
        }
    }

    #[test]
    fn subtract_recovers_interval_recordings() {
        let mut earlier = Histogram::new();
        earlier.record_n(10, 3);
        let mut later = earlier.clone();
        later.record_n(10, 2);
        later.record_n(5_000, 4);
        let d = later.subtract(&earlier);
        assert_eq!(d.count(), 6);
        assert_eq!(d.min(), 10);
        assert!((d.mean() - (2.0 * 10.0 + 4.0 * 5_000.0) / 6.0).abs() < 1e-9);
        // Subtracting everything yields an empty histogram.
        let none = later.subtract(&later);
        assert!(none.is_empty());
        assert_eq!(none.quantile(1.0), 0);
    }

    #[test]
    fn storage_is_range_sized() {
        let mut h = Histogram::new();
        assert_eq!(h.counts.capacity(), 0, "nothing allocated until a record");
        h.record(17);
        assert_eq!(h.counts.len(), SUB_BUCKETS);
        let rows_for = |v: u64| Histogram::rows_to(Histogram::index_of(v));
        h.record(1_000);
        assert_eq!(h.counts.len(), rows_for(1_000));
        h.record(5);
        assert_eq!(h.counts.len(), rows_for(1_000));
        h.record(u64::MAX);
        assert_eq!(h.counts.len(), rows_for(u64::MAX));
        assert!(h.counts.len() <= 64 * SUB_BUCKETS);
        // A difference holds only the rows up to its own top bucket.
        let mut later = h.clone();
        later.record(20);
        let d = later.subtract(&h);
        assert_eq!((d.count(), d.counts.len()), (1, SUB_BUCKETS));
        assert_eq!(later.subtract(&later).counts.capacity(), 0);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record_n(10, 3);
        h.record_n(40, 1);
        assert!((h.mean() - 17.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_extremes() {
        let mut h = Histogram::new();
        h.record(5);
        h.record(500_000);
        assert_eq!(h.quantile(0.0), 5);
        assert!(h.quantile(1.0) >= 500_000 - 500_000 / 20);
    }

    #[test]
    fn top_bucket_edge_is_u64_max() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(1);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.cdf().last(), Some(&(u64::MAX, 1.0)));
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn bad_quantile_panics() {
        Histogram::new().quantile(1.5);
    }

    #[test]
    fn welford_counts() {
        let mut w = Welford::new();
        assert_eq!(w.count(), 0);
        w.add(1.0);
        assert_eq!(w.count(), 1);
        assert_eq!(w.stddev(), 0.0);
    }
}
