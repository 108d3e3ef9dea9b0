//! Order statistics the benchmark reports: medians, nearest-rank
//! percentiles, the tail-percentile rule and paired tracing overhead.
//!
//! Percentiles are given in hundredths of a percent (`9_990` is p99.9)
//! so that ranks are computed in integers and never round the wrong way.

/// The percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [u64; 8] = [5_000, 9_000, 9_500, 9_900, 9_950, 9_990, 9_995, 9_999];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// The nearest rank (1-based) of percentile `p` among `n` samples.
pub fn rank(n: usize, p: u64) -> usize {
    let n = n as u64;
    (p.min(10_000) * n).div_ceil(10_000).max(1) as usize
}

/// The nearest-rank percentile `p` of unsorted `values`; 0 for an empty
/// slice.
pub fn percentile(values: &[f64], p: u64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// The median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The highest percentile of the ladder that still leaves at least
/// [`TAIL_BEYOND`] of `n` samples beyond its nearest rank, or `None`
/// when even the median leaves fewer.
pub fn tail_percentile(n: usize) -> Option<u64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n >= TAIL_BEYOND && n - rank(n, p) >= TAIL_BEYOND)
}

/// Tracing overhead from `(untraced, traced)` wall-time pairs of the
/// same work: the median of the per-pair `traced / untraced - 1`.
/// Pairing cancels drift in machine speed between the two sides.
pub fn overhead_frac(pairs: &[(f64, f64)]) -> f64 {
    let ratios: Vec<f64> = pairs
        .iter()
        .filter(|(plain, _)| *plain > 0.0)
        .map(|(plain, traced)| traced / plain - 1.0)
        .collect();
    median(&ratios)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 5_000), 50.0);
        assert_eq!(percentile(&v, 9_000), 90.0);
        assert_eq!(percentile(&v, 9_900), 99.0);
        assert_eq!(percentile(&v, 10_000), 100.0);
        assert_eq!(percentile(&v, 0), 1.0);
        assert_eq!(percentile(&[7.0], 9_000), 7.0);
        assert_eq!(percentile(&[], 5_000), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // Too few samples for any tail: the median of 19 leaves 9.
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(5), None);
        // 20 samples: 10 lie beyond the median, 2 beyond p90.
        assert_eq!(tail_percentile(20), Some(5_000));
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        assert_eq!(tail_percentile(100), Some(9_000));
        assert_eq!(tail_percentile(199), Some(9_000));
        assert_eq!(tail_percentile(200), Some(9_500));
        assert_eq!(tail_percentile(1_000), Some(9_900));
        assert_eq!(tail_percentile(10_000), Some(9_990));
        assert_eq!(tail_percentile(1_000_000), Some(9_999));
    }

    #[test]
    fn overhead_pairs_take_the_median_ratio() {
        // Ratios 1.1, 1.3, 1.2: median overhead 20%.
        let pairs = [(1.0, 1.1), (2.0, 2.6), (0.5, 0.6)];
        assert!((overhead_frac(&pairs) - 0.2).abs() < 1e-12);
        // A traced side faster than its partner reads as negative.
        assert!(overhead_frac(&[(1.0, 0.9)]) < 0.0);
        assert_eq!(overhead_frac(&[]), 0.0);
    }
}
