//! Property tests: histogram and event-queue invariants.

use proptest::prelude::*;
use simkit::event::EventQueue;
use simkit::stats::Histogram;
use simkit::time::SimTime;

/// Checks that `got` answers every query exactly as `want` does: count,
/// min, max, mean, 11 quantiles and the CDF.
fn same_answers(got: &Histogram, want: &Histogram) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.count(), want.count());
    prop_assert_eq!(got.min(), want.min());
    prop_assert_eq!(got.max(), want.max());
    prop_assert_eq!(got.mean().to_bits(), want.mean().to_bits());
    for i in 0..=10 {
        let q = f64::from(i) / 10.0;
        prop_assert_eq!(got.quantile(q), want.quantile(q), "q={}", q);
    }
    prop_assert_eq!(got.cdf(), want.cdf());
    Ok(())
}

/// Values in the first bucket rows, with the row edges 0, 31 and 32.
fn low() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(31u64), Just(32u64), 0u64..2_048]
}

/// Values anywhere in the bucket space, with `u64::MAX`.
fn high() -> impl Strategy<Value = u64> {
    prop_oneof![Just(u64::MAX), (1u64 << 40)..u64::MAX, any::<u64>()]
}

fn recorded(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quantiles are monotone in q and bracketed by min/max.
    #[test]
    fn quantiles_are_monotone(values in prop::collection::vec(0u64..1_000_000_000, 1..300)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut prev = 0;
        for i in 0..=20 {
            let q = h.quantile(i as f64 / 20.0);
            prop_assert!(q >= prev, "quantile regressed at {i}");
            prev = q;
        }
        prop_assert!(h.quantile(0.0) >= h.min() || h.quantile(0.0) <= h.max());
        prop_assert!(h.quantile(1.0) >= h.max() - h.max() / 16);
    }

    /// Any quantile has bounded relative error against the exact
    /// order statistic.
    #[test]
    fn quantile_error_is_bounded(
        mut values in prop::collection::vec(1u64..100_000_000, 10..300),
        q in 0.05f64..0.95,
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let exact = values[rank - 1] as f64;
        let got = h.quantile(q) as f64;
        prop_assert!(
            (got - exact).abs() <= exact * 0.04 + 1.0,
            "q={q}: got {got}, exact {exact}"
        );
    }

    /// Merging histograms equals recording the concatenation.
    #[test]
    fn merge_equals_concat(
        a in prop::collection::vec(0u64..1_000_000, 1..100),
        b in prop::collection::vec(0u64..1_000_000, 1..100),
    ) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hc = Histogram::new();
        for &v in &a {
            ha.record(v);
            hc.record(v);
        }
        for &v in &b {
            hb.record(v);
            hc.record(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hc.count());
        prop_assert_eq!(ha.min(), hc.min());
        prop_assert_eq!(ha.max(), hc.max());
        for i in 0..=10 {
            prop_assert_eq!(ha.quantile(i as f64 / 10.0), hc.quantile(i as f64 / 10.0));
        }
    }

    /// Merging histograms whose stored ranges differ widely equals one
    /// histogram that recorded both streams, whichever side is merged
    /// into the other (the receiver is the shorter one, or the longer).
    #[test]
    fn merge_across_distant_ranges_equals_recording_both(
        lows in prop::collection::vec(low(), 0..60),
        highs in prop::collection::vec(high(), 0..60),
    ) {
        let both: Vec<u64> = lows.iter().chain(&highs).copied().collect();
        let want = recorded(&both);
        let mut up = recorded(&lows);
        up.merge(&recorded(&highs));
        same_answers(&up, &want)?;
        let mut down = recorded(&highs);
        down.merge(&recorded(&lows));
        same_answers(&down, &want)?;
    }

    /// Subtracting an earlier snapshot whose top bucket lies below the
    /// later one's recovers exactly the recordings in between.
    #[test]
    fn subtract_below_later_top_recovers_the_interval(
        prefix in prop::collection::vec(low(), 0..60),
        interval in prop::collection::vec(prop_oneof![low(), high()], 0..60),
    ) {
        let earlier = recorded(&prefix);
        let mut later = earlier.clone();
        for &v in &interval {
            later.record(v);
        }
        let d = later.subtract(&earlier);
        prop_assert_eq!(d.count(), interval.len() as u64);
        let want = recorded(&interval);
        prop_assert_eq!(d.mean().to_bits(), want.mean().to_bits());
        prop_assert!(d.max() <= later.max());
    }

    /// Subtracting a histogram whose top bucket lies above the later
    /// one's saturates the buckets only it holds and never panics: the
    /// count is what the later one holds alone, the sum saturates.
    #[test]
    fn subtract_above_later_top_saturates(
        shared in prop::collection::vec(low(), 0..60),
        only_later in prop::collection::vec(low(), 0..60),
        only_earlier in prop::collection::vec((1u64 << 40)..=u64::MAX, 1..60),
    ) {
        let earlier = recorded(&shared.iter().chain(&only_earlier).copied().collect::<Vec<_>>());
        let later = recorded(&shared.iter().chain(&only_later).copied().collect::<Vec<_>>());
        let d = later.subtract(&earlier);
        prop_assert_eq!(d.count(), only_later.len() as u64);
        // The earlier sum exceeds the later one, so the difference's
        // sum saturates to zero and so does its mean.
        prop_assert_eq!(d.mean(), 0.0);
        let _ = (d.quantile(0.5), d.quantile(1.0), d.cdf(), d.min(), d.max());
        // The reverse difference holds exactly the earlier-only values.
        let r = earlier.subtract(&later);
        prop_assert_eq!(r.count(), only_earlier.len() as u64);
        let want: u128 = only_earlier.iter().map(|&v| u128::from(v)).sum::<u128>()
            - only_later.iter().map(|&v| u128::from(v)).sum::<u128>();
        prop_assert_eq!(r.mean().to_bits(), (want as f64 / r.count() as f64).to_bits());
    }

    /// The event queue delivers in non-decreasing time order with FIFO
    /// tie-breaking, for arbitrary schedules.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ns(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(idx > lidx, "FIFO violated within a tie");
                }
            }
            last = Some((t, idx));
        }
    }
}
