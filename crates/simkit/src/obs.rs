//! Continuous observation on top of [`telemetry`](crate::telemetry): a
//! [`Recorder`] that folds registry snapshots taken on a sim-time
//! cadence into a bounded ring of windowed deltas, plus a
//! Prometheus-style text exposition exporter.
//!
//! The recorder is *pull-based and passive*: the simulation loop asks
//! [`Recorder::due`] whether the cadence has elapsed and, when it has,
//! hands over a [`Snapshot`]. Recording
//! never schedules events, reads wall clocks, or touches simulation
//! state, so an instrumented run keeps the exact trajectory of an
//! uninstrumented one — the same determinism contract the registry
//! itself makes.
//!
//! Each accepted snapshot closes a **window**: the ring keeps only the
//! delta against the previous window (counters and timers subtract,
//! gauges keep the newer reading), which is what rate queries
//! ([`Recorder::rate`]) and windowed histograms
//! ([`Recorder::window_timer`]) are answered from. A window is flat like
//! a snapshot: the snapshot's shared schema, a counter-delta column, a
//! gauge column, and only the timers that recorded in the window, each
//! stored from its lowest non-empty bucket to its highest. The recorder
//! holds one cumulative snapshot, the latest accepted, to diff the next
//! one against. The ring is bounded: once `capacity` windows are held,
//! the oldest falls off.
//!
//! # Example
//!
//! ```
//! use simkit::obs::Recorder;
//! use simkit::telemetry::Registry;
//! use simkit::time::SimTime;
//!
//! # fn main() -> Result<(), simkit::telemetry::TelemetryError> {
//! let mut reg = Registry::new(true);
//! let frames = reg.counter("link.frames")?;
//! let mut rec = Recorder::new(SimTime::from_us(1), 8);
//!
//! // ... simulation runs; in its loop:
//! reg.add(frames, 500);
//! let now = SimTime::from_us(1);
//! if rec.due(now) {
//!     rec.record(reg.snapshot(now));
//! }
//! assert_eq!(rec.rate("link.frames"), Some(500e6)); // per second
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::stats::{BucketSpan, Histogram};
use crate::telemetry::{Align, MetricRef, Schema, Slot, Snapshot};
use crate::time::SimTime;

/// One closed observation window in a [`Recorder`]'s ring: the change
/// over the window, counters and timers subtracted against the previous
/// cumulative snapshot, gauges as read at `end`.
#[derive(Debug, Clone)]
pub struct Window {
    /// Where the window opened (the previous window's close, or
    /// [`SimTime::ZERO`] for the first).
    pub start: SimTime,
    /// Where the window closed (the accepted snapshot's timestamp).
    pub end: SimTime,
    schema: Arc<Schema>,
    counters: Box<[u64]>,
    gauges: Box<[u64]>,
    /// Timers that recorded in the window, by timer column.
    timers: Box<[(usize, BucketSpan)]>,
}

impl Window {
    /// The window from `start` to `snap.at`: `snap` less `prev`, the
    /// cumulative snapshot that closed the previous window (none for
    /// the first).
    fn between(start: SimTime, prev: Option<&Snapshot>, snap: &Snapshot) -> Window {
        let align = prev.map(|p| (p, Align::new(snap.schema(), p.schema())));
        let counters = match &align {
            Some((p, a)) => snap.counter_deltas(p, a).collect(),
            None => snap.counter_column().into(),
        };
        let timers = snap
            .timer_column()
            .iter()
            .enumerate()
            .map(|(t, now)| {
                let then = align
                    .as_ref()
                    .and_then(|(p, a)| Some(&p.timer_column()[a.timer(t)?]));
                (
                    t,
                    then.map_or_else(|| now.span(), |then| now.span_since(then)),
                )
            })
            .filter(|(_, span)| !span.is_empty())
            .collect();
        Window {
            start,
            end: snap.at,
            schema: Arc::clone(snap.schema()),
            counters,
            gauges: snap.gauge_column().into(),
            timers,
        }
    }

    /// Window length.
    pub fn span(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }

    /// The counter delta over the window at `path`, if a counter is
    /// registered there.
    pub fn counter(&self, path: &str) -> Option<u64> {
        match self.schema.slot(path)? {
            Slot::Counter(i) => Some(self.counters[i]),
            _ => None,
        }
    }

    /// The gauge level at the window's close at `path`, if a gauge is
    /// registered there.
    pub fn gauge(&self, path: &str) -> Option<u64> {
        match self.schema.slot(path)? {
            Slot::Gauge(i) => Some(self.gauges[i]),
            _ => None,
        }
    }

    /// The durations recorded within the window by the timer at `path`,
    /// if a timer is registered there.
    pub fn timer(&self, path: &str) -> Option<Histogram> {
        let Slot::Timer(t) = self.schema.slot(path)? else {
            return None;
        };
        let recorded = self.timers.binary_search_by_key(&t, |(col, _)| *col);
        Some(recorded.map_or_else(|_| Histogram::new(), |i| self.timers[i].1.to_histogram()))
    }
}

/// Folds cadence-driven registry snapshots into a bounded ring of
/// windowed deltas (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct Recorder {
    period: SimTime,
    capacity: usize,
    next_due: SimTime,
    last_cumulative: Option<Snapshot>,
    last_end: SimTime,
    windows: VecDeque<Window>,
    accepted: u64,
}

impl Recorder {
    /// A recorder sampling every `period` of simulated time, holding at
    /// most `capacity` closed windows (at least one is always kept). A
    /// zero `period` has no cadence: every poll is due.
    pub fn new(period: SimTime, capacity: usize) -> Self {
        Recorder {
            period,
            capacity: capacity.max(1),
            next_due: period,
            last_cumulative: None,
            last_end: SimTime::ZERO,
            windows: VecDeque::new(),
            accepted: 0,
        }
    }

    /// The sampling cadence.
    pub fn period(&self) -> SimTime {
        self.period
    }

    /// Whether the cadence has elapsed and the caller should hand over a
    /// fresh snapshot via [`Recorder::record`].
    pub fn due(&self, now: SimTime) -> bool {
        now >= self.next_due
    }

    /// Closes a window with `snap` and advances the cadence. Accepts
    /// out-of-cadence snapshots too (e.g. one final snapshot at the end
    /// of a run) as long as time moved forward; stale snapshots (at or
    /// before the last accepted one) are ignored so replayed polls can
    /// never fork the ring.
    pub fn record(&mut self, snap: Snapshot) {
        if self.accepted > 0 && snap.at <= self.last_end {
            return;
        }
        let window = Window::between(self.last_end, self.last_cumulative.as_ref(), &snap);
        self.last_end = snap.at;
        self.last_cumulative = Some(snap);
        // Evict before pushing, so the ring's buffer never grows past
        // `capacity` windows.
        if self.windows.len() == self.capacity {
            self.windows.pop_front();
        }
        self.windows.push_back(window);
        self.accepted += 1;
        // Re-align the cadence past the accepted timestamp so a late
        // snapshot doesn't trigger an immediate catch-up burst. A zero
        // period leaves `next_due` at zero: every poll stays due.
        while !self.period.is_zero() && self.next_due <= self.last_end {
            self.next_due = self.next_due + self.period;
        }
    }

    /// Closed windows, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &Window> {
        self.windows.iter()
    }

    /// The most recently closed window.
    pub fn latest(&self) -> Option<&Window> {
        self.windows.back()
    }

    /// Total snapshots accepted over the recorder's lifetime (ring
    /// evictions included).
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Counter rate over the latest window, in events per simulated
    /// second, from the windowed delta. `None` when no window is closed,
    /// the path is not a counter, or the window has zero span.
    ///
    /// Answered purely from the ring: the latest *closed* window is the
    /// freshest data the recorder can have, and [`Recorder::record`]
    /// already refuses snapshots that would rewind it, so there is no
    /// staleness decision left for a caller-supplied clock to make.
    pub fn rate(&self, path: &str) -> Option<f64> {
        let w = self.latest()?;
        let span_ns = w.span().as_ns();
        if span_ns == 0 {
            return None;
        }
        let delta = w.counter(path)?;
        Some(delta as f64 * 1e9 / span_ns as f64)
    }

    /// Per-window counter deltas for `path`, oldest first — the discrete
    /// derivative of the counter over the ring.
    pub fn deltas(&self, path: &str) -> Vec<(SimTime, u64)> {
        self.windows
            .iter()
            .filter_map(|w| w.counter(path).map(|d| (w.end, d)))
            .collect()
    }

    /// The latest window's timer histogram for `path` — only the
    /// durations recorded *within* that window.
    pub fn window_timer(&self, path: &str) -> Option<Histogram> {
        self.latest()?.timer(path)
    }
}

/// One named segment of a [`PhaseClock`]'s ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// The phase's name (e.g. `"steady"`, `"peak"`).
    pub name: String,
    /// Where the phase opens on the scenario clock (inclusive).
    pub start: SimTime,
    /// Where the phase closes (exclusive; the next phase's start).
    pub end: SimTime,
}

impl Phase {
    /// Phase length.
    pub fn span(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }
}

/// A scenario's phase ladder on the simulated clock: an ordered list
/// of named segments (steady → peak → recovery, a diurnal cycle, a
/// chaos ladder) laid end to end from [`SimTime::ZERO`].
///
/// Like the [`Recorder`], the clock is passive: it never schedules
/// events, it only answers *which phase an instant belongs to*, so a
/// scenario driver can segment one continuous simulation into
/// windows-per-phase without perturbing the trajectory. Phases are
/// half-open `[start, end)`; instants at or past the ladder's total
/// belong to no phase (the scenario is over).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseClock {
    phases: Vec<Phase>,
}

impl PhaseClock {
    /// Lays the `(name, duration)` segments end to end from zero.
    /// Zero-duration segments are dropped (they could never own an
    /// instant).
    pub fn new<I, S>(segments: I) -> Self
    where
        I: IntoIterator<Item = (S, SimTime)>,
        S: Into<String>,
    {
        let mut phases = Vec::new();
        let mut cursor = SimTime::ZERO;
        for (name, duration) in segments {
            if duration.is_zero() {
                continue;
            }
            let start = cursor;
            cursor = cursor + duration;
            phases.push(Phase {
                name: name.into(),
                start,
                end: cursor,
            });
        }
        PhaseClock { phases }
    }

    /// The ladder's segments, in order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Number of phases.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// Whether the ladder is empty.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Total ladder length (the last phase's end).
    pub fn total(&self) -> SimTime {
        self.phases.last().map(|p| p.end).unwrap_or(SimTime::ZERO)
    }

    /// The phase owning instant `now`, with its index — `None` once the
    /// ladder is over (or before it exists).
    pub fn phase_at(&self, now: SimTime) -> Option<(usize, &Phase)> {
        self.phases
            .iter()
            .enumerate()
            .find(|(_, p)| p.start <= now && now < p.end)
    }
}

/// Renders a snapshot in the Prometheus text exposition format
/// (version 0.0.4): dotted paths become underscore-separated metric
/// names, counters and gauges export their value, timers export a
/// `summary` (quantile samples plus `_sum`/`_count`).
pub fn prometheus_exposition(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (path, metric) in snap.entries() {
        let name = metric_name(path);
        match metric {
            MetricRef::Counter(n) => {
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name} {n}");
            }
            MetricRef::Gauge(n) => {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {n}");
            }
            MetricRef::Timer(h) => {
                let _ = writeln!(out, "# TYPE {name} summary");
                for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")] {
                    // An empty summary has no quantiles; Prometheus
                    // renders that as NaN, never as a fake 0 that a
                    // dashboard would read as "instant".
                    if h.is_empty() {
                        let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} NaN");
                    } else {
                        let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", h.quantile(q));
                    }
                }
                // The histogram is log-bucketed; the sum is reconstructed
                // from the mean, which is tracked exactly.
                let sum = h.mean() * h.count() as f64;
                let _ = writeln!(out, "{name}_sum {sum}");
                let _ = writeln!(out, "{name}_count {}", h.count());
            }
        }
    }
    out
}

/// A dotted telemetry path as a Prometheus metric name: every character
/// outside `[a-zA-Z0-9_]` becomes `_`, and a leading digit gets a `_`
/// prefix.
fn metric_name(path: &str) -> String {
    let mut name = String::with_capacity(path.len() + 1);
    for (i, c) in path.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' {
            if i == 0 && c.is_ascii_digit() {
                name.push('_');
            }
            name.push(c);
        } else {
            name.push('_');
        }
    }
    name
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Registry;

    fn registry() -> (Registry, crate::telemetry::CounterId) {
        let mut reg = Registry::new(true);
        let c = reg.counter("link.frames").unwrap();
        (reg, c)
    }

    #[test]
    fn cadence_pulls_and_windows_close_in_order() {
        let (mut reg, c) = registry();
        let mut rec = Recorder::new(SimTime::from_us(1), 4);
        assert!(!rec.due(SimTime::from_ns(999)));
        for k in 1..=3u64 {
            reg.add(c, 10 * k);
            let now = SimTime::from_us(k);
            assert!(rec.due(now));
            rec.record(reg.snapshot(now));
            assert!(!rec.due(now));
        }
        let deltas: Vec<u64> = rec.deltas("link.frames").iter().map(|(_, d)| *d).collect();
        assert_eq!(deltas, vec![10, 20, 30]);
    }

    #[test]
    fn ring_is_bounded_and_rate_uses_latest_window() {
        let (mut reg, c) = registry();
        let mut rec = Recorder::new(SimTime::from_us(1), 2);
        for k in 1..=5u64 {
            reg.add(c, 100);
            rec.record(reg.snapshot(SimTime::from_us(k)));
        }
        assert_eq!(rec.windows().count(), 2);
        assert_eq!(rec.accepted(), 5);
        // 100 frames over a 1 µs window = 1e8 per second.
        assert_eq!(rec.rate("link.frames"), Some(1e8));
    }

    #[test]
    fn stale_snapshots_are_ignored() {
        let (mut reg, c) = registry();
        let mut rec = Recorder::new(SimTime::from_us(1), 4);
        reg.add(c, 5);
        rec.record(reg.snapshot(SimTime::from_us(1)));
        reg.add(c, 5);
        rec.record(reg.snapshot(SimTime::from_us(1))); // same instant: dropped
        assert_eq!(rec.windows().count(), 1);
        assert_eq!(rec.accepted(), 1);
    }

    #[test]
    fn late_snapshot_realigns_cadence_without_burst() {
        let (reg, _) = registry();
        let mut rec = Recorder::new(SimTime::from_us(1), 4);
        // Poll arrives late, at 3.5 µs; next due must be 4 µs, not 2 µs.
        rec.record(reg.snapshot(SimTime::from_ns(3_500)));
        assert!(!rec.due(SimTime::from_ns(3_900)));
        assert!(rec.due(SimTime::from_us(4)));
    }

    #[test]
    fn zero_period_makes_every_poll_due() {
        let (mut reg, c) = registry();
        let mut rec = Recorder::new(SimTime::ZERO, 4);
        assert!(rec.due(SimTime::ZERO));
        for k in 1..=3u64 {
            reg.add(c, k);
            rec.record(reg.snapshot(SimTime::from_ns(k)));
            assert!(rec.due(SimTime::from_ns(k)));
        }
        reg.add(c, 100);
        rec.record(reg.snapshot(SimTime::from_ns(3))); // stale: ignored
        assert_eq!(rec.accepted(), 3);
        let deltas: Vec<u64> = rec.deltas("link.frames").iter().map(|(_, d)| *d).collect();
        assert_eq!(deltas, vec![1, 2, 3]);
    }

    #[test]
    fn window_timer_holds_only_the_windows_samples() {
        let mut reg = Registry::new(true);
        let t = reg.timer("rtt").unwrap();
        let mut rec = Recorder::new(SimTime::from_us(1), 4);
        reg.record_ns(t, 100);
        rec.record(reg.snapshot(SimTime::from_us(1)));
        reg.record_ns(t, 900);
        rec.record(reg.snapshot(SimTime::from_us(2)));
        let h = rec.window_timer("rtt").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 900);
    }

    #[test]
    fn prometheus_exposition_renders_all_kinds() {
        let mut reg = Registry::new(true);
        let c = reg.counter("fabric.link0.fwd.frames").unwrap();
        let g = reg.gauge("fabric.link0.up.credits").unwrap();
        let t = reg.timer("fabric.path0.rtt_ns").unwrap();
        reg.add(c, 42);
        reg.set_gauge(g, 7);
        reg.record_ns(t, 950);
        let text = prometheus_exposition(&reg.snapshot(SimTime::from_us(1)));
        assert!(text.contains("# TYPE fabric_link0_fwd_frames counter"));
        assert!(text.contains("fabric_link0_fwd_frames 42"));
        assert!(text.contains("# TYPE fabric_link0_up_credits gauge"));
        assert!(text.contains("fabric_link0_up_credits 7"));
        assert!(text.contains("# TYPE fabric_path0_rtt_ns summary"));
        assert!(text.contains("fabric_path0_rtt_ns{quantile=\"0.99\"} 950"));
        assert!(text.contains("fabric_path0_rtt_ns_count 1"));
    }

    #[test]
    fn phase_clock_segments_the_ladder_half_open() {
        let clock = PhaseClock::new([
            ("steady", SimTime::from_us(100)),
            ("idle", SimTime::ZERO), // dropped
            ("peak", SimTime::from_us(200)),
            ("recovery", SimTime::from_us(100)),
        ]);
        assert_eq!(clock.len(), 3);
        assert_eq!(clock.total(), SimTime::from_us(400));
        let (i, p) = clock.phase_at(SimTime::ZERO).unwrap();
        assert_eq!((i, p.name.as_str()), (0, "steady"));
        // Boundaries belong to the opening phase.
        let (i, p) = clock.phase_at(SimTime::from_us(100)).unwrap();
        assert_eq!((i, p.name.as_str()), (1, "peak"));
        assert_eq!(p.span(), SimTime::from_us(200));
        let (i, _) = clock.phase_at(SimTime::from_ns(399_999)).unwrap();
        assert_eq!(i, 2);
        // The ladder's end belongs to no phase.
        assert!(clock.phase_at(SimTime::from_us(400)).is_none());
        assert!(PhaseClock::new(Vec::<(String, SimTime)>::new()).is_empty());
    }

    #[test]
    fn empty_summary_renders_nan_quantiles_not_zero() {
        let mut reg = Registry::new(true);
        let _t = reg.timer("idle.path.rtt_ns").unwrap();
        let text = prometheus_exposition(&reg.snapshot(SimTime::from_us(1)));
        assert!(text.contains("# TYPE idle_path_rtt_ns summary"));
        assert!(text.contains("idle_path_rtt_ns{quantile=\"0.99\"} NaN"));
        assert!(text.contains("idle_path_rtt_ns_count 0"));
        assert!(
            !text.contains("idle_path_rtt_ns{quantile=\"0.99\"} 0"),
            "an idle summary must not report a 0 ns quantile:\n{text}"
        );
    }

    #[test]
    fn metric_names_sanitize_and_never_start_with_a_digit() {
        assert_eq!(metric_name("fabric.link-0.frames"), "fabric_link_0_frames");
        assert_eq!(metric_name("9lives"), "_9lives");
    }
}
