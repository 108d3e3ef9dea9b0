//! Workspace telemetry: a registry of counters, gauges and
//! [`Histogram`]-backed timers keyed by hierarchical dotted paths.
//!
//! Every simulator layer registers its metrics here (e.g.
//! `fabric.llc_tx.credit_stalls`, `fabric.link0.fwd.frames_sent`) and the
//! harnesses read them back as [`Snapshot`]s — an ordered map that can be
//! diffed against an earlier snapshot and exported through the vendored
//! `serde` [`Value`] tree / JSON.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** The registry is clocked by [`SimTime`], never wall
//!    clock, and recording a metric never schedules events or perturbs
//!    simulation state. Enabling telemetry must not change a run's
//!    trajectory — only observe it.
//! 2. **Near-zero cost when disabled.** Call sites hold pre-registered
//!    integer handles ([`CounterId`], [`GaugeId`], [`TimerId`]); every
//!    mutator is a single `enabled` branch followed by an indexed
//!    increment. When disabled the branch is the whole cost.
//! 3. **Stable export.** Paths sort lexicographically in snapshots so
//!    diffs and JSON output are reproducible across runs.
//!
//! # Example
//!
//! ```
//! use simkit::telemetry::{Metric, Registry, TelemetryError};
//! use simkit::time::SimTime;
//!
//! # fn main() -> Result<(), TelemetryError> {
//! let mut reg = Registry::new(true);
//! let sent = reg.counter("fabric.link0.frames_sent")?;
//! let rtt = reg.timer("fabric.path0.rtt_ns")?;
//! reg.inc(sent);
//! reg.record_ns(rtt, 950);
//! let snap = reg.snapshot(SimTime::from_ns(1_000));
//! assert_eq!(snap.counter("fabric.link0.frames_sent"), Some(1));
//! match snap.get("fabric.path0.rtt_ns") {
//!     Some(Metric::Timer(h)) => assert_eq!(h.count(), 1),
//!     other => panic!("expected timer, got {other:?}"),
//! }
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeMap;
use std::fmt;

use serde::{Serialize, Value};

use crate::stats::Histogram;
use crate::time::SimTime;

/// Handle to a monotonically increasing counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a gauge (a point-in-time level, set not accumulated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a [`Histogram`]-backed timer recording durations in
/// nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId(usize);

/// Which storage slot a registered path resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Counter(usize),
    Gauge(usize),
    Timer(usize),
}

impl Slot {
    fn kind(self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Timer(_) => "timer",
        }
    }
}

/// Typed registration failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetryError {
    /// The path is already registered as a different metric kind.
    KindMismatch {
        /// The colliding path.
        path: String,
        /// What the path is already registered as.
        registered: &'static str,
        /// What the caller asked for.
        requested: &'static str,
    },
}

impl fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryError::KindMismatch {
                path,
                registered,
                requested,
            } => write!(
                f,
                "telemetry path {path:?} already registered as {registered}, \
                 requested {requested}"
            ),
        }
    }
}

impl std::error::Error for TelemetryError {}

/// A metrics registry keyed by hierarchical dotted paths.
///
/// Registration is idempotent: registering the same path twice with the
/// same kind returns the same handle. Registering an existing path as a
/// *different* kind is refused with a typed
/// [`TelemetryError::KindMismatch`].
#[derive(Debug, Clone, Default)]
pub struct Registry {
    enabled: bool,
    index: BTreeMap<String, Slot>,
    counters: Vec<u64>,
    gauges: Vec<u64>,
    timers: Vec<Histogram>,
}

impl Registry {
    /// Creates a registry. Handles can be registered regardless of
    /// `enabled`; only recording is gated.
    pub fn new(enabled: bool) -> Self {
        Registry {
            enabled,
            ..Registry::default()
        }
    }

    /// Whether recording is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off. Already-accumulated values are kept.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn register(&mut self, path: &str, make: impl FnOnce(&mut Self) -> Slot) -> Slot {
        if let Some(&slot) = self.index.get(path) {
            return slot;
        }
        let slot = make(self);
        self.index.insert(path.to_string(), slot);
        slot
    }

    /// Registers (or looks up) a counter at `path`.
    ///
    /// # Errors
    ///
    /// Fails if `path` is already registered as a different kind.
    pub fn counter(&mut self, path: &str) -> Result<CounterId, TelemetryError> {
        let slot = self.register(path, |r| {
            r.counters.push(0);
            Slot::Counter(r.counters.len() - 1)
        });
        match slot {
            Slot::Counter(i) => Ok(CounterId(i)),
            other => Err(TelemetryError::KindMismatch {
                path: path.to_string(),
                registered: other.kind(),
                requested: "counter",
            }),
        }
    }

    /// Registers (or looks up) a gauge at `path`.
    ///
    /// # Errors
    ///
    /// Fails if `path` is already registered as a different kind.
    pub fn gauge(&mut self, path: &str) -> Result<GaugeId, TelemetryError> {
        let slot = self.register(path, |r| {
            r.gauges.push(0);
            Slot::Gauge(r.gauges.len() - 1)
        });
        match slot {
            Slot::Gauge(i) => Ok(GaugeId(i)),
            other => Err(TelemetryError::KindMismatch {
                path: path.to_string(),
                registered: other.kind(),
                requested: "gauge",
            }),
        }
    }

    /// Registers (or looks up) a timer at `path`. Timers record durations
    /// in nanoseconds into a [`Histogram`].
    ///
    /// # Errors
    ///
    /// Fails if `path` is already registered as a different kind.
    pub fn timer(&mut self, path: &str) -> Result<TimerId, TelemetryError> {
        let slot = self.register(path, |r| {
            r.timers.push(Histogram::new());
            Slot::Timer(r.timers.len() - 1)
        });
        match slot {
            Slot::Timer(i) => Ok(TimerId(i)),
            other => Err(TelemetryError::KindMismatch {
                path: path.to_string(),
                registered: other.kind(),
                requested: "timer",
            }),
        }
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Increments a counter by `n`.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        if self.enabled {
            self.counters[id.0] += n;
        }
    }

    /// Overwrites a counter with a cumulative `total` maintained
    /// elsewhere — for mirror counters refreshed at snapshot time from a
    /// component's own monotonic statistics.
    #[inline]
    pub fn set_counter(&mut self, id: CounterId, total: u64) {
        if self.enabled {
            self.counters[id.0] = total;
        }
    }

    /// Sets a gauge to `level`.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, level: u64) {
        if self.enabled {
            self.gauges[id.0] = level;
        }
    }

    /// Records a duration of `ns` nanoseconds into a timer.
    #[inline]
    pub fn record_ns(&mut self, id: TimerId, ns: u64) {
        if self.enabled {
            self.timers[id.0].record(ns);
        }
    }

    /// Records the span from `start` to `end` (saturating) into a timer.
    #[inline]
    pub fn record_span(&mut self, id: TimerId, start: SimTime, end: SimTime) {
        if self.enabled {
            self.timers[id.0].record(end.saturating_sub(start).as_ns());
        }
    }

    /// Current value of a counter (readable even when disabled).
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0]
    }

    /// Current level of a gauge.
    pub fn gauge_value(&self, id: GaugeId) -> u64 {
        self.gauges[id.0]
    }

    /// The histogram behind a timer.
    pub fn timer_histogram(&self, id: TimerId) -> &Histogram {
        &self.timers[id.0]
    }

    /// Captures every registered metric at simulated time `at`.
    pub fn snapshot(&self, at: SimTime) -> Snapshot {
        let metrics = self
            .index
            .iter()
            .map(|(path, &slot)| {
                let metric = match slot {
                    Slot::Counter(i) => Metric::Counter(self.counters[i]),
                    Slot::Gauge(i) => Metric::Gauge(self.gauges[i]),
                    Slot::Timer(i) => Metric::Timer(self.timers[i].clone()),
                };
                (path.clone(), metric)
            })
            .collect();
        Snapshot { at, metrics }
    }
}

/// One exported metric value.
#[derive(Debug, Clone)]
pub enum Metric {
    /// Cumulative count.
    Counter(u64),
    /// Point-in-time level.
    Gauge(u64),
    /// Distribution of recorded durations (nanoseconds).
    Timer(Histogram),
}

/// A point-in-time export of a [`Registry`]: simulated timestamp plus an
/// ordered `path → metric` map.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Simulated time the snapshot was taken at.
    pub at: SimTime,
    /// All registered metrics, ordered by path.
    pub metrics: BTreeMap<String, Metric>,
}

impl Snapshot {
    /// Looks up a metric by path.
    pub fn get(&self, path: &str) -> Option<&Metric> {
        self.metrics.get(path)
    }

    /// The value of a counter at `path`, if one is registered there.
    pub fn counter(&self, path: &str) -> Option<u64> {
        match self.metrics.get(path) {
            Some(Metric::Counter(n)) => Some(*n),
            _ => None,
        }
    }

    /// The level of a gauge at `path`, if one is registered there.
    pub fn gauge(&self, path: &str) -> Option<u64> {
        match self.metrics.get(path) {
            Some(Metric::Gauge(n)) => Some(*n),
            _ => None,
        }
    }

    /// The histogram of a timer at `path`, if one is registered there.
    pub fn timer(&self, path: &str) -> Option<&Histogram> {
        match self.metrics.get(path) {
            Some(Metric::Timer(h)) => Some(h),
            _ => None,
        }
    }

    /// The change since `earlier`: counters subtract (saturating), timers
    /// subtract bucket-wise via [`Histogram::subtract`], gauges keep the
    /// newer level (a gauge is a reading, not an accumulation).
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let metrics = self
            .metrics
            .iter()
            .map(|(path, metric)| {
                let diffed = match (metric, earlier.metrics.get(path)) {
                    (Metric::Counter(now), Some(Metric::Counter(then))) => {
                        Metric::Counter(now.saturating_sub(*then))
                    }
                    (Metric::Timer(now), Some(Metric::Timer(then))) => {
                        Metric::Timer(now.subtract(then))
                    }
                    (other, _) => other.clone(),
                };
                (path.clone(), diffed)
            })
            .collect();
        Snapshot {
            at: self.at,
            metrics,
        }
    }

    /// Renders the snapshot as a JSON string (vendored `serde_json`).
    pub fn to_json(&self) -> String {
        // The vendored writer is infallible for a `Value` tree.
        serde_json::to_string(self).unwrap_or_default()
    }
}

impl Serialize for Metric {
    fn serialize(&self) -> Value {
        match self {
            Metric::Counter(n) => Value::Map(vec![
                ("type".into(), Value::Str("counter".into())),
                ("value".into(), Value::UInt(*n)),
            ]),
            Metric::Gauge(n) => Value::Map(vec![
                ("type".into(), Value::Str("gauge".into())),
                ("value".into(), Value::UInt(*n)),
            ]),
            Metric::Timer(h) => Value::Map(vec![
                ("type".into(), Value::Str("timer".into())),
                ("count".into(), Value::UInt(h.count())),
                ("mean_ns".into(), Value::Float(h.mean())),
                ("min_ns".into(), Value::UInt(h.min())),
                ("p50_ns".into(), Value::UInt(h.quantile(0.5))),
                ("p90_ns".into(), Value::UInt(h.quantile(0.9))),
                ("p99_ns".into(), Value::UInt(h.quantile(0.99))),
                ("max_ns".into(), Value::UInt(h.max())),
            ]),
        }
    }
}

impl Serialize for Snapshot {
    fn serialize(&self) -> Value {
        Value::Map(vec![
            ("at_ns".into(), Value::UInt(self.at.as_ns())),
            (
                "metrics".into(),
                Value::Map(
                    self.metrics
                        .iter()
                        .map(|(path, m)| (path.clone(), m.serialize()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "telemetry @ {} ns", self.at.as_ns())?;
        for (path, metric) in &self.metrics {
            match metric {
                Metric::Counter(n) => writeln!(f, "  {path} = {n}")?,
                Metric::Gauge(n) => writeln!(f, "  {path} ~ {n}")?,
                Metric::Timer(h) => writeln!(f, "  {path} : {h}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let mut reg = Registry::new(true);
        let a = reg.counter("a.b").unwrap();
        let b = reg.counter("a.b").unwrap();
        assert_eq!(a, b);
        assert_eq!(reg.snapshot(SimTime::ZERO).metrics.len(), 1);
    }

    #[test]
    fn kind_mismatch_is_a_typed_error() {
        let mut reg = Registry::new(true);
        reg.counter("a.b").unwrap();
        let err = reg.gauge("a.b").unwrap_err();
        assert_eq!(
            err,
            TelemetryError::KindMismatch {
                path: "a.b".to_string(),
                registered: "counter",
                requested: "gauge",
            }
        );
        assert!(err.to_string().contains("already registered as counter"));
        // The failed registration must not leave a stray slot behind.
        assert_eq!(reg.snapshot(SimTime::ZERO).metrics.len(), 1);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut reg = Registry::new(false);
        let c = reg.counter("c").unwrap();
        let g = reg.gauge("g").unwrap();
        let t = reg.timer("t").unwrap();
        reg.add(c, 5);
        reg.set_gauge(g, 7);
        reg.record_ns(t, 100);
        let snap = reg.snapshot(SimTime::ZERO);
        assert_eq!(snap.counter("c"), Some(0));
        assert_eq!(snap.gauge("g"), Some(0));
        assert!(snap.timer("t").is_some_and(Histogram::is_empty));
    }

    #[test]
    fn enable_disable_toggles_recording() {
        let mut reg = Registry::new(false);
        let c = reg.counter("c").unwrap();
        reg.inc(c);
        reg.set_enabled(true);
        reg.inc(c);
        reg.inc(c);
        reg.set_enabled(false);
        reg.inc(c);
        assert_eq!(reg.counter_value(c), 2);
    }

    #[test]
    fn record_span_uses_sim_time() {
        let mut reg = Registry::new(true);
        let t = reg.timer("rtt").unwrap();
        reg.record_span(t, SimTime::from_ns(100), SimTime::from_ns(1_050));
        let snap = reg.snapshot(SimTime::from_ns(2_000));
        let h = snap.timer("rtt").expect("timer registered");
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 950);
    }

    #[test]
    fn snapshot_diff_subtracts_counters_and_timers() {
        let mut reg = Registry::new(true);
        let c = reg.counter("frames").unwrap();
        let g = reg.gauge("occupancy").unwrap();
        let t = reg.timer("lat").unwrap();
        reg.add(c, 3);
        reg.set_gauge(g, 9);
        reg.record_ns(t, 100);
        let before = reg.snapshot(SimTime::from_ns(1));
        reg.add(c, 4);
        reg.set_gauge(g, 2);
        reg.record_ns(t, 100);
        reg.record_ns(t, 200);
        let after = reg.snapshot(SimTime::from_ns(2));
        let d = after.diff(&before);
        assert_eq!(d.counter("frames"), Some(4));
        assert_eq!(d.gauge("occupancy"), Some(2));
        let h = d.timer("lat").expect("timer registered");
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn snapshot_json_round_trips_through_serde_json() {
        let mut reg = Registry::new(true);
        let c = reg.counter("fabric.link0.frames_sent").unwrap();
        let t = reg.timer("fabric.path0.rtt_ns").unwrap();
        reg.add(c, 11);
        reg.record_ns(t, 950);
        let json = reg.snapshot(SimTime::from_ns(5)).to_json();
        let v: Value = serde_json::from_str(&json).expect("snapshot JSON parses");
        let metrics = v.get("metrics").expect("metrics key");
        let frames = metrics
            .get("fabric.link0.frames_sent")
            .and_then(|m| m.get("value"))
            .expect("counter exported");
        assert_eq!(*frames, Value::UInt(11));
        let p50 = metrics
            .get("fabric.path0.rtt_ns")
            .and_then(|m| m.get("p50_ns"))
            .expect("timer quantiles exported");
        assert_eq!(*p50, Value::UInt(950));
    }

    #[test]
    fn snapshot_paths_sort_lexicographically() {
        let mut reg = Registry::new(true);
        reg.counter("z.last").unwrap();
        reg.counter("a.first").unwrap();
        reg.counter("m.middle").unwrap();
        let snap = reg.snapshot(SimTime::ZERO);
        let paths: Vec<&str> = snap.metrics.keys().map(String::as_str).collect();
        assert_eq!(paths, ["a.first", "m.middle", "z.last"]);
    }
}
