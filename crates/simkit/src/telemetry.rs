//! Workspace telemetry: a registry of counters, gauges and
//! [`Histogram`]-backed timers keyed by hierarchical dotted paths.
//!
//! Every simulator layer registers its metrics here (e.g.
//! `fabric.loads.retired`, `fabric.recovery.detect_ns`) and the
//! harnesses read them back as [`Snapshot`]s, which can be diffed
//! against an earlier snapshot and exported through the vendored
//! `serde` [`Value`] tree / JSON.
//!
//! The store is flat. A registry keeps one column per metric kind, in
//! registration order, and one sorted schema of its paths, shared
//! (`Arc`) with every snapshot until a new path registers. A snapshot
//! copies the three columns and bumps the schema's refcount; it clones
//! no path. Lookups binary-search the schema, and [`Snapshot::diff`]
//! subtracts column by column when both snapshots share a schema.
//!
//! A caller can also join *views* to a snapshot: metrics it reads from
//! its own live state at snapshot time instead of recording them
//! ([`Registry::view_schema`], [`Registry::snapshot_with`]). The fabric
//! renders each live link's statistics and each live path's latency
//! this way, so a detached link or path leaves nothing registered.
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

use std::fmt;
use std::sync::Arc;

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

/// The kind of metric a path names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A cumulative count.
    Counter,
    /// A point-in-time level.
    Gauge,
    /// A distribution of durations.
    Timer,
}

impl MetricKind {
    fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Timer => "timer",
        }
    }
}

/// Which column entry a path reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    Counter(usize),
    Gauge(usize),
    Timer(usize),
}

impl Slot {
    fn kind(self) -> MetricKind {
        match self {
            Slot::Counter(_) => MetricKind::Counter,
            Slot::Gauge(_) => MetricKind::Gauge,
            Slot::Timer(_) => MetricKind::Timer,
        }
    }

    fn col(self) -> usize {
        match self {
            Slot::Counter(i) | Slot::Gauge(i) | Slot::Timer(i) => i,
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
    /// A view names a path the registry or another view already names.
    DuplicateView {
        /// The colliding path.
        path: String,
    },
    /// View values handed to [`Registry::snapshot_with`] do not fit its
    /// [`ViewSchema`]: the schema was built on another registry state,
    /// or a column holds the wrong number of values.
    ViewMismatch,
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
            TelemetryError::DuplicateView { path } => {
                write!(
                    f,
                    "telemetry view {path:?} names a path already in the schema"
                )
            }
            TelemetryError::ViewMismatch => {
                write!(f, "view values do not fit the view schema")
            }
        }
    }
}

impl std::error::Error for TelemetryError {}

/// How many entries each column holds: counters, gauges, timers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Widths {
    counters: usize,
    gauges: usize,
    timers: usize,
}

impl Widths {
    /// Claims the next column entry of `kind`.
    fn claim(&mut self, kind: MetricKind) -> Slot {
        let (col, slot): (&mut usize, fn(usize) -> Slot) = match kind {
            MetricKind::Counter => (&mut self.counters, Slot::Counter),
            MetricKind::Gauge => (&mut self.gauges, Slot::Gauge),
            MetricKind::Timer => (&mut self.timers, Slot::Timer),
        };
        *col += 1;
        slot(*col - 1)
    }
}

/// The sorted metric paths of a [`Snapshot`] and the column entry each
/// reads. Snapshots of one registry share their schema until the set of
/// metrics changes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Schema {
    paths: Vec<Box<str>>,
    slots: Vec<Slot>,
    widths: Widths,
}

impl Schema {
    /// The metric paths, in lexicographic order.
    fn paths(&self) -> impl Iterator<Item = &str> {
        self.paths.iter().map(|p| &**p)
    }

    /// The column entry `path` reads, if the schema names it.
    pub(crate) fn slot(&self, path: &str) -> Option<Slot> {
        let i = self.paths.binary_search_by(|p| (**p).cmp(path)).ok()?;
        Some(self.slots[i])
    }

    /// Paths with their column entries, in path order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&str, Slot)> {
        self.paths().zip(self.slots.iter().copied())
    }

    /// The same schema with `extra` metrics merged in, their column
    /// entries claimed after this schema's in the order given.
    fn joined<I>(&self, extra: I) -> Result<Schema, TelemetryError>
    where
        I: IntoIterator<Item = (String, MetricKind)>,
    {
        let mut widths = self.widths;
        let mut entries: Vec<(Box<str>, Slot)> = self
            .paths
            .iter()
            .cloned()
            .zip(self.slots.iter().copied())
            .chain(
                extra
                    .into_iter()
                    .map(|(path, kind)| (path.into_boxed_str(), widths.claim(kind))),
            )
            .collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        if let Some(w) = entries.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(TelemetryError::DuplicateView {
                path: w[0].0.to_string(),
            });
        }
        let (paths, slots) = entries.into_iter().unzip();
        Ok(Schema {
            paths,
            slots,
            widths,
        })
    }
}

/// A registry's schema joined with *views*: metrics a caller reads from
/// its own live state at each snapshot instead of recording them into
/// the registry. Build one with [`Registry::view_schema`] and reuse it
/// for as long as the set of views is unchanged and
/// [`ViewSchema::fits`] the registry.
#[derive(Debug, Clone)]
pub struct ViewSchema {
    base: Arc<Schema>,
    joined: Arc<Schema>,
}

impl ViewSchema {
    /// Whether the schema was built on `registry`'s current schema, i.e.
    /// no path registered since.
    pub fn fits(&self, registry: &Registry) -> bool {
        Arc::ptr_eq(&self.base, &registry.schema)
    }

    /// Value counts the views take: counters, gauges, timers.
    fn view_widths(&self) -> Widths {
        let (all, base) = (self.joined.widths, self.base.widths);
        Widths {
            counters: all.counters - base.counters,
            gauges: all.gauges - base.gauges,
            timers: all.timers - base.timers,
        }
    }
}

/// A metrics registry keyed by hierarchical dotted paths.
///
/// Registration is idempotent: registering the same path twice with the
/// same kind returns the same handle. Registering an existing path as a
/// *different* kind is refused with a typed
/// [`TelemetryError::KindMismatch`].
#[derive(Debug, Clone, Default)]
pub struct Registry {
    enabled: bool,
    schema: Arc<Schema>,
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

    /// The column entry of `path`, registering it as `kind` if new.
    /// A new path is inserted into the sorted schema in place; a
    /// snapshot still holding the old schema keeps its own copy.
    fn register(&mut self, path: &str, kind: MetricKind) -> Result<usize, TelemetryError> {
        let slot = match self.schema.paths.binary_search_by(|p| (**p).cmp(path)) {
            Ok(i) => self.schema.slots[i],
            Err(at) => {
                let schema = Arc::make_mut(&mut self.schema);
                let slot = schema.widths.claim(kind);
                schema.paths.insert(at, path.into());
                schema.slots.insert(at, slot);
                match kind {
                    MetricKind::Counter => self.counters.push(0),
                    MetricKind::Gauge => self.gauges.push(0),
                    MetricKind::Timer => self.timers.push(Histogram::new()),
                }
                slot
            }
        };
        if slot.kind() == kind {
            Ok(slot.col())
        } else {
            Err(TelemetryError::KindMismatch {
                path: path.to_string(),
                registered: slot.kind().label(),
                requested: kind.label(),
            })
        }
    }

    /// Registers (or looks up) a counter at `path`.
    ///
    /// # Errors
    ///
    /// Fails if `path` is already registered as a different kind.
    pub fn counter(&mut self, path: &str) -> Result<CounterId, TelemetryError> {
        self.register(path, MetricKind::Counter).map(CounterId)
    }

    /// Registers (or looks up) a gauge at `path`.
    ///
    /// # Errors
    ///
    /// Fails if `path` is already registered as a different kind.
    pub fn gauge(&mut self, path: &str) -> Result<GaugeId, TelemetryError> {
        self.register(path, MetricKind::Gauge).map(GaugeId)
    }

    /// Registers (or looks up) a timer at `path`. Timers record durations
    /// in nanoseconds into a [`Histogram`].
    ///
    /// # Errors
    ///
    /// Fails if `path` is already registered as a different kind.
    pub fn timer(&mut self, path: &str) -> Result<TimerId, TelemetryError> {
        self.register(path, MetricKind::Timer).map(TimerId)
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

    /// Captures every registered metric at simulated time `at`: three
    /// column copies and a shared schema.
    pub fn snapshot(&self, at: SimTime) -> Snapshot {
        Snapshot {
            at,
            schema: Arc::clone(&self.schema),
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            timers: self.timers.clone(),
        }
    }

    /// This registry's schema joined with `views`, each a path and the
    /// kind of value [`Registry::snapshot_with`] will read for it.
    ///
    /// # Errors
    ///
    /// Fails if a view names a registered path or another view's path.
    pub fn view_schema<I>(&self, views: I) -> Result<ViewSchema, TelemetryError>
    where
        I: IntoIterator<Item = (String, MetricKind)>,
    {
        Ok(ViewSchema {
            joined: Arc::new(self.schema.joined(views)?),
            base: Arc::clone(&self.schema),
        })
    }

    /// [`Registry::snapshot`] joined with view values read at `at`. Each
    /// of `counters`, `gauges` and `timers` holds one value per view of
    /// its kind, in the order the views were declared.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::ViewMismatch`] if `views` does not
    /// [`fit`](ViewSchema::fits) the registry, or a column holds the
    /// wrong number of values.
    pub fn snapshot_with(
        &self,
        at: SimTime,
        views: &ViewSchema,
        counters: &[u64],
        gauges: &[u64],
        timers: Vec<Histogram>,
    ) -> Result<Snapshot, TelemetryError> {
        let got = Widths {
            counters: counters.len(),
            gauges: gauges.len(),
            timers: timers.len(),
        };
        if !views.fits(self) || got != views.view_widths() {
            return Err(TelemetryError::ViewMismatch);
        }
        let join = |own: &[u64], view: &[u64]| [own, view].concat();
        let mut all_timers = Vec::with_capacity(self.timers.len() + timers.len());
        all_timers.extend(self.timers.iter().cloned());
        all_timers.extend(timers);
        Ok(Snapshot {
            at,
            schema: Arc::clone(&views.joined),
            counters: join(&self.counters, counters),
            gauges: join(&self.gauges, gauges),
            timers: all_timers,
        })
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

/// One metric read in place from a snapshot's columns.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MetricRef<'a> {
    Counter(u64),
    Gauge(u64),
    Timer(&'a Histogram),
}

impl MetricRef<'_> {
    fn cloned(self) -> Metric {
        match self {
            MetricRef::Counter(n) => Metric::Counter(n),
            MetricRef::Gauge(n) => Metric::Gauge(n),
            MetricRef::Timer(h) => Metric::Timer(h.clone()),
        }
    }
}

/// A point-in-time export of a [`Registry`]: the simulated timestamp, a
/// shared sorted schema of metric paths, and flat value columns.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Simulated time the snapshot was taken at.
    pub at: SimTime,
    schema: Arc<Schema>,
    counters: Vec<u64>,
    gauges: Vec<u64>,
    timers: Vec<Histogram>,
}

impl Snapshot {
    /// The snapshot's shared schema.
    pub(crate) fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.schema.paths.len()
    }

    /// Whether the snapshot holds no metric.
    pub fn is_empty(&self) -> bool {
        self.schema.paths.is_empty()
    }

    /// The metric paths, in lexicographic order.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.schema.paths()
    }

    fn read(&self, slot: Slot) -> MetricRef<'_> {
        match slot {
            Slot::Counter(i) => MetricRef::Counter(self.counters[i]),
            Slot::Gauge(i) => MetricRef::Gauge(self.gauges[i]),
            Slot::Timer(i) => MetricRef::Timer(&self.timers[i]),
        }
    }

    /// Every metric in path order, read in place.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&str, MetricRef<'_>)> {
        self.schema
            .entries()
            .map(|(path, slot)| (path, self.read(slot)))
    }

    /// The counter deltas since `earlier` (saturating), with the same
    /// path's counter in `earlier` matched by [`Align`].
    pub(crate) fn counter_deltas<'a>(
        &'a self,
        earlier: &'a Snapshot,
        align: &'a Align,
    ) -> impl Iterator<Item = u64> + 'a {
        self.counters
            .iter()
            .enumerate()
            .map(move |(c, &now)| match align.counter(c) {
                Some(e) => now.saturating_sub(earlier.counters[e]),
                None => now,
            })
    }

    /// The counter column.
    pub(crate) fn counter_column(&self) -> &[u64] {
        &self.counters
    }

    /// The gauge column.
    pub(crate) fn gauge_column(&self) -> &[u64] {
        &self.gauges
    }

    /// The timer column.
    pub(crate) fn timer_column(&self) -> &[Histogram] {
        &self.timers
    }

    /// Looks up a metric by path. A timer's histogram is cloned out of
    /// the snapshot; [`Snapshot::timer`] borrows it instead.
    pub fn get(&self, path: &str) -> Option<Metric> {
        self.schema.slot(path).map(|slot| self.read(slot).cloned())
    }

    /// The value of a counter at `path`, if one is registered there.
    pub fn counter(&self, path: &str) -> Option<u64> {
        match self.schema.slot(path)? {
            Slot::Counter(i) => Some(self.counters[i]),
            _ => None,
        }
    }

    /// The level of a gauge at `path`, if one is registered there.
    pub fn gauge(&self, path: &str) -> Option<u64> {
        match self.schema.slot(path)? {
            Slot::Gauge(i) => Some(self.gauges[i]),
            _ => None,
        }
    }

    /// The histogram of a timer at `path`, if one is registered there.
    pub fn timer(&self, path: &str) -> Option<&Histogram> {
        match self.schema.slot(path)? {
            Slot::Timer(i) => Some(&self.timers[i]),
            _ => None,
        }
    }

    /// The change since `earlier`: counters subtract (saturating), timers
    /// subtract bucket-wise via [`Histogram::subtract`], gauges keep the
    /// newer level (a gauge is a reading, not an accumulation). A path
    /// `earlier` lacks, or holds as another kind, keeps its value; paths
    /// only `earlier` holds are dropped. Snapshots sharing a schema
    /// subtract column by column.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let align = Align::new(&self.schema, &earlier.schema);
        let timers = self
            .timers
            .iter()
            .enumerate()
            .map(|(t, now)| match align.timer(t) {
                Some(e) => now.subtract(&earlier.timers[e]),
                None => now.clone(),
            })
            .collect();
        Snapshot {
            at: self.at,
            schema: Arc::clone(&self.schema),
            counters: self.counter_deltas(earlier, &align).collect(),
            gauges: self.gauges.clone(),
            timers,
        }
    }

    /// Renders the snapshot as a JSON string (vendored `serde_json`).
    pub fn to_json(&self) -> String {
        // The vendored writer is infallible for a `Value` tree.
        serde_json::to_string(self).unwrap_or_default()
    }
}

/// How the counter and timer columns of one schema line up with those
/// of an earlier one: the same path, holding the same kind.
pub(crate) enum Align {
    /// One schema: every entry is its own counterpart.
    Same,
    /// Different schemas: each entry's counterpart, if any.
    Mapped {
        counters: Vec<Option<usize>>,
        timers: Vec<Option<usize>>,
    },
}

impl Align {
    pub(crate) fn new(now: &Arc<Schema>, earlier: &Arc<Schema>) -> Align {
        if Arc::ptr_eq(now, earlier) || now == earlier {
            return Align::Same;
        }
        let mut counters = vec![None; now.widths.counters];
        let mut timers = vec![None; now.widths.timers];
        for (path, slot) in now.entries() {
            match (slot, earlier.slot(path)) {
                (Slot::Counter(c), Some(Slot::Counter(e))) => counters[c] = Some(e),
                (Slot::Timer(t), Some(Slot::Timer(e))) => timers[t] = Some(e),
                _ => {}
            }
        }
        Align::Mapped { counters, timers }
    }

    fn counter(&self, col: usize) -> Option<usize> {
        match self {
            Align::Same => Some(col),
            Align::Mapped { counters, .. } => counters[col],
        }
    }

    pub(crate) fn timer(&self, col: usize) -> Option<usize> {
        match self {
            Align::Same => Some(col),
            Align::Mapped { timers, .. } => timers[col],
        }
    }
}

fn serialize_metric(metric: MetricRef<'_>) -> Value {
    match metric {
        MetricRef::Counter(n) => Value::Map(vec![
            ("type".into(), Value::Str("counter".into())),
            ("value".into(), Value::UInt(n)),
        ]),
        MetricRef::Gauge(n) => Value::Map(vec![
            ("type".into(), Value::Str("gauge".into())),
            ("value".into(), Value::UInt(n)),
        ]),
        MetricRef::Timer(h) => Value::Map(vec![
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

impl Serialize for Metric {
    fn serialize(&self) -> Value {
        serialize_metric(match self {
            Metric::Counter(n) => MetricRef::Counter(*n),
            Metric::Gauge(n) => MetricRef::Gauge(*n),
            Metric::Timer(h) => MetricRef::Timer(h),
        })
    }
}

impl Serialize for Snapshot {
    fn serialize(&self) -> Value {
        Value::Map(vec![
            ("at_ns".into(), Value::UInt(self.at.as_ns())),
            (
                "metrics".into(),
                Value::Map(
                    self.entries()
                        .map(|(path, m)| (path.to_string(), serialize_metric(m)))
                        .collect(),
                ),
            ),
        ])
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "telemetry @ {} ns", self.at.as_ns())?;
        for (path, metric) in self.entries() {
            match metric {
                MetricRef::Counter(n) => writeln!(f, "  {path} = {n}")?,
                MetricRef::Gauge(n) => writeln!(f, "  {path} ~ {n}")?,
                MetricRef::Timer(h) => writeln!(f, "  {path} : {h}")?,
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
        assert_eq!(reg.snapshot(SimTime::ZERO).len(), 1);
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
        assert_eq!(reg.snapshot(SimTime::ZERO).len(), 1);
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
        let paths: Vec<&str> = snap.paths().collect();
        assert_eq!(paths, ["a.first", "m.middle", "z.last"]);
    }

    #[test]
    fn snapshots_share_the_schema_until_a_path_registers() {
        let mut reg = Registry::new(true);
        let c = reg.counter("b").unwrap();
        let first = reg.snapshot(SimTime::ZERO);
        reg.inc(c);
        let second = reg.snapshot(SimTime::from_ns(1));
        assert!(Arc::ptr_eq(first.schema(), second.schema()));
        reg.gauge("a").unwrap();
        let third = reg.snapshot(SimTime::from_ns(2));
        assert!(!Arc::ptr_eq(second.schema(), third.schema()));
        // The older snapshots keep the schema they were taken with.
        assert_eq!(second.paths().collect::<Vec<_>>(), ["b"]);
        assert_eq!(third.paths().collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(third.diff(&first).counter("b"), Some(1));
    }

    #[test]
    fn views_join_the_registry_in_path_order() {
        let mut reg = Registry::new(true);
        let c = reg.counter("fabric.loads").unwrap();
        reg.add(c, 3);
        let views = reg
            .view_schema([
                ("fabric.link1.frames".to_string(), MetricKind::Counter),
                ("fabric.link1.credits".to_string(), MetricKind::Gauge),
                ("fabric.link0.frames".to_string(), MetricKind::Counter),
                ("fabric.path0.rtt_ns".to_string(), MetricKind::Timer),
            ])
            .unwrap();
        let mut rtt = Histogram::new();
        rtt.record(950);
        let snap = reg
            .snapshot_with(SimTime::from_ns(5), &views, &[11, 7], &[4], vec![rtt])
            .unwrap();
        assert_eq!(
            snap.paths().collect::<Vec<_>>(),
            [
                "fabric.link0.frames",
                "fabric.link1.credits",
                "fabric.link1.frames",
                "fabric.loads",
                "fabric.path0.rtt_ns",
            ]
        );
        assert_eq!(snap.counter("fabric.loads"), Some(3));
        assert_eq!(snap.counter("fabric.link1.frames"), Some(11));
        assert_eq!(snap.counter("fabric.link0.frames"), Some(7));
        assert_eq!(snap.gauge("fabric.link1.credits"), Some(4));
        assert_eq!(
            snap.timer("fabric.path0.rtt_ns").map(Histogram::count),
            Some(1)
        );
    }

    #[test]
    fn mismatched_views_are_typed_errors() {
        let mut reg = Registry::new(true);
        reg.counter("a").unwrap();
        let clash = reg.view_schema([("a".to_string(), MetricKind::Gauge)]);
        assert_eq!(
            clash.unwrap_err(),
            TelemetryError::DuplicateView {
                path: "a".to_string()
            }
        );
        let views = reg
            .view_schema([("v".to_string(), MetricKind::Counter)])
            .unwrap();
        let short = reg.snapshot_with(SimTime::ZERO, &views, &[], &[], Vec::new());
        assert_eq!(short.unwrap_err(), TelemetryError::ViewMismatch);
        reg.counter("b").unwrap();
        assert!(!views.fits(&reg));
        let stale = reg.snapshot_with(SimTime::ZERO, &views, &[1], &[], Vec::new());
        assert_eq!(stale.unwrap_err(), TelemetryError::ViewMismatch);
    }
}
