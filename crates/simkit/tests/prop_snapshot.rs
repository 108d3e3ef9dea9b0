//! Property test: the flat telemetry store answers exactly as a
//! `BTreeMap<String, Metric>` reference model does.
//!
//! Random operation sequences register counters, gauges and timers on
//! a [`Registry`], update them, join view metrics that appear, change
//! and vanish between snapshots, and take snapshots at advancing (and
//! sometimes repeated) instants. After every snapshot the test compares
//! the store against the model on every path of a pool whose names
//! share prefixes (`link1.` vs `link10.`, `a.b` vs `a.b.c`):
//!
//! * `get`, `counter`, `gauge` and `timer`;
//! * `diff` against the previous snapshot;
//! * the `to_json` and `prometheus_exposition` bytes;
//! * `Recorder::{rate, deltas, window_timer}` and each ring window's
//!   counters and gauges, over a ring small enough to evict.

use std::collections::{BTreeMap, VecDeque};

use proptest::prelude::*;
use serde::{Serialize, Value};
use simkit::obs::{prometheus_exposition, Recorder};
use simkit::stats::Histogram;
use simkit::telemetry::{Metric, MetricKind, Registry, Snapshot, TelemetryError, ViewSchema};
use simkit::time::SimTime;

/// Metric paths the operations draw from. Neighbours share prefixes.
const POOL: [&str; 12] = [
    "a",
    "a.b",
    "a.b.c",
    "a.bc",
    "link1.frames",
    "link10.frames",
    "link1.frames.x",
    "link1",
    "link2.credits",
    "path0.rtt_ns",
    "path00.rtt_ns",
    "9lives",
];

type Model = BTreeMap<String, Metric>;

fn kind_of(k: u8) -> MetricKind {
    match k % 3 {
        0 => MetricKind::Counter,
        1 => MetricKind::Gauge,
        _ => MetricKind::Timer,
    }
}

fn zero(kind: MetricKind) -> Metric {
    match kind {
        MetricKind::Counter => Metric::Counter(0),
        MetricKind::Gauge => Metric::Gauge(0),
        MetricKind::Timer => Metric::Timer(Histogram::new()),
    }
}

fn kind_of_metric(m: &Metric) -> MetricKind {
    match m {
        Metric::Counter(_) => MetricKind::Counter,
        Metric::Gauge(_) => MetricKind::Gauge,
        Metric::Timer(_) => MetricKind::Timer,
    }
}

/// Spreads a small draw over the bucket space: values from 0 to ~10^8.
fn duration(v: u64) -> u64 {
    (v % 97) << (v % 21)
}

fn same_histogram(got: &Histogram, want: &Histogram) -> Result<(), TestCaseError> {
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

fn same_metric(got: Option<&Metric>, want: Option<&Metric>) -> Result<(), TestCaseError> {
    match (got, want) {
        (None, None) => {}
        (Some(Metric::Counter(a)), Some(Metric::Counter(b)))
        | (Some(Metric::Gauge(a)), Some(Metric::Gauge(b))) => prop_assert_eq!(a, b),
        (Some(Metric::Timer(a)), Some(Metric::Timer(b))) => same_histogram(a, b)?,
        (got, want) => prop_assert!(false, "got {:?}, want {:?}", got, want),
    }
    Ok(())
}

/// The model's `diff`: counters and timers subtract where `earlier`
/// holds the same kind, everything else keeps its newer value.
fn model_diff(now: &Model, earlier: &Model) -> Model {
    now.iter()
        .map(|(path, metric)| {
            let diffed = match (metric, earlier.get(path)) {
                (Metric::Counter(n), Some(Metric::Counter(t))) => {
                    Metric::Counter(n.saturating_sub(*t))
                }
                (Metric::Timer(n), Some(Metric::Timer(t))) => Metric::Timer(n.subtract(t)),
                (other, _) => other.clone(),
            };
            (path.clone(), diffed)
        })
        .collect()
}

fn model_json(at: SimTime, model: &Model) -> String {
    let metrics = model
        .iter()
        .map(|(path, m)| (path.clone(), m.serialize()))
        .collect();
    let v = Value::Map(vec![
        ("at_ns".into(), Value::UInt(at.as_ns())),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&v).unwrap_or_default()
}

fn model_name(path: &str) -> String {
    let mut name = String::new();
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

fn model_prometheus(model: &Model) -> String {
    let mut out = String::new();
    for (path, metric) in model {
        let name = model_name(path);
        match metric {
            Metric::Counter(n) => out += &format!("# TYPE {name} counter\n{name} {n}\n"),
            Metric::Gauge(n) => out += &format!("# TYPE {name} gauge\n{name} {n}\n"),
            Metric::Timer(h) => {
                out += &format!("# TYPE {name} summary\n");
                for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")] {
                    if h.is_empty() {
                        out += &format!("{name}{{quantile=\"{label}\"}} NaN\n");
                    } else {
                        out += &format!("{name}{{quantile=\"{label}\"}} {}\n", h.quantile(q));
                    }
                }
                let sum = h.mean() * h.count() as f64;
                out += &format!("{name}_sum {sum}\n{name}_count {}\n", h.count());
            }
        }
    }
    out
}

/// The model's recorder: a ring of `(start, end, delta)` windows.
struct ModelRecorder {
    capacity: usize,
    last: Option<Model>,
    last_end: SimTime,
    accepted: u64,
    windows: VecDeque<(SimTime, SimTime, Model)>,
}

impl ModelRecorder {
    fn record(&mut self, at: SimTime, snap: Model) {
        if self.accepted > 0 && at <= self.last_end {
            return;
        }
        let delta = match &self.last {
            Some(prev) => model_diff(&snap, prev),
            None => snap.clone(),
        };
        self.windows.push_back((self.last_end, at, delta));
        if self.windows.len() > self.capacity {
            self.windows.pop_front();
        }
        self.last_end = at;
        self.last = Some(snap);
        self.accepted += 1;
    }

    fn counter(delta: &Model, path: &str) -> Option<u64> {
        match delta.get(path) {
            Some(Metric::Counter(n)) => Some(*n),
            _ => None,
        }
    }

    fn rate(&self, path: &str) -> Option<f64> {
        let (start, end, delta) = self.windows.back()?;
        let span = end.saturating_sub(*start).as_ns();
        if span == 0 {
            return None;
        }
        Some(Self::counter(delta, path)? as f64 * 1e9 / span as f64)
    }

    fn deltas(&self, path: &str) -> Vec<(SimTime, u64)> {
        self.windows
            .iter()
            .filter_map(|(_, end, d)| Self::counter(d, path).map(|n| (*end, n)))
            .collect()
    }

    fn window_timer(&self, path: &str) -> Option<Histogram> {
        match self.windows.back()?.2.get(path) {
            Some(Metric::Timer(h)) => Some(h.clone()),
            _ => None,
        }
    }
}

/// The store under test beside its model.
struct Harness {
    reg: Registry,
    handles: BTreeMap<String, MetricKind>,
    /// Registered metrics, as the model holds them.
    model: Model,
    enabled: bool,
    /// Views in declaration order, with their current values.
    views: Vec<(String, Metric)>,
    schema: Option<ViewSchema>,
    now: SimTime,
    prev: Option<(Snapshot, Model)>,
    rec: Recorder,
    model_rec: ModelRecorder,
}

impl Harness {
    fn new(capacity: usize) -> Self {
        Harness {
            reg: Registry::new(true),
            handles: BTreeMap::new(),
            model: Model::new(),
            enabled: true,
            views: Vec::new(),
            schema: None,
            now: SimTime::ZERO,
            prev: None,
            rec: Recorder::new(SimTime::ZERO, capacity),
            model_rec: ModelRecorder {
                capacity,
                last: None,
                last_end: SimTime::ZERO,
                accepted: 0,
                windows: VecDeque::new(),
            },
        }
    }

    fn register(&mut self, path: &str, kind: MetricKind) -> Result<(), TestCaseError> {
        let got = match kind {
            MetricKind::Counter => self.reg.counter(path).map(drop),
            MetricKind::Gauge => self.reg.gauge(path).map(drop),
            MetricKind::Timer => self.reg.timer(path).map(drop),
        };
        match self.model.get(path).map(kind_of_metric) {
            Some(have) if have != kind => prop_assert!(
                matches!(got, Err(TelemetryError::KindMismatch { .. })),
                "re-registering {} as another kind: {:?}",
                path,
                got
            ),
            _ => {
                prop_assert!(got.is_ok(), "registering {}: {:?}", path, got);
                self.model
                    .entry(path.to_string())
                    .or_insert_with(|| zero(kind));
                self.handles.insert(path.to_string(), kind);
                // A registered path can no longer be a view.
                if self.views.iter().any(|(p, _)| p == path) {
                    self.views.retain(|(p, _)| p != path);
                    self.schema = None;
                }
            }
        }
        Ok(())
    }

    fn update(&mut self, path: &str, v: u64) {
        let Some(&kind) = self.handles.get(path) else {
            return;
        };
        let on = self.enabled;
        match (kind, self.model.get_mut(path)) {
            (MetricKind::Counter, Some(Metric::Counter(n))) => {
                if let Ok(id) = self.reg.counter(path) {
                    self.reg.add(id, v);
                }
                if on {
                    *n += v;
                }
            }
            (MetricKind::Gauge, Some(Metric::Gauge(n))) => {
                if let Ok(id) = self.reg.gauge(path) {
                    self.reg.set_gauge(id, v);
                }
                if on {
                    *n = v;
                }
            }
            (MetricKind::Timer, Some(Metric::Timer(h))) => {
                if let Ok(id) = self.reg.timer(path) {
                    self.reg.record_ns(id, duration(v));
                }
                if on {
                    h.record(duration(v));
                }
            }
            _ => {}
        }
    }

    /// Adds `path` as a view of `kind`, or drops it if it is one.
    fn toggle_view(&mut self, path: &str, kind: MetricKind) {
        if self.model.contains_key(path) {
            return;
        }
        let before = self.views.len();
        self.views.retain(|(p, _)| p != path);
        if self.views.len() == before {
            self.views.push((path.to_string(), zero(kind)));
        }
        self.schema = None;
    }

    /// Moves a view's value: counters and gauges jump anywhere (a view
    /// counter may even fall), timers record.
    fn move_view(&mut self, pick: usize, v: u64) {
        if self.views.is_empty() {
            return;
        }
        let i = pick % self.views.len();
        match &mut self.views[i].1 {
            Metric::Counter(n) | Metric::Gauge(n) => *n = v,
            Metric::Timer(h) => h.record(duration(v)),
        }
    }

    fn snapshot(&mut self) -> Result<(Snapshot, Model), TestCaseError> {
        if !self.schema.as_ref().is_some_and(|s| s.fits(&self.reg)) {
            let declared = self
                .views
                .iter()
                .map(|(p, m)| (p.clone(), kind_of_metric(m)));
            let built = self.reg.view_schema(declared);
            prop_assert!(built.is_ok(), "view schema: {:?}", built.err());
            self.schema = built.ok();
        }
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut timers = Vec::new();
        let mut model = self.model.clone();
        for (path, m) in &self.views {
            match m {
                Metric::Counter(n) => counters.push(*n),
                Metric::Gauge(n) => gauges.push(*n),
                Metric::Timer(h) => timers.push(h.clone()),
            }
            model.insert(path.clone(), m.clone());
        }
        let snap = match &self.schema {
            Some(schema) => self
                .reg
                .snapshot_with(self.now, schema, &counters, &gauges, timers),
            None => Err(TelemetryError::ViewMismatch),
        };
        prop_assert!(snap.is_ok(), "snapshot_with: {:?}", snap.as_ref().err());
        Ok((snap.unwrap_or_default(), model))
    }

    fn compare(&self, snap: &Snapshot, model: &Model) -> Result<(), TestCaseError> {
        prop_assert_eq!(snap.len(), model.len());
        prop_assert!(snap.paths().eq(model.keys().map(String::as_str)));
        for path in POOL {
            let want = model.get(path);
            same_metric(snap.get(path).as_ref(), want)?;
            let counter = match want {
                Some(Metric::Counter(n)) => Some(*n),
                _ => None,
            };
            let gauge = match want {
                Some(Metric::Gauge(n)) => Some(*n),
                _ => None,
            };
            prop_assert_eq!(snap.counter(path), counter);
            prop_assert_eq!(snap.gauge(path), gauge);
            match (snap.timer(path), want) {
                (Some(got), Some(Metric::Timer(h))) => same_histogram(got, h)?,
                (None, Some(Metric::Timer(_))) => prop_assert!(false, "timer {} missing", path),
                (Some(_), _) => prop_assert!(false, "{} is not a timer", path),
                (None, _) => {}
            }
        }
        prop_assert_eq!(snap.to_json(), model_json(snap.at, model));
        prop_assert_eq!(prometheus_exposition(snap), model_prometheus(model));
        Ok(())
    }

    fn snapshot_and_check(&mut self, step: u64) -> Result<(), TestCaseError> {
        self.now = self.now + SimTime::from_ns(step % 3);
        let (snap, model) = self.snapshot()?;
        self.compare(&snap, &model)?;
        if let Some((earlier, earlier_model)) = &self.prev {
            let d = snap.diff(earlier);
            self.compare(&d, &model_diff(&model, earlier_model))?;
        }
        self.rec.record(snap.clone());
        self.model_rec.record(snap.at, model.clone());
        prop_assert_eq!(self.rec.accepted(), self.model_rec.accepted);
        prop_assert_eq!(self.rec.windows().count(), self.model_rec.windows.len());
        for (w, (start, end, delta)) in self.rec.windows().zip(&self.model_rec.windows) {
            prop_assert_eq!((w.start, w.end), (*start, *end));
            for path in POOL {
                prop_assert_eq!(w.counter(path), ModelRecorder::counter(delta, path));
                let gauge = match delta.get(path) {
                    Some(Metric::Gauge(n)) => Some(*n),
                    _ => None,
                };
                prop_assert_eq!(w.gauge(path), gauge, "window gauge {}", path);
            }
        }
        for path in POOL {
            let (got, want) = (self.rec.rate(path), self.model_rec.rate(path));
            prop_assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "rate {}",
                path
            );
            prop_assert_eq!(self.rec.deltas(path), self.model_rec.deltas(path));
            match (
                self.rec.window_timer(path),
                self.model_rec.window_timer(path),
            ) {
                (Some(got), Some(want)) => same_histogram(&got, &want)?,
                (None, None) => {}
                (got, want) => {
                    prop_assert!(false, "window timer {}: {:?} vs {:?}", path, got, want)
                }
            }
        }
        self.prev = Some((snap, model));
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn flat_store_answers_like_the_map_model(
        capacity in 1usize..5,
        ops in prop::collection::vec((0u8..8, 0usize..POOL.len(), 0u64..10_000, 0u8..3), 1..80),
    ) {
        let mut h = Harness::new(capacity);
        for (op, p, v, k) in ops {
            let path = POOL[p];
            match op {
                0 => h.register(path, kind_of(k))?,
                1..=3 => h.update(path, v),
                4 => h.toggle_view(path, kind_of(k)),
                5 => h.move_view(p, v),
                6 => h.snapshot_and_check(v)?,
                _ => {
                    h.enabled = !h.enabled;
                    h.reg.set_enabled(h.enabled);
                }
            }
        }
        h.snapshot_and_check(1)?;
    }
}
