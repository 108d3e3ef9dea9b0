//! The benchmark's outside-in tracer.
//!
//! Spans are recorded in the benchmark's own code, around calls into the
//! simulator's public functions: each carries a name (the layer it
//! enters), start and end on one monotonic clock, the span that was open
//! when it started, and a request id (load tag or lease id). Spans stay in
//! memory and are written out once the run ends.
//!
//! Calls too frequent to keep one record each (`Fabric::issue_read` and
//! `Fabric::step` run about a million times a second) are aggregated
//! instead: a per-name count, total and 1 ns histogram, with their time
//! charged to the enclosing span so self time stays exact.
//!
//! Spans whose name starts with [`BENCH`] belong to the benchmark itself
//! (a repetition, a timed phase); every other span is a layer span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name prefix of the benchmark's own spans.
const BENCH: &str = "bench.";

/// Histogram width of aggregated calls: 1 ns buckets up to 65.5 µs,
/// slower calls land in the last bucket.
const CALL_BUCKETS: usize = 1 << 16;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer (or, with the [`BENCH`] prefix, benchmark phase).
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
    /// The span open when this one started.
    pub parent: Option<usize>,
    /// Load tag or lease id the span serves (0 when none).
    pub req: u64,
    /// Time of aggregated calls made while this was the innermost span.
    pub agg_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn len_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Whether the span belongs to a simulator layer.
    pub fn is_layer(&self) -> bool {
        !self.name.starts_with(BENCH)
    }
}

/// Aggregate of one frequently called function.
#[derive(Debug, Clone)]
pub struct CallStats {
    /// Calls timed.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    buckets: Vec<u64>,
}

impl CallStats {
    fn new() -> Self {
        CallStats {
            count: 0,
            total_ns: 0,
            buckets: vec![0; CALL_BUCKETS],
        }
    }

    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        let b = usize::try_from(ns)
            .unwrap_or(usize::MAX)
            .min(CALL_BUCKETS - 1);
        self.buckets[b] += 1;
    }

    /// Percentile `p` (hundredths of a percent) of the call durations, in
    /// ns: the nearest-rank sample's 1 ns bucket, interpolated by the
    /// sample's position among the bucket's calls.
    pub fn percentile_ns(&self, p: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let want = crate::stats::rank(usize::try_from(self.count).unwrap_or(usize::MAX), p) as u64;
        let mut seen = 0u64;
        for (ns, &c) in self.buckets.iter().enumerate() {
            if seen + c >= want {
                return ns as f64 + (want - seen) as f64 / c as f64;
            }
            seen += c;
        }
        (CALL_BUCKETS - 1) as f64
    }
}

/// Span recorder; a disabled tracer runs the wrapped calls untouched.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    calls: BTreeMap<&'static str, CallStats>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            calls: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; returns its handle for [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, req: u64) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
            agg_ns: 0,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the span `idx` (and any span left open inside it).
    pub fn close(&mut self, idx: usize) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end;
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name, req);
        let out = f();
        self.close(idx);
        out
    }

    /// Runs `f` as one aggregated call of `name`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls
            .entry(name)
            .or_insert_with(CallStats::new)
            .record(ns);
        if let Some(&top) = self.open.last() {
            self.spans[top].agg_ns += ns;
        }
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The aggregate of `name`, if it was ever called.
    pub fn calls(&self, name: &str) -> Option<&CallStats> {
        self.calls.get(name)
    }

    /// The spans as JSON lines, followed by one line per aggregated call.
    pub fn to_jsonl(&self) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"self_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req, self_ns[i]
            );
        }
        for (name, c) in &self.calls {
            let _ = writeln!(
                out,
                "{{\"calls\":\"{name}\",\"count\":{},\"total_ns\":{},\"p50_ns\":{}}}",
                c.count,
                c.total_ns,
                c.percentile_ns(5_000)
            );
        }
        out
    }
}

/// Length of the union of `[start, end)` intervals.
pub fn union_ns(intervals: &[(u64, u64)]) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.iter().copied().filter(|(a, b)| b > a).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Self time of every span: its duration minus the part of it covered
/// by its child spans (clipped to the parent) and by aggregated calls
/// made directly inside it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            children[p].push((s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            s.len_ns()
                .saturating_sub(union_ns(kids))
                .saturating_sub(s.agg_ns)
        })
        .collect()
}

/// Summed duration of the spans named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::len_ns)
        .sum()
}

/// Durations of the spans named `name`, in µs.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.len_ns() as f64 / 1e3)
        .collect()
}

/// `part / whole`, 0 when `whole` is 0.
pub fn share(part_ns: u64, whole_ns: u64) -> f64 {
    if whole_ns == 0 {
        0.0
    } else {
        part_ns as f64 / whole_ns as f64
    }
}

/// Share of `wall_ns` spent inside layer spans: the union of every layer
/// span plus aggregated calls made directly inside benchmark spans.
pub fn coverage(spans: &[Span], wall_ns: u64) -> f64 {
    let layer: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.is_layer())
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let agg: u64 = spans
        .iter()
        .filter(|s| !s.is_layer())
        .map(|s| s.agg_ns)
        .sum();
    share(union_ns(&layer) + agg, wall_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
            agg_ns: 0,
        }
    }

    #[test]
    fn union_merges_overlaps_and_skips_empty_intervals() {
        assert_eq!(union_ns(&[]), 0);
        assert_eq!(union_ns(&[(0, 10), (5, 15), (20, 25), (30, 30)]), 20);
        assert_eq!(union_ns(&[(20, 25), (0, 10), (10, 12)]), 17);
        assert_eq!(union_ns(&[(0, 100), (10, 20), (30, 40)]), 100);
    }

    #[test]
    fn self_time_subtracts_children_and_aggregated_calls() {
        let mut spans = vec![
            span("bench.rep", 0, 100, None),
            span("rack.attach", 10, 30, Some(0)),
            span("rack.window", 40, 90, Some(0)),
            // Overlaps its sibling and sticks out of its parent's end:
            // only the covered, clipped part counts once.
            span("obs.snapshot", 80, 120, Some(0)),
        ];
        spans[2].agg_ns = 15;
        let st = self_times(&spans);
        // rep: 100 - |[10,30) ∪ [40,100)| = 100 - 80.
        assert_eq!(st[0], 20);
        assert_eq!(st[1], 20);
        assert_eq!(st[2], 35);
        assert_eq!(st[3], 40);
    }

    #[test]
    fn shares_and_coverage_count_layer_time_once() {
        let mut spans = vec![
            span("bench.timed", 0, 1_000, None),
            span("rack.window", 100, 400, Some(0)),
            span("sweep.inner", 150, 350, Some(1)),
            span("obs.snapshot", 500, 600, Some(0)),
        ];
        // 200 ns of aggregated calls made directly in the timed phase.
        spans[0].agg_ns = 200;
        assert_eq!(total_ns(&spans, "rack.window"), 300);
        assert!((share(total_ns(&spans, "rack.window"), 1_000) - 0.3).abs() < 1e-12);
        // Layer union 300 + 100, nested span not double counted, + 200.
        assert!((coverage(&spans, 1_000) - 0.6).abs() < 1e-12);
        assert_eq!(share(5, 0), 0.0);
        assert_eq!(durations_us(&spans, "obs.snapshot"), vec![0.1]);
    }

    #[test]
    fn tracer_nests_spans_and_charges_calls_to_the_open_span() {
        let mut t = Tracer::new(true);
        let outer = t.open("bench.rep", 0);
        let v = t.span("fabric.build", 7, || t_work(3));
        let w = t.call("fabric.step", || t_work(2));
        t.close(outer);
        assert_eq!((v, w), (3, 2));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let calls = t.calls("fabric.step").expect("recorded");
        assert_eq!(calls.count, 1);
        assert_eq!(spans[0].agg_ns, calls.total_ns);
        assert!(t.to_jsonl().lines().count() == 3);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", 0, || 5), 5);
        assert_eq!(off.call("y", || 6), 6);
        assert!(off.spans().is_empty() && off.calls("y").is_none());
    }

    #[test]
    fn call_percentiles_come_from_the_histogram() {
        let mut c = CallStats::new();
        for ns in [100, 200, 300, 400, 1_000_000] {
            c.record(ns);
        }
        // One call per bucket: the rank's sample sits at its bucket's top.
        assert_eq!(c.percentile_ns(5_000), 301.0);
        assert_eq!(c.percentile_ns(10_000), CALL_BUCKETS as f64);
        // Four calls in one bucket: the median is the second of them.
        let mut d = CallStats::new();
        for ns in [120, 120, 120, 120] {
            d.record(ns);
        }
        assert_eq!(d.percentile_ns(5_000), 120.5);
        assert_eq!(c.total_ns, 1_001_000);
    }

    fn t_work(n: u64) -> u64 {
        std::hint::black_box(n)
    }
}
