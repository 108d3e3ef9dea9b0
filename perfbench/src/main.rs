//! Host-side throughput benchmark of the ThymesisFlow simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stream_p2p|torus_cut|rack_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats one fixed, seeded amount of simulated work (a *rep*)
//! until `--seconds` of wall time have passed, checks that every rep
//! produced the same simulated digest and that every load was accounted
//! for, and prints one JSON object as the last line of standard output.
//! With `--trace 0` it reports the end-to-end metrics (medians over the
//! reps); with `--trace 1` it alternates untraced and traced reps and
//! reports the per-layer metrics, the tracing overhead from those pairs,
//! and writes the spans to `perfbench/out/`.

mod rack_churn;
mod stats;
mod stream_p2p;
mod torus_cut;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use simkit::time::SimTime;

use crate::stats::{median, overhead_frac, percentile, tail_percentile};
use crate::trace::{coverage, durations_us, share, total_ns, Tracer};

/// Fewest reps (or traced/untraced pairs) a run makes, however long
/// they take.
const MIN_REPS: usize = 3;

/// What one repetition of a workload measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Set-up wall time spent building topology, fabrics or rack.
    pub build_s: f64,
    /// Set-up wall time spent attaching the initial paths or leases.
    pub attach_s: f64,
    /// Wall time of the timed phase.
    pub timed_s: f64,
    /// Loads retired in the timed phase.
    pub loads: u64,
    /// Simulated events processed in the timed phase.
    pub events: u64,
    /// Simulated microseconds the timed phase advanced.
    pub sim_us: f64,
    /// Operations attempted: loads issued plus rack calls made.
    pub ops: u64,
    /// Operations failed, plus failed checks.
    pub failed: u64,
    /// What failed, for the log.
    pub problems: Vec<String>,
    /// The simulated digest: it must not change between reps of one seed,
    /// traced or not, nor under a speed-only change.
    pub digest: String,
    /// Exact per-layer counts (repeat bit-for-bit at one seed).
    pub exact: BTreeMap<&'static str, f64>,
    /// Per-layer wall-clock figures only a traced rep measures.
    pub measured: BTreeMap<&'static str, f64>,
    /// `stream_p2p` paper check: idle load-to-use (ns) and bonded GiB/s.
    pub probe_ns: f64,
    pub gib_s: f64,
}

impl Rep {
    /// Records one failed operation or check.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.problems.push(msg);
    }

    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.exact.insert(name, value);
    }

    pub fn measured(&mut self, name: &'static str, value: f64) {
        self.measured.insert(name, value);
    }

    fn setup_s(&self) -> f64 {
        self.build_s + self.attach_s
    }
}

/// Order-sensitive fold of one completion into a digest.
pub fn fold_completion(fold: u64, tag: u64, path: u32, latency: SimTime) -> u64 {
    let mixed = tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ u64::from(path).wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
        ^ latency.as_ps().wrapping_mul(0x1656_67b1_9e37_79f9);
    fold.rotate_left(7) ^ mixed
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    StreamP2p,
    TorusCut,
    RackChurn,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "stream_p2p" => Some(Workload::StreamP2p),
            "torus_cut" => Some(Workload::TorusCut),
            "rack_churn" => Some(Workload::RackChurn),
            _ => None,
        }
    }

    /// Worker threads of the parallel reps traced runs add, for the
    /// workloads that have a parallel path.
    fn parallel_workers(self) -> Option<usize> {
        match self {
            Workload::StreamP2p => None,
            Workload::TorusCut => Some(torus_cut::PARALLEL_WORKERS),
            Workload::RackChurn => Some(rack_churn::PARALLEL_WORKERS),
        }
    }

    /// One repetition on `workers` threads; a panic inside the simulator
    /// counts as a failed operation instead of ending the run without a
    /// result.
    fn rep(self, seed: u64, workers: usize, tr: &mut Tracer) -> Rep {
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match self {
            Workload::StreamP2p => stream_p2p::rep(seed, tr),
            Workload::TorusCut => torus_cut::rep(seed, workers, tr),
            Workload::RackChurn => rack_churn::rep(seed, workers, tr),
        }));
        out.unwrap_or_else(|_| {
            let mut rep = Rep::default();
            rep.fail("the simulator panicked (message on stderr)".to_string());
            rep
        })
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key, value);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?.clone();
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    if let Some(extra) = kv
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(Args {
        workload,
        name,
        seed,
        seconds,
        trace,
    })
}

/// Everything a run produced, before it is turned into metrics.
struct Run {
    /// Peak resident set once the first rep has run, in MiB. Later reps
    /// only re-use (and fragment) the same heap, so the first rep's peak
    /// is the workload's, independent of how many reps the time allows.
    peak_rss_mb: f64,
    plain: Vec<Rep>,
    traced: Vec<Rep>,
    pairs: Vec<(f64, f64)>,
    tracer: Tracer,
    /// Traced reps on the workload's parallel path, with their own spans.
    parallel: Vec<Rep>,
}

impl Run {
    /// Every rep the run made.
    fn reps(&self) -> impl Iterator<Item = &Rep> {
        self.plain.iter().chain(&self.traced).chain(&self.parallel)
    }
}

/// Repeats the workload until the time budget is spent. Untraced runs
/// make plain reps only; traced runs alternate a plain and a traced rep,
/// keep their wall times as pairs, and add one rep on the parallel path
/// where the workload has one.
///
/// Plain and traced reps run on one thread: on a small shared host the
/// wall time of threads meeting at barriers swings with every stolen
/// time slice, far beyond any bound a regression check could use.
fn execute(args: &Args) -> Run {
    let start = Instant::now();
    let mut run = Run {
        peak_rss_mb: 0.0,
        plain: Vec::new(),
        traced: Vec::new(),
        pairs: Vec::new(),
        tracer: Tracer::new(true),
        parallel: Vec::new(),
    };
    let mut off = Tracer::new(false);
    let mut par_tracer = Tracer::new(true);
    loop {
        let t = Instant::now();
        let plain = args.workload.rep(args.seed, 1, &mut off);
        let plain_s = t.elapsed().as_secs_f64();
        let stop = plain.failed > 0;
        run.plain.push(plain);
        if run.plain.len() == 1 {
            run.peak_rss_mb = peak_rss_mb();
        }
        if args.trace && !stop {
            let t = Instant::now();
            let span = run.tracer.open("bench.rep", run.traced.len() as u64);
            let traced = args.workload.rep(args.seed, 1, &mut run.tracer);
            run.tracer.close(span);
            run.pairs.push((plain_s, t.elapsed().as_secs_f64()));
            let mut stop = traced.failed > 0;
            run.traced.push(traced);
            if let (Some(workers), false) = (args.workload.parallel_workers(), stop) {
                let parallel = args.workload.rep(args.seed, workers, &mut par_tracer);
                stop = parallel.failed > 0;
                run.parallel.push(parallel);
            }
            if stop {
                break;
            }
        }
        if stop || (start.elapsed().as_secs_f64() >= args.seconds && run.plain.len() >= MIN_REPS) {
            break;
        }
    }
    run
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The end-to-end metrics and their units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("loads_per_s", "loads/s"),
    ("sim_us_per_s", "us/s"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric and its unit, in report order.
const PER_LAYER: &[(&str, &str)] = &[
    ("fabric.issue_ns", "ns"),
    ("fabric.step_ns", "ns"),
    ("fabric.issue_share", "frac"),
    ("fabric.step_share", "frac"),
    ("fabric.event_ns", "ns"),
    ("event.events_per_load", "events/load"),
    ("event.events_per_step", "events/step"),
    ("llc.frames_per_load", "frames/load"),
    ("llc.replay_frac", "frac"),
    ("llc.credit_stalls_per_kload", "stalls/kload"),
    ("hop.frames_per_load", "frames/load"),
    ("hop.stall_ns_per_load", "sim_ns/load"),
    ("hop.queue_high_water", "frames"),
    ("routing.reroutes", "count"),
    ("recovery.loads_faulted", "count"),
    ("recovery.late_completions", "count"),
    ("partition.windows", "count"),
    ("partition.events_per_window", "events/window"),
    ("partition.messages", "count"),
    ("partition.busy_ms", "ms"),
    ("partition.stall_frac", "frac"),
    ("partition.imbalance", "ratio"),
    ("partition.speedup", "ratio"),
    ("rack.attach_us", "us"),
    ("rack.attach_tail_us", "us"),
    ("rack.attach_tail_pct", "pct"),
    ("rack.attach_samples", "count"),
    ("rack.detach_us", "us"),
    ("rack.slo_eval_us", "us"),
    ("rack.window_ms", "ms"),
    ("rack.control_share", "frac"),
    ("rack.attach_ok_frac", "frac"),
    ("sweep.imbalance", "ratio"),
    ("sweep.speedup", "ratio"),
    ("obs.snapshot_us", "us"),
    ("obs.congestion_us", "us"),
    ("obs.journal_records", "count"),
    ("obs.share", "frac"),
    ("setup.build_ms", "ms"),
    ("setup.attach_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.coverage", "frac"),
];

/// Per-layer metrics that count work of layers a workload must leave
/// idle; the benchmark checks they read zero there.
fn idle_layers(w: Workload) -> Vec<&'static str> {
    let mut idle = Vec::new();
    if w != Workload::TorusCut {
        idle.extend(
            PER_LAYER
                .iter()
                .map(|p| p.0)
                .filter(|n| n.starts_with("partition.")),
        );
    }
    if w == Workload::StreamP2p {
        idle.extend([
            "hop.frames_per_load",
            "hop.stall_ns_per_load",
            "hop.queue_high_water",
            "llc.replay_frac",
        ]);
    }
    idle
}

fn p50(values: &[f64]) -> f64 {
    percentile(values, 5_000)
}

/// The per-layer metrics of a traced run.
fn per_layer(w: Workload, run: &Run, log: &mut String) -> BTreeMap<&'static str, f64> {
    let tr = &run.tracer;
    let spans = tr.spans();
    let wall = total_ns(spans, "bench.rep");
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    if let Some(first) = run.traced.first() {
        m.extend(first.exact.iter().map(|(k, v)| (*k, *v)));
    }
    let events: u64 = run.traced.iter().map(|r| r.events).sum();
    let ns_per_event = |ns: f64| if events == 0 { 0.0 } else { ns / events as f64 };
    let (issue, step) = (tr.calls("fabric.issue_read"), tr.calls("fabric.step"));
    m.insert(
        "fabric.issue_ns",
        issue.map_or(0.0, |c| c.percentile_ns(5_000)),
    );
    m.insert(
        "fabric.step_ns",
        step.map_or(0.0, |c| c.percentile_ns(5_000)),
    );
    m.insert(
        "fabric.issue_share",
        share(issue.map_or(0, |c| c.total_ns), wall),
    );
    m.insert(
        "fabric.step_share",
        share(step.map_or(0, |c| c.total_ns), wall),
    );
    m.insert(
        "fabric.event_ns",
        ns_per_event(match w {
            Workload::StreamP2p => step.map_or(0, |c| c.total_ns) as f64,
            Workload::TorusCut => run
                .traced
                .iter()
                .filter_map(|r| r.measured.get("partition.busy_sum_ns"))
                .sum(),
            Workload::RackChurn => total_ns(spans, "rack.window") as f64,
        }),
    );
    // Worker busy, stall and balance come from the parallel reps; the
    // speedup compares them with the traced one-worker reps.
    let parallel = |name: &str| -> f64 {
        let v: Vec<f64> = run
            .parallel
            .iter()
            .filter_map(|r| r.measured.get(name).copied())
            .collect();
        median(&v)
    };
    m.insert("partition.busy_ms", parallel("partition.busy_ns") / 1e6);
    m.insert("partition.stall_frac", parallel("partition.stall_frac"));
    m.insert("partition.imbalance", parallel("partition.imbalance"));
    let timed = |reps: &[Rep]| median(&reps.iter().map(|r| r.timed_s).collect::<Vec<_>>());
    if !run.parallel.is_empty() {
        let speedup = timed(&run.traced) / timed(&run.parallel);
        match w {
            Workload::TorusCut => m.insert("partition.speedup", speedup),
            Workload::RackChurn => m.insert("sweep.speedup", speedup),
            Workload::StreamP2p => None,
        };
    }

    let attach = durations_us(spans, "rack.attach");
    m.insert("rack.attach_us", p50(&attach));
    m.insert("rack.attach_samples", attach.len() as f64);
    if let Some(p) = tail_percentile(attach.len()) {
        m.insert("rack.attach_tail_us", percentile(&attach, p));
        m.insert("rack.attach_tail_pct", p as f64 / 100.0);
        let _ = writeln!(
            log,
            "rack.attach tail: p{} of {} samples = {:.1} us",
            p as f64 / 100.0,
            attach.len(),
            percentile(&attach, p)
        );
    }
    m.insert("rack.detach_us", p50(&durations_us(spans, "rack.detach")));
    m.insert(
        "rack.slo_eval_us",
        p50(&durations_us(spans, "rack.slo_eval")),
    );
    m.insert(
        "rack.window_ms",
        p50(&durations_us(spans, "rack.window")) / 1e3,
    );
    let control: u64 = ["rack.attach", "rack.detach", "rack.slo_eval", "rack.crash"]
        .iter()
        .map(|n| total_ns(spans, n))
        .sum();
    m.insert("rack.control_share", share(control, wall));
    m.insert("obs.snapshot_us", p50(&durations_us(spans, "obs.snapshot")));
    m.insert(
        "obs.congestion_us",
        p50(&durations_us(spans, "obs.congestion")),
    );
    m.insert(
        "obs.share",
        share(
            total_ns(spans, "obs.snapshot") + total_ns(spans, "obs.congestion"),
            wall,
        ),
    );
    let build: Vec<f64> = run.plain.iter().map(|r| r.build_s * 1e3).collect();
    let attach_ms: Vec<f64> = run.plain.iter().map(|r| r.attach_s * 1e3).collect();
    m.insert("setup.build_ms", median(&build));
    m.insert("setup.attach_ms", median(&attach_ms));
    m.insert("trace.overhead_frac", overhead_frac(&run.pairs));
    m.insert("trace.coverage", coverage(spans, wall));
    for (name, _) in PER_LAYER {
        m.entry(name).or_insert(0.0);
    }
    m
}

/// Checks that hold for every run: reps agree, idle layers stayed idle,
/// and (traced) layer spans appear only on the workload that owns them.
fn cross_checks(
    w: Workload,
    run: &Run,
    layers: Option<&BTreeMap<&'static str, f64>>,
) -> Vec<String> {
    let mut bad = Vec::new();
    let all: Vec<&Rep> = run.reps().collect();
    if let Some(first) = all.first() {
        for (i, r) in all.iter().enumerate() {
            if r.failed == 0 && (r.digest != first.digest || r.exact != first.exact) {
                bad.push(format!(
                    "rep {i} diverged from rep 0:\n  {}\n  {}",
                    r.digest, first.digest
                ));
            }
        }
        for name in idle_layers(w) {
            let v = layers
                .and_then(|l| l.get(name))
                .or_else(|| first.exact.get(name))
                .copied()
                .unwrap_or(0.0);
            if v != 0.0 {
                bad.push(format!(
                    "{name} = {v} on a workload that must leave it idle"
                ));
            }
        }
    }
    if layers.is_some() {
        for s in run.tracer.spans() {
            let foreign = (s.name.starts_with("rack.") || s.name.starts_with("obs."))
                && w != Workload::RackChurn
                || s.name.starts_with("partition.") && w != Workload::TorusCut;
            if foreign {
                bad.push(format!(
                    "span {} recorded on a workload that bypasses it",
                    s.name
                ));
                break;
            }
        }
    }
    bad
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <stream_p2p|torus_cut|rack_churn> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let run = execute(&args);
    let mut log = String::new();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let _ = writeln!(
        log,
        "workload {} seed {} trace {}: {} plain + {} traced + {} parallel reps on {cores} cores",
        args.name,
        args.seed,
        u8::from(args.trace),
        run.plain.len(),
        run.traced.len(),
        run.parallel.len()
    );
    let first = &run.plain[0];
    let _ = writeln!(log, "digest: {}", first.digest);
    if args.workload == Workload::StreamP2p && first.failed == 0 {
        let err = |got: f64, paper: f64| (got / paper - 1.0) * 100.0;
        let _ = writeln!(
            log,
            "paper check: idle load-to-use {:.1} ns (paper ~{:.0} ns, error {:+.1}%), \
             bonded stream {:.2} GiB/s (paper ~{:.0} GiB/s, error {:+.1}%); \
             beyond these two figures the model is unvalidated",
            first.probe_ns,
            stream_p2p::PAPER_LOAD_TO_USE_NS,
            err(first.probe_ns, stream_p2p::PAPER_LOAD_TO_USE_NS),
            first.gib_s,
            stream_p2p::PAPER_BONDED_GIB_S,
            err(first.gib_s, stream_p2p::PAPER_BONDED_GIB_S),
        );
    }

    let layers = args.trace.then(|| per_layer(args.workload, &run, &mut log));
    let mut problems: Vec<String> = run
        .reps()
        .flat_map(|r| r.problems.iter().cloned())
        .collect();
    let checks = cross_checks(args.workload, &run, layers.as_ref());
    let attempted: u64 = run.reps().map(|r| r.ops).sum();
    let failed: u64 = run.reps().map(|r| r.failed).sum::<u64>() + checks.len() as u64;
    problems.extend(checks);

    let metrics: Vec<(&str, f64, &str)> = match &layers {
        Some(layers) => PER_LAYER.iter().map(|&(n, u)| (n, layers[n], u)).collect(),
        None => {
            let per =
                |f: &dyn Fn(&Rep) -> f64| median(&run.plain.iter().map(f).collect::<Vec<_>>());
            let values = [
                per(&Rep::setup_s),
                per(&|r: &Rep| r.loads as f64 / r.timed_s),
                per(&|r: &Rep| r.sim_us / r.timed_s),
                run.peak_rss_mb,
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(n, u), v)| (n, v, u))
                .collect()
        }
    };
    for (name, value, unit) in &metrics {
        let _ = writeln!(log, "{name:<30} {value:>16.6} {unit}");
    }
    if problems.is_empty() {
        let _ = writeln!(log, "check: ok ({attempted} operations)");
    } else {
        for p in problems.iter().take(20) {
            let _ = writeln!(log, "check FAILED: {p}");
        }
    }
    if args.trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let file = format!("{dir}/{}-seed{}.spans.jsonl", args.name, args.seed);
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&file, run.tracer.to_jsonl()))
        {
            Ok(()) => {
                let _ = writeln!(log, "spans written to {file}");
            }
            Err(e) => {
                let _ = writeln!(log, "spans not written: {e}");
            }
        }
    }
    print!("{log}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        attempted.max(1),
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn benchmark_json_declares_every_reported_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json at the repository root")
            .split_whitespace()
            .collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(
                spec.contains(&entry),
                "{name} [{unit}] missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            spec.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let ok = args("--workload torus_cut --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (ok.workload, ok.seed, ok.trace),
            (Workload::TorusCut, 7, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload stream_p2p --seed -1 --seconds 1 --trace 0",
            "--workload stream_p2p --seed 1 --seconds 0 --trace 0",
            "--workload stream_p2p --seed 1 --seconds 1 --trace 2",
            "--workload stream_p2p --seed 1 --seconds 1",
            "--workload stream_p2p --seed 1 --seconds 1 --trace 0 --extra 1",
            "stray",
        ] {
            assert!(args(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn idle_layers_follow_the_workload() {
        let stream = idle_layers(Workload::StreamP2p);
        assert!(stream.contains(&"llc.replay_frac") && stream.contains(&"partition.windows"));
        assert!(!idle_layers(Workload::TorusCut)
            .iter()
            .any(|n| n.starts_with("partition.")));
        assert!(idle_layers(Workload::RackChurn).contains(&"partition.messages"));
    }
}
