//! Engine throughput — how fast the simulator itself runs.
//!
//! Every figure in the evaluation is bottlenecked by the discrete-event
//! core: the proto datapath schedules one event per 2.494 ns flit-clock
//! tick, so reproducing a 200 µs stream window means popping ~10⁵
//! events per channel. This harness measures the hybrid calendar/heap
//! engine against the reference pure-`BinaryHeap` engine on exactly
//! that workload shape (dense flit ticks + ~950 ns RTT responses +
//! same-instant completion bursts), times the full datapath end to end
//! on both engines, measures the partitioned conservative-parallel
//! engine's scaling curve, and records sweep wall-clocks for
//! representative figures.
//!
//! Full-mode results land in `BENCH_engine.json` at the workspace root
//! (the committed artifact: run `cargo bench -p bench --bench
//! engine_throughput` with no `QUICK` to refresh it). `QUICK=1` shrinks
//! everything to a CI smoke run, skips the assertions that need
//! steady-state measurement windows, and writes to
//! `target/BENCH_engine.quick.json` instead so a smoke run can never
//! overwrite the committed full-mode numbers.
//!
//! Partitioned scaling on a throttled CI box: wall-clock cannot show
//! parallel speedup when `nproc` is 1, so the partitioned record scores
//! *critical-path throughput* — aggregate events divided by the longest
//! per-worker busy time (window execution only, excluding barrier
//! waits), measured through the runner's [`WindowClock`] hook. On real
//! hardware the same number is what wall-clock converges to.

use std::time::Instant;

use bench::{banner, compare, header, row};
use criterion::{criterion_group, criterion_main, Criterion};
use serde::Value;
use simkit::event::{Engine, EventQueue};
use simkit::partition::WindowClock;
use simkit::rng::DetRng;
use simkit::sweep::{sweep_with_workers, worker_count};
use simkit::time::SimTime;
use thymesisflow_core::config::SystemConfig;
use routing::topology::Torus2D;
use thymesisflow_core::fabric::{FabricBuilder, PartitionedFabric, PathSpec, WorkloadSpec};
use thymesisflow_core::params::DatapathParams;
use workloads::fleet::FleetScenario;
use workloads::runner::WorkloadRunner;
use workloads::stream::StreamBench;
use workloads::ycsb::YcsbWorkload;

/// One flit-clock tick of the 401.6 MHz datapath (§V prototype).
const FLIT_PS: u64 = 2_494;
/// RTT-scale response delay (~950 ns hardware flit round trip).
const RTT_PS: u64 = 950_000;
const MASTER_SEED: u64 = 0x7F_E47;
/// Committed full-mode artifact.
const OUT_FULL: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
/// Smoke-run scratch output (never committed, never clobbers the full
/// numbers).
const OUT_QUICK: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../target/BENCH_engine.quick.json"
);

fn quick() -> bool {
    std::env::var("QUICK").is_ok()
}

/// Wall-clock window stamps for the partition runner. Only the bench
/// harness implements this — simulation crates pass `NullClock`, so
/// the wall-clock ban (TF007) stays intact where determinism matters.
struct WallClock(Instant);

impl WindowClock for WallClock {
    fn stamp(&self) -> u64 {
        // Truncation is fine: busy sums are deltas within one run.
        self.0.elapsed().as_nanos() as u64
    }
}

/// The vendored `serde::Value` is a plain tree without a blanket
/// `Serialize` impl; this wrapper hands it to `serde_json` as-is.
struct Report(Value);

impl serde::Serialize for Report {
    fn serialize(&self) -> Value {
        self.0.clone()
    }
}

struct EngineRate {
    events: u64,
    wall_s: f64,
}

impl EngineRate {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s.max(1e-9)
    }
}

/// Proto-datapath-shaped queue workload: a closed-loop population of
/// in-flight transactions spread at flit-clock granularity over a ~4 µs
/// window (threads × window outstanding reads on the wire), RTT-scale
/// responses, and periodic same-instant completion bursts. Steady state
/// — every pop issues its successor — so the pending population stays
/// constant and the measurement isolates schedule+pop cost. The mix is
/// a pure function of the pop count, so both engines see the identical
/// event sequence.
fn flit_workload(engine: Engine, total_pops: u64) -> EngineRate {
    const STREAMS: u64 = 16;
    const IN_FLIGHT: u64 = 2_048;
    /// Closed-loop reissue horizon: ~1600 flit ticks ≈ 4.0 µs.
    const WINDOW_PS: u64 = FLIT_PS * 1_600;
    let mut q = EventQueue::with_engine(engine);
    let mut tag = 0u64;
    for s in 0..STREAMS {
        for k in 0..IN_FLIGHT {
            q.schedule(
                SimTime::from_ps(s + 1 + k * (WINDOW_PS / IN_FLIGHT)),
                tag,
            );
            tag += 1;
        }
    }
    let start = Instant::now();
    let mut popped = 0u64;
    while popped < total_pops {
        let Some((at, v)) = q.pop() else { break };
        popped += 1;
        // Deterministic mix (identical for both engines): mostly a
        // closed-loop reissue one window out, every 16th an RTT-scale
        // response, every 64th a same-instant companion (completion
        // fan-out).
        let next = match popped % 64 {
            0 => at,
            n if n % 16 == 0 => at + SimTime::from_ps(RTT_PS),
            _ => at + SimTime::from_ps(WINDOW_PS),
        };
        q.schedule(next, v);
    }
    EngineRate {
        events: popped,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Full datapath on one engine: wall-clock, model bandwidth, events.
fn datapath_run(engine: Engine, duration_us: u64) -> (f64, f64, u64) {
    let (mut fabric, path) = FabricBuilder::point_to_point_with_engine(
        DatapathParams::prototype(),
        2,
        256 << 20,
        engine,
    )
    .expect("reference topology assembles");
    let start = Instant::now();
    let gib = fabric
        .measure_stream_bandwidth(path, 16, 32, SimTime::from_us(duration_us))
        .expect("reference path streams")
        .as_gib_per_sec();
    (
        start.elapsed().as_secs_f64(),
        gib,
        fabric.events_processed(),
    )
}

/// Times one figure-representative sweep and returns its JSON record.
fn timed_sweep<C, R, F>(figure: &str, points: Vec<C>, run: F) -> Value
where
    C: Send,
    R: Send,
    F: Fn(usize, C, DetRng) -> R + Sync,
{
    let n = points.len();
    // Always exercise the parallel sweep path: on a single-core CI box
    // `worker_count()` is 1, which would silently take the inline path
    // and record a sweep that never touched the harness. The recorded
    // `workers` field is asserted > 1 by the bench-report regression
    // test.
    let workers = worker_count().max(2);
    let start = Instant::now();
    let _ = sweep_with_workers(MASTER_SEED, points, workers, run);
    let wall_s = start.elapsed().as_secs_f64();
    println!(
        "{figure:>24}: {n:>3} points on {workers} worker(s) in {:.1} ms",
        wall_s * 1e3
    );
    Value::Map(vec![
        ("figure".to_string(), Value::Str(figure.to_string())),
        ("points".to_string(), Value::UInt(n as u64)),
        ("workers".to_string(), Value::UInt(workers as u64)),
        ("wall_s".to_string(), Value::Float(wall_s)),
    ])
}

fn engine_record(r: &EngineRate) -> Value {
    Value::Map(vec![
        ("events".to_string(), Value::UInt(r.events)),
        ("wall_s".to_string(), Value::Float(r.wall_s)),
        (
            "events_per_sec".to_string(),
            Value::Float(r.events_per_sec()),
        ),
    ])
}

fn reproduce() {
    let quick = quick();
    banner("Engine throughput — hybrid calendar/heap vs pure BinaryHeap");

    // --- queue-level flit workload -----------------------------------
    let pops: u64 = if quick { 100_000 } else { 2_000_000 };
    // Warm both engines once so page faults / lazy allocs don't skew
    // whichever runs first.
    let _ = flit_workload(Engine::Hybrid, pops / 10);
    let _ = flit_workload(Engine::HeapOnly, pops / 10);
    let hybrid = flit_workload(Engine::Hybrid, pops);
    let heap = flit_workload(Engine::HeapOnly, pops);
    let speedup = hybrid.events_per_sec() / heap.events_per_sec();
    header(&["engine", "events", "wall ms", "Mevents/s"]);
    for (name, r) in [("hybrid", &hybrid), ("heap-only", &heap)] {
        row(
            name,
            &[
                r.events as f64,
                r.wall_s * 1e3,
                r.events_per_sec() / 1e6,
            ],
        );
    }
    compare("queue speedup (flit workload)", 3.0, speedup, "x");

    // --- end-to-end datapath -----------------------------------------
    let dur_us: u64 = if quick { 40 } else { 400 };
    let (hy_wall, hy_gib, hy_events) = datapath_run(Engine::Hybrid, dur_us);
    let (hp_wall, hp_gib, hp_events) = datapath_run(Engine::HeapOnly, dur_us);
    let dp_speedup = hp_wall / hy_wall.max(1e-9);
    println!("\nend-to-end datapath ({dur_us} µs simulated, 2 channels, 16 threads):");
    header(&["engine", "wall ms", "GiB/s", "events"]);
    row("hybrid", &[hy_wall * 1e3, hy_gib, hy_events as f64]);
    row("heap-only", &[hp_wall * 1e3, hp_gib, hp_events as f64]);
    println!("datapath wall-clock speedup (informational): {dp_speedup:.2}x");
    // Both engines must trace the same simulation.
    assert!(hy_gib.to_bits() == hp_gib.to_bits(), "engines diverged");
    assert_eq!(hy_events, hp_events, "event counts diverged");

    // --- fabric parity ------------------------------------------------
    // The fabric's point-to-point topology must hold the pre-refactor
    // prototype numbers: ~950 ns flit RTT (+DRAM) and the
    // ~10 GiB/s single-channel stream.
    let (mut fabric, path) =
        FabricBuilder::point_to_point(DatapathParams::prototype(), 1, 256 << 20)
            .expect("reference topology assembles");
    let fabric_rtt = fabric
        .measure_load_latency(path)
        .expect("lossless probe completes");
    let fabric_gib = fabric
        .measure_stream_bandwidth(path, 8, 32, SimTime::from_us(100))
        .expect("reference path streams")
        .as_gib_per_sec();
    println!("\nfabric point-to-point parity: {fabric_rtt} RTT, {fabric_gib:.2} GiB/s");
    assert!(
        (950..=1200).contains(&fabric_rtt.as_ns()),
        "fabric RTT {fabric_rtt} off the prototype envelope"
    );
    assert!(
        (8.5..=11.64).contains(&fabric_gib),
        "fabric stream {fabric_gib} GiB/s off the prototype envelope"
    );

    // --- telemetry overhead ------------------------------------------
    // The observability layer must be a pure observer (bit-identical
    // simulation) and the always-on tier — the metrics registry — must
    // be cheap enough to leave enabled: the budget is 10% wall-clock on
    // the reference stream. Full per-load span tracing retains whole
    // traces and is a probe-time facility; its cost is recorded as an
    // informational third column, not budgeted.
    #[derive(Clone, Copy)]
    enum Tele {
        Off,
        Registry,
        Tracing,
    }
    let tele_us: u64 = if quick { 40 } else { 200 };
    let stream_with_telemetry = |mode: Tele| {
        let (mut fabric, path) =
            FabricBuilder::point_to_point(DatapathParams::prototype(), 2, 256 << 20)
                .expect("reference topology assembles");
        match mode {
            Tele::Off => fabric.set_telemetry(false),
            Tele::Registry => {
                fabric.set_telemetry(true);
                fabric.set_tracing(false);
            }
            Tele::Tracing => fabric.set_telemetry(true),
        }
        let start = Instant::now();
        let gib = fabric
            .measure_stream_bandwidth(path, 16, 32, SimTime::from_us(tele_us))
            .expect("reference path streams")
            .as_gib_per_sec();
        (start.elapsed().as_secs_f64(), gib, fabric.events_processed())
    };
    // Warm every configuration, then keep the best of three walls each
    // so a scheduler hiccup doesn't fail the overhead budget.
    let _ = stream_with_telemetry(Tele::Off);
    let _ = stream_with_telemetry(Tele::Tracing);
    let mut tele_off = (f64::MAX, 0.0, 0u64);
    let mut tele_reg = (f64::MAX, 0.0, 0u64);
    let mut tele_trace = (f64::MAX, 0.0, 0u64);
    for _ in 0..3 {
        for (best, mode) in [
            (&mut tele_off, Tele::Off),
            (&mut tele_reg, Tele::Registry),
            (&mut tele_trace, Tele::Tracing),
        ] {
            let run = stream_with_telemetry(mode);
            if run.0 < best.0 {
                *best = run;
            }
        }
    }
    let tele_overhead = tele_reg.0 / tele_off.0.max(1e-9) - 1.0;
    let trace_overhead = tele_trace.0 / tele_off.0.max(1e-9) - 1.0;
    println!("\ntelemetry overhead ({tele_us} µs simulated stream):");
    header(&["telemetry", "wall ms", "GiB/s", "events"]);
    row("off", &[tele_off.0 * 1e3, tele_off.1, tele_off.2 as f64]);
    row("registry", &[tele_reg.0 * 1e3, tele_reg.1, tele_reg.2 as f64]);
    row(
        "reg+tracing",
        &[tele_trace.0 * 1e3, tele_trace.1, tele_trace.2 as f64],
    );
    println!(
        "registry overhead: {:.1}% (budget 10%); with full span tracing: {:.1}% (informational)",
        tele_overhead * 100.0,
        trace_overhead * 100.0
    );
    for instrumented in [&tele_reg, &tele_trace] {
        assert!(
            tele_off.1.to_bits() == instrumented.1.to_bits(),
            "telemetry changed the simulated bandwidth"
        );
        assert_eq!(tele_off.2, instrumented.2, "telemetry changed the event count");
    }

    // --- full observability-plane overhead ---------------------------
    // The whole plane at once: metrics registry, causal journal, and
    // Recorder-cadence polling (a snapshot plus a congestion report per
    // window) against a dark run of the same multi-hop torus stream.
    // Polling happens between stream slices — exactly how the
    // observatory example and `Rack::evaluate_slos` consume it — and
    // shares the registry's 10% wall-clock budget.
    let obs_us: u64 = if quick { 40 } else { 200 };
    let obs_windows: u64 = 8;
    let stream_with_obs = |observed: bool| {
        let torus = Torus2D::new(4, 4).expect("4x4 torus");
        let (mut fabric, paths) = FabricBuilder::from_topology(
            DatapathParams::prototype(),
            &torus,
            torus.host_at(0, 0),
        )
        .path_to(torus.host_at(2, 2), PathSpec::reference(256 << 20, 2))
        .build()
        .expect("torus fabric assembles");
        let path = paths[0];
        fabric.set_telemetry(observed);
        if observed {
            fabric.set_tracing(false);
            fabric.set_journal(true);
        }
        let slice = SimTime::from_us(obs_us / obs_windows);
        let start = Instant::now();
        for _ in 0..obs_windows {
            fabric
                .measure_stream_bandwidth(path, 16, 32, slice)
                .expect("torus path streams");
            if observed {
                let snap = fabric.telemetry_snapshot();
                assert!(!snap.is_empty(), "observed run saw no metrics");
                let report = fabric.congestion_report();
                assert!(report.links().len() >= 2, "torus reports its links");
            }
        }
        (start.elapsed().as_secs_f64(), fabric.events_processed())
    };
    let _ = stream_with_obs(true);
    let mut obs_off = (f64::MAX, 0u64);
    let mut obs_on = (f64::MAX, 0u64);
    for _ in 0..3 {
        for (best, observed) in [(&mut obs_off, false), (&mut obs_on, true)] {
            let run = stream_with_obs(observed);
            if run.0 < best.0 {
                *best = run;
            }
        }
    }
    assert_eq!(
        obs_off.1, obs_on.1,
        "the observability plane changed the event count"
    );
    let obs_overhead = obs_on.0 / obs_off.0.max(1e-9) - 1.0;
    println!(
        "\nobservability plane ({obs_us} µs torus stream, {obs_windows} polls): \
         dark {:.1} ms, observed {:.1} ms -> {:.1}% overhead (budget 10%)",
        obs_off.0 * 1e3,
        obs_on.0 * 1e3,
        obs_overhead * 100.0
    );

    // --- partitioned conservative-parallel engine --------------------
    // N whole fabric shards under lookahead-bounded windows with a
    // chained-load ring crossing shard boundaries. The score is
    // critical-path throughput: aggregate events over the longest
    // per-worker busy time. Digests must be bit-identical at every
    // worker count — the bench doubles as a determinism gate.
    let (part_shards, part_workload) = if quick {
        (4usize, WorkloadSpec::quick())
    } else {
        (
            8usize,
            WorkloadSpec {
                seeds_per_path: 512,
                seed_spacing: SimTime::from_ns(10),
                forward_budget: 64,
                hop: SimTime::from_ns(150),
            },
        )
    };
    let partitioned_run = |workers: usize| {
        let mut pf = PartitionedFabric::point_to_point(
            DatapathParams::prototype(),
            part_shards,
            2,
            256 << 20,
            part_workload,
        )
        .expect("partitioned reference topology assembles");
        let clock = WallClock(Instant::now());
        let stats = pf
            .run_timed(workers, &clock)
            .expect("partitioned run completes");
        let events = pf.total_events();
        let digests = pf.digests();
        (stats, events, digests)
    };
    // Warm once so first-touch page faults don't land in worker 1's bill.
    let _ = partitioned_run(1);
    println!("\npartitioned engine ({part_shards} shards, chained-ring workload):");
    header(&["workers", "events", "busy ms", "Mevents/s"]);
    let worker_axis: &[usize] = &[1, 2, 4];
    let mut part_points = Vec::new();
    let mut part_rates = Vec::new();
    let mut part_reference: Option<Vec<_>> = None;
    for &workers in worker_axis {
        let (stats, events, digests) = partitioned_run(workers);
        match &part_reference {
            None => part_reference = Some(digests),
            Some(want) => assert_eq!(
                want, &digests,
                "partitioned digests diverged at {workers} workers"
            ),
        }
        let busy_s = stats.critical_path() as f64 / 1e9;
        let rate = events as f64 / busy_s.max(1e-9);
        part_rates.push(rate);
        row(
            &format!("{workers}"),
            &[events as f64, busy_s * 1e3, rate / 1e6],
        );
        part_points.push(Value::Map(vec![
            ("workers".to_string(), Value::UInt(workers as u64)),
            ("events".to_string(), Value::UInt(events)),
            ("windows".to_string(), Value::UInt(stats.windows)),
            ("messages".to_string(), Value::UInt(stats.messages)),
            (
                "critical_path_ms".to_string(),
                Value::Float(busy_s * 1e3),
            ),
            ("events_per_sec".to_string(), Value::Float(rate)),
        ]));
    }
    let part_scaling = part_rates.last().copied().unwrap_or(0.0)
        / part_rates.first().copied().unwrap_or(1.0).max(1e-9);
    println!(
        "critical-path scaling at {} workers: {part_scaling:.2}x",
        worker_axis.last().copied().unwrap_or(1)
    );
    let engine_partitioned = Value::Map(vec![
        ("shards".to_string(), Value::UInt(part_shards as u64)),
        (
            "workers".to_string(),
            Value::UInt(worker_axis.last().copied().unwrap_or(1) as u64),
        ),
        (
            "events_per_sec".to_string(),
            Value::Float(part_rates.last().copied().unwrap_or(0.0)),
        ),
        ("scaling".to_string(), Value::Seq(part_points)),
        ("scaling_at_max".to_string(), Value::Float(part_scaling)),
    ]);

    // --- topology: multi-hop forwarding cost --------------------------
    // A 4×4 torus with a cross-rack (4-hop) routed path. Three numbers
    // pin the store-and-forward interior: the per-hop forwarding
    // increment (derived from a 1-hop neighbour on the same torus),
    // the idle single-load RTT, and the mean RTT under a closed burst
    // (credit backpressure queues frames at the hop segments; every
    // load still completes exactly once).
    let topo_record = reproduce_topology(quick);

    // --- fleet SLO scenario harness ----------------------------------
    // Thousands of zipf-skewed clients on a 4×4 torus, walked through
    // the steady → peak-with-chaos → recovery ladder. Scored on
    // wall-clock per worker count and pinned on shape: the chaos arm
    // must breach its calibrated contracts, and the whole structured
    // report must be byte-identical between 1 and 4 partition workers
    // — the bench doubles as the fleet determinism gate.
    let fleet_scenario = if quick {
        FleetScenario::quick(42)
    } else {
        FleetScenario::standard(42)
    };
    let fleet_start = Instant::now();
    let fleet_solo = fleet_scenario.run(1).expect("fleet scenario runs");
    let fleet_solo_wall = fleet_start.elapsed().as_secs_f64();
    let fleet_start = Instant::now();
    let fleet_four = fleet_scenario.run(4).expect("fleet scenario runs");
    let fleet_four_wall = fleet_start.elapsed().as_secs_f64();
    assert_eq!(
        fleet_solo.to_json(),
        fleet_four.to_json(),
        "fleet report diverged across worker counts"
    );
    assert!(
        !fleet_solo.breaches.is_empty(),
        "the fleet chaos ladder must breach its calibrated contracts"
    );
    assert!(
        fleet_solo.breaches.iter().any(|b| b.kind == "availability"),
        "the donor crash must cost availability"
    );
    let fleet_completed: u64 = fleet_solo.phases.iter().map(|p| p.completed).sum();
    println!(
        "\nfleet SLO scenario ({} clients, {} phases): {} loads, {} breaches; \
         1 worker {:.1} ms, 4 workers {:.1} ms, reports identical",
        fleet_solo.clients,
        fleet_solo.phases.len(),
        fleet_completed,
        fleet_solo.breaches.len(),
        fleet_solo_wall * 1e3,
        fleet_four_wall * 1e3
    );
    let fleet_record = Value::Map(vec![
        (
            "scenario".to_string(),
            Value::Str(fleet_solo.scenario.clone()),
        ),
        (
            "clients".to_string(),
            Value::UInt(u64::from(fleet_solo.clients)),
        ),
        (
            "phases".to_string(),
            Value::UInt(fleet_solo.phases.len() as u64),
        ),
        ("completed".to_string(), Value::UInt(fleet_completed)),
        (
            "breaches".to_string(),
            Value::UInt(fleet_solo.breaches.len() as u64),
        ),
        ("wall_s_1_worker".to_string(), Value::Float(fleet_solo_wall)),
        (
            "wall_s_4_workers".to_string(),
            Value::Float(fleet_four_wall),
        ),
        ("identical_across_workers".to_string(), Value::Bool(true)),
    ]);

    // --- per-figure sweep wall-clocks --------------------------------
    println!("\nfigure sweep wall-clocks:");
    let configs = [
        SystemConfig::BondingDisaggregated,
        SystemConfig::SingleDisaggregated,
        SystemConfig::Interleaved,
    ];
    let thread_axis: &[u32] = if quick { &[8] } else { &[4, 8, 16] };
    let mut fig5_grid = Vec::new();
    for &threads in thread_axis {
        for config in configs {
            fig5_grid.push((threads, config));
        }
    }
    let mut sweeps = Vec::new();
    sweeps.push(timed_sweep(
        "fig5_stream",
        fig5_grid,
        |_i, (threads, config), _rng| {
            let runner = WorkloadRunner::new();
            StreamBench::paper(threads).run(&runner.model(config))
        },
    ));
    sweeps.push(timed_sweep(
        "fig7_ycsb",
        vec![
            (YcsbWorkload::A, 4u32),
            (YcsbWorkload::A, 32),
            (YcsbWorkload::E, 4),
            (YcsbWorkload::E, 32),
        ],
        |_i, (w, parts), _rng| WorkloadRunner::new().voltdb_throughput(w, parts),
    ));
    let proto_us: u64 = if quick { 20 } else { 100 };
    sweeps.push(timed_sweep(
        "proto_datapath",
        vec![(1usize, 8u32), (2, 16)],
        move |_i, (channels, threads), _rng| {
            let (mut fabric, path) =
                FabricBuilder::point_to_point(DatapathParams::prototype(), channels, 256 << 20)
                    .expect("reference topology assembles");
            fabric
                .measure_stream_bandwidth(path, threads, 32, SimTime::from_us(proto_us))
                .expect("reference path streams")
                .as_gib_per_sec()
                .to_bits()
        },
    ));

    // --- record ------------------------------------------------------
    let report = Value::Map(vec![
        ("quick".to_string(), Value::Bool(quick)),
        (
            "queue_flit_workload".to_string(),
            Value::Map(vec![
                ("pops".to_string(), Value::UInt(pops)),
                ("hybrid".to_string(), engine_record(&hybrid)),
                ("heap_only".to_string(), engine_record(&heap)),
                ("speedup".to_string(), Value::Float(speedup)),
            ]),
        ),
        (
            "datapath_end_to_end".to_string(),
            Value::Map(vec![
                ("simulated_us".to_string(), Value::UInt(dur_us)),
                ("hybrid_wall_s".to_string(), Value::Float(hy_wall)),
                ("heap_only_wall_s".to_string(), Value::Float(hp_wall)),
                ("speedup".to_string(), Value::Float(dp_speedup)),
                ("gib_per_sec".to_string(), Value::Float(hy_gib)),
                ("events".to_string(), Value::UInt(hy_events)),
            ]),
        ),
        (
            "fabric_parity".to_string(),
            Value::Map(vec![
                ("rtt_ns".to_string(), Value::UInt(fabric_rtt.as_ns())),
                ("gib_per_sec".to_string(), Value::Float(fabric_gib)),
            ]),
        ),
        (
            "telemetry_overhead".to_string(),
            Value::Map(vec![
                ("simulated_us".to_string(), Value::UInt(tele_us)),
                ("off_wall_s".to_string(), Value::Float(tele_off.0)),
                ("registry_wall_s".to_string(), Value::Float(tele_reg.0)),
                ("tracing_wall_s".to_string(), Value::Float(tele_trace.0)),
                ("overhead_frac".to_string(), Value::Float(tele_overhead)),
                (
                    "tracing_overhead_frac".to_string(),
                    Value::Float(trace_overhead),
                ),
                ("gib_per_sec".to_string(), Value::Float(tele_reg.1)),
            ]),
        ),
        (
            "obs_overhead".to_string(),
            Value::Map(vec![
                ("simulated_us".to_string(), Value::UInt(obs_us)),
                ("windows".to_string(), Value::UInt(obs_windows)),
                ("off_wall_s".to_string(), Value::Float(obs_off.0)),
                ("observed_wall_s".to_string(), Value::Float(obs_on.0)),
                ("overhead_frac".to_string(), Value::Float(obs_overhead)),
                ("events".to_string(), Value::UInt(obs_on.1)),
            ]),
        ),
        ("engine_partitioned".to_string(), engine_partitioned),
        ("engine_topology".to_string(), topo_record),
        ("fleet_slo".to_string(), fleet_record),
        ("figure_sweeps".to_string(), Value::Seq(sweeps)),
    ]);
    let json = serde_json::to_string(&Report(report)).expect("report serializes");
    let out_path = if quick { OUT_QUICK } else { OUT_FULL };
    std::fs::write(out_path, json + "\n").expect("bench report is writable");
    println!("\nwrote {out_path}");

    if !quick {
        assert!(
            speedup >= 3.0,
            "hybrid engine must be >= 3x the heap on the flit workload, got {speedup:.2}x"
        );
        assert!(
            tele_overhead <= 0.10,
            "telemetry must cost <= 10% wall-clock, got {:.1}%",
            tele_overhead * 100.0
        );
        assert!(
            obs_overhead <= 0.10,
            "the full observability plane must cost <= 10% wall-clock, got {:.1}%",
            obs_overhead * 100.0
        );
        // Pooled checkpoint records brought full span tracing down from
        // ~78% overhead; hold the line at 50%.
        assert!(
            trace_overhead <= 0.50,
            "span tracing must cost <= 50% wall-clock, got {:.1}%",
            trace_overhead * 100.0
        );
        assert!(
            part_scaling >= 1.8,
            "partitioned engine must scale >= 1.8x in critical-path \
             throughput at 4 workers, got {part_scaling:.2}x"
        );
    }
}

/// Multi-hop topology cost on a 4×4 torus: per-hop forwarding
/// increment, idle RTT, and contended-burst RTT over the same routed
/// path. Returns the `engine_topology` report record (pinned by
/// `bench_report.rs`).
fn reproduce_topology(quick: bool) -> Value {
    let torus = Torus2D::new(4, 4).expect("4x4 torus");
    let build_to = |dst| {
        FabricBuilder::from_topology(DatapathParams::prototype(), &torus, torus.host_at(0, 0))
            .path_to(dst, PathSpec::reference(256 << 20, 2))
            .build()
            .expect("torus fabric assembles")
    };
    let (mut near, near_paths) = build_to(torus.host_at(0, 1));
    let near_rtt = near
        .measure_load_latency(near_paths[0])
        .expect("1-hop probe completes");
    let (mut far, far_paths) = build_to(torus.host_at(2, 2));
    let far_path = far_paths[0];
    let idle_rtt = far
        .measure_load_latency(far_path)
        .expect("4-hop probe completes");
    let hops = far.topology_route(far_path).expect("routed path").hops() as u64;
    assert!(hops >= 2, "cross-rack path must be multi-hop");
    let per_hop = SimTime::from_ps((idle_rtt - near_rtt).as_ps() / (hops - 1));

    let burst: usize = if quick { 64 } else { 512 };
    let issued: Vec<u64> = (0..burst)
        .map(|_| far.issue_read(far_path).expect("burst issues"))
        .collect();
    let (mut total_ps, mut done_n) = (0u64, 0u64);
    while let Some(done) = far.step().expect("burst drains") {
        for c in done {
            total_ps += c.latency.as_ps();
            done_n += 1;
        }
    }
    assert_eq!(
        done_n as usize,
        issued.len(),
        "the contended burst must complete exactly once per load"
    );
    let contended_rtt = SimTime::from_ps(total_ps / done_n.max(1));
    assert!(
        contended_rtt >= idle_rtt,
        "contention cannot make the mean RTT faster than idle"
    );
    println!("\ntopology (4x4 torus, {hops}-hop cross-rack path):");
    header(&["metric", "ns"]);
    row("per-hop increment", &[per_hop.as_ps() as f64 / 1e3]);
    row("idle RTT", &[idle_rtt.as_ps() as f64 / 1e3]);
    row(
        &format!("contended RTT ({burst}-load burst)"),
        &[contended_rtt.as_ps() as f64 / 1e3],
    );
    Value::Map(vec![
        ("torus".to_string(), Value::Str("4x4".to_string())),
        ("route_hops".to_string(), Value::UInt(hops)),
        (
            "per_hop_ns".to_string(),
            Value::Float(per_hop.as_ps() as f64 / 1e3),
        ),
        (
            "idle_rtt_ns".to_string(),
            Value::Float(idle_rtt.as_ps() as f64 / 1e3),
        ),
        (
            "contended_rtt_ns".to_string(),
            Value::Float(contended_rtt.as_ps() as f64 / 1e3),
        ),
    ])
}

fn criterion_benches(c: &mut Criterion) {
    reproduce();
    c.bench_function("engine/hybrid_pop_schedule", |b| {
        let mut q = EventQueue::new();
        for k in 0..4_096u64 {
            q.schedule(SimTime::from_ps((k + 1) * FLIT_PS), k);
        }
        b.iter(|| {
            let (at, v) = q.pop().expect("steady state");
            q.schedule(at + SimTime::from_ps(FLIT_PS), v);
            std::hint::black_box(v)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(800)).warm_up_time(std::time::Duration::from_millis(300));
    targets = criterion_benches
}
criterion_main!(benches);
