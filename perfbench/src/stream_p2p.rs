//! `stream_p2p`: the paper's §V bonding stream on a point-to-point
//! fabric.
//!
//! One borrower, one donor, two bonded lossless channels, and a closed
//! loop of 16 threads × 32 outstanding loads that the benchmark drives
//! itself through `Fabric::issue_read` and `Fabric::step`. Almost all the
//! work is the datapath fast path: the issue stages, the event queue, LLC
//! framing, the wire and the donor. Hop forwarding, replay, partitions,
//! the rack and observability do no work at all.

use std::time::Instant;

use routing::topology::{Line, NodeId};
use simkit::rng::DetRng;
use simkit::time::SimTime;
use thymesisflow_core::fabric::{Fabric, FabricBuilder, FabricError, PathId, PathSpec, WindowSpec};
use thymesisflow_core::params::DatapathParams;

use crate::trace::Tracer;
use crate::{fold_completion, Rep};

/// Bonded channels of the path.
const CHANNELS: usize = 2;
/// Closed-loop reader threads.
const THREADS: usize = 16;
/// Outstanding loads per thread.
const WINDOW: usize = 32;
/// Simulated time during which completions re-issue; the fabric then
/// drains, so every issued load resolves inside the rep.
const ISSUE_US: u64 = 1_000;
/// Thread start times are drawn from `[0, STAGGER_NS)`.
const STAGGER_NS: u64 = 500;
/// Attachment size.
const BYTES: u64 = 256 << 20;
/// The idle load-to-use band the fabric parity checks already use.
const PROBE_BAND_NS: std::ops::RangeInclusive<u64> = 950..=1_200;
/// Paper §V figures (EXPERIMENTS.md E2): remote load-to-use and the
/// bonded read stream.
pub const PAPER_LOAD_TO_USE_NS: f64 = 1_060.0;
pub const PAPER_BONDED_GIB_S: f64 = 15.0;

/// Load state, indexed by `tag - first tag of the timed phase`.
const OUTSTANDING: u8 = 1;
const RETIRED: u8 = 2;

/// One repetition: set up, probe, then the timed closed loop.
pub fn rep(seed: u64, tr: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    if let Err(e) = run(seed, tr, &mut rep) {
        rep.fail(format!("simulator error: {e}"));
    }
    rep
}

fn run(seed: u64, tr: &mut Tracer, rep: &mut Rep) -> Result<(), FabricError> {
    let mut rng = DetRng::split_stream(seed, 1);

    // ---- setup: the 2-node line, then the bonded path ----------------
    let t0 = Instant::now();
    let line = Line::new(2)?;
    let (mut fabric, _) = tr.span("fabric.build", 0, || {
        FabricBuilder::from_topology(DatapathParams::prototype(), &line, NodeId(0))
            .window(WindowSpec::reference(BYTES))
            .build()
    })?;
    let t1 = Instant::now();
    let mut spec = PathSpec::reference(BYTES, CHANNELS);
    spec.seeds = (0..CHANNELS)
        .map(|_| (rng.next_u64(), rng.next_u64()))
        .collect();
    let path = tr.span("fabric.attach", 0, || {
        fabric.attach_routed(&spec, NodeId(1))
    })?;
    rep.build_s = (t1 - t0).as_secs_f64();
    rep.attach_s = t1.elapsed().as_secs_f64();

    // ---- paper check: the idle load-to-use probe ---------------------
    let probe = tr.span("bench.probe", 0, || fabric.measure_load_latency(path))?;
    rep.ops += 1;
    rep.probe_ns = probe.as_ns_f64();
    if !PROBE_BAND_NS.contains(&probe.as_ns()) {
        rep.fail(format!(
            "idle load-to-use {probe} outside {PROBE_BAND_NS:?} ns"
        ));
    }

    // ---- timed closed loop -------------------------------------------
    let mut offsets: Vec<u64> = (0..THREADS).map(|_| rng.range(0, STAGGER_NS)).collect();
    offsets.sort_unstable();
    let first = offsets[0];
    let starts: Vec<SimTime> = offsets
        .iter()
        .map(|o| SimTime::from_ns(o - first))
        .collect();

    let sim0 = fabric.now();
    let deadline = sim0 + SimTime::from_us(ISSUE_US);
    let events0 = fabric.events_processed();
    let links0 = link_totals(&fabric, path)?;
    let mut loop_state = Loop::default();
    let mut admitted = 0;
    let timed = Instant::now();
    let span = tr.open("bench.timed", 0);
    while admitted < THREADS && sim0 + starts[admitted] <= fabric.now() {
        loop_state.admit(&mut fabric, path, tr)?;
        admitted += 1;
    }
    while let Some(done) = tr.call("fabric.step", || fabric.step())? {
        loop_state.steps += 1;
        let now = fabric.now();
        for c in &done {
            if c.path != path || !loop_state.retire(c.tag) {
                rep.fail(format!("load {} retired twice or on a foreign path", c.tag));
                continue;
            }
            loop_state.fold = fold_completion(loop_state.fold, c.tag, c.path.0, c.latency);
            if now < deadline {
                loop_state.in_window += 1;
                loop_state.issue(&mut fabric, path, tr)?;
            }
        }
        while admitted < THREADS && sim0 + starts[admitted] <= now {
            loop_state.admit(&mut fabric, path, tr)?;
            admitted += 1;
        }
    }
    tr.close(span);
    rep.timed_s = timed.elapsed().as_secs_f64();

    // ---- oracle: every issued load retired exactly once --------------
    let issued = loop_state.state.len() as u64;
    let unresolved = loop_state
        .state
        .iter()
        .filter(|&&s| s == OUTSTANDING)
        .count() as u64;
    if unresolved > 0 {
        rep.fail(format!("{unresolved} of {issued} loads never completed"));
        // Each unresolved load is a failed operation of its own.
        rep.failed += unresolved - 1;
    }
    let faulted = fabric.faults().len() as u64;
    rep.ops += issued;
    rep.loads = loop_state.retired;
    rep.events = fabric.events_processed() - events0;
    rep.sim_us = (fabric.now() - sim0).as_ns_f64() / 1e3;
    rep.gib_s =
        loop_state.in_window as f64 * 128.0 / (ISSUE_US as f64 * 1e-6) / f64::from(1u32 << 30);
    rep.digest = format!(
        "events={} loads={} fold={:016x} probe_ns={} path{}=issued:{issued},completed:{},faulted:{faulted}",
        fabric.events_processed(),
        rep.loads,
        loop_state.fold,
        probe.as_ns(),
        path.0,
        loop_state.retired,
    );

    // ---- per-layer counts (exact at one seed) -------------------------
    let links = link_totals(&fabric, path)?;
    let frames = links.frames - links0.frames;
    let report = fabric.congestion_report();
    let loads = rep.loads.max(1) as f64;
    let hop_frames: u64 = report.links().iter().map(|l| l.forwarded).sum();
    let hop_stall: u64 = report.links().iter().map(|l| l.stall_ns).sum();
    let hop_hw = report
        .links()
        .iter()
        .map(|l| l.queue_high_water)
        .max()
        .unwrap_or(0);
    rep.exact("event.events_per_load", rep.events as f64 / loads);
    rep.exact(
        "event.events_per_step",
        rep.events as f64 / loop_state.steps.max(1) as f64,
    );
    rep.exact("llc.frames_per_load", frames as f64 / loads);
    rep.exact(
        "llc.replay_frac",
        ratio(links.replays - links0.replays, frames),
    );
    rep.exact(
        "llc.credit_stalls_per_kload",
        (links.credit_stalls - links0.credit_stalls) as f64 * 1e3 / loads,
    );
    rep.exact("hop.frames_per_load", hop_frames as f64 / loads);
    rep.exact("hop.stall_ns_per_load", hop_stall as f64 / loads);
    rep.exact("hop.queue_high_water", hop_hw as f64);
    rep.exact("routing.reroutes", fabric.route_reroutes() as f64);
    rep.exact("recovery.loads_faulted", faulted as f64);
    rep.exact(
        "recovery.late_completions",
        fabric.late_completions() as f64,
    );
    Ok(())
}

/// Closed-loop bookkeeping of the timed phase.
#[derive(Default)]
struct Loop {
    state: Vec<u8>,
    base: Option<u64>,
    fold: u64,
    retired: u64,
    in_window: u64,
    steps: u64,
}

impl Loop {
    fn issue(
        &mut self,
        fabric: &mut Fabric,
        path: PathId,
        tr: &mut Tracer,
    ) -> Result<(), FabricError> {
        let tag = tr.call("fabric.issue_read", || fabric.issue_read(path))?;
        let base = *self.base.get_or_insert(tag);
        // Tags are handed out in sequence, so the state vector is dense.
        debug_assert_eq!(tag - base, self.state.len() as u64);
        self.state.push(OUTSTANDING);
        Ok(())
    }

    fn admit(
        &mut self,
        fabric: &mut Fabric,
        path: PathId,
        tr: &mut Tracer,
    ) -> Result<(), FabricError> {
        for _ in 0..WINDOW {
            self.issue(fabric, path, tr)?;
        }
        Ok(())
    }

    /// Marks `tag` retired; false if it was not outstanding.
    fn retire(&mut self, tag: u64) -> bool {
        let idx = self
            .base
            .and_then(|b| tag.checked_sub(b))
            .map(|i| i as usize);
        match idx.and_then(|i| self.state.get_mut(i)) {
            Some(s) if *s == OUTSTANDING => {
                *s = RETIRED;
                self.retired += 1;
                true
            }
            _ => false,
        }
    }
}

/// Frame, replay and credit-stall totals over the path's links.
struct LinkTotals {
    frames: u64,
    replays: u64,
    credit_stalls: u64,
}

fn link_totals(fabric: &Fabric, path: PathId) -> Result<LinkTotals, FabricError> {
    let stats = fabric.path_link_stats(path)?;
    Ok(LinkTotals {
        frames: stats.iter().map(|s| s.fwd_frames + s.rev_frames).sum(),
        replays: stats.iter().map(|s| s.up_replays + s.down_replays).sum(),
        credit_stalls: stats
            .iter()
            .map(|s| s.up_credit_stalls + s.down_credit_stalls)
            .sum(),
    })
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
