//! `torus_cut`: a 4×4 torus cut along its two row seams into two
//! multi-hop shards, run as a `PartitionedFabric`.
//!
//! Every channel and hop segment loses frames to CRC errors at one fixed
//! rate, and traffic is the partition layer's chained ring: seeded loads
//! on every path, each completion forwarding one load to the other shard
//! until a per-shard budget runs out. Hop forwarding, LLC go-back-N replay and the
//! conservative window runner do most of the work. The timed reps run the
//! shards on one worker; traced runs add reps on [`PARALLEL_WORKERS`],
//! which must match bit for bit and give the partition speedup.

use std::collections::BTreeSet;
use std::time::Instant;

use netsim::FaultSpec;
use routing::plan::FlowPlan;
use routing::topology::{Mesh, NodeId, NodeKind, Topology, TopologyError, Torus2D};
use simkit::partition::WindowClock;
use simkit::rng::DetRng;
use simkit::time::SimTime;
use thymesisflow_core::fabric::{
    Fabric, FabricBuilder, FabricError, PartitionedFabric, PathId, PathSpec, WorkloadSpec,
};
use thymesisflow_core::params::DatapathParams;

use crate::trace::Tracer;
use crate::Rep;

/// Worker threads of the parallel reps.
pub const PARALLEL_WORKERS: usize = 2;
/// Loads seeded on every path before the run.
const SEEDS_PER_PATH: usize = 256;
/// Completions each shard forwards to the other.
const FORWARD_BUDGET: u64 = 32_768;
/// Probability that a frame on any channel or hop segment arrives with a
/// CRC error and is replayed. At 1e-3 replay storms make the work per rep
/// swing ±12% from seed to seed; at 1e-4 it mostly stays within ±2%.
/// Corruption rather than silent drops: go-back-N only replays a silently
/// dropped tail frame when the recovery watchdog's keepalive kicks it,
/// and that watchdog's own events swing the work as much again.
const LOSS: f64 = 1e-4;
/// Per-donor attachment size.
const SHARE: u64 = 256 << 20;
/// Cross-shard hop of a forwarded load (clamped up to the lookahead).
const HOP: SimTime = SimTime::from_ns(150);
/// Spacing of the seeded issues. It is fixed: the simulated length of a
/// rep follows it closely, so a seeded spacing would make
/// `sim_us_per_s` differ by a third between seeds.
const SPACING: SimTime = SimTime::from_ns(50);

/// Wall-clock window stamps for the partition runner.
struct WallClock(Instant);

impl WindowClock for WallClock {
    fn stamp(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// The two row seams: r1→r2 and the r3→r0 wraparound.
fn seam_links() -> Vec<String> {
    (0..4)
        .map(|c| format!("h1x{c}-h2x{c}"))
        .chain((0..4).map(|c| format!("h3x{c}-h0x{c}")))
        .collect()
}

fn hosts(mesh: &Mesh) -> Vec<NodeId> {
    mesh.nodes()
        .iter()
        .filter(|n| n.kind == NodeKind::Host)
        .map(|n| n.id)
        .collect()
}

/// One repetition on `workers` threads: cut and assemble the shards,
/// then run them.
pub fn rep(seed: u64, workers: usize, tr: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    if let Err(e) = run(seed, workers, tr, &mut rep) {
        rep.fail(format!("simulator error: {e}"));
    }
    rep
}

fn run(seed: u64, workers: usize, tr: &mut Tracer, rep: &mut Rep) -> Result<(), String> {
    let mut rng = DetRng::split_stream(seed, 2);
    let workload = WorkloadSpec {
        seeds_per_path: SEEDS_PER_PATH,
        seed_spacing: SPACING,
        forward_budget: FORWARD_BUDGET,
        hop: HOP,
    };

    // ---- setup: cut the torus, build and wire one fabric per half ----
    let t0 = Instant::now();
    let assemble = tr.open("partition.assemble", 0);
    let torus = Torus2D::new(4, 4).map_err(|e| e.to_string())?;
    let mesh = Mesh::snapshot(&torus);
    let mut cut = BTreeSet::new();
    for name in seam_links() {
        let idx = mesh
            .link_named(&name)
            .ok_or_else(|| TopologyError::UnknownLink(name.clone()).to_string())?;
        cut.insert(idx);
    }
    let subs: Vec<Mesh> = mesh
        .components_without(&cut)
        .into_iter()
        .map(|comp| mesh.subgraph(&comp))
        .filter(|sub| hosts(sub).len() >= 2)
        .collect();
    let mut build_s = 0.0;
    let mut pf = PartitionedFabric::from_fn(subs.len(), workload, |i| {
        let sub = &subs[i];
        let hosts = hosts(sub);
        let b0 = Instant::now();
        let (mut fabric, _) = tr.span("fabric.build", i as u64, || {
            FabricBuilder::new(DatapathParams::prototype())
                .topology(sub.clone(), hosts[0])
                .build()
        })?;
        build_s += b0.elapsed().as_secs_f64();
        let mut paths = Vec::with_capacity(hosts.len() - 1);
        for (d, &donor) in hosts[1..].iter().enumerate() {
            let plan = FlowPlan::donor(d);
            let mut spec = PathSpec::new(plan.network, plan.pasid, plan.donor_ea, SHARE)
                .labelled(&plan.label)
                .with_faults(FaultSpec::new(0.0, LOSS));
            spec.seeds = vec![(rng.next_u64(), rng.next_u64())];
            paths.push(tr.span("fabric.attach", i as u64, || {
                fabric.attach_routed(&spec, donor)
            })?);
        }
        Ok::<(Fabric, Vec<PathId>), FabricError>((fabric, paths))
    })
    .map_err(|e| e.to_string())?;
    tr.close(assemble);
    rep.build_s = build_s;
    rep.attach_s = t0.elapsed().as_secs_f64() - build_s;

    // ---- timed: the conservative window run ---------------------------
    let timed = Instant::now();
    let span = tr.open("partition.run", 0);
    let stats = if tr.on() {
        pf.run_timed(workers, &WallClock(Instant::now()))
    } else {
        pf.run(workers)
    };
    tr.close(span);
    rep.timed_s = timed.elapsed().as_secs_f64();
    let stats = stats.map_err(|e| e.to_string())?;

    // ---- oracle: completed + faulted + refused = issued --------------
    let digests = pf.digests();
    let shards = digests.len();
    let forwarded: Vec<u64> = digests
        .iter()
        .map(|d| d.completions.min(FORWARD_BUDGET))
        .collect();
    if forwarded.iter().sum::<u64>() != stats.messages {
        rep.fail(format!(
            "{} cross-shard messages, but completions allow {:?}",
            stats.messages, forwarded
        ));
    }
    let mut digest = Vec::new();
    let mut totals = Totals::default();
    for (i, d) in digests.iter().enumerate() {
        let shard = pf
            .shard_mut(i)
            .ok_or_else(|| format!("shard {i} vanished"))?;
        let fabric = shard.fabric();
        let paths = fabric.path_ids();
        let received = forwarded[(i + shards - 1) % shards];
        let issued = (SEEDS_PER_PATH * paths.len()) as u64 + received;
        rep.ops += issued;
        if d.completions + d.faults + d.injects_refused != issued {
            rep.fail(format!(
                "shard {i}: {} completed + {} faulted + {} refused != {issued} issued",
                d.completions, d.faults, d.injects_refused
            ));
        }
        // Forwarded loads land round-robin over the receiver's paths.
        let n = paths.len() as u64;
        let mut per_path = Vec::with_capacity(paths.len());
        for (p, &path) in paths.iter().enumerate() {
            let p = p as u64;
            let expected = SEEDS_PER_PATH as u64 + received / n + u64::from(p < received % n);
            let completed = fabric.completions(path).map_err(|e| e.to_string())?.count();
            if d.faults == 0 && d.injects_refused == 0 && completed != expected {
                rep.fail(format!(
                    "shard {i} {path}: {completed} completed of {expected} issued"
                ));
            }
            per_path.push(format!("{}:{completed}/{expected}", path.0));
        }
        digest.push(format!(
            "shard{i}=completions:{},fold:{:016x},events:{},refused:{},faulted:{},paths:[{}]",
            d.completions,
            d.completion_fold,
            d.events_processed,
            d.injects_refused,
            d.faults,
            per_path.join(" ")
        ));
        totals.add(fabric, &paths)?;
        rep.loads += d.completions;
        rep.sim_us = rep.sim_us.max(fabric.now().as_ns_f64() / 1e3);
    }
    rep.events = pf.total_events();
    rep.digest = format!(
        "events={} loads={} sim_us={} windows={} messages={} {}",
        rep.events,
        rep.loads,
        rep.sim_us,
        stats.windows,
        stats.messages,
        digest.join(" ")
    );

    // ---- per-layer counts (exact at one seed) -------------------------
    let loads = rep.loads.max(1) as f64;
    rep.exact("event.events_per_load", rep.events as f64 / loads);
    rep.exact("llc.frames_per_load", totals.frames as f64 / loads);
    rep.exact(
        "llc.replay_frac",
        totals.replays as f64 / totals.frames.max(1) as f64,
    );
    rep.exact(
        "llc.credit_stalls_per_kload",
        totals.credit_stalls as f64 * 1e3 / loads,
    );
    rep.exact("hop.frames_per_load", totals.hop_frames as f64 / loads);
    rep.exact("hop.stall_ns_per_load", totals.hop_stall_ns as f64 / loads);
    rep.exact("hop.queue_high_water", totals.hop_high_water as f64);
    rep.exact("routing.reroutes", totals.reroutes as f64);
    rep.exact("recovery.loads_faulted", totals.faulted as f64);
    rep.exact("recovery.late_completions", totals.late as f64);
    rep.exact("partition.windows", stats.windows as f64);
    rep.exact("partition.messages", stats.messages as f64);
    rep.exact(
        "partition.events_per_window",
        rep.events as f64 / stats.windows.max(1) as f64,
    );
    if tr.on() {
        // Busy and barrier-stall stamps are wall-clock, so only the
        // traced run (which supplies the clock) has them.
        let busy: Vec<f64> = stats.busy.iter().map(|&b| b as f64).collect();
        let max_busy = busy.iter().copied().fold(0.0, f64::max);
        let mean_busy = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        let stall_frac = stats
            .busy
            .iter()
            .zip(&stats.barrier_stall)
            .map(|(&b, &s)| s as f64 / (b + s).max(1) as f64)
            .fold(0.0, f64::max);
        rep.measured("partition.busy_ns", max_busy);
        rep.measured("partition.busy_sum_ns", busy.iter().sum());
        rep.measured("partition.stall_frac", stall_frac);
        rep.measured(
            "partition.imbalance",
            if mean_busy > 0.0 {
                max_busy / mean_busy
            } else {
                0.0
            },
        );
    }
    Ok(())
}

/// Link, hop and recovery counters summed over every shard.
#[derive(Default)]
struct Totals {
    frames: u64,
    replays: u64,
    credit_stalls: u64,
    hop_frames: u64,
    hop_stall_ns: u64,
    hop_high_water: usize,
    reroutes: u64,
    faulted: u64,
    late: u64,
}

impl Totals {
    fn add(&mut self, fabric: &Fabric, paths: &[PathId]) -> Result<(), String> {
        for &p in paths {
            for s in fabric.path_link_stats(p).map_err(|e| e.to_string())? {
                self.frames += s.fwd_frames + s.rev_frames;
                self.replays += s.up_replays + s.down_replays;
                self.credit_stalls += s.up_credit_stalls + s.down_credit_stalls;
            }
        }
        for l in fabric.congestion_report().links() {
            self.hop_frames += l.forwarded;
            self.hop_stall_ns += l.stall_ns;
            self.hop_high_water = self.hop_high_water.max(l.queue_high_water);
        }
        self.reroutes += fabric.route_reroutes();
        self.faulted += fabric.faults().len() as u64;
        self.late += fabric.late_completions();
        Ok(())
    }
}
