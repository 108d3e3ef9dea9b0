//! `rack_churn`: a 16-node 4×4 torus `Rack` driven through its public
//! API with observability on.
//!
//! Zipf-dealt clients stream over SLO-contracted base leases; churn
//! tenants detach and attach every window; each window runs
//! `run_fleet_streams` and closes with `evaluate_slos`, one
//! telemetry snapshot and one congestion report. One chaos ladder cuts a
//! link of the hot lease's route, fails a bonded lane and crashes a donor.
//! Here the rack, control-plane and observability layers do a share of
//! the work that they do nowhere else.
//!
//! The rack exposes issued loads only per borrower fabric (its telemetry
//! counter `fabric.loads.issued`), so the exactly-once check runs per
//! borrower: every borrower serves one lease at a time, and every load
//! issued on it must have retired or ended in a typed fault.

use std::time::Instant;

use simkit::obs::Recorder;
use simkit::rng::{DetRng, ZipfSampler};
use simkit::time::SimTime;
use thymesisflow_core::attach::{AttachRequest, LeaseId};
use thymesisflow_core::fabric::{ChaosPlan, SloSpec};
use thymesisflow_core::rack::{LeaseResolution, NodeConfig, Rack, RackBuilder, RackError};

use crate::trace::Tracer;
use crate::Rep;

/// Torus side.
const SIDE: usize = 4;
/// Worker threads of `run_fleet_streams` in the parallel reps.
pub const PARALLEL_WORKERS: usize = 2;
/// Windows per repetition.
const WINDOWS: usize = 160;
/// Simulated length of one window.
const WINDOW_US: u64 = 4;
/// Simulated clients dealt over the base leases, and the zipf exponent.
const CLIENTS: u32 = 1_200;
const THETA: f64 = 1.0;
/// Closed-loop threads the clients map onto (in proportion, at least one
/// per lease), and the outstanding loads per thread: the base leases keep
/// 24 × 8 loads in flight whatever the deal.
const BASE_THREADS: u32 = 24;
const BASE_WINDOW: u32 = 8;
/// Churn tenants run one thread with two loads outstanding.
const CHURN_LOAD: (u32, u32) = (1, 2);
const GIB: u64 = 1 << 30;
/// Size of every base lease.
const BASE_BYTES: u64 = 8 * GIB;
/// Every lease's contract.
const P99_US: u64 = 4;
const AVAILABILITY: f64 = 0.999;

/// Base leases `(borrower, donor, bonded)`; the first is the zipf head
/// (the hot lease), the bonded one takes the lane failure and
/// [`CRASH_DONOR`] serves the fourth.
const BASE: [(&str, &str, bool); 6] = [
    ("n00", "n02", false),
    ("n10", "n12", true),
    ("n20", "n22", false),
    ("n21", "n23", false),
    ("n30", "n32", false),
    ("n31", "n33", false),
];
/// Borrowers of the churn tenants, one tenant at a time each.
const CHURN_SLOTS: [&str; 4] = ["n01", "n03", "n11", "n13"];
/// The donor the chaos ladder crashes.
const CRASH_DONOR: &str = "n23";

fn node(r: usize, c: usize) -> String {
    format!("n{r}{c}")
}

/// Fabric telemetry counters of one borrower.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counters {
    issued: u64,
    retired: u64,
    faulted: u64,
}

fn counters(rack: &Rack, host: &str) -> Counters {
    let Some(fabric) = rack.fabric(host) else {
        return Counters::default();
    };
    let snap = fabric.telemetry().snapshot(fabric.now());
    Counters {
        issued: snap.counter("fabric.loads.issued").unwrap_or(0),
        retired: snap.counter("fabric.loads.retired").unwrap_or(0),
        faulted: snap.counter("fabric.recovery.loads_faulted").unwrap_or(0),
    }
}

/// One live lease the workload streams over.
#[derive(Debug, Clone)]
struct Live {
    id: LeaseId,
    borrower: String,
    donor: String,
    bonded: bool,
    threads: u32,
    window: u32,
}

/// The workload's state for one repetition.
struct Churn<'t> {
    rack: Rack,
    tr: &'t mut Tracer,
    rep: Rep,
    base: Vec<Live>,
    slots: Vec<Option<Live>>,
    attaches: u64,
    attaches_ok: u64,
    route_lost: u64,
    breaches: u64,
    evacuated: u64,
}

impl Churn<'_> {
    /// `attach_with_slo` with the outcome classified: control-plane and
    /// agent rejections are simulated capacity outcomes, anything else
    /// is a failure.
    fn attach(&mut self, borrower: &str, donor: &str, bytes: u64, bonded: bool) -> Option<LeaseId> {
        let mut req = AttachRequest::new(borrower, donor, bytes);
        if bonded {
            req = req.bonded();
        }
        let spec = SloSpec::new()
            .p99(SimTime::from_us(P99_US))
            .availability(AVAILABILITY);
        self.attaches += 1;
        self.rep.ops += 1;
        let span = self.tr.open("rack.attach", 0);
        let out = self.rack.attach_with_slo(req, spec);
        self.tr.close(span);
        match out {
            Ok(lease) => {
                self.attaches_ok += 1;
                if let Some(fabric) = self.rack.fabric_mut(borrower) {
                    if !fabric.telemetry_enabled() {
                        // Counters only: per-load span tracing stays off.
                        fabric.set_telemetry(true);
                        fabric.set_tracing(false);
                    }
                }
                if self
                    .rack
                    .leases()
                    .filter(|l| l.compute() == borrower)
                    .count()
                    > 1
                {
                    self.rep.fail(format!("{borrower} carries two live leases"));
                }
                Some(lease.id())
            }
            Err(RackError::ControlPlane(_) | RackError::Agent(_)) => None,
            Err(e) => {
                self.rep.fail(format!("attach {borrower}<-{donor}: {e}"));
                None
            }
        }
    }

    fn detach(&mut self, id: LeaseId) {
        self.rep.ops += 1;
        let span = self.tr.open("rack.detach", id.0);
        let out = self.rack.detach(id);
        self.tr.close(span);
        if let Err(e) = out {
            self.rep.fail(format!("detach {id}: {e}"));
        }
    }

    fn live(&self) -> impl Iterator<Item = &Live> {
        self.base.iter().chain(self.slots.iter().flatten())
    }

    /// Stops streaming over `id`.
    fn forget(&mut self, id: LeaseId) {
        self.base.retain(|l| l.id != id);
        for s in &mut self.slots {
            if s.as_ref().is_some_and(|l| l.id == id) {
                *s = None;
            }
        }
    }

    /// Replaces every lease whose path faulted: the lost lease is
    /// detached (its loads stay counted as typed faults) and a base lease
    /// re-attaches on the same pair, routed around the failure.
    fn replace_lost_routes(&mut self) {
        let lost: Vec<Live> = self
            .live()
            .filter(|l| {
                let path = self.rack.lease_path(l.id);
                let fabric = self.rack.fabric(&l.borrower);
                matches!((path, fabric), (Some(p), Some(f)) if matches!(f.path_fault(p), Ok(Some(_))))
            })
            .cloned()
            .collect();
        for l in lost {
            self.route_lost += 1;
            self.detach(l.id);
            let replaced = match self.base.iter().position(|b| b.id == l.id) {
                Some(i) => self
                    .attach(&l.borrower, &l.donor, BASE_BYTES, l.bonded)
                    .map(|id| self.base[i].id = id),
                None => None,
            };
            if replaced.is_none() {
                self.forget(l.id);
            }
        }
    }

    /// Crashes the donor and follows its leases: migrated leases keep
    /// streaming under their new id, poisoned ones leave.
    fn crash(&mut self, host: &str) {
        self.rep.ops += 1;
        let span = self.tr.open("rack.crash", 0);
        let out = self.rack.crash_donor(host);
        self.tr.close(span);
        let faults = match out {
            Ok(f) => f,
            Err(e) => {
                self.rep.fail(format!("crash_donor {host}: {e}"));
                return;
            }
        };
        for fault in faults {
            self.evacuated += 1;
            match fault.resolution {
                LeaseResolution::Migrated { lease, donor } => {
                    let live = self.base.iter_mut().chain(self.slots.iter_mut().flatten());
                    for l in live.filter(|l| l.id == fault.lease) {
                        l.id = lease;
                        l.donor.clone_from(&donor);
                    }
                }
                LeaseResolution::Poisoned => self.forget(fault.lease),
            }
        }
    }

    fn loads(&self) -> Vec<(LeaseId, u32, u32)> {
        self.live().map(|l| (l.id, l.threads, l.window)).collect()
    }
}

/// One repetition, `run_fleet_streams` on `workers` threads: build the
/// rack and base leases, then walk the windows.
pub fn rep(seed: u64, workers: usize, tr: &mut Tracer) -> Rep {
    let mut rng = DetRng::split_stream(seed, 3);

    // ---- setup: the cabled torus, then the base leases ----------------
    let t0 = Instant::now();
    let built = tr.span("rack.build", 0, || {
        let mut b = RackBuilder::new();
        for r in 0..SIDE {
            for c in 0..SIDE {
                b = b.node(NodeConfig::ac922(&node(r, c)));
            }
        }
        for r in 0..SIDE {
            for c in 0..SIDE {
                b = b
                    .cable(&node(r, c), &node(r, (c + 1) % SIDE))
                    .cable(&node(r, c), &node((r + 1) % SIDE, c));
            }
        }
        b.build()
    });
    let mut rack = match built {
        Ok(r) => r,
        Err(e) => {
            let mut rep = Rep::default();
            rep.fail(format!("rack build: {e}"));
            return rep;
        }
    };
    rack.set_observability(true);
    let build_s = t0.elapsed().as_secs_f64();

    // The zipf deal: clients per base lease, head first.
    let sampler = ZipfSampler::new(BASE.len() as u64, THETA);
    let mut clients = [0u32; BASE.len()];
    let mut deal_rng = DetRng::split_stream(seed, 4);
    for _ in 0..CLIENTS {
        clients[sampler.sample(&mut deal_rng) as usize] += 1;
    }
    let threads = apportion(&clients, BASE_THREADS);

    let mut d = Churn {
        rack,
        tr,
        rep: Rep::default(),
        base: Vec::new(),
        slots: vec![None; CHURN_SLOTS.len()],
        attaches: 0,
        attaches_ok: 0,
        route_lost: 0,
        breaches: 0,
        evacuated: 0,
    };
    for (i, &(borrower, donor, bonded)) in BASE.iter().enumerate() {
        match d.attach(borrower, donor, BASE_BYTES, bonded) {
            Some(id) => d.base.push(Live {
                id,
                borrower: borrower.to_string(),
                donor: donor.to_string(),
                bonded,
                threads: threads[i],
                window: BASE_WINDOW,
            }),
            None => d
                .rep
                .fail(format!("base lease {borrower}<-{donor} refused")),
        }
    }
    d.rep.build_s = build_s;
    d.rep.attach_s = t0.elapsed().as_secs_f64() - build_s;

    // The chaos ladder: seeded windows in the last quarter, so the fleet
    // it reshapes (a lost or detoured route, a migrated lease) streams
    // for few windows and the seeds differ little in work done.
    let c_cut = rng.range(WINDOWS as u64 * 3 / 4, WINDOWS as u64 * 7 / 8) as usize;
    let c_lane = c_cut + 1 + rng.range(0, 4) as usize;
    let c_crash = c_lane + 1 + rng.range(0, 4) as usize;
    let cut_pick = rng.next_u64();

    // ---- timed: the windows --------------------------------------------
    let hosts: Vec<String> = BASE
        .iter()
        .map(|b| b.0.to_string())
        .chain(CHURN_SLOTS.iter().map(|s| s.to_string()))
        .collect();
    let now_of = |rack: &Rack, h: &str| rack.fabric(h).map_or(SimTime::ZERO, |f| f.now());
    let sim0: Vec<SimTime> = hosts.iter().map(|h| now_of(&d.rack, h)).collect();
    let mut recorder = Recorder::new(SimTime::from_us(WINDOW_US), 64);
    let mut imbalance_sum = 0.0;
    let mut windows_run = 0u64;
    let mut rate_fold = 0u64;
    let mut hottest = String::new();
    let hot_borrower = BASE[0].0;
    let timed = Instant::now();
    let timed_span = d.tr.open("bench.timed", 0);
    for w in 0..WINDOWS {
        // Churn: the slot's tenant leaves, a new one arrives.
        let slot = w % CHURN_SLOTS.len();
        if let Some(old) = d.slots[slot].take() {
            d.detach(old.id);
        }
        let donors: Vec<String> = (0..SIDE * SIDE)
            .map(|i| node(i / SIDE, i % SIDE))
            .filter(|n| n != CHURN_SLOTS[slot] && !(w > c_crash && n == CRASH_DONOR))
            .collect();
        let donor = donors[rng.index(donors.len())].clone();
        let bytes = rng.range(1, 9) * GIB;
        if let Some(id) = d.attach(CHURN_SLOTS[slot], &donor, bytes, false) {
            d.slots[slot] = Some(Live {
                id,
                borrower: CHURN_SLOTS[slot].to_string(),
                donor,
                bonded: false,
                threads: CHURN_LOAD.0,
                window: CHURN_LOAD.1,
            });
        }

        // Link-level chaos lands in the window's second half, after every
        // stream has retired loads: `run_fleet_streams` panics on a stream
        // that retires nothing in its window (`Rate::from_bytes_per_sec(0)`).
        let lead = SimTime::from_ns(rng.range(WINDOW_US * 500, WINDOW_US * 1_000));
        if w == c_cut {
            schedule_cut(&mut d, cut_pick, lead);
        }
        if w == c_lane {
            schedule_lane_fail(&mut d, lead);
        }

        // The window itself.
        let events_before: Vec<u64> = hosts.iter().map(|h| events_of(&d.rack, h)).collect();
        let loads = d.loads();
        d.rep.ops += 1;
        let span = d.tr.open("rack.window", w as u64);
        let out = if w == c_crash {
            // Undrained, so the crash below finds loads in flight.
            d.rack
                .run_fleet_streams_undrained(&loads, SimTime::from_us(WINDOW_US), workers)
        } else {
            d.rack
                .run_fleet_streams(&loads, SimTime::from_us(WINDOW_US), workers)
        };
        d.tr.close(span);
        match out {
            Ok(rates) => {
                for r in rates {
                    rate_fold = rate_fold.rotate_left(5) ^ r.bytes_per_sec().to_bits();
                }
            }
            Err(e) => {
                d.rep.fail(format!("window {w}: {e}"));
                break;
            }
        }
        windows_run += 1;
        let deltas: Vec<f64> = hosts
            .iter()
            .zip(&events_before)
            .map(|(h, &b)| (events_of(&d.rack, h) - b) as f64)
            .filter(|&e| e > 0.0)
            .collect();
        if !deltas.is_empty() {
            let mean = deltas.iter().sum::<f64>() / deltas.len() as f64;
            imbalance_sum += deltas.iter().copied().fold(0.0, f64::max) / mean;
        }
        if w == c_crash {
            d.crash(CRASH_DONOR);
        }

        // Judge, observe, repair.
        d.rep.ops += 1;
        let span = d.tr.open("rack.slo_eval", w as u64);
        let judged = d.rack.evaluate_slos();
        d.tr.close(span);
        match judged {
            Ok(b) => d.breaches += b.len() as u64,
            Err(e) => d.rep.fail(format!("evaluate_slos: {e}")),
        }
        d.rep.ops += 2;
        let span = d.tr.open("obs.snapshot", w as u64);
        if let Some(fabric) = d.rack.fabric_mut(hot_borrower) {
            recorder.record(fabric.telemetry_snapshot());
        }
        d.tr.close(span);
        let span = d.tr.open("obs.congestion", w as u64);
        let report = d.rack.congestion_report(hot_borrower);
        d.tr.close(span);
        if let Some(link) = report.as_ref().and_then(|r| r.hottest()) {
            hottest.clone_from(&link.name);
        }
        d.replace_lost_routes();
    }
    d.tr.close(timed_span);
    d.rep.timed_s = timed.elapsed().as_secs_f64();

    // ---- oracle: per borrower, issued = retired + typed-faulted ---------
    let mut per_borrower = Vec::with_capacity(hosts.len());
    let (mut issued, mut retired, mut faulted) = (0, 0, 0);
    for h in &hosts {
        let c = counters(&d.rack, h);
        let listed = d.rack.fabric(h).map_or(0, |f| f.faults().len() as u64);
        if c.issued != c.retired + c.faulted || listed != c.faulted {
            d.rep.fail(format!(
                "{h}: {} issued, {} retired, {} faulted ({listed} faults listed)",
                c.issued, c.retired, c.faulted
            ));
        }
        issued += c.issued;
        retired += c.retired;
        faulted += c.faulted;
        per_borrower.push(format!("{h}:{}/{}/{}", c.issued, c.retired, c.faulted));
    }
    // Completions of each live lease, for the digest.
    let mut live = Vec::new();
    for l in d.live() {
        let done = d
            .rack
            .lease_path(l.id)
            .and_then(|p| {
                d.rack
                    .fabric(&l.borrower)
                    .and_then(|f| f.completions(p).ok())
            })
            .map_or(0, |h| h.count());
        live.push(format!("{}@{}:{done}", l.id.0, l.borrower));
    }

    let mut events = 0;
    let mut sim_us: f64 = 0.0;
    let mut reroutes = 0;
    let mut late = 0;
    let mut journal = d.rack.journal().len() as u64;
    for (h, t0) in hosts.iter().zip(&sim0) {
        if let Some(f) = d.rack.fabric(h) {
            events += f.events_processed();
            sim_us = sim_us.max((f.now() - *t0).as_ns_f64() / 1e3);
            reroutes += f.route_reroutes();
            late += f.late_completions();
            journal += f.journal().map_or(0, |j| j.len() as u64);
        }
    }
    let mut rep = std::mem::take(&mut d.rep);
    rep.ops += issued;
    rep.loads = retired;
    rep.events = events;
    rep.sim_us = sim_us;
    rep.digest = format!(
        "events={events} loads={retired} faulted={faulted} windows={windows_run} rates={rate_fold:016x} \
         breaches={} route_lost={} evacuated={} attaches={}/{} journal={journal} recorded={} hottest={hottest} \
         chaos=cut@{c_cut},lane@{c_lane},crash@{c_crash} borrowers=[{}] live=[{}]",
        d.breaches,
        d.route_lost,
        d.evacuated,
        d.attaches_ok,
        d.attaches,
        recorder.accepted(),
        per_borrower.join(" "),
        live.join(" ")
    );
    let loads = retired.max(1) as f64;
    rep.exact("event.events_per_load", events as f64 / loads);
    rep.exact("routing.reroutes", reroutes as f64);
    rep.exact("recovery.loads_faulted", faulted as f64);
    rep.exact("recovery.late_completions", late as f64);
    rep.exact(
        "rack.attach_ok_frac",
        d.attaches_ok as f64 / d.attaches.max(1) as f64,
    );
    rep.exact("sweep.imbalance", imbalance_sum / windows_run.max(1) as f64);
    rep.exact("obs.journal_records", journal as f64);
    rep
}

/// Splits `total` threads over leases in proportion to their clients
/// (largest remainder, ties to the earlier lease), at least one each.
fn apportion(clients: &[u32], total: u32) -> Vec<u32> {
    let n = clients.len() as u32;
    let spare = total.saturating_sub(n);
    let sum = u64::from(clients.iter().sum::<u32>().max(1));
    let quota: Vec<u64> = clients
        .iter()
        .map(|&c| u64::from(c) * u64::from(spare))
        .collect();
    let mut out: Vec<u32> = quota.iter().map(|q| 1 + (q / sum) as u32).collect();
    let mut order: Vec<usize> = (0..clients.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(quota[i] % sum), i));
    let left = total.saturating_sub(out.iter().sum());
    for &i in order.iter().take(left as usize) {
        out[i] += 1;
    }
    out
}

fn events_of(rack: &Rack, host: &str) -> u64 {
    rack.fabric(host).map_or(0, |f| f.events_processed())
}

/// Cuts one link of the hot lease's current route, picked by the seed:
/// the first link strands the lease (its route is lost), a later one
/// makes the fabric detour.
fn schedule_cut(d: &mut Churn<'_>, pick: u64, lead: SimTime) {
    let Some(hot) = d.base.first().cloned() else {
        return;
    };
    let span = d.tr.open("fabric.chaos", hot.id.0);
    let link = d.rack.lease_path(hot.id).and_then(|p| {
        let f = d.rack.fabric(&hot.borrower)?;
        let route = f.topology_route(p)?;
        let names = f.topology_link_names();
        let idx = route.links[(pick % route.links.len() as u64) as usize];
        names.get(idx).cloned()
    });
    if let (Some(link), Some(f)) = (link, d.rack.fabric_mut(&hot.borrower)) {
        let at = f.now() + lead;
        f.schedule_chaos(&ChaosPlan::new().link_down_named(at, &link));
    }
    d.tr.close(span);
}

/// Fails one lane on the first link of the bonded lease's route.
fn schedule_lane_fail(d: &mut Churn<'_>, lead: SimTime) {
    let Some(bonded) = d.base.iter().find(|l| l.bonded).cloned() else {
        return;
    };
    let span = d.tr.open("fabric.chaos", bonded.id.0);
    let link = d.rack.lease_path(bonded.id).and_then(|p| {
        let f = d.rack.fabric(&bonded.borrower)?;
        let first = *f.topology_route(p)?.links.first()?;
        f.topology_link_names().get(first).cloned()
    });
    if let (Some(link), Some(f)) = (link, d.rack.fabric_mut(&bonded.borrower)) {
        let at = f.now() + lead;
        f.schedule_chaos(&ChaosPlan::new().lane_fail_named(at, &link));
    }
    d.tr.close(span);
}

#[cfg(test)]
mod tests {
    use super::apportion;

    #[test]
    fn apportion_keeps_the_total_and_one_thread_each() {
        assert_eq!(
            apportion(&[490, 245, 163, 122, 98, 82], 24),
            vec![8, 5, 3, 3, 3, 2]
        );
        assert_eq!(apportion(&[1_200, 0, 0], 6), vec![4, 1, 1]);
        assert_eq!(apportion(&[1, 1, 1], 4), vec![2, 1, 1]);
        for deal in [[7u32, 0, 5, 9], [1, 0, 0, 0], [100, 200, 300, 400]] {
            let t = apportion(&deal, 24);
            assert_eq!(t.iter().sum::<u32>(), 24);
            assert!(t.iter().all(|&x| x >= 1));
        }
    }
}
