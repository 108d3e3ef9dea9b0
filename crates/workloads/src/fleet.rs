//! Fleet-scale SLO scenarios: thousands of clients on a torus rack.
//!
//! The paper evaluates ThymesisFlow one workload at a time; a rack
//! serving millions of users sees all of them at once — YCSB-shaped
//! databases, memcached-shaped caches and search-shaped scan engines
//! sharing the same cables, with a zipf hotspot, a diurnal load curve
//! and the occasional dead link or dead donor. A [`FleetScenario`]
//! stages exactly that story on a 4×4 torus:
//!
//! 1. **Populate** — base leases attach with SLO contracts
//!    ([`Rack::attach_with_slo`]) across the torus, two of them
//!    fighting over one hot route; [`dcsim::churn`] deals extra
//!    tenants that arrive and leave as the phases play out. The
//!    scenario's simulated clients are dealt to leases by a
//!    [`ZipfSampler`], so a head lease soaks up a third of the fleet.
//! 2. **Calibrate** — a steady slice at the ladder's top load factor
//!    measures each lease's undisturbed p99/p99.9; contracts get
//!    `measured × margin` latency budgets plus an availability floor.
//! 3. **Ladder** — a [`PhaseClock`] walks diurnal phases
//!    (steady → peak → recovery). Each phase scales every class's
//!    closed-loop intensity by its load factor and may inject a chaos
//!    ladder at its opening: cut the hot route's interior link,
//!    degrade a bonded lane, crash a donor ([`Rack::crash_donor`]).
//!    Streams run across *all* borrower fabrics at once via
//!    [`Rack::run_fleet_streams`]; every window closes with a
//!    [`Rack::evaluate_slos`] judgement and a [`Recorder`] poll.
//! 4. **Report** — the run condenses into a [`FleetReport`]: per-lease
//!    p99/p99.9 load-to-use and availability, a per-phase breach
//!    ledger, and the fleet's hottest-link congestion snapshot
//!    ([`Rack::hottest_link`]).
//!
//! Every step is a pure function of `(scenario, seed)`: borrower
//! fabrics are independent event queues, so running them on 1 or 4
//! workers yields byte-identical reports — `tests/fleet_scenario.rs`
//! gates on exactly that.
//!
//! [`Rack::attach_with_slo`]: thymesisflow_core::rack::Rack::attach_with_slo
//! [`Rack::crash_donor`]: thymesisflow_core::rack::Rack::crash_donor
//! [`Rack::run_fleet_streams`]: thymesisflow_core::rack::Rack::run_fleet_streams
//! [`Rack::evaluate_slos`]: thymesisflow_core::rack::Rack::evaluate_slos
//! [`Rack::hottest_link`]: thymesisflow_core::rack::Rack::hottest_link
//! [`ZipfSampler`]: simkit::rng::ZipfSampler
//! [`PhaseClock`]: simkit::obs::PhaseClock
//! [`Recorder`]: simkit::obs::Recorder

use std::collections::BTreeMap;

use dcsim::churn::phase_churn;
use dcsim::trace::TraceParams;
use serde::Value;
use simkit::obs::{PhaseClock, Recorder};
use simkit::rng::{DetRng, ZipfSampler};
use simkit::time::SimTime;
use simkit::units::{f64_to_u64_saturating, GIB};
use thymesisflow_core::attach::{AttachRequest, LeaseId};
use thymesisflow_core::fabric::{ChaosPlan, SloSpec};
use thymesisflow_core::rack::{
    LeaseResolution, NodeConfig, Rack, RackBuilder, RackError,
};

/// Torus side length: every scenario runs on a `SIDE × SIDE` torus.
const SIDE: usize = 4;

/// Chaos events fire this far into their phase, so the phase's first
/// window always sees the disruption land mid-stream.
const CHAOS_LEAD: SimTime = SimTime::from_us(5);

/// The traffic shape a lease serves — the paper's application classes
/// reduced to their closed-loop fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficClass {
    /// YCSB/VoltDB-shaped: moderate outstanding window per client.
    Ycsb,
    /// Memcached-shaped: many small GET-sized requests in flight.
    Memcached,
    /// Search-shaped: few clients, deep scan windows.
    Search,
}

impl TrafficClass {
    /// Every class, in the rotation order leases are dealt.
    pub const ALL: [TrafficClass; 3] =
        [TrafficClass::Ycsb, TrafficClass::Memcached, TrafficClass::Search];

    /// The class's stable schema name.
    pub const fn name(self) -> &'static str {
        match self {
            TrafficClass::Ycsb => "ycsb",
            TrafficClass::Memcached => "memcached",
            TrafficClass::Search => "search",
        }
    }

    /// Outstanding cachelines per closed-loop thread.
    const fn window(self) -> u32 {
        match self {
            TrafficClass::Ycsb => 8,
            TrafficClass::Memcached => 4,
            TrafficClass::Search => 16,
        }
    }

    /// How many simulated clients one closed-loop thread stands in for.
    const fn clients_per_thread(self) -> f64 {
        match self {
            TrafficClass::Ycsb => 50.0,
            TrafficClass::Memcached => 40.0,
            TrafficClass::Search => 100.0,
        }
    }

    /// Ceiling on threads per lease (keeps one hot lease from starving
    /// the event queue).
    const fn max_threads(self) -> f64 {
        match self {
            TrafficClass::Ycsb => 16.0,
            TrafficClass::Memcached => 24.0,
            TrafficClass::Search => 8.0,
        }
    }
}

/// One rung of a phase's chaos ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetChaos {
    /// Cut the interior link of the hot lease's current route.
    CutHotRoute,
    /// Fail one bonded lane on the first link of the first bonded
    /// lease's route (a degradation, not an outage).
    DegradeHotLane,
    /// Crash this donor host; its leases fault and evacuate.
    CrashDonor(String),
}

/// One diurnal phase of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPhase {
    /// Phase name (lands in the breach ledger and report).
    pub name: String,
    /// Simulated phase length.
    pub duration: SimTime,
    /// Load factor scaling every class's client intensity.
    pub load: f64,
    /// Chaos injected as the phase opens.
    pub chaos: Vec<FleetChaos>,
}

impl FleetPhase {
    /// An undisturbed phase.
    pub fn new(name: &str, duration: SimTime, load: f64) -> Self {
        FleetPhase {
            name: name.to_string(),
            duration,
            load,
            chaos: Vec::new(),
        }
    }

    /// Adds a chaos rung to the phase's opening.
    pub fn with_chaos(mut self, chaos: FleetChaos) -> Self {
        self.chaos.push(chaos);
        self
    }
}

/// A fleet-scale scenario: the fleet's shape plus its phase ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScenario {
    /// Scenario name (lands in the report).
    pub name: String,
    /// Master seed for every deterministic draw the scenario makes.
    pub seed: u64,
    /// Simulated clients dealt across the base leases.
    pub clients: u32,
    /// Zipf exponent of the client-to-lease hotspot skew.
    pub hot_theta: f64,
    /// SLO evaluation / recorder window length.
    pub window: SimTime,
    /// The diurnal phase ladder, walked in order.
    pub phases: Vec<FleetPhase>,
    /// Churning tenants dealt from the synthetic cluster trace.
    pub churn_tenants: usize,
    /// Latency budgets are `calibrated quantile × this margin`.
    pub p99_margin: f64,
    /// Availability floor every contract carries.
    pub availability_floor: f64,
}

impl FleetScenario {
    /// The canonical ladder: steady → peak-with-chaos → recovery, 2 000
    /// clients, a zipf(1.0) hotspot and a 12-tenant churn stream. The
    /// peak phase cuts the hot route, degrades a bonded lane and
    /// crashes donor `n23`.
    pub fn standard(seed: u64) -> Self {
        FleetScenario {
            name: "fleet-slo".to_string(),
            seed,
            clients: 2_000,
            hot_theta: 1.0,
            window: SimTime::from_us(20),
            phases: vec![
                FleetPhase::new("steady", SimTime::from_us(100), 1.0),
                FleetPhase::new("peak", SimTime::from_us(120), 1.25)
                    .with_chaos(FleetChaos::CutHotRoute)
                    .with_chaos(FleetChaos::DegradeHotLane)
                    .with_chaos(FleetChaos::CrashDonor("n23".to_string())),
                FleetPhase::new("recovery", SimTime::from_us(80), 0.6),
            ],
            churn_tenants: 12,
            p99_margin: 1.2,
            availability_floor: 0.999,
        }
    }

    /// [`FleetScenario::standard`] with every chaos rung removed — the
    /// undisturbed control arm that must finish with zero breaches.
    pub fn control(seed: u64) -> Self {
        let mut s = FleetScenario::standard(seed);
        s.name = "fleet-slo-control".to_string();
        for phase in &mut s.phases {
            phase.chaos.clear();
        }
        s
    }

    /// A shortened standard ladder for test suites: same shape and
    /// chaos, ~40% of the simulated time, still ≥ 1 000 clients.
    pub fn quick(seed: u64) -> Self {
        let mut s = FleetScenario::standard(seed);
        s.name = "fleet-slo-quick".to_string();
        s.clients = 1_200;
        s.churn_tenants = 8;
        s.phases = vec![
            FleetPhase::new("steady", SimTime::from_us(60), 1.0),
            FleetPhase::new("peak", SimTime::from_us(60), 1.25)
                .with_chaos(FleetChaos::CutHotRoute)
                .with_chaos(FleetChaos::DegradeHotLane)
                .with_chaos(FleetChaos::CrashDonor("n23".to_string())),
            FleetPhase::new("recovery", SimTime::from_us(40), 0.6),
        ];
        s
    }

    /// Runs the scenario on `workers` threads and condenses it into a
    /// [`FleetReport`]. The report is a pure function of the scenario:
    /// any worker count produces byte-identical JSON.
    ///
    /// # Errors
    ///
    /// Propagates rack assembly, attach and fabric failures.
    pub fn run(&self, workers: usize) -> Result<FleetReport, RackError> {
        let mut rack = build_torus()?;
        rack.set_observability(true);

        // ---- populate: base leases + the zipf client deal -----------
        let mut leases = base_leases(&mut rack, self.availability_floor)?;
        deal_clients(&mut leases, self.seed, self.clients, self.hot_theta);
        let hot = 0usize; // zipf key 0 is the most popular by construction
        rack.set_lease_telemetry(leases[hot].id, true)?;
        let mut recorder = Recorder::new(self.window, 64);
        let hot_borrower = leases[hot].borrower.clone();

        // ---- populate: churn tenants from the cluster trace ---------
        let schedule = phase_churn(
            &TraceParams::default(),
            self.seed ^ 0x5eed,
            self.churn_tenants,
            self.phases.len(),
        );
        let mut churn: BTreeMap<u64, ChurnLease> = BTreeMap::new();
        let mut churn_stats = ChurnStats::default();

        // ---- calibrate at the ladder's top load factor --------------
        let top_load = self
            .phases
            .iter()
            .map(|p| p.load)
            .fold(1.0f64, f64::max);
        let cal_loads = stream_loads(&leases, &churn, top_load);
        rack.run_fleet_streams(&cal_loads, self.window + self.window, workers)?;
        for lease in &leases {
            let Some((p99, p999)) = lease_quantiles(&rack, lease.id) else {
                continue;
            };
            rack.set_lease_slo(
                lease.id,
                SloSpec::new()
                    .p99(scale_budget(p99, self.p99_margin))
                    .p999(scale_budget(p999, self.p99_margin))
                    .availability(self.availability_floor),
            )?;
        }

        // ---- walk the ladder ----------------------------------------
        let clock = PhaseClock::new(
            self.phases
                .iter()
                .map(|p| (p.name.clone(), p.duration)),
        );
        let mut ledger: Vec<BreachEntry> = Vec::new();
        let mut phase_rows: Vec<PhaseSummary> = Vec::new();
        let mut cursor = SimTime::ZERO;
        for (phase, segment) in self.phases.iter().zip(clock.phases()) {
            // Tenant churn at the phase boundary.
            for tenant in &schedule {
                let index = phase_rows.len();
                if tenant.arrive_phase == index {
                    match attach_churn(&mut rack, tenant.id, tenant.mem_fraction, self.availability_floor) {
                        Ok(lease) => {
                            churn.insert(tenant.id, lease);
                            churn_stats.attached += 1;
                        }
                        Err(_) => churn_stats.skipped += 1,
                    }
                }
                if tenant.depart_phase == index {
                    if let Some(lease) = churn.remove(&tenant.id) {
                        rack.detach(lease.id)?;
                        churn_stats.detached += 1;
                    }
                }
            }
            // The phase's chaos ladder. Link-level rungs are fabric
            // events scheduled now and landing mid-window; donor
            // crashes are rack operations held until one undrained
            // slice has loads in flight for the crash to fault.
            let mut chaos_applied: Vec<String> = Vec::new();
            let mut crashes: Vec<&FleetChaos> = Vec::new();
            for rung in &phase.chaos {
                if matches!(rung, FleetChaos::CrashDonor(_)) {
                    crashes.push(rung);
                } else if let Some(note) =
                    inject_chaos(&mut rack, rung, &mut leases, &mut churn)?
                {
                    chaos_applied.push(note);
                }
            }
            // Window loop: run, poll, judge.
            let completed_before = fleet_completed(&rack, &leases, &churn);
            let mut windows = 0u64;
            let before = ledger.len();
            if !crashes.is_empty() {
                let slice = self.window.min(segment.end.saturating_sub(cursor));
                let loads = stream_loads(&leases, &churn, phase.load);
                if !loads.is_empty() {
                    rack.run_fleet_streams_undrained(&loads, slice, workers)?;
                    cursor = cursor + slice;
                    windows += 1;
                }
                for rung in crashes {
                    if let Some(note) =
                        inject_chaos(&mut rack, rung, &mut leases, &mut churn)?
                    {
                        chaos_applied.push(note);
                    }
                }
                // Judge the crash window right away so a dying lease's
                // final availability breach lands in this phase.
                push_breaches(&mut ledger, &phase.name, rack.evaluate_slos()?);
            }
            while cursor < segment.end {
                let slice = self.window.min(segment.end.saturating_sub(cursor));
                let loads = stream_loads(&leases, &churn, phase.load);
                if loads.is_empty() {
                    break;
                }
                rack.run_fleet_streams(&loads, slice, workers)?;
                cursor = cursor + slice;
                windows += 1;
                if let Some(fabric) = rack.fabric_mut(&hot_borrower) {
                    if recorder.due(fabric.now()) {
                        let snap = fabric.telemetry_snapshot();
                        recorder.record(snap);
                    }
                }
                push_breaches(&mut ledger, &phase.name, rack.evaluate_slos()?);
            }
            phase_rows.push(PhaseSummary {
                name: phase.name.clone(),
                load: phase.load,
                start_ns: segment.start.as_ns(),
                end_ns: segment.end.as_ns(),
                windows,
                completed: fleet_completed(&rack, &leases, &churn)
                    .saturating_sub(completed_before),
                breaches: (ledger.len() - before) as u64,
                chaos: chaos_applied,
            });
        }

        // ---- condense -----------------------------------------------
        let lease_rows = leases
            .iter()
            .map(|l| summarize_lease(&rack, l))
            .collect();
        let hottest = rack.hottest_link().map(|(host, link)| HottestLink {
            host,
            link: link.name.clone(),
            utilization: link.utilization,
            stall_ns: link.stall_ns,
            frames: link.frames(),
        });
        let retired_per_window: Vec<u64> = recorder
            .deltas("fabric.loads.retired")
            .iter()
            .map(|&(_, d)| d)
            .collect();
        Ok(FleetReport {
            scenario: self.name.clone(),
            seed: self.seed,
            clients: self.clients,
            topology: format!("{SIDE}x{SIDE}-torus"),
            leases: lease_rows,
            phases: phase_rows,
            breaches: ledger,
            hottest: hottest,
            churn: churn_stats,
            hot_lease_retired_per_window: retired_per_window,
        })
    }
}

/// A live base lease and its fleet bookkeeping.
#[derive(Debug, Clone)]
struct FleetLease {
    id: LeaseId,
    class: TrafficClass,
    borrower: String,
    donor: String,
    bonded: bool,
    clients: u64,
    /// Dead donor with no surviving capacity: excluded from loads.
    poisoned: bool,
}

/// A live churn lease.
#[derive(Debug, Clone)]
struct ChurnLease {
    id: LeaseId,
    poisoned: bool,
}

/// Aggregate churn accounting for the report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnStats {
    /// Tenants that attached successfully.
    pub attached: u64,
    /// Tenants whose attach was rejected (capacity or path).
    pub skipped: u64,
    /// Tenants detached at their departure phase.
    pub detached: u64,
}

/// One breach, tagged with the phase it landed in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreachEntry {
    /// Phase name the breach was judged in.
    pub phase: String,
    /// Breaching lease id.
    pub lease: u64,
    /// Breach kind's schema name (`p99` / `p999` / `availability`).
    pub kind: String,
    /// Fabric instant of the judgement, nanoseconds.
    pub at_ns: u64,
    /// Human-readable magnitude (observed vs budget).
    pub detail: String,
}

/// One phase's roll-up.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSummary {
    /// Phase name.
    pub name: String,
    /// Load factor the phase ran at.
    pub load: f64,
    /// Scenario-clock open, nanoseconds.
    pub start_ns: u64,
    /// Scenario-clock close, nanoseconds.
    pub end_ns: u64,
    /// Stream windows the phase ran.
    pub windows: u64,
    /// Loads completed fleet-wide during the phase.
    pub completed: u64,
    /// Breaches judged during the phase.
    pub breaches: u64,
    /// Chaos rungs applied at the phase's opening (`kind:target`).
    pub chaos: Vec<String>,
}

/// One base lease's whole-run roll-up.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseSummary {
    /// Lease id (the replacement's id if the lease was evacuated).
    pub lease: u64,
    /// Traffic class name.
    pub class: String,
    /// Borrower host.
    pub borrower: String,
    /// Donor host currently serving the lease.
    pub donor: String,
    /// Simulated clients dealt to the lease.
    pub clients: u64,
    /// Whole-run p99 load-to-use, nanoseconds (0 if nothing completed).
    pub p99_ns: u64,
    /// Whole-run p99.9 load-to-use, nanoseconds.
    pub p999_ns: u64,
    /// Completed / (completed + faulted); 1.0 for an idle lease.
    pub availability: f64,
    /// Loads completed on the lease's current path.
    pub completed: u64,
    /// Loads faulted on the lease's current path.
    pub faulted: u64,
}

/// The fleet's hottest link across every borrower fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct HottestLink {
    /// Borrower host whose fabric carries the link.
    pub host: String,
    /// Topology link name.
    pub link: String,
    /// Exact busy-time utilization of the hottest channel (0..=1).
    pub utilization: f64,
    /// Nanoseconds frames spent credit-stalled at the link's hops.
    pub stall_ns: u64,
    /// Frames carried.
    pub frames: u64,
}

/// What a [`FleetScenario::run`] leaves behind: the structured fleet
/// report the example exports and CI gates on.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Scenario name.
    pub scenario: String,
    /// Master seed the run used.
    pub seed: u64,
    /// Simulated clients dealt across the base leases.
    pub clients: u32,
    /// Topology descriptor (`4x4-torus`).
    pub topology: String,
    /// Per-lease roll-ups, in lease order.
    pub leases: Vec<LeaseSummary>,
    /// Per-phase roll-ups, in ladder order.
    pub phases: Vec<PhaseSummary>,
    /// Every breach, in judgement order.
    pub breaches: Vec<BreachEntry>,
    /// The fleet's hottest link, if any traffic flowed.
    pub hottest: Option<HottestLink>,
    /// Churn accounting.
    pub churn: ChurnStats,
    /// The hot lease's loads-retired per recorder window.
    pub hot_lease_retired_per_window: Vec<u64>,
}

impl FleetReport {
    /// Schema version of [`FleetReport::to_value`].
    pub const SCHEMA: u64 = 1;

    /// Breach entries judged in phase `phase`.
    pub fn breaches_in(&self, phase: &str) -> Vec<&BreachEntry> {
        self.breaches.iter().filter(|b| b.phase == phase).collect()
    }

    /// The report as a schema-v1 JSON value.
    pub fn to_value(&self) -> Value {
        let leases = self
            .leases
            .iter()
            .map(|l| {
                Value::Map(vec![
                    ("lease".to_string(), Value::UInt(l.lease)),
                    ("class".to_string(), Value::Str(l.class.clone())),
                    ("borrower".to_string(), Value::Str(l.borrower.clone())),
                    ("donor".to_string(), Value::Str(l.donor.clone())),
                    ("clients".to_string(), Value::UInt(l.clients)),
                    ("p99_ns".to_string(), Value::UInt(l.p99_ns)),
                    ("p999_ns".to_string(), Value::UInt(l.p999_ns)),
                    ("availability".to_string(), Value::Float(l.availability)),
                    ("completed".to_string(), Value::UInt(l.completed)),
                    ("faulted".to_string(), Value::UInt(l.faulted)),
                ])
            })
            .collect();
        let phases = self
            .phases
            .iter()
            .map(|p| {
                Value::Map(vec![
                    ("phase".to_string(), Value::Str(p.name.clone())),
                    ("load".to_string(), Value::Float(p.load)),
                    ("start_ns".to_string(), Value::UInt(p.start_ns)),
                    ("end_ns".to_string(), Value::UInt(p.end_ns)),
                    ("windows".to_string(), Value::UInt(p.windows)),
                    ("completed".to_string(), Value::UInt(p.completed)),
                    ("breaches".to_string(), Value::UInt(p.breaches)),
                    (
                        "chaos".to_string(),
                        Value::Seq(p.chaos.iter().cloned().map(Value::Str).collect()),
                    ),
                ])
            })
            .collect();
        let breaches = self
            .breaches
            .iter()
            .map(|b| {
                Value::Map(vec![
                    ("phase".to_string(), Value::Str(b.phase.clone())),
                    ("lease".to_string(), Value::UInt(b.lease)),
                    ("kind".to_string(), Value::Str(b.kind.clone())),
                    ("at_ns".to_string(), Value::UInt(b.at_ns)),
                    ("detail".to_string(), Value::Str(b.detail.clone())),
                ])
            })
            .collect();
        let hottest = match &self.hottest {
            Some(h) => Value::Map(vec![
                ("host".to_string(), Value::Str(h.host.clone())),
                ("link".to_string(), Value::Str(h.link.clone())),
                ("utilization".to_string(), Value::Float(h.utilization)),
                ("stall_ns".to_string(), Value::UInt(h.stall_ns)),
                ("frames".to_string(), Value::UInt(h.frames)),
            ]),
            None => Value::Null,
        };
        Value::Map(vec![
            ("schema".to_string(), Value::UInt(Self::SCHEMA)),
            ("scenario".to_string(), Value::Str(self.scenario.clone())),
            ("seed".to_string(), Value::UInt(self.seed)),
            ("clients".to_string(), Value::UInt(u64::from(self.clients))),
            ("topology".to_string(), Value::Str(self.topology.clone())),
            ("leases".to_string(), Value::Seq(leases)),
            ("phases".to_string(), Value::Seq(phases)),
            ("breaches".to_string(), Value::Seq(breaches)),
            ("hottest_link".to_string(), hottest),
            (
                "churn".to_string(),
                Value::Map(vec![
                    ("tenants_attached".to_string(), Value::UInt(self.churn.attached)),
                    ("tenants_skipped".to_string(), Value::UInt(self.churn.skipped)),
                    ("tenants_detached".to_string(), Value::UInt(self.churn.detached)),
                ]),
            ),
            (
                "hot_lease_retired_per_window".to_string(),
                Value::Seq(
                    self.hot_lease_retired_per_window
                        .iter()
                        .map(|&d| Value::UInt(d))
                        .collect(),
                ),
            ),
        ])
    }

    /// The report as one JSON document (newline-terminated).
    ///
    /// # Panics
    ///
    /// Never in practice: the value contains no non-serializable nodes.
    pub fn to_json(&self) -> String {
        let mut json = serde_json::to_string(&self.to_value())
            .unwrap_or_else(|e| panic!("fleet report serializes: {e:?}"));
        json.push('\n');
        json
    }
}

/// Builds the `SIDE × SIDE` torus rack, cabled row- and column-wise.
fn build_torus() -> Result<Rack, RackError> {
    let mut builder = RackBuilder::new();
    for r in 0..SIDE {
        for c in 0..SIDE {
            builder = builder.node(NodeConfig::ac922(&node(r, c)));
        }
    }
    for r in 0..SIDE {
        for c in 0..SIDE {
            builder = builder
                .cable(&node(r, c), &node(r, (c + 1) % SIDE))
                .cable(&node(r, c), &node((r + 1) % SIDE, c));
        }
    }
    builder.build()
}

fn node(r: usize, c: usize) -> String {
    format!("n{r}{c}")
}

/// Attaches the base fleet: two leases contending over one hot route
/// plus one pair per remaining row, classes rotating, one bonded. The
/// hot pair and the bonded lease each hold both cables of the pairs
/// they cross, so `n11`'s lease detours around them.
fn base_leases(rack: &mut Rack, floor: f64) -> Result<Vec<FleetLease>, RackError> {
    let plan: [(&str, &str, bool); 8] = [
        ("n00", "n02", false), // the hot lease (zipf key 0)
        ("n00", "n02", false), // its rival on the same route
        ("n10", "n12", true),  // bonded: the lane-degradation target
        ("n11", "n13", false), // detours: n10-n11 and n11-n12 are full
        ("n20", "n22", false),
        ("n21", "n23", false), // donor n23: the crash target
        ("n30", "n32", false),
        ("n31", "n33", false),
    ];
    let mut leases = Vec::with_capacity(plan.len());
    for (i, &(borrower, donor, bonded)) in plan.iter().enumerate() {
        let mut req = AttachRequest::new(borrower, donor, 8 * GIB);
        if bonded {
            req = req.bonded();
        }
        let lease = rack.attach_with_slo(req, SloSpec::new().availability(floor))?;
        leases.push(FleetLease {
            id: lease.id(),
            class: TrafficClass::ALL[i % TrafficClass::ALL.len()],
            borrower: borrower.to_string(),
            donor: donor.to_string(),
            bonded,
            clients: 0,
            poisoned: false,
        });
    }
    Ok(leases)
}

/// Deals `clients` simulated clients across the base leases with zipf
/// hotspot skew: lease 0 is the head key.
fn deal_clients(leases: &mut [FleetLease], seed: u64, clients: u32, theta: f64) {
    let mut rng = DetRng::split_stream(seed, 0);
    let sampler = ZipfSampler::new(leases.len() as u64, theta);
    for _ in 0..clients {
        let key = sampler.sample(&mut rng) as usize;
        leases[key].clients += 1;
    }
}

/// Attaches one churn tenant: row-local, column 2 borrowing from
/// column 3, sized from the tenant's traced memory demand.
fn attach_churn(
    rack: &mut Rack,
    tenant: u64,
    mem_fraction: f64,
    floor: f64,
) -> Result<ChurnLease, RackError> {
    let row = (tenant as usize) % SIDE;
    let gib = f64_to_u64_saturating((mem_fraction * 8.0).ceil()).clamp(1, 8);
    let lease = rack.attach_with_slo(
        AttachRequest::new(&node(row, 2), &node(row, 3), gib * GIB),
        SloSpec::new().availability(floor),
    )?;
    Ok(ChurnLease {
        id: lease.id(),
        poisoned: false,
    })
}

/// The fleet's stream loads at one load factor: every live base lease
/// at its class intensity, every live churn lease as one light client.
fn stream_loads(
    leases: &[FleetLease],
    churn: &BTreeMap<u64, ChurnLease>,
    load: f64,
) -> Vec<(LeaseId, u32, u32)> {
    let mut out = Vec::with_capacity(leases.len() + churn.len());
    for lease in leases {
        if lease.poisoned {
            continue;
        }
        let class = lease.class;
        #[allow(clippy::cast_precision_loss)]
        let raw = lease.clients as f64 * load / class.clients_per_thread();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let threads = raw.round().clamp(1.0, class.max_threads()) as u32;
        out.push((lease.id, threads, class.window()));
    }
    for lease in churn.values() {
        if !lease.poisoned {
            out.push((lease.id, 1, 2));
        }
    }
    out
}

/// The lease's whole-run (p99, p999) in nanoseconds — `None` while the
/// path has no completions.
fn lease_quantiles(rack: &Rack, id: LeaseId) -> Option<(u64, u64)> {
    let (histogram, _) = lease_counters(rack, id)?;
    if histogram.0 == 0 {
        return None;
    }
    Some((histogram.1, histogram.2))
}

/// `(count, p99, p999)` of completions plus the path's fault count.
#[allow(clippy::type_complexity)]
fn lease_counters(rack: &Rack, id: LeaseId) -> Option<((u64, u64, u64), u64)> {
    let path = rack.lease_path(id)?;
    let lease = rack.leases().find(|l| l.id() == id)?;
    let fabric = rack.fabric(lease.compute())?;
    let histogram = fabric.completions(path).ok()?;
    let faulted = fabric.faults().iter().filter(|f| f.path == path).count() as u64;
    Some((
        (
            histogram.count(),
            histogram.quantile(0.99),
            histogram.quantile(0.999),
        ),
        faulted,
    ))
}

/// Tags judged breaches with their phase and appends them in order.
fn push_breaches(
    ledger: &mut Vec<BreachEntry>,
    phase: &str,
    breaches: Vec<thymesisflow_core::fabric::SloBreach>,
) {
    for b in breaches {
        ledger.push(BreachEntry {
            phase: phase.to_string(),
            lease: b.lease,
            kind: b.kind.name().to_string(),
            at_ns: b.at.as_ns(),
            detail: b.kind.to_string(),
        });
    }
}

/// Scales a calibrated quantile into a contract budget.
fn scale_budget(quantile_ns: u64, margin: f64) -> SimTime {
    #[allow(clippy::cast_precision_loss)]
    SimTime::from_ns_f64(quantile_ns as f64 * margin)
}

/// Total loads completed across every live fleet lease.
fn fleet_completed(
    rack: &Rack,
    leases: &[FleetLease],
    churn: &BTreeMap<u64, ChurnLease>,
) -> u64 {
    let mut total = 0u64;
    for lease in leases.iter().filter(|l| !l.poisoned) {
        if let Some(((count, _, _), _)) = lease_counters(rack, lease.id) {
            total += count;
        }
    }
    for lease in churn.values().filter(|l| !l.poisoned) {
        if let Some(((count, _, _), _)) = lease_counters(rack, lease.id) {
            total += count;
        }
    }
    total
}

/// Applies one chaos rung; returns the report note when it landed.
fn inject_chaos(
    rack: &mut Rack,
    rung: &FleetChaos,
    leases: &mut [FleetLease],
    churn: &mut BTreeMap<u64, ChurnLease>,
) -> Result<Option<String>, RackError> {
    match rung {
        FleetChaos::CutHotRoute => {
            let hot = &leases[0];
            let Some(link) = route_link(rack, hot.id, &hot.borrower, 1) else {
                return Ok(None);
            };
            let Some(fabric) = rack.fabric_mut(&hot.borrower) else {
                return Ok(None);
            };
            let at = fabric.now() + CHAOS_LEAD;
            fabric.schedule_chaos(&ChaosPlan::new().link_down_named(at, &link));
            Ok(Some(format!("link_down:{link}")))
        }
        FleetChaos::DegradeHotLane => {
            let Some(bonded) = leases.iter().find(|l| l.bonded && !l.poisoned) else {
                return Ok(None);
            };
            let id = bonded.id;
            let borrower = bonded.borrower.clone();
            let Some(link) = route_link(rack, id, &borrower, 0) else {
                return Ok(None);
            };
            let Some(fabric) = rack.fabric_mut(&borrower) else {
                return Ok(None);
            };
            let at = fabric.now() + CHAOS_LEAD;
            fabric.schedule_chaos(&ChaosPlan::new().lane_fail_named(at, &link));
            Ok(Some(format!("lane_fail:{link}")))
        }
        FleetChaos::CrashDonor(host) => {
            let faults = rack.crash_donor(host)?;
            let mut faulted_loads = 0usize;
            for fault in &faults {
                faulted_loads += fault.loads_faulted;
                match &fault.resolution {
                    LeaseResolution::Migrated { lease: new_id, donor } => {
                        for l in leases.iter_mut() {
                            if l.id == fault.lease {
                                l.id = *new_id;
                                l.donor = donor.clone();
                            }
                        }
                        for l in churn.values_mut() {
                            if l.id == fault.lease {
                                l.id = *new_id;
                            }
                        }
                    }
                    LeaseResolution::Poisoned => {
                        for l in leases.iter_mut() {
                            if l.id == fault.lease {
                                l.poisoned = true;
                            }
                        }
                        for l in churn.values_mut() {
                            if l.id == fault.lease {
                                l.poisoned = true;
                            }
                        }
                    }
                }
            }
            Ok(Some(format!(
                "donor_crash:{host} ({} leases, {faulted_loads} loads faulted)",
                faults.len()
            )))
        }
    }
}

/// The `index`-th link name of a lease's current route (clamped to the
/// route's last link).
fn route_link(rack: &Rack, id: LeaseId, borrower: &str, index: usize) -> Option<String> {
    let path = rack.lease_path(id)?;
    let fabric = rack.fabric(borrower)?;
    let names = fabric.topology_link_names();
    let route = fabric.topology_route(path)?;
    let link = route
        .links
        .get(index)
        .or_else(|| route.links.last())
        .copied()?;
    names.get(link).cloned()
}

/// One base lease's end-of-run roll-up.
fn summarize_lease(rack: &Rack, lease: &FleetLease) -> LeaseSummary {
    let (counters, faulted) =
        lease_counters(rack, lease.id).unwrap_or(((0, 0, 0), 0));
    let (completed, p99_ns, p999_ns) = counters;
    let total = completed + faulted;
    #[allow(clippy::cast_precision_loss)]
    let availability = if total == 0 {
        1.0
    } else {
        completed as f64 / total as f64
    };
    LeaseSummary {
        lease: lease.id.0,
        class: lease.class.name().to_string(),
        borrower: lease.borrower.clone(),
        donor: lease.donor.clone(),
        clients: lease.clients,
        p99_ns,
        p999_ns,
        availability,
        completed,
        faulted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_names_and_shapes_are_stable() {
        assert_eq!(TrafficClass::Ycsb.name(), "ycsb");
        assert_eq!(TrafficClass::Memcached.name(), "memcached");
        assert_eq!(TrafficClass::Search.name(), "search");
        for class in TrafficClass::ALL {
            assert!(class.window() >= 2);
            assert!(class.clients_per_thread() > 0.0);
            assert!(class.max_threads() >= 1.0);
        }
    }

    #[test]
    fn control_strips_every_chaos_rung() {
        let control = FleetScenario::control(1);
        assert!(control.phases.iter().all(|p| p.chaos.is_empty()));
        let standard = FleetScenario::standard(1);
        assert!(standard.phases.iter().any(|p| !p.chaos.is_empty()));
        assert_eq!(control.phases.len(), standard.phases.len());
    }

    #[test]
    fn quick_ladder_keeps_the_thousand_client_floor() {
        let quick = FleetScenario::quick(1);
        assert!(quick.clients >= 1_000);
        assert!(quick.phases.iter().any(|p| !p.chaos.is_empty()));
    }

    #[test]
    fn zipf_deal_concentrates_on_the_head_lease() {
        let mut rack = build_torus().expect("torus assembles");
        let mut leases = base_leases(&mut rack, 0.999).expect("base fleet attaches");
        deal_clients(&mut leases, 7, 2_000, 1.0);
        let total: u64 = leases.iter().map(|l| l.clients).sum();
        assert_eq!(total, 2_000);
        let head = leases[0].clients;
        assert!(
            leases.iter().all(|l| l.clients <= head),
            "lease 0 must be the head key"
        );
        // theta=1 over 8 keys: head share = ln(2)/ln(8) = 1/3.
        assert!(
            (500..=850).contains(&head),
            "head lease holds {head} of 2000 clients"
        );
    }
}
