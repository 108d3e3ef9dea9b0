//! The fabric's observability plane: causal event journal, congestion
//! heatmaps and per-lease SLO contracts.
//!
//! Three layers, all pure observers (recording never schedules events,
//! so enabling any of them cannot change a run's trajectory — the same
//! contract [`Fabric::set_telemetry`](crate::fabric::Fabric::set_telemetry)
//! makes, gated by `tests/telemetry_determinism.rs`):
//!
//! * [`Journal`] — an append-only, sequence-numbered record of every
//!   *explainable* state transition: attach/detach, chaos landings,
//!   reroutes (with the new path generation and link walk), link
//!   failures, load faults, donor crashes, evacuations and SLO
//!   breaches. Each [`JournalRecord`] carries the lease id,
//!   path, chain generation and topology link names involved, and the
//!   whole journal exports as JSONL ([`Journal::to_jsonl`]) for
//!   post-hoc analysis of a chaos run.
//! * [`CongestionReport`] — a point-in-time heatmap over the declared
//!   topology's *named* links: frames carried, forwarding-queue depth
//!   and high-water, credit-stall counts and stalled nanoseconds,
//!   replay counts and exact busy-time utilization, aggregated from
//!   endpoint channels and interior hop segments alike.
//! * [`SloSpec`] / [`SloBreach`] — per-lease service-level objectives
//!   (p99 / p99.9 load-to-use latency, availability) evaluated over
//!   *windowed* histogram deltas, so a breach names the window that
//!   violated the budget rather than a lifetime average.

use std::fmt;

use serde::Value;
use simkit::stats::Histogram;
use simkit::time::SimTime;

use crate::fabric::engine::PathId;

/// What kind of transition a [`JournalRecord`] explains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalKind {
    /// A path or lease was attached.
    Attach,
    /// A path or lease was detached.
    Detach,
    /// A scripted chaos event landed on the fabric.
    Chaos,
    /// A multi-hop route detoured around a failed interior link; the
    /// record carries the new chain generation and link walk.
    Reroute,
    /// No detour survived: the path lost its route.
    RouteLost,
    /// A link was declared dead and torn out.
    LinkFailed,
    /// An in-flight load resolved to a typed fault.
    LoadFaulted,
    /// A donor host died.
    DonorCrash,
    /// A circuit was re-programmed around a failed switch port.
    SwitchReroute,
    /// A lease was evacuated off a dead donor (migrated or poisoned).
    Evacuation,
    /// A per-lease SLO window violated its budget.
    SloBreach,
}

impl JournalKind {
    /// The stable schema-v1 name of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            JournalKind::Attach => "attach",
            JournalKind::Detach => "detach",
            JournalKind::Chaos => "chaos",
            JournalKind::Reroute => "reroute",
            JournalKind::RouteLost => "route_lost",
            JournalKind::LinkFailed => "link_failed",
            JournalKind::LoadFaulted => "load_faulted",
            JournalKind::DonorCrash => "donor_crash",
            JournalKind::SwitchReroute => "switch_reroute",
            JournalKind::Evacuation => "evacuation",
            JournalKind::SloBreach => "slo_breach",
        }
    }
}

impl fmt::Display for JournalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One explainable transition (journal schema v1).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Monotonic sequence number, assigned at append — the causal
    /// order, which ties same-instant records apart.
    pub seq: u64,
    /// The simulated instant the transition happened.
    pub at: SimTime,
    /// What happened.
    pub kind: JournalKind,
    /// The lease involved, when the record is lease-scoped.
    pub lease: Option<u64>,
    /// The fabric path involved, when path-scoped.
    pub path: Option<PathId>,
    /// The forwarding-chain generation after the transition (reroutes
    /// bump it; frames of older generations are dropped and replayed).
    pub generation: Option<u32>,
    /// The topology link names involved, in walk order.
    pub links: Vec<String>,
    /// Human-readable specifics.
    pub detail: String,
}

impl JournalRecord {
    /// A record at `at` of `kind`; seq is assigned by [`Journal::record`].
    pub fn new(at: SimTime, kind: JournalKind, detail: impl Into<String>) -> Self {
        JournalRecord {
            seq: 0,
            at,
            kind,
            lease: None,
            path: None,
            generation: None,
            links: Vec::new(),
            detail: detail.into(),
        }
    }

    /// Scopes the record to a lease.
    pub fn lease(mut self, lease: u64) -> Self {
        self.lease = Some(lease);
        self
    }

    /// Scopes the record to a fabric path.
    pub fn path(mut self, path: PathId) -> Self {
        self.path = Some(path);
        self
    }

    /// Stamps the chain generation the transition produced.
    pub(crate) fn generation(mut self, generation: u32) -> Self {
        self.generation = Some(generation);
        self
    }

    /// Names the topology links involved, in walk order.
    pub fn links(mut self, links: Vec<String>) -> Self {
        self.links = links;
        self
    }

    /// The record as a JSON value (schema v1).
    pub fn to_value(&self) -> Value {
        let mut m = vec![
            ("seq".into(), Value::UInt(self.seq)),
            ("at_ns".into(), Value::UInt(self.at.as_ns())),
            ("kind".into(), Value::Str(self.kind.as_str().into())),
        ];
        if let Some(l) = self.lease {
            m.push(("lease".into(), Value::UInt(l)));
        }
        if let Some(p) = self.path {
            m.push(("path".into(), Value::UInt(u64::from(p.0))));
        }
        if let Some(g) = self.generation {
            m.push(("generation".into(), Value::UInt(u64::from(g))));
        }
        if !self.links.is_empty() {
            m.push((
                "links".into(),
                Value::Seq(self.links.iter().map(|l| Value::Str(l.clone())).collect()),
            ));
        }
        m.push(("detail".into(), Value::Str(self.detail.clone())));
        Value::Map(m)
    }
}

/// An append-only causal journal: every record gets the next sequence
/// number, so post-hoc analysis can totally order same-instant
/// transitions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    records: Vec<JournalRecord>,
    next_seq: u64,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Journal::default()
    }

    /// Appends `rec`, assigning its sequence number.
    pub fn record(&mut self, mut rec: JournalRecord) {
        rec.seq = self.next_seq;
        self.next_seq += 1;
        self.records.push(rec);
    }

    /// Every record, in causal order.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// Records of one kind, in causal order.
    pub fn of_kind(&self, kind: JournalKind) -> impl Iterator<Item = &JournalRecord> {
        self.records.iter().filter(move |r| r.kind == kind)
    }

    /// The last `n` records (the journal tail).
    pub fn tail(&self, n: usize) -> &[JournalRecord] {
        let start = self.records.len().saturating_sub(n);
        &self.records[start..]
    }

    /// Records appended so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The whole journal as JSON Lines — one schema-v1 object per
    /// record, newline-terminated.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&serde_json::to_string(&r.to_value()).unwrap_or_default());
            out.push('\n');
        }
        out
    }
}

/// One named topology link's congestion signals, aggregated over every
/// endpoint channel and interior hop segment crossing it.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkCongestion {
    /// The topology link's declared name (e.g. `"h5-h6"`).
    pub name: String,
    /// Frames carried by endpoint channels riding this link.
    pub endpoint_frames: u64,
    /// Frames forwarded by interior hop segments crossing this link.
    pub forwarded: u64,
    /// Frames currently queued for a forwarding credit.
    pub queue_depth: usize,
    /// Deepest any forwarding queue on this link ever got.
    pub queue_high_water: usize,
    /// Arrivals that found no forwarding credit and had to queue.
    pub credit_stalls: u64,
    /// Total simulated nanoseconds frames spent stalled for credits.
    pub stall_ns: u64,
    /// Link-layer replays on endpoint channels riding this link.
    pub replays: u64,
    /// Exact busy-time utilization (0..=1) of the hottest channel on
    /// this link, from the serialization model's busy accounting.
    pub utilization: f64,
    /// Whether any channel on this link is administratively down.
    pub down: bool,
}

impl LinkCongestion {
    pub(crate) fn new(name: String) -> Self {
        LinkCongestion {
            name,
            endpoint_frames: 0,
            forwarded: 0,
            queue_depth: 0,
            queue_high_water: 0,
            credit_stalls: 0,
            stall_ns: 0,
            replays: 0,
            utilization: 0.0,
            down: false,
        }
    }

    /// Frames that crossed the link in either role.
    pub fn frames(&self) -> u64 {
        self.endpoint_frames + self.forwarded
    }
}

/// A point-in-time congestion heatmap over the declared topology,
/// keyed by link *name* — the same vocabulary named chaos targets and
/// journal records use.
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionReport {
    /// The instant the report was taken.
    pub at: SimTime,
    links: Vec<LinkCongestion>,
}

impl CongestionReport {
    pub(crate) fn new(at: SimTime, links: Vec<LinkCongestion>) -> Self {
        CongestionReport { at, links }
    }

    /// Every link's signals, in topology link-index order.
    pub fn links(&self) -> &[LinkCongestion] {
        &self.links
    }

    /// One link's signals by name.
    pub fn get(&self, name: &str) -> Option<&LinkCongestion> {
        self.links.iter().find(|l| l.name == name)
    }

    /// The most congested link: highest utilization, credit-stall time
    /// breaking ties, carried frames breaking those.
    pub fn hottest(&self) -> Option<&LinkCongestion> {
        self.links.iter().max_by(|a, b| {
            (a.utilization, a.stall_ns, a.frames())
                .partial_cmp(&(b.utilization, b.stall_ns, b.frames()))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// An ASCII heatmap: one row per link that has carried traffic (or
    /// is down), a bar proportional to utilization, and the stall /
    /// queue signals beside it.
    pub fn render(&self) -> String {
        let mut out = format!("congestion @ {} ns\n", self.at.as_ns());
        let width = self
            .links
            .iter()
            .map(|l| l.name.len())
            .max()
            .unwrap_or(4)
            .max(4);
        for l in &self.links {
            if l.frames() == 0 && !l.down {
                continue;
            }
            let bars = (l.utilization * 20.0).round() as usize;
            let bar: String = "#".repeat(bars.min(20));
            let state = if l.down { " DOWN" } else { "" };
            out.push_str(&format!(
                "{:width$}  [{bar:<20}] {:5.1}%  frames {:>8}  stalls {:>6} ({} ns)  q {}/{}{state}\n",
                l.name,
                l.utilization * 100.0,
                l.frames(),
                l.credit_stalls,
                l.stall_ns,
                l.queue_depth,
                l.queue_high_water,
                width = width,
            ));
        }
        out
    }
}

/// A per-lease service-level objective: latency quantile budgets over
/// each evaluation window, and an availability floor.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloSpec {
    /// p99 load-to-use budget, if contracted.
    pub p99: Option<SimTime>,
    /// p99.9 load-to-use budget, if contracted.
    pub p999: Option<SimTime>,
    /// Minimum fraction of loads that must complete (not fault) per
    /// window, if contracted (0..=1).
    pub min_availability: Option<f64>,
}

impl SloSpec {
    /// An empty contract (never breaches).
    pub fn new() -> Self {
        SloSpec::default()
    }

    /// Contracts a p99 load-to-use budget.
    pub fn p99(mut self, budget: SimTime) -> Self {
        self.p99 = Some(budget);
        self
    }

    /// Contracts a p99.9 load-to-use budget.
    pub fn p999(mut self, budget: SimTime) -> Self {
        self.p999 = Some(budget);
        self
    }

    /// Contracts an availability floor (fraction of loads completing).
    pub fn availability(mut self, floor: f64) -> Self {
        self.min_availability = Some(floor);
        self
    }

    /// Evaluates one window: the latency histogram *delta* for the
    /// window plus the loads completed and faulted within it. Empty
    /// windows (no completions, no faults) never breach — there is
    /// nothing to judge. Latency budgets are judged only against
    /// windows that completed at least one load (an empty histogram's
    /// quantile reads 0, which is a gap, not a measurement);
    /// availability is judged whenever the window saw traffic, so a
    /// window of nothing *but* faults still counts as 0% available.
    pub(crate) fn evaluate(
        &self,
        lease: u64,
        at: SimTime,
        window: &Histogram,
        faulted: u64,
    ) -> Vec<SloBreach> {
        if window.is_empty() && faulted == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        if !window.is_empty() {
            if let Some(budget) = self.p99 {
                let observed = window.quantile(0.99);
                if observed > budget.as_ns() {
                    out.push(SloBreach {
                        lease,
                        at,
                        kind: SloBreachKind::P99 {
                            observed_ns: observed,
                            budget_ns: budget.as_ns(),
                        },
                    });
                }
            }
            if let Some(budget) = self.p999 {
                let observed = window.quantile(0.999);
                if observed > budget.as_ns() {
                    out.push(SloBreach {
                        lease,
                        at,
                        kind: SloBreachKind::P999 {
                            observed_ns: observed,
                            budget_ns: budget.as_ns(),
                        },
                    });
                }
            }
        }
        if let Some(floor) = self.min_availability {
            let ok = window.count();
            let total = ok + faulted;
            if total > 0 {
                #[allow(clippy::cast_precision_loss)]
                let observed = ok as f64 / total as f64;
                if observed < floor {
                    out.push(SloBreach {
                        lease,
                        at,
                        kind: SloBreachKind::Availability { observed, floor },
                    });
                }
            }
        }
        out
    }
}

/// Which contracted objective a window violated, and by how much.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloBreachKind {
    /// The window's p99 load-to-use exceeded its budget.
    P99 {
        /// The window's observed p99, in nanoseconds.
        observed_ns: u64,
        /// The contracted budget, in nanoseconds.
        budget_ns: u64,
    },
    /// The window's p99.9 load-to-use exceeded its budget.
    P999 {
        /// The window's observed p99.9, in nanoseconds.
        observed_ns: u64,
        /// The contracted budget, in nanoseconds.
        budget_ns: u64,
    },
    /// The window completed fewer loads than the availability floor.
    Availability {
        /// The window's completed fraction.
        observed: f64,
        /// The contracted floor.
        floor: f64,
    },
}

impl SloBreachKind {
    /// The breach kind's stable schema name — the closed vocabulary
    /// (`p99`, `p999`, `availability`) that fleet reports emit and CI
    /// gates validate against.
    pub const fn name(&self) -> &'static str {
        match self {
            SloBreachKind::P99 { .. } => "p99",
            SloBreachKind::P999 { .. } => "p999",
            SloBreachKind::Availability { .. } => "availability",
        }
    }
}

impl fmt::Display for SloBreachKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SloBreachKind::P99 {
                observed_ns,
                budget_ns,
            } => write!(f, "p99 {observed_ns} ns > budget {budget_ns} ns"),
            SloBreachKind::P999 {
                observed_ns,
                budget_ns,
            } => write!(f, "p99.9 {observed_ns} ns > budget {budget_ns} ns"),
            SloBreachKind::Availability { observed, floor } => {
                write!(f, "availability {observed:.4} < floor {floor:.4}")
            }
        }
    }
}

/// One typed SLO violation: which lease, when, and what was violated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloBreach {
    /// The breaching lease.
    pub lease: u64,
    /// The end of the window that breached.
    pub at: SimTime,
    /// The violated objective.
    pub kind: SloBreachKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_assigns_causal_sequence_numbers() {
        let mut j = Journal::new();
        j.record(JournalRecord::new(
            SimTime::from_ns(5),
            JournalKind::Attach,
            "path 0 up",
        ));
        j.record(
            JournalRecord::new(SimTime::from_ns(5), JournalKind::Chaos, "link down")
                .links(vec!["h0-h1".into()]),
        );
        assert_eq!(j.len(), 2);
        assert_eq!(j.records()[0].seq, 0);
        assert_eq!(j.records()[1].seq, 1);
        assert_eq!(j.tail(1)[0].kind, JournalKind::Chaos);
    }

    #[test]
    fn journal_jsonl_is_one_parseable_object_per_line() {
        let mut j = Journal::new();
        j.record(
            JournalRecord::new(SimTime::from_ns(7), JournalKind::Reroute, "detour")
                .path(PathId(3))
                .generation(2)
                .links(vec!["a-b".into(), "b-c".into()]),
        );
        j.record(JournalRecord::new(SimTime::from_ns(9), JournalKind::Detach, "bye").lease(4));
        let jsonl = j.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let v: Value = serde_json::from_str(lines[0]).expect("parses");
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("reroute"));
        assert_eq!(v.get("generation"), Some(&Value::UInt(2)));
        let links = v.get("links").and_then(Value::as_seq).expect("links");
        assert_eq!(links.len(), 2);
        let v: Value = serde_json::from_str(lines[1]).expect("parses");
        assert_eq!(v.get("lease"), Some(&Value::UInt(4)));
        assert_eq!(v.get("seq"), Some(&Value::UInt(1)));
    }

    #[test]
    fn hottest_link_ranks_by_utilization_then_stall() {
        let mut cool = LinkCongestion::new("cool".into());
        cool.utilization = 0.2;
        cool.endpoint_frames = 10;
        let mut hot = LinkCongestion::new("hot".into());
        hot.utilization = 0.9;
        hot.stall_ns = 500;
        hot.forwarded = 3;
        let report = CongestionReport::new(SimTime::from_ns(1), vec![cool, hot]);
        assert_eq!(report.hottest().unwrap().name, "hot");
        assert!(report.render().contains("hot"));
        assert_eq!(report.get("cool").unwrap().frames(), 10);
    }

    #[test]
    fn slo_windows_judge_quantiles_and_availability() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(10_000);
        }
        let spec = SloSpec::new()
            .p99(SimTime::from_ns(2_000))
            .availability(0.999);
        let breaches = spec.evaluate(7, SimTime::from_us(1), &h, 1);
        assert_eq!(breaches.len(), 2, "{breaches:?}");
        assert!(matches!(breaches[0].kind, SloBreachKind::P99 { .. }));
        assert!(matches!(
            breaches[1].kind,
            SloBreachKind::Availability { .. }
        ));
        // An empty window judges nothing.
        assert!(spec
            .evaluate(7, SimTime::from_us(2), &Histogram::new(), 0)
            .is_empty());
    }

    #[test]
    fn idle_windows_never_breach_any_contract() {
        // The tightest contract there is: 1 ns budgets, 100% floor.
        // An idle lease (zero completions, zero faults) must still
        // sail through every evaluation — an empty histogram's
        // quantile-0 reading is a gap, not a 0 ns latency.
        let spec = SloSpec::new()
            .p99(SimTime::from_ns(1))
            .p999(SimTime::from_ns(1))
            .availability(1.0);
        let idle = Histogram::new();
        for at_us in 1..=5 {
            assert!(
                spec.evaluate(3, SimTime::from_us(at_us), &idle, 0).is_empty(),
                "idle window at {at_us} µs breached"
            );
        }
    }

    #[test]
    fn fault_only_windows_judge_availability_but_not_latency() {
        // Every load faulted: no latency samples exist, so the p99
        // budgets must stay silent — but availability is genuinely 0.
        let spec = SloSpec::new()
            .p99(SimTime::from_ns(1))
            .p999(SimTime::from_ns(1))
            .availability(0.99);
        let breaches = spec.evaluate(3, SimTime::from_us(1), &Histogram::new(), 4);
        assert_eq!(breaches.len(), 1, "{breaches:?}");
        assert!(matches!(
            breaches[0].kind,
            SloBreachKind::Availability { observed, .. } if observed == 0.0
        ));
    }

    #[test]
    fn breach_kind_names_form_the_closed_schema_vocabulary() {
        let p99 = SloBreachKind::P99 {
            observed_ns: 2,
            budget_ns: 1,
        };
        let p999 = SloBreachKind::P999 {
            observed_ns: 2,
            budget_ns: 1,
        };
        let avail = SloBreachKind::Availability {
            observed: 0.5,
            floor: 0.9,
        };
        assert_eq!(p99.name(), "p99");
        assert_eq!(p999.name(), "p999");
        assert_eq!(avail.name(), "availability");
    }
}
