//! Observation: per-link statistics, the component inventory, the
//! congestion heatmap, the telemetry registry and its views of live
//! state, the causal journal, and traced probes. Nothing here schedules
//! an event or touches component state, so observing a run never
//! changes it.

use std::collections::BTreeSet;

use llc::frame::{Entry, Frame};
use routing::topology::Route as TopoRoute;
use simkit::telemetry::{
    CounterId, MetricKind, Registry, Snapshot, TelemetryError, TimerId, ViewSchema,
};
use simkit::time::SimTime;

use super::attach::is_collapsed;
use super::{Dir, Fabric, FabricError, PathId};
use crate::fabric::obs::{CongestionReport, Journal, JournalRecord, LinkCongestion};
use crate::fabric::stage::{FabricMsg, StageKind};
use crate::fabric::trace::{
    ComponentId, FlitTrace, HopContext, HopKind, LatencyBreakdown, SpanIds, WireDir,
};

/// Unified per-link statistics: wire-channel, LLC and credit counters
/// for both directions of one link, in one typed struct. Every
/// [`Fabric::telemetry_snapshot`] reads them in under `fabric.link{n}.*`
/// paths while the link lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkStats {
    /// Global link index (= channel id).
    pub link: usize,
    /// The path the link serves.
    pub path: PathId,
    /// Frames the forward (request-direction) channel transmitted.
    pub fwd_frames: u64,
    /// Payload bytes the forward channel transmitted.
    pub fwd_bytes: u64,
    /// Frames the reverse (response-direction) channel transmitted.
    pub rev_frames: u64,
    /// Payload bytes the reverse channel transmitted.
    pub rev_bytes: u64,
    /// Frames the forward channel dropped (injected faults).
    pub fwd_dropped: u64,
    /// Frames the forward channel corrupted.
    pub fwd_corrupted: u64,
    /// Frames the reverse channel dropped.
    pub rev_dropped: u64,
    /// Frames the reverse channel corrupted.
    pub rev_corrupted: u64,
    /// Request-direction frames re-transmitted after loss/corruption.
    pub up_replays: u64,
    /// Response-direction frames re-transmitted.
    pub down_replays: u64,
    /// In-order data frames the donor-side Rx delivered.
    pub up_delivered: u64,
    /// In-order data frames the compute-side Rx delivered.
    pub down_delivered: u64,
    /// Times the request-direction Tx stalled on zero credits.
    pub up_credit_stalls: u64,
    /// Times the response-direction Tx stalled on zero credits.
    pub down_credit_stalls: u64,
    /// Request-direction Tx credits currently available.
    pub up_credits: u32,
    /// Response-direction Tx credits currently available.
    pub down_credits: u32,
    /// Sealed frames waiting in the request-direction Tx.
    pub up_backlog: usize,
    /// Sealed frames waiting in the response-direction Tx.
    pub down_backlog: usize,
    /// High-water mark of the donor-side Rx ingress buffer.
    pub up_rx_high_water: usize,
    /// High-water mark of the compute-side Rx ingress buffer.
    pub down_rx_high_water: usize,
}

impl LinkStats {
    /// The link's telemetry views: each metric's leaf under
    /// `fabric.link{n}.`, its kind and its value.
    fn metrics(&self) -> [(&'static str, MetricKind, u64); 16] {
        use MetricKind::{Counter, Gauge};
        let level = |n: usize| u64::try_from(n).unwrap_or(u64::MAX);
        [
            ("fwd.frames", Counter, self.fwd_frames),
            ("fwd.bytes", Counter, self.fwd_bytes),
            ("rev.frames", Counter, self.rev_frames),
            ("rev.bytes", Counter, self.rev_bytes),
            ("up.replays", Counter, self.up_replays),
            ("down.replays", Counter, self.down_replays),
            ("up.delivered", Counter, self.up_delivered),
            ("down.delivered", Counter, self.down_delivered),
            ("up.credit_stalls", Counter, self.up_credit_stalls),
            ("down.credit_stalls", Counter, self.down_credit_stalls),
            ("up.credits", Gauge, u64::from(self.up_credits)),
            ("down.credits", Gauge, u64::from(self.down_credits)),
            ("up.backlog", Gauge, level(self.up_backlog)),
            ("down.backlog", Gauge, level(self.down_backlog)),
            ("up.rx_high_water", Gauge, level(self.up_rx_high_water)),
            ("down.rx_high_water", Gauge, level(self.down_rx_high_water)),
        ]
    }
}

/// Registry handles for the fabric-wide metrics.
pub(super) struct FabricTele {
    pub(super) issued: CounterId,
    retired: CounterId,
    rtt: TimerId,
    hops: Vec<TimerId>,
    pub(super) chaos_events: CounterId,
    pub(super) lanes_failed: CounterId,
    pub(super) links_failed: CounterId,
    pub(super) loads_faulted: CounterId,
    pub(super) late_completions: CounterId,
    pub(super) switch_reroutes: CounterId,
    pub(super) route_reroutes: CounterId,
    pub(super) detect: TimerId,
    pub(super) downtime: TimerId,
}

impl FabricTele {
    pub(super) fn register(r: &mut Registry) -> Result<Self, TelemetryError> {
        Ok(FabricTele {
            issued: r.counter("fabric.loads.issued")?,
            retired: r.counter("fabric.loads.retired")?,
            rtt: r.timer("fabric.rtt_ns")?,
            hops: HopKind::ALL
                .iter()
                .map(|k| r.timer(&format!("fabric.hop.{}", k.label())))
                .collect::<Result<Vec<_>, _>>()?,
            chaos_events: r.counter("fabric.chaos.events")?,
            lanes_failed: r.counter("fabric.chaos.lanes_failed")?,
            links_failed: r.counter("fabric.recovery.links_failed")?,
            loads_faulted: r.counter("fabric.recovery.loads_faulted")?,
            late_completions: r.counter("fabric.recovery.late_completions")?,
            switch_reroutes: r.counter("fabric.recovery.switch_reroutes")?,
            route_reroutes: r.counter("fabric.recovery.route_reroutes")?,
            detect: r.timer("fabric.recovery.detect_ns")?,
            downtime: r.timer("fabric.recovery.downtime_ns")?,
        })
    }
}

/// The view schema of the latest telemetry snapshot and the live links
/// and paths it names; rebuilt when either set changes.
pub(super) struct TeleViews {
    links: Vec<usize>,
    paths: Vec<u32>,
    schema: ViewSchema,
}

const CAPTURE_ID: ComponentId = ComponentId(0);
const TRANSLATE_ID: ComponentId = ComponentId(1);
const ROUTER_ID: ComponentId = ComponentId(2);
const SWITCH_ID: ComponentId = ComponentId(3);
const LINK_ID_BASE: u32 = 100;
const DONOR_ID_BASE: u32 = 10_000;
const INTERIOR_ID_BASE: u32 = 20_000;

/// Component `k` (up, down, fwd, rev) of link `link`.
fn link_id(link: usize, k: u32) -> ComponentId {
    ComponentId(LINK_ID_BASE + 4 * link as u32 + k)
}

fn donor_id(donor: usize) -> ComponentId {
    ComponentId(DONOR_ID_BASE + donor as u32)
}

impl Fabric {
    /// Records a retired load's metrics and, while tracing, finishes its
    /// trace with the link's fixed per-hop latencies and component
    /// attribution.
    pub(super) fn observe_retired(&mut self, tag: u64, latency: SimTime, now: SimTime) {
        self.telemetry.inc(self.tele.retired);
        self.telemetry.record_ns(self.tele.rtt, latency.as_ns());
        if !self.tracer.active() {
            return;
        }
        let Some(ctx) = self
            .tracer
            .pending_link(tag)
            .and_then(|l| self.hop_context(l))
        else {
            return;
        };
        if let Some(i) = self.tracer.finish(tag, now, &ctx) {
            for s in &self.tracer.traces()[i].spans {
                self.telemetry
                    .record_span(self.tele.hops[s.kind.index()], s.start, s.end);
            }
        }
    }

    /// The fixed per-hop latencies and component attribution of one
    /// link, for finalizing a trace. On a multi-hop link the wire
    /// latencies aggregate the endpoint channel plus every chain
    /// segment, per direction, so per-hop spans still sum exactly to the
    /// measured RTT.
    fn hop_context(&self, link: usize) -> Option<HopContext> {
        let slot = self.slot(link)?;
        let (fwd, rev) = slot.wire_latencies();
        Some(HopContext {
            serdes: SimTime::from_ns(self.params.serdes_crossing_ns),
            stack: SimTime::from_ns(self.params.stack_crossing_ns),
            fwd,
            rev,
            ids: SpanIds {
                capture: CAPTURE_ID,
                translate: TRANSLATE_ID,
                router: ROUTER_ID,
                switch: SWITCH_ID,
                up: link_id(link, 0),
                down: link_id(link, 1),
                fwd: link_id(link, 2),
                rev: link_id(link, 3),
                donor: donor_id(slot.donor),
            },
        })
    }

    /// Checkpoints every traced transaction riding a data frame at its
    /// wire-transmit instant; replays overwrite, so the surviving
    /// checkpoint is the transmit that actually delivered.
    pub(super) fn stamp_wire_tx(&mut self, dir: Dir, frame: &Frame<FabricMsg>, now: SimTime) {
        if !self.tracer.active() {
            return;
        }
        if let Frame::Data { entries, .. } = frame {
            let wd = match dir {
                Dir::ToMemory => WireDir::Forward,
                Dir::ToCompute => WireDir::Reverse,
            };
            for e in entries.iter() {
                let tag = match e {
                    Entry::Txn(FabricMsg::Req(r)) => r.req.tag.0,
                    Entry::Txn(FabricMsg::Resp(r)) => r.tag.0,
                    Entry::Nop => continue,
                };
                self.tracer.wire_tx(tag, wd, now);
            }
        }
    }

    /// The path a live link belongs to, or `None` for tombstoned slots.
    pub(crate) fn link_path(&self, link: usize) -> Option<PathId> {
        self.slot(link).map(|s| PathId(s.path))
    }

    /// The unified statistics of one link, or `None` for tombstoned
    /// slots.
    pub(crate) fn link_stats(&self, link: usize) -> Option<LinkStats> {
        self.slot(link).map(|s| s.stats(link))
    }

    /// The statistics of every live link serving `path`, in channel
    /// order.
    ///
    /// # Errors
    ///
    /// Fails on unknown paths.
    pub fn path_link_stats(&self, path: PathId) -> Result<Vec<LinkStats>, FabricError> {
        let network = self.path_state(path)?.network;
        Ok(self
            .path_links(network)
            .filter_map(|l| self.link_stats(l))
            .collect())
    }

    /// The live component inventory, read off the slot tables and the
    /// live routes: the shared compute-side stages, four per live link,
    /// one per live donor and one per interior node a live multi-hop
    /// route forwards through.
    pub fn components(&self) -> Vec<(ComponentId, StageKind)> {
        let mut out = vec![
            (CAPTURE_ID, StageKind::M1),
            (TRANSLATE_ID, StageKind::Rmmu),
            (ROUTER_ID, StageKind::Router),
        ];
        if self.switch.is_some() {
            out.push((SWITCH_ID, StageKind::CircuitSwitch));
        }
        for (i, _) in self.slots() {
            out.push((link_id(i, 0), StageKind::LlcPair));
            out.push((link_id(i, 1), StageKind::LlcPair));
            out.push((link_id(i, 2), StageKind::Channel));
            out.push((link_id(i, 3), StageKind::Channel));
        }
        for (d, donor) in self.donors.iter().enumerate() {
            if donor.is_some() {
                out.push((donor_id(d), StageKind::C1MasterDram));
            }
        }
        let hub = self.topo.mesh.hub();
        let interior: BTreeSet<u32> = self
            .topo
            .routes
            .iter()
            .filter(|(p, r)| {
                !is_collapsed(r, hub)
                    && self
                        .paths
                        .get(*p)
                        .is_some_and(|s| self.router.channels_of(s.network).is_some())
            })
            .flat_map(|(_, r)| r.interior().iter().map(|n| n.0))
            .collect();
        for n in interior {
            out.push((ComponentId(INTERIOR_ID_BASE + n), StageKind::CircuitSwitch));
        }
        out
    }

    /// The topology links this fabric has seen go down and not come
    /// back, by link index.
    pub(crate) fn down_topology_links(&self) -> &BTreeSet<usize> {
        &self.topo.down
    }

    /// The live route of an attached path: the node/link walk currently
    /// carrying its frames (detours included). `None` for unknown paths.
    pub fn topology_route(&self, path: PathId) -> Option<TopoRoute> {
        self.topo.routes.get(&path.0).cloned()
    }

    /// The declared topology's link names, in link-index order — the
    /// vocabulary named chaos targets ([`crate::fabric::LinkRef::Name`]),
    /// journal records and congestion reports share.
    pub fn topology_link_names(&self) -> Vec<String> {
        self.topo.mesh.link_names()
    }

    /// The declared name of topology link `idx`.
    pub(super) fn topo_link_name(&self, idx: usize) -> String {
        self.topo
            .mesh
            .link_name(idx)
            .map_or_else(|| format!("link{idx}"), str::to_string)
    }

    /// The topology link names a path's live route walks, in walk
    /// order.
    pub(super) fn route_link_names(&self, path: u32) -> Vec<String> {
        self.topo
            .routes
            .get(&path)
            .map(|r| r.links.iter().map(|&l| self.topo_link_name(l)).collect())
            .unwrap_or_default()
    }

    /// Enables or disables the causal event journal. Enabling starts a
    /// fresh journal; disabling discards it. Journaling is pure
    /// observation — records are appended where transitions already
    /// happen, never scheduled — so toggling cannot change a run's
    /// event trajectory.
    pub fn set_journal(&mut self, enabled: bool) {
        self.journal = enabled.then(Journal::new);
    }

    /// The causal event journal, when enabled.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Appends the record `build` makes from the fabric's state, and
    /// builds it only while the journal is enabled.
    pub(super) fn jot(&mut self, build: impl FnOnce(&Fabric) -> JournalRecord) {
        if let Some(mut journal) = self.journal.take() {
            journal.record(build(self));
            self.journal = Some(journal);
        }
    }

    /// A point-in-time congestion heatmap over the declared topology's
    /// named links: endpoint channels and interior hop segments are
    /// aggregated onto the topology links they ride.
    pub fn congestion_report(&self) -> CongestionReport {
        let now = self.queue.now();
        let mut rows: Vec<LinkCongestion> = self
            .topo
            .mesh
            .link_names()
            .into_iter()
            .map(LinkCongestion::new)
            .collect();
        for &idx in &self.topo.down {
            if let Some(row) = rows.get_mut(idx) {
                row.down = true;
            }
        }
        for slot in self.links.iter().flatten() {
            slot.add_congestion(&mut rows, now);
        }
        CongestionReport::new(now, rows)
    }

    /// Enables or disables telemetry — the metrics registry and flit
    /// span tracing together. Instrumentation is observation only: it
    /// never schedules events or touches component state, so toggling
    /// it cannot change a run's event trajectory.
    ///
    /// The registry costs a few counter bumps per retired load and is
    /// meant to stay on; per-load span tracing costs checkpoint
    /// bookkeeping on every hop until it has retained its first 16,384
    /// traces (then it quiesces), so long closed-loop runs that want no
    /// traces keep only the registry on via
    /// [`Fabric::set_tracing`]`(false)`.
    pub fn set_telemetry(&mut self, enabled: bool) {
        self.telemetry.set_enabled(enabled);
        self.tracer.set_enabled(enabled);
    }

    /// Whether telemetry is currently enabled.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.enabled()
    }

    /// Toggles flit span tracing independently of the metrics registry,
    /// for runs that want cheap always-on counters without per-load
    /// trace retention. Disabling discards in-flight checkpoints.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracer.set_enabled(enabled);
    }

    /// The metrics registry, for direct reads of registered metrics.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// A snapshot of every registered metric at the current instant,
    /// joined with views of the fabric's live state: each live link's
    /// component statistics (frames, replays, credits, backlog, ingress
    /// high-water) under `fabric.link{n}.*`, and each attached path's
    /// completion latencies under `fabric.path{p}.rtt_ns`. A detached or
    /// dead link and a detached path leave the snapshot. The views read
    /// statistics the fabric keeps whether or not telemetry records.
    pub fn telemetry_snapshot(&mut self) -> Snapshot {
        let now = self.queue.now();
        let fresh = self.views.as_ref().is_some_and(|v| {
            v.schema.fits(&self.telemetry)
                && v.links.iter().copied().eq(self.slots().map(|(i, _)| i))
                && v.paths.iter().eq(self.paths.keys())
        });
        if !fresh {
            self.views = self.tele_views().ok();
        }
        let Some(views) = &self.views else {
            return self.telemetry.snapshot(now);
        };
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        for stats in views.links.iter().filter_map(|&l| self.link_stats(l)) {
            for (_, kind, value) in stats.metrics() {
                match kind {
                    MetricKind::Counter => counters.push(value),
                    MetricKind::Gauge => gauges.push(value),
                    MetricKind::Timer => {}
                }
            }
        }
        let timers = self.paths.values().map(|p| p.completions.clone()).collect();
        // The views were just checked against the live links and paths
        // that filled these columns, so this cannot fail; if it did, the
        // registry's own metrics are still a true snapshot.
        self.telemetry
            .snapshot_with(now, &views.schema, &counters, &gauges, timers)
            .unwrap_or_else(|_| self.telemetry.snapshot(now))
    }

    /// Builds the telemetry views of the live links and paths.
    fn tele_views(&self) -> Result<TeleViews, TelemetryError> {
        let links: Vec<usize> = self.slots().map(|(i, _)| i).collect();
        let paths: Vec<u32> = self.paths.keys().copied().collect();
        let link_views = links
            .iter()
            .filter_map(|&l| self.link_stats(l))
            .flat_map(|s| {
                s.metrics()
                    .map(|(leaf, kind, _)| (format!("fabric.link{}.{leaf}", s.link), kind))
            });
        let path_views = paths
            .iter()
            .map(|p| (format!("fabric.path{p}.rtt_ns"), MetricKind::Timer));
        let schema = self.telemetry.view_schema(link_views.chain(path_views))?;
        Ok(TeleViews {
            links,
            paths,
            schema,
        })
    }

    /// Finished flit traces, in retire order.
    pub fn traces(&self) -> &[FlitTrace] {
        self.tracer.traces()
    }

    /// Per-hop latency attribution over the path's finished traces.
    ///
    /// # Errors
    ///
    /// Fails on unknown paths.
    pub fn path_breakdown(&self, path: PathId) -> Result<LatencyBreakdown, FabricError> {
        self.path_state(path)?;
        let traces: Vec<FlitTrace> = self
            .tracer
            .traces()
            .iter()
            .filter(|t| t.path == path)
            .cloned()
            .collect();
        Ok(LatencyBreakdown::from_traces(&traces))
    }

    /// Measures one uncontended cacheline load on `path` with span
    /// tracing forced on, returning the load's complete per-hop trace.
    /// The prior tracing state is restored afterwards.
    ///
    /// # Errors
    ///
    /// Fails on unknown paths or if the fabric drains without the probe
    /// completing.
    pub fn measure_traced_load(&mut self, path: PathId) -> Result<FlitTrace, FabricError> {
        let was = self.tracer.enabled();
        self.tracer.set_enabled(true);
        let result = self.probe(path).and_then(|c| {
            self.tracer
                .traces()
                .iter()
                .rev()
                .find(|t| t.trace.0 == c.tag)
                .cloned()
                .ok_or_else(|| {
                    FabricError::Protocol("probe completed without a finished trace".into())
                })
        });
        self.tracer.set_enabled(was);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::fabric::engine::tests::{reference, switched};

    #[test]
    fn link_stats_cover_live_links_only() {
        let (mut f, p) = reference();
        f.measure_load_latency(p).unwrap();
        let s = f.link_stats(0).expect("live link");
        assert_eq!(s.path, p);
        assert!(s.fwd_frames > 0 && s.rev_frames > 0);
        let per_path = f.path_link_stats(p).unwrap();
        assert_eq!(per_path.len(), 1);
        assert_eq!(per_path[0].link, s.link);
        assert_eq!(f.link_stats(7), None, "unknown links yield None");
        f.detach_path(p).unwrap();
        assert_eq!(f.link_stats(0), None, "tombstoned links yield None");
    }

    #[test]
    fn traced_load_spans_sum_exactly_to_rtt() {
        let (mut f, p) = reference();
        let t = f.measure_traced_load(p).unwrap();
        assert_eq!(
            t.spans_total(),
            t.rtt(),
            "per-hop spans must sum exactly to the measured RTT"
        );
        // The paper's decomposition: 6 serDES crossings + 4 FPGA stack
        // pipeline stages on the reference path.
        assert_eq!(t.serdes_crossings(), 6, "paper counts 6 serDES crossings");
        assert_eq!(t.stack_stages(), 4, "paper counts 4 stack stages");
        let serdes = SimTime::from_ns(f.params().serdes_crossing_ns);
        let stack = SimTime::from_ns(f.params().stack_crossing_ns);
        for s in &t.spans {
            if s.kind.is_serdes() {
                assert_eq!(s.duration(), serdes, "{}", s.kind);
            }
            if s.kind.is_stack_stage() {
                assert_eq!(s.duration(), stack, "{}", s.kind);
            }
        }
        // The C1 span covers the DMA engine plus DRAM service: at least
        // the configured DRAM latency, plus a few ns of cacheline DMA.
        let dram = t.time_in(crate::fabric::trace::HopKind::C1Dram);
        assert!(
            dram >= SimTime::from_ns(f.params().dram_latency_ns)
                && dram <= SimTime::from_ns(f.params().dram_latency_ns + 20),
            "C1 span {dram} strays from the configured DRAM latency"
        );
        // Contiguity end to end.
        for w in t.spans.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // The probe restores the prior (disabled) tracing state but
        // keeps the finished trace.
        assert!(!f.telemetry_enabled());
        assert_eq!(f.traces().len(), 1);
    }

    #[test]
    fn switched_path_traces_include_circuit_hops() {
        let (mut f, p) = switched(8);
        let t = f.measure_traced_load(p).unwrap();
        assert_eq!(t.spans_total(), t.rtt());
        assert_eq!(t.serdes_crossings(), 6);
        assert_eq!(t.stack_stages(), 4);
        use crate::fabric::trace::{HopKind, WireDir};
        assert!(
            !t.time_in(HopKind::SwitchTraversal(WireDir::Forward))
                .is_zero(),
            "switched path must show a forward switch-traversal span"
        );
        assert!(
            !t.time_in(HopKind::CircuitWait).is_zero(),
            "a freshly allocated circuit delays the first load"
        );
    }

    #[test]
    fn telemetry_registry_tracks_loads_and_links() {
        let (mut f, p) = reference();
        f.set_telemetry(true);
        f.measure_load_latency(p).unwrap();
        f.measure_load_latency(p).unwrap();
        let snap = f.telemetry_snapshot();
        assert_eq!(snap.counter("fabric.loads.issued"), Some(2));
        assert_eq!(snap.counter("fabric.loads.retired"), Some(2));
        let rtt = snap.timer("fabric.rtt_ns").expect("rtt timer");
        assert_eq!(rtt.count(), 2);
        let s = f.link_stats(0).expect("live link");
        assert_eq!(snap.counter("fabric.link0.fwd.frames"), Some(s.fwd_frames));
        assert_eq!(snap.counter("fabric.link0.up.replays"), Some(s.up_replays));
        let hop = snap.timer("fabric.hop.c1_dram").expect("hop timer");
        assert_eq!(hop.count(), 2);
        // Disabled fabrics record nothing.
        let (mut quiet, q) = reference();
        quiet.measure_load_latency(q).unwrap();
        let snap = quiet.telemetry_snapshot();
        assert_eq!(snap.counter("fabric.loads.issued"), Some(0));
        assert!(quiet.traces().is_empty());
    }
}
