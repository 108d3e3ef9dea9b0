//! Flit-level span tracing: where did the nanoseconds go?
//!
//! The paper's headline microarchitectural claim is an *accounting*:
//! ≈950 ns of flit RTT decompose into 4 FPGA-stack pipeline stages and
//! 6 serDES crossings (plus cable flight and serialization). This module
//! turns that accounting into a checked artifact. Every load issued on a
//! tracing-enabled [`Fabric`](crate::fabric::Fabric) is tagged with a
//! [`TraceId`] at M1 capture; the engine records a checkpoint at every
//! event boundary the load crosses (LLC offer, wire transmit, delivery,
//! memory completion, retire) and `FlitTracer::finish` subdivides the
//! fixed-latency intervals between checkpoints analytically into
//! [`Span`]s — one per [`HopKind`]. Because the spans are constructed as
//! *contiguous* segments of the `[issued, retired]` interval, their
//! durations sum **exactly** to the measured RTT; no residual "other"
//! bucket exists to hide modeling drift in.
//!
//! Tracing is observation only: it never schedules events, never touches
//! component state, and is clocked entirely by `SimTime` — enabling it
//! cannot change a run's trajectory.
//!
//! Exporters: [`LatencyBreakdown`] aggregates spans into the paper-style
//! table; [`chrome_trace_json`] renders traces as Chrome `trace_event`
//! JSON (load into `chrome://tracing` or Perfetto).

use std::fmt;

use serde::{Deserialize, Serialize, Value};
use simkit::time::SimTime;

use crate::fabric::engine::PathId;
use crate::fabric::tags::TagWindow;

/// Identifier of a component instance inside one fabric: the stage a
/// [`Span`]'s time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ComponentId(pub u32);

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Identifier a traced flit carries end to end (the load's tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flit{}", self.0)
    }
}

/// Which serDES crossing a [`HopKind::SerDes`] span models. The paper
/// counts six per round trip: two at the compute endpoint, two for the
/// network, two at the memory endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SerdesSite {
    /// Compute-side egress (core → FPGA).
    ComputeTx,
    /// Forward in-flight crossing charged by the wire channel.
    NetworkFwd,
    /// Donor-side ingress.
    DonorRx,
    /// Donor-side egress.
    DonorTx,
    /// Reverse in-flight crossing charged by the wire channel.
    NetworkRev,
    /// Compute-side ingress (FPGA → core).
    ComputeRx,
}

/// Which FPGA-stack traversal a [`HopKind::Stack`] span models. The
/// paper counts four pipeline-stage crossings per round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackSite {
    /// Compute-side egress through the Fig. 2 pipeline.
    ComputeTx,
    /// Donor-side ingress.
    DonorRx,
    /// Donor-side egress.
    DonorTx,
    /// Compute-side ingress.
    ComputeRx,
}

/// Which wire direction a direction-split hop belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireDir {
    /// Compute → donor (requests).
    Forward,
    /// Donor → compute (responses).
    Reverse,
}

/// One kind of latency-bearing hop along a traced load's round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopKind {
    /// M1 window capture (zero-width: combinational in the model).
    M1,
    /// RMMU section-table translation (zero-width).
    Rmmu,
    /// Route pick (zero-width).
    Router,
    /// Waiting for a freshly allocated switch circuit to be programmed.
    CircuitWait,
    /// One serDES crossing.
    SerDes(SerdesSite),
    /// One FPGA-stack pipeline traversal.
    Stack(StackSite),
    /// Adaptive-batching wait in an LLC Tx (staging + flush timer).
    LlcTxBatch(WireDir),
    /// Frame serialization onto the wire (plus any wire/ingress queueing).
    WireSerialize(WireDir),
    /// Cable propagation.
    Cable(WireDir),
    /// Circuit-switch traversal.
    SwitchTraversal(WireDir),
    /// C1 DMA engine + donor DRAM service.
    C1Dram,
}

impl HopKind {
    /// Number of distinct hop kinds.
    pub(crate) const COUNT: usize = 23;

    /// Every hop kind, in round-trip timeline order.
    pub const ALL: [HopKind; HopKind::COUNT] = [
        HopKind::M1,
        HopKind::Rmmu,
        HopKind::Router,
        HopKind::SerDes(SerdesSite::ComputeTx),
        HopKind::Stack(StackSite::ComputeTx),
        HopKind::CircuitWait,
        HopKind::LlcTxBatch(WireDir::Forward),
        HopKind::WireSerialize(WireDir::Forward),
        HopKind::SerDes(SerdesSite::NetworkFwd),
        HopKind::Cable(WireDir::Forward),
        HopKind::SwitchTraversal(WireDir::Forward),
        HopKind::Stack(StackSite::DonorRx),
        HopKind::SerDes(SerdesSite::DonorRx),
        HopKind::C1Dram,
        HopKind::SerDes(SerdesSite::DonorTx),
        HopKind::Stack(StackSite::DonorTx),
        HopKind::LlcTxBatch(WireDir::Reverse),
        HopKind::WireSerialize(WireDir::Reverse),
        HopKind::SerDes(SerdesSite::NetworkRev),
        HopKind::Cable(WireDir::Reverse),
        HopKind::SwitchTraversal(WireDir::Reverse),
        HopKind::SerDes(SerdesSite::ComputeRx),
        HopKind::Stack(StackSite::ComputeRx),
    ];

    /// Stable dense index (position in [`HopKind::ALL`]).
    pub fn index(self) -> usize {
        match self {
            HopKind::M1 => 0,
            HopKind::Rmmu => 1,
            HopKind::Router => 2,
            HopKind::SerDes(SerdesSite::ComputeTx) => 3,
            HopKind::Stack(StackSite::ComputeTx) => 4,
            HopKind::CircuitWait => 5,
            HopKind::LlcTxBatch(WireDir::Forward) => 6,
            HopKind::WireSerialize(WireDir::Forward) => 7,
            HopKind::SerDes(SerdesSite::NetworkFwd) => 8,
            HopKind::Cable(WireDir::Forward) => 9,
            HopKind::SwitchTraversal(WireDir::Forward) => 10,
            HopKind::Stack(StackSite::DonorRx) => 11,
            HopKind::SerDes(SerdesSite::DonorRx) => 12,
            HopKind::C1Dram => 13,
            HopKind::SerDes(SerdesSite::DonorTx) => 14,
            HopKind::Stack(StackSite::DonorTx) => 15,
            HopKind::LlcTxBatch(WireDir::Reverse) => 16,
            HopKind::WireSerialize(WireDir::Reverse) => 17,
            HopKind::SerDes(SerdesSite::NetworkRev) => 18,
            HopKind::Cable(WireDir::Reverse) => 19,
            HopKind::SwitchTraversal(WireDir::Reverse) => 20,
            HopKind::SerDes(SerdesSite::ComputeRx) => 21,
            HopKind::Stack(StackSite::ComputeRx) => 22,
        }
    }

    /// Hierarchical label (used as the telemetry-registry path suffix and
    /// the Chrome trace event name).
    pub fn label(self) -> &'static str {
        match self {
            HopKind::M1 => "m1_capture",
            HopKind::Rmmu => "rmmu_translate",
            HopKind::Router => "router",
            HopKind::CircuitWait => "circuit_wait",
            HopKind::SerDes(SerdesSite::ComputeTx) => "serdes.compute_tx",
            HopKind::SerDes(SerdesSite::NetworkFwd) => "serdes.network_fwd",
            HopKind::SerDes(SerdesSite::DonorRx) => "serdes.donor_rx",
            HopKind::SerDes(SerdesSite::DonorTx) => "serdes.donor_tx",
            HopKind::SerDes(SerdesSite::NetworkRev) => "serdes.network_rev",
            HopKind::SerDes(SerdesSite::ComputeRx) => "serdes.compute_rx",
            HopKind::Stack(StackSite::ComputeTx) => "stack.compute_tx",
            HopKind::Stack(StackSite::DonorRx) => "stack.donor_rx",
            HopKind::Stack(StackSite::DonorTx) => "stack.donor_tx",
            HopKind::Stack(StackSite::ComputeRx) => "stack.compute_rx",
            HopKind::LlcTxBatch(WireDir::Forward) => "llc_batch.forward",
            HopKind::LlcTxBatch(WireDir::Reverse) => "llc_batch.reverse",
            HopKind::WireSerialize(WireDir::Forward) => "wire_serialize.forward",
            HopKind::WireSerialize(WireDir::Reverse) => "wire_serialize.reverse",
            HopKind::Cable(WireDir::Forward) => "cable.forward",
            HopKind::Cable(WireDir::Reverse) => "cable.reverse",
            HopKind::SwitchTraversal(WireDir::Forward) => "switch.forward",
            HopKind::SwitchTraversal(WireDir::Reverse) => "switch.reverse",
            HopKind::C1Dram => "c1_dram",
        }
    }

    /// Whether this is one of the paper's six serDES crossings.
    pub(crate) fn is_serdes(self) -> bool {
        matches!(self, HopKind::SerDes(_))
    }

    /// Whether this is one of the paper's four FPGA-stack pipeline
    /// stages.
    pub(crate) fn is_stack_stage(self) -> bool {
        matches!(self, HopKind::Stack(_))
    }
}

impl fmt::Display for HopKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One stage-residency interval of a traced flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What kind of hop the interval covers.
    pub kind: HopKind,
    /// The fabric component the time is attributed to.
    pub component: ComponentId,
    /// Entry instant.
    pub start: SimTime,
    /// Exit instant.
    pub end: SimTime,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }
}

/// The complete per-hop record of one retired load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlitTrace {
    /// The flit's trace id (== the load's tag).
    pub trace: TraceId,
    /// The path the load rode.
    pub path: PathId,
    /// The link (channel index) the load rode.
    pub link: usize,
    /// Issue instant.
    pub issued: SimTime,
    /// Retire instant.
    pub retired: SimTime,
    /// Contiguous spans covering `[issued, retired]` in timeline order.
    pub spans: Vec<Span>,
}

impl FlitTrace {
    /// Issue-to-retire round trip.
    pub fn rtt(&self) -> SimTime {
        self.retired.saturating_sub(self.issued)
    }

    /// Sum of span durations — equals [`FlitTrace::rtt`] by construction
    /// (asserted in tests: the decomposition has no hidden residue).
    pub fn spans_total(&self) -> SimTime {
        self.spans.iter().map(Span::duration).sum()
    }

    /// Number of serDES-crossing spans (the paper counts 6).
    pub fn serdes_crossings(&self) -> usize {
        self.spans.iter().filter(|s| s.kind.is_serdes()).count()
    }

    /// Number of FPGA-stack stage spans (the paper counts 4).
    pub fn stack_stages(&self) -> usize {
        self.spans
            .iter()
            .filter(|s| s.kind.is_stack_stage())
            .count()
    }

    /// The total time spent in spans of `kind`.
    pub fn time_in(&self, kind: HopKind) -> SimTime {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(Span::duration)
            .sum()
    }
}

/// The per-link fixed latencies [`FlitTracer::finish`] subdivides
/// checkpoint intervals with.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WireLatency {
    pub crossing: SimTime,
    pub cable: SimTime,
    pub extra: SimTime,
    pub flight: SimTime,
}

/// Component attribution for the spans of one link.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanIds {
    pub capture: ComponentId,
    pub translate: ComponentId,
    pub router: ComponentId,
    pub switch: ComponentId,
    pub up: ComponentId,
    pub down: ComponentId,
    pub fwd: ComponentId,
    pub rev: ComponentId,
    pub donor: ComponentId,
}

/// Everything needed to turn one load's checkpoints into spans.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HopContext {
    pub serdes: SimTime,
    pub stack: SimTime,
    pub fwd: WireLatency,
    pub rev: WireLatency,
    pub ids: SpanIds,
}

/// Checkpoints of one in-flight traced load.
#[derive(Debug, Clone, Copy)]
struct Pending {
    path: u32,
    link: usize,
    issued: SimTime,
    offer_at: SimTime,
    fwd_tx: Option<SimTime>,
    fwd_deliver: Option<SimTime>,
    mem_done: Option<SimTime>,
    rev_tx: Option<SimTime>,
    rev_deliver: Option<SimTime>,
}

/// Builds spans forward through the timeline, guaranteeing contiguity
/// (every span starts where the previous one ended).
struct Cursor {
    at: SimTime,
    spans: Vec<Span>,
}

impl Cursor {
    fn zero(&mut self, kind: HopKind, component: ComponentId) {
        self.spans.push(Span {
            kind,
            component,
            start: self.at,
            end: self.at,
        });
    }

    fn fixed(&mut self, kind: HopKind, component: ComponentId, len: SimTime) {
        let end = self.at + len;
        self.spans.push(Span {
            kind,
            component,
            start: self.at,
            end,
        });
        self.at = end;
    }

    fn until(&mut self, kind: HopKind, component: ComponentId, end: SimTime) {
        let end = end.max(self.at);
        self.spans.push(Span {
            kind,
            component,
            start: self.at,
            end,
        });
        self.at = end;
    }
}

/// How many finished traces the tracer retains, the first ones to finish
/// (a closed-loop run with tracing left on would otherwise grow without
/// bound).
const DEFAULT_TRACE_CAP: usize = 16_384;

/// The engine-side tracer: checkpoints per in-flight tag, finished
/// [`FlitTrace`]s after retire.
///
/// Checkpoint records live in a [`TagWindow`]: load tags are issued in
/// sequence, so the live set is a dense sliding window of recycled
/// [`Pending`] slots. Every hot-path hook — begin, wire transmit,
/// delivery, memory completion, finish — is an O(1) index into
/// preallocated storage, and the steady state allocates nothing per
/// flit.
#[derive(Debug, Default)]
pub(crate) struct FlitTracer {
    enabled: bool,
    /// Checkpoints of the traced loads in flight.
    live: TagWindow<Pending>,
    finished: Vec<FlitTrace>,
}

impl FlitTracer {

    /// Current window footprint in slots (tests pin the recycling).
    #[cfg(test)]
    fn window_slots(&self) -> usize {
        self.live.span()
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables tracing. Disabling discards partial (live)
    /// checkpoints — half-traced loads cannot finalize — but keeps
    /// finished traces.
    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            self.live.clear();
        }
    }

    /// Whether any hot-path hook needs to run.
    #[inline]
    pub(crate) fn active(&self) -> bool {
        self.enabled && !self.live.is_empty()
    }

    /// Opens checkpoints for a freshly issued tag. Once the retained
    /// cap is full new tags are not traced, so a long closed-loop run
    /// quiesces: `live` drains, [`Self::active`]
    /// goes false, and every downstream hook becomes a single branch.
    pub(crate) fn begin(
        &mut self,
        tag: u64,
        path: u32,
        link: usize,
        issued: SimTime,
        offer_at: SimTime,
    ) {
        if !self.enabled {
            return;
        }
        if self.finished.len() >= DEFAULT_TRACE_CAP {
            return;
        }
        self.live.insert(
            tag,
            Pending {
                path,
                link,
                issued,
                offer_at,
                fwd_tx: None,
                fwd_deliver: None,
                mem_done: None,
                rev_tx: None,
                rev_deliver: None,
            },
        );
    }

    /// Records a wire transmit of the tag's frame (replays overwrite:
    /// the surviving checkpoint is the transmit that actually delivered).
    pub(crate) fn wire_tx(&mut self, tag: u64, dir: WireDir, now: SimTime) {
        if let Some(p) = self.live.get_mut(tag) {
            match dir {
                WireDir::Forward => p.fwd_tx = Some(now),
                WireDir::Reverse => p.rev_tx = Some(now),
            }
        }
    }

    /// Records in-order delivery of the tag's message out of an LLC Rx.
    pub(crate) fn delivered(&mut self, tag: u64, dir: WireDir, now: SimTime) {
        if let Some(p) = self.live.get_mut(tag) {
            match dir {
                WireDir::Forward => p.fwd_deliver = Some(now),
                WireDir::Reverse => p.rev_deliver = Some(now),
            }
        }
    }

    /// Records when the donor's memory completion re-enters the LLC.
    pub(crate) fn memory_done(&mut self, tag: u64, at: SimTime) {
        if let Some(p) = self.live.get_mut(tag) {
            p.mem_done = Some(at);
        }
    }

    /// The link a live trace rides, if the tag is being traced.
    /// Discards the live checkpoints of a load resolved as faulted —
    /// a half-traced load can never finalize.
    pub(crate) fn abandon(&mut self, tag: u64) {
        self.live.remove(tag);
    }

    pub(crate) fn pending_link(&self, tag: u64) -> Option<usize> {
        self.live.get(tag).map(|p| p.link)
    }

    /// Finalizes the tag's trace at retire time: subdivides the
    /// checkpoint intervals into contiguous spans. Returns the finished
    /// trace's index into [`FlitTracer::traces`], or `None` when the tag
    /// was not traced or a checkpoint is missing (tracing was toggled
    /// mid-flight).
    pub(crate) fn finish(
        &mut self,
        tag: u64,
        retired: SimTime,
        ctx: &HopContext,
    ) -> Option<usize> {
        let p = self.live.remove(tag)?;
        if self.finished.len() >= DEFAULT_TRACE_CAP {
            return None;
        }
        let (fwd_tx, fwd_deliver, mem_done, rev_tx, rev_deliver) = (
            p.fwd_tx?,
            p.fwd_deliver?,
            p.mem_done?,
            p.rev_tx?,
            p.rev_deliver?,
        );
        let ids = &ctx.ids;
        let mut c = Cursor {
            at: p.issued,
            spans: Vec::with_capacity(HopKind::COUNT),
        };
        // Compute egress: the zero-width pipeline picks, then one serDES
        // + one stack crossing; a freshly switched path additionally
        // waits for its circuit.
        c.zero(HopKind::M1, ids.capture);
        c.zero(HopKind::Rmmu, ids.translate);
        c.zero(HopKind::Router, ids.router);
        c.fixed(HopKind::SerDes(SerdesSite::ComputeTx), ids.up, ctx.serdes);
        c.fixed(HopKind::Stack(StackSite::ComputeTx), ids.up, ctx.stack);
        if c.at < p.offer_at {
            c.until(HopKind::CircuitWait, ids.switch, p.offer_at);
        }
        // Forward wire: batch in the LLC Tx, serialize, fly.
        c.until(HopKind::LlcTxBatch(WireDir::Forward), ids.up, fwd_tx);
        let fwd_wire_start = fwd_deliver.saturating_sub(ctx.fwd.flight);
        c.until(
            HopKind::WireSerialize(WireDir::Forward),
            ids.fwd,
            fwd_wire_start,
        );
        c.fixed(
            HopKind::SerDes(SerdesSite::NetworkFwd),
            ids.fwd,
            ctx.fwd.crossing,
        );
        c.fixed(HopKind::Cable(WireDir::Forward), ids.fwd, ctx.fwd.cable);
        if !ctx.fwd.extra.is_zero() {
            c.until(
                HopKind::SwitchTraversal(WireDir::Forward),
                ids.switch,
                fwd_deliver,
            );
        }
        // Donor: stack in, serDES to the C1 engine, DRAM, and back out.
        c.fixed(HopKind::Stack(StackSite::DonorRx), ids.donor, ctx.stack);
        c.fixed(HopKind::SerDes(SerdesSite::DonorRx), ids.donor, ctx.serdes);
        let dram_end = mem_done.saturating_sub(ctx.serdes + ctx.stack);
        c.until(HopKind::C1Dram, ids.donor, dram_end);
        c.fixed(HopKind::SerDes(SerdesSite::DonorTx), ids.donor, ctx.serdes);
        c.fixed(HopKind::Stack(StackSite::DonorTx), ids.donor, ctx.stack);
        // Reverse wire.
        c.until(HopKind::LlcTxBatch(WireDir::Reverse), ids.down, rev_tx);
        let rev_wire_start = rev_deliver.saturating_sub(ctx.rev.flight);
        c.until(
            HopKind::WireSerialize(WireDir::Reverse),
            ids.rev,
            rev_wire_start,
        );
        c.fixed(
            HopKind::SerDes(SerdesSite::NetworkRev),
            ids.rev,
            ctx.rev.crossing,
        );
        c.fixed(HopKind::Cable(WireDir::Reverse), ids.rev, ctx.rev.cable);
        if !ctx.rev.extra.is_zero() {
            c.until(
                HopKind::SwitchTraversal(WireDir::Reverse),
                ids.switch,
                rev_deliver,
            );
        }
        // Compute ingress: serDES + stack back into the core. `until`
        // pins the last span to the retire instant, so contiguity — and
        // therefore the exact-sum property — holds by construction.
        c.fixed(HopKind::SerDes(SerdesSite::ComputeRx), ids.down, ctx.serdes);
        c.until(HopKind::Stack(StackSite::ComputeRx), ids.down, retired);
        self.finished.push(FlitTrace {
            trace: TraceId(tag),
            path: PathId(p.path),
            link: p.link,
            issued: p.issued,
            retired,
            spans: c.spans,
        });
        Some(self.finished.len() - 1)
    }

    pub(crate) fn traces(&self) -> &[FlitTrace] {
        &self.finished
    }
}

/// One aggregated row of a [`LatencyBreakdown`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakdownRow {
    /// The hop kind the row aggregates.
    pub kind: HopKind,
    /// Number of spans aggregated.
    pub count: u64,
    /// Total time across the aggregated spans.
    pub total: SimTime,
    /// Mean span duration in nanoseconds.
    pub mean_ns: f64,
}

/// The paper-style per-hop latency attribution over a set of traces.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyBreakdown {
    /// Loads aggregated.
    pub loads: u64,
    /// One row per hop kind that appeared, in timeline order.
    pub rows: Vec<BreakdownRow>,
    /// Sum of all span time (== sum of the loads' RTTs).
    pub total: SimTime,
    /// Mean RTT in nanoseconds.
    pub mean_rtt_ns: f64,
}

impl LatencyBreakdown {
    /// Aggregates a set of traces.
    pub(crate) fn from_traces(traces: &[FlitTrace]) -> Self {
        let mut count = [0u64; HopKind::COUNT];
        let mut time = [SimTime::ZERO; HopKind::COUNT];
        let mut rtt_total = SimTime::ZERO;
        for t in traces {
            rtt_total += t.rtt();
            for s in &t.spans {
                let i = s.kind.index();
                count[i] += 1;
                time[i] += s.duration();
            }
        }
        let rows = HopKind::ALL
            .iter()
            .filter(|k| count[k.index()] > 0)
            .map(|&kind| {
                let i = kind.index();
                BreakdownRow {
                    kind,
                    count: count[i],
                    total: time[i],
                    mean_ns: time[i].as_ns_f64() / count[i] as f64,
                }
            })
            .collect();
        let loads = traces.len() as u64;
        LatencyBreakdown {
            loads,
            rows,
            total: time.iter().copied().sum(),
            mean_rtt_ns: if loads == 0 {
                0.0
            } else {
                rtt_total.as_ns_f64() / loads as f64
            },
        }
    }

    /// serDES-crossing spans per load (the paper counts 6).
    pub fn serdes_crossings_per_load(&self) -> u64 {
        if self.loads == 0 {
            return 0;
        }
        self.rows
            .iter()
            .filter(|r| r.kind.is_serdes())
            .map(|r| r.count)
            .sum::<u64>()
            / self.loads
    }

    /// FPGA-stack stage spans per load (the paper counts 4).
    pub fn stack_stages_per_load(&self) -> u64 {
        if self.loads == 0 {
            return 0;
        }
        self.rows
            .iter()
            .filter(|r| r.kind.is_stack_stage())
            .map(|r| r.count)
            .sum::<u64>()
            / self.loads
    }

    /// The aggregated row for one hop kind, if it appeared.
    pub fn row(&self, kind: HopKind) -> Option<&BreakdownRow> {
        self.rows.iter().find(|r| r.kind == kind)
    }

    /// Renders the paper-style text table.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "per-hop latency attribution ({} load{}, mean RTT {:.1} ns)",
            self.loads,
            if self.loads == 1 { "" } else { "s" },
            self.mean_rtt_ns
        );
        let _ = writeln!(out, "  {:<24} {:>6} {:>10} {:>8}", "hop", "spans", "mean ns", "share");
        let shown: Vec<&BreakdownRow> = self
            .rows
            .iter()
            .filter(|r| !r.total.is_zero() || r.kind.is_serdes() || r.kind.is_stack_stage())
            .collect();
        for r in &shown {
            let share = if self.total.is_zero() {
                0.0
            } else {
                100.0 * r.total.as_ns_f64() / self.total.as_ns_f64()
            };
            let _ = writeln!(
                out,
                "  {:<24} {:>6} {:>10.1} {:>7.1}%",
                r.kind.label(),
                r.count,
                r.mean_ns,
                share
            );
        }
        let serdes: SimTime = self
            .rows
            .iter()
            .filter(|r| r.kind.is_serdes())
            .map(|r| r.total)
            .sum();
        let stack: SimTime = self
            .rows
            .iter()
            .filter(|r| r.kind.is_stack_stage())
            .map(|r| r.total)
            .sum();
        let _ = writeln!(
            out,
            "  serDES crossings: {} per load, {:.1} ns total per load",
            self.serdes_crossings_per_load(),
            serdes.as_ns_f64() / self.loads.max(1) as f64,
        );
        let _ = writeln!(
            out,
            "  FPGA stack stages: {} per load, {:.1} ns total per load",
            self.stack_stages_per_load(),
            stack.as_ns_f64() / self.loads.max(1) as f64,
        );
        let _ = writeln!(
            out,
            "  span sum per load = {:.1} ns (= mean RTT: exact)",
            self.total.as_ns_f64() / self.loads.max(1) as f64,
        );
        out
    }

    /// The breakdown as a `serde` [`Value`] tree (JSON-exportable).
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("loads".into(), Value::UInt(self.loads)),
            ("mean_rtt_ns".into(), Value::Float(self.mean_rtt_ns)),
            ("total_ns".into(), Value::UInt(self.total.as_ns())),
            (
                "serdes_crossings_per_load".into(),
                Value::UInt(self.serdes_crossings_per_load()),
            ),
            (
                "stack_stages_per_load".into(),
                Value::UInt(self.stack_stages_per_load()),
            ),
            (
                "hops".into(),
                Value::Map(
                    self.rows
                        .iter()
                        .map(|r| {
                            (
                                r.kind.label().to_string(),
                                Value::Map(vec![
                                    ("count".into(), Value::UInt(r.count)),
                                    ("total_ns".into(), Value::UInt(r.total.as_ns())),
                                    ("mean_ns".into(), Value::Float(r.mean_ns)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl fmt::Display for LatencyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.table())
    }
}

/// Renders traces as a Chrome `trace_event` JSON tree (the "JSON Array
/// Format" with metadata): load the serialized string into
/// `chrome://tracing` or Perfetto to see per-flit timelines. Timestamps
/// are microseconds of simulated time; `pid` is the path, `tid` the
/// flit's trace id.
pub(crate) fn chrome_trace(traces: &[FlitTrace]) -> Value {
    let mut events = Vec::new();
    for t in traces {
        for s in &t.spans {
            let ts_us = s.start.as_ps() as f64 / 1_000_000.0;
            let dur_us = s.duration().as_ps() as f64 / 1_000_000.0;
            events.push(Value::Map(vec![
                ("name".into(), Value::Str(s.kind.label().into())),
                ("cat".into(), Value::Str("fabric".into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::Float(ts_us)),
                ("dur".into(), Value::Float(dur_us)),
                ("pid".into(), Value::UInt(u64::from(t.path.0))),
                ("tid".into(), Value::UInt(t.trace.0)),
                (
                    "args".into(),
                    Value::Map(vec![
                        ("component".into(), Value::UInt(u64::from(s.component.0))),
                        ("link".into(), Value::UInt(t.link as u64)),
                    ]),
                ),
            ]));
        }
    }
    Value::Map(vec![
        ("displayTimeUnit".into(), Value::Str("ns".into())),
        ("traceEvents".into(), Value::Seq(events)),
    ])
}

/// The traces as a Chrome `trace_event` JSON document: one complete
/// event per span, a process per path and a thread per load.
pub fn chrome_trace_json(traces: &[FlitTrace]) -> String {
    serde_json::to_string(&chrome_trace(traces)).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids() -> SpanIds {
        SpanIds {
            capture: ComponentId(0),
            translate: ComponentId(1),
            router: ComponentId(2),
            switch: ComponentId(3),
            up: ComponentId(100),
            down: ComponentId(101),
            fwd: ComponentId(102),
            rev: ComponentId(103),
            donor: ComponentId(10_000),
        }
    }

    fn ctx() -> HopContext {
        let crossing = SimTime::from_ns(75);
        let cable = SimTime::from_ns(25);
        let wire = WireLatency {
            crossing,
            cable,
            extra: SimTime::ZERO,
            flight: crossing + cable,
        };
        HopContext {
            serdes: SimTime::from_ns(75),
            stack: SimTime::from_ns(101),
            fwd: wire,
            rev: wire,
            ids: ids(),
        }
    }

    /// Drives one synthetic load through the tracer with hand-picked
    /// checkpoint times and checks the exact-sum property.
    #[test]
    fn spans_sum_exactly_to_rtt() {
        let mut tr = FlitTracer::default();
        tr.set_enabled(true);
        let edge = SimTime::from_ns(75 + 101);
        let issued = SimTime::from_ns(10);
        let offer = issued + edge;
        tr.begin(7, 0, 0, issued, offer);
        let fwd_tx = offer + SimTime::from_ns(40); // batch wait
        tr.wire_tx(7, WireDir::Forward, fwd_tx);
        let fwd_deliver = fwd_tx + SimTime::from_ns(21) + SimTime::from_ns(100);
        tr.delivered(7, WireDir::Forward, fwd_deliver);
        let mem_done = fwd_deliver + edge + SimTime::from_ns(105) + edge;
        tr.memory_done(7, mem_done);
        let rev_tx = mem_done + SimTime::from_ns(55);
        tr.wire_tx(7, WireDir::Reverse, rev_tx);
        let rev_deliver = rev_tx + SimTime::from_ns(4) + SimTime::from_ns(100);
        tr.delivered(7, WireDir::Reverse, rev_deliver);
        let retired = rev_deliver + edge;
        assert!(tr.finish(7, retired, &ctx()).is_some());
        let t = &tr.traces()[0];
        assert_eq!(t.spans_total(), t.rtt(), "span sum must equal the RTT");
        assert_eq!(t.serdes_crossings(), 6);
        assert_eq!(t.stack_stages(), 4);
        assert_eq!(
            t.time_in(HopKind::C1Dram),
            SimTime::from_ns(105),
            "DRAM span recovers the service time"
        );
        assert_eq!(
            t.time_in(HopKind::LlcTxBatch(WireDir::Forward)),
            SimTime::from_ns(40)
        );
        // Contiguity: every span starts where the previous one ended.
        for w in t.spans.windows(2) {
            assert_eq!(w[0].end, w[1].start, "{:?} -> {:?}", w[0], w[1]);
        }
        assert_eq!(t.spans.first().map(|s| s.start), Some(issued));
        assert_eq!(t.spans.last().map(|s| s.end), Some(retired));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = FlitTracer::default();
        tr.begin(1, 0, 0, SimTime::ZERO, SimTime::from_ns(176));
        tr.wire_tx(1, WireDir::Forward, SimTime::from_ns(200));
        assert!(tr.finish(1, SimTime::from_ns(1000), &ctx()).is_none());
        assert!(tr.traces().is_empty());
        assert!(!tr.active());
    }

    #[test]
    fn partial_checkpoints_discard_the_trace() {
        let mut tr = FlitTracer::default();
        tr.set_enabled(true);
        tr.begin(1, 0, 0, SimTime::ZERO, SimTime::from_ns(176));
        // No wire/delivery checkpoints: finish must refuse to fabricate.
        assert!(tr.finish(1, SimTime::from_ns(1000), &ctx()).is_none());
        assert!(tr.traces().is_empty());
    }

    #[test]
    fn capacity_cap_drops_excess_traces() {
        let mut tr = FlitTracer::default();
        tr.set_enabled(true);
        for tag in 0..DEFAULT_TRACE_CAP as u64 + 2 {
            let issued = SimTime::from_ns(tag * 10_000);
            let edge = SimTime::from_ns(176);
            tr.begin(tag, 0, 0, issued, issued + edge);
            tr.wire_tx(tag, WireDir::Forward, issued + SimTime::from_ns(200));
            tr.delivered(tag, WireDir::Forward, issued + SimTime::from_ns(330));
            tr.memory_done(tag, issued + SimTime::from_ns(700));
            tr.wire_tx(tag, WireDir::Reverse, issued + SimTime::from_ns(750));
            tr.delivered(tag, WireDir::Reverse, issued + SimTime::from_ns(880));
            tr.finish(tag, issued + SimTime::from_ns(1056), &ctx());
        }
        assert_eq!(tr.traces().len(), DEFAULT_TRACE_CAP);
        assert!(tr.traces().iter().all(|t| t.trace.0 < DEFAULT_TRACE_CAP as u64));
    }

    /// Drives a full synthetic round trip for `tag` starting at `issued`.
    fn drive(tr: &mut FlitTracer, tag: u64, issued: SimTime) {
        let edge = SimTime::from_ns(176);
        tr.begin(tag, 0, 0, issued, issued + edge);
        tr.wire_tx(tag, WireDir::Forward, issued + SimTime::from_ns(200));
        tr.delivered(tag, WireDir::Forward, issued + SimTime::from_ns(330));
        tr.memory_done(tag, issued + SimTime::from_ns(700));
        tr.wire_tx(tag, WireDir::Reverse, issued + SimTime::from_ns(750));
        tr.delivered(tag, WireDir::Reverse, issued + SimTime::from_ns(880));
        tr.finish(tag, issued + SimTime::from_ns(1056), &ctx());
    }

    #[test]
    fn checkpoint_window_recycles_slots() {
        let mut tr = FlitTracer::default();
        tr.set_enabled(true);
        // Sequential loads: each finish recycles its slot, so the
        // window never grows past the in-flight count (1).
        for tag in 0..64u64 {
            drive(&mut tr, tag, SimTime::from_ns(tag * 2_000));
            assert!(tr.window_slots() <= 1, "window grew on sequential loads");
        }
        assert_eq!(tr.traces().len(), 64);
        // A late-enabled tracer re-bases to the first live tag instead
        // of padding from zero.
        let mut late = FlitTracer::default();
        late.set_enabled(true);
        drive(&mut late, 1_000_000, SimTime::from_ns(5));
        assert!(late.window_slots() <= 1, "window padded from tag zero");
        assert_eq!(late.traces().len(), 1);
    }

    #[test]
    fn out_of_order_finish_keeps_checkpoints_intact() {
        let mut tr = FlitTracer::default();
        tr.set_enabled(true);
        let edge = SimTime::from_ns(176);
        // Open three overlapping loads, retire the middle one first.
        for tag in 0..3u64 {
            let issued = SimTime::from_ns(tag * 10);
            tr.begin(tag, 0, 0, issued, issued + edge);
        }
        assert!(tr.active());
        for tag in [1u64, 2, 0] {
            let issued = SimTime::from_ns(tag * 10);
            tr.wire_tx(tag, WireDir::Forward, issued + SimTime::from_ns(200));
            tr.delivered(tag, WireDir::Forward, issued + SimTime::from_ns(330));
            tr.memory_done(tag, issued + SimTime::from_ns(700));
            tr.wire_tx(tag, WireDir::Reverse, issued + SimTime::from_ns(750));
            tr.delivered(tag, WireDir::Reverse, issued + SimTime::from_ns(880));
            assert!(tr.finish(tag, issued + SimTime::from_ns(1056), &ctx()).is_some());
        }
        assert_eq!(tr.traces().len(), 3);
        assert!(!tr.active(), "window drained after the last retire");
        for t in tr.traces() {
            assert_eq!(t.spans_total(), t.rtt());
        }
    }

    #[test]
    fn breakdown_aggregates_and_exports() {
        let mut tr = FlitTracer::default();
        tr.set_enabled(true);
        let edge = SimTime::from_ns(176);
        for tag in 0..2u64 {
            let issued = SimTime::from_ns(tag * 5_000);
            tr.begin(tag, 3, 1, issued, issued + edge);
            tr.wire_tx(tag, WireDir::Forward, issued + SimTime::from_ns(216));
            tr.delivered(tag, WireDir::Forward, issued + SimTime::from_ns(337));
            tr.memory_done(tag, issued + SimTime::from_ns(794));
            tr.wire_tx(tag, WireDir::Reverse, issued + SimTime::from_ns(849));
            tr.delivered(tag, WireDir::Reverse, issued + SimTime::from_ns(953));
            tr.finish(tag, issued + SimTime::from_ns(1129), &ctx());
        }
        let b = LatencyBreakdown::from_traces(tr.traces());
        assert_eq!(b.loads, 2);
        assert_eq!(b.serdes_crossings_per_load(), 6);
        assert_eq!(b.stack_stages_per_load(), 4);
        assert_eq!(b.total, SimTime::from_ns(2 * 1129));
        let table = b.table();
        assert!(table.contains("serDES crossings: 6"));
        assert!(table.contains("FPGA stack stages: 4"));
        let json = serde_json::to_string(&b.to_value()).unwrap_or_default();
        let v: Value = serde_json::from_str(&json).expect("breakdown JSON parses");
        assert_eq!(v.get("loads"), Some(&Value::UInt(2)));

        let chrome = chrome_trace_json(tr.traces());
        let parsed: Value = serde_json::from_str(&chrome).expect("chrome trace parses");
        let events = parsed
            .get("traceEvents")
            .and_then(Value::as_seq)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.get("ph").is_some()));
    }
}
