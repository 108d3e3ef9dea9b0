//! The fabric engine: executes wired stages over one shared event queue.
//!
//! [`Fabric`] owns the component instances — the compute side's
//! [`M1Endpoint`], [`SectionTable`] and [`Router`], per-link
//! [`LlcPair`]s and wire [`Channel`]s, per-donor [`C1MasterDram`]s and an
//! optional [`CircuitSwitch`] — and moves messages between them on a
//! single `simkit::EventQueue`. The router's route is a path's only
//! channel list. Every fabric is wired over a declared topology, and the
//! topology's route is the only wiring authority:
//! [`Fabric::attach_routed`] computes the route from the compute node
//! to the donor's node and instantiates the flit-level plumbing for
//! that compute→donor flow (section-table entries, router route, LLC
//! link pairs, channels, and circuits on a switched fabric), and
//! [`Fabric::detach_path`] tears it back down, tombstoning the link
//! slots so surviving paths keep their channel indices and their event
//! trajectories.
//!
//! The point-to-point topology built by
//! [`crate::fabric::FabricBuilder::point_to_point`] reproduces the
//! pre-fabric monolithic datapath event-for-event: same channel seeds,
//! same LLC calibration, same adaptive-batching flush policy, same
//! event ordering under the queue's FIFO tie-break.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use llc::error::LlcError;
use llc::flit::FLIT_BYTES;
use llc::frame::{Entry, Frame};
use llc::RxAction;
use netsim::channel::{Channel, ChannelBuilder};
use netsim::fault::FaultSpec;
use netsim::switch::{CircuitSwitch, PortId, SwitchError};
use netsim::Delivery;
use opencapi::c1::C1Error;
use opencapi::m1::{M1Endpoint, M1Error};
use opencapi::pasid::{Pasid, Region};
use opencapi::transaction::{MemRequest, MemResponse};
use rmmu::flow::NetworkId;
use rmmu::section::{RmmuError, SectionEntry, SectionTable, DEFAULT_SECTION_BITS, MAX_SECTIONS};
use rmmu::RoutedRequest;
use routing::plan::FlowPlan;
use routing::topology::{Mesh, NodeId, Route as TopoRoute, Topology, TopologyError};
use routing::{ChannelId, RouteError, Router};
use simkit::bandwidth::Rate;
use simkit::event::{Engine, EventQueue};
use simkit::stats::Histogram;
use simkit::telemetry::{
    CounterId, MetricKind, Registry, Snapshot, TelemetryError, TimerId, ViewSchema,
};
use simkit::time::SimTime;

use crate::fabric::chaos::{
    ChaosEvent, ChaosPlan, FaultKind, LinkRef, LoadFault, DEAD_AFTER, WATCHDOG_PERIOD,
};
use crate::fabric::obs::{CongestionReport, Journal, JournalKind, JournalRecord, LinkCongestion};
use crate::fabric::stage::{C1MasterDram, FabricMsg, LlcPair, StageKind, WindowSpec};
use crate::fabric::tags::TagWindow;
use crate::fabric::trace::{
    ComponentId, FlitTrace, FlitTracer, HopContext, HopKind, LatencyBreakdown, SpanIds, WireDir,
    WireLatency,
};
use crate::params::DatapathParams;

/// Identifier of one attached compute→donor path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathId(pub u32);

impl fmt::Display for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "path{}", self.0)
    }
}

/// One retired load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The load's tag.
    pub tag: u64,
    /// The path it completed on.
    pub path: PathId,
    /// Issue-to-retire latency.
    pub latency: SimTime,
}

/// One closed-loop read stream for [`Fabric::run_closed_loop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamLoad {
    /// The path to load.
    pub path: PathId,
    /// Reader threads.
    pub threads: u32,
    /// Outstanding cachelines per thread.
    pub window: u32,
}

/// Everything [`Fabric::attach_routed`] needs to wire one flow.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSpec {
    /// The flow's network identifier (must be unique among live paths).
    pub network: NetworkId,
    /// PASID the donor serves under.
    pub pasid: Pasid,
    /// Donor-side effective address the sections map to.
    pub donor_ea: u64,
    /// Attachment size (whole 256 MiB sections).
    pub bytes: u64,
    /// Physical channels to instantiate.
    pub channels: usize,
    /// Round-robin the channels (bonding).
    pub bonded: bool,
    /// Per-channel `(forward, reverse)` fault seeds; channels beyond the
    /// list derive deterministic seeds from the network id.
    pub seeds: Vec<(u64, u64)>,
    /// Fault injection on every channel of the path.
    pub faults: FaultSpec,
    /// Human-readable label for diagnostics.
    pub label: String,
}

impl PathSpec {
    /// A lossless direct-attached path.
    pub fn new(network: NetworkId, pasid: Pasid, donor_ea: u64, bytes: u64) -> Self {
        PathSpec {
            network,
            pasid,
            donor_ea,
            bytes,
            channels: 1,
            bonded: false,
            seeds: Vec::new(),
            faults: FaultSpec::LOSSLESS,
            label: format!("net{}", network.0),
        }
    }

    /// Uses `channels` bonded channels.
    pub(crate) fn bonded_channels(mut self, channels: usize) -> Self {
        self.channels = channels;
        self.bonded = channels > 1;
        self
    }

    /// Injects faults on the path's channels.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Names the path.
    pub fn labelled(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }

    /// The exact flow the pre-fabric monolithic `Datapath` hardwired:
    /// network 1, PASID 42, donor EA `0x7000_0000_0000`, channel fault
    /// seeds `100+i`/`200+i`, bonded iff more than one channel. The
    /// constants are owned by [`routing::plan::FlowPlan::reference`].
    pub fn reference(bytes: u64, channels: usize) -> Self {
        let plan = FlowPlan::reference();
        PathSpec {
            network: plan.network,
            pasid: plan.pasid,
            donor_ea: plan.donor_ea,
            bytes,
            channels,
            bonded: channels > 1,
            seeds: FlowPlan::reference_seeds(channels),
            faults: FaultSpec::LOSSLESS,
            label: plan.label,
        }
    }

    /// The `(forward, reverse)` channel seeds for channel `c`.
    pub(crate) fn seed_for(&self, c: usize) -> (u64, u64) {
        self.seeds.get(c).copied().unwrap_or_else(|| {
            let base = (u64::from(self.network.0) << 20) | c as u64;
            (base | 0x100_0000, base | 0x200_0000)
        })
    }
}

/// Fabric-level failures.
#[derive(Debug, Clone, PartialEq)]
pub enum FabricError {
    /// The device window has no free run of sections big enough.
    WindowExhausted {
        /// Contiguous sections the attach needed.
        sections: u64,
    },
    /// The LLC state machines reported a protocol violation.
    Llc(LlcError),
    /// The circuit switch refused the operation.
    Switch(SwitchError),
    /// The section table refused the operation.
    Rmmu(RmmuError),
    /// The routing layer refused the operation.
    Route(RouteError),
    /// The M1 window rejected a transaction.
    M1(M1Error),
    /// The donor's C1 port refused a registration or a transaction.
    C1(C1Error),
    /// No such path is attached.
    UnknownPath(PathId),
    /// The path still has loads in flight.
    PathBusy(PathId),
    /// A closed-loop stream on a healthy path retired no load within its
    /// window (the window was shorter than a round trip, or the stream
    /// issued nothing), so it has no rate to report.
    NoCompletions(PathId),
    /// The path lost its last link to an injected failure; loads can no
    /// longer be issued on it. Detach it and re-attach elsewhere.
    PathFaulted {
        /// The poisoned path.
        path: PathId,
        /// The failure that killed it.
        kind: FaultKind,
    },
    /// The path specification or a run parameter is malformed.
    Config(String),
    /// The topology layer refused the operation (unknown node, no
    /// surviving route).
    Topology(TopologyError),
    /// The telemetry registry refused a metric registration.
    Telemetry(TelemetryError),
    /// An internal protocol invariant broke (a simulator bug).
    Protocol(String),
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::WindowExhausted { sections } => {
                write!(f, "no free run of {sections} sections in the device window")
            }
            FabricError::Llc(e) => write!(f, "llc: {e}"),
            FabricError::Switch(e) => write!(f, "switch: {e}"),
            FabricError::Rmmu(e) => write!(f, "rmmu: {e}"),
            FabricError::Route(e) => write!(f, "route: {e}"),
            FabricError::M1(e) => write!(f, "m1: {e}"),
            FabricError::C1(e) => write!(f, "c1: {e}"),
            FabricError::UnknownPath(p) => write!(f, "unknown {p}"),
            FabricError::PathBusy(p) => write!(f, "{p} still has loads in flight"),
            FabricError::NoCompletions(p) => {
                write!(f, "{p} retired no load in its closed-loop window")
            }
            FabricError::PathFaulted { path, kind } => {
                write!(f, "{path} is poisoned: {kind}")
            }
            FabricError::Config(msg) => write!(f, "bad path spec: {msg}"),
            FabricError::Topology(e) => write!(f, "topology: {e}"),
            FabricError::Telemetry(e) => write!(f, "telemetry: {e}"),
            FabricError::Protocol(msg) => write!(f, "fabric invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for FabricError {}

impl From<LlcError> for FabricError {
    fn from(e: LlcError) -> Self {
        FabricError::Llc(e)
    }
}

impl From<SwitchError> for FabricError {
    fn from(e: SwitchError) -> Self {
        FabricError::Switch(e)
    }
}

impl From<RmmuError> for FabricError {
    fn from(e: RmmuError) -> Self {
        FabricError::Rmmu(e)
    }
}

impl From<RouteError> for FabricError {
    fn from(e: RouteError) -> Self {
        FabricError::Route(e)
    }
}

impl From<TelemetryError> for FabricError {
    fn from(e: TelemetryError) -> Self {
        FabricError::Telemetry(e)
    }
}

impl From<M1Error> for FabricError {
    fn from(e: M1Error) -> Self {
        FabricError::M1(e)
    }
}

impl From<C1Error> for FabricError {
    fn from(e: C1Error) -> Self {
        FabricError::C1(e)
    }
}

impl From<TopologyError> for FabricError {
    fn from(e: TopologyError) -> Self {
        FabricError::Topology(e)
    }
}

/// LLC direction along a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    ToMemory,
    ToCompute,
}

#[derive(Debug)]
enum Ev {
    /// A request enters a link's upstream LLC (after serDES + stack).
    Offer { link: usize, msg: FabricMsg },
    /// A frame lands at the far end of a link's channel.
    Arrive {
        link: usize,
        dir: Dir,
        frame: Frame<FabricMsg>,
        intact: bool,
    },
    /// The donor finished serving; the response enters its LLC.
    MemoryDone { link: usize, resp: MemResponse },
    /// A response exits the compute FPGA back into the core.
    Complete { tag: u64 },
    /// Seal whatever is staged on a direction (adaptive batching).
    Flush { link: usize, dir: Dir },
    /// A deferred load issue lands (cross-partition injection, see
    /// [`Fabric::schedule_read`]).
    Inject { path: u32 },
    /// A scripted failure lands (see [`ChaosPlan`]).
    Chaos(ChaosEvent),
    /// The link watchdog samples a link under watch.
    Watchdog { link: usize },
    /// A frame reaches segment `seg` of a multi-hop forwarding chain
    /// (store-and-forward at an interior topology node). Only exists on
    /// multi-hop paths — single-hop fabrics never schedule it, keeping
    /// their trajectories bit-identical to the pre-topology engine.
    HopArrive {
        link: usize,
        /// Chain generation the frame was launched on; a frame from a
        /// superseded (rerouted) chain is dropped — end-to-end replay
        /// re-sends it down the new route.
        gen: u32,
        seg: usize,
        chain_dir: ChainDir,
        dir: Dir,
        frame: Frame<FabricMsg>,
        intact: bool,
    },
    /// A chain segment finished forwarding a frame and returns its
    /// credit (per-link backpressure on interior hops).
    HopCredit {
        link: usize,
        gen: u32,
        chain_dir: ChainDir,
        seg: usize,
    },
}

/// Which physical chain of a multi-hop link a frame rides: the forward
/// chain extends the endpoint's forward channel (compute→donor), the
/// reverse chain extends the reverse channel (donor→compute).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChainDir {
    Fwd,
    Rev,
}

/// Forwarding credits per chain segment: how many frames an interior
/// hop buffers before upstream arrivals queue behind its backpressure.
const HOP_CREDITS: u32 = 8;

/// One store-and-forward segment of a multi-hop chain: the wire channel
/// crossing one interior topology link, its credit pool and the frames
/// waiting for a credit.
struct HopSeg {
    chan: Channel,
    /// The topology link (index into the mesh's links) this segment
    /// crosses — the unit chaos targets by name.
    topo_link: usize,
    credits: u32,
    /// Frames waiting for a credit, each stamped with its arrival
    /// instant so credit-stall time is exact at dequeue.
    queue: VecDeque<(Dir, Frame<FabricMsg>, bool, SimTime)>,
    /// Frames that crossed this segment (pure accounting — congestion
    /// counters never alter scheduling, so observation stays free).
    forwarded: u64,
    /// Arrivals that found no credit and had to queue.
    stall_events: u64,
    /// Total simulated time frames spent queued for a credit.
    stall_ns: u64,
    /// Deepest the credit queue ever got.
    queue_high_water: usize,
}

/// The interior hops of one multi-hop link, one segment per topology
/// link past the endpoint's own. Rebuilt (with `gen` bumped) when an
/// interior link dies and the route detours around it; the chain keeps
/// its own seed/fault identity so rebuilds need no original spec.
struct HopChain {
    fwd: Vec<HopSeg>,
    rev: Vec<HopSeg>,
    gen: u32,
    fwd_seed: u64,
    rev_seed: u64,
    faults: FaultSpec,
}

impl HopChain {
    fn segs(&self, dir: ChainDir) -> &[HopSeg] {
        match dir {
            ChainDir::Fwd => &self.fwd,
            ChainDir::Rev => &self.rev,
        }
    }

    fn segs_mut(&mut self, dir: ChainDir) -> &mut Vec<HopSeg> {
        match dir {
            ChainDir::Fwd => &mut self.fwd,
            ChainDir::Rev => &mut self.rev,
        }
    }
}

/// The fabric's topology state: the mesh, which node the compute
/// endpoint sits on, the currently-downed topology links, and each live
/// path's route.
struct FabricTopo {
    mesh: Mesh,
    compute: NodeId,
    down: BTreeSet<usize>,
    routes: BTreeMap<u32, TopoRoute>,
}

/// Whether `route` collapses onto one endpoint link slot per channel: a
/// direct cable, or a 1-tier Clos route through the hub — both wire
/// bit-for-bit like the legacy point-to-point endpoint. Longer routes
/// forward store-and-forward through their interior nodes.
fn is_collapsed(route: &TopoRoute, hub: Option<NodeId>) -> bool {
    route.hops() == 1 || (route.hops() == 2 && hub == Some(route.nodes[1]))
}

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
struct FabricTele {
    issued: CounterId,
    retired: CounterId,
    rtt: TimerId,
    hops: Vec<TimerId>,
    chaos_events: CounterId,
    lanes_failed: CounterId,
    links_failed: CounterId,
    loads_faulted: CounterId,
    late_completions: CounterId,
    switch_reroutes: CounterId,
    route_reroutes: CounterId,
    detect: TimerId,
    downtime: TimerId,
}

impl FabricTele {
    fn register(r: &mut Registry) -> Result<Self, TelemetryError> {
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
struct TeleViews {
    links: Vec<usize>,
    paths: Vec<u32>,
    schema: ViewSchema,
}

/// One live link: the up/down LLC pairs and the two wire channels of a
/// single physical channel between the compute endpoint and one donor.
struct LinkSlot {
    up: LlcPair,
    down: LlcPair,
    fwd: Channel,
    rev: Channel,
    donor: usize,
    path: u32,
    flush_pending: [bool; 2],
    circuit: Option<(PortId, PortId)>,
    /// A watchdog sample is already scheduled for this link.
    watchdog_pending: bool,
    /// Consecutive silent watchdog samples.
    strikes: u32,
    /// [`LinkSlot::frames_carried`] when the pending sample was armed.
    carried: u64,
    /// When the link went hard-down (for recovery-latency spans).
    down_since: Option<SimTime>,
    /// Interior forwarding segments, one per topology link past the
    /// first — `None` on single-hop links (every pre-topology fabric).
    chain: Option<HopChain>,
    /// The topology links the endpoint slot itself rides (one for a
    /// direct cable, two when a hub route is collapsed onto one slot).
    topo_links: Vec<usize>,
}

impl LinkSlot {
    /// Intact frames the link's wire has carried: sent minus dropped
    /// minus corrupted, over both endpoint channels and every hop
    /// segment. The watchdog's only progress signal — a congested or
    /// lossy link keeps moving it, a dead one does not.
    fn frames_carried(&self) -> u64 {
        let segs = self
            .chain
            .iter()
            .flat_map(|ch| ch.fwd.iter().chain(&ch.rev));
        [&self.fwd, &self.rev]
            .into_iter()
            .chain(segs.map(|s| &s.chan))
            .map(|c| c.frames_sent() - c.frames_dropped() - c.frames_corrupted())
            .sum()
    }
}

/// Per-path bookkeeping.
struct PathState {
    network: NetworkId,
    donor: usize,
    window_base: u64,
    window_bytes: u64,
    issue_cursor: u64,
    completions: Histogram,
    completed_bytes: u64,
    ready_at: SimTime,
    label: String,
    /// Set once the path loses its last link: no further issues.
    poisoned: Option<FaultKind>,
}

const CAPTURE_ID: ComponentId = ComponentId(0);
const TRANSLATE_ID: ComponentId = ComponentId(1);
const ROUTER_ID: ComponentId = ComponentId(2);
const SWITCH_ID: ComponentId = ComponentId(3);
const LINK_ID_BASE: u32 = 100;
const DONOR_ID_BASE: u32 = 10_000;
const INTERIOR_ID_BASE: u32 = 20_000;

fn up_id(link: usize) -> ComponentId {
    ComponentId(LINK_ID_BASE + 4 * link as u32)
}

fn down_id(link: usize) -> ComponentId {
    ComponentId(LINK_ID_BASE + 4 * link as u32 + 1)
}

fn fwd_id(link: usize) -> ComponentId {
    ComponentId(LINK_ID_BASE + 4 * link as u32 + 2)
}

fn rev_id(link: usize) -> ComponentId {
    ComponentId(LINK_ID_BASE + 4 * link as u32 + 3)
}

fn donor_id(donor: usize) -> ComponentId {
    ComponentId(DONOR_ID_BASE + donor as u32)
}

fn interior_id(node: NodeId) -> ComponentId {
    ComponentId(INTERIOR_ID_BASE + node.0)
}

/// The composable flit-level fabric.
pub struct Fabric {
    params: DatapathParams,
    window: WindowSpec,
    capture: M1Endpoint,
    translate: SectionTable,
    /// Each attached network's channels: a path's only channel list.
    router: Router,
    /// Link slots by link index. Indices are never reused, so a
    /// detached or dead link leaves a `None` behind: one pointer.
    links: Vec<Option<Box<LinkSlot>>>,
    /// Donor stages by donor index, tombstoned like `links`.
    donors: Vec<Option<Box<C1MasterDram>>>,
    switch: Option<CircuitSwitch>,
    paths: BTreeMap<u32, PathState>,
    next_path: u32,
    queue: EventQueue<Ev>,
    /// `(issued, path, link)` of every load in flight, by tag.
    inflight: TagWindow<(SimTime, u32, usize)>,
    next_tag: u64,
    telemetry: Registry,
    tele: FabricTele,
    tracer: FlitTracer,
    /// Typed resolutions of loads that could not complete.
    faults: Vec<LoadFault>,
    /// Tags resolved as faulted, so a completion racing its own fault
    /// is absorbed instead of tripping the unissued-tag invariant.
    faulted: BTreeMap<u64, FaultKind>,
    /// Completions absorbed because their load had already faulted.
    late_completions: u64,
    /// Links a coincident offer burst touched; kept across steps.
    touched: Vec<usize>,
    /// A coincident data-arrival burst on its way into an Rx ingress;
    /// kept across steps.
    arrivals: Vec<(Frame<FabricMsg>, bool)>,
    /// What the Rx delivered and wants replied for one arrival burst;
    /// kept across steps.
    rx_action: RxAction<FabricMsg>,
    /// Deferred issues ([`Fabric::schedule_read`]) that landed on a
    /// poisoned path and were refused rather than faulting the run.
    injects_refused: u64,
    /// The topology the fabric is wired over.
    topo: FabricTopo,
    /// Times an interior link failure was detoured by re-routing.
    route_reroutes: u64,
    /// The causal event journal, when enabled ([`Fabric::set_journal`]).
    /// `None` records nothing; recording is pure observation either way.
    journal: Option<Journal>,
    /// The telemetry snapshot's view schema, built on first use.
    views: Option<TeleViews>,
}

impl fmt::Debug for Fabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fabric")
            .field("paths", &self.paths.len())
            .field("links", &self.links.iter().filter(|l| l.is_some()).count())
            .field("inflight", &self.inflight.len())
            .finish()
    }
}

impl Fabric {
    /// An empty fabric wired over `mesh`, with the compute endpoint on
    /// node `compute`.
    pub(crate) fn assemble(
        params: DatapathParams,
        window: WindowSpec,
        switch: Option<CircuitSwitch>,
        engine: Engine,
        mesh: Mesh,
        compute: NodeId,
    ) -> Result<Self, FabricError> {
        // M1 capture asserts a non-empty, cacheline-aligned window, the
        // RMMU maps it in whole sections, and load addresses are base +
        // offset, so the window's one-past-end must fit in u64: refuse
        // anything else here.
        let section = 1u64 << DEFAULT_SECTION_BITS;
        if window.bytes == 0
            || !window.bytes.is_multiple_of(section)
            || !window.base.is_multiple_of(128)
            || window.base.checked_add(window.bytes).is_none()
        {
            return Err(FabricError::Config(format!(
                "device window {:#x}+{:#x} is not a whole number of {section} B sections \
                 at a 128 B aligned base, ending below 2^64",
                window.base, window.bytes
            )));
        }
        // The section table allocates one root pointer per 256 sections
        // up front: refuse before allocating it.
        if window.bytes / section > MAX_SECTIONS {
            return Err(FabricError::Config(format!(
                "device window {:#x} B spans more than {MAX_SECTIONS} sections",
                window.bytes
            )));
        }
        if mesh.nodes().iter().all(|n| n.id != compute) {
            return Err(FabricError::Topology(TopologyError::UnknownNode(compute)));
        }
        params.check_llc()?;
        let capture = M1Endpoint::new(window.base, window.bytes);
        let translate = SectionTable::with_default_sections(window.bytes);
        // Telemetry starts disabled: instrumentation is observation only
        // and costs one predicted branch per hook until switched on.
        let mut telemetry = Registry::new(false);
        let tele = FabricTele::register(&mut telemetry)?;
        Ok(Fabric {
            params,
            window,
            capture,
            translate,
            router: Router::new(),
            links: Vec::new(),
            donors: Vec::new(),
            switch,
            paths: BTreeMap::new(),
            next_path: 0,
            queue: EventQueue::with_engine(engine),
            inflight: TagWindow::default(),
            next_tag: 0,
            telemetry,
            tele,
            tracer: FlitTracer::default(),
            faults: Vec::new(),
            faulted: BTreeMap::new(),
            late_completions: 0,
            touched: Vec::new(),
            arrivals: Vec::new(),
            rx_action: RxAction::default(),
            injects_refused: 0,
            topo: FabricTopo {
                mesh,
                compute,
                down: BTreeSet::new(),
                routes: BTreeMap::new(),
            },
            route_reroutes: 0,
            journal: None,
            views: None,
        })
    }

    /// Latency of the endpoint entry/exit path: one serDES crossing plus
    /// one FPGA stack crossing.
    fn edge_latency(&self) -> SimTime {
        self.params.edge_crossing()
    }

    /// Attaches one compute→donor path along the declared topology: the
    /// route from the compute node to `donor_node` is computed
    /// ([`Topology::get_route_avoiding`], skipping downed links), a free
    /// section run is carved from the device window, the donor region is
    /// registered, and the LLC link pairs and wire channels are
    /// instantiated, then the sections and the router route programmed.
    /// Single-hop and hub-collapsed routes take one endpoint link slot
    /// per channel (the legacy wiring); longer routes add
    /// store-and-forward segments with per-link credit backpressure at
    /// every interior node. On a fabric built with a circuit switch every
    /// channel rides an allocated circuit.
    ///
    /// # Errors
    ///
    /// Fails — without touching fabric state — on unroutable donors,
    /// multi-hop routes on a switched fabric, malformed specs (including
    /// a donor range that runs past the top of the address space),
    /// window exhaustion, duplicate networks, or a full switch.
    pub fn attach_routed(
        &mut self,
        spec: &PathSpec,
        donor_node: NodeId,
    ) -> Result<PathId, FabricError> {
        let topo = &self.topo;
        let route = topo
            .mesh
            .get_route_avoiding(topo.compute, donor_node, &topo.down)?;
        self.attach_along(spec, route)
    }

    /// [`Fabric::attach_routed`] along a route chosen elsewhere: the
    /// rack's control plane routes and reserves every lease, and the
    /// fabric forwards on exactly that route. `route` must walk the
    /// fabric's topology from its compute node.
    ///
    /// # Errors
    ///
    /// As [`Fabric::attach_routed`].
    pub(crate) fn attach_along(
        &mut self,
        spec: &PathSpec,
        route: TopoRoute,
    ) -> Result<PathId, FabricError> {
        let topo = &self.topo;
        if route.hops() == 0 {
            return Err(FabricError::Config(
                "donor node is the compute node itself".into(),
            ));
        }
        let collapsed = is_collapsed(&route, topo.mesh.hub());
        if !collapsed && self.switch.is_some() {
            return Err(FabricError::Config(
                "a switched fabric runs every channel on one circuit; multi-hop \
                 routes forward through interior nodes instead"
                    .into(),
            ));
        }
        // The endpoint slots ride the whole collapsed route, or only a
        // longer route's first link, its chain forwarding the rest.
        let (topo_links, chain_links) = if collapsed {
            (&route.links[..], &[][..])
        } else {
            route.links.split_at(1)
        };
        let section = self.translate.section_size();
        if spec.channels == 0 {
            return Err(FabricError::Config("a path needs at least one channel".into()));
        }
        if spec.bytes == 0 || !spec.bytes.is_multiple_of(section) {
            return Err(FabricError::Config(format!(
                "path size {} is not a whole number of {} B sections",
                spec.bytes, section
            )));
        }
        // The section table computes each mapping's one-past-end donor
        // address, so the donor range must end below 2^64.
        if !spec.donor_ea.is_multiple_of(128) || spec.donor_ea.checked_add(spec.bytes).is_none() {
            return Err(FabricError::Config(format!(
                "donor range {:#x}+{:#x} must be 128 B aligned and end below 2^64",
                spec.donor_ea, spec.bytes
            )));
        }
        if self.router.channels_of(spec.network).is_some() {
            return Err(FabricError::Config(format!(
                "network {} already has an attached path",
                spec.network.0
            )));
        }
        if let Some(sw) = &self.switch {
            if sw.free_ports().len() < 2 * spec.channels {
                return Err(FabricError::Switch(SwitchError::Exhausted));
            }
        }
        let section_count = spec.bytes / section;
        let first_section = self
            .translate
            .first_free_run(section_count)
            .ok_or(FabricError::WindowExhausted {
                sections: section_count,
            })?;
        let now = self.queue.now();

        // Donor stage.
        let donor_idx = self.donors.len();
        let mut donor = C1MasterDram::new(
            SimTime::from_ns(self.params.dram_latency_ns),
            spec.pasid,
        );
        donor.register(Region {
            ea_base: spec.donor_ea,
            len: spec.bytes,
        })?;
        self.donors.push(Some(Box::new(donor)));

        // Links: LLC pairs + wire channels, through circuits on a
        // switched fabric.
        let llc_config = self.params.llc;
        let lane = self.params.lane();
        let cable = self.params.cable;
        let mut chan_ids = Vec::with_capacity(spec.channels);
        let mut ready_at = now;
        let path_id = self.next_path;
        for c in 0..spec.channels {
            let (circuit, extra, ready) = match self.switch.as_mut() {
                Some(sw) => {
                    let traversal = sw.traversal_latency();
                    let (a, b, ready) = sw.alloc_circuit(now)?;
                    (Some((a, b)), traversal, ready)
                }
                None => (None, SimTime::ZERO, now),
            };
            ready_at = ready_at.max(ready);
            let (fwd_seed, rev_seed) = spec.seed_for(c);
            let mk_chan = |seed: u64| -> Channel {
                ChannelBuilder::thymesisflow_default()
                    .lane(lane)
                    .cable(cable)
                    .extra_latency(extra)
                    .faults(spec.faults)
                    .seed(seed)
                    .build()
            };
            let link = self.links.len();
            let chain = if chain_links.is_empty() {
                None
            } else {
                Some(Self::build_chain(
                    &self.params,
                    spec.faults,
                    fwd_seed,
                    rev_seed,
                    chain_links,
                    0,
                ))
            };
            self.links.push(Some(Box::new(LinkSlot {
                up: LlcPair::new(llc_config),
                down: LlcPair::new(llc_config),
                fwd: mk_chan(fwd_seed),
                rev: mk_chan(rev_seed),
                donor: donor_idx,
                path: path_id,
                flush_pending: [false; 2],
                circuit,
                watchdog_pending: false,
                strikes: 0,
                carried: 0,
                down_since: None,
                chain,
                topo_links: topo_links.to_vec(),
            })));
            // Link indices stay far below u32::MAX.
            chan_ids.push(ChannelId(link as u32));
        }

        // Section-table entries + route.
        for i in 0..section_count {
            let mut entry = SectionEntry::new(spec.donor_ea + i * section, spec.network);
            if spec.bonded {
                entry = entry.bonded();
            }
            self.translate.program(first_section + i, entry)?;
        }
        self.router.add_route(spec.network, chan_ids)?;

        self.paths.insert(
            path_id,
            PathState {
                network: spec.network,
                donor: donor_idx,
                window_base: self.window.base + first_section * section,
                window_bytes: spec.bytes,
                issue_cursor: 0,
                completions: Histogram::new(),
                completed_bytes: 0,
                ready_at,
                label: spec.label.clone(),
                poisoned: None,
            },
        );
        self.next_path += 1;
        self.topo.routes.insert(path_id, route);
        if self.journal.is_some() {
            let names = self.route_link_names(path_id);
            let at = self.queue.now();
            self.jot(
                JournalRecord::new(
                    at,
                    JournalKind::Attach,
                    format!("{} attached ({} bytes)", spec.label, spec.bytes),
                )
                .path(PathId(path_id))
                .links(names),
            );
        }
        Ok(PathId(path_id))
    }

    /// Deterministic per-segment channel seeds: decorrelated from the
    /// endpoint's seeds and from each other, and bumped with the chain
    /// generation so a rebuilt (rerouted) chain never replays the old
    /// segment loss pattern.
    fn hop_seed(base: u64, seg: usize, gen: u32, rev: bool) -> u64 {
        base ^ 0x517c_c1b7_2722_0a95
            ^ ((seg as u64 + 1) << 8)
            ^ (u64::from(gen) << 32)
            ^ if rev { 1 << 63 } else { 0 }
    }

    /// Builds the interior forwarding chain of one multi-hop channel:
    /// one store-and-forward segment per topology link past the
    /// endpoint's own, each with its own wire channel (same lane/cable
    /// calibration as the endpoint, plus one interior-node traversal)
    /// and [`HOP_CREDITS`] forwarding credits.
    fn build_chain(
        params: &DatapathParams,
        faults: FaultSpec,
        fwd_seed: u64,
        rev_seed: u64,
        links: &[usize],
        gen: u32,
    ) -> HopChain {
        let traversal = CircuitSwitch::optical(2).traversal_latency();
        let mk = |seed: u64, topo_link: usize| HopSeg {
            chan: ChannelBuilder::thymesisflow_default()
                .lane(params.lane())
                .cable(params.cable)
                .extra_latency(traversal)
                .faults(faults)
                .seed(seed)
                .build(),
            topo_link,
            credits: HOP_CREDITS,
            queue: VecDeque::new(),
            forwarded: 0,
            stall_events: 0,
            stall_ns: 0,
            queue_high_water: 0,
        };
        HopChain {
            fwd: links
                .iter()
                .enumerate()
                .map(|(k, &l)| mk(Self::hop_seed(fwd_seed, k, gen, false), l))
                .collect(),
            rev: links
                .iter()
                .enumerate()
                .map(|(k, &l)| mk(Self::hop_seed(rev_seed, k, gen, true), l))
                .collect(),
            gen,
            fwd_seed,
            rev_seed,
            faults,
        }
    }

    /// Detaches a path: removes the route, clears its section-table
    /// entries, frees its switch circuits and tombstones its link slots —
    /// surviving paths keep their channel indices and their trajectories.
    ///
    /// # Errors
    ///
    /// Refuses while the path still has loads in flight; drain first.
    pub fn detach_path(&mut self, path: PathId) -> Result<(), FabricError> {
        if !self.paths.contains_key(&path.0) {
            return Err(FabricError::UnknownPath(path));
        }
        if self.inflight.iter().any(|(_, &(_, p, _))| p == path.0) {
            return Err(FabricError::PathBusy(path));
        }
        let state = self
            .paths
            .remove(&path.0)
            .ok_or(FabricError::UnknownPath(path))?;
        // A poisoned path already lost its route (and possibly its
        // circuits) when its last link died; tear down what remains.
        let links: Vec<usize> = self.path_links(state.network).collect();
        if !links.is_empty() {
            self.router.remove_route(state.network)?;
        }
        for s in self.translate.sections_of(state.network) {
            self.translate.unprogram(s)?;
        }
        let now = self.queue.now();
        for l in links {
            if let Some(slot) = self.links.get_mut(l).and_then(Option::take) {
                if let (Some((a, _)), Some(sw)) = (slot.circuit, self.switch.as_mut()) {
                    if sw.peer(a).is_some() {
                        sw.disconnect(a, now)?;
                    }
                }
            }
        }
        self.donors
            .get_mut(state.donor)
            .and_then(Option::take);
        if self.journal.is_some() {
            let names = self.route_link_names(path.0);
            self.jot(
                JournalRecord::new(
                    now,
                    JournalKind::Detach,
                    format!("{} detached", state.label),
                )
                .path(path)
                .links(names),
            );
        }
        self.topo.routes.remove(&path.0);
        Ok(())
    }

    /// Issues one cacheline read on `path` at the current instant,
    /// returning the load's tag (matched by [`Completion::tag`] or, if
    /// an injected failure strands it, [`LoadFault::tag`]).
    ///
    /// # Errors
    ///
    /// Fails on unknown paths, on paths poisoned by an injected failure
    /// ([`FabricError::PathFaulted`]), or if a pipeline stage rejects
    /// the load (which a correctly attached path never does).
    pub fn issue_read(&mut self, path: PathId) -> Result<u64, FabricError> {
        let state = self
            .paths
            .get_mut(&path.0)
            .ok_or(FabricError::UnknownPath(path))?;
        if let Some(kind) = state.poisoned {
            return Err(FabricError::PathFaulted { path, kind });
        }
        let tag = self.next_tag;
        self.next_tag += 1;
        // Walk the path's window in cacheline strides.
        let addr = state.window_base + (state.issue_cursor * 128) % state.window_bytes;
        state.issue_cursor += 1;
        let ready_at = state.ready_at;
        let req = MemRequest::read(tag, addr);
        // The compute pipeline, stage by stage: M1 capture → RMMU
        // translate → route pick.
        let dev = self.capture.accept(&req)?;
        let t = self.translate.translate(dev)?;
        let ch = self.router.forward(t.network, t.bonded)?;
        let mut out = req;
        out.addr = t.remote_ea.as_u64();
        let routed = RoutedRequest {
            req: out,
            network: t.network,
            bonded: t.bonded,
        };
        let now = self.queue.now();
        // Channel ids are small link indices.
        let link = ch.0 as usize;
        self.inflight.insert(tag, (now, path.0, link));
        // CPU -> serDES -> FPGA stack -> LLC; a freshly switched path
        // additionally waits for its circuits to be programmed.
        let at = (now + self.edge_latency()).max(ready_at);
        self.queue.schedule(
            at,
            Ev::Offer {
                link,
                msg: FabricMsg::Req(routed),
            },
        );
        self.telemetry.inc(self.tele.issued);
        self.tracer.begin(tag, path.0, link, now, at);
        Ok(tag)
    }

    /// Adaptive batching: seal immediately once a full frame's payload
    /// is staged; otherwise wait (at most until the wire goes idle) for
    /// more transactions to share the frame.
    fn offer_or_flush(&mut self, link: usize, dir: Dir) -> Result<(), FabricError> {
        let now = self.queue.now();
        let di = dir as usize;
        let (seal, flush_at) = {
            let Some(slot) = self.links.get_mut(link).and_then(Option::as_mut) else {
                return Ok(());
            };
            let pace = slot.fwd.payload_rate();
            let data_free = match dir {
                Dir::ToMemory => slot.fwd.free_at(),
                Dir::ToCompute => slot.rev.free_at(),
            };
            let tx = match dir {
                Dir::ToMemory => &mut slot.up.tx,
                Dir::ToCompute => &mut slot.down.tx,
            };
            if tx.staged_flits() >= tx.frame_payload_flits() {
                tx.seal();
                (true, None)
            } else if slot.flush_pending[di] {
                (false, None)
            } else {
                // Wait for the wire to drain plus two frame times before
                // padding: under load the companion transactions arrive
                // within that window and frames leave full. One pending
                // flush at a time, or stale timers would fragment batches.
                slot.flush_pending[di] = true;
                let frame_bytes = (self.params.llc.frame_flits * FLIT_BYTES) as u64;
                let two_frames = pace.transfer_time(2 * frame_bytes);
                (false, Some(data_free.max(now) + two_frames))
            }
        };
        if seal {
            self.pump(link, dir)?;
        }
        if let Some(at) = flush_at {
            self.queue.schedule(at, Ev::Flush { link, dir });
        }
        Ok(())
    }

    fn pump(&mut self, link: usize, dir: Dir) -> Result<(), FabricError> {
        let now = self.queue.now();
        loop {
            let frame = {
                let Some(slot) = self.links.get_mut(link).and_then(Option::as_mut) else {
                    return Ok(());
                };
                let tx = match dir {
                    Dir::ToMemory => &mut slot.up.tx,
                    Dir::ToCompute => &mut slot.down.tx,
                };
                match tx.next_transmittable()? {
                    Some(f) => f,
                    None => return Ok(()),
                }
            };
            self.transmit(link, dir, frame, now);
        }
    }

    /// Checkpoints every traced transaction riding a data frame at its
    /// wire-transmit instant; replays overwrite, so the surviving
    /// checkpoint is the transmit that actually delivered.
    fn stamp_wire_tx(&mut self, dir: Dir, frame: &Frame<FabricMsg>, now: SimTime) {
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

    /// Puts a frame of direction `dir` on the right physical channel.
    /// Data frames travel with their direction; their control replies
    /// travel on the reverse channel but still belong to `dir`. On a
    /// multi-hop link the endpoint channel only covers the route's
    /// first topology link: the frame then enters the forwarding chain
    /// ([`Ev::HopArrive`]) instead of arriving directly.
    fn transmit(&mut self, link: usize, dir: Dir, frame: Frame<FabricMsg>, now: SimTime) {
        self.stamp_wire_tx(dir, &frame, now);
        let (delivery, hop_gen, chain_dir) = {
            let Some(slot) = self.links.get_mut(link).and_then(Option::as_mut) else {
                return;
            };
            let is_control = matches!(frame, Frame::Control(_));
            let chain_dir = match (dir, is_control) {
                (Dir::ToMemory, false) | (Dir::ToCompute, true) => ChainDir::Fwd,
                (Dir::ToCompute, false) | (Dir::ToMemory, true) => ChainDir::Rev,
            };
            let physical = match chain_dir {
                ChainDir::Fwd => &mut slot.fwd,
                ChainDir::Rev => &mut slot.rev,
            };
            let delivery = physical.transmit(now, frame.wire_bytes());
            let hop_gen = slot
                .chain
                .as_ref()
                .and_then(|ch| (!ch.segs(chain_dir).is_empty()).then_some(ch.gen));
            (delivery, hop_gen, chain_dir)
        };
        // A lost or damaged frame puts the link under watch: if it was
        // the tail of the traffic, nothing else would ever replay it.
        let (at, intact) = match delivery {
            Delivery::Delivered { at } => (at, true),
            Delivery::Corrupted { at } => {
                self.arm_watchdog(link);
                (at, false)
            }
            Delivery::Dropped => return self.arm_watchdog(link),
        };
        match hop_gen {
            None => self.queue.schedule(
                at.max(now),
                Ev::Arrive {
                    link,
                    dir,
                    frame,
                    intact,
                },
            ),
            Some(gen) => self.queue.schedule(
                at.max(now),
                Ev::HopArrive {
                    link,
                    gen,
                    seg: 0,
                    chain_dir,
                    dir,
                    frame,
                    intact,
                },
            ),
        }
    }

    /// A frame reaches one interior forwarding segment: it takes a
    /// credit and crosses, or queues behind the segment's backpressure.
    /// Frames from a superseded chain generation are dropped — the
    /// route was rebuilt around a failure, and end-to-end replay
    /// re-sends them down the new chain.
    #[allow(clippy::too_many_arguments)]
    fn hop_arrive(
        &mut self,
        link: usize,
        gen: u32,
        seg: usize,
        chain_dir: ChainDir,
        dir: Dir,
        frame: Frame<FabricMsg>,
        intact: bool,
    ) {
        let now = self.queue.now();
        let admit = {
            let Some(slot) = self.links.get_mut(link).and_then(Option::as_mut) else {
                return;
            };
            let Some(chain) = slot.chain.as_mut() else {
                return;
            };
            if chain.gen != gen {
                return;
            }
            let Some(s) = chain.segs_mut(chain_dir).get_mut(seg) else {
                return;
            };
            if s.credits == 0 {
                s.queue.push_back((dir, frame, intact, now));
                s.stall_events += 1;
                s.queue_high_water = s.queue_high_water.max(s.queue.len());
                None
            } else {
                s.credits -= 1;
                Some(frame)
            }
        };
        if let Some(frame) = admit {
            self.hop_forward(link, gen, seg, chain_dir, dir, frame, intact, now);
        }
    }

    /// Crosses one chain segment: transmits on the segment's channel,
    /// returns the credit at delivery, and hands the frame to the next
    /// segment — or to the endpoint's [`Ev::Arrive`] machinery after
    /// the last one (the LLC link layer stays end-to-end).
    #[allow(clippy::too_many_arguments)]
    fn hop_forward(
        &mut self,
        link: usize,
        gen: u32,
        seg: usize,
        chain_dir: ChainDir,
        dir: Dir,
        frame: Frame<FabricMsg>,
        intact: bool,
        now: SimTime,
    ) {
        let (delivery, last) = {
            let Some(slot) = self.links.get_mut(link).and_then(Option::as_mut) else {
                return;
            };
            let Some(chain) = slot.chain.as_mut() else {
                return;
            };
            if chain.gen != gen {
                return;
            }
            let segs = chain.segs_mut(chain_dir);
            let last = seg + 1 >= segs.len();
            let Some(s) = segs.get_mut(seg) else {
                return;
            };
            s.forwarded += 1;
            (s.chan.transmit(now, frame.wire_bytes()), last)
        };
        let (at, intact) = match delivery {
            Delivery::Delivered { at } => (at, intact),
            Delivery::Corrupted { at } => {
                self.arm_watchdog(link);
                (at, false)
            }
            Delivery::Dropped => {
                // The frame is gone mid-route: the credit returns (the
                // segment is not congested, the fabric is broken) and
                // the link goes under watch so replay or death resolves
                // every stranded load.
                self.queue.schedule(
                    now,
                    Ev::HopCredit {
                        link,
                        gen,
                        chain_dir,
                        seg,
                    },
                );
                return self.arm_watchdog(link);
            }
        };
        let t = at.max(now);
        self.queue.schedule(
            t,
            Ev::HopCredit {
                link,
                gen,
                chain_dir,
                seg,
            },
        );
        if last {
            self.queue.schedule(
                t,
                Ev::Arrive {
                    link,
                    dir,
                    frame,
                    intact,
                },
            );
        } else {
            self.queue.schedule(
                t,
                Ev::HopArrive {
                    link,
                    gen,
                    seg: seg + 1,
                    chain_dir,
                    dir,
                    frame,
                    intact,
                },
            );
        }
    }

    /// A chain segment's credit returns; the oldest queued frame (if
    /// any) takes it and crosses.
    fn hop_credit(&mut self, link: usize, gen: u32, chain_dir: ChainDir, seg: usize) {
        let now = self.queue.now();
        let next = {
            let Some(slot) = self.links.get_mut(link).and_then(Option::as_mut) else {
                return;
            };
            let Some(chain) = slot.chain.as_mut() else {
                return;
            };
            if chain.gen != gen {
                return;
            }
            let Some(s) = chain.segs_mut(chain_dir).get_mut(seg) else {
                return;
            };
            s.credits += 1;
            match s.queue.pop_front() {
                Some((dir, frame, intact, enq)) => {
                    s.credits -= 1;
                    s.stall_ns += now.as_ns().saturating_sub(enq.as_ns());
                    Some((dir, frame, intact))
                }
                None => None,
            }
        };
        if let Some((dir, frame, intact)) = next {
            self.hop_forward(link, gen, seg, chain_dir, dir, frame, intact, now);
        }
    }

    /// Dispatches one delivered LLC message to the stage behind it.
    fn dispatch_delivery(
        &mut self,
        link: usize,
        dir: Dir,
        msg: FabricMsg,
        now: SimTime,
    ) -> Result<(), FabricError> {
        match (dir, msg) {
            (Dir::ToMemory, FabricMsg::Req(routed)) => {
                // FPGA stack in, then the C1 engine + donor serDES + DRAM.
                let stack = SimTime::from_ns(self.params.stack_crossing_ns);
                let serdes = SimTime::from_ns(self.params.serdes_crossing_ns);
                let donor_idx = match self.links.get(link).and_then(Option::as_ref) {
                    Some(slot) => slot.donor,
                    None => return Ok(()),
                };
                let donor = self
                    .donors
                    .get_mut(donor_idx)
                    .and_then(Option::as_mut)
                    .ok_or_else(|| {
                        FabricError::Protocol(format!(
                            "link {link} references detached donor {donor_idx}"
                        ))
                    })?;
                let ready = donor.serve(now + stack + serdes, &routed)? + serdes + stack;
                if self.tracer.active() {
                    self.tracer.delivered(routed.req.tag.0, WireDir::Forward, now);
                    self.tracer.memory_done(routed.req.tag.0, ready);
                }
                self.queue.schedule(
                    ready,
                    Ev::MemoryDone {
                        link,
                        resp: routed.req.response(),
                    },
                );
                Ok(())
            }
            (Dir::ToCompute, FabricMsg::Resp(resp)) => {
                if self.tracer.active() {
                    self.tracer.delivered(resp.tag.0, WireDir::Reverse, now);
                }
                // FPGA stack out + serDES back to core.
                self.queue
                    .schedule_in(self.edge_latency(), Ev::Complete { tag: resp.tag.0 });
                Ok(())
            }
            (d, m) => Err(FabricError::Protocol(format!(
                "message {m:?} on wrong direction {d:?}"
            ))),
        }
    }

    /// The fixed per-hop latencies and component attribution of one
    /// link, for finalizing a trace. On a multi-hop link the wire
    /// latencies aggregate the endpoint channel plus every chain
    /// segment, per direction — a route of L topology links reports L
    /// crossings, L cable flights and L−1 interior traversals, so
    /// per-hop spans still sum exactly to the measured RTT.
    fn hop_context(&self, link: usize) -> Option<HopContext> {
        let slot = self.links.get(link).and_then(Option::as_ref)?;
        let wire = |c: &Channel| WireLatency {
            crossing: c.crossing_latency(),
            cable: c.cable_latency(),
            extra: c.extra_latency(),
            flight: c.flight_latency(),
        };
        let total = |base: WireLatency, segs: &[HopSeg]| {
            segs.iter().fold(base, |acc, s| WireLatency {
                crossing: acc.crossing + s.chan.crossing_latency(),
                cable: acc.cable + s.chan.cable_latency(),
                extra: acc.extra + s.chan.extra_latency(),
                flight: acc.flight + s.chan.flight_latency(),
            })
        };
        let (fwd, rev) = match slot.chain.as_ref() {
            Some(chain) => (
                total(wire(&slot.fwd), &chain.fwd),
                total(wire(&slot.rev), &chain.rev),
            ),
            None => (wire(&slot.fwd), wire(&slot.rev)),
        };
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
                up: up_id(link),
                down: down_id(link),
                fwd: fwd_id(link),
                rev: rev_id(link),
                donor: donor_id(slot.donor),
            },
        })
    }

    /// Retires one completed load.
    fn retire(&mut self, tag: u64, done: &mut Vec<Completion>) -> Result<(), FabricError> {
        let Some((issued, path, _link)) = self.inflight.remove(tag) else {
            if self.faulted.contains_key(&tag) {
                // The completion raced its own fault resolution: the
                // response was already past the failed component when
                // the fault was declared. The typed fault stands; the
                // late completion is absorbed, never double-delivered.
                self.late_completions += 1;
                self.telemetry.inc(self.tele.late_completions);
                return Ok(());
            }
            return Err(FabricError::Protocol(format!(
                "completion for unissued tag {tag}"
            )));
        };
        let now = self.queue.now();
        let latency = now - issued;
        if let Some(state) = self.paths.get_mut(&path) {
            state.completions.record(latency.as_ns());
            state.completed_bytes += 128;
        }
        self.telemetry.inc(self.tele.retired);
        self.telemetry.record_ns(self.tele.rtt, latency.as_ns());
        if self.tracer.active() {
            let ctx = self
                .tracer
                .pending_link(tag)
                .and_then(|l| self.hop_context(l));
            if let Some(ctx) = ctx {
                if let Some(i) = self.tracer.finish(tag, now, &ctx) {
                    for s in &self.tracer.traces()[i].spans {
                        self.telemetry
                            .record_span(self.tele.hops[s.kind.index()], s.start, s.end);
                    }
                }
            }
        }
        done.push(Completion {
            tag,
            path: PathId(path),
            latency,
        });
        Ok(())
    }

    fn offer_up(&mut self, link: usize, msg: FabricMsg) -> bool {
        match self.links.get_mut(link).and_then(Option::as_mut) {
            Some(slot) => {
                slot.up.tx.offer(msg);
                true
            }
            None => false,
        }
    }

    fn offer_down(&mut self, link: usize, resp: MemResponse) -> bool {
        match self.links.get_mut(link).and_then(Option::as_mut) {
            Some(slot) => {
                slot.down.tx.offer(FabricMsg::Resp(resp));
                true
            }
            None => false,
        }
    }

    /// Processes one event — plus every *coincident* event of the same
    /// kind, batched into a single pass (offer bursts from bonded issue
    /// loops, completion bursts from a drained frame then cost one
    /// seal/pump/dispatch instead of N). Returns the loads retired by
    /// this step, or `None` once the queue is empty. Events addressed to
    /// tombstoned (detached) links are dropped.
    ///
    /// # Errors
    ///
    /// Surfaces LLC protocol violations and misrouted messages — all
    /// simulator bugs, never load-dependent.
    pub fn step(&mut self) -> Result<Option<Vec<Completion>>, FabricError> {
        let mut done = Vec::new();
        Ok(self.step_into(&mut done)?.then_some(done))
    }

    /// [`Fabric::step`] appending the retired loads to `done` instead of
    /// returning a fresh vector, so a driver loop can reuse one buffer.
    /// Returns `false` once the queue is empty.
    pub(crate) fn step_into(&mut self, done: &mut Vec<Completion>) -> Result<bool, FabricError> {
        let Some((_, ev)) = self.queue.pop() else {
            return Ok(false);
        };
        match ev {
            Ev::Offer { link, msg } => {
                let mut touched = std::mem::take(&mut self.touched);
                if self.offer_up(link, msg) {
                    touched.push(link);
                }
                while let Some(Ev::Offer { link, msg }) = self
                    .queue
                    .pop_coincident(|e| matches!(e, Ev::Offer { .. }))
                {
                    if self.offer_up(link, msg) && !touched.contains(&link) {
                        touched.push(link);
                    }
                }
                for &link in &touched {
                    self.offer_or_flush(link, Dir::ToMemory)?;
                }
                touched.clear();
                self.touched = touched;
            }
            Ev::Arrive {
                link,
                dir,
                frame,
                intact,
            } => match frame {
                Frame::Control(c) => {
                    if intact {
                        let live = match self.links.get_mut(link).and_then(Option::as_mut) {
                            Some(slot) => {
                                match dir {
                                    Dir::ToMemory => slot.up.tx.on_control(c),
                                    Dir::ToCompute => slot.down.tx.on_control(c),
                                }?;
                                true
                            }
                            None => false,
                        };
                        if live {
                            self.pump(link, dir)?;
                        }
                    }
                }
                data @ Frame::Data { .. } => self.arrive_data(link, dir, data, intact)?,
            },
            Ev::MemoryDone { link, resp } => {
                let mut touched = std::mem::take(&mut self.touched);
                if self.offer_down(link, resp) {
                    touched.push(link);
                }
                while let Some(Ev::MemoryDone { link, resp }) = self
                    .queue
                    .pop_coincident(|e| matches!(e, Ev::MemoryDone { .. }))
                {
                    if self.offer_down(link, resp) && !touched.contains(&link) {
                        touched.push(link);
                    }
                }
                for &link in &touched {
                    self.offer_or_flush(link, Dir::ToCompute)?;
                }
                touched.clear();
                self.touched = touched;
            }
            Ev::Flush { link, dir } => {
                let live = match self.links.get_mut(link).and_then(Option::as_mut) {
                    Some(slot) => {
                        slot.flush_pending[dir as usize] = false;
                        let tx = match dir {
                            Dir::ToMemory => &mut slot.up.tx,
                            Dir::ToCompute => &mut slot.down.tx,
                        };
                        tx.seal();
                        true
                    }
                    None => false,
                };
                if live {
                    self.pump(link, dir)?;
                }
            }
            Ev::Complete { tag } => {
                self.retire(tag, done)?;
                while let Some(Ev::Complete { tag }) = self
                    .queue
                    .pop_coincident(|e| matches!(e, Ev::Complete { .. }))
                {
                    self.retire(tag, done)?;
                }
            }
            Ev::Inject { path } => {
                // A deferred (possibly cross-partition) issue lands. A
                // path poisoned since the injection was scheduled refuses
                // the load instead of faulting the run — the sender
                // cannot have known.
                match self.issue_read(PathId(path)) {
                    Ok(_) => {}
                    Err(FabricError::PathFaulted { .. }) => self.injects_refused += 1,
                    Err(e) => return Err(e),
                }
            }
            Ev::Chaos(ev) => self.apply_chaos(ev)?,
            Ev::Watchdog { link } => self.watchdog_fire(link)?,
            Ev::HopArrive {
                link,
                gen,
                seg,
                chain_dir,
                dir,
                frame,
                intact,
            } => self.hop_arrive(link, gen, seg, chain_dir, dir, frame, intact),
            Ev::HopCredit {
                link,
                gen,
                chain_dir,
                seg,
            } => self.hop_credit(link, gen, chain_dir, seg),
        }
        Ok(true)
    }

    /// A data frame lands: batches every coincident data arrival on the
    /// same link and direction through the Rx's bounded ingress, sends
    /// the Rx's replies, dispatches what it delivered, and pumps the
    /// Tx the replies may have unblocked. The burst and the Rx action
    /// live in buffers the fabric keeps across steps.
    fn arrive_data(
        &mut self,
        link: usize,
        dir: Dir,
        frame: Frame<FabricMsg>,
        intact: bool,
    ) -> Result<(), FabricError> {
        let now = self.queue.now();
        let mut burst = std::mem::take(&mut self.arrivals);
        burst.push((frame, intact));
        while let Some(Ev::Arrive { frame, intact, .. }) = self.queue.pop_coincident(|e| {
            matches!(
                e,
                Ev::Arrive {
                    link: l,
                    dir: d,
                    frame: Frame::Data { .. },
                    ..
                } if *l == link && *d == dir
            )
        }) {
            burst.push((frame, intact));
        }
        let mut action = std::mem::take(&mut self.rx_action);
        let live = match self.links.get_mut(link).and_then(Option::as_mut) {
            Some(slot) => {
                let rx = match dir {
                    Dir::ToMemory => &mut slot.up.rx,
                    Dir::ToCompute => &mut slot.down.rx,
                };
                rx.enqueue_arrivals(&mut burst)?;
                rx.drain_ingress(&mut action)?;
                true
            }
            None => false,
        };
        // Frames for a detached link are dropped with it.
        burst.clear();
        self.arrivals = burst;
        if live {
            for c in action.replies.drain(..) {
                self.transmit(link, dir, Frame::Control(c), now);
            }
            for msg in action.delivered.drain(..) {
                self.dispatch_delivery(link, dir, msg, now)?;
            }
            self.pump(link, dir)?;
        }
        action.clear();
        self.rx_action = action;
        Ok(())
    }

    /// Runs the fabric until the event queue is empty.
    ///
    /// # Errors
    ///
    /// Propagates [`Fabric::step`] failures.
    pub fn drain(&mut self) -> Result<(), FabricError> {
        while self.step()?.is_some() {}
        Ok(())
    }

    /// Delivery time of the earliest pending event, if any — the value
    /// a conservative partition runner folds into its window bound.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Schedules one cacheline read on `path` to issue at instant `at`
    /// (clamped to now). This is how cross-partition traffic enters a
    /// fabric: the remote sender picks `at` at least one boundary-link
    /// latency ahead, and the issue replays deterministically whenever
    /// the event pops. An issue landing on a path that a failure
    /// poisoned in the meantime is refused and counted
    /// ([`Fabric::injects_refused`]) instead of faulting the run.
    ///
    /// # Errors
    ///
    /// Fails on unknown paths.
    pub(crate) fn schedule_read(&mut self, path: PathId, at: SimTime) -> Result<(), FabricError> {
        if !self.paths.contains_key(&path.0) {
            return Err(FabricError::UnknownPath(path));
        }
        let at = at.max(self.queue.now());
        self.queue.schedule(at, Ev::Inject { path: path.0 });
        Ok(())
    }

    /// Deferred issues refused because their path was poisoned by the
    /// time they landed.
    pub fn injects_refused(&self) -> u64 {
        self.injects_refused
    }

    /// The minimum in-flight latency over every live link's wire
    /// channels — the fabric's conservative lookahead contribution: no
    /// flit can cross a link (and hence a partition boundary cut at a
    /// link) faster than this.
    pub(crate) fn min_wire_latency(&self) -> Option<SimTime> {
        self.links
            .iter()
            .flatten()
            .flat_map(|slot| {
                let segs = slot
                    .chain
                    .iter()
                    .flat_map(|ch| ch.fwd.iter().chain(ch.rev.iter()))
                    .map(|s| s.chan.flight_latency());
                [
                    slot.fwd.flight_latency(),
                    slot.rev.flight_latency(),
                ]
                .into_iter()
                .chain(segs)
            })
            .min()
    }

    /// Schedules a failure script on the event queue. Events dated in
    /// the past land at the current instant.
    pub fn schedule_chaos(&mut self, plan: &ChaosPlan) {
        let now = self.queue.now();
        for (at, ev) in plan.events() {
            self.queue.schedule((*at).max(now), Ev::Chaos(ev.clone()));
        }
    }

    /// Typed resolutions of every load an injected failure stranded, in
    /// resolution order.
    pub fn faults(&self) -> &[LoadFault] {
        &self.faults
    }

    /// Completions absorbed because their load had already been
    /// resolved as faulted (the response raced the failure declaration).
    pub fn late_completions(&self) -> u64 {
        self.late_completions
    }

    /// Why `path` can no longer issue loads, or `None` while healthy.
    ///
    /// # Errors
    ///
    /// Fails on unknown paths.
    pub fn path_fault(&self, path: PathId) -> Result<Option<FaultKind>, FabricError> {
        self.paths
            .get(&path.0)
            .map(|s| s.poisoned)
            .ok_or(FabricError::UnknownPath(path))
    }

    /// The donor index serving `path` (the target for
    /// [`ChaosEvent::DonorCrash`]).
    ///
    /// # Errors
    ///
    /// Fails on unknown paths.
    pub fn path_donor(&self, path: PathId) -> Result<usize, FabricError> {
        self.paths
            .get(&path.0)
            .map(|s| s.donor)
            .ok_or(FabricError::UnknownPath(path))
    }

    /// Resolves a chaos link reference to the endpoint slots it touches
    /// and (for named references) the topology link index behind it.
    ///
    /// A raw [`LinkRef::Slot`] targets exactly one endpoint slot. A
    /// [`LinkRef::Name`] targets the declared topology: every endpoint
    /// slot riding that link plus every interior chain segment crossing
    /// it; a `"name#k"` suffix narrows the endpoint side to the k-th
    /// riding slot.
    fn resolve_link_ref(&self, r: &LinkRef) -> Result<(Vec<usize>, Option<usize>), FabricError> {
        match r {
            LinkRef::Slot(i) => Ok((vec![*i], None)),
            LinkRef::Name(name) => {
                let (base, pick) = match name.split_once('#') {
                    Some((b, k)) => {
                        let k = k.parse::<usize>().map_err(|_| {
                            FabricError::Config(format!(
                                "bad link selector {name:?}: the #-suffix must be a slot index"
                            ))
                        })?;
                        (b, Some(k))
                    }
                    None => (name.as_str(), None),
                };
                let idx = self.topo.mesh.link_named(base).ok_or_else(|| {
                    FabricError::Topology(TopologyError::UnknownLink(base.to_string()))
                })?;
                let mut slots: Vec<usize> = self
                    .links
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| {
                        s.as_ref()
                            .filter(|slot| slot.topo_links.contains(&idx))
                            .map(|_| i)
                    })
                    .collect();
                if let Some(k) = pick {
                    slots = slots.get(k).map(|&i| vec![i]).unwrap_or_default();
                }
                Ok((slots, Some(idx)))
            }
        }
    }

    /// Lands one scripted failure.
    fn apply_chaos(&mut self, ev: ChaosEvent) -> Result<(), FabricError> {
        self.telemetry.inc(self.tele.chaos_events);
        let now = self.queue.now();
        if self.journal.is_some() {
            let (detail, target) = match &ev {
                ChaosEvent::LinkDown { link } => (format!("{link} down"), Some(link)),
                ChaosEvent::LinkUp { link } => (format!("{link} up"), Some(link)),
                ChaosEvent::LinkFlap { link, down_for } => {
                    (format!("{link} flap for {down_for}"), Some(link))
                }
                ChaosEvent::LaneFail { link } => (format!("lane failed on {link}"), Some(link)),
                ChaosEvent::DonorCrash { donor } => (format!("donor {donor} crash"), None),
                ChaosEvent::SwitchPortFail { port } => {
                    (format!("switch port {} fail", port.0), None)
                }
            };
            let links = match target {
                Some(LinkRef::Name(n)) => vec![n.clone()],
                Some(LinkRef::Slot(s)) => vec![format!("slot{s}")],
                None => Vec::new(),
            };
            self.jot(JournalRecord::new(now, JournalKind::Chaos, detail).links(links));
        }
        match ev {
            ChaosEvent::LinkDown { link } => {
                let (slots, topo) = self.resolve_link_ref(&link)?;
                for s in slots {
                    self.link_down(s);
                }
                if let Some(idx) = topo {
                    self.interior_link_down(idx)?;
                }
            }
            ChaosEvent::LinkUp { link } => {
                let (slots, topo) = self.resolve_link_ref(&link)?;
                for s in slots {
                    self.link_up(s)?;
                }
                if let Some(idx) = topo {
                    self.interior_link_up(idx)?;
                }
            }
            ChaosEvent::LinkFlap { link, down_for } => {
                let (slots, topo) = self.resolve_link_ref(&link)?;
                for &s in &slots {
                    self.link_down(s);
                }
                if let Some(idx) = topo {
                    self.interior_link_down(idx)?;
                }
                self.queue
                    .schedule(now + down_for, Ev::Chaos(ChaosEvent::LinkUp { link }));
            }
            ChaosEvent::LaneFail { link } => {
                let (slots, topo) = self.resolve_link_ref(&link)?;
                let mut touched = false;
                for s in slots {
                    let left = {
                        let Some(slot) = self.links.get_mut(s).and_then(Option::as_mut)
                        else {
                            continue;
                        };
                        slot.fwd.fail_lane();
                        slot.rev.fail_lane()
                    };
                    touched = true;
                    if left == 0 {
                        // The last lane: a lane failure is now a cut cable.
                        self.link_down(s);
                    }
                }
                if let Some(idx) = topo {
                    let mut dead = false;
                    for slot in self.links.iter_mut().flatten() {
                        if let Some(chain) = slot.chain.as_mut() {
                            for seg in
                                chain.fwd.iter_mut().chain(chain.rev.iter_mut())
                            {
                                if seg.topo_link == idx {
                                    touched = true;
                                    if seg.chan.fail_lane() == 0 {
                                        dead = true;
                                    }
                                }
                            }
                        }
                    }
                    if dead {
                        self.interior_link_down(idx)?;
                    }
                }
                if touched {
                    self.telemetry.inc(self.tele.lanes_failed);
                }
            }
            ChaosEvent::DonorCrash { donor } => self.donor_crash(donor)?,
            ChaosEvent::SwitchPortFail { port } => self.switch_port_fail(port)?,
        }
        Ok(())
    }

    /// Takes one interior topology link down: every chain segment
    /// crossing it goes hard-down, and every multi-hop path routed over
    /// it detours around the failure if the mesh still connects its
    /// endpoints — otherwise the path fails with
    /// [`FaultKind::RouteLost`].
    fn interior_link_down(&mut self, idx: usize) -> Result<(), FabricError> {
        if !self.topo.down.insert(idx) {
            return Ok(()); // already down
        }
        // Frames in flight on the segment are lost; end-to-end replay
        // plus the reroute below recover them.
        for slot in self.links.iter_mut().flatten() {
            if let Some(chain) = slot.chain.as_mut() {
                for seg in chain.fwd.iter_mut().chain(chain.rev.iter_mut()) {
                    if seg.topo_link == idx {
                        seg.chan.set_down(true);
                    }
                }
            }
        }
        let affected: Vec<u32> = self
            .topo
            .routes
            .iter()
            .filter(|(_, r)| r.links.len() > 1 && r.links[1..].contains(&idx))
            .map(|(&p, _)| p)
            .collect();
        for p in affected {
            self.reroute_path(p, idx)?;
        }
        Ok(())
    }

    /// Restores one interior topology link. Chains still riding it
    /// (paths that could not detour or never needed to) come back up
    /// and get kicked; detoured routes stay on their detour.
    fn interior_link_up(&mut self, idx: usize) -> Result<(), FabricError> {
        if !self.topo.down.remove(&idx) {
            return Ok(());
        }
        let mut kick: Vec<usize> = Vec::new();
        for (i, entry) in self.links.iter_mut().enumerate() {
            let Some(slot) = entry.as_mut() else {
                continue;
            };
            if let Some(chain) = slot.chain.as_mut() {
                let mut rides = false;
                for seg in chain.fwd.iter_mut().chain(chain.rev.iter_mut()) {
                    if seg.topo_link == idx {
                        seg.chan.set_down(false);
                        rides = true;
                    }
                }
                if rides {
                    kick.push(i);
                }
            }
        }
        for s in kick {
            self.kick_link(s)?;
        }
        Ok(())
    }

    /// Rebuilds one multi-hop path's forwarding chain around the downed
    /// topology links: the endpoint attachment (the route's first link)
    /// is fixed, the tail detours, the chain generation bumps (frames
    /// in flight on the old chain are dropped on arrival and replayed),
    /// and the watchdog supervises the transition. With no surviving
    /// detour the path fails with [`FaultKind::RouteLost`].
    fn reroute_path(&mut self, path_id: u32, cause: usize) -> Result<(), FabricError> {
        let Some(network) = self.paths.get(&path_id).map(|p| p.network) else {
            return Ok(());
        };
        let slot_indices: Vec<usize> = self.path_links(network).collect();
        // Collapsed (single-hop / hub) routes have no chains; endpoint
        // recovery owns those failures.
        if !slot_indices.iter().any(|&s| {
            self.links
                .get(s)
                .and_then(Option::as_ref)
                .is_some_and(|sl| sl.chain.is_some())
        }) {
            return Ok(());
        }
        let detour = {
            let topo = &self.topo;
            let Some(route) = topo.routes.get(&path_id) else {
                return Ok(());
            };
            let mut avoid: BTreeSet<usize> = topo.down.clone();
            avoid.insert(route.links[0]);
            let dst = route.nodes[route.nodes.len() - 1];
            topo.mesh
                .get_route_avoiding(route.nodes[1], dst, &avoid)
                .map(|tail| (route.nodes[0], route.links[0], tail))
        };
        match detour {
            Ok((head_node, head_link, tail)) => {
                let mut nodes = vec![head_node];
                nodes.extend_from_slice(&tail.nodes);
                let mut links = vec![head_link];
                links.extend_from_slice(&tail.links);
                let new_route = TopoRoute { nodes, links };
                let mut new_gen = None;
                for &s in &slot_indices {
                    let Some(slot) = self.links.get_mut(s).and_then(Option::as_mut)
                    else {
                        continue;
                    };
                    let Some(old) = slot.chain.as_ref() else {
                        continue;
                    };
                    let (faults, fs, rs, gen) =
                        (old.faults, old.fwd_seed, old.rev_seed, old.gen + 1);
                    new_gen = Some(gen);
                    slot.chain = Some(Self::build_chain(
                        &self.params,
                        faults,
                        fs,
                        rs,
                        &new_route.links[1..],
                        gen,
                    ));
                }
                self.topo.routes.insert(path_id, new_route);
                self.route_reroutes += 1;
                self.telemetry.inc(self.tele.route_reroutes);
                if self.journal.is_some() {
                    let cause_name = self.topo_link_name(cause);
                    let names = self.route_link_names(path_id);
                    let at = self.queue.now();
                    let mut rec = JournalRecord::new(
                        at,
                        JournalKind::Reroute,
                        format!("detoured around {cause_name}"),
                    )
                    .path(PathId(path_id))
                    .links(names);
                    if let Some(g) = new_gen {
                        rec = rec.generation(g);
                    }
                    self.jot(rec);
                }
                for &s in &slot_indices {
                    self.kick_link(s)?;
                    self.arm_watchdog(s);
                }
            }
            Err(_) => {
                if self.journal.is_some() {
                    let cause_name = self.topo_link_name(cause);
                    let at = self.queue.now();
                    self.jot(
                        JournalRecord::new(
                            at,
                            JournalKind::RouteLost,
                            format!("no detour around {cause_name} survives"),
                        )
                        .path(PathId(path_id))
                        .links(vec![cause_name]),
                    );
                }
                for &s in &slot_indices {
                    self.fail_link(s, FaultKind::RouteLost { topo_link: cause })?;
                }
            }
        }
        Ok(())
    }

    /// Takes both physical channels of a link hard-down and puts the
    /// link under watchdog supervision.
    fn link_down(&mut self, link: usize) {
        let now = self.queue.now();
        let Some(slot) = self.links.get_mut(link).and_then(Option::as_mut) else {
            return;
        };
        slot.fwd.set_down(true);
        slot.rev.set_down(true);
        if slot.down_since.is_none() {
            slot.down_since = Some(now);
        }
        self.arm_watchdog(link);
    }

    /// Restores a hard-downed link and shoves whatever the outage
    /// stranded back onto the live wire.
    fn link_up(&mut self, link: usize) -> Result<(), FabricError> {
        let now = self.queue.now();
        let down_at = {
            let Some(slot) = self.links.get_mut(link).and_then(Option::as_mut) else {
                return Ok(());
            };
            slot.fwd.set_down(false);
            slot.rev.set_down(false);
            slot.strikes = 0;
            slot.down_since.take()
        };
        if let Some(at) = down_at {
            self.telemetry.record_span(self.tele.downtime, at, now);
        }
        self.kick_link(link)
    }

    /// Tail-replay keepalive: re-queues every unacknowledged frame on
    /// both directions and pumps them through the channels.
    fn kick_link(&mut self, link: usize) -> Result<(), FabricError> {
        {
            let Some(slot) = self.links.get_mut(link).and_then(Option::as_mut) else {
                return Ok(());
            };
            slot.up.tx.kick_tail_replay();
            slot.down.tx.kick_tail_replay();
        }
        self.pump(link, Dir::ToMemory)?;
        self.pump(link, Dir::ToCompute)
    }

    /// Puts `link` under watch: schedules one watchdog sample a period
    /// from now and records the link's count of intact frames carried,
    /// unless a sample is already pending.
    fn arm_watchdog(&mut self, link: usize) {
        let at = self.queue.now() + WATCHDOG_PERIOD;
        let Some(slot) = self.links.get_mut(link).and_then(Option::as_mut) else {
            return;
        };
        if slot.watchdog_pending {
            return;
        }
        slot.watchdog_pending = true;
        slot.carried = slot.frames_carried();
        self.queue.schedule(at, Ev::Watchdog { link });
    }

    /// One watchdog sample. A link that owes nothing goes quiet (no
    /// re-arm), so a drained queue stays drained. One whose wire carried
    /// an intact frame since the watchdog armed is busy, not dead: its
    /// strikes clear and the watch goes on. A silent one takes a strike
    /// and a keepalive kick, and the [`DEAD_AFTER`]th strike in a row
    /// declares it dead.
    fn watchdog_fire(&mut self, link: usize) -> Result<(), FabricError> {
        let (silent, dead) = {
            let Some(slot) = self.links.get_mut(link).and_then(Option::as_mut) else {
                return Ok(());
            };
            slot.watchdog_pending = false;
            if slot.up.tx.is_idle() && slot.down.tx.is_idle() {
                slot.strikes = 0;
                return Ok(());
            }
            let silent = slot.frames_carried() == slot.carried;
            slot.strikes = if silent { slot.strikes + 1 } else { 0 };
            (silent, slot.strikes >= DEAD_AFTER)
        };
        if dead {
            return self.fail_link(link, FaultKind::LinkDead { link });
        }
        if silent {
            self.kick_link(link)?;
        }
        // A retransmit the kick lost on a still-dark wire may have
        // re-armed already; arming is idempotent.
        self.arm_watchdog(link);
        Ok(())
    }

    /// Permanently removes a dead link: tombstones the slot, frees any
    /// surviving circuit end, resolves the link's in-flight loads to
    /// typed faults, and re-programs the path's route around the loss —
    /// or poisons the path if this was its last link.
    fn fail_link(&mut self, link: usize, kind: FaultKind) -> Result<(), FabricError> {
        let Some(slot) = self.links.get_mut(link).and_then(Option::take) else {
            return Ok(());
        };
        let now = self.queue.now();
        if let Some(since) = slot.down_since {
            self.telemetry.record_span(self.tele.detect, since, now);
        }
        if let (Some((a, _)), Some(sw)) = (slot.circuit, self.switch.as_mut()) {
            // A failed port already tore the circuit; only live ones
            // still need disconnecting.
            if sw.peer(a).is_some() {
                sw.disconnect(a, now)?;
            }
        }
        // Resolve this link's stranded loads in tag order (the window
        // iterates in tag order), so the fault log is deterministic.
        let stranded: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, &(_, _, l))| l == link)
            .map(|(t, _)| t)
            .collect();
        for tag in stranded {
            self.fault_tag(tag, kind);
        }
        // Degrade the path to its surviving links, or poison it.
        let path = slot.path;
        if let Some(state) = self.paths.get_mut(&path) {
            let network = state.network;
            // Link indices stay far below u32::MAX.
            let dead = ChannelId(link as u32);
            let survivors: Vec<ChannelId> = self
                .router
                .channels_of(network)
                .unwrap_or_default()
                .iter()
                .copied()
                .filter(|&c| c != dead)
                .collect();
            // Re-adding the survivors restarts round-robin at the first.
            if self.router.channels_of(network).is_some() {
                self.router.remove_route(network)?;
            }
            if survivors.is_empty() {
                state.poisoned = Some(kind);
            } else {
                self.router.add_route(network, survivors)?;
            }
        }
        self.telemetry.inc(self.tele.links_failed);
        if self.journal.is_some() {
            let names: Vec<String> = slot
                .topo_links
                .iter()
                .map(|&tl| self.topo_link_name(tl))
                .collect();
            self.jot(
                JournalRecord::new(
                    now,
                    JournalKind::LinkFailed,
                    format!("link {link} dead: {kind}"),
                )
                .path(PathId(path))
                .links(names),
            );
        }
        Ok(())
    }

    /// Resolves one in-flight load to a typed fault.
    fn fault_tag(&mut self, tag: u64, kind: FaultKind) {
        let Some((_, path, _)) = self.inflight.remove(tag) else {
            return;
        };
        self.faulted.insert(tag, kind);
        self.faults.push(LoadFault {
            tag,
            path: PathId(path),
            at: self.queue.now(),
            kind,
        });
        self.tracer.abandon(tag);
        self.telemetry.inc(self.tele.loads_faulted);
        let at = self.queue.now();
        self.jot(
            JournalRecord::new(at, JournalKind::LoadFaulted, format!("tag {tag}: {kind}"))
                .path(PathId(path)),
        );
    }

    /// The donor host dies: every link it serves dies with it, every
    /// stranded load on them resolves to a [`FaultKind::DonorCrash`].
    fn donor_crash(&mut self, donor: usize) -> Result<(), FabricError> {
        if self.donors.get_mut(donor).and_then(Option::take).is_none() {
            return Ok(()); // already detached — nothing left to crash
        }
        let at = self.queue.now();
        self.jot(JournalRecord::new(
            at,
            JournalKind::DonorCrash,
            format!("donor {donor} crashed"),
        ));
        let doomed: Vec<usize> = self
            .links
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                s.as_ref()
                    .filter(|slot| slot.donor == donor)
                    .map(|_| i)
            })
            .collect();
        for link in doomed {
            self.fail_link(link, FaultKind::DonorCrash { donor })?;
        }
        Ok(())
    }

    /// A switch port fails: the circuit riding it is re-programmed
    /// around the failed port (one reconfiguration latency of darkness,
    /// drained by the same flap machinery), or — with no spare ports —
    /// the link dies.
    fn switch_port_fail(&mut self, port: PortId) -> Result<(), FabricError> {
        let now = self.queue.now();
        {
            let Some(sw) = self.switch.as_mut() else {
                return Ok(()); // no switch in this topology
            };
            if sw.fail_port(port).is_err() {
                return Ok(()); // unknown or already failed
            }
        }
        let Some(link) = self.links.iter().position(|s| {
            s.as_ref()
                .and_then(|slot| slot.circuit)
                .is_some_and(|(a, b)| a == port || b == port)
        }) else {
            return Ok(()); // the port carried no live circuit
        };
        let realloc = match self.switch.as_mut() {
            Some(sw) => sw.alloc_circuit(now),
            None => return Ok(()),
        };
        match realloc {
            Ok((a, b, ready)) => {
                // Re-point the link's slot at the new circuit and flap
                // the link for the reconfiguration window.
                if let Some(slot) = self.links.get_mut(link).and_then(Option::as_mut) {
                    slot.circuit = Some((a, b));
                }
                self.link_down(link);
                self.queue.schedule(
                    ready.max(now),
                    Ev::Chaos(ChaosEvent::LinkUp {
                        link: LinkRef::Slot(link),
                    }),
                );
                self.telemetry.inc(self.tele.switch_reroutes);
                if self.journal.is_some() {
                    let path = self.link_path(link);
                    let mut rec = JournalRecord::new(
                        now,
                        JournalKind::SwitchReroute,
                        format!(
                            "port {} failed; circuit re-programmed onto {}→{}",
                            port.0, a.0, b.0
                        ),
                    );
                    if let Some(p) = path {
                        rec = rec.path(p);
                    }
                    self.jot(rec);
                }
                Ok(())
            }
            Err(_) => self.fail_link(link, FaultKind::SwitchPortFail { port }),
        }
    }

    /// Measures the round trip of one uncontended cacheline load on
    /// `path` (load-to-use: flit RTT plus donor DRAM).
    ///
    /// # Errors
    ///
    /// Fails on unknown paths or if the fabric drains without the load
    /// completing (a simulator bug on a lossless path).
    pub fn measure_load_latency(&mut self, path: PathId) -> Result<SimTime, FabricError> {
        let tag = self.issue_read(path)?;
        while let Some(done) = self.step()? {
            if let Some(c) = done.iter().find(|c| c.tag == tag) {
                return Ok(c.latency);
            }
        }
        Err(FabricError::Protocol(
            "fabric drained without completing the probe load".into(),
        ))
    }

    /// Runs concurrent closed-loop read streams (`threads × window`
    /// outstanding cachelines per path) for `duration`, returning each
    /// path's sustained rate in the order given.
    ///
    /// # Errors
    ///
    /// Fails on unknown paths or fabric protocol violations, on a zero
    /// `duration` or a `threads × window` that overflows `u32`
    /// ([`FabricError::Config`], before any load is issued), and when a
    /// stream retires no load within the window:
    /// [`FabricError::PathFaulted`] if a failure poisoned its path,
    /// [`FabricError::NoCompletions`] otherwise.
    pub fn run_closed_loop(
        &mut self,
        loads: &[StreamLoad],
        duration: SimTime,
    ) -> Result<Vec<Rate>, FabricError> {
        if duration.is_zero() {
            return Err(FabricError::Config(
                "closed-loop duration must be positive".into(),
            ));
        }
        let start_now = self.queue.now();
        let deadline = start_now + duration;
        let mut start_bytes = Vec::with_capacity(loads.len());
        let mut outstanding = Vec::with_capacity(loads.len());
        for l in loads {
            let state = self
                .paths
                .get(&l.path.0)
                .ok_or(FabricError::UnknownPath(l.path))?;
            start_bytes.push(state.completed_bytes);
            outstanding.push(l.threads.checked_mul(l.window).ok_or_else(|| {
                FabricError::Config(format!(
                    "{} threads × {} outstanding loads overflows u32",
                    l.threads, l.window
                ))
            })?);
        }
        for (l, &n) in loads.iter().zip(&outstanding) {
            for _ in 0..n {
                self.issue_read(l.path)?;
            }
        }
        let mut done = Vec::new();
        while self.step_into(&mut done)? {
            if self.queue.now() >= deadline {
                break;
            }
            for c in done.drain(..) {
                if loads.iter().any(|l| l.path == c.path) {
                    self.issue_read(c.path)?;
                }
            }
        }
        let elapsed = self.queue.now().min(deadline) - start_now;
        let mut rates = Vec::with_capacity(loads.len());
        for (l, start) in loads.iter().zip(start_bytes) {
            let state = self
                .paths
                .get(&l.path.0)
                .ok_or(FabricError::UnknownPath(l.path))?;
            let bytes = state.completed_bytes - start;
            if bytes == 0 || elapsed.is_zero() {
                // No rate to report; a failure that poisoned the path
                // says why.
                return Err(match state.poisoned {
                    Some(kind) => FabricError::PathFaulted { path: l.path, kind },
                    None => FabricError::NoCompletions(l.path),
                });
            }
            // Byte counts stay far below 2^53.
            rates.push(Rate::from_bytes_per_sec(
                bytes as f64 / elapsed.as_secs_f64(),
            ));
        }
        Ok(rates)
    }

    /// Single-stream convenience over [`Fabric::run_closed_loop`].
    ///
    /// # Errors
    ///
    /// Fails on unknown paths or fabric protocol violations.
    pub fn measure_stream_bandwidth(
        &mut self,
        path: PathId,
        threads: u32,
        window: u32,
        duration: SimTime,
    ) -> Result<Rate, FabricError> {
        let rates = self.run_closed_loop(
            &[StreamLoad {
                path,
                threads,
                window,
            }],
            duration,
        )?;
        rates
            .first()
            .copied()
            .ok_or(FabricError::UnknownPath(path))
    }

    /// Latency distribution of the path's completed loads (ns).
    ///
    /// # Errors
    ///
    /// Fails on unknown paths.
    pub fn completions(&self, path: PathId) -> Result<&Histogram, FabricError> {
        self.paths
            .get(&path.0)
            .map(|s| &s.completions)
            .ok_or(FabricError::UnknownPath(path))
    }

    /// The device-window slice carved for `path`.
    ///
    /// # Errors
    ///
    /// Fails on unknown paths.
    pub(crate) fn path_window(&self, path: PathId) -> Result<WindowSpec, FabricError> {
        self.paths
            .get(&path.0)
            .map(|s| WindowSpec {
                base: s.window_base,
                bytes: s.window_bytes,
            })
            .ok_or(FabricError::UnknownPath(path))
    }

    /// The path a live link belongs to, or `None` for tombstoned slots.
    pub(crate) fn link_path(&self, link: usize) -> Option<PathId> {
        self.links
            .get(link)
            .and_then(Option::as_ref)
            .map(|s| PathId(s.path))
    }

    fn stats_of(slot: &LinkSlot, link: usize) -> LinkStats {
        LinkStats {
            link,
            path: PathId(slot.path),
            fwd_frames: slot.fwd.frames_sent(),
            fwd_bytes: slot.fwd.bytes_sent(),
            rev_frames: slot.rev.frames_sent(),
            rev_bytes: slot.rev.bytes_sent(),
            fwd_dropped: slot.fwd.frames_dropped(),
            fwd_corrupted: slot.fwd.frames_corrupted(),
            rev_dropped: slot.rev.frames_dropped(),
            rev_corrupted: slot.rev.frames_corrupted(),
            up_replays: slot.up.tx.frames_replayed(),
            down_replays: slot.down.tx.frames_replayed(),
            up_delivered: slot.up.rx.frames_delivered(),
            down_delivered: slot.down.rx.frames_delivered(),
            up_credit_stalls: slot.up.tx.credits().starvation_events(),
            down_credit_stalls: slot.down.tx.credits().starvation_events(),
            up_credits: slot.up.tx.credits().available(),
            down_credits: slot.down.tx.credits().available(),
            up_backlog: slot.up.tx.backlog(),
            down_backlog: slot.down.tx.backlog(),
            up_rx_high_water: slot.up.rx.ingress_high_water(),
            down_rx_high_water: slot.down.rx.ingress_high_water(),
        }
    }

    /// The unified statistics of one link, or `None` for tombstoned
    /// slots.
    pub(crate) fn link_stats(&self, link: usize) -> Option<LinkStats> {
        self.links
            .get(link)
            .and_then(Option::as_ref)
            .map(|s| Self::stats_of(s, link))
    }

    /// The statistics of every live link serving `path`, in channel
    /// order.
    ///
    /// # Errors
    ///
    /// Fails on unknown paths.
    pub fn path_link_stats(&self, path: PathId) -> Result<Vec<LinkStats>, FabricError> {
        let state = self
            .paths
            .get(&path.0)
            .ok_or(FabricError::UnknownPath(path))?;
        Ok(self
            .path_links(state.network)
            .filter_map(|l| self.link_stats(l))
            .collect())
    }

    /// The link slots serving `network`, in channel order: the router's
    /// route is a path's only channel list, empty once a poisoned path
    /// has lost its route.
    fn path_links(&self, network: NetworkId) -> impl Iterator<Item = usize> + '_ {
        let channels = self.router.channels_of(network).unwrap_or_default();
        channels.iter().map(|c| c.0 as usize)
    }

    /// Live attached paths, in attach order.
    pub fn path_ids(&self) -> Vec<PathId> {
        self.paths.keys().map(|&p| PathId(p)).collect()
    }

    /// Events the engine has processed.
    pub fn events_processed(&self) -> u64 {
        self.queue.popped()
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The calibration constants the fabric was built with.
    pub fn params(&self) -> &DatapathParams {
        &self.params
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
        for (i, slot) in self.links.iter().enumerate() {
            if slot.is_some() {
                out.push((up_id(i), StageKind::LlcPair));
                out.push((down_id(i), StageKind::LlcPair));
                out.push((fwd_id(i), StageKind::Channel));
                out.push((rev_id(i), StageKind::Channel));
            }
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
            out.push((interior_id(NodeId(n)), StageKind::CircuitSwitch));
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
    /// vocabulary named chaos targets ([`LinkRef::Name`]), journal
    /// records and congestion reports share.
    pub fn topology_link_names(&self) -> Vec<String> {
        self.topo.mesh.link_names()
    }

    /// The declared name of topology link `idx`.
    fn topo_link_name(&self, idx: usize) -> String {
        self.topo
            .mesh
            .link_name(idx)
            .map_or_else(|| format!("link{idx}"), str::to_string)
    }

    /// The topology link names a path's live route walks, in walk
    /// order.
    fn route_link_names(&self, path: u32) -> Vec<String> {
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

    /// Appends `rec` if the journal is enabled.
    fn jot(&mut self, rec: JournalRecord) {
        if let Some(j) = self.journal.as_mut() {
            j.record(rec);
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
            // Endpoint channels: the slot's own topology links.
            for &tl in &slot.topo_links {
                let Some(row) = rows.get_mut(tl) else {
                    continue;
                };
                row.endpoint_frames +=
                    slot.fwd.frames_sent() + slot.rev.frames_sent();
                row.replays +=
                    slot.up.tx.frames_replayed() + slot.down.tx.frames_replayed();
                row.credit_stalls += slot.up.tx.credits().starvation_events()
                    + slot.down.tx.credits().starvation_events();
                row.utilization = row
                    .utilization
                    .max(slot.fwd.utilization(now))
                    .max(slot.rev.utilization(now));
                row.down |= slot.fwd.is_down() || slot.rev.is_down();
            }
            // Interior hop segments: each covers exactly one topology
            // link past the endpoint's own.
            if let Some(chain) = &slot.chain {
                for seg in chain.fwd.iter().chain(chain.rev.iter()) {
                    let Some(row) = rows.get_mut(seg.topo_link) else {
                        continue;
                    };
                    row.forwarded += seg.forwarded;
                    row.queue_depth += seg.queue.len();
                    row.queue_high_water = row.queue_high_water.max(seg.queue_high_water);
                    row.credit_stalls += seg.stall_events;
                    row.stall_ns += seg.stall_ns;
                    row.utilization = row.utilization.max(seg.chan.utilization(now));
                    row.down |= seg.chan.is_down();
                }
            }
        }
        CongestionReport::new(now, rows)
    }

    /// Multi-hop routes rebuilt around interior link failures.
    pub fn route_reroutes(&self) -> u64 {
        self.route_reroutes
    }

    /// The circuit switch, when the topology has one.
    pub fn switch(&self) -> Option<&CircuitSwitch> {
        self.switch.as_ref()
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
                && v.links.iter().copied().eq(self.live_links())
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

    /// Indices of the live link slots, ascending.
    fn live_links(&self) -> impl Iterator<Item = usize> + '_ {
        self.links
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|_| i))
    }

    /// Builds the telemetry views of the live links and paths.
    fn tele_views(&self) -> Result<TeleViews, TelemetryError> {
        let links: Vec<usize> = self.live_links().collect();
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
        if !self.paths.contains_key(&path.0) {
            return Err(FabricError::UnknownPath(path));
        }
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
        let result = self.traced_probe(path);
        self.tracer.set_enabled(was);
        result
    }

    fn traced_probe(&mut self, path: PathId) -> Result<FlitTrace, FabricError> {
        let tag = self.issue_read(path)?;
        while let Some(done) = self.step()? {
            if done.iter().any(|c| c.tag == tag) {
                return self
                    .tracer
                    .traces()
                    .iter()
                    .rev()
                    .find(|t| t.trace.0 == tag)
                    .cloned()
                    .ok_or_else(|| {
                        FabricError::Protocol(
                            "probe completed without a finished trace".into(),
                        )
                    });
            }
        }
        Err(FabricError::Protocol(
            "fabric drained without completing the traced probe".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::fabric::builder::FabricBuilder;
    use crate::fabric::chaos::DETECTION_WINDOW;
    use crate::memmodel::Calibration;
    use netsim::switch::CircuitSwitch;
    use routing::topology::Line;

    /// The donor end of the 2-node line every test fabric is wired over.
    const DONOR: NodeId = NodeId(1);

    fn params() -> DatapathParams {
        DatapathParams::prototype()
    }

    /// An empty fabric over a 2-node line, compute on node 0, with an
    /// optional circuit switch.
    fn fabric(window: WindowSpec, switch: Option<CircuitSwitch>) -> Fabric {
        let mesh = Mesh::snapshot(&Line::new(2).unwrap());
        Fabric::assemble(params(), window, switch, Engine::Hybrid, mesh, NodeId(0)).unwrap()
    }

    /// The reference point-to-point fabric (a 2-node line) and its path.
    fn reference() -> (Fabric, PathId) {
        FabricBuilder::point_to_point(params(), 1, 256 << 20).unwrap()
    }

    /// A 2-node line behind a `ports`-port circuit switch, with one
    /// 256 MiB path on a circuit.
    fn switched(ports: u32) -> (Fabric, PathId) {
        let switch = CircuitSwitch::optical(ports);
        let mut f = fabric(WindowSpec::rack_default(), Some(switch));
        let spec = PathSpec::new(NetworkId(1), Pasid(1), 0x7000_0000_0000, 256 << 20);
        let p = f.attach_routed(&spec, DONOR).unwrap();
        (f, p)
    }

    #[test]
    fn attach_carves_disjoint_windows() {
        let mut f = fabric(WindowSpec::rack_default(), None);
        let a = PathSpec::new(NetworkId(1), Pasid(1), 0x7000_0000_0000, 512 << 20);
        let b = PathSpec::new(NetworkId(2), Pasid(2), 0x7100_0000_0000, 256 << 20);
        let a = f.attach_routed(&a, DONOR).unwrap();
        let b = f.attach_routed(&b, DONOR).unwrap();
        let wa = f.path_window(a).unwrap();
        let wb = f.path_window(b).unwrap();
        assert_eq!(wa.base, 0x1000_0000_0000);
        assert_eq!(wb.base, wa.base + wa.bytes, "windows must not alias");
    }

    #[test]
    fn detach_frees_the_window_for_reuse() {
        let mut f = fabric(WindowSpec::reference(512 << 20), None);
        let one = PathSpec::new(NetworkId(1), Pasid(1), 0x7000_0000_0000, 512 << 20);
        let two = PathSpec::new(NetworkId(2), Pasid(2), 0x7100_0000_0000, 256 << 20);
        let a = f.attach_routed(&one, DONOR).unwrap();
        assert!(matches!(
            f.attach_routed(&two, DONOR),
            Err(FabricError::WindowExhausted { sections: 1 })
        ));
        f.detach_path(a).unwrap();
        let b = f.attach_routed(&two, DONOR).unwrap();
        assert_eq!(f.path_window(b).unwrap().base, 0x1000_0000_0000);
        assert!(matches!(
            f.detach_path(a),
            Err(FabricError::UnknownPath(_))
        ));
    }

    #[test]
    fn duplicate_networks_and_bad_specs_are_refused() {
        let mut f = fabric(WindowSpec::rack_default(), None);
        let spec = |net, pasid, ea, bytes| PathSpec::new(NetworkId(net), Pasid(pasid), ea, bytes);
        f.attach_routed(&spec(1, 1, 0x7000_0000_0000, 256 << 20), DONOR)
            .unwrap();
        assert!(matches!(
            f.attach_routed(&spec(1, 2, 0x7200_0000_0000, 256 << 20), DONOR),
            Err(FabricError::Config(_))
        ));
        assert!(matches!(
            f.attach_routed(&spec(3, 3, 0x7300_0000_0000, 100), DONOR),
            Err(FabricError::Config(_))
        ));
    }

    #[test]
    fn reference_path_round_trip_matches_the_monolith_envelope() {
        let (mut f, p) = reference();
        let rtt = f.measure_load_latency(p).unwrap();
        assert!(
            (1000..=1200).contains(&rtt.as_ns()),
            "reference RTT {rtt} outside the paper envelope"
        );
    }

    #[test]
    fn busy_paths_refuse_detach_until_drained() {
        let (mut f, p) = reference();
        f.issue_read(p).unwrap();
        assert!(matches!(f.detach_path(p), Err(FabricError::PathBusy(_))));
        f.drain().unwrap();
        f.detach_path(p).unwrap();
        assert!(f.path_ids().is_empty());
        // Components are pruned back to the shared compute-side stages.
        assert_eq!(f.components().len(), 3);
    }

    #[test]
    fn closed_loop_refuses_an_overflowing_outstanding_count() {
        let (mut f, p) = reference();
        let us = SimTime::from_us(10);
        assert!(matches!(
            f.measure_stream_bandwidth(p, 65_536, 65_536, us),
            Err(FabricError::Config(_))
        ));
        // Refused before any stream issues, including valid ones ahead
        // of the overflowing one: nothing is left in flight.
        let loads = [
            StreamLoad {
                path: p,
                threads: 1,
                window: 1,
            },
            StreamLoad {
                path: p,
                threads: u32::MAX,
                window: 2,
            },
        ];
        assert!(matches!(
            f.run_closed_loop(&loads, us),
            Err(FabricError::Config(_))
        ));
        assert_eq!(f.events_processed(), 0);
        f.detach_path(p).unwrap();
    }

    #[test]
    fn bonded_attach_fills_one_link_slot_per_channel() {
        let mut f = fabric(WindowSpec::rack_default(), None);
        let spec = PathSpec::new(NetworkId(1), Pasid(1), 0x7000_0000_0000, 512 << 20);
        let p = f.attach_routed(&spec.bonded_channels(2), DONOR).unwrap();
        // 3 shared stages + 2 LLC pairs and 2 channels per link + 1 donor.
        let kinds: Vec<StageKind> = f.components().into_iter().map(|(_, k)| k).collect();
        assert_eq!(kinds.len(), 3 + 4 * 2 + 1);
        let count = |kind| kinds.iter().filter(|&&k| k == kind).count();
        assert_eq!(count(StageKind::LlcPair), 4);
        assert_eq!(count(StageKind::Channel), 4);
        assert_eq!(count(StageKind::C1MasterDram), 1);
        let links: Vec<usize> = f
            .path_link_stats(p)
            .unwrap()
            .iter()
            .map(|s| s.link)
            .collect();
        assert_eq!(links, vec![0, 1]);
    }

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
            !t.time_in(HopKind::SwitchTraversal(WireDir::Forward)).is_zero(),
            "switched path must show a forward switch-traversal span"
        );
        assert!(
            !t.time_in(HopKind::CircuitWait).is_zero(),
            "a freshly allocated circuit delays the first load"
        );
    }

    /// Issues `n` loads, runs the fabric dry, and returns the tags that
    /// completed. Every issued tag must resolve: completion or fault.
    fn run_exactly_once(f: &mut Fabric, path: PathId, n: usize) -> Vec<u64> {
        let issued: Vec<u64> = (0..n).map(|_| f.issue_read(path).unwrap()).collect();
        let mut completed = Vec::new();
        while let Some(done) = f.step().unwrap() {
            completed.extend(done.iter().map(|c| c.tag));
        }
        let faulted: Vec<u64> = f.faults().iter().map(|l| l.tag).collect();
        for &t in &issued {
            let c = completed.contains(&t);
            let l = faulted.contains(&t);
            assert!(
                c ^ l,
                "tag {t} must resolve exactly once (completed={c}, faulted={l})"
            );
        }
        assert_eq!(completed.len() + faulted.len(), issued.len());
        completed
    }

    #[test]
    fn flap_shorter_than_detection_window_completes_every_load() {
        let (mut f, p) = reference();
        // Dark for 10 µs, well inside the 25 µs detection window.
        f.schedule_chaos(&ChaosPlan::new().at(
            SimTime::from_ns(500),
            ChaosEvent::LinkFlap {
                link: LinkRef::Slot(0),
                down_for: SimTime::from_us(10),
            },
        ));
        let completed = run_exactly_once(&mut f, p, 16);
        assert_eq!(completed.len(), 16, "a survivable flap costs only latency");
        assert!(f.faults().is_empty());
        assert!(f.link_stats(0).is_some(), "a survived flap leaves the link live");
        assert!(f.congestion_report().links().iter().all(|l| !l.down), "and up");
        assert!(f.path_fault(p).unwrap().is_none());
        let replays = f.link_stats(0).unwrap();
        assert!(
            replays.up_replays + replays.down_replays > 0,
            "the outage must have been bridged by replay"
        );
    }

    #[test]
    fn hard_link_down_resolves_stranded_loads_to_typed_faults() {
        let (mut f, p) = reference();
        f.schedule_chaos(&ChaosPlan::new().at(
            SimTime::from_ns(300),
            ChaosEvent::LinkDown {
                link: LinkRef::Slot(0),
            },
        ));
        let completed = run_exactly_once(&mut f, p, 8);
        assert!(
            !f.faults().is_empty(),
            "a permanent cut must strand at least one load"
        );
        for fault in f.faults() {
            assert_eq!(fault.path, p);
            assert_eq!(fault.kind, FaultKind::LinkDead { link: 0 });
            assert!(
                fault.at >= DETECTION_WINDOW,
                "death cannot be declared before the detection window"
            );
        }
        assert_eq!(f.path_fault(p).unwrap(), Some(FaultKind::LinkDead { link: 0 }));
        assert!(matches!(
            f.issue_read(p),
            Err(FabricError::PathFaulted { .. })
        ));
        // The poisoned path detaches cleanly and frees its window.
        f.detach_path(p).unwrap();
        assert!(f.path_ids().is_empty());
        let _ = completed;
    }

    #[test]
    fn hard_cut_is_declared_dead_one_detection_window_after_it_lands() {
        // Cuts under load, after the loads drained and long after; the
        // load scheduled just behind each cut owes work on the dark wire.
        for cut_ns in [300, 2_000, 7_000, 50_000] {
            let (mut f, p) = reference();
            f.set_telemetry(true);
            let cut = SimTime::from_ns(cut_ns);
            f.schedule_chaos(&ChaosPlan::new().at(
                cut,
                ChaosEvent::LinkDown {
                    link: LinkRef::Slot(0),
                },
            ));
            for _ in 0..8 {
                f.issue_read(p).unwrap();
            }
            f.schedule_read(p, cut + SimTime::from_ns(1)).unwrap();
            f.drain().unwrap();
            let snap = f.telemetry_snapshot();
            let detect = snap.timer("fabric.recovery.detect_ns").unwrap();
            let window = DETECTION_WINDOW.as_ns();
            assert_eq!(detect.count(), 1, "cut at {cut}");
            assert_eq!(
                (detect.min(), detect.max()),
                (window, window),
                "cut at {cut}"
            );
            assert!(!f.faults().is_empty(), "cut at {cut}");
            for fault in f.faults() {
                assert_eq!(fault.at, cut + DETECTION_WINDOW, "cut at {cut}");
            }
        }
    }

    #[test]
    fn bonded_path_degrades_to_surviving_links() {
        let mut f = fabric(WindowSpec::rack_default(), None);
        let spec = PathSpec::new(NetworkId(1), Pasid(1), 0x7000_0000_0000, 512 << 20);
        let p = f.attach_routed(&spec.bonded_channels(2), DONOR).unwrap();
        f.schedule_chaos(&ChaosPlan::new().at(
            SimTime::from_ns(300),
            ChaosEvent::LinkDown {
                link: LinkRef::Slot(0),
            },
        ));
        run_exactly_once(&mut f, p, 8);
        // Link 0 died and is tombstoned; the path's one channel table
        // now lists link 1 alone, and link 1 carries on.
        let links: Vec<usize> = f.path_link_stats(p).unwrap().iter().map(|s| s.link).collect();
        assert_eq!(links, [1]);
        assert!(f.link_stats(0).is_none(), "dead links are tombstoned");
        assert!(f.path_fault(p).unwrap().is_none());
        let sent = f.link_stats(1).unwrap().fwd_frames;
        let tag = f.issue_read(p).unwrap();
        let mut late = Vec::new();
        while let Some(done) = f.step().unwrap() {
            late.extend(done.iter().map(|c| c.tag));
        }
        assert!(late.contains(&tag), "the degraded path must still serve loads");
        assert!(f.link_stats(1).unwrap().fwd_frames > sent, "the late load rode link 1");
    }

    #[test]
    fn lane_failure_degrades_bandwidth_without_faulting() {
        let (mut f, p) = reference();
        f.schedule_chaos(&ChaosPlan::new().at(
            SimTime::from_ns(100),
            ChaosEvent::LaneFail {
                link: LinkRef::Slot(0),
            },
        ));
        let completed = run_exactly_once(&mut f, p, 8);
        assert_eq!(completed.len(), 8, "a lane failure is graceful degradation");
        assert!(f.faults().is_empty());
        let healthy = Calibration::measure(params()).unwrap().remote_load_latency();
        let degraded = f.completions(p).unwrap().max();
        assert!(
            degraded > healthy.as_ns(),
            "N-1 lanes must serialize slower: {degraded} vs {healthy}"
        );
    }

    #[test]
    fn donor_crash_faults_every_inflight_load_and_poisons_the_path() {
        let (mut f, p) = reference();
        let donor = f.path_donor(p).unwrap();
        f.schedule_chaos(&ChaosPlan::new().donor_crash(SimTime::from_ns(400), donor));
        run_exactly_once(&mut f, p, 8);
        assert!(!f.faults().is_empty());
        for fault in f.faults() {
            assert_eq!(fault.kind, FaultKind::DonorCrash { donor });
            assert_eq!(
                fault.at,
                SimTime::from_ns(400),
                "a crash resolves its stranded loads at the instant it lands"
            );
        }
        assert_eq!(
            f.path_fault(p).unwrap(),
            Some(FaultKind::DonorCrash { donor })
        );
        f.detach_path(p).unwrap();
    }

    #[test]
    fn switch_port_failure_reroutes_around_the_port() {
        let (mut f, p) = switched(8);
        // Warm up so the circuit-wait is behind us, then fail one of
        // the two ports the path's circuit rides.
        f.measure_load_latency(p).unwrap();
        let port = PortId(0);
        f.schedule_chaos(&ChaosPlan::new().at(f.now(), ChaosEvent::SwitchPortFail { port }));
        let completed = run_exactly_once(&mut f, p, 8);
        assert_eq!(
            completed.len(),
            8,
            "with spare ports the switch re-programs around the failure"
        );
        assert!(f.faults().is_empty());
        assert!(f.path_fault(p).unwrap().is_none());
        let sw = f.switch().unwrap();
        assert!(sw.is_port_failed(port));
        assert!(sw.reconfigurations() >= 2, "tear-down plus re-program");
        // The link slot moved onto the new circuit: still one circuit,
        // one live link, one set of link components.
        assert_eq!(sw.circuit_count(), 1);
        assert_eq!(f.path_link_stats(p).unwrap().len(), 1);
        let llc_pairs = f
            .components()
            .iter()
            .filter(|(_, k)| *k == StageKind::LlcPair)
            .count();
        assert_eq!(llc_pairs, 2);
    }

    #[test]
    fn switch_port_failure_without_spares_kills_the_link() {
        // A 2-port switch: the path's circuit uses both, no spares.
        let (mut f, p) = switched(2);
        f.measure_load_latency(p).unwrap();
        f.schedule_chaos(
            &ChaosPlan::new().at(f.now(), ChaosEvent::SwitchPortFail { port: PortId(0) }),
        );
        run_exactly_once(&mut f, p, 4);
        assert_eq!(
            f.path_fault(p).unwrap(),
            Some(FaultKind::SwitchPortFail { port: PortId(0) })
        );
        for fault in f.faults() {
            assert_eq!(fault.kind, FaultKind::SwitchPortFail { port: PortId(0) });
        }
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
        assert_eq!(
            snap.counter("fabric.link0.up.replays"),
            Some(s.up_replays)
        );
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
