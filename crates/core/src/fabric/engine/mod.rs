//! The fabric engine: executes wired stages over one shared event queue.
//!
//! [`Fabric`] owns the component instances — the compute side's
//! [`M1Endpoint`], [`SectionTable`] and [`Router`], per-link
//! [`LlcPair`](crate::fabric::LlcPair)s and wire channels, per-donor [`C1MasterDram`]s and an
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
//! Each datapath layer keeps its handlers and its state in one
//! submodule (`endpoint`, `link`, `hop`, `recovery`, `attach`,
//! `observe`), and [`Fabric::step`] hands each event to the layer that
//! owns it.
//!
//! The point-to-point topology built by
//! [`crate::fabric::FabricBuilder::point_to_point`] reproduces the
//! pre-fabric monolithic datapath event-for-event: same channel seeds,
//! same LLC calibration, same adaptive-batching flush policy, same
//! event ordering under the queue's FIFO tie-break.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use llc::error::LlcError;
use llc::frame::Frame;
use llc::RxAction;
use netsim::fault::FaultSpec;
use netsim::switch::{CircuitSwitch, SwitchError};
use opencapi::c1::C1Error;
use opencapi::m1::{M1Endpoint, M1Error};
use opencapi::pasid::Pasid;
use rmmu::flow::NetworkId;
use rmmu::section::{RmmuError, SectionTable};
use routing::plan::FlowPlan;
use routing::topology::{Mesh, NodeId, Route as TopoRoute, TopologyError};
use routing::{RouteError, Router};
use simkit::bandwidth::Rate;
use simkit::event::EventQueue;
use simkit::stats::Histogram;
use simkit::telemetry::{Registry, TelemetryError};
use simkit::time::SimTime;

use crate::fabric::chaos::{ChaosEvent, FaultKind, LoadFault};
use crate::fabric::obs::Journal;
use crate::fabric::stage::{C1MasterDram, FabricMsg, WindowSpec};
use crate::fabric::tags::TagWindow;
use crate::fabric::trace::FlitTracer;
use crate::params::DatapathParams;

mod attach;
mod endpoint;
mod hop;
mod link;
mod observe;
mod recovery;

use hop::SegRef;
use link::LinkSlot;
pub use observe::LinkStats;
use observe::{FabricTele, TeleViews};

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

/// `From` conversions wrapping each layer's error in its variant.
macro_rules! wrap_errors {
    ($($source:ty => $variant:ident),* $(,)?) => {
        $(impl From<$source> for FabricError {
            fn from(e: $source) -> Self {
                FabricError::$variant(e)
            }
        })*
    };
}

wrap_errors! {
    LlcError => Llc,
    SwitchError => Switch,
    RmmuError => Rmmu,
    RouteError => Route,
    TelemetryError => Telemetry,
    M1Error => M1,
    C1Error => C1,
    TopologyError => Topology,
}

/// LLC direction along a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    ToMemory,
    ToCompute,
}

#[derive(Debug)]
enum Ev {
    /// A message enters a link's LLC Tx: a request once it crossed the
    /// compute edge (serDES + stack), or a response once the donor
    /// served it.
    Offer {
        link: usize,
        dir: Dir,
        msg: FabricMsg,
    },
    /// A frame lands at the far end of a link's channel.
    Arrive {
        link: usize,
        dir: Dir,
        frame: Frame<FabricMsg>,
        intact: bool,
    },
    /// A response exits the compute FPGA back into the core.
    Complete { tag: u64 },
    /// Seal whatever is staged on a direction (adaptive batching).
    Flush { link: usize, dir: Dir },
    /// A deferred load issue lands (cross-partition injection, see
    /// [`Fabric::schedule_read`]).
    Inject { path: u32 },
    /// A scripted failure lands (see [`crate::fabric::ChaosPlan`]).
    Chaos(ChaosEvent),
    /// The link watchdog samples a link under watch.
    Watchdog { link: usize },
    /// A frame reaches one segment of a multi-hop forwarding chain
    /// (store-and-forward at an interior topology node). Only exists on
    /// multi-hop paths — single-hop fabrics never schedule it, keeping
    /// their trajectories bit-identical to the pre-topology engine.
    HopArrive {
        at: SegRef,
        dir: Dir,
        frame: Frame<FabricMsg>,
        intact: bool,
    },
    /// A chain segment finished forwarding a frame and returns its
    /// credit (per-link backpressure on interior hops).
    HopCredit(SegRef),
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
            .field("links", &self.slots().count())
            .field("inflight", &self.inflight.len())
            .finish()
    }
}

impl Fabric {
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
    /// Returns `false` once the queue is empty. Each event goes to the
    /// layer that owns it.
    pub(crate) fn step_into(&mut self, done: &mut Vec<Completion>) -> Result<bool, FabricError> {
        let Some((_, ev)) = self.queue.pop() else {
            return Ok(false);
        };
        match ev {
            Ev::Offer { link, dir, msg } => self.offer_burst(link, dir, msg)?,
            Ev::Arrive {
                link,
                dir,
                frame,
                intact,
            } => self.arrive(link, dir, frame, intact)?,
            Ev::Flush { link, dir } => self.flush(link, dir)?,
            Ev::Complete { tag } => self.complete(tag, done)?,
            Ev::Inject { path } => self.inject(path)?,
            Ev::Chaos(ev) => self.apply_chaos(ev)?,
            Ev::Watchdog { link } => self.watchdog_fire(link)?,
            Ev::HopArrive {
                at,
                dir,
                frame,
                intact,
            } => self.hop_arrive(at, dir, frame, intact),
            Ev::HopCredit(at) => self.hop_credit(at),
        }
        Ok(true)
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

    /// Issues one load on `path` and steps until it retires.
    fn probe(&mut self, path: PathId) -> Result<Completion, FabricError> {
        let tag = self.issue_read(path)?;
        let mut done = Vec::new();
        while self.step_into(&mut done)? {
            if let Some(c) = done.iter().find(|c| c.tag == tag) {
                return Ok(*c);
            }
            done.clear();
        }
        Err(FabricError::Protocol(
            "fabric drained without completing the probe load".into(),
        ))
    }

    /// Measures the round trip of one uncontended cacheline load on
    /// `path` (load-to-use: flit RTT plus donor DRAM).
    ///
    /// # Errors
    ///
    /// Fails on unknown paths or if the fabric drains without the load
    /// completing (a simulator bug on a lossless path).
    pub fn measure_load_latency(&mut self, path: PathId) -> Result<SimTime, FabricError> {
        Ok(self.probe(path)?.latency)
    }

    /// Runs concurrent closed-loop read streams (`threads × window`
    /// outstanding cachelines per path) for `duration`, returning each
    /// path's sustained rate in the order given.
    ///
    /// # Errors
    ///
    /// Fails on unknown paths or fabric protocol violations, on a zero
    /// `duration`, one that ends past [`SimTime::MAX`] or a
    /// `threads × window` that overflows `u32` ([`FabricError::Config`],
    /// before any load is issued), and when a stream retires no load
    /// within the window: [`FabricError::PathFaulted`] if a failure
    /// poisoned its path, [`FabricError::NoCompletions`] otherwise.
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
        let deadline = start_now.checked_add(duration).ok_or_else(|| {
            FabricError::Config(format!(
                "a {duration} closed-loop window from {start_now} ends past the end of simulated time"
            ))
        })?;
        let mut start_bytes = Vec::with_capacity(loads.len());
        let mut outstanding = Vec::with_capacity(loads.len());
        for l in loads {
            let state = self.path_state(l.path)?;
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
            let state = self.path_state(l.path)?;
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
        rates.first().copied().ok_or(FabricError::UnknownPath(path))
    }

    /// The state of an attached path.
    fn path_state(&self, path: PathId) -> Result<&PathState, FabricError> {
        self.paths
            .get(&path.0)
            .ok_or(FabricError::UnknownPath(path))
    }

    /// Link slot `link`, unless it was never attached or is tombstoned.
    fn slot(&self, link: usize) -> Option<&LinkSlot> {
        self.links.get(link)?.as_deref()
    }

    /// The live link slots and their indices, ascending.
    fn slots(&self) -> impl Iterator<Item = (usize, &LinkSlot)> + '_ {
        let links = self.links.iter().enumerate();
        links.filter_map(|(i, s)| Some((i, s.as_deref()?)))
    }

    /// The link slots serving `network`, in channel order: the router's
    /// route is a path's only channel list, empty once a poisoned path
    /// has lost its route.
    fn path_links(&self, network: NetworkId) -> impl Iterator<Item = usize> + '_ {
        let channels = self.router.channels_of(network).unwrap_or_default();
        channels.iter().map(|c| c.0 as usize)
    }

    /// Why `path` can no longer issue loads, or `None` while healthy.
    ///
    /// # Errors
    ///
    /// Fails on unknown paths.
    pub fn path_fault(&self, path: PathId) -> Result<Option<FaultKind>, FabricError> {
        Ok(self.path_state(path)?.poisoned)
    }

    /// The donor index serving `path` (the target for
    /// [`ChaosEvent::DonorCrash`]).
    ///
    /// # Errors
    ///
    /// Fails on unknown paths.
    pub fn path_donor(&self, path: PathId) -> Result<usize, FabricError> {
        Ok(self.path_state(path)?.donor)
    }

    /// Latency distribution of the path's completed loads (ns).
    ///
    /// # Errors
    ///
    /// Fails on unknown paths.
    pub fn completions(&self, path: PathId) -> Result<&Histogram, FabricError> {
        Ok(&self.path_state(path)?.completions)
    }

    /// The device-window slice carved for `path`.
    ///
    /// # Errors
    ///
    /// Fails on unknown paths.
    pub(crate) fn path_window(&self, path: PathId) -> Result<WindowSpec, FabricError> {
        let s = self.path_state(path)?;
        Ok(WindowSpec {
            base: s.window_base,
            bytes: s.window_bytes,
        })
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

    /// The circuit switch, when the topology has one.
    pub fn switch(&self) -> Option<&CircuitSwitch> {
        self.switch.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The event calendar keeps each pending event in a slab node, so a
    /// wider `Ev` costs memory and copies for every event in flight.
    #[test]
    fn events_stay_48_bytes() {
        assert!(std::mem::size_of::<Ev>() <= 48);
    }

    use crate::fabric::builder::FabricBuilder;
    use routing::topology::Line;
    use simkit::event::Engine;

    /// The donor end of the 2-node line every test fabric is wired over.
    pub(super) const DONOR: NodeId = NodeId(1);

    pub(super) fn params() -> DatapathParams {
        DatapathParams::prototype()
    }

    /// An empty fabric over a 2-node line, compute on node 0, with an
    /// optional circuit switch.
    pub(super) fn fabric(window: WindowSpec, switch: Option<CircuitSwitch>) -> Fabric {
        let mesh = Mesh::snapshot(&Line::new(2).unwrap());
        Fabric::assemble(params(), window, switch, Engine::Hybrid, mesh, NodeId(0)).unwrap()
    }

    /// The reference point-to-point fabric (a 2-node line) and its path.
    pub(super) fn reference() -> (Fabric, PathId) {
        FabricBuilder::point_to_point(params(), 1, 256 << 20).unwrap()
    }

    /// A 2-node line behind a `ports`-port circuit switch, with one
    /// 256 MiB path on a circuit.
    pub(super) fn switched(ports: u32) -> (Fabric, PathId) {
        let switch = CircuitSwitch::optical(ports);
        let mut f = fabric(WindowSpec::rack_default(), Some(switch));
        let spec = PathSpec::new(NetworkId(1), Pasid(1), 0x7000_0000_0000, 256 << 20);
        let p = f.attach_routed(&spec, DONOR).unwrap();
        (f, p)
    }

    /// Issues `n` loads, runs the fabric dry, and returns the tags that
    /// completed. Every issued tag must resolve: completion or fault.
    pub(super) fn run_exactly_once(f: &mut Fabric, path: PathId, n: usize) -> Vec<u64> {
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
    fn reference_path_round_trip_matches_the_monolith_envelope() {
        let (mut f, p) = reference();
        let rtt = f.measure_load_latency(p).unwrap();
        assert!(
            (1000..=1200).contains(&rtt.as_ns()),
            "reference RTT {rtt} outside the paper envelope"
        );
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
}
