//! The composable flit-level fabric.
//!
//! The paper's Fig. 2 pipeline decomposed into its stages ([`stage`]),
//! an engine that runs them over one shared `simkit` event queue
//! ([`engine`]), and a builder that wires them over a declared topology
//! ([`builder`]): point-to-point (the reference shape, event-for-event
//! equivalent to the pre-fabric monolithic datapath), one compute × N
//! donors with per-network-id fan-out, a circuit-switched rack, and any
//! routed mesh. As in the hardware, wiring is configuration:
//! section-table entries, router routes and the engine's link-slot and
//! donor tables say where each event goes.
//!
//! Paths are dynamic and the topology's route is their only wiring:
//! [`Fabric::attach_routed`] computes the route to the donor's node and
//! instantiates the flit-level plumbing for one lease along it
//! (section-table entries, router route, LLC pairs, channels, switch
//! circuits on a switched fabric), and [`Fabric::detach_path`] tears it
//! down without perturbing surviving paths — this is what
//! `Rack::attach` leases are wired through.

pub mod builder;
pub mod chaos;
pub mod engine;
pub mod obs;
pub mod partition;
pub mod stage;
mod tags;
pub mod trace;

pub use builder::FabricBuilder;
pub use partition::{FabricShard, PartitionedFabric, ShardDigest, ShardMsg, WorkloadSpec};
pub use chaos::{ChaosEvent, ChaosPlan, FaultKind, LinkRef, LoadFault, DETECTION_WINDOW};
pub use engine::{Completion, Fabric, FabricError, LinkStats, PathId, PathSpec, StreamLoad};
pub use obs::{
    CongestionReport, Journal, JournalKind, JournalRecord, LinkCongestion, SloBreach,
    SloBreachKind, SloSpec,
};
pub use trace::{
    chrome_trace_json, BreakdownRow, ComponentId, FlitTrace, HopKind,
    LatencyBreakdown, SerdesSite, Span, StackSite, TraceId, WireDir,
};
pub use stage::{C1MasterDram, LlcPair, StageKind, WindowSpec};
