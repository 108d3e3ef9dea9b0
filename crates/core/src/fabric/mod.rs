//! The composable flit-level fabric.
//!
//! The paper's Fig. 2 pipeline decomposed into typed components with
//! explicit ports ([`stage`], [`port`]), an engine that executes wired
//! components over one shared `simkit` event queue ([`engine`]), and a
//! builder that assembles arbitrary topologies ([`builder`]):
//! point-to-point (the reference shape, event-for-event equivalent to
//! the pre-fabric monolithic datapath), one compute × N donors with
//! per-network-id fan-out, and a circuit-switched rack.
//!
//! Paths are dynamic: [`Fabric::attach_path`] instantiates the
//! flit-level plumbing for one lease (section-table entries, router
//! route, LLC pairs, channels, switch circuits) and
//! [`Fabric::detach_path`] tears it down without perturbing surviving
//! paths — this is what `Rack::attach` leases are wired through.

pub mod builder;
pub mod chaos;
pub mod engine;
pub mod obs;
pub mod partition;
pub mod port;
pub mod stage;
mod tags;
pub mod trace;

pub use builder::FabricBuilder;
pub use partition::{FabricShard, PartitionedFabric, ShardDigest, ShardMsg, WorkloadSpec};
pub use chaos::{ChaosEvent, ChaosPlan, FaultKind, LinkRef, LoadFault, RecoveryConfig};
pub use engine::{Completion, Fabric, FabricError, LinkStats, PathId, PathSpec, StreamLoad};
pub use obs::{
    CongestionReport, Journal, JournalKind, JournalRecord, LinkCongestion, SloBreach,
    SloBreachKind, SloSpec,
};
pub use trace::{
    chrome_trace, chrome_trace_json, BreakdownRow, FlitTrace, HopKind, LatencyBreakdown,
    SerdesSite, Span, StackSite, TraceId, WireDir,
};
pub use port::{
    ComponentId, Connection, PortDir, PortRef, PortSpec, PortUnit, WiringError,
};
pub use stage::{
    C1MasterDram, FabricComponent, LlcPair, M1Capture, RmmuTranslate, RouterStage, StageKind,
    SwitchStage, WindowSpec, WireChannel,
};
