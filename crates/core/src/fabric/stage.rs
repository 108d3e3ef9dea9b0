//! The Fig. 2 pipeline stages as individually instantiable components.
//!
//! Each hardware block of the paper's datapath — M1 capture, RMMU
//! translate, router, LLC Tx/Rx pair, wire channel, circuit switch,
//! C1 master + donor DRAM — is one stage type here, identified in the
//! inventory by its [`StageKind`]. The [`crate::fabric::Fabric`] engine
//! owns the instances in its link-slot and donor tables and moves
//! messages between them over the shared `simkit` event queue; the
//! section table and router routes decide which instances a load
//! crosses, which is what lets the same blocks serve point-to-point,
//! one-compute-to-N-donors, or a switching layer.

use llc::endpoint::{LlcRx, LlcTx};
use llc::flit::FlitSized;
use llc::LlcConfig;
use netsim::channel::Channel;
use netsim::switch::CircuitSwitch;
use opencapi::c1::{C1Error, C1Port};
use opencapi::m1::{DeviceAddress, M1Endpoint, M1Error};
use opencapi::pasid::{Pasid, Region};
use opencapi::transaction::{MemRequest, MemResponse};
use rmmu::flow::NetworkId;
use rmmu::section::{RmmuError, SectionEntry, SectionTable, Translated};
use rmmu::RoutedRequest;
use routing::{ChannelId, RouteError, Router};
use simkit::time::SimTime;

/// What kind of pipeline stage a component models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// OpenCAPI M1 window capture.
    M1Capture,
    /// RMMU section-table translation.
    RmmuTranslate,
    /// Per-network-id routing with channel bonding.
    Router,
    /// One direction's LLC Tx/Rx state-machine pair.
    LlcPair,
    /// A physical wire channel.
    Channel,
    /// The optional circuit-switching layer.
    CircuitSwitch,
    /// C1 master + donor DRAM.
    C1MasterDram,
}

/// The device-window placement of a compute endpoint: where the
/// firmware maps the M1 window and how many bytes of device address
/// space it spans (whole 256 MiB sections).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window base real address.
    pub base: u64,
    /// Window capacity in bytes.
    pub bytes: u64,
}

impl WindowSpec {
    /// The reference placement the pre-fabric `Datapath` hardwired:
    /// base `0x1000_0000_0000`, sized exactly to one attachment.
    pub fn reference(bytes: u64) -> Self {
        WindowSpec {
            base: 0x1000_0000_0000,
            bytes,
        }
    }

    /// The rack placement: the same base with 1 TiB of device address
    /// space for leases to carve non-aliasing windows out of.
    pub fn rack_default() -> Self {
        WindowSpec {
            base: 0x1000_0000_0000,
            bytes: 1 << 40,
        }
    }
}

/// Messages crossing an LLC pair: requests toward the donor, responses
/// back toward the compute node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FabricMsg {
    Req(RoutedRequest),
    Resp(MemResponse),
}

impl FlitSized for FabricMsg {
    fn flits(&self) -> usize {
        match self {
            FabricMsg::Req(r) => r.flits(),
            FabricMsg::Resp(r) => r.flits(),
        }
    }
}

/// M1 capture: the host-facing window attachment.
#[derive(Debug)]
pub struct M1Capture {
    m1: M1Endpoint,
}

impl M1Capture {
    /// A capture stage over the given device window.
    pub fn new(window: WindowSpec) -> Self {
        M1Capture {
            m1: M1Endpoint::new(window.base, window.bytes),
        }
    }

    /// Captures one host transaction into the device address space.
    ///
    /// # Errors
    ///
    /// Rejects transactions outside or misaligned within the window.
    pub fn accept(&mut self, req: &MemRequest) -> Result<DeviceAddress, M1Error> {
        self.m1.accept(req)
    }

    /// The window base real address.
    pub fn window_base(&self) -> u64 {
        self.m1.window_base()
    }
}

/// RMMU translate: the section table.
#[derive(Debug)]
pub struct RmmuTranslate {
    table: SectionTable,
}

impl RmmuTranslate {
    /// A translate stage whose table covers the given window with
    /// default 256 MiB sections.
    pub fn new(window: WindowSpec) -> Self {
        RmmuTranslate {
            table: SectionTable::with_default_sections(window.bytes),
        }
    }

    /// Translates one captured address.
    ///
    /// # Errors
    ///
    /// Faults on unprogrammed sections.
    pub fn translate(&mut self, addr: DeviceAddress) -> Result<Translated, RmmuError> {
        self.table.translate(addr)
    }

    /// Programs one section.
    ///
    /// # Errors
    ///
    /// Propagates section-table failures (occupied, aliasing…).
    pub fn program(&mut self, index: u64, entry: SectionEntry) -> Result<(), RmmuError> {
        self.table.program(index, entry)
    }

    /// Clears one section.
    ///
    /// # Errors
    ///
    /// Fails on unmapped indices.
    pub fn unprogram(&mut self, index: u64) -> Result<SectionEntry, RmmuError> {
        self.table.unprogram(index)
    }

    /// The underlying section table (inspection).
    pub fn table(&self) -> &SectionTable {
        &self.table
    }
}

/// The routing stage: each network id's channel set, round-robin when
/// bonded.
#[derive(Debug, Default)]
pub struct RouterStage {
    router: Router,
}

impl RouterStage {
    /// An empty routing stage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a flow's route.
    ///
    /// # Errors
    ///
    /// Propagates routing-table failures.
    pub fn add_route(
        &mut self,
        network: NetworkId,
        channels: Vec<ChannelId>,
    ) -> Result<(), RouteError> {
        self.router.add_route(network, channels)
    }

    /// Removes a flow's route.
    ///
    /// # Errors
    ///
    /// Fails if no route exists.
    pub fn remove_route(&mut self, network: NetworkId) -> Result<(), RouteError> {
        self.router.remove_route(network)
    }

    /// Picks the channel for the next transaction of a flow.
    ///
    /// # Errors
    ///
    /// Fails on unrouted networks.
    pub fn forward(&mut self, network: NetworkId, bonded: bool) -> Result<ChannelId, RouteError> {
        self.router.forward(network, bonded)
    }

    /// The underlying router (inspection).
    pub fn router(&self) -> &Router {
        &self.router
    }
}

/// One direction's LLC Tx/Rx pair: the Tx lives at the sending endpoint,
/// the Rx at the receiving one, and a [`WireChannel`] carries the frames
/// in between.
#[derive(Debug)]
pub struct LlcPair {
    pub(crate) tx: LlcTx<FabricMsg>,
    pub(crate) rx: LlcRx<FabricMsg>,
}

impl LlcPair {
    pub(crate) fn new(config: LlcConfig) -> Self {
        LlcPair {
            tx: LlcTx::new(config),
            rx: LlcRx::new(config),
        }
    }
}

/// A physical wire channel (bonded serDES lanes + cable).
#[derive(Debug)]
pub struct WireChannel {
    pub(crate) chan: Channel,
}

impl WireChannel {
    pub(crate) fn new(chan: Channel) -> Self {
        WireChannel { chan }
    }

    /// The underlying channel (stats).
    pub fn channel(&self) -> &Channel {
        &self.chan
    }
}

/// The circuit-switching layer as a stage: the circuits that carry
/// switched channels.
#[derive(Debug)]
pub struct SwitchStage {
    pub(crate) switch: CircuitSwitch,
}

impl SwitchStage {
    /// Wraps a circuit switch.
    pub fn new(switch: CircuitSwitch) -> Self {
        SwitchStage { switch }
    }

    /// The underlying switch (stats, circuit inspection).
    pub fn switch(&self) -> &CircuitSwitch {
        &self.switch
    }
}

/// C1 master + donor DRAM: the memory-stealing endpoint of one donor.
///
/// It is passive: "it does not modify the transactions, and does not
/// need to receive any network information"; the C1 port masters each
/// arriving request into the registered region under the donor's
/// PASID, DRAM answers, and the response takes the channel the request
/// arrived on.
#[derive(Debug)]
pub struct C1MasterDram {
    c1: C1Port,
    dram_latency: SimTime,
    pasid: Pasid,
}

impl C1MasterDram {
    /// A donor stage serving under `pasid` with the given DRAM latency.
    pub fn new(dram_latency: SimTime, pasid: Pasid) -> Self {
        C1MasterDram {
            c1: C1Port::new(),
            dram_latency,
            pasid,
        }
    }

    /// Registers the stolen region.
    ///
    /// # Errors
    ///
    /// Refuses a region the PASID table cannot take, as
    /// [`C1Error::Unauthorized`] at the region base.
    pub fn register(&mut self, region: Region) -> Result<(), C1Error> {
        self.c1
            .register(self.pasid, region)
            .map_err(|_| C1Error::Unauthorized {
                addr: region.ea_base,
            })
    }

    /// Serves one arriving transaction: C1 masters it into the pinned
    /// region and DRAM answers. Returns the completion instant.
    ///
    /// # Errors
    ///
    /// Rejects transactions outside the registered region.
    pub fn serve(&mut self, now: SimTime, routed: &RoutedRequest) -> Result<SimTime, C1Error> {
        Ok(self.c1.master(now, &routed.req, self.pasid)? + self.dram_latency)
    }

    /// The C1 port (mastered and faulted counts).
    pub fn c1(&self) -> &C1Port {
        &self.c1
    }
}
