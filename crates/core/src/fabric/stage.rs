//! The Fig. 2 pipeline stages the fabric composes.
//!
//! Each hardware block of the paper's datapath — M1 capture, RMMU
//! translate, router, LLC Tx/Rx pair, wire channel, circuit switch,
//! C1 master + donor DRAM — is identified in the inventory by its
//! [`StageKind`]. Most blocks are the model crates' own types, which the
//! [`crate::fabric::Fabric`] engine holds directly: `opencapi`'s
//! `M1Endpoint`, `rmmu`'s `SectionTable`, `routing`'s `Router`,
//! `netsim`'s `Channel` and `CircuitSwitch`. This module adds the two
//! the fabric builds itself: the [`LlcPair`] and the donor's
//! [`C1MasterDram`], which adds the DRAM latency and the PASID to a C1
//! port. The engine moves messages between the blocks over the shared
//! `simkit` event queue; the section table and router routes decide
//! which blocks a load crosses, which is what lets the same blocks serve
//! point-to-point, one-compute-to-N-donors, or a switching layer.

use llc::endpoint::{LlcRx, LlcTx};
use llc::flit::FlitSized;
use llc::{LlcConfig, LlcError};
use opencapi::c1::{C1Error, C1Port};
use opencapi::pasid::{Pasid, Region};
use opencapi::transaction::MemResponse;
use rmmu::RoutedRequest;
use simkit::time::SimTime;

use crate::fabric::FabricError;

/// What kind of pipeline stage a component models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// OpenCAPI M1 window capture.
    M1,
    /// RMMU section-table translation.
    Rmmu,
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

/// One direction's LLC Tx/Rx pair: the Tx lives at the sending endpoint,
/// the Rx at the receiving one, and a wire [`netsim::channel::Channel`]
/// carries the frames in between.
#[derive(Debug)]
pub struct LlcPair {
    pub(crate) tx: LlcTx<FabricMsg>,
    pub(crate) rx: LlcRx<FabricMsg>,
}

impl LlcPair {
    /// A pair on the calibration `config`; one the LLC refuses is a
    /// [`FabricError::Config`].
    pub(crate) fn new(config: LlcConfig) -> Result<Self, FabricError> {
        let refused = |e: LlcError| FabricError::Config(format!("llc {config:?}: {e}"));
        Ok(LlcPair {
            tx: LlcTx::new(config).map_err(refused)?,
            rx: LlcRx::new(config).map_err(refused)?,
        })
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
