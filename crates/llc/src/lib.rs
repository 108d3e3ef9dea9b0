//! ThymesisFlow Link-Layer Control (LLC) protocol.
//!
//! The paper's network-facing stack provides a **reliable channel** on top
//! of raw bonded transceivers by introducing an LLC with two features
//! (§IV-A.4):
//!
//! 1. **Backpressure** — a credit-based mechanism protects the Rx ingress
//!    queue from overflow. Credits are exchanged by piggy-backing them on
//!    the transaction headers of requests and responses; each credit
//!    represents an empty slot at the Rx ingress queue.
//! 2. **Frame replay** — transactions are grouped into frames of a
//!    pre-defined number of flits (padded with single-flit `nop` headers
//!    for immediate transmission). Frames carry sequential identifiers;
//!    a missing or corrupted frame triggers an in-order replay from the
//!    requested identifier, negotiated through in-band messages.
//!
//! The datapath is 32 B wide; the LLC is MAC-agnostic (the prototype uses
//! Xilinx Aurora, but "both a packet network or circuit-based bit-for-bit
//! network MAC can be used") — here it runs over [`netsim`] channels.
//!
//! Module map: [`flit`] (flit sizing), [`frame`] (framing + CRC32),
//! [`credit`] (flow control), [`replay`] (retransmission buffer),
//! [`endpoint`] (Tx/Rx state machines), [`link`] (a full-duplex link
//! harness coupling the state machines over lossy channels).
//!
//! # Example
//!
//! ```
//! use llc::link::LlcLink;
//! use llc::LlcConfig;
//! use netsim::fault::FaultSpec;
//!
//! // A lossy link still delivers every message exactly once, in order.
//! let mut link = LlcLink::new(LlcConfig::default(), FaultSpec::new(0.05, 0.05), 42);
//! let msgs: Vec<(u32, usize)> = (0..100).map(|i| (i, 1)).collect();
//! let delivered = link.run_to_completion(msgs.clone()).unwrap();
//! assert_eq!(delivered, msgs);
//! ```

pub mod credit;
pub mod endpoint;
pub mod error;
pub mod flit;
pub mod frame;
pub mod link;
pub mod replay;
pub mod wire;

pub use credit::CreditCounter;
pub use endpoint::{LlcRx, LlcTx, RxAction};
pub use error::LlcError;
pub use frame::{Frame, FrameId};

use serde::{Deserialize, Serialize};

/// Static configuration of an LLC link direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlcConfig {
    /// Flits per frame; incomplete frames are nop-padded.
    pub frame_flits: usize,
    /// Rx ingress queue depth in frames (= initial credit pool).
    ///
    /// "The depth of the Rx ingress queues has been carefully calculated
    /// to avoid credit starvation at the Tx side."
    pub rx_queue_frames: usize,
    /// Replay buffer depth in frames (unacknowledged window).
    pub replay_window: usize,
    /// Initial frame identifier agreed at link bring-up.
    pub initial_frame_id: u64,
    /// Acknowledge every Nth delivered frame (cumulative acks make
    /// coalescing safe; duplicates are always re-acked immediately).
    pub ack_every: u64,
}

impl Default for LlcConfig {
    fn default() -> Self {
        LlcConfig {
            frame_flits: 8,
            rx_queue_frames: 32,
            replay_window: 64,
            initial_frame_id: 0,
            ack_every: 1,
        }
    }
}

impl LlcConfig {
    /// The calibration the flit-level datapath instantiates per link
    /// direction: 9-flit frames (8 payload = two cacheline responses,
    /// ~89% wire efficiency), deep Rx/replay queues sized for a
    /// bandwidth-delay product of ~950 ns at 100 Gbit/s, and cumulative
    /// acks every 8th frame so the credit pool stays fed without burning
    /// reverse-channel bandwidth.
    pub fn datapath_default() -> Self {
        LlcConfig {
            frame_flits: 9,
            rx_queue_frames: 128,
            replay_window: 256,
            initial_frame_id: 0,
            ack_every: 8,
        }
    }

    /// The initial credit pool: one credit per Rx ingress slot, clamped
    /// to the `u32` credit space the wire format carries.
    pub(crate) fn rx_queue_credits(&self) -> u32 {
        u32::try_from(self.rx_queue_frames).unwrap_or(u32::MAX)
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the replay window is smaller
    /// than the credit pool (which could deadlock recovery).
    pub fn validate(&self) {
        assert!(self.frame_flits > 0, "frames need at least one flit");
        assert!(
            self.frame_flits <= 256,
            "frame entry count must fit the wire header's u8"
        );
        assert!(self.rx_queue_frames > 0, "rx queue cannot be empty");
        assert!(
            self.replay_window >= self.rx_queue_frames,
            "replay window must cover in-flight frames"
        );
        assert!(self.ack_every > 0, "ack_every cannot be zero");
        assert!(
            self.ack_every < self.rx_queue_frames as u64,
            "ack coalescing must not starve the credit pool"
        );
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;

    #[test]
    fn datapath_default_is_valid_and_frame_shaped() {
        let c = LlcConfig::datapath_default();
        c.validate();
        assert_eq!(c.frame_flits, 9);
        assert!(c.replay_window >= c.rx_queue_frames);
        assert!(c.ack_every < c.rx_queue_frames as u64);
    }
}
