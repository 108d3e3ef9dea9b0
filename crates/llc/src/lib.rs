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
//! [`endpoint`] (Tx/Rx state machines), [`wire`] (the byte encoding).
//! The event timing that couples the state machines over lossy channels
//! lives in the `core` crate's fabric, the one driver of every link.
//!
//! In debug builds the state machines check their own invariants after
//! every state change: flit conservation in the Tx (every offered
//! transaction is staged, framed, retained or acknowledged) and credit
//! conservation in every pool. Release builds compile the checks out.
//!
//! # Example
//!
//! ```
//! use llc::{LlcConfig, LlcRx, LlcTx, RxAction};
//!
//! // One link direction: frames leave the Tx, queue in the Rx ingress
//! // (one credit per slot) and deliver in order.
//! let config = LlcConfig::default();
//! let mut tx = LlcTx::new(config);
//! let mut rx = LlcRx::new(config);
//! let msgs: Vec<(u32, usize)> = (0..20).map(|i| (i, 4)).collect();
//! for &m in &msgs {
//!     tx.offer(m);
//! }
//! tx.seal();
//! let mut arrivals = Vec::new();
//! while let Some(frame) = tx.next_transmittable().unwrap() {
//!     arrivals.push((frame, true)); // (frame, CRC intact)
//! }
//! rx.enqueue_arrivals(&mut arrivals).unwrap();
//! let mut action = RxAction::default();
//! rx.drain_ingress(&mut action).unwrap();
//! assert_eq!(action.delivered, msgs);
//! // Acks coalesce: the 8th of the 10 frames carries the cumulative
//! // ack, which retires 8 frames and returns their 8 credits.
//! for reply in action.replies {
//!     tx.on_control(reply).unwrap();
//! }
//! assert_eq!(tx.credits().available(), tx.credits().max() - 2);
//! ```

pub mod credit;
pub mod endpoint;
pub mod error;
pub mod flit;
pub mod frame;
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
    /// The calibration the flit-level datapath instantiates per link
    /// direction: 9-flit frames (8 payload = two cacheline responses,
    /// ~89% wire efficiency), deep Rx/replay queues sized for a
    /// bandwidth-delay product of ~950 ns at 100 Gbit/s, and cumulative
    /// acks every 8th frame so the credit pool stays fed without burning
    /// reverse-channel bandwidth.
    fn default() -> Self {
        LlcConfig {
            frame_flits: 9,
            rx_queue_frames: 128,
            replay_window: 256,
            initial_frame_id: 0,
            ack_every: 8,
        }
    }
}

impl LlcConfig {
    /// The initial credit pool: one credit per Rx ingress slot, clamped
    /// to the `u32` credit space the wire format carries.
    pub(crate) fn rx_queue_credits(&self) -> u32 {
        u32::try_from(self.rx_queue_frames).unwrap_or(u32::MAX)
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Names the first violated constraint: a zero dimension, a frame
    /// longer than the wire header's `u8` entry count, a replay window
    /// smaller than the credit pool (which could deadlock recovery), or
    /// ack coalescing that could starve the credit pool.
    pub fn validate(&self) -> Result<(), &'static str> {
        let checks = [
            (self.frame_flits > 0, "frames need at least one flit"),
            (
                self.frame_flits <= 256,
                "frame entry count must fit the wire header's u8",
            ),
            (self.rx_queue_frames > 0, "rx queue cannot be empty"),
            (
                self.replay_window >= self.rx_queue_frames,
                "replay window must cover in-flight frames",
            ),
            (self.ack_every > 0, "ack_every cannot be zero"),
            (
                self.ack_every < self.rx_queue_frames as u64,
                "ack coalescing must not starve the credit pool",
            ),
        ];
        match checks.into_iter().find(|(ok, _)| !ok) {
            Some((_, why)) => Err(why),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;

    #[test]
    fn default_is_valid_and_frame_shaped() {
        let c = LlcConfig::default();
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.frame_flits, 9);
        assert!(c.replay_window >= c.rx_queue_frames);
        assert!(c.ack_every < c.rx_queue_frames as u64);
    }

    #[test]
    fn inconsistent_configs_are_refused() {
        let breaks: [fn(&mut LlcConfig); 5] = [
            |c| c.frame_flits = 0,
            |c| c.frame_flits = 257,
            |c| c.replay_window = 127,
            |c| c.ack_every = 0,
            |c| c.ack_every = 128,
        ];
        for break_it in breaks {
            let mut c = LlcConfig::default();
            break_it(&mut c);
            assert!(c.validate().is_err(), "{c:?}");
        }
    }
}
