//! Typed LLC failure conditions.
//!
//! The datapath crates ban `panic!`/`unwrap`/`expect` (tflint TF004), so
//! the LLC state machines surface violated invariants as [`LlcError`]
//! values instead. [`LlcError::InvalidConfig`] refuses a calibration
//! before any state machine exists; every other variant indicates a
//! *protocol* bug — broken agreement between the Tx and Rx machines or
//! their driver — not a recoverable wire fault (lost or corrupt frames
//! are handled by replay).

use crate::frame::FrameId;

/// A violated LLC protocol invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlcError {
    /// A calibration the state machines cannot run: one
    /// [`LlcConfig::validate`](crate::LlcConfig::validate) refuses, or
    /// an empty credit pool.
    InvalidConfig {
        /// The violated constraint.
        reason: &'static str,
    },
    /// Retention skipped a frame identifier; replay would replay a gap.
    NonSequentialRetention {
        /// The identifier retention expected next.
        expected: FrameId,
        /// The identifier actually presented.
        got: FrameId,
    },
    /// A single-flit control frame reached a path reserved for data
    /// frames (retention or the Rx ingress) — a link-wiring bug.
    ControlFrameInDataPath,
    /// More credits were returned than the pool ever issued.
    CreditOverflow {
        /// Credits available before the bad return.
        available: u32,
        /// Credits the peer tried to return.
        returned: u32,
        /// The pool ceiling.
        max: u32,
    },
    /// More frames arrived than the Rx ingress queue has slots — the
    /// peer transmitted without holding a credit.
    RxIngressOverflow {
        /// Configured ingress capacity in frames.
        capacity: usize,
    },
}

impl std::fmt::Display for LlcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LlcError::InvalidConfig { reason } => write!(f, "invalid LLC config: {reason}"),
            LlcError::NonSequentialRetention { expected, got } => {
                write!(f, "non-sequential retention: expected {expected}, got {got}")
            }
            LlcError::ControlFrameInDataPath => {
                write!(f, "control frame routed into a data-frame path")
            }
            LlcError::CreditOverflow {
                available,
                returned,
                max,
            } => write!(f, "credit overflow: {available} + {returned} > {max}"),
            LlcError::RxIngressOverflow { capacity } => {
                write!(
                    f,
                    "rx ingress overflow (capacity {capacity}): peer transmitted without a credit"
                )
            }
        }
    }
}

impl std::error::Error for LlcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = LlcError::CreditOverflow {
            available: 3,
            returned: 2,
            max: 4,
        };
        assert_eq!(e.to_string(), "credit overflow: 3 + 2 > 4");
        let e = LlcError::NonSequentialRetention {
            expected: FrameId(4),
            got: FrameId(6),
        };
        assert!(e.to_string().contains("frame#4"));
        assert!(e.to_string().contains("frame#6"));
    }
}
