//! Credit-based flow control.
//!
//! "Backpressure support using a credit-based mechanism to protect the Rx
//! side from overflowing. […] Each credit represents an empty slot at the
//! Rx ingress queue."

use serde::{Deserialize, Serialize};

use crate::error::LlcError;

/// The transmitter's view of the receiver's free ingress slots.
///
/// # Example
///
/// ```
/// use llc::credit::CreditCounter;
///
/// let mut c = CreditCounter::new(4);
/// assert!(c.try_consume());
/// assert_eq!(c.available(), 3);
/// c.replenish(1).unwrap();
/// assert_eq!(c.available(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CreditCounter {
    available: u32,
    max: u32,
    consumed_total: u64,
    replenished_total: u64,
    starved_total: u64,
}

impl CreditCounter {
    /// Creates a counter with `max` initial credits (the Rx queue depth).
    ///
    /// # Panics
    ///
    /// Panics if `max == 0`.
    pub fn new(max: u32) -> Self {
        assert!(max > 0, "credit pool cannot be empty");
        CreditCounter {
            available: max,
            max,
            consumed_total: 0,
            replenished_total: 0,
            starved_total: 0,
        }
    }

    /// Credits currently available.
    pub fn available(&self) -> u32 {
        self.available
    }

    /// The pool ceiling.
    pub fn max(&self) -> u32 {
        self.max
    }

    /// Consumes one credit if available; records starvation otherwise.
    // tflint::allow(TF013): denial is backpressure — the protocol's normal flow-control signal, not a collapsed error.
    pub fn try_consume(&mut self) -> bool {
        let granted = if self.available > 0 {
            self.available -= 1;
            self.consumed_total += 1;
            true
        } else {
            self.starved_total += 1;
            false
        };
        self.assert_conserved();
        granted
    }

    /// Returns `n` credits to the pool.
    ///
    /// # Errors
    ///
    /// [`LlcError::CreditOverflow`] when the pool would exceed its
    /// ceiling — a protocol bug (double credit return).
    pub fn replenish(&mut self, n: u32) -> Result<(), LlcError> {
        if self.available.saturating_add(n) > self.max {
            return Err(LlcError::CreditOverflow {
                available: self.available,
                returned: n,
                max: self.max,
            });
        }
        self.available += n;
        self.replenished_total += u64::from(n);
        self.assert_conserved();
        Ok(())
    }

    /// Number of sends that found no credit ("credit starvation at the
    /// Tx side" — the condition the Rx queue depth is sized to avoid).
    pub fn starvation_events(&self) -> u64 {
        self.starved_total
    }

    /// Credit conservation: every credit ever issued was either returned
    /// or is still outstanding, and outstanding credits never exceed the
    /// pool capacity. Checked after every state change in debug builds;
    /// release builds compile the check out.
    ///
    /// # Panics
    ///
    /// Panics when conservation is violated (a counter was mutated
    /// outside the consume/replenish protocol).
    fn assert_conserved(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let outstanding = u64::from(self.max - self.available);
        assert!(
            self.consumed_total == self.replenished_total + outstanding,
            "credit conservation violated: consumed {} != returned {} + outstanding {}",
            self.consumed_total,
            self.replenished_total,
            outstanding
        );
        assert!(
            outstanding <= u64::from(self.max),
            "outstanding credits {} exceed pool capacity {}",
            outstanding,
            self.max
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consume_until_starved() {
        let mut c = CreditCounter::new(2);
        assert!(c.try_consume());
        assert!(c.try_consume());
        assert!(!c.try_consume());
        assert_eq!(c.available(), 0);
        assert_eq!(c.starvation_events(), 1);
    }

    #[test]
    fn replenish_restores() {
        let mut c = CreditCounter::new(3);
        c.try_consume();
        c.try_consume();
        c.replenish(2).unwrap();
        assert_eq!(c.available(), 3);
    }

    #[test]
    fn over_replenish_is_an_error() {
        let mut c = CreditCounter::new(2);
        assert_eq!(
            c.replenish(1),
            Err(LlcError::CreditOverflow {
                available: 2,
                returned: 1,
                max: 2
            })
        );
        // The failed return must not leak into the pool.
        assert_eq!(c.available(), 2);
    }

    #[test]
    fn double_return_is_rejected_and_the_pool_stays_conserved() {
        // A duplicated return (a replayed ack applied twice) would let
        // the transmitter overrun the peer's ingress queue; replenish
        // refuses it and the conservation identity still holds.
        let mut c = CreditCounter::new(4);
        assert!(c.try_consume());
        c.replenish(1).expect("first return balances");
        c.replenish(1).expect_err("second return must be rejected");
        c.assert_conserved();
        assert_eq!(c.available(), 4);
    }

    #[test]
    #[should_panic(expected = "credit pool cannot be empty")]
    fn zero_pool_panics() {
        CreditCounter::new(0);
    }
}
