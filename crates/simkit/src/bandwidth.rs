//! Bandwidth and serialization-delay models.
//!
//! Links, memory ports and OpenCAPI transaction engines are all modelled
//! as *serialized resources*: a byte stream drains at a fixed rate and a
//! new transfer cannot start before the previous one finished serializing.

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// A data rate in bytes per (real) second of simulated time.
///
/// # Example
///
/// ```
/// use simkit::bandwidth::Rate;
///
/// // A 25 Gbit/s serDES lane.
/// let lane = Rate::from_gbit_per_sec(25.0);
/// // Serializing a 32-byte flit takes 10.24 ns.
/// assert_eq!(lane.transfer_time(32).as_ps(), 10_240);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rate {
    bytes_per_sec: f64,
}

impl Rate {
    /// Creates a rate from bytes/second.
    ///
    /// # Panics
    ///
    /// Panics if the rate is non-positive or not finite.
    pub fn from_bytes_per_sec(bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "invalid rate: {bytes_per_sec}"
        );
        Rate { bytes_per_sec }
    }

    /// Creates a rate from Gbit/s (network convention, powers of ten).
    pub fn from_gbit_per_sec(gbit: f64) -> Self {
        Self::from_bytes_per_sec(gbit * 1e9 / 8.0)
    }

    /// Creates a rate from GiB/s (memory convention, powers of two).
    pub fn from_gib_per_sec(gib: f64) -> Self {
        Self::from_bytes_per_sec(gib * (1u64 << 30) as f64)
    }

    /// The rate in bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.bytes_per_sec
    }

    /// The rate in GiB/s.
    pub fn as_gib_per_sec(self) -> f64 {
        self.bytes_per_sec / (1u64 << 30) as f64
    }

    /// Time to serialize `bytes` at this rate.
    pub fn transfer_time(self, bytes: u64) -> SimTime {
        SimTime::from_ps(crate::units::f64_to_u64_saturating(
            (bytes as f64 / self.bytes_per_sec * 1e12).round(),
        ))
    }
}

/// A serialized transmission resource (one link direction, one memory
/// port): transfers queue behind each other and drain at [`Rate`].
///
/// # Example
///
/// ```
/// use simkit::bandwidth::{Rate, SerializedLine};
/// use simkit::time::SimTime;
///
/// let mut line = SerializedLine::new(Rate::from_gbit_per_sec(100.0));
/// let t0 = SimTime::ZERO;
/// let first = line.enqueue(t0, 1250); // 100 ns at 100 Gbit/s
/// let second = line.enqueue(t0, 1250); // queues behind the first
/// assert_eq!(first.as_ns(), 100);
/// assert_eq!(second.as_ns(), 200);
/// ```
#[derive(Debug, Clone)]
pub struct SerializedLine {
    rate: Rate,
    free_at: SimTime,
    bytes_sent: u64,
    busy: SimTime,
}

impl SerializedLine {
    /// Creates an idle line with the given drain rate.
    pub fn new(rate: Rate) -> Self {
        SerializedLine {
            rate,
            free_at: SimTime::ZERO,
            bytes_sent: 0,
            busy: SimTime::ZERO,
        }
    }

    /// The drain rate.
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// Re-rates the line in place (e.g. a bonded channel losing a lane).
    /// In-flight transfers keep their already-computed completion
    /// instants; only transfers enqueued after the call drain at the new
    /// rate. Counters (`bytes_sent`, busy time) are preserved.
    pub fn set_rate(&mut self, rate: Rate) {
        self.rate = rate;
    }

    /// Enqueues a transfer of `bytes` arriving at `now`; returns the
    /// instant serialization *completes* (queueing + transfer).
    pub fn enqueue(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.enqueue_with_overhead(now, bytes, SimTime::ZERO)
    }

    /// Like [`SerializedLine::enqueue`], but each transfer also occupies
    /// the line for a fixed per-transaction `overhead` (command issue,
    /// handshake) before the bytes stream. Back-to-back transfers of
    /// size `b` therefore sustain `b / (overhead + b/rate)` — the model
    /// behind transaction-size-dependent port bandwidth.
    ///
    /// A transfer that would complete past [`SimTime::MAX`] occupies the
    /// line until then: it returns `SimTime::MAX`, and so does
    /// [`SerializedLine::free_at`] from then on.
    pub fn enqueue_with_overhead(
        &mut self,
        now: SimTime,
        bytes: u64,
        overhead: SimTime,
    ) -> SimTime {
        let start = self.free_at.max(now);
        let xfer = overhead.saturating_add(self.rate.transfer_time(bytes));
        self.free_at = start.saturating_add(xfer);
        self.bytes_sent += bytes;
        self.busy = self.busy.saturating_add(xfer);
        self.free_at
    }

    /// The instant the line becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total bytes ever enqueued.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Utilization over `[0, horizon]` as a fraction in `[0, 1]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon.is_zero() {
            return 0.0;
        }
        (self.busy.as_ps() as f64 / horizon.as_ps() as f64).min(1.0)
    }

    /// Achieved throughput over `[0, horizon]` in bytes/second.
    pub fn throughput(&self, horizon: SimTime) -> f64 {
        if horizon.is_zero() {
            return 0.0;
        }
        self.bytes_sent as f64 / horizon.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_conversions() {
        let r = Rate::from_gbit_per_sec(100.0);
        assert!((r.bytes_per_sec() - 12.5e9).abs() < 1.0);
        let m = Rate::from_gib_per_sec(12.5);
        assert!((m.as_gib_per_sec() - 12.5).abs() < 1e-12);
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let r = Rate::from_gbit_per_sec(25.0);
        let t1 = r.transfer_time(32);
        let t4 = r.transfer_time(128);
        assert_eq!(t4.as_ps(), t1.as_ps() * 4);
    }

    #[test]
    fn line_queues_back_to_back() {
        let mut line = SerializedLine::new(Rate::from_bytes_per_sec(1e9)); // 1 B/ns
        let done1 = line.enqueue(SimTime::ZERO, 100);
        let done2 = line.enqueue(SimTime::from_ns(10), 100);
        assert_eq!(done1.as_ns(), 100);
        assert_eq!(done2.as_ns(), 200);
        // An arrival after the line went idle starts immediately.
        let done3 = line.enqueue(SimTime::from_ns(500), 100);
        assert_eq!(done3.as_ns(), 600);
    }

    #[test]
    fn a_transfer_past_the_end_of_time_ends_there() {
        let mut line = SerializedLine::new(Rate::from_bytes_per_sec(1e9)); // 1 B/ns
        let late = SimTime::MAX - SimTime::from_ns(50);
        assert_eq!(line.enqueue(late, 10), late + SimTime::from_ns(10));
        assert_eq!(line.enqueue(late, 100), SimTime::MAX);
        assert_eq!(line.free_at(), SimTime::MAX);
        assert_eq!(line.enqueue(SimTime::ZERO, 1), SimTime::MAX);
        assert_eq!(line.bytes_sent(), 111);
    }

    #[test]
    fn utilization_and_throughput() {
        let mut line = SerializedLine::new(Rate::from_bytes_per_sec(1e9));
        line.enqueue(SimTime::ZERO, 500);
        let horizon = SimTime::from_ns(1000);
        assert!((line.utilization(horizon) - 0.5).abs() < 1e-9);
        assert!((line.throughput(horizon) - 500.0 / 1e-6).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid rate")]
    fn zero_rate_panics() {
        Rate::from_bytes_per_sec(0.0);
    }
}
