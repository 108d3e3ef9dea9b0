//! Picosecond-resolution simulated time.
//!
//! [`SimTime`] is used both as an *instant* (time since simulation start)
//! and as a *duration*; the arithmetic is identical and the simulators in
//! this workspace never need wall-clock anchoring. One `u64` of picoseconds
//! covers ~213 days of simulated time, far beyond any experiment here.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// An instant (or duration) on the simulated clock, in picoseconds.
///
/// # Example
///
/// ```
/// use simkit::time::SimTime;
///
/// let rtt = SimTime::from_ns(950);
/// assert_eq!(rtt.as_ps(), 950_000);
/// assert_eq!((rtt + rtt).as_ns(), 1900);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero instant (simulation start).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a `SimTime` from picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a `SimTime` from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a `SimTime` from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a `SimTime` from fractional nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    pub fn from_ns_f64(ns: f64) -> Self {
        assert!(ns.is_finite() && ns >= 0.0, "invalid duration: {ns}");
        SimTime(crate::units::f64_to_u64_saturating((ns * 1e3).round()))
    }

    /// Picoseconds since simulation start.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds since simulation start (truncating).
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole microseconds since simulation start (truncating).
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction; clamps at zero instead of underflowing.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Saturating addition; clamps at [`SimTime::MAX`] instead of
    /// overflowing. The clamp is what makes exponential-backoff
    /// doubling safe at arbitrary attempt counts.
    pub fn saturating_add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// Returns the larger of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Whether this is the zero instant.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: f64) -> SimTime {
        SimTime(crate::units::f64_to_u64_saturating(
            (self.0 as f64 * rhs).round(),
        ))
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0s")
        } else if ps < 1_000 {
            write!(f, "{ps}ps")
        } else if ps < 1_000_000 {
            write!(f, "{:.3}ns", ps as f64 / 1e3)
        } else if ps < 1_000_000_000 {
            write!(f, "{:.3}us", ps as f64 / 1e6)
        } else if ps < 1_000_000_000_000 {
            write!(f, "{:.3}ms", ps as f64 / 1e9)
        } else {
            write!(f, "{:.3}s", ps as f64 / 1e12)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_ns(950).as_ps(), 950_000);
        assert_eq!(SimTime::from_us(3).as_ns(), 3_000);
        assert!((SimTime::from_us(500_000).as_secs_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(4);
        assert_eq!((a + b).as_ns(), 14);
        assert_eq!((a - b).as_ns(), 6);
        assert_eq!((a * 3).as_ns(), 30);
        assert_eq!((a / 2).as_ns(), 5);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(SimTime::MAX.saturating_add(a), SimTime::MAX);
        assert_eq!(a.saturating_add(b).as_ns(), 14);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimTime::from_ps(5).to_string(), "5ps");
        assert_eq!(SimTime::from_ns(950).to_string(), "950.000ns");
        assert_eq!(SimTime::from_us(613).to_string(), "613.000us");
        assert_eq!(SimTime::ZERO.to_string(), "0s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimTime = (1..=4).map(SimTime::from_ns).sum();
        assert_eq!(total.as_ns(), 10);
    }

    #[test]
    fn fractional_ns_constructor() {
        assert_eq!(SimTime::from_ns_f64(2.494).as_ps(), 2494);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_duration_panics() {
        let _ = SimTime::from_ns_f64(-1.0);
    }
}
