//! Direct-attach cables.
//!
//! The prototype connects QSFP28 cages "with direct attached cables to
//! provide point-to-point and point-to-multipoint configurations". Copper
//! propagation is ~5 ns/m; rack-scale runs are a few metres.

use serde::{Deserialize, Serialize};
use simkit::time::SimTime;

/// Signal propagation in copper, picoseconds per metre (≈0.7 c).
const PS_PER_METRE: u64 = 4_760;

/// A passive direct-attach cable.
///
/// # Example
///
/// ```
/// use netsim::cable::DirectAttachCable;
///
/// let dac = DirectAttachCable::metres(3.0);
/// assert_eq!(dac.propagation_delay().as_ns(), 14);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DirectAttachCable {
    length_dm: u32, // decimetres, keeps the type Eq-friendly
}

impl DirectAttachCable {
    /// A cable of the given length in metres.
    ///
    /// # Panics
    ///
    /// Panics if the length is negative, zero or not finite.
    pub fn metres(length_m: f64) -> Self {
        assert!(
            length_m.is_finite() && length_m > 0.0,
            "invalid cable length: {length_m}"
        );
        DirectAttachCable {
            length_dm: (length_m * 10.0).round() as u32,
        }
    }

    /// The rack-scale default: a 5 m run between neighbouring chassis,
    /// ≈25 ns one way (the "cable" term in the RTT budget).
    pub fn rack_default() -> Self {
        Self::metres(5.25)
    }

    /// One-way propagation delay.
    pub fn propagation_delay(&self) -> SimTime {
        SimTime::from_ps(self.length_dm as u64 * PS_PER_METRE / 10)
    }
}

impl Default for DirectAttachCable {
    fn default() -> Self {
        Self::rack_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propagation_scales_with_length() {
        let short = DirectAttachCable::metres(1.0);
        let long = DirectAttachCable::metres(10.0);
        assert_eq!(
            long.propagation_delay().as_ps(),
            short.propagation_delay().as_ps() * 10
        );
    }

    #[test]
    fn rack_default_is_about_25ns() {
        let d = DirectAttachCable::rack_default().propagation_delay();
        assert!((24..=26).contains(&d.as_ns()), "{d}");
    }

    #[test]
    #[should_panic(expected = "invalid cable length")]
    fn zero_length_panics() {
        DirectAttachCable::metres(0.0);
    }
}
