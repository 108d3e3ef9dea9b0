//! serDES lane model.
//!
//! The prototype bonds Xilinx GTY transceivers at 25 Gbit/s each. Aurora
//! 64B/66B framing leaves `64/66` of the raw bit rate for payload, and
//! every serDES *crossing* (Tx PCS+PMA or Rx PMA+PCS traversal) costs a
//! fixed latency. The paper counts six serDES crossings in its 950 ns RTT.

use serde::{Deserialize, Serialize};
use simkit::bandwidth::Rate;
use simkit::time::SimTime;

/// Configuration and timing of one serDES lane.
///
/// # Example
///
/// ```
/// use netsim::lane::SerdesLane;
///
/// let lane = SerdesLane::gty_25g();
/// // 64b/66b payload rate: 25 * 64/66 Gbit/s.
/// assert!((lane.payload_rate().bytes_per_sec() - 25e9 / 8.0 * 64.0 / 66.0).abs() < 1.0);
/// assert_eq!(lane.crossing_latency().as_ns(), 75);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SerdesLane {
    raw_gbit: f64,
    encoding_num: u32,
    encoding_den: u32,
    crossing: SimTime,
}

impl SerdesLane {
    /// A GTY transceiver lane at 25 Gbit/s with Aurora 64B/66B encoding
    /// and a 75 ns crossing latency (PCS + PMA), matching the prototype's
    /// latency budget (6 crossings within the 950 ns flit RTT).
    pub fn gty_25g() -> Self {
        SerdesLane {
            raw_gbit: 25.0,
            encoding_num: 64,
            encoding_den: 66,
            crossing: SimTime::from_ns(75),
        }
    }

    /// A custom lane.
    ///
    /// # Panics
    ///
    /// Panics if the rate is non-positive or the encoding ratio is not in
    /// `(0, 1]`.
    pub fn new(raw_gbit: f64, encoding_num: u32, encoding_den: u32, crossing: SimTime) -> Self {
        assert!(raw_gbit > 0.0, "lane rate must be positive");
        assert!(
            encoding_num > 0 && encoding_num <= encoding_den,
            "encoding ratio must be in (0, 1]"
        );
        SerdesLane {
            raw_gbit,
            encoding_num,
            encoding_den,
            crossing,
        }
    }

    /// Payload rate after encoding overhead.
    pub fn payload_rate(&self) -> Rate {
        Rate::from_gbit_per_sec(self.raw_gbit * self.encoding_num as f64 / self.encoding_den as f64)
    }

    /// Latency of one serDES crossing.
    pub fn crossing_latency(&self) -> SimTime {
        self.crossing
    }

    /// A lane identical to this one but with an ASIC-grade crossing
    /// latency, used by the §VII "future work" ablation (integrating the
    /// design in the SoC removes PCS stages).
    pub fn with_crossing(self, crossing: SimTime) -> Self {
        SerdesLane { crossing, ..self }
    }
}

impl Default for SerdesLane {
    fn default() -> Self {
        Self::gty_25g()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_prototype() {
        let lane = SerdesLane::default();
        assert_eq!(lane.crossing_latency(), SimTime::from_ns(75));
    }

    #[test]
    fn four_lanes_make_a_100g_channel() {
        let lane = SerdesLane::gty_25g();
        let channel_payload = lane.payload_rate().bytes_per_sec() * 4.0;
        // ~12.12 GB/s payload on a nominal 12.5 GB/s channel.
        assert!(channel_payload > 12.0e9 && channel_payload < 12.5e9);
    }

    #[test]
    fn asic_variant_shrinks_crossing() {
        let asic = SerdesLane::gty_25g().with_crossing(SimTime::from_ns(25));
        assert_eq!(asic.crossing_latency().as_ns(), 25);
    }

    #[test]
    #[should_panic(expected = "encoding ratio")]
    fn bad_encoding_panics() {
        SerdesLane::new(25.0, 66, 64, SimTime::from_ns(75));
    }
}
