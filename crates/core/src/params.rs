//! Calibrated timing and bandwidth parameters.
//!
//! Every number the model needs lives here, traceable to the paper's §V
//! prototype description:
//!
//! * three mesochronous clock domains at **401 MHz**, 32 B datapath;
//! * one OpenCAPI stack instance at 200 Gbit/s (8× GTY at 25 Gbit/s);
//! * two network channels of 4× bonded GTY transceivers (100 Gbit/s
//!   each), Aurora framing, direct-attached cables;
//! * hardware datapath flit RTT ≈ **950 ns**, covering "four crossings
//!   of the FPGA stack and six serDES crossings (2x at compute endpoint
//!   side, two for the network and two at the memory stealing endpoint
//!   side)".

use llc::flit::{FlitSized, FLIT_BYTES};
use llc::LlcConfig;
use opencapi::transaction::MemRequest;
use serde::{Deserialize, Serialize};
use simkit::bandwidth::Rate;
use simkit::time::SimTime;

use netsim::cable::DirectAttachCable;
use netsim::lane::SerdesLane;

use crate::fabric::FabricError;

/// The model's calibration constants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatapathParams {
    /// One serDES crossing, nanoseconds (6 such crossings per RTT).
    pub serdes_crossing_ns: u64,
    /// One FPGA stack crossing, nanoseconds (4 per RTT).
    pub stack_crossing_ns: u64,
    /// The direct-attach cable between neighbouring nodes.
    pub cable: DirectAttachCable,
    /// The LLC calibration every link direction instantiates (frame
    /// size, credit and replay depths, ack coalescing).
    pub llc: LlcConfig,
    /// Loaded DRAM access latency at either end, nanoseconds.
    pub dram_latency_ns: u64,
    /// Local streaming memory bandwidth per socket, GiB/s.
    pub local_bw_gib: f64,
    /// Streaming memory-level parallelism per hardware thread (cache
    /// lines kept in flight by the POWER9 prefetcher).
    pub stream_mlp: f64,
    /// OpenCAPI transaction size the POWER9 issues, bytes ("the POWER9
    /// processor is only issuing 128 B wide ld/st transactions").
    pub c1_txn_bytes: u32,
    /// Kernel+NIC round-trip on the 100 Gbit/s Ethernet used by the
    /// scale-out baseline, microseconds.
    pub ethernet_rtt_us: f64,
    /// Effective round-trip from a load-generator thread over the
    /// shared 10 Gbit/s client Ethernet under full 64-thread load,
    /// microseconds — dominated by kernel stack and client-side
    /// scheduling, which is why Memcached latencies sit near 600 µs.
    pub client_rtt_us: f64,
}

impl Default for DatapathParams {
    fn default() -> Self {
        DatapathParams {
            serdes_crossing_ns: 75,
            stack_crossing_ns: 101,
            cable: DirectAttachCable::rack_default(),
            llc: LlcConfig::default(),
            dram_latency_ns: 105,
            local_bw_gib: 120.0,
            stream_mlp: 24.0,
            c1_txn_bytes: 128,
            ethernet_rtt_us: 25.0,
            client_rtt_us: 540.0,
        }
    }
}

impl DatapathParams {
    /// The prototype calibration.
    pub fn prototype() -> Self {
        Self::default()
    }

    /// An ASIC-integration what-if (§VII): transceivers driven from the
    /// SoC saves four serDES crossings and shrinks the stack crossing.
    pub fn asic_integrated() -> Self {
        DatapathParams {
            serdes_crossing_ns: 35,
            stack_crossing_ns: 40,
            ..Self::default()
        }
    }

    /// Refuses an LLC calibration the fabric cannot run: an
    /// inconsistent one ([`LlcConfig::validate`]), or frames too short
    /// to carry a cacheline read response.
    pub(crate) fn check_llc(&self) -> Result<(), FabricError> {
        let response = MemRequest::read(0, 0).response().flits();
        let fits = if self.llc.frame_flits > response {
            Ok(())
        } else {
            Err("frames must carry a cacheline read response")
        };
        self.llc
            .validate()
            .and(fits)
            .map_err(|why| FabricError::Config(format!("llc {:?}: {why}", self.llc)))
    }

    /// The serDES lane the channels are built from.
    pub fn lane(&self) -> SerdesLane {
        SerdesLane::gty_25g().with_crossing(SimTime::from_ns(self.serdes_crossing_ns))
    }

    /// Analytic hardware-datapath flit RTT: 6 serDES crossings, 4 FPGA
    /// stack crossings, the cable both ways, plus the serialization of
    /// one frame of the links' LLC calibration per direction (`llc`'s
    /// 9 flits, 288 B, on the prototype). ≈ 950 ns on the prototype
    /// calibration.
    pub fn flit_rtt(&self) -> SimTime {
        let serdes = SimTime::from_ns(self.serdes_crossing_ns) * 6;
        let stack = SimTime::from_ns(self.stack_crossing_ns) * 4;
        let cable = self.cable.propagation_delay() * 2;
        let frame_bytes = (self.llc.frame_flits * FLIT_BYTES) as u64;
        let frame = self.channel_payload_rate().transfer_time(frame_bytes) * 2;
        serdes + stack + cable + frame
    }

    /// Latency of entering or leaving an endpoint FPGA: one serDES
    /// crossing plus one stack crossing. The fabric charges this once at
    /// the compute edge (core → LLC) and once per donor edge.
    pub(crate) fn edge_crossing(&self) -> SimTime {
        SimTime::from_ns(self.serdes_crossing_ns + self.stack_crossing_ns)
    }

    /// Local load-to-use latency.
    pub fn local_load_latency(&self) -> SimTime {
        SimTime::from_ns(self.dram_latency_ns)
    }

    /// Payload rate of one 4-lane network channel (≈11.3 GiB/s under the
    /// 12.5 GB/s nominal ceiling the paper quotes).
    pub fn channel_payload_rate(&self) -> Rate {
        Rate::from_bytes_per_sec(self.lane().payload_rate().bytes_per_sec() * 4.0)
    }

    /// The nominal per-channel ceiling the paper's Fig. 5 draws
    /// (100 Gbit/s = 12.5 GB/s ≈ 11.64 GiB/s).
    pub fn channel_nominal_gib(&self) -> f64 {
        Rate::from_gbit_per_sec(100.0).as_gib_per_sec()
    }

    /// Sustained C1 memory-side rate for this transaction size (the
    /// §VI-C bonding ceiling: ≈16 GiB/s at 128 B).
    pub fn c1_sustained_rate(&self) -> Rate {
        opencapi::c1::C1Port::sustained_rate(self.c1_txn_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_rtt_matches_the_paper() {
        let p = DatapathParams::prototype();
        let rtt = p.flit_rtt().as_ns();
        assert!((930..=970).contains(&rtt), "RTT {rtt} ns, paper: ~950 ns");
    }

    #[test]
    fn flit_rtt_serializes_the_frames_the_links_run() {
        let p = DatapathParams::prototype();
        let rate = p.channel_payload_rate();
        for extra_flits in [1, 4, 16] {
            let mut longer = p.clone();
            longer.llc.frame_flits += extra_flits;
            let grown = (longer.flit_rtt() - p.flit_rtt()).as_ps();
            let want = (rate.transfer_time((extra_flits * FLIT_BYTES) as u64) * 2).as_ps();
            // Each direction's serialization rounds to the picosecond.
            assert!(
                grown.abs_diff(want) <= 2,
                "{extra_flits} more flits: +{grown} ps, want +{want} ps"
            );
        }
    }

    #[test]
    fn channel_rates() {
        let p = DatapathParams::prototype();
        let payload = p.channel_payload_rate().as_gib_per_sec();
        assert!(payload > 11.0 && payload < 11.64, "payload {payload}");
        assert!((p.channel_nominal_gib() - 11.64).abs() < 0.01);
        let c1 = p.c1_sustained_rate().as_gib_per_sec();
        assert!((c1 - 16.0).abs() < 0.5, "c1 {c1}");
    }

    #[test]
    fn asic_integration_halves_the_rtt() {
        let proto = DatapathParams::prototype().flit_rtt();
        let asic = DatapathParams::asic_integrated().flit_rtt();
        assert!(asic < proto / 2 + SimTime::from_ns(100), "asic {asic} vs {proto}");
    }
}
