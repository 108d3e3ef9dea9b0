//! The application-level memory model.
//!
//! Calibrated against the flit-level [`crate::fabric`], this model
//! answers the two questions every workload asks:
//!
//! 1. *What does one memory access cost?* — a latency drawn from the
//!    placement mix of the configuration (local vs disaggregated pages),
//!    with the remote arm taken from one [`Calibration`]: an idle load
//!    measured on the reference fabric.
//! 2. *What streaming bandwidth can `t` threads sustain?* — a
//!    Little's-law throughput bound (`threads × MLP × line / average
//!    latency`) clipped by each component's capacity (channel payload
//!    rate, C1 transaction ceiling, local DRAM), with a mild
//!    saturation penalty past the knee — the paper observes exactly this
//!    decline "because the network facing stack gets closer to the
//!    saturation threshold" (§VI-C).

use simkit::time::SimTime;

use crate::config::SystemConfig;
use crate::fabric::{FabricBuilder, FabricError};
use crate::params::DatapathParams;

/// Cache line size (and OpenCAPI transaction payload).
const LINE_BYTES: f64 = 128.0;

/// Window of the reference path the calibration load crosses.
const REFERENCE_BYTES: u64 = 256 << 20;

/// Saturation penalty slope: throughput efficiency decays once offered
/// load exceeds 1.5× the bottleneck capacity.
const SATURATION_KNEE: f64 = 1.5;
const SATURATION_SLOPE: f64 = 0.05;

/// The datapath calibration and the remote load-to-use latency measured
/// on it: the one answer to "what does a remote load cost?".
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    params: DatapathParams,
    remote_load_latency: SimTime,
}

impl Calibration {
    /// Measures one idle load on the reference point-to-point fabric
    /// ([`FabricBuilder::point_to_point`], one channel). An idle load
    /// crosses one channel whether or not its path is bonded, so the one
    /// measurement prices every configuration.
    ///
    /// # Errors
    ///
    /// Propagates fabric failures (never expected for the reference
    /// topology).
    pub fn measure(params: DatapathParams) -> Result<Calibration, FabricError> {
        let (mut fabric, path) = FabricBuilder::point_to_point(params.clone(), 1, REFERENCE_BYTES)?;
        let remote_load_latency = fabric.measure_load_latency(path)?;
        Ok(Calibration {
            params,
            remote_load_latency,
        })
    }

    /// The calibration constants the fabric was built from.
    pub fn params(&self) -> &DatapathParams {
        &self.params
    }

    /// The measured remote load-to-use latency.
    pub fn remote_load_latency(&self) -> SimTime {
        self.remote_load_latency
    }
}

/// The calibrated model for one system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryModel {
    calibration: Calibration,
    config: SystemConfig,
}

impl MemoryModel {
    /// Builds the model for a configuration from a fabric calibration.
    pub fn new(calibration: &Calibration, config: SystemConfig) -> Self {
        MemoryModel {
            calibration: calibration.clone(),
            config,
        }
    }

    /// The configuration modelled.
    pub fn config(&self) -> SystemConfig {
        self.config
    }

    /// The calibration constants.
    pub fn params(&self) -> &DatapathParams {
        self.calibration.params()
    }

    /// Fraction of memory accesses that cross the interconnect.
    pub fn remote_fraction(&self) -> f64 {
        self.config.remote_fraction()
    }

    /// Average memory-access latency under this configuration's page
    /// placement, ns: the measured remote load for the remote fraction,
    /// DRAM for the rest.
    pub fn avg_load_latency_ns(&self) -> f64 {
        let f = self.remote_fraction();
        f * self.calibration.remote_load_latency().as_ns_f64()
            + (1.0 - f) * self.params().local_load_latency().as_ns_f64()
    }

    /// The interconnect-side capacity in bytes/s: one channel's payload
    /// rate, or the C1 ceiling when bonded (two channels exceed what
    /// 128 B transactions can sink at the memory side — the §VI-C
    /// analysis of why bonding only buys ~30%).
    pub fn remote_capacity_bytes(&self) -> f64 {
        match self.config.channels() {
            0 => 0.0,
            1 => self.params().channel_payload_rate().bytes_per_sec(),
            n => {
                let channels =
                    self.params().channel_payload_rate().bytes_per_sec() * n as f64;
                channels.min(self.params().c1_sustained_rate().bytes_per_sec())
            }
        }
    }

    /// Local DRAM capacity in bytes/s (one socket streams the server).
    pub(crate) fn local_capacity_bytes(&self) -> f64 {
        self.params().local_bw_gib * (1u64 << 30) as f64
    }

    /// Sustainable streaming bandwidth for `threads` hardware threads,
    /// in GiB/s (the unit of the paper's Fig. 5). `mlp_scale` lets
    /// kernels with more arithmetic per byte (STREAM scale/triad) shave
    /// effective memory-level parallelism.
    pub fn stream_bandwidth_gib(&self, threads: u32, mlp_scale: f64) -> f64 {
        assert!(threads > 0, "need at least one thread");
        let f_remote = self.remote_fraction();
        let f_local = 1.0 - f_remote;
        let mlp = self.params().stream_mlp * mlp_scale;
        let avg_lat_s = self.avg_load_latency_ns() * 1e-9;
        let raw = threads as f64 * mlp * LINE_BYTES / avg_lat_s;
        // Component capacity limits.
        let mut limit = f64::INFINITY;
        if f_remote > 0.0 {
            limit = limit.min(self.remote_capacity_bytes() / f_remote);
        }
        if f_local > 0.0 {
            limit = limit.min(self.local_capacity_bytes() / f_local);
        }
        let base = raw.min(limit);
        // Saturation penalty past the knee, bounded: a heavily
        // oversubscribed resource settles at ~89% efficiency rather than
        // collapsing (arbitration, not livelock).
        let ratio = raw / limit;
        let excess = (ratio - SATURATION_KNEE).clamp(0.0, 2.5);
        let eff = if ratio > SATURATION_KNEE {
            1.0 / (1.0 + SATURATION_SLOPE * excess)
        } else {
            1.0
        };
        base * eff / (1u64 << 30) as f64
    }

    /// Memory-stall cycles of `lines` touched cache lines that miss at
    /// `miss_ratio` on a `ghz` core overlapping `overlap` misses at local
    /// latency. Drives the paper's Fig. 6 back-end stall analysis
    /// (55.5% local vs 80.9% single-disaggregated for VoltDB).
    pub fn stall_cycles(&self, lines: f64, miss_ratio: f64, ghz: f64, overlap: f64) -> f64 {
        // Longer latencies extract more memory-level parallelism (the
        // out-of-order window holds more concurrent misses before the
        // core truly stalls), so the effective overlap grows sublinearly
        // with the latency ratio.
        let lat = self.avg_load_latency_ns();
        let local = self.params().local_load_latency().as_ns_f64();
        let eff_overlap = overlap * (lat / local).max(1.0).powf(0.45);
        lines * miss_ratio * lat * ghz / eff_overlap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calibration() -> Calibration {
        Calibration::measure(DatapathParams::prototype()).unwrap()
    }

    fn model(c: SystemConfig) -> MemoryModel {
        MemoryModel::new(&calibration(), c)
    }

    #[test]
    #[allow(clippy::float_cmp)] // exact: the remote arm is the measurement itself
    fn latency_ordering() {
        let local = model(SystemConfig::Local).avg_load_latency_ns();
        let inter = model(SystemConfig::Interleaved).avg_load_latency_ns();
        let remote = model(SystemConfig::SingleDisaggregated).avg_load_latency_ns();
        assert!(local < inter && inter < remote);
        assert!((local - 105.0).abs() < 1.0);
        assert_eq!(remote, calibration().remote_load_latency().as_ns_f64());
        assert!((inter - (local + remote) / 2.0).abs() < 1.0);
    }

    #[test]
    fn one_measurement_serves_every_channel_count() {
        // An idle load crosses one channel whether or not its path is
        // bonded, so the bonded reference fabric measures the same load.
        for params in [
            DatapathParams::prototype(),
            DatapathParams::asic_integrated(),
        ] {
            let one = Calibration::measure(params.clone()).unwrap();
            let (mut fabric, path) =
                FabricBuilder::point_to_point(params, 2, REFERENCE_BYTES).unwrap();
            assert_eq!(
                fabric.measure_load_latency(path).unwrap(),
                one.remote_load_latency()
            );
        }
    }

    #[test]
    fn single_channel_saturates_near_nominal() {
        let m = model(SystemConfig::SingleDisaggregated);
        // Fig. 5: ~10 GiB/s at 4 threads, close to the 12.5 GB/s
        // theoretical maximum at 8, slight decline at 16.
        let g4 = m.stream_bandwidth_gib(4, 1.0);
        let g8 = m.stream_bandwidth_gib(8, 1.0);
        let g16 = m.stream_bandwidth_gib(16, 1.0);
        assert!((9.0..=11.5).contains(&g4), "4T {g4}");
        assert!((10.0..=11.64).contains(&g8), "8T {g8}");
        assert!(g16 < g8, "16T {g16} should decline below 8T {g8}");
        assert!(g16 > 8.5, "16T {g16}");
    }

    #[test]
    fn bonding_gains_about_thirty_percent() {
        let s = model(SystemConfig::SingleDisaggregated);
        let b = model(SystemConfig::BondingDisaggregated);
        let gain = b.stream_bandwidth_gib(8, 1.0) / s.stream_bandwidth_gib(8, 1.0);
        // "Overall we measure a ~30% improvement for the
        // bonding-disaggregation configuration."
        assert!((1.2..=1.5).contains(&gain), "bonding gain {gain}");
        // And the ceiling is the C1 cap, not 2x the channel.
        assert!(b.stream_bandwidth_gib(16, 1.0) < 16.5);
    }

    #[test]
    fn interleaved_outperforms_both() {
        let s = model(SystemConfig::SingleDisaggregated);
        let b = model(SystemConfig::BondingDisaggregated);
        let i = model(SystemConfig::Interleaved);
        for t in [4, 8, 16] {
            let iv = i.stream_bandwidth_gib(t, 1.0);
            assert!(
                iv > s.stream_bandwidth_gib(t, 1.0),
                "interleaved beats single at {t}T"
            );
            assert!(
                iv > b.stream_bandwidth_gib(t, 1.0),
                "interleaved beats bonding at {t}T"
            );
        }
        let i8 = i.stream_bandwidth_gib(8, 1.0);
        assert!((18.0..=26.0).contains(&i8), "interleaved 8T {i8}");
    }

    #[test]
    fn local_is_dram_bound() {
        let m = model(SystemConfig::Local);
        let g64 = m.stream_bandwidth_gib(64, 1.0);
        assert!(g64 <= 120.0 && g64 > 80.0, "local 64T {g64}");
    }

    #[test]
    fn stall_fractions_bracket_the_paper() {
        // VoltDB-shaped stream, 60 instructions per line at IPC 2: the
        // paper measures 55.5% back-end stalls local and 80.9%
        // single-disaggregated.
        let stall_fraction = |c: SystemConfig| {
            let stall = model(c).stall_cycles(1.0, 0.55, 3.8, 5.9);
            stall / (60.0 / 2.0 + stall)
        };
        let local = stall_fraction(SystemConfig::Local);
        let remote = stall_fraction(SystemConfig::SingleDisaggregated);
        assert!((0.45..=0.65).contains(&local), "local stalls {local}");
        assert!((0.72..=0.90).contains(&remote), "remote stalls {remote}");
        assert!(remote > local + 0.15);
    }
}
