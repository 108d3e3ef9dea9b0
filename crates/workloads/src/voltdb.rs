//! A VoltDB-like partitioned in-memory database model (paper §VI-D).
//!
//! VoltDB (H-Store) is a share-nothing in-memory RDBMS: tables are split
//! into partitions, each owned by a single-threaded executor, so
//! parallelism scales with the partition count. The model captures the
//! performance structure the paper measures:
//!
//! * **per-transaction busy time** — instructions at the no-stall IPC
//!   plus memory-stall time from the lines the transaction touches,
//!   priced by the configuration's [`MemoryModel`]. Disaggregation
//!   inflates exactly this term (the paper measures back-end stalls
//!   rising from 55.5% locally to 80.9% single-disaggregated);
//! * **dispatch/synchronisation** — the per-transaction coordination
//!   cost that grows with the partition count and caps horizontal
//!   scaling (the paper sees IPC gains flatten past 16 partitions);
//! * **multi-partition transactions** — YCSB-E scans fan out to every
//!   partition and serialize on two-phase coordination, which is why E's
//!   throughput is low and nearly configuration-independent;
//! * **scale-out** — partitions split over two nodes with purely local
//!   memory, paying an Ethernet round trip on the transactions that
//!   land on the remote half;
//! * **utilized cores / package IPC** — derived the way the paper's
//!   §VI-D methodology does: UCC from the task-clock (busy executors by
//!   Little's law), package IPC = single-thread IPC × UCC.

use serde::{Deserialize, Serialize};
use thymesisflow_core::config::SystemConfig;
use thymesisflow_core::memmodel::MemoryModel;

use crate::ycsb::YcsbWorkload;

/// Cost coefficients of one operation type.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpCost {
    /// Instructions retired.
    pub instructions: f64,
    /// Cache lines touched.
    pub lines: f64,
}

/// Model parameters (calibrated against the paper's §VI-D numbers).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VoltDbParams {
    /// Core clock, GHz.
    pub ghz: f64,
    /// No-stall IPC of the executor loop.
    pub ipc0: f64,
    /// Memory-level-parallelism overlap of the executor.
    pub overlap: f64,
    /// Last-level-cache miss ratio of touched lines (large tables, poor
    /// locality).
    pub miss_ratio: f64,
    /// Dispatch/synchronisation microseconds per transaction per
    /// partition (initiator contention grows with partitions).
    pub dispatch_us_per_partition: f64,
    /// Two-phase coordination cost of a multi-partition transaction, µs.
    pub mp_coordination_us: f64,
    /// Fraction of scale-out transactions paying an Ethernet round trip.
    pub scale_out_remote_fraction: f64,
    /// Busy-time inflation under channel bonding (response reordering).
    pub bonding_penalty: f64,
}

impl VoltDbParams {
    /// The §VI-D calibration every model runs with.
    pub const PAPER: VoltDbParams = VoltDbParams {
        ghz: 3.8,
        ipc0: 2.2,
        overlap: 3.0,
        miss_ratio: 0.6,
        dispatch_us_per_partition: 6.5,
        mp_coordination_us: 85.0,
        scale_out_remote_fraction: 0.5,
        bonding_penalty: 0.03,
    };
}

/// The §VI-D profiling outputs (the paper's Fig. 6 series).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Profile {
    /// Throughput in operations/second (Fig. 7).
    pub throughput_ops: f64,
    /// Average utilized CPU cores (task-clock derived).
    pub ucc: f64,
    /// Average retired instructions per cycle across the package.
    pub package_ipc: f64,
    /// Single-thread IPC of the executor.
    pub thread_ipc: f64,
    /// Back-end stall fraction of busy cycles.
    pub backend_stall_fraction: f64,
}

/// The database model for one configuration and partition count.
#[derive(Debug, Clone)]
pub struct VoltDb {
    model: MemoryModel,
    partitions: u32,
}

impl VoltDb {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero.
    pub fn new(model: MemoryModel, partitions: u32) -> Self {
        assert!(partitions > 0, "need at least one partition");
        VoltDb {
            model,
            partitions,
        }
    }

    /// Partition count.
    pub fn partitions(&self) -> u32 {
        self.partitions
    }

    /// Cost table per operation class.
    pub fn op_cost(read_like: bool, write_like: bool) -> OpCost {
        match (read_like, write_like) {
            (true, false) => OpCost {
                instructions: 60_000.0,
                lines: 428.0,
            },
            (false, true) => OpCost {
                instructions: 90_000.0,
                lines: 600.0,
            },
            // Read-modify-write: both halves.
            _ => OpCost {
                instructions: 130_000.0,
                lines: 900.0,
            },
        }
    }

    /// Average per-transaction cost of a workload's mix (scans handled
    /// separately as multi-partition transactions).
    fn mix_cost(&self, w: YcsbWorkload) -> OpCost {
        let read = Self::op_cost(true, false);
        let write = Self::op_cost(false, true);
        let rmw = Self::op_cost(true, true);
        let (fr, fw, frmw) = match w {
            YcsbWorkload::A => (0.5, 0.5, 0.0),
            YcsbWorkload::B => (0.95, 0.05, 0.0),
            YcsbWorkload::C => (1.0, 0.0, 0.0),
            YcsbWorkload::D => (0.95, 0.05, 0.0),
            // E's 5% inserts; the scans are handled by `throughput`.
            YcsbWorkload::E => (0.0, 1.0, 0.0),
            YcsbWorkload::F => (0.5, 0.0, 0.5),
        };
        OpCost {
            instructions: fr * read.instructions
                + fw * write.instructions
                + frmw * rmw.instructions,
            lines: fr * read.lines + fw * write.lines + frmw * rmw.lines,
        }
    }

    /// Memory-stall cycles for `lines` touched lines under this
    /// configuration.
    fn stall_cycles(&self, lines: f64) -> f64 {
        let p = &VoltDbParams::PAPER;
        let lat = self.model.avg_load_latency_ns();
        let local = self.model.params().local_load_latency().as_ns_f64();
        let eff_overlap = p.overlap * (lat / local).max(1.0).powf(0.45);
        let mut cycles = lines * p.miss_ratio * lat * p.ghz / eff_overlap;
        if self.model.config() == SystemConfig::BondingDisaggregated {
            cycles *= 1.0 + p.bonding_penalty;
        }
        cycles
    }

    /// Busy (on-CPU) microseconds of one single-partition transaction.
    fn busy_us(&self, w: YcsbWorkload) -> f64 {
        let p = &VoltDbParams::PAPER;
        let cost = self.mix_cost(w);
        let compute = cost.instructions / p.ipc0;
        let stall = self.stall_cycles(cost.lines);
        let mut us = (compute + stall) / p.ghz / 1000.0;
        if self.model.config().is_scale_out() {
            // Half the single-partition transactions land on the other
            // node: one Ethernet round trip each.
            us += p.scale_out_remote_fraction * self.model.params().ethernet_rtt_us;
        }
        us
    }

    /// Per-transaction dispatch/synchronisation microseconds.
    fn dispatch_us(&self) -> f64 {
        VoltDbParams::PAPER.dispatch_us_per_partition * self.partitions as f64
    }

    /// Throughput of a workload, ops/second (Fig. 7).
    pub fn throughput_ops(&self, w: YcsbWorkload) -> f64 {
        if w == YcsbWorkload::E {
            return self.scan_throughput();
        }
        let busy = self.busy_us(w);
        self.partitions as f64 / (busy + self.dispatch_us()) * 1e6
    }

    /// Multi-partition scan throughput: the scan's execution splits over
    /// the partitions while two-phase coordination serializes.
    fn scan_throughput(&self) -> f64 {
        let scan_records = 48.0;
        let instructions = 40_000.0 + 2_500.0 * scan_records;
        let lines = 30.0 * scan_records;
        let p = &VoltDbParams::PAPER;
        let compute_us = instructions / p.ipc0 / p.ghz / 1000.0;
        let mem_us = self.stall_cycles(lines) / p.ghz / 1000.0;
        let parallel = (compute_us + mem_us) / self.partitions as f64;
        let mut latency = p.mp_coordination_us + parallel;
        if self.model.config().is_scale_out() {
            // Cross-node merge shares the coordination window; only half
            // an Ethernet round trip lands on the critical path.
            latency += 0.5 * self.model.params().ethernet_rtt_us;
        }
        1e6 / latency
    }

    /// The full §VI-D profile.
    pub fn profile(&self, w: YcsbWorkload) -> Profile {
        let p = &VoltDbParams::PAPER;
        let throughput = self.throughput_ops(w);
        let (busy_us, instructions) = if w == YcsbWorkload::E {
            let scan_records = 48.0;
            let instr = 40_000.0 + 2_500.0 * scan_records;
            let lines = 30.0 * scan_records;
            let cycles = instr / p.ipc0 + self.stall_cycles(lines);
            (cycles / p.ghz / 1000.0, instr)
        } else {
            (self.busy_us(w), self.mix_cost(w).instructions)
        };
        // Little's law on the task clock: busy executors.
        let ucc = (throughput * busy_us / 1e6).min(self.partitions as f64);
        let busy_cycles = busy_us * 1000.0 * p.ghz;
        let thread_ipc = instructions / busy_cycles;
        let compute = instructions / p.ipc0;
        let stall = busy_cycles - compute;
        Profile {
            throughput_ops: throughput,
            ucc,
            package_ipc: thread_ipc * ucc,
            thread_ipc,
            backend_stall_fraction: (stall / busy_cycles).max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::WorkloadRunner;

    fn db(c: SystemConfig, partitions: u32) -> VoltDb {
        VoltDb::new(WorkloadRunner::new().model(c), partitions)
    }

    #[test]
    fn stall_fractions_match_fig6_analysis() {
        let local = db(SystemConfig::Local, 32).profile(YcsbWorkload::A);
        let remote = db(SystemConfig::SingleDisaggregated, 32).profile(YcsbWorkload::A);
        // Paper: 55.5% of cycles back-end stalled locally, 80.9%
        // single-disaggregated.
        assert!(
            (0.45..=0.66).contains(&local.backend_stall_fraction),
            "local stalls {}",
            local.backend_stall_fraction
        );
        assert!(
            (0.72..=0.90).contains(&remote.backend_stall_fraction),
            "remote stalls {}",
            remote.backend_stall_fraction
        );
    }

    #[test]
    fn fig7_workload_a_orderings_at_32_partitions() {
        let t = |c| db(c, 32).throughput_ops(YcsbWorkload::A);
        let local = t(SystemConfig::Local);
        let scale = t(SystemConfig::ScaleOut);
        let inter = t(SystemConfig::Interleaved);
        let single = t(SystemConfig::SingleDisaggregated);
        let bond = t(SystemConfig::BondingDisaggregated);
        // Paper: local best; others slower by 5.95% (scale-out), 5.62%
        // (interleaved), 7.97% (single), 10.03% (bonding).
        assert!(local > scale && local > inter && local > single && local > bond);
        assert!(bond < single, "bonding ({bond}) slower than single ({single})");
        for (name, v, paper_pct) in [
            ("scale-out", scale, 5.95),
            ("interleaved", inter, 5.62),
            ("single", single, 7.97),
            ("bonding", bond, 10.03),
        ] {
            let pct = (1.0 - v / local) * 100.0;
            assert!(
                (paper_pct - 5.0..=paper_pct + 5.0).contains(&pct),
                "{name}: modelled {pct:.1}% vs paper {paper_pct}%"
            );
        }
    }

    #[test]
    fn fig7_low_partitions_penalize_thymesisflow() {
        // "When running with 4 VoltDB data partitions all configurations
        // using ThymesisFlow have significantly lower throughput."
        let local = db(SystemConfig::Local, 4).throughput_ops(YcsbWorkload::A);
        let single =
            db(SystemConfig::SingleDisaggregated, 4).throughput_ops(YcsbWorkload::A);
        let gap = 1.0 - single / local;
        assert!(gap > 0.20, "gap {gap}");
    }

    #[test]
    fn fig7_workload_e_is_config_insensitive() {
        let t = |c| db(c, 32).throughput_ops(YcsbWorkload::E);
        let local = t(SystemConfig::Local);
        for c in SystemConfig::ALL {
            let v = t(c);
            let rel = (local - v) / local;
            assert!(rel < 0.20, "{c}: {v} vs local {local}");
        }
        // And E is an order of magnitude below A (Fig. 7's axes: ~140k
        // vs ~11k).
        let a = db(SystemConfig::Local, 32).throughput_ops(YcsbWorkload::A);
        assert!(a / local > 8.0, "A {a} vs E {local}");
    }

    #[test]
    fn fig6_ucc_higher_under_disaggregation() {
        for parts in [4, 16, 32, 64] {
            for w in [YcsbWorkload::A, YcsbWorkload::C] {
                let l = db(SystemConfig::Local, parts).profile(w);
                let r = db(SystemConfig::SingleDisaggregated, parts).profile(w);
                assert!(
                    r.ucc > l.ucc,
                    "{w:?}@{parts}: remote UCC {} <= local {}",
                    r.ucc,
                    l.ucc
                );
            }
        }
    }

    #[test]
    fn fig6_ipc_lower_under_disaggregation_and_rising_with_partitions() {
        for w in [YcsbWorkload::A, YcsbWorkload::F] {
            let mut last_local = 0.0;
            let mut last_remote = 0.0;
            for parts in [4, 16, 32, 64] {
                let l = db(SystemConfig::Local, parts).profile(w);
                let r = db(SystemConfig::SingleDisaggregated, parts).profile(w);
                assert!(
                    r.thread_ipc < l.thread_ipc,
                    "{w:?}@{parts}: thread IPC"
                );
                assert!(l.package_ipc >= last_local, "{w:?}@{parts} local IPC");
                assert!(r.package_ipc >= last_remote, "{w:?}@{parts} remote IPC");
                last_local = l.package_ipc;
                last_remote = r.package_ipc;
            }
        }
    }

    #[test]
    fn fig6_biggest_gain_from_4_to_16() {
        // "The biggest improvement is observed when we increase the
        // number of data partitions from 4 to 16. For higher partition
        // numbers, the IPC gains remain relatively small."
        let ipc = |parts| db(SystemConfig::Local, parts).profile(YcsbWorkload::A).package_ipc;
        let g1 = ipc(16) - ipc(4);
        let g2 = ipc(64) - ipc(16);
        assert!(g1 > g2 * 1.5, "4->16 gain {g1} vs 16->64 gain {g2}");
    }

    #[test]
    fn ucc_capped_by_partitions() {
        let p = db(SystemConfig::SingleDisaggregated, 4).profile(YcsbWorkload::A);
        assert!(p.ucc <= 4.0);
    }
}
