//! Convenience front end: build the memory models and run any workload
//! against any configuration.

use thymesisflow_core::config::SystemConfig;
use thymesisflow_core::memmodel::{Calibration, MemoryModel};
use thymesisflow_core::params::DatapathParams;

/// Runs workloads across the paper's system configurations.
#[derive(Debug, Clone)]
pub struct WorkloadRunner {
    calibration: Calibration,
}

impl Default for WorkloadRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkloadRunner {
    /// A runner with the prototype calibration, measured once on the
    /// reference fabric.
    pub fn new() -> Self {
        let calibration = Calibration::measure(DatapathParams::prototype())
            .expect("the prototype's reference fabric builds and serves an idle load");
        WorkloadRunner { calibration }
    }

    /// The calibration constants in use.
    pub fn params(&self) -> &DatapathParams {
        self.calibration.params()
    }

    /// The memory model for a configuration.
    pub fn model(&self, config: SystemConfig) -> MemoryModel {
        MemoryModel::new(&self.calibration, config)
    }

    /// STREAM across every configuration (Fig. 5 rows).
    pub fn stream(
        &self,
        threads: u32,
    ) -> Vec<(SystemConfig, Vec<crate::stream::StreamResult>)> {
        SystemConfig::THYMESISFLOW
            .iter()
            .map(|&c| {
                (
                    c,
                    crate::stream::StreamBench::paper(threads).run(&self.model(c)),
                )
            })
            .collect()
    }

    /// VoltDB throughput for one workload across every configuration
    /// (Fig. 7 bars).
    pub fn voltdb_throughput(
        &self,
        workload: crate::ycsb::YcsbWorkload,
        partitions: u32,
    ) -> Vec<(SystemConfig, f64)> {
        SystemConfig::ALL
            .iter()
            .map(|&c| {
                (
                    c,
                    crate::voltdb::VoltDb::new(self.model(c), partitions)
                        .throughput_ops(workload),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ycsb::YcsbWorkload;

    #[test]
    fn runner_covers_all_configs() {
        let r = WorkloadRunner::new();
        let tput = r.voltdb_throughput(YcsbWorkload::A, 32);
        assert_eq!(tput.len(), 5);
        let stream = r.stream(8);
        assert_eq!(stream.len(), 3);
        for (_, rows) in stream {
            assert_eq!(rows.len(), 4);
        }
    }
}
