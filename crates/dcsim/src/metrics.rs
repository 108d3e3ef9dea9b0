//! The Fig. 1 metrics.

use serde::{Deserialize, Serialize};

/// One utilization snapshot of a data centre.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct UtilSnapshot {
    /// Fragmentation index of CPU: unused CPU inside powered-on,
    /// partially allocated units, as a fraction of total CPU.
    pub cpu_frag: f64,
    /// Fragmentation index of memory.
    pub mem_frag: f64,
    /// Fraction of CPU-bearing units completely unused (could power
    /// off).
    pub cpu_off: f64,
    /// Fraction of memory-bearing units completely unused.
    pub mem_off: f64,
}

/// Accumulates snapshots into time averages.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MetricAccumulator {
    sum: UtilSnapshot,
    samples: u64,
    rejected: u64,
    placed: u64,
}

impl MetricAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a snapshot.
    pub fn add(&mut self, s: UtilSnapshot) {
        self.sum.cpu_frag += s.cpu_frag;
        self.sum.mem_frag += s.mem_frag;
        self.sum.cpu_off += s.cpu_off;
        self.sum.mem_off += s.mem_off;
        self.samples += 1;
    }

    /// Records a placement outcome.
    pub(crate) fn record_placement(&mut self, placed: bool) {
        if placed {
            self.placed += 1;
        } else {
            self.rejected += 1;
        }
    }

    /// The averaged snapshot.
    ///
    /// # Panics
    ///
    /// Panics if no snapshot was taken.
    pub(crate) fn average(&self) -> UtilSnapshot {
        assert!(self.samples > 0, "no snapshots collected");
        let n = self.samples as f64;
        UtilSnapshot {
            cpu_frag: self.sum.cpu_frag / n,
            mem_frag: self.sum.mem_frag / n,
            cpu_off: self.sum.cpu_off / n,
            mem_off: self.sum.mem_off / n,
        }
    }

    /// Allocation requests rejected (no capacity).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Allocation requests placed.
    pub fn placed(&self) -> u64 {
        self.placed
    }

    /// Rejection ratio.
    pub fn rejection_ratio(&self) -> f64 {
        let total = self.placed + self.rejected;
        if total == 0 {
            0.0
        } else {
            self.rejected as f64 / total as f64
        }
    }
}

/// The Fig. 1 comparison: the fixed model vs the disaggregated one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Figure1 {
    /// The conventional ("fixed") data centre.
    pub fixed: UtilSnapshot,
    /// The disaggregated data centre.
    pub disaggregated: UtilSnapshot,
}

impl Figure1 {
    /// The paper's reported values, for side-by-side printing.
    pub fn paper() -> Figure1 {
        Figure1 {
            fixed: UtilSnapshot {
                cpu_frag: 0.16,
                mem_frag: 0.295,
                cpu_off: 0.01,
                mem_off: 0.01,
            },
            disaggregated: UtilSnapshot {
                cpu_frag: 0.0386,
                mem_frag: 0.092,
                cpu_off: 0.08,
                mem_off: 0.27,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_snapshots() {
        let mut acc = MetricAccumulator::new();
        acc.add(UtilSnapshot {
            cpu_frag: 0.1,
            mem_frag: 0.2,
            cpu_off: 0.0,
            mem_off: 0.4,
        });
        acc.add(UtilSnapshot {
            cpu_frag: 0.3,
            mem_frag: 0.4,
            cpu_off: 0.2,
            mem_off: 0.0,
        });
        let avg = acc.average();
        assert!((avg.cpu_frag - 0.2).abs() < 1e-12);
        assert!((avg.mem_off - 0.2).abs() < 1e-12);
    }

    #[test]
    fn rejection_accounting() {
        let mut acc = MetricAccumulator::new();
        acc.record_placement(true);
        acc.record_placement(true);
        acc.record_placement(false);
        assert_eq!(acc.placed(), 2);
        assert_eq!(acc.rejected(), 1);
        assert!((acc.rejection_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no snapshots")]
    fn empty_average_panics() {
        MetricAccumulator::new().average();
    }
}
