//! Synthetic cluster-trace generation.
//!
//! Reproduces the marginal properties the paper's motivation relies on:
//! task CPU and memory demands whose **memory/CPU ratio spans three
//! orders of magnitude** (Reiss et al., Han et al.), lognormal task
//! durations and Poisson arrivals. Demands are normalized to one
//! machine's capacity.

use serde::{Deserialize, Serialize};
use simkit::rng::DetRng;

/// One allocation/deallocation event pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Task id.
    pub id: u64,
    /// Arrival time, seconds.
    pub arrive_s: f64,
    /// Departure time, seconds.
    pub depart_s: f64,
    /// CPU demand, fraction of one machine.
    pub cpu: f64,
    /// Memory demand, fraction of one machine.
    pub mem: f64,
}

/// Generator parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceParams {
    /// Mean task inter-arrival, seconds.
    pub mean_interarrival_s: f64,
    /// Lognormal duration parameters.
    pub duration_mu: f64,
    /// Duration sigma.
    pub duration_sigma: f64,
    /// Lognormal CPU-demand parameters (of machine fraction).
    pub cpu_mu: f64,
    /// CPU sigma.
    pub cpu_sigma: f64,
    /// Lognormal of the memory/CPU demand ratio.
    pub ratio_mu: f64,
    /// Ratio sigma (≈1.6 spans three orders of magnitude at ±3σ).
    pub ratio_sigma: f64,
}

impl Default for TraceParams {
    fn default() -> Self {
        TraceParams {
            mean_interarrival_s: 0.35,
            duration_mu: 7.2,
            duration_sigma: 1.1,
            cpu_mu: -1.9,
            cpu_sigma: 0.9,
            ratio_mu: -0.45,
            ratio_sigma: 1.15,
        }
    }
}

/// The synthetic trace generator.
#[derive(Debug)]
pub struct TraceGenerator {
    params: TraceParams,
    rng: DetRng,
    next_id: u64,
    clock_s: f64,
}

impl TraceGenerator {
    /// Creates a generator.
    pub fn new(params: TraceParams, seed: u64) -> Self {
        TraceGenerator {
            params,
            rng: DetRng::new(seed),
            next_id: 0,
            clock_s: 0.0,
        }
    }

    /// Draws the next task.
    pub fn next_event(&mut self) -> TraceEvent {
        let p = &self.params;
        self.clock_s += self.rng.exp(p.mean_interarrival_s);
        let duration = self.rng.lognormal(p.duration_mu, p.duration_sigma);
        let cpu = self
            .rng
            .lognormal(p.cpu_mu, p.cpu_sigma)
            .clamp(0.001, 0.9);
        let ratio = self.rng.lognormal(p.ratio_mu, p.ratio_sigma);
        let mem = (cpu * ratio).clamp(0.0005, 0.9);
        let id = self.next_id;
        self.next_id += 1;
        TraceEvent {
            id,
            arrive_s: self.clock_s,
            depart_s: self.clock_s + duration,
            cpu,
            mem,
        }
    }

    /// Generates `n` tasks.
    pub(crate) fn generate(&mut self, n: usize) -> Vec<TraceEvent> {
        (0..n).map(|_| self.next_event()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_monotone_and_departures_follow() {
        let mut g = TraceGenerator::new(TraceParams::default(), 1);
        let events = g.generate(1000);
        for w in events.windows(2) {
            assert!(w[1].arrive_s >= w[0].arrive_s);
        }
        for e in &events {
            assert!(e.depart_s > e.arrive_s);
            assert!(e.cpu > 0.0 && e.cpu <= 0.9);
            assert!(e.mem > 0.0 && e.mem <= 0.9);
        }
    }

    #[test]
    fn memory_cpu_ratio_spans_three_orders_of_magnitude() {
        // The property §I cites from [1], [2].
        let mut g = TraceGenerator::new(TraceParams::default(), 2);
        let events = g.generate(20_000);
        let mut ratios: Vec<f64> = events.iter().map(|e| e.mem / e.cpu).collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p1 = ratios[ratios.len() / 100];
        let p99 = ratios[ratios.len() * 99 / 100];
        assert!(
            p99 / p1 > 100.0,
            "ratio spread {:.3}..{:.3} too narrow",
            p1,
            p99
        );
    }

    #[test]
    fn determinism() {
        let a = TraceGenerator::new(TraceParams::default(), 7).generate(100);
        let b = TraceGenerator::new(TraceParams::default(), 7).generate(100);
        assert_eq!(a, b);
    }
}
