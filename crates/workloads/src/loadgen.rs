//! Closed-loop load generation and server queueing.
//!
//! Every request-level experiment in the paper shares one structure: a
//! client machine runs `N` closed-loop threads against a server whose
//! worker pool serves requests whose cost depends on the memory
//! configuration. [`ClosedLoopSim`] is that structure as a
//! discrete-event simulation; it produces the end-to-end latency
//! distribution (Fig. 8 is its CDF output) and the achieved throughput
//! (Figs. 7 and 9 report ops/sec).

use simkit::event::EventQueue;
use simkit::rng::DetRng;
use simkit::stats::Histogram;
use simkit::time::SimTime;

/// A server-side service model: how long does request `i` occupy a
/// worker?
pub trait Service {
    /// Service time of one request, drawn with the simulation's RNG.
    fn service_time(&mut self, rng: &mut DetRng) -> SimTime;

    /// Extra network hops before the server (e.g. a Twemproxy layer).
    /// Defaults to zero.
    fn extra_hop(&mut self, _rng: &mut DetRng) -> SimTime {
        SimTime::ZERO
    }
}

impl<F: FnMut(&mut DetRng) -> SimTime> Service for F {
    fn service_time(&mut self, rng: &mut DetRng) -> SimTime {
        self(rng)
    }
}

#[derive(Debug)]
enum Ev {
    ArriveAtServer { client: usize },
    ServiceDone { client: usize },
    BackAtClient { client: usize },
}

/// Results of one closed-loop run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Per-request end-to-end latency, nanoseconds.
    pub latency_ns: Histogram,
    /// Completed requests.
    pub completed: u64,
    /// Achieved throughput, operations per second.
    pub throughput_ops: f64,
    /// Wall-clock of the simulated run.
    pub elapsed: SimTime,
}

impl RunStats {
    /// Mean latency in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.latency_ns.mean() / 1000.0
    }

    /// Latency quantile in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.latency_ns.quantile(q) as f64 / 1000.0
    }

    /// The latency CDF in microseconds.
    pub fn cdf_us(&self) -> Vec<(f64, f64)> {
        self.latency_ns
            .cdf()
            .into_iter()
            .map(|(ns, f)| (ns as f64 / 1000.0, f))
            .collect()
    }
}

/// The closed-loop client + FIFO multi-worker server simulator.
///
/// # Example
///
/// ```
/// use simkit::time::SimTime;
/// use simkit::rng::DetRng;
/// use workloads::loadgen::ClosedLoopSim;
///
/// let mut sim = ClosedLoopSim::new(8, 4, SimTime::from_us(100), 42);
/// let stats = sim.run(
///     &mut |_rng: &mut DetRng| SimTime::from_us(10),
///     2_000,
/// );
/// assert_eq!(stats.completed, 8 * 2_000);
/// // 8 clients, ~110 us per round trip: ~70k ops/s.
/// assert!(stats.throughput_ops > 50_000.0);
/// ```
#[derive(Debug)]
pub struct ClosedLoopSim {
    clients: usize,
    workers: usize,
    network_rtt: SimTime,
    rng: DetRng,
    rtt_jitter_frac: f64,
}

impl ClosedLoopSim {
    /// Creates a simulator: `clients` closed-loop client threads, a
    /// server pool of `workers`, and a base client↔server network round
    /// trip of `network_rtt`.
    ///
    /// # Panics
    ///
    /// Panics if `clients` or `workers` is zero.
    pub fn new(clients: usize, workers: usize, network_rtt: SimTime, seed: u64) -> Self {
        assert!(clients > 0 && workers > 0, "need clients and workers");
        ClosedLoopSim {
            clients,
            workers,
            network_rtt,
            rng: DetRng::new(seed),
            rtt_jitter_frac: 0.05,
        }
    }

    fn sample_rtt(&mut self) -> SimTime {
        let jitter = self.rng.exp(self.rtt_jitter_frac);
        self.network_rtt * (1.0 + jitter)
    }

    /// Runs until every client has completed `requests_per_client`.
    pub fn run<S: Service>(&mut self, service: &mut S, requests_per_client: u64) -> RunStats {
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let mut issued_at = vec![SimTime::ZERO; self.clients];
        let mut remaining = vec![requests_per_client; self.clients];
        let mut latency = Histogram::new();
        let mut completed = 0u64;
        // The worker pool: earliest-free instants.
        let mut workers = vec![SimTime::ZERO; self.workers];

        // Kick every client.
        for c in 0..self.clients {
            let half = self.sample_rtt() / 2;
            queue.schedule(half, Ev::ArriveAtServer { client: c });
        }

        while let Some((now, ev)) = queue.pop() {
            match ev {
                Ev::ArriveAtServer { client } => {
                    let hop = service.extra_hop(&mut self.rng);
                    let svc = service.service_time(&mut self.rng);
                    // Earliest-free worker serves FIFO.
                    let (idx, free_at) = workers
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, t)| **t)
                        .map(|(i, t)| (i, *t))
                        .expect("pool non-empty");
                    let start = free_at.max(now + hop);
                    let done = start + svc;
                    workers[idx] = done;
                    queue.schedule(done, Ev::ServiceDone { client });
                }
                Ev::ServiceDone { client } => {
                    let half = self.sample_rtt() / 2;
                    queue.schedule(now + half, Ev::BackAtClient { client });
                }
                Ev::BackAtClient { client } => {
                    latency.record((now - issued_at[client]).as_ns());
                    completed += 1;
                    remaining[client] -= 1;
                    if remaining[client] > 0 {
                        issued_at[client] = now;
                        let half = self.sample_rtt() / 2;
                        queue.schedule(now + half, Ev::ArriveAtServer { client });
                    }
                }
            }
        }
        let elapsed = queue.now();
        RunStats {
            throughput_ops: completed as f64 / elapsed.as_secs_f64(),
            latency_ns: latency,
            completed,
            elapsed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(us: u64) -> impl FnMut(&mut DetRng) -> SimTime {
        move |_| SimTime::from_us(us)
    }

    #[test]
    fn uncontended_latency_is_rtt_plus_service() {
        let mut sim = ClosedLoopSim::new(1, 4, SimTime::from_us(100), 1);
        sim.rtt_jitter_frac = 0.0;
        let stats = sim.run(&mut fixed(20), 100);
        assert_eq!(stats.completed, 100);
        let mean = stats.mean_us();
        assert!((119.0..=121.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn saturation_caps_throughput_at_pool_capacity() {
        // 4 workers x 10 us service: 400k ops/s ceiling regardless of
        // client count.
        let mut sim = ClosedLoopSim::new(64, 4, SimTime::from_us(50), 2);
        let stats = sim.run(&mut fixed(10), 500);
        assert!(
            (300_000.0..=410_000.0).contains(&stats.throughput_ops),
            "tput {}",
            stats.throughput_ops
        );
        // Queueing shows in latency: far above the uncontended 60 us.
        assert!(stats.mean_us() > 100.0, "mean {}", stats.mean_us());
    }

    #[test]
    fn more_workers_cut_queueing() {
        let mut slow = ClosedLoopSim::new(32, 2, SimTime::from_us(50), 3);
        let mut fast = ClosedLoopSim::new(32, 16, SimTime::from_us(50), 3);
        let s = slow.run(&mut fixed(10), 300);
        let f = fast.run(&mut fixed(10), 300);
        assert!(f.mean_us() < s.mean_us());
        assert!(f.throughput_ops > s.throughput_ops);
    }

    #[test]
    #[allow(clippy::float_cmp)] // exact: one seed replays bit-identically
    fn determinism() {
        let run = |seed| {
            let mut sim = ClosedLoopSim::new(8, 4, SimTime::from_us(80), seed);
            sim.run(&mut fixed(15), 200).latency_ns.mean()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn cdf_output_is_usable() {
        let mut sim = ClosedLoopSim::new(16, 4, SimTime::from_us(100), 4);
        let stats = sim.run(&mut fixed(10), 200);
        let cdf = stats.cdf_us();
        assert!(!cdf.is_empty());
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
        assert!(stats.quantile_us(0.9) >= stats.quantile_us(0.5));
    }
}
