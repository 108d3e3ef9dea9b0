//! Property tests for the conservative partition runner: across random
//! topologies, event schedules and hop latencies,
//!
//! * a window never admits a cross-partition event earlier than the
//!   lookahead bound — observable as causal safety: no delivery ever
//!   lands at or before an event its destination already processed;
//! * [`simkit::partition::window_bound`] is exactly
//!   `min(next event) + lookahead`;
//! * the run's output is bit-identical for any worker count.

use std::convert::Infallible;

use proptest::prelude::*;
use simkit::event::EventQueue;
use simkit::partition::{run_conservative, window_bound, Outbox, Partition};
use simkit::time::SimTime;

/// One randomly wired node: processes local events, forwards each to a
/// payload-derived neighbour one hop later while budget lasts, and
/// checks causal safety on every delivery.
struct Node {
    id: usize,
    fanout: usize,
    hop: SimTime,
    budget: u64,
    queue: EventQueue<u64>,
    log: Vec<(SimTime, u64)>,
    max_processed: SimTime,
    causal_violation: Option<(SimTime, SimTime)>,
}

impl Node {
    fn new(id: usize, fanout: usize, hop: SimTime, budget: u64, seeds: &[u64]) -> Self {
        let mut queue = EventQueue::new();
        for (i, &delta) in seeds.iter().enumerate() {
            queue.schedule(
                SimTime::from_ps(1 + delta),
                (id as u64) << 32 | i as u64,
            );
        }
        Node {
            id,
            fanout,
            hop,
            budget,
            queue,
            log: Vec::new(),
            max_processed: SimTime::ZERO,
            causal_violation: None,
        }
    }
}

impl Partition for Node {
    type Msg = u64;
    type Error = Infallible;

    fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    fn run_window(&mut self, bound: SimTime, outbox: &mut Outbox<u64>) -> Result<(), Infallible> {
        while self.queue.peek_time().is_some_and(|t| t < bound) {
            let (t, marker) = self.queue.pop().expect("peeked event exists");
            self.max_processed = self.max_processed.max(t);
            self.log.push((t, marker));
            if self.budget > 0 && self.fanout > 1 {
                self.budget -= 1;
                // Destination derived from the payload: any partition
                // but this one, so rings, stars and all-to-all shapes
                // all arise across random scripts.
                let dest = (self.id + 1 + (marker as usize % (self.fanout - 1))) % self.fanout;
                outbox.send(dest, t + self.hop, marker.wrapping_mul(31).wrapping_add(7));
            }
        }
        Ok(())
    }

    fn deliver(&mut self, at: SimTime, msg: u64) -> Result<(), Infallible> {
        // The conservative contract: a delivery may never land at or
        // before an event this partition already processed.
        if at <= self.max_processed && self.causal_violation.is_none() {
            self.causal_violation = Some((at, self.max_processed));
        }
        self.queue.schedule(at, msg);
        Ok(())
    }
}

/// Everything observable about a finished run, for bit-identity checks:
/// per node, its id, its event log and its popped-event count.
type Digest = Vec<(usize, Vec<(SimTime, u64)>, u64)>;

fn digest(parts: &[Node]) -> Digest {
    parts
        .iter()
        .map(|p| (p.id, p.log.clone(), p.queue.popped()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random topology + latencies: the run completes without protocol
    /// errors, no partition ever sees a delivery in its processed past,
    /// and every worker count produces the same digest as sequential.
    #[test]
    fn windows_never_admit_events_before_the_lookahead_bound(
        n in 2usize..7,
        lookahead_ps in 1u64..200_000,
        hop_extra_ps in 0u64..300_000,
        budget in 0u64..64,
        seeds in prop::collection::vec(
            prop::collection::vec(0u64..2_000_000, 1..6), 2..7),
        workers in 2usize..8,
    ) {
        let n = n.min(seeds.len());
        let lookahead = SimTime::from_ps(lookahead_ps);
        // Senders stamp `processed + hop`; hop >= lookahead keeps the
        // window contract, any extra models slower boundary links.
        let hop = SimTime::from_ps(lookahead_ps + hop_extra_ps);
        let build = || -> Vec<Node> {
            (0..n).map(|i| Node::new(i, n, hop, budget, &seeds[i])).collect()
        };

        let mut reference = build();
        run_conservative(&mut reference, lookahead, 1).expect("sequential run succeeds");
        for p in &reference {
            prop_assert!(
                p.causal_violation.is_none(),
                "partition {} saw delivery at {:?} with past {:?}",
                p.id, p.causal_violation.unwrap().0, p.causal_violation.unwrap().1
            );
        }

        let mut parallel = build();
        run_conservative(&mut parallel, lookahead, workers).expect("parallel run succeeds");
        for p in &parallel {
            prop_assert!(p.causal_violation.is_none());
        }
        prop_assert_eq!(digest(&parallel), digest(&reference));
    }

    /// The bound is exactly `min(next event times) + lookahead`, and
    /// `None` only when every partition is drained.
    #[test]
    fn window_bound_is_min_next_time_plus_lookahead(
        raw in prop::collection::vec(
            (any::<bool>(), 0u64..u64::from(u32::MAX)), 1..16),
        lookahead_ps in 1u64..1_000_000,
    ) {
        // (drained?, next event time): drained partitions report None.
        let times: Vec<Option<u64>> = raw
            .iter()
            .map(|&(drained, t)| if drained { None } else { Some(t) })
            .collect();
        let lookahead = SimTime::from_ps(lookahead_ps);
        let sim_times: Vec<Option<SimTime>> =
            times.iter().map(|o| o.map(SimTime::from_ps)).collect();
        let want = times
            .iter()
            .flatten()
            .min()
            .map(|&t| SimTime::from_ps(t + lookahead_ps));
        prop_assert_eq!(window_bound(sim_times.clone(), lookahead), want);
        if let Some(bound) = window_bound(sim_times.clone(), lookahead) {
            let t_min = sim_times.iter().flatten().min().copied().unwrap();
            // Safety in one line: anything processed this window is at
            // >= t_min, so its sends land at >= t_min + lookahead = bound.
            prop_assert_eq!(t_min.checked_add(lookahead), Some(bound));
            prop_assert!(bound > t_min);
        }
    }
}
