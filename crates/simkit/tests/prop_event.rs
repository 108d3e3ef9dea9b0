//! Property tests: the hybrid calendar/heap event engine pops in
//! *identical* order to the reference pure-heap engine for arbitrary
//! schedules — including same-instant bursts, far-future jumps past the
//! calendar horizon, schedules interleaved with pops, and coincident
//! pops whose predicate accepts or rejects the front event (a rejected
//! peek must leave the hybrid engine's node slab untouched, so the
//! next schedule reuses nodes without clobbering a pending event). This
//! is the invariant that lets the fast path replace the heap without
//! changing a single simulation trajectory.

use proptest::prelude::*;
use simkit::event::EventQueue;
use simkit::time::SimTime;

/// One scripted operation applied to both queues in lockstep.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule a burst of events `delta_ps` after the current instant
    /// (0 = a same-instant burst at `now`).
    Schedule { delta_ps: u64, burst: usize },
    /// Pop up to `n` events.
    Pop(usize),
    /// Up to `n` coincident pops whose predicate accepts even tags and
    /// rejects odd ones when `even` is set (the reverse otherwise).
    PopCoincident { n: usize, even: bool },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Deltas span flit ticks (~2.5 ns), RTT-scale (~1 µs) and
        // far-future beyond the ~4.2 µs calendar horizon.
        (0u64..8_000_000u64, 1usize..5)
            .prop_map(|(delta_ps, burst)| Op::Schedule { delta_ps, burst }),
        (0u64..5_000u64, 1usize..5)
            .prop_map(|(delta_ps, burst)| Op::Schedule { delta_ps, burst }),
        (1usize..8).prop_map(Op::Pop),
        // Same-instant bursts feed the coincident pops.
        (1usize..5).prop_map(|burst| Op::Schedule { delta_ps: 0, burst }),
        (1usize..6, any::<bool>()).prop_map(|(n, even)| Op::PopCoincident { n, even }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every pop from the hybrid queue equals the pop from the heap
    /// queue — same time, same event — across arbitrary op scripts.
    #[test]
    fn hybrid_and_heap_pop_identically(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut hybrid = EventQueue::new();
        let mut heap = EventQueue::new_heap_only();
        let mut tag = 0u64;
        for op in ops {
            match op {
                Op::Schedule { delta_ps, burst } => {
                    for _ in 0..burst {
                        let at_a = hybrid.now() + SimTime::from_ps(delta_ps);
                        let at_b = heap.now() + SimTime::from_ps(delta_ps);
                        prop_assert_eq!(at_a, at_b, "clocks diverged");
                        hybrid.schedule(at_a, tag);
                        heap.schedule(at_b, tag);
                        tag += 1;
                    }
                }
                Op::Pop(n) => {
                    for _ in 0..n {
                        let a = hybrid.pop();
                        let b = heap.pop();
                        prop_assert_eq!(a, b, "pop order diverged");
                        if a.is_none() {
                            break;
                        }
                    }
                }
                Op::PopCoincident { n, even } => {
                    let accept = |e: &u64| (e % 2 == 0) == even;
                    for _ in 0..n {
                        let a = hybrid.pop_coincident(accept);
                        let b = heap.pop_coincident(accept);
                        prop_assert_eq!(a, b, "coincident pop diverged");
                        if a.is_none() {
                            break;
                        }
                    }
                }
            }
            prop_assert_eq!(hybrid.len(), heap.len());
            prop_assert_eq!(hybrid.peek_time(), heap.peek_time());
        }
        // Drain whatever remains: the tails must match too.
        loop {
            let a = hybrid.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b, "tail drain diverged");
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(hybrid.popped(), heap.popped());
    }

    /// Same-instant bursts pop FIFO on both engines even when the burst
    /// lands at the *current* instant of a half-drained queue.
    #[test]
    fn coincident_bursts_stay_fifo(
        pre in prop::collection::vec(0u64..2_000u64, 1..30),
        burst in 2usize..20,
    ) {
        let mut hybrid = EventQueue::new();
        let mut heap = EventQueue::new_heap_only();
        let mut tag = 0u64;
        for &t in &pre {
            hybrid.schedule(SimTime::from_ns(t), tag);
            heap.schedule(SimTime::from_ns(t), tag);
            tag += 1;
        }
        // Pop one to move `now` forward, then burst at exactly `now`.
        let a = hybrid.pop();
        prop_assert_eq!(a, heap.pop());
        for _ in 0..burst {
            hybrid.schedule(hybrid.now(), tag);
            heap.schedule(heap.now(), tag);
            tag += 1;
        }
        let mut last_burst_tag = None;
        loop {
            let a = hybrid.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b);
            let Some((t, v)) = a else { break };
            if t == SimTime::from_ns(pre.iter().copied().min().unwrap_or(0)) || v >= pre.len() as u64 {
                // Burst tags must come out in offer order.
                if v >= pre.len() as u64 {
                    if let Some(prev) = last_burst_tag {
                        prop_assert!(v > prev, "burst FIFO violated: {v} after {prev}");
                    }
                    last_burst_tag = Some(v);
                }
            }
        }
    }
}
