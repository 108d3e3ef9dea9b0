//! Deterministic discrete-event queues.
//!
//! Events scheduled at the same instant are delivered in insertion order
//! (FIFO tie-breaking), which keeps every simulation in this workspace
//! fully deterministic for a given RNG seed.
//!
//! Two engines back the queue, selected at construction:
//!
//! * [`Engine::Hybrid`] (the default) — a bucketed calendar for
//!   near-horizon events with O(1) schedule and amortised-O(1) pop,
//!   falling back to a binary heap for events beyond the calendar
//!   window. The datapath's 2.494 ns flit-clock ticks, serDES/stack
//!   crossings and DRAM completions all land in the calendar; only
//!   multi-microsecond timers take the heap path.
//! * [`Engine::HeapOnly`] — the original pure-`BinaryHeap` engine, kept
//!   as the reference implementation. Property tests assert that both
//!   engines pop every schedule in the identical order, so simulations
//!   are byte-for-byte reproducible on either.
//!
//! Every calendar event lives in one queue-wide node slab. A node holds
//! the event's `(at, seq)` sort key, a `u32` link and the payload; each
//! of the 1,024 buckets is a singly linked list of nodes threaded
//! through those links, so the calendar's fixed cost is 1,024 `u32`
//! list heads (4 KiB) and its memory otherwise follows the peak number
//! of pending events, not the history of any one bucket. When a bucket
//! comes due, its list is walked into one reused `drain` vector of
//! `(at, seq, node)` keys and sorted, so ordering a bucket sorts 24-byte
//! keys instead of shuffling full event payloads (which on the fabric
//! hot path carry whole LLC frames); a payload is moved exactly once on
//! schedule and once on pop. Popped nodes go on a last-in first-out
//! free list threaded through the same links, so the schedule that
//! typically follows a pop writes the node that pop just read while it
//! is still in cache, and the slab never holds more nodes than the peak
//! number of pending calendar events.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Calendar bucket width as a power of two: 2^12 ps = 4.096 ns, about
/// 1.6 flit cycles of the 401 MHz prototype clock.
const SLOT_SHIFT: u32 = 12;

/// Number of calendar buckets; together with [`SLOT_SHIFT`] this spans a
/// ~4.2 µs near horizon, several flit round trips deep.
const NUM_BUCKETS: usize = 1024;

/// Which scheduling engine backs an [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Calendar buckets near the horizon, heap beyond it (fast path).
    #[default]
    Hybrid,
    /// The original pure binary-heap engine (reference baseline).
    HeapOnly,
}

/// A pending event: delivery instant plus a monotonically increasing
/// sequence number used for stable tie-breaking.
#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A calendar sort key: delivery instant, FIFO sequence number, and the
/// slab node that holds the payload.
type Key = (SimTime, u64, u32);

/// The end of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

/// One calendar event: its sort key, the next node of its bucket list
/// (or of the free list once popped), and the payload (`None` while
/// the node is free).
#[derive(Debug)]
struct Node<E> {
    at: SimTime,
    seq: u64,
    next: u32,
    event: Option<E>,
}

/// The queue-wide node slab behind every calendar event. A node is
/// freed when its event pops and goes on a last-in first-out free list,
/// so the next schedule reuses the node read most recently and the slab
/// only grows when every node is occupied.
#[derive(Debug)]
struct Slab<E> {
    nodes: Vec<Node<E>>,
    /// Head of the free list, the most recently freed node first.
    free: u32,
}

fn node_index(node: u32) -> usize {
    usize::try_from(node).expect("slab node index fits usize")
}

impl<E> Slab<E> {
    fn new() -> Self {
        Slab {
            nodes: Vec::new(),
            free: NIL,
        }
    }

    /// Parks an event in the most recently freed node (or a new one),
    /// linked in front of `next`, and returns the node's index.
    fn put(&mut self, at: SimTime, seq: u64, next: u32, event: E) -> u32 {
        let node = Node {
            at,
            seq,
            next,
            event: Some(event),
        };
        if self.free != NIL {
            let index = self.free;
            let slot = &mut self.nodes[node_index(index)];
            self.free = slot.next;
            *slot = node;
            return index;
        }
        let index = u32::try_from(self.nodes.len()).expect("slab node index fits u32");
        assert!(index != NIL, "event slab is full");
        self.nodes.push(node);
        index
    }

    /// The nodes of the list that starts at `head`, with their indices,
    /// in link order.
    fn list(&self, head: u32) -> impl Iterator<Item = (u32, &Node<E>)> {
        let mut index = head;
        std::iter::from_fn(move || {
            if index == NIL {
                return None;
            }
            let node = &self.nodes[node_index(index)];
            let item = (index, node);
            index = node.next;
            Some(item)
        })
    }

    fn get(&self, node: u32) -> &E {
        self.nodes[node_index(node)]
            .event
            .as_ref()
            .expect("pending node holds its payload")
    }

    /// Moves the payload out and frees its node.
    fn take(&mut self, node: u32) -> E {
        let slot = &mut self.nodes[node_index(node)];
        let event = slot.event.take().expect("pending node holds its payload");
        slot.next = self.free;
        self.free = node;
        event
    }
}

/// A discrete-event queue over an arbitrary event type `E`.
///
/// The queue tracks the current simulated instant: popping an event
/// advances [`EventQueue::now`] to that event's scheduled time.
///
/// # Example
///
/// ```
/// use simkit::event::EventQueue;
/// use simkit::time::SimTime;
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Tick, Tock }
///
/// let mut q = EventQueue::new();
/// q.schedule_in(SimTime::from_ns(10), Ev::Tock);
/// q.schedule_in(SimTime::from_ns(1), Ev::Tick);
/// assert_eq!(q.pop().unwrap().1, Ev::Tick);
/// assert_eq!(q.now(), SimTime::from_ns(1));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    engine: Engine,
    seq: u64,
    now: SimTime,
    popped: u64,
    pending: usize,
    /// Far-future events (all events in `HeapOnly` mode), payload
    /// inline.
    heap: BinaryHeap<Scheduled<E>>,
    /// Every event in `drain` and the bucket lists.
    slab: Slab<E>,
    /// The currently ingested calendar slice, keys sorted **descending**
    /// by `(at, seq)`; the next event pops from the back. Also absorbs
    /// late schedules that land inside the already-ingested window.
    drain: Vec<Key>,
    /// Head node of each calendar bucket's unsorted list ([`NIL`] when
    /// empty); bucket `slot % NUM_BUCKETS` lists the events of `slot`
    /// for slots in `[cursor_slot, cursor_slot + N)`.
    heads: Vec<u32>,
    /// One bit per bucket: whether it holds any events.
    occupied: Vec<u64>,
    /// First slot not yet ingested into `drain`.
    cursor_slot: u64,
    /// Events currently resident in the bucket lists.
    in_buckets: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty hybrid-engine queue at instant zero.
    pub fn new() -> Self {
        Self::with_engine(Engine::Hybrid)
    }

    /// Creates an empty queue backed by the reference binary-heap
    /// engine (used by equivalence tests and the engine benchmark).
    pub fn new_heap_only() -> Self {
        Self::with_engine(Engine::HeapOnly)
    }

    /// Creates an empty queue with an explicit engine choice.
    pub fn with_engine(engine: Engine) -> Self {
        let n = match engine {
            Engine::Hybrid => NUM_BUCKETS,
            Engine::HeapOnly => 0,
        };
        EventQueue {
            engine,
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            pending: 0,
            heap: BinaryHeap::new(),
            slab: Slab::new(),
            drain: Vec::new(),
            heads: vec![NIL; n],
            occupied: vec![0u64; n.div_ceil(64)],
            cursor_slot: 0,
            in_buckets: 0,
        }
    }

    /// The engine backing this queue.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The current simulated instant (the timestamp of the last popped
    /// event, or zero if nothing has been popped yet).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events popped over the queue's lifetime (the engine
    /// benchmark's events/sec numerator).
    pub fn popped(&self) -> u64 {
        self.popped
    }

    fn slot_of(&self, at: SimTime) -> u64 {
        at.as_ps() >> SLOT_SHIFT
    }

    /// Schedules `event` for delivery at absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`EventQueue::now`]); a
    /// discrete-event simulation must never travel backwards.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at}, now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.pending += 1;
        if self.heads.is_empty() {
            self.heap.push(Scheduled { at, seq, event });
            return;
        }
        // With the calendar empty the cursor can jump over quiet gaps,
        // keeping the bucket window anchored at the present.
        if self.in_buckets == 0 && self.drain.is_empty() {
            let now_slot = self.slot_of(self.now);
            if now_slot > self.cursor_slot {
                self.cursor_slot = now_slot;
            }
        }
        let slot = self.slot_of(at);
        if slot < self.cursor_slot {
            // Inside the already-ingested window: merge into the sorted
            // drain at its (at, seq) position.
            let key = (at, seq);
            let pos = self.drain.partition_point(|&(a, s, _)| (a, s) > key);
            let node = self.slab.put(at, seq, NIL, event);
            self.drain.insert(pos, (at, seq, node));
        } else if slot - self.cursor_slot < self.heads.len() as u64 {
            let idx =
                usize::try_from(slot % self.heads.len() as u64).expect("bucket count fits usize");
            self.heads[idx] = self.slab.put(at, seq, self.heads[idx], event);
            self.occupied[idx / 64] |= 1u64 << (idx % 64);
            self.in_buckets += 1;
        } else {
            self.heap.push(Scheduled { at, seq, event });
        }
    }

    /// Schedules `event` for delivery `delay` after the current instant.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Index of the first occupied bucket at or (cyclically) after
    /// `start`. Only meaningful while `in_buckets > 0`.
    fn next_occupied(&self, start: usize) -> usize {
        let words = self.occupied.len();
        let w0 = start / 64;
        let masked = self.occupied[w0] & (!0u64 << (start % 64));
        if masked != 0 {
            return w0 * 64 + usize::try_from(masked.trailing_zeros()).expect("bit index");
        }
        for step in 1..=words {
            let w = (w0 + step) % words;
            if self.occupied[w] != 0 {
                return w * 64
                    + usize::try_from(self.occupied[w].trailing_zeros()).expect("bit index");
            }
        }
        unreachable!("next_occupied called with empty calendar");
    }

    /// Refills `drain` from the next occupied bucket when it runs dry.
    fn ensure_drain(&mut self) {
        if !self.drain.is_empty() || self.in_buckets == 0 {
            return;
        }
        let n = self.heads.len() as u64;
        let start = usize::try_from(self.cursor_slot % n).expect("bucket count fits usize");
        let idx = self.next_occupied(start);
        let delta = if idx >= start {
            (idx - start) as u64
        } else {
            n - (start - idx) as u64
        };
        let head = std::mem::replace(&mut self.heads[idx], NIL);
        self.drain
            .extend(self.slab.list(head).map(|(i, n)| (n.at, n.seq, i)));
        self.occupied[idx / 64] &= !(1u64 << (idx % 64));
        self.in_buckets -= self.drain.len();
        // Only the keys move; the payloads stay put in the slab.
        self.drain
            .sort_unstable_by_key(|&(at, seq, _)| std::cmp::Reverse((at, seq)));
        self.cursor_slot = self.cursor_slot + delta + 1;
    }

    /// Whether the earliest pending event sits in the heap rather than
    /// the drain, or `None` when the queue is empty. Call after
    /// [`EventQueue::ensure_drain`].
    fn front_in_heap(&self) -> Option<bool> {
        match (self.drain.last(), self.heap.peek()) {
            (None, None) => None,
            (None, Some(_)) => Some(true),
            (Some(_), None) => Some(false),
            (Some(&(at, seq, _)), Some(h)) => Some((h.at, h.seq) < (at, seq)),
        }
    }

    /// Removes the earliest event; the caller has checked it exists.
    fn take_front(&mut self, from_heap: bool) -> (SimTime, E) {
        if from_heap {
            let sch = self.heap.pop().expect("peeked event exists");
            (sch.at, sch.event)
        } else {
            let (at, _, node) = self.drain.pop().expect("peeked event exists");
            (at, self.slab.take(node))
        }
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// delivery time. Returns `None` when the queue is exhausted.
    ///
    /// Debug builds assert that simulated time never regresses — the
    /// ordering invariant every simulation depends on.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.ensure_drain();
        let from_heap = self.front_in_heap()?;
        let (at, event) = self.take_front(from_heap);
        debug_assert!(
            at >= self.now,
            "event queue clock regressed: {} -> {}",
            self.now,
            at
        );
        self.pending -= 1;
        self.popped += 1;
        self.now = at;
        Some((at, event))
    }

    /// Pops the next event only when it is due at exactly the current
    /// instant **and** `pred` accepts it; otherwise leaves the queue
    /// untouched and returns `None`.
    ///
    /// This is the flit-burst batching hook: after popping one event, a
    /// simulation can drain every coincident sibling (same instant, same
    /// kind) and process the burst in one pass instead of re-entering
    /// its dispatch loop per event.
    pub fn pop_coincident<F>(&mut self, pred: F) -> Option<E>
    where
        F: FnOnce(&E) -> bool,
    {
        self.ensure_drain();
        let from_heap = self.front_in_heap()?;
        let (front_at, front) = if from_heap {
            let h = self.heap.peek().expect("peeked event exists");
            (h.at, &h.event)
        } else {
            let &(at, _, node) = self.drain.last().expect("peeked event exists");
            (at, self.slab.get(node))
        };
        if front_at != self.now || !pred(front) {
            return None;
        }
        let (_, event) = self.take_front(from_heap);
        self.pending -= 1;
        self.popped += 1;
        Some(event)
    }

    /// The delivery time of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let near = if let Some(&(at, _, _)) = self.drain.last() {
            Some(at)
        } else if self.in_buckets > 0 {
            let n = self.heads.len() as u64;
            let start = usize::try_from(self.cursor_slot % n).expect("bucket count fits usize");
            let head = self.heads[self.next_occupied(start)];
            self.slab.list(head).map(|(_, n)| n.at).min()
        } else {
            None
        };
        let far = self.heap.peek().map(|s| s.at);
        match (near, far) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Whether there are no pending events.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Nodes the calendar slab has ever allocated.
    #[cfg(test)]
    fn slab_nodes(&self) -> usize {
        self.slab.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs every test body against both engines.
    fn on_both_engines(test: impl Fn(EventQueue<i32>)) {
        test(EventQueue::new());
        test(EventQueue::new_heap_only());
    }

    #[test]
    fn pops_in_time_order() {
        on_both_engines(|mut q| {
            q.schedule(SimTime::from_ns(30), 3);
            q.schedule(SimTime::from_ns(10), 1);
            q.schedule(SimTime::from_ns(20), 2);
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, vec![1, 2, 3]);
        });
    }

    #[test]
    fn ties_break_fifo() {
        on_both_engines(|mut q| {
            let t = SimTime::from_ns(5);
            for i in 0..100 {
                q.schedule(t, i);
            }
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>());
        });
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(7));
        assert_eq!(q.popped(), 1);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), "a");
        q.pop();
        q.schedule_in(SimTime::from_ns(5), "b");
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(15)));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), ());
        q.pop();
        q.schedule(SimTime::from_ns(5), ());
    }

    #[test]
    fn engines_agree_on_a_mixed_schedule() {
        // Near ticks, far timers, same-instant bursts and late merges —
        // the pop order must be identical event for event.
        let mut hybrid = EventQueue::new();
        let mut heap = EventQueue::new_heap_only();
        let mut tag = 0u32;
        for round in 0..50u64 {
            for (q, _) in [(&mut hybrid, 0), (&mut heap, 1)] {
                q.schedule(SimTime::from_ps(round * 2_494), tag);
                q.schedule(SimTime::from_ns(round * 3 + 950), tag + 1);
                q.schedule(SimTime::from_us(round + 10), tag + 2);
                // Same-instant burst.
                q.schedule(SimTime::from_ns(40), tag + 3);
            }
            tag += 4;
        }
        loop {
            let a = hybrid.pop();
            let b = heap.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn engines_agree_under_interleaved_pop_and_schedule() {
        let mut hybrid = EventQueue::new();
        let mut heap = EventQueue::new_heap_only();
        for q in [&mut hybrid, &mut heap] {
            q.schedule(SimTime::from_ns(1), 0);
        }
        // Each popped event reschedules two successors (one near, one
        // far), exercising drain merges and cursor fast-forwarding.
        for step in 0..2_000u64 {
            let a = hybrid.pop();
            let b = heap.pop();
            assert_eq!(a, b, "step {step}");
            let Some((_, v)) = a else { break };
            if v < 300 {
                for q in [&mut hybrid, &mut heap] {
                    q.schedule_in(SimTime::from_ps(2_494), v + 1);
                    q.schedule_in(SimTime::from_us(5), v + 2);
                }
            }
        }
    }

    #[test]
    fn far_future_events_cross_the_calendar_horizon() {
        let mut q = EventQueue::new();
        // Beyond the ~4.2 µs calendar window: takes the heap path.
        q.schedule(SimTime::from_us(50_000), "far");
        q.schedule(SimTime::from_ns(3), "near");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.now(), SimTime::from_us(50_000));
        // After the jump the calendar re-anchors at the present.
        q.schedule_in(SimTime::from_ns(1), "tail");
        assert_eq!(q.pop().unwrap().1, "tail");
    }

    #[test]
    fn pop_coincident_drains_same_instant_only() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        q.schedule(t, 1);
        q.schedule(t, 2);
        q.schedule(t, 3);
        q.schedule(SimTime::from_ns(6), 4);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop_coincident(|e| *e == 2), Some(2));
        // Predicate rejection leaves the event queued.
        assert_eq!(q.pop_coincident(|e| *e == 99), None);
        assert_eq!(q.pop_coincident(|_| true), Some(3));
        // Next event is at a later instant: not coincident.
        assert_eq!(q.pop_coincident(|_| true), None);
        assert_eq!(q.pop().unwrap().1, 4);
    }

    #[test]
    fn slab_never_outgrows_the_peak_pending_count() {
        // K events stay pending while the clock laps the calendar three
        // times: each pop schedules one successor 1–7 buckets ahead, so
        // events pass through every one of the 1,024 buckets. Freed
        // nodes are reused, so the slab never holds more than K nodes
        // however many buckets the events have visited, and the pop
        // order matches the reference heap event for event.
        const K: u64 = 48;
        let bucket = 1u64 << SLOT_SHIFT;
        let mut q = EventQueue::new();
        let mut reference = EventQueue::new_heap_only();
        for i in 0..K {
            let at = SimTime::from_ps(i * bucket / 8);
            q.schedule(at, i);
            reference.schedule(at, i);
        }
        let mut visited = vec![false; NUM_BUCKETS];
        let laps = SimTime::from_ps(3 * bucket * NUM_BUCKETS as u64);
        let mut tag = K;
        while q.now() < laps {
            let popped = q.pop();
            assert_eq!(popped, reference.pop());
            let (at, _) = popped.expect("K events stay pending");
            visited[usize::try_from(q.slot_of(at) % NUM_BUCKETS as u64).expect("bucket")] = true;
            let delay = SimTime::from_ps((1 + tag % 7) * bucket - tag % 3);
            q.schedule_in(delay, tag);
            reference.schedule_in(delay, tag);
            tag += 1;
            assert_eq!(q.len() as u64, K);
            assert!(
                q.slab_nodes() as u64 <= K,
                "after {tag} events: slab {} > {K} pending",
                q.slab_nodes()
            );
        }
        assert!(visited.iter().all(|&v| v), "every bucket took events");
        // Interleaved pops, near reschedules, late merges into the drain
        // and far timers on the heap: the bound holds after every step.
        let mut q = EventQueue::new();
        let mut peak = 0;
        for step in 0..5_000u64 {
            let (_, (lap, i)) = q.pop().unwrap_or((q.now(), (0, 0)));
            for k in 0..(1 + step % 3) {
                let delay = match (step + k) % 4 {
                    0 => SimTime::ZERO,
                    1 => SimTime::from_ps(2_494),
                    2 => SimTime::from_ns(950),
                    _ => SimTime::from_us(9),
                };
                q.schedule_in(delay, (lap + 1, i + k));
                peak = peak.max(q.len());
            }
            if step % 200 == 199 {
                while q.len() > 8 {
                    q.pop();
                }
            }
            assert!(
                q.slab_nodes() <= peak,
                "step {step}: slab {} > peak pending {peak}",
                q.slab_nodes()
            );
        }
    }

    #[test]
    fn late_schedule_into_ingested_window_merges_in_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(100), 1);
        q.schedule(SimTime::from_ns(100), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        // now == 100 ns; the 100 ns slot is already ingested into the
        // drain, so this merges mid-drain and must pop FIFO after 2.
        q.schedule(SimTime::from_ns(100), 3);
        q.schedule(SimTime::from_ps(100_500), 4);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
    }
}
