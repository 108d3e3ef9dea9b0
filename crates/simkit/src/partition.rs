//! Conservative time-window partition runner: the parallel simulation
//! core behind the partitioned fabric engine.
//!
//! A simulation is cut into **partitions**, each a self-contained
//! discrete-event engine. Partitions interact only through timestamped
//! messages whose delivery lags their send by at least the **lookahead**
//! — in the fabric, the minimum latency of any link crossing a
//! partition boundary. That bound is exactly what conservative parallel
//! DES needs: within a window no partition can receive anything that
//! would rewrite its past, so every partition may run independently.
//!
//! Each round the runner:
//!
//! 1. takes the earliest pending event time across all partitions,
//!    `t_min`, and sets the window bound to `t_min + lookahead`;
//! 2. lets every partition process its local events strictly before the
//!    bound, buffering outgoing cross-partition messages in an
//!    [`Outbox`] (every message processed this window is stamped at or
//!    after its send time plus the lookahead, hence at or after the
//!    bound — the runner rejects violations with a typed error);
//! 3. exchanges the outboxes at a barrier and delivers every message in
//!    the total order `(destination, at, source, source-sequence)`.
//!
//! Worker count is an execution detail: partitions are dealt round-robin
//! onto workers, and because the window bound, the message order and
//! each partition's internal execution are all independent of scheduling,
//! **one worker and N workers produce bit-identical simulations**. The
//! `partitioned_determinism` suite pins that guarantee over the fabric.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use crate::time::SimTime;

/// Sentinel for "no pending events" in the per-worker minimum slots.
const IDLE: u64 = u64::MAX;

/// One partition of a conservatively synchronized simulation.
///
/// Implementations are sequential simulations; all cross-thread
/// machinery lives in [`run_conservative`].
pub trait Partition {
    /// Cross-partition message payload.
    type Msg: Send;
    /// Partition-level failure.
    type Error: Send;

    /// Delivery time of the partition's earliest pending event.
    fn next_event_time(&self) -> Option<SimTime>;

    /// Processes every local event strictly before `bound`, sending
    /// cross-partition traffic through `outbox`. Events scheduled at or
    /// after `bound` must stay queued for a later window.
    ///
    /// # Errors
    ///
    /// Propagates the partition's own simulation failures.
    fn run_window(
        &mut self,
        bound: SimTime,
        outbox: &mut Outbox<Self::Msg>,
    ) -> Result<(), Self::Error>;

    /// Accepts one cross-partition message for local effect at `at`
    /// (never earlier than the window bound it was exchanged under).
    ///
    /// # Errors
    ///
    /// Propagates the partition's own simulation failures.
    fn deliver(&mut self, at: SimTime, msg: Self::Msg) -> Result<(), Self::Error>;
}

/// A cross-partition message in flight between two barrier exchanges.
#[derive(Debug)]
struct Envelope<M> {
    dest: usize,
    at: SimTime,
    src: usize,
    seq: u64,
    msg: M,
}

impl<M> Envelope<M> {
    /// The total delivery order: destination partition first (so one
    /// worker's deliveries group), then time, then source and source
    /// sequence as deterministic tie-breaks.
    fn key(&self) -> (usize, SimTime, usize, u64) {
        (self.dest, self.at, self.src, self.seq)
    }
}

/// Per-partition buffer of outgoing cross-partition messages for the
/// current window. Sequence numbers are per source partition and
/// monotonic over the whole run, giving ties a scheduling-independent
/// order.
#[derive(Debug)]
pub struct Outbox<M> {
    src: usize,
    seq: u64,
    msgs: Vec<Envelope<M>>,
}

impl<M> Outbox<M> {
    fn new(src: usize) -> Self {
        Outbox {
            src,
            seq: 0,
            msgs: Vec::new(),
        }
    }

    /// Sends `msg` to partition `dest` for effect at `at`. The runner
    /// rejects the whole window if `at` precedes the window bound — the
    /// sender must add at least the lookahead to its current instant.
    pub fn send(&mut self, dest: usize, at: SimTime, msg: M) {
        self.msgs.push(Envelope {
            dest,
            at,
            src: self.src,
            seq: self.seq,
            msg,
        });
        self.seq += 1;
    }

    /// The partition index this outbox belongs to.
    pub fn source(&self) -> usize {
        self.src
    }
}

/// Why a conservative run stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError<E> {
    /// A zero lookahead admits same-instant cross-partition effects,
    /// which no conservative window can order; refuse up front.
    ZeroLookahead,
    /// The partition set was empty.
    NoPartitions,
    /// A message named a partition index outside the set.
    UnknownDestination {
        /// The bogus index.
        dest: usize,
        /// Number of partitions in the run.
        partitions: usize,
    },
    /// A message was stamped earlier than the window bound it was sent
    /// under — the sender undercut the lookahead contract.
    LookaheadViolation {
        /// The offending delivery time.
        at: SimTime,
        /// The window bound in force.
        bound: SimTime,
        /// Sending partition.
        src: usize,
        /// Destination partition.
        dest: usize,
    },
    /// A partition's own simulation failed.
    Partition(E),
}

impl<E: std::fmt::Display> std::fmt::Display for PartitionError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::ZeroLookahead => {
                write!(f, "conservative windows need a nonzero lookahead")
            }
            PartitionError::NoPartitions => write!(f, "no partitions to run"),
            PartitionError::UnknownDestination { dest, partitions } => {
                write!(f, "message to partition {dest} of {partitions}")
            }
            PartitionError::LookaheadViolation {
                at,
                bound,
                src,
                dest,
            } => write!(
                f,
                "partition {src} sent {dest} a message at {at}, before the window bound {bound}"
            ),
            PartitionError::Partition(e) => write!(f, "partition failed: {e}"),
        }
    }
}

impl<E: std::fmt::Debug + std::fmt::Display> std::error::Error for PartitionError<E> {}

/// Observable clock for benchmark instrumentation: [`run_conservative_timed`]
/// brackets each worker's window execution with [`WindowClock::stamp`]
/// and reports the per-worker busy sums. Simulation crates pass
/// [`NullClock`]; only benchmark harnesses (where wall-clock reads are
/// sanctioned) provide a real one.
pub trait WindowClock: Sync {
    /// A monotonic stamp in the clock's own units (e.g. nanoseconds).
    fn stamp(&self) -> u64;
}

/// The no-op clock: busy times read zero.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullClock;

impl WindowClock for NullClock {
    fn stamp(&self) -> u64 {
        0
    }
}

/// What a conservative run did, in scheduling-independent numbers plus
/// per-worker busy time in [`WindowClock`] units (the one quantity that
/// legitimately varies with worker count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStats {
    /// Windows executed (barrier rounds).
    pub windows: u64,
    /// Cross-partition messages exchanged.
    pub messages: u64,
    /// Per-worker busy time: the sum of each worker's window-execution
    /// stamps, excluding barrier waits. The maximum entry is the
    /// parallel critical path.
    pub busy: Vec<u64>,
    /// Per-worker time spent waiting at the round barriers, in
    /// [`WindowClock`] units — the synchronization overhead the busy
    /// sums exclude. All zeros under [`NullClock`] and on the
    /// single-worker path (which has no barriers).
    pub barrier_stall: Vec<u64>,
    /// Per-*partition* window occupancy: in how many windows each
    /// partition had work admitted (its earliest event fell before the
    /// bound). Derived purely from event times, so the counts are
    /// bit-identical for every worker count — a shard whose occupancy
    /// tracks `windows` is saturated; one far below it mostly idles at
    /// the barrier.
    pub occupancy: Vec<u64>,
}

impl RunStats {
    /// The longest per-worker busy time — the run's critical path in
    /// [`WindowClock`] units.
    pub fn critical_path(&self) -> u64 {
        self.busy.iter().copied().max().unwrap_or(0)
    }
}

/// The conservative window bound for one round: the earliest pending
/// event across all partitions plus the lookahead. `None` when every
/// partition is drained (the run is over).
///
/// This is the safety argument in one line: every event processed this
/// round is at or after the returned `t_min`, so any message it sends
/// arrives at or after `t_min + lookahead` — the bound itself. Nothing
/// delivered at the barrier can land in a partition's processed past.
pub fn window_bound<I>(next_times: I, lookahead: SimTime) -> Option<SimTime>
where
    I: IntoIterator<Item = Option<SimTime>>,
{
    next_times
        .into_iter()
        .flatten()
        .min()
        .map(|t| t.checked_add(lookahead).expect("window bound fits SimTime"))
}

/// Runs `parts` to completion under conservative windows of `lookahead`,
/// on `workers` threads (1 runs inline). See the module docs for the
/// synchronization protocol; the output is bit-identical for every
/// worker count.
///
/// # Errors
///
/// Typed setup and protocol failures ([`PartitionError`]); partition
/// simulation errors come back wrapped in [`PartitionError::Partition`].
pub fn run_conservative<P>(
    parts: &mut [P],
    lookahead: SimTime,
    workers: usize,
) -> Result<RunStats, PartitionError<P::Error>>
where
    P: Partition + Send,
{
    run_conservative_timed(parts, lookahead, workers, &NullClock)
}

/// [`run_conservative`] with a benchmark clock: per-worker busy time
/// lands in [`RunStats::busy`].
///
/// # Errors
///
/// As [`run_conservative`].
pub fn run_conservative_timed<P, K>(
    parts: &mut [P],
    lookahead: SimTime,
    workers: usize,
    clock: &K,
) -> Result<RunStats, PartitionError<P::Error>>
where
    P: Partition + Send,
    K: WindowClock,
{
    if parts.is_empty() {
        return Err(PartitionError::NoPartitions);
    }
    if lookahead == SimTime::ZERO {
        return Err(PartitionError::ZeroLookahead);
    }
    let workers = workers.max(1).min(parts.len());
    if workers == 1 {
        run_sequential(parts, lookahead, clock)
    } else {
        run_parallel(parts, lookahead, workers, clock)
    }
}

/// Checks one window's outgoing envelopes against the lookahead
/// contract and the partition set.
fn validate<M, E>(
    envs: &[Envelope<M>],
    bound: SimTime,
    partitions: usize,
) -> Result<(), PartitionError<E>> {
    for env in envs {
        if env.dest >= partitions {
            return Err(PartitionError::UnknownDestination {
                dest: env.dest,
                partitions,
            });
        }
        if env.at < bound {
            return Err(PartitionError::LookaheadViolation {
                at: env.at,
                bound,
                src: env.src,
                dest: env.dest,
            });
        }
    }
    Ok(())
}

/// The single-worker reference execution: the same window structure,
/// bound computation and delivery order as the parallel path, run
/// inline. The determinism guarantee is that [`run_parallel`] matches
/// this bit for bit.
fn run_sequential<P, K>(
    parts: &mut [P],
    lookahead: SimTime,
    clock: &K,
) -> Result<RunStats, PartitionError<P::Error>>
where
    P: Partition,
    K: WindowClock,
{
    let n = parts.len();
    let mut outboxes: Vec<Outbox<P::Msg>> = (0..n).map(Outbox::new).collect();
    let mut pending: Vec<Envelope<P::Msg>> = Vec::new();
    let mut stats = RunStats {
        windows: 0,
        messages: 0,
        busy: vec![0],
        barrier_stall: vec![0],
        occupancy: vec![0; n],
    };
    loop {
        let Some(bound) = window_bound(parts.iter().map(Partition::next_event_time), lookahead)
        else {
            return Ok(stats);
        };
        stats.windows += 1;
        let t0 = clock.stamp();
        for (i, (part, outbox)) in parts.iter_mut().zip(outboxes.iter_mut()).enumerate() {
            if part.next_event_time().is_some_and(|t| t < bound) {
                stats.occupancy[i] += 1;
            }
            part.run_window(bound, outbox)
                .map_err(PartitionError::Partition)?;
        }
        stats.busy[0] += clock.stamp().saturating_sub(t0);
        pending.clear();
        for outbox in &mut outboxes {
            pending.append(&mut outbox.msgs);
        }
        validate(&pending, bound, n)?;
        pending.sort_unstable_by_key(Envelope::key);
        stats.messages += pending.len() as u64;
        for env in pending.drain(..) {
            parts[env.dest]
                .deliver(env.at, env.msg)
                .map_err(PartitionError::Partition)?;
        }
    }
}

/// One worker's share of the partitions, each with its global index and
/// its outbox.
type Share<'a, P> = Vec<(usize, &'a mut P, Outbox<<P as Partition>::Msg>)>;

/// The threaded execution: partitions are dealt round-robin onto
/// `workers` persistent scoped threads that advance in lockstep through
/// three barriers per round — publish local minima, exchange mail,
/// deliver — so every round's bound and delivery order replay the
/// sequential reference exactly.
fn run_parallel<P, K>(
    parts: &mut [P],
    lookahead: SimTime,
    workers: usize,
    clock: &K,
) -> Result<RunStats, PartitionError<P::Error>>
where
    P: Partition + Send,
    K: WindowClock,
{
    let n = parts.len();
    // Deal partitions (with their outboxes and global indices) onto
    // workers round-robin; each worker owns its slice exclusively.
    let mut owned: Vec<Share<'_, P>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, part) in parts.iter_mut().enumerate() {
        owned[i % workers].push((i, part, Outbox::new(i)));
    }

    let mins: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(IDLE)).collect();
    let busy: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let stall: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let occupancy: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    // Destination-worker mailboxes: senders append under the lock at
    // window end; the owner drains its own box after the barrier.
    let mail: Vec<Mutex<Vec<Envelope<P::Msg>>>> =
        (0..workers).map(|_| Mutex::new(Vec::new())).collect();
    let barrier = Barrier::new(workers);
    let fail: Mutex<Option<PartitionError<P::Error>>> = Mutex::new(None);
    let windows = AtomicU64::new(0);
    let messages = AtomicU64::new(0);

    let mins = &mins;
    let busy = &busy;
    let stall = &stall;
    let occupancy = &occupancy;
    let mail = &mail;
    let barrier = &barrier;
    let fail = &fail;
    let windows = &windows;
    let messages = &messages;

    std::thread::scope(|scope| {
        for (w, mut local) in owned.into_iter().enumerate() {
            scope.spawn(move || {
                let mut incoming: Vec<Envelope<P::Msg>> = Vec::new();
                loop {
                    // Phase A: check for failure, then publish this
                    // worker's earliest event. The failure flag is only
                    // ever written between barrier 1 and barrier 3 of a
                    // round (run/validate errors before barrier 2,
                    // delivery errors before barrier 3), so here —
                    // after barrier 3, before barrier 1 — it is frozen
                    // and every worker reads the same value. Checking it
                    // after barrier 1 instead would race with a faster
                    // worker already erroring inside the new round and
                    // strand the others at the next barrier.
                    if fail.lock().expect("partition failure lock poisoned").is_some() {
                        return;
                    }
                    let local_min = local
                        .iter()
                        .filter_map(|(_, p, _)| p.next_event_time())
                        .min()
                        .map_or(IDLE, SimTime::as_ps);
                    mins[w].store(local_min, Ordering::SeqCst);
                    let b0 = clock.stamp();
                    barrier.wait();
                    stall[w].fetch_add(clock.stamp().saturating_sub(b0), Ordering::Relaxed);

                    // Phase B: agree on the round. Every worker reads the
                    // same published slots, so all take the same branch.
                    let global = mins
                        .iter()
                        .map(|m| m.load(Ordering::SeqCst))
                        .min()
                        .unwrap_or(IDLE);
                    if global == IDLE {
                        return;
                    }
                    if w == 0 {
                        windows.fetch_add(1, Ordering::Relaxed);
                    }
                    let bound = SimTime::from_ps(global)
                        .checked_add(lookahead)
                        .expect("window bound fits SimTime");

                    // Phase C: run the window, then post outgoing mail to
                    // each destination worker's box.
                    let t0 = clock.stamp();
                    for (idx, part, outbox) in &mut local {
                        if part.next_event_time().is_some_and(|t| t < bound) {
                            occupancy[*idx].fetch_add(1, Ordering::Relaxed);
                        }
                        if let Err(e) = part.run_window(bound, outbox) {
                            let mut slot =
                                fail.lock().expect("partition failure lock poisoned");
                            slot.get_or_insert(PartitionError::Partition(e));
                            break;
                        }
                    }
                    busy[w].fetch_add(clock.stamp().saturating_sub(t0), Ordering::Relaxed);
                    for (_, _, outbox) in &mut local {
                        if let Err(e) = validate(&outbox.msgs, bound, n) {
                            let mut slot =
                                fail.lock().expect("partition failure lock poisoned");
                            slot.get_or_insert(e);
                            outbox.msgs.clear();
                            continue;
                        }
                        messages.fetch_add(outbox.msgs.len() as u64, Ordering::Relaxed);
                        for env in outbox.msgs.drain(..) {
                            let dw = env.dest % workers;
                            mail[dw]
                                .lock()
                                .expect("partition mailbox lock poisoned")
                                .push(env);
                        }
                    }
                    let b1 = clock.stamp();
                    barrier.wait();
                    stall[w].fetch_add(clock.stamp().saturating_sub(b1), Ordering::Relaxed);

                    // Phase D: drain own mail in the canonical order and
                    // deliver. (dest, at, src, seq) is a total order, so
                    // the arrival interleaving at the mailbox is erased.
                    incoming.clear();
                    incoming.append(
                        &mut mail[w].lock().expect("partition mailbox lock poisoned"),
                    );
                    incoming.sort_unstable_by_key(Envelope::key);
                    for env in incoming.drain(..) {
                        let slot_idx = env.dest / workers;
                        let (idx, part, _) = &mut local[slot_idx];
                        debug_assert_eq!(*idx, env.dest);
                        if let Err(e) = part.deliver(env.at, env.msg) {
                            let mut slot =
                                fail.lock().expect("partition failure lock poisoned");
                            slot.get_or_insert(PartitionError::Partition(e));
                        }
                    }
                    let b2 = clock.stamp();
                    barrier.wait();
                    stall[w].fetch_add(clock.stamp().saturating_sub(b2), Ordering::Relaxed);
                }
            });
        }
    });

    if let Some(e) = fail
        .lock()
        .expect("partition failure lock poisoned")
        .take()
    {
        return Err(e);
    }
    Ok(RunStats {
        windows: windows.load(Ordering::Relaxed),
        messages: messages.load(Ordering::Relaxed),
        busy: busy.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        barrier_stall: stall.iter().map(|s| s.load(Ordering::Relaxed)).collect(),
        occupancy: occupancy.iter().map(|o| o.load(Ordering::Relaxed)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;

    /// A toy partition: a queue of u64 markers; each processed marker
    /// optionally forwards a successor to the next partition after
    /// `hop` (>= the run's lookahead).
    struct Node {
        id: usize,
        ring: usize,
        hop: SimTime,
        budget: u64,
        queue: EventQueue<u64>,
        log: Vec<(SimTime, u64)>,
    }

    impl Node {
        fn new(id: usize, ring: usize, hop: SimTime, seed_events: u64, budget: u64) -> Self {
            let mut queue = EventQueue::new();
            for i in 0..seed_events {
                queue.schedule(SimTime::from_ns(1 + i), id as u64 * 1000 + i);
            }
            Node {
                id,
                ring,
                hop,
                budget,
                queue,
                log: Vec::new(),
            }
        }
    }

    impl Partition for Node {
        type Msg = u64;
        type Error = std::convert::Infallible;

        fn next_event_time(&self) -> Option<SimTime> {
            self.queue.peek_time()
        }

        fn run_window(
            &mut self,
            bound: SimTime,
            outbox: &mut Outbox<u64>,
        ) -> Result<(), Self::Error> {
            while self.queue.peek_time().is_some_and(|t| t < bound) {
                let (t, marker) = self.queue.pop().expect("peeked event exists");
                self.log.push((t, marker));
                if self.budget > 0 {
                    self.budget -= 1;
                    outbox.send((self.id + 1) % self.ring, t + self.hop, marker + 1);
                }
            }
            Ok(())
        }

        fn deliver(&mut self, at: SimTime, msg: u64) -> Result<(), Self::Error> {
            self.queue.schedule(at, msg);
            Ok(())
        }
    }

    fn ring(n: usize, hop: SimTime, budget: u64) -> Vec<Node> {
        (0..n).map(|i| Node::new(i, n, hop, 4, budget)).collect()
    }

    /// Per node: its id, its event log and its popped-event count.
    type Digest = Vec<(usize, Vec<(SimTime, u64)>, u64)>;

    fn digest(parts: &[Node]) -> Digest {
        parts
            .iter()
            .map(|p| (p.id, p.log.clone(), p.queue.popped()))
            .collect()
    }

    #[test]
    fn one_vs_n_workers_is_bit_identical() {
        let hop = SimTime::from_ns(50);
        let mut reference = ring(5, hop, 20);
        let ref_stats =
            run_conservative(&mut reference, hop, 1).expect("sequential run succeeds");
        for workers in [2, 3, 5, 8] {
            let mut parts = ring(5, hop, 20);
            let stats = run_conservative(&mut parts, hop, workers)
                .expect("parallel run succeeds");
            assert_eq!(digest(&parts), digest(&reference), "workers={workers}");
            assert_eq!(stats.windows, ref_stats.windows, "workers={workers}");
            assert_eq!(stats.messages, ref_stats.messages, "workers={workers}");
            assert_eq!(stats.occupancy, ref_stats.occupancy, "workers={workers}");
        }
    }

    #[test]
    fn occupancy_counts_admitted_windows_and_null_clock_stalls_are_zero() {
        let hop = SimTime::from_ns(50);
        let mut parts = ring(4, hop, 10);
        let stats = run_conservative(&mut parts, hop, 2).expect("run succeeds");
        assert_eq!(stats.occupancy.len(), 4);
        // Every node seeds events, so each occupies at least one window,
        // and no count can exceed the number of windows run.
        for (i, &o) in stats.occupancy.iter().enumerate() {
            assert!(o >= 1, "partition {i} never occupied a window");
            assert!(o <= stats.windows);
        }
        // NullClock: busy and barrier-stall sums must all read zero.
        assert!(stats.busy.iter().all(|&b| b == 0));
        assert!(stats.barrier_stall.iter().all(|&s| s == 0));
    }

    #[test]
    fn lookahead_violations_are_typed_errors() {
        // A hop shorter than the lookahead undercuts the window bound.
        let mut parts = ring(3, SimTime::from_ns(10), 20);
        let err = run_conservative(&mut parts, SimTime::from_ns(40), 2).unwrap_err();
        assert!(
            matches!(err, PartitionError::LookaheadViolation { at, bound, .. } if at < bound),
            "{err:?}"
        );
    }

    #[test]
    fn zero_lookahead_is_refused() {
        let mut parts = ring(2, SimTime::from_ns(10), 1);
        assert_eq!(
            run_conservative(&mut parts, SimTime::ZERO, 2).unwrap_err(),
            PartitionError::ZeroLookahead,
        );
    }

    #[test]
    fn empty_partition_set_is_refused() {
        let mut parts: Vec<Node> = Vec::new();
        assert_eq!(
            run_conservative(&mut parts, SimTime::from_ns(1), 2).unwrap_err(),
            PartitionError::NoPartitions,
        );
    }

    #[test]
    fn window_bound_is_min_plus_lookahead() {
        let times = [
            Some(SimTime::from_ns(30)),
            None,
            Some(SimTime::from_ns(12)),
        ];
        assert_eq!(
            window_bound(times, SimTime::from_ns(5)),
            Some(SimTime::from_ns(17))
        );
        assert_eq!(window_bound([None, None], SimTime::from_ns(5)), None);
    }

    #[test]
    fn messages_deliver_in_canonical_order_at_ties() {
        // Two sources target partition 0 at the same instant; the
        // (at, src, seq) tie-break must hold for any worker count.
        struct Burst {
            id: usize,
            queue: EventQueue<u64>,
            seen: Vec<u64>,
        }
        impl Partition for Burst {
            type Msg = u64;
            type Error = std::convert::Infallible;
            fn next_event_time(&self) -> Option<SimTime> {
                self.queue.peek_time()
            }
            fn run_window(
                &mut self,
                bound: SimTime,
                outbox: &mut Outbox<u64>,
            ) -> Result<(), Self::Error> {
                while self.queue.peek_time().is_some_and(|t| t < bound) {
                    let (t, v) = self.queue.pop().expect("peeked event exists");
                    self.seen.push(v);
                    if self.id != 0 {
                        // Both senders aim at the same instant on node 0.
                        outbox.send(0, t + SimTime::from_ns(100), self.id as u64 * 10);
                        outbox.send(0, t + SimTime::from_ns(100), self.id as u64 * 10 + 1);
                    }
                }
                Ok(())
            }
            fn deliver(&mut self, at: SimTime, msg: u64) -> Result<(), Self::Error> {
                self.queue.schedule(at, msg);
                Ok(())
            }
        }
        let make = || -> Vec<Burst> {
            (0..3)
                .map(|id| {
                    let mut queue = EventQueue::new();
                    if id != 0 {
                        queue.schedule(SimTime::from_ns(1), 0);
                    }
                    Burst {
                        id,
                        queue,
                        seen: Vec::new(),
                    }
                })
                .collect()
        };
        let mut reference = make();
        run_conservative(&mut reference, SimTime::from_ns(100), 1)
            .expect("sequential run succeeds");
        // FIFO at node 0 reflects (src, seq) order: 10, 11, 20, 21.
        assert_eq!(reference[0].seen, vec![10, 11, 20, 21]);
        for workers in [2, 3] {
            let mut parts = make();
            run_conservative(&mut parts, SimTime::from_ns(100), workers)
                .expect("parallel run succeeds");
            assert_eq!(parts[0].seen, reference[0].seen, "workers={workers}");
        }
    }
}
