//! LLC transmit/receive state machines.
//!
//! A full-duplex LLC link instantiates one [`LlcTx`] and one [`LlcRx`]
//! per side. The machines are pure state — the event timing lives in
//! the `core` crate's fabric, which routes data frames into the peer's
//! `LlcRx` ingress and control frames to the peer's `LlcTx`.
//!
//! Credit discipline: every *first* transmission of a data frame consumes
//! one credit (one Rx ingress slot); credits return only through the
//! cumulative ack that retires delivered frames, one credit per frame
//! leaving the replay buffer. The paper's piggy-backing of credits on
//! transaction headers is not modelled. Replayed frames reuse the credit
//! consumed by their original transmission, so recovery can never
//! deadlock on an empty credit pool.

use std::collections::VecDeque;

use simkit::queue::BoundedFifo;

use crate::credit::CreditCounter;
use crate::error::LlcError;
use crate::flit::FlitSized;
use crate::frame::{assemble_into, Control, Entry, Frame, FrameId};
use crate::replay::ReplayBuffer;
use crate::LlcConfig;

/// How many consecutive discards the Rx tolerates before re-arming a
/// replay request (guards against the request itself being lost).
const REQUEST_REARM_DISCARDS: u32 = 8;

/// The transmit side of one LLC link direction.
#[derive(Debug)]
pub struct LlcTx<T> {
    config: LlcConfig,
    next_id: FrameId,
    staging: Vec<T>,
    /// Reused framing buffer: [`LlcTx::seal`] gathers one frame's
    /// entries here before moving them into the frame's payload.
    entries: Vec<Entry<T>>,
    ready: VecDeque<Frame<T>>,
    retransmit: VecDeque<Frame<T>>,
    credits: CreditCounter,
    replay: ReplayBuffer<T>,
    last_replay_request: Option<FrameId>,
    frames_replayed: u64,
    txns_offered: usize,
    txns_acked: usize,
}

impl<T: FlitSized + Clone> LlcTx<T> {
    /// Creates a transmitter.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`LlcConfig::validate`]); the fabric refuses such a calibration
    /// with a typed error before it builds a link.
    pub fn new(config: LlcConfig) -> Self {
        let checked = config.validate();
        assert!(checked.is_ok(), "inconsistent LLC config: {checked:?}");
        LlcTx {
            next_id: FrameId(config.initial_frame_id),
            staging: Vec::new(),
            entries: Vec::new(),
            ready: VecDeque::new(),
            retransmit: VecDeque::new(),
            credits: CreditCounter::new(config.rx_queue_credits()),
            replay: ReplayBuffer::new(config.replay_window),
            last_replay_request: None,
            frames_replayed: 0,
            txns_offered: 0,
            txns_acked: 0,
            config,
        }
    }

    /// Stages a transaction for framing.
    pub fn offer(&mut self, txn: T) {
        self.txns_offered += 1;
        self.staging.push(txn);
    }

    /// Flits currently staged but not yet framed (drives adaptive
    /// batching: seal when a frame's worth accumulated, or when the
    /// wire would otherwise go idle).
    pub fn staged_flits(&self) -> usize {
        self.staging.iter().map(FlitSized::flits).sum()
    }

    /// Payload flits one frame can carry.
    pub fn frame_payload_flits(&self) -> usize {
        self.config.frame_flits - 1
    }

    /// Assembles every staged transaction into frames, padding the final
    /// partial frame with nops "for immediate transmission". Frames go
    /// straight onto the ready queue; the staging and framing buffers
    /// keep their capacity, so a seal allocates only the payloads.
    pub fn seal(&mut self) {
        if self.staging.is_empty() {
            return;
        }
        let ready = &mut self.ready;
        self.next_id = assemble_into(
            self.staging.drain(..),
            self.config.frame_flits,
            self.next_id,
            &mut self.entries,
            |f| ready.push_back(f),
        );
        self.assert_flit_conservation();
    }

    /// The next frame to put on the wire, if the protocol allows one:
    /// retransmissions first (no new credit), then fresh frames (one
    /// credit each, and room in the replay buffer).
    ///
    /// # Errors
    ///
    /// Propagates retention failures — unreachable while the room check
    /// above holds, but surfaced rather than swallowed.
    pub fn next_transmittable(&mut self) -> Result<Option<Frame<T>>, LlcError> {
        if let Some(f) = self.retransmit.pop_front() {
            self.frames_replayed += 1;
            return Ok(Some(f));
        }
        if self.ready.is_empty() {
            return Ok(None);
        }
        if !self.replay.has_room() || !self.credits.try_consume() {
            return Ok(None);
        }
        let Some(frame) = self.ready.pop_front() else {
            return Ok(None);
        };
        self.replay.retain(frame.clone())?;
        self.assert_flit_conservation();
        Ok(Some(frame))
    }

    /// Handles an in-band control message from the peer's receiver.
    ///
    /// # Errors
    ///
    /// [`LlcError::CreditOverflow`] when an ack would push the credit
    /// pool past its ceiling (a double return).
    pub fn on_control(&mut self, ctrl: Control) -> Result<(), LlcError> {
        match ctrl {
            Control::Ack(through) => {
                // Credits are derived from the *cumulative* ack: every
                // frame leaving the replay buffer frees exactly one Rx
                // ingress slot. Cumulative state self-heals lost acks.
                let before = self.replay.len();
                self.txns_acked += self.replay.ack_through(through);
                let freed = u32::try_from(before - self.replay.len()).unwrap_or(u32::MAX);
                if freed > 0 {
                    self.credits.replenish(freed)?;
                }
                // A new ack re-arms replay-request deduplication.
                if self
                    .last_replay_request
                    .is_some_and(|req| req.seq_le(through))
                {
                    self.last_replay_request = None;
                }
            }
            Control::ReplayRequest(from) => {
                // Duplicate requests for the same point are served once;
                // the receiver re-arms by requesting again after more
                // discards, which shows up as a *different* request only
                // after an intervening ack, so serve repeats too when the
                // retransmit queue already drained.
                if self.last_replay_request == Some(from) && !self.retransmit.is_empty() {
                    return Ok(());
                }
                self.last_replay_request = Some(from);
                self.retransmit = self.replay.frames_from(from).into();
            }
        }
        self.assert_flit_conservation();
        Ok(())
    }

    /// Retransmits everything unacknowledged (tail-loss recovery). A
    /// lost tail leaves no later frame to expose the gap, so a caller
    /// that sees the link quiet with frames outstanding (an idle timer,
    /// a link watchdog) re-queues the whole retained window. It only
    /// retransmits: judging a silent link dead is the caller's job. A
    /// no-op while nothing is retained or a replay is still queued.
    pub fn kick_tail_replay(&mut self) {
        if let Some(oldest) = self.replay.oldest() {
            if self.retransmit.is_empty() {
                self.retransmit = self.replay.frames_from(oldest).into();
            }
        }
    }

    /// Whether any frame is staged, framed, retained or replaying.
    pub fn is_idle(&self) -> bool {
        self.staging.is_empty()
            && self.ready.is_empty()
            && self.retransmit.is_empty()
            && self.replay.is_empty()
    }

    /// The transmitter's credit view.
    pub fn credits(&self) -> &CreditCounter {
        &self.credits
    }

    /// Frames re-transmitted by the replay machinery.
    pub fn frames_replayed(&self) -> u64 {
        self.frames_replayed
    }

    /// Frames framed but blocked (no credit / replay window full).
    pub fn backlog(&self) -> usize {
        self.ready.len() + self.retransmit.len()
    }

    /// Flit conservation: every transaction ever offered is staged,
    /// framed, retained awaiting ack, or acknowledged — none vanish and
    /// none are invented. Retransmissions are clones of retained frames,
    /// so they never double-count. Checked after every state change in
    /// debug builds; release builds compile the check out.
    ///
    /// # Panics
    ///
    /// Panics when a transaction leaked (e.g. a frame silently dropped
    /// from the replay buffer without being acknowledged).
    fn assert_flit_conservation(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let in_ready: usize = self.ready.iter().map(Frame::txn_count).sum();
        let retained = self.replay.txn_count();
        let accounted = self.staging.len() + in_ready + retained + self.txns_acked;
        assert!(
            self.txns_offered == accounted,
            "flit conservation violated: offered {} != staged {} + ready {} + retained {} + acked {}",
            self.txns_offered,
            self.staging.len(),
            in_ready,
            retained,
            self.txns_acked
        );
    }
}

/// What the receiver wants done after processing one arriving frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RxAction<T> {
    /// Transactions delivered in order to the endpoint attachment.
    pub delivered: Vec<T>,
    /// Control messages to send back to the peer's transmitter.
    pub replies: Vec<Control>,
}

impl<T> Default for RxAction<T> {
    fn default() -> Self {
        RxAction {
            delivered: Vec::new(),
            replies: Vec::new(),
        }
    }
}

impl<T> RxAction<T> {
    /// Empties the action for reuse, keeping both buffers' capacity.
    pub fn clear(&mut self) {
        self.delivered.clear();
        self.replies.clear();
    }
}

/// The receive side of one LLC link direction.
#[derive(Debug)]
pub struct LlcRx<T> {
    expected: FrameId,
    ack_every: u64,
    discards_since_request: u32,
    awaiting_replay: bool,
    frames_delivered: u64,
    /// Arriving frames queue here (with their CRC verdict) before the
    /// state machine drains them. Sized by the credit discipline: the
    /// peer holds one credit per slot, so a correct link never fills it.
    ingress: BoundedFifo<(Frame<T>, bool)>,
}

impl<T: FlitSized + Clone> LlcRx<T> {
    /// Creates a receiver expecting the agreed initial frame id.
    ///
    /// # Panics
    ///
    /// As [`LlcTx::new`].
    pub fn new(config: LlcConfig) -> Self {
        let checked = config.validate();
        assert!(checked.is_ok(), "inconsistent LLC config: {checked:?}");
        LlcRx {
            expected: FrameId(config.initial_frame_id),
            ack_every: config.ack_every,
            discards_since_request: 0,
            awaiting_replay: false,
            frames_delivered: 0,
            ingress: BoundedFifo::new(config.rx_queue_frames),
        }
    }

    fn request_replay(&mut self, replies: &mut Vec<Control>) {
        if !self.awaiting_replay || self.discards_since_request >= REQUEST_REARM_DISCARDS {
            replies.push(Control::ReplayRequest(self.expected));
            self.awaiting_replay = true;
            self.discards_since_request = 0;
        }
    }

    /// Processes one arriving frame, `intact` being the CRC verdict the
    /// channel's fault model decided: appends the frame's deliveries and
    /// replies to `out`. Delivered transactions are cloned out of the
    /// payload, which the peer's replay buffer still shares.
    ///
    /// # Errors
    ///
    /// [`LlcError::ControlFrameInDataPath`] when a control frame reaches
    /// the receiver — the link layer must route those to the Tx.
    fn accept(
        &mut self,
        frame: &Frame<T>,
        intact: bool,
        out: &mut RxAction<T>,
    ) -> Result<(), LlcError> {
        let (id, entries) = match frame {
            Frame::Data { id, entries } => (*id, entries),
            Frame::Control(_) => {
                // Control frames are routed to the Tx by the link layer;
                // reaching here is a wiring bug.
                return Err(LlcError::ControlFrameInDataPath);
            }
        };
        if !intact {
            // Header cannot be trusted; ask for in-order replay.
            self.discards_since_request += 1;
            self.request_replay(&mut out.replies);
            return Ok(());
        }
        if id.seq_lt(self.expected) {
            // Duplicate from an over-eager replay: discard, but re-ack so
            // the transmitter can advance its buffer.
            out.replies.push(Control::Ack(self.expected.prev()));
            return Ok(());
        }
        if id.seq_gt(self.expected) {
            // Gap: an earlier frame was lost. The design replays strictly
            // in order, so this frame is discarded and replay requested.
            self.discards_since_request += 1;
            self.request_replay(&mut out.replies);
            return Ok(());
        }
        // In-order delivery.
        self.expected = self.expected.next();
        self.awaiting_replay = false;
        self.discards_since_request = 0;
        self.frames_delivered += 1;
        out.delivered.extend(entries.txns().cloned());
        // Cumulative acks coalesce: every Nth frame carries the ack for
        // everything before it.
        if self.frames_delivered.is_multiple_of(self.ack_every) {
            out.replies.push(Control::Ack(id));
        }
        Ok(())
    }

    /// Queues a burst of arrivals (frame + CRC verdict) into the bounded
    /// ingress in one batched move, then returns how many were taken.
    ///
    /// The burst is consumed front-first; anything left in `arrivals`
    /// did not fit, which on a credited link means the peer transmitted
    /// without holding a credit.
    ///
    /// # Errors
    ///
    /// [`LlcError::RxIngressOverflow`] when the burst exceeds the free
    /// ingress slots.
    pub fn enqueue_arrivals(&mut self, arrivals: &mut Vec<(Frame<T>, bool)>) -> Result<usize, LlcError> {
        let taken = self.ingress.extend_while_free(arrivals);
        if arrivals.is_empty() {
            Ok(taken)
        } else {
            Err(LlcError::RxIngressOverflow {
                capacity: self.ingress.capacity(),
            })
        }
    }

    /// Drains every queued arrival through the state machine, appending
    /// each frame's outcome to the caller-owned `out` (deliveries in
    /// order, replies in order). `out` is
    /// not cleared first, so a caller can keep one action across bursts
    /// and [`RxAction::clear`] it between uses.
    ///
    /// # Errors
    ///
    /// Propagates the first [`LlcError`] from frame processing; frames
    /// queued after the failing one stay in the ingress.
    pub fn drain_ingress(&mut self, out: &mut RxAction<T>) -> Result<(), LlcError> {
        while let Some((frame, intact)) = self.ingress.pop() {
            self.accept(&frame, intact, out)?;
        }
        Ok(())
    }

    /// Occupancy statistics of the bounded ingress queue.
    pub fn ingress_high_water(&self) -> usize {
        self.ingress.high_water()
    }

    /// Frames delivered in order.
    pub fn frames_delivered(&self) -> u64 {
        self.frames_delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Msg = (u32, usize);

    /// The datapath calibration, acking every frame so one exchange
    /// retires everything it sent.
    fn cfg() -> LlcConfig {
        LlcConfig {
            ack_every: 1,
            ..LlcConfig::default()
        }
    }

    fn drain_tx(tx: &mut LlcTx<Msg>) -> Vec<Frame<Msg>> {
        std::iter::from_fn(|| tx.next_transmittable().expect("protocol invariant")).collect()
    }

    /// Hands one arriving frame to the Rx through its credit-checked
    /// ingress, as the fabric does.
    fn deliver(
        rx: &mut LlcRx<Msg>,
        frame: Frame<Msg>,
        intact: bool,
    ) -> Result<RxAction<Msg>, LlcError> {
        rx.enqueue_arrivals(&mut vec![(frame, intact)])?;
        let mut action = RxAction::default();
        rx.drain_ingress(&mut action)?;
        Ok(action)
    }

    #[test]
    fn lossless_exchange_delivers_in_order() {
        let mut tx = LlcTx::new(cfg());
        let mut rx: LlcRx<Msg> = LlcRx::new(cfg());
        for i in 0..40 {
            tx.offer((i, 3));
        }
        tx.seal();
        let mut delivered = Vec::new();
        for frame in drain_tx(&mut tx) {
            let act = deliver(&mut rx, frame, true).unwrap();
            delivered.extend(act.delivered);
            for c in act.replies {
                tx.on_control(c).unwrap();
            }
        }
        assert_eq!(delivered, (0..40).map(|i| (i, 3)).collect::<Vec<_>>());
        assert!(tx.is_idle());
        assert_eq!(tx.txns_offered, 40);
        assert_eq!(tx.txns_acked, 40);
    }

    #[test]
    fn credits_bound_inflight_frames() {
        let mut config = cfg();
        config.rx_queue_frames = 4;
        config.replay_window = 8;
        let mut tx = LlcTx::new(config);
        for i in 0..100 {
            tx.offer((i, 7)); // one txn per frame
        }
        tx.seal();
        // Without any acks/credit returns, at most 4 frames leave.
        let sent = drain_tx(&mut tx);
        assert_eq!(sent.len(), 4);
        assert!(tx.credits().starvation_events() > 0);
    }

    #[test]
    fn dropped_frame_recovers_via_replay_request() {
        let mut tx = LlcTx::new(cfg());
        let mut rx: LlcRx<Msg> = LlcRx::new(cfg());
        for i in 0..3 {
            tx.offer((i, 7));
        }
        tx.seal();
        let frames = drain_tx(&mut tx);
        assert_eq!(frames.len(), 3);
        // Frame 0 delivered; frame 1 dropped; frame 2 arrives out of order.
        let a0 = deliver(&mut rx, frames[0].clone(), true).unwrap();
        for c in a0.replies {
            tx.on_control(c).unwrap();
        }
        let a2 = deliver(&mut rx, frames[2].clone(), true).unwrap();
        assert!(a2.delivered.is_empty());
        assert_eq!(a2.replies, vec![Control::ReplayRequest(FrameId(1))]);
        for c in a2.replies {
            tx.on_control(c).unwrap();
        }
        // Tx replays frames 1 and 2 in order.
        let replayed = drain_tx(&mut tx);
        let ids: Vec<u64> = replayed.iter().map(|f| f.id().unwrap().0).collect();
        assert_eq!(ids, vec![1, 2]);
        let mut got = Vec::new();
        for f in replayed {
            let act = deliver(&mut rx, f, true).unwrap();
            got.extend(act.delivered);
            for c in act.replies {
                tx.on_control(c).unwrap();
            }
        }
        assert_eq!(got, vec![(1, 7), (2, 7)]);
        assert!(tx.is_idle());
        assert_eq!(tx.frames_replayed(), 2);
    }

    #[test]
    fn corrupt_frame_triggers_replay() {
        let mut tx = LlcTx::new(cfg());
        let mut rx: LlcRx<Msg> = LlcRx::new(cfg());
        tx.offer((9, 7));
        tx.seal();
        let f = tx.next_transmittable().unwrap().unwrap();
        let act = deliver(&mut rx, f.clone(), false).unwrap();
        assert!(act.delivered.is_empty());
        assert_eq!(act.replies, vec![Control::ReplayRequest(FrameId(0))]);
        tx.on_control(Control::ReplayRequest(FrameId(0))).unwrap();
        let again = tx.next_transmittable().unwrap().unwrap();
        let act = deliver(&mut rx, again, true).unwrap();
        assert_eq!(act.delivered, vec![(9, 7)]);
    }

    #[test]
    fn duplicates_are_discarded_and_reacked() {
        let mut tx = LlcTx::new(cfg());
        let mut rx: LlcRx<Msg> = LlcRx::new(cfg());
        tx.offer((1, 7));
        tx.seal();
        let f = tx.next_transmittable().unwrap().unwrap();
        let a1 = deliver(&mut rx, f.clone(), true).unwrap();
        assert_eq!(a1.delivered.len(), 1);
        let a2 = deliver(&mut rx, f, true).unwrap();
        assert!(a2.delivered.is_empty());
        assert!(a2.replies.contains(&Control::Ack(FrameId(0))));
    }

    #[test]
    fn replay_requests_are_deduplicated_while_replaying() {
        let mut tx = LlcTx::new(cfg());
        for i in 0..4 {
            tx.offer((i, 7));
        }
        tx.seal();
        let _ = drain_tx(&mut tx);
        tx.on_control(Control::ReplayRequest(FrameId(0))).unwrap();
        assert_eq!(tx.backlog(), 4);
        // A second identical request while the queue is still full is
        // ignored (no doubling).
        tx.on_control(Control::ReplayRequest(FrameId(0))).unwrap();
        assert_eq!(tx.backlog(), 4);
    }

    #[test]
    fn tail_replay_retransmits_unacked() {
        let mut tx = LlcTx::new(cfg());
        tx.offer((3, 7));
        tx.seal();
        let _lost = tx.next_transmittable().unwrap().unwrap();
        assert_eq!(tx.backlog(), 0);
        tx.kick_tail_replay();
        assert_eq!(tx.backlog(), 1);
        let again = tx.next_transmittable().unwrap().unwrap();
        assert_eq!(again.id(), Some(FrameId(0)));
    }

    #[test]
    fn retransmission_shares_payload_with_retained_copy() {
        // The replay buffer and the wire copy must share one payload
        // allocation: retransmit is a refcount bump, not a deep copy.
        let mut tx = LlcTx::new(cfg());
        for i in 0..8 {
            tx.offer((i, 1));
        }
        tx.seal();
        let first = tx.next_transmittable().unwrap().unwrap();
        tx.on_control(Control::ReplayRequest(FrameId(0))).unwrap();
        let replayed = tx.next_transmittable().unwrap().unwrap();
        match (&first, &replayed) {
            (
                Frame::Data { entries: a, .. },
                Frame::Data { entries: b, .. },
            ) => assert!(a.ptr_eq(b), "replayed payload was deep-copied"),
            _ => panic!("expected data frames"),
        }
    }

    #[test]
    fn batched_ingress_delivers_in_order() {
        let mut tx = LlcTx::new(cfg());
        let mut rx: LlcRx<Msg> = LlcRx::new(cfg());
        for i in 0..24 {
            tx.offer((i, 2));
        }
        tx.seal();
        let mut burst: Vec<(Frame<Msg>, bool)> =
            drain_tx(&mut tx).into_iter().map(|f| (f, true)).collect();
        let queued = rx.enqueue_arrivals(&mut burst).unwrap();
        assert!(burst.is_empty());
        let mut act = RxAction::default();
        rx.drain_ingress(&mut act).unwrap();
        assert_eq!(act.delivered, (0..24).map(|i| (i, 2)).collect::<Vec<_>>());
        assert!(rx.ingress_high_water() >= 1);
        assert!(queued >= 1);
        for c in act.replies {
            tx.on_control(c).unwrap();
        }
        assert!(tx.is_idle());
    }

    #[test]
    fn ingress_overflow_is_a_credit_violation() {
        let mut config = cfg();
        config.rx_queue_frames = 2;
        config.ack_every = 1;
        let mut rx: LlcRx<Msg> = LlcRx::new(config);
        let mut burst: Vec<(Frame<Msg>, bool)> = (0..3)
            .map(|i| {
                (
                    Frame::Data {
                        id: FrameId(i),
                        entries: vec![crate::frame::Entry::Txn((0u32, 1usize))].into(),
                    },
                    true,
                )
            })
            .collect();
        assert_eq!(
            rx.enqueue_arrivals(&mut burst),
            Err(LlcError::RxIngressOverflow { capacity: 2 })
        );
        // The two that fit are still queued and deliverable.
        assert_eq!(burst.len(), 1);
        let mut act = RxAction::default();
        rx.drain_ingress(&mut act).unwrap();
        assert_eq!(act.delivered.len(), 2);
    }

    #[test]
    fn delivery_crosses_frame_id_wraparound() {
        // Start the id space two frames shy of the wrap: a 6-frame
        // exchange rolls straight through u64::MAX → 0.
        let mut config = cfg();
        config.initial_frame_id = u64::MAX - 1;
        let mut tx = LlcTx::new(config);
        let mut rx: LlcRx<Msg> = LlcRx::new(config);
        for i in 0..6 {
            tx.offer((i, 7));
        }
        tx.seal();
        let frames = drain_tx(&mut tx);
        assert_eq!(frames.len(), 6);
        // Drop the frame *at* the wrap (id 0), deliver the rest.
        let mut delivered = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            if i == 2 {
                continue; // id 0 lost on the wire
            }
            let act = deliver(&mut rx, f.clone(), true).unwrap();
            delivered.extend(act.delivered);
            for c in act.replies {
                tx.on_control(c).unwrap();
            }
        }
        // Gap detected across the wrap; replay recovers in order.
        let replayed = drain_tx(&mut tx);
        assert!(!replayed.is_empty());
        for f in replayed {
            let act = deliver(&mut rx, f, true).unwrap();
            delivered.extend(act.delivered);
            for c in act.replies {
                tx.on_control(c).unwrap();
            }
        }
        assert_eq!(delivered, (0..6).map(|i| (i, 7)).collect::<Vec<_>>());
        assert!(tx.is_idle());
    }

    #[test]
    fn control_to_rx_is_a_wiring_error() {
        let mut rx: LlcRx<Msg> = LlcRx::new(cfg());
        let got = deliver(&mut rx, Frame::Control(Control::Ack(FrameId(0))), true);
        assert_eq!(got, Err(LlcError::ControlFrameInDataPath));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "flit conservation violated")]
    fn leaked_replay_frame_is_caught() {
        let mut tx = LlcTx::new(cfg());
        for i in 0..4 {
            tx.offer((i, 8));
        }
        tx.seal();
        let _ = drain_tx(&mut tx);
        // Silently drop a retained-but-unacknowledged frame: the next
        // state change finds the accounting unbalanced.
        let _ = tx.replay.leak_one();
        let _ = tx.on_control(Control::Ack(FrameId(1)));
    }
}
