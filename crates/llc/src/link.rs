//! A full-duplex LLC link harness.
//!
//! Couples two [`LlcTx`]/[`LlcRx`] pairs over a pair of [`netsim`]
//! channels and drives them with a discrete-event loop. Data frames route
//! to the peer's receiver; in-band control frames route to the peer's
//! transmitter; injected drops and corruption exercise the replay
//! machinery. Tail loss (the last frame of a burst vanishing) is
//! recovered by an idle-timer replay kick, as in any credible LLC
//! implementation.

use netsim::channel::{Channel, ChannelBuilder};
use netsim::fault::FaultSpec;
use netsim::Delivery;
use simkit::event::EventQueue;
use simkit::time::SimTime;

use crate::endpoint::{LlcRx, LlcTx};
use crate::error::LlcError;
use crate::flit::FlitSized;
use crate::frame::Frame;
use crate::LlcConfig;

/// Idle-timer replay kicks attempted before the link declares
/// [`LlcError::NoProgress`] — only reachable under total loss.
const MAX_REPLAY_KICKS: u32 = 10_000;

/// Which endpoint of the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The "compute" side in datapath terms.
    A,
    /// The "memory" side.
    B,
}

impl Side {
    /// The opposite endpoint.
    pub fn peer(self) -> Side {
        match self {
            Side::A => Side::B,
            Side::B => Side::A,
        }
    }
}

#[derive(Debug)]
enum Ev<T> {
    Arrive {
        to: Side,
        frame: Frame<T>,
        intact: bool,
    },
}

/// A message delivered by the link, with its arrival instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivered<T> {
    /// The side that received the message.
    pub to: Side,
    /// The payload.
    pub msg: T,
    /// Simulated arrival instant.
    pub at: SimTime,
}

/// The full-duplex link: state machines + channels + event loop.
#[derive(Debug)]
pub struct LlcLink<T> {
    tx_a: LlcTx<T>,
    rx_a: LlcRx<T>,
    tx_b: LlcTx<T>,
    rx_b: LlcRx<T>,
    chan_ab: Channel,
    chan_ba: Channel,
    queue: EventQueue<Ev<T>>,
    delivered: Vec<Delivered<T>>,
}

impl<T: FlitSized + Clone> LlcLink<T> {
    /// Builds a link whose two directions share a fault specification.
    pub fn new(config: LlcConfig, faults: FaultSpec, seed: u64) -> Self {
        let chan_ab = ChannelBuilder::thymesisflow_default()
            .faults(faults)
            .seed(seed)
            .build();
        let chan_ba = ChannelBuilder::thymesisflow_default()
            .faults(faults)
            .seed(seed ^ 0xBEEF)
            .build();
        Self::with_channels(config, chan_ab, chan_ba)
    }

    /// Builds a link over caller-provided channels (e.g. bonded or
    /// switch-traversing ones).
    pub(crate) fn with_channels(config: LlcConfig, chan_ab: Channel, chan_ba: Channel) -> Self {
        LlcLink {
            tx_a: LlcTx::new(config),
            rx_a: LlcRx::new(config),
            tx_b: LlcTx::new(config),
            rx_b: LlcRx::new(config),
            chan_ab,
            chan_ba,
            queue: EventQueue::new(),
            delivered: Vec::new(),
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Stages messages for transmission from `side` and pumps the wire.
    ///
    /// # Errors
    ///
    /// Propagates LLC protocol violations from the transmitter.
    pub fn send(&mut self, side: Side, msgs: impl IntoIterator<Item = T>) -> Result<(), LlcError> {
        let tx = self.tx_mut(side);
        for m in msgs {
            tx.offer(m);
        }
        tx.seal();
        self.pump(side)
    }

    fn tx_mut(&mut self, side: Side) -> &mut LlcTx<T> {
        match side {
            Side::A => &mut self.tx_a,
            Side::B => &mut self.tx_b,
        }
    }

    /// Puts every transmittable frame of `side` on the wire.
    fn pump(&mut self, side: Side) -> Result<(), LlcError> {
        let now = self.queue.now();
        while let Some(frame) = self.tx_mut(side).next_transmittable()? {
            self.transmit(side, frame, now);
        }
        Ok(())
    }

    fn transmit(&mut self, from: Side, frame: Frame<T>, now: SimTime) {
        let bytes = frame.wire_bytes();
        let chan = match from {
            Side::A => &mut self.chan_ab,
            Side::B => &mut self.chan_ba,
        };
        match chan.transmit(now, bytes) {
            Delivery::Delivered { at } => self.queue.schedule(
                at.max(now),
                Ev::Arrive {
                    to: from.peer(),
                    frame,
                    intact: true,
                },
            ),
            Delivery::Corrupted { at } => self.queue.schedule(
                at.max(now),
                Ev::Arrive {
                    to: from.peer(),
                    frame,
                    intact: false,
                },
            ),
            Delivery::Dropped => {}
        }
    }

    /// Processes a single event; returns `Ok(false)` when the queue is
    /// empty.
    fn step(&mut self) -> Result<bool, LlcError> {
        let (_, ev) = match self.queue.pop() {
            Some(x) => x,
            None => return Ok(false),
        };
        let Ev::Arrive { to, frame, intact } = ev;
        match frame {
            Frame::Control(c) => {
                // Control frames are single-flit; a corrupted control
                // frame is simply discarded (the protocol re-arms).
                if intact {
                    self.tx_mut(to).on_control(c)?;
                    self.pump(to)?;
                }
            }
            data @ Frame::Data { .. } => {
                let at = self.queue.now();
                let action = match to {
                    Side::A => self.rx_a.on_frame(data, intact)?,
                    Side::B => self.rx_b.on_frame(data, intact)?,
                };
                for msg in action.delivered {
                    self.delivered.push(Delivered { to, msg, at });
                }
                for c in action.replies {
                    self.transmit(to, Frame::Control(c), at);
                }
                self.pump(to)?;
            }
        }
        Ok(true)
    }

    /// Runs until both transmitters have everything acknowledged,
    /// kicking tail replays when the wire goes quiet.
    ///
    /// # Errors
    ///
    /// [`LlcError::NoProgress`] after 10 000 idle-timer kicks — only
    /// reachable when the channel drops literally everything — plus any
    /// protocol violation surfaced by the state machines.
    pub fn run_until_quiescent(&mut self) -> Result<(), LlcError> {
        let mut kicks = 0;
        loop {
            while self.step()? {}
            if self.tx_a.all_acked() && self.tx_b.all_acked() {
                return Ok(());
            }
            kicks += 1;
            if kicks >= MAX_REPLAY_KICKS {
                return Err(LlcError::NoProgress { kicks });
            }
            self.tx_a.kick_tail_replay();
            self.tx_b.kick_tail_replay();
            self.pump(Side::A)?;
            self.pump(Side::B)?;
        }
    }

    /// Convenience: sends `msgs` from A, runs to quiescence and returns
    /// the payloads delivered at B, in order.
    ///
    /// # Errors
    ///
    /// See [`LlcLink::run_until_quiescent`].
    pub fn run_to_completion(&mut self, msgs: Vec<T>) -> Result<Vec<T>, LlcError> {
        self.send(Side::A, msgs)?;
        self.run_until_quiescent()?;
        Ok(self
            .delivered
            .iter()
            .filter(|d| d.to == Side::B)
            .map(|d| d.msg.clone())
            .collect())
    }

    /// Takes both directions of the wire hard-down or restores them —
    /// failure injection for loss-burst testing. While down every frame
    /// handed to the wire is silently lost, exactly what a cut cable
    /// looks like; serialization state survives restoration.
    pub fn set_link_down(&mut self, down: bool) {
        self.chan_ab.set_down(down);
        self.chan_ba.set_down(down);
    }

    /// Everything delivered so far, with timestamps.
    pub fn deliveries(&self) -> &[Delivered<T>] {
        &self.delivered
    }

    /// Frames replayed by either transmitter.
    pub fn total_replays(&self) -> u64 {
        self.tx_a.frames_replayed() + self.tx_b.frames_replayed()
    }

    /// Statistics of the A-side transmitter.
    pub fn tx_a(&self) -> &LlcTx<T> {
        &self.tx_a
    }

    /// Asserts flit conservation on both transmitters and credit
    /// conservation on both credit pools.
    ///
    /// # Panics
    ///
    /// Panics when either invariant is violated.
    #[cfg(feature = "sanitize")]
    pub fn assert_conservation(&self) {
        self.tx_a.assert_flit_conservation();
        self.tx_b.assert_flit_conservation();
        self.tx_a.credits().assert_conserved();
        self.tx_b.credits().assert_conserved();
    }

    /// Sanitizer test hook: leaks one retained frame on `side`'s
    /// transmitter (see [`LlcTx::leak_replay_frame`]).
    #[cfg(feature = "sanitize")]
    pub fn leak_replay_frame(&mut self, side: Side) {
        self.tx_mut(side).leak_replay_frame();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Msg = (u32, usize);

    fn msgs(n: u32) -> Vec<Msg> {
        (0..n).map(|i| (i, 1 + (i as usize % 5))).collect()
    }

    #[test]
    fn lossless_link_delivers_everything_in_order() {
        let mut link = LlcLink::new(LlcConfig::default(), FaultSpec::LOSSLESS, 1);
        let sent = msgs(500);
        let got = link.run_to_completion(sent.clone()).unwrap();
        assert_eq!(got, sent);
        assert_eq!(link.total_replays(), 0);
    }

    #[test]
    fn lossy_link_delivers_exactly_once_in_order() {
        for seed in 0..5 {
            let mut link =
                LlcLink::new(LlcConfig::default(), FaultSpec::new(0.08, 0.08), seed);
            let sent = msgs(300);
            let got = link.run_to_completion(sent.clone()).unwrap();
            assert_eq!(got, sent, "seed {seed}");
            assert!(link.total_replays() > 0, "seed {seed} saw no replays");
        }
    }

    #[test]
    fn bidirectional_traffic() {
        let mut link = LlcLink::new(LlcConfig::default(), FaultSpec::new(0.05, 0.0), 9);
        link.send(Side::A, msgs(100)).unwrap();
        link.send(Side::B, msgs(100)).unwrap();
        link.run_until_quiescent().unwrap();
        let to_b: Vec<Msg> = link
            .deliveries()
            .iter()
            .filter(|d| d.to == Side::B)
            .map(|d| d.msg)
            .collect();
        let to_a: Vec<Msg> = link
            .deliveries()
            .iter()
            .filter(|d| d.to == Side::A)
            .map(|d| d.msg)
            .collect();
        assert_eq!(to_b, msgs(100));
        assert_eq!(to_a, msgs(100));
    }

    #[test]
    fn delivery_times_are_monotone_per_side() {
        let mut link = LlcLink::new(LlcConfig::default(), FaultSpec::new(0.1, 0.1), 3);
        link.run_to_completion(msgs(200)).unwrap();
        let times: Vec<_> = link
            .deliveries()
            .iter()
            .filter(|d| d.to == Side::B)
            .map(|d| d.at)
            .collect();
        for w in times.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn first_delivery_latency_includes_flight_time() {
        let mut link = LlcLink::new(LlcConfig::default(), FaultSpec::LOSSLESS, 1);
        link.run_to_completion(vec![(0u32, 1usize)]).unwrap();
        let first = &link.deliveries()[0];
        // One serDES crossing + cable + one 256 B frame serialization.
        assert!(first.at.as_ns() > 100, "{}", first.at);
        assert!(first.at.as_ns() < 160, "{}", first.at);
    }

    #[test]
    fn total_loss_is_detected() {
        let mut link = LlcLink::new(LlcConfig::default(), FaultSpec::new(1.0, 0.0), 1);
        let got = link.run_to_completion(msgs(4));
        assert!(matches!(got, Err(LlcError::NoProgress { .. })), "{got:?}");
    }
}
