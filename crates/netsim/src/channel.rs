//! A bonded network channel.
//!
//! One ThymesisFlow network channel bonds four serDES lanes at the
//! datalink layer: the LLC presents 32 B flits and the bonded lanes drain
//! them at the aggregate payload rate (≈100 Gbit/s raw, ≈12.1 GB/s of
//! payload after 64b/66b). A channel direction is a serialized resource
//! plus a fixed in-flight latency (serDES crossings at both ends plus the
//! cable), with optional fault injection.

use simkit::bandwidth::{Rate, SerializedLine};
use simkit::time::SimTime;

use crate::cable::DirectAttachCable;
use crate::fault::{Fate, FaultInjector, FaultSpec};
use crate::lane::SerdesLane;
use crate::Delivery;

/// One direction of a bonded channel.
///
/// # Example
///
/// ```
/// use netsim::channel::ChannelBuilder;
/// use simkit::time::SimTime;
///
/// let mut ch = ChannelBuilder::thymesisflow_default().build();
/// let d = ch.transmit(SimTime::ZERO, 256);
/// // one serDES crossing + ~25 ns cable + 256 B serialization.
/// let at = d.arrival().unwrap();
/// assert!(at.as_ns() > 100 && at.as_ns() < 140, "{at}");
/// ```
#[derive(Debug)]
pub struct Channel {
    lane: SerdesLane,
    lanes: usize,
    line: SerializedLine,
    flight_latency: SimTime,
    crossing_latency: SimTime,
    cable_latency: SimTime,
    extra_latency: SimTime,
    faults: FaultInjector,
    frames_sent: u64,
    down: bool,
    /// Frames swallowed while hard-down or that would have landed past
    /// the end of simulated time.
    swallowed: u64,
    lanes_failed: usize,
}

impl Channel {
    /// Aggregate payload rate of the currently-working bonded lanes: the
    /// rate the serializer drains at. A channel whose last lane failed
    /// keeps the rate it had on one lane, but it is hard-down and drops
    /// every frame.
    pub fn payload_rate(&self) -> Rate {
        self.line.rate()
    }

    /// Number of lanes lost to [`Channel::fail_lane`] so far.
    pub fn lanes_failed(&self) -> usize {
        self.lanes_failed
    }

    /// Whether the channel is hard-down (every transmit is lost).
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Takes the channel hard-down or restores it. While down, every
    /// frame handed to [`Channel::transmit`] is silently lost — exactly
    /// what a cut cable looks like to the sender. Serialization state is
    /// kept so a restored link resumes with its FIFO history intact.
    pub fn set_down(&mut self, down: bool) {
        self.down = down;
    }

    /// Fails one bonded lane: the channel keeps running at `N-1` lanes
    /// with proportionally reduced payload bandwidth (frames already
    /// serializing keep their completion instants). Failing the last
    /// lane takes the channel hard-down. Returns the number of lanes
    /// still working.
    pub fn fail_lane(&mut self) -> usize {
        if self.lanes == 0 {
            return 0;
        }
        self.lanes -= 1;
        self.lanes_failed += 1;
        if self.lanes == 0 {
            self.down = true;
        } else {
            self.line.set_rate(Rate::from_bytes_per_sec(
                self.lane.payload_rate().bytes_per_sec() * self.lanes as f64,
            ));
        }
        self.lanes
    }

    /// Fixed in-flight latency (serDES both ends + cable), excluding
    /// serialization.
    pub fn flight_latency(&self) -> SimTime {
        self.flight_latency
    }

    /// The serDES-crossing share of [`Channel::flight_latency`].
    pub fn crossing_latency(&self) -> SimTime {
        self.crossing_latency
    }

    /// The cable-propagation share of [`Channel::flight_latency`].
    pub fn cable_latency(&self) -> SimTime {
        self.cable_latency
    }

    /// The extra fixed latency (e.g. a switch traversal) share of
    /// [`Channel::flight_latency`].
    pub fn extra_latency(&self) -> SimTime {
        self.extra_latency
    }

    /// Transmits one frame of `bytes`, returning its fate and arrival
    /// instant. Frames serialize in FIFO order behind earlier traffic. A
    /// frame whose serialization or flight would end past
    /// [`SimTime::MAX`] never arrives.
    pub fn transmit(&mut self, now: SimTime, bytes: u64) -> Delivery {
        self.frames_sent += 1;
        if self.down {
            self.swallowed += 1;
            return Delivery::Dropped;
        }
        let serialized = self.line.enqueue(now, bytes);
        let Some(at) = serialized
            .checked_add(self.flight_latency)
            .filter(|_| serialized < SimTime::MAX)
        else {
            self.swallowed += 1;
            return Delivery::Dropped;
        };
        match self.faults.roll() {
            Fate::Intact => Delivery::Delivered { at },
            Fate::Corrupt => Delivery::Corrupted { at },
            Fate::Lost => Delivery::Dropped,
        }
    }

    /// When the transmit side next goes idle.
    pub fn free_at(&self) -> SimTime {
        self.line.free_at()
    }

    /// Total frames handed to the channel.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Total payload bytes handed to the channel.
    pub fn bytes_sent(&self) -> u64 {
        self.line.bytes_sent()
    }

    /// Achieved payload throughput over `[0, horizon]`, bytes/second.
    pub fn throughput(&self, horizon: SimTime) -> f64 {
        self.line.throughput(horizon)
    }

    /// Link utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.line.utilization(horizon)
    }

    /// Frames lost by injected faults so far, plus frames swallowed
    /// while the channel was hard-down or that would have landed past
    /// the end of simulated time.
    pub fn frames_dropped(&self) -> u64 {
        self.faults.drops() + self.swallowed
    }

    /// Frames corrupted by injected faults so far.
    pub fn frames_corrupted(&self) -> u64 {
        self.faults.corruptions()
    }
}

/// Builder for [`Channel`].
#[derive(Debug, Clone)]
pub struct ChannelBuilder {
    lane: SerdesLane,
    lanes: usize,
    cable: DirectAttachCable,
    extra_latency: SimTime,
    faults: FaultSpec,
    seed: u64,
}

impl ChannelBuilder {
    /// The prototype's channel: 4 × GTY 25 Gbit/s lanes over a rack-scale
    /// direct-attach cable, lossless.
    pub fn thymesisflow_default() -> Self {
        ChannelBuilder {
            lane: SerdesLane::gty_25g(),
            lanes: 4,
            cable: DirectAttachCable::rack_default(),
            extra_latency: SimTime::ZERO,
            faults: FaultSpec::LOSSLESS,
            seed: 0x5eed_0001,
        }
    }

    /// Overrides the lane type.
    pub fn lane(mut self, lane: SerdesLane) -> Self {
        self.lane = lane;
        self
    }

    /// Overrides the cable.
    pub fn cable(mut self, cable: DirectAttachCable) -> Self {
        self.cable = cable;
        self
    }

    /// Adds extra fixed latency (e.g. a switch traversal).
    pub fn extra_latency(mut self, latency: SimTime) -> Self {
        self.extra_latency = latency;
        self
    }

    /// Sets fault injection probabilities.
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.faults = spec;
        self
    }

    /// Sets the fault RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the channel.
    pub fn build(self) -> Channel {
        let rate =
            Rate::from_bytes_per_sec(self.lane.payload_rate().bytes_per_sec() * self.lanes as f64);
        // One serDES crossing per direction plus the cable: the paper's
        // RTT budget counts "two [crossings] for the network" round trip;
        // the endpoint stacks add their own crossings in the `core`
        // datapath assembly.
        let crossing = self.lane.crossing_latency();
        let cable = self.cable.propagation_delay();
        let flight = crossing + cable + self.extra_latency;
        Channel {
            lane: self.lane,
            lanes: self.lanes,
            line: SerializedLine::new(rate),
            flight_latency: flight,
            crossing_latency: crossing,
            cable_latency: cable,
            extra_latency: self.extra_latency,
            faults: FaultInjector::new(self.faults, self.seed),
            frames_sent: 0,
            down: false,
            swallowed: 0,
            lanes_failed: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_rate_matches_paper_envelope() {
        let ch = ChannelBuilder::thymesisflow_default().build();
        let gib = ch.payload_rate().as_gib_per_sec();
        // 4 x 25G with 64b/66b: ~11.3 GiB/s payload under the 12.5 GB/s
        // nominal ceiling the paper quotes.
        assert!(gib > 11.0 && gib < 12.5, "payload {gib} GiB/s");
    }

    #[test]
    fn flight_latency_is_one_crossing_plus_cable() {
        let ch = ChannelBuilder::thymesisflow_default().build();
        let ns = ch.flight_latency().as_ns();
        assert!((95..=105).contains(&ns), "flight {ns} ns");
    }

    #[test]
    fn back_to_back_frames_serialize() {
        let mut ch = ChannelBuilder::thymesisflow_default().build();
        let a = ch.transmit(SimTime::ZERO, 1024).arrival().unwrap();
        let b = ch.transmit(SimTime::ZERO, 1024).arrival().unwrap();
        assert!(b > a);
        let gap = (b - a).as_ps();
        let expect = ch.payload_rate().transfer_time(1024).as_ps();
        assert_eq!(gap, expect);
    }

    #[test]
    fn saturating_the_channel_approaches_payload_rate() {
        let mut ch = ChannelBuilder::thymesisflow_default().build();
        let frame = 1024u64;
        let mut now = SimTime::ZERO;
        for _ in 0..10_000 {
            ch.transmit(now, frame);
            now = ch.free_at();
        }
        let achieved = ch.throughput(ch.free_at());
        let rate = ch.payload_rate().bytes_per_sec();
        assert!((achieved / rate - 1.0).abs() < 0.01, "achieved {achieved}");
    }

    #[test]
    fn faults_flow_through() {
        let mut ch = ChannelBuilder::thymesisflow_default()
            .faults(FaultSpec::new(0.5, 0.0))
            .seed(3)
            .build();
        let mut dropped = 0;
        for _ in 0..1000 {
            if ch.transmit(SimTime::ZERO, 64) == Delivery::Dropped {
                dropped += 1;
            }
        }
        assert!(dropped > 400 && dropped < 600, "dropped {dropped}");
        assert_eq!(ch.frames_dropped(), dropped);
    }

    #[test]
    fn hard_down_swallows_frames_and_restores() {
        let mut ch = ChannelBuilder::thymesisflow_default().build();
        assert!(!ch.is_down());
        ch.set_down(true);
        for _ in 0..10 {
            assert_eq!(ch.transmit(SimTime::ZERO, 64), Delivery::Dropped);
        }
        assert_eq!(ch.frames_dropped(), 10);
        // A restored link delivers again (link flap round trip).
        ch.set_down(false);
        assert!(matches!(
            ch.transmit(SimTime::ZERO, 64),
            Delivery::Delivered { .. }
        ));
    }

    #[test]
    fn a_frame_landing_past_the_end_of_time_is_dropped() {
        let mut ch = ChannelBuilder::thymesisflow_default().build();
        let flight = ch.flight_latency();
        let serialize = ch.payload_rate().transfer_time(288);
        // The last instant from which a 288 B frame still lands.
        let last = SimTime::MAX - flight - serialize;
        assert_eq!(
            ch.transmit(last, 288),
            Delivery::Delivered { at: SimTime::MAX }
        );
        // Anything queued behind it would land past the end of time.
        assert_eq!(ch.transmit(SimTime::ZERO, 32), Delivery::Dropped);
        let mut ch = ChannelBuilder::thymesisflow_default().build();
        for back in [SimTime::ZERO, serialize, flight] {
            assert_eq!(ch.transmit(SimTime::MAX - back, 288), Delivery::Dropped);
        }
        assert_eq!(ch.free_at(), SimTime::MAX);
        assert_eq!((ch.frames_sent(), ch.frames_dropped()), (3, 3));
    }

    #[test]
    fn lane_failure_degrades_bandwidth_proportionally() {
        let mut ch = ChannelBuilder::thymesisflow_default().build();
        let four_lane = ch.payload_rate().bytes_per_sec();
        assert_eq!(ch.fail_lane(), 3);
        assert_eq!(ch.lanes_failed(), 1);
        let three_lane = ch.payload_rate().bytes_per_sec();
        assert!((three_lane / four_lane - 0.75).abs() < 1e-9);
        // Serialization now drains at the degraded rate.
        let a = ch.transmit(SimTime::ZERO, 1024).arrival().unwrap();
        let b = ch.transmit(SimTime::ZERO, 1024).arrival().unwrap();
        let gap = (b - a).as_ps();
        assert_eq!(gap, ch.payload_rate().transfer_time(1024).as_ps());
    }

    #[test]
    fn failing_the_last_lane_takes_the_channel_down() {
        let mut ch = ChannelBuilder::thymesisflow_default().build();
        for left in [3, 2, 1] {
            assert_eq!(ch.fail_lane(), left);
        }
        let one_lane = ch.payload_rate();
        assert_eq!(ch.fail_lane(), 0);
        assert!(ch.is_down());
        // The rate stays readable (and unchanged) on a lane-less channel.
        assert_eq!(ch.payload_rate(), one_lane);
        assert_eq!(ch.transmit(SimTime::ZERO, 64), Delivery::Dropped);
        // Further fail_lane calls are harmless no-ops.
        assert_eq!(ch.fail_lane(), 0);
    }
}
