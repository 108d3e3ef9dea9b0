//! The link layer: one slot per physical channel between the compute
//! endpoint and a donor, holding the two LLC pairs (requests up,
//! responses down) and the two wire channels (forward, reverse). It
//! owns adaptive batching, the Tx pump, transmission onto the wire and
//! frame arrival at the far Rx. The pairs and channels are private to
//! this module.

use llc::flit::FLIT_BYTES;
use llc::frame::Frame;
use netsim::channel::{Channel, ChannelBuilder};
use netsim::fault::FaultSpec;
use netsim::switch::PortId;
use routing::ChannelId;
use simkit::time::SimTime;

use super::hop::{ChainDir, HopChain};
use super::observe::LinkStats;
use super::recovery::Watch;
use super::{Dir, Ev, Fabric, FabricError, PathId, PathSpec};
use crate::fabric::obs::LinkCongestion;
use crate::fabric::stage::{FabricMsg, LlcPair};
use crate::fabric::trace::WireLatency;
use crate::params::DatapathParams;

/// A wire channel on the fabric's lane and cable calibration, plus
/// `extra` latency (a switch or interior-node traversal).
pub(super) fn wire_channel(
    params: &DatapathParams,
    extra: SimTime,
    faults: FaultSpec,
    seed: u64,
) -> Channel {
    ChannelBuilder::thymesisflow_default()
        .lane(params.lane())
        .cable(params.cable)
        .extra_latency(extra)
        .faults(faults)
        .seed(seed)
        .build()
}

/// Intact frames a channel has carried: sent minus dropped minus
/// corrupted.
pub(super) fn intact_frames(c: &Channel) -> u64 {
    c.frames_sent() - c.frames_dropped() - c.frames_corrupted()
}

/// A channel's fixed latencies, for finalizing a trace.
pub(super) fn wire_latency(c: &Channel) -> WireLatency {
    WireLatency {
        crossing: c.crossing_latency(),
        cable: c.cable_latency(),
        extra: c.extra_latency(),
        flight: c.flight_latency(),
    }
}

/// One live link: the up/down LLC pairs and the two wire channels of a
/// single physical channel between the compute endpoint and one donor.
pub(super) struct LinkSlot {
    up: LlcPair,
    down: LlcPair,
    fwd: Channel,
    rev: Channel,
    flush_pending: [bool; 2],
    pub(super) donor: usize,
    pub(super) path: u32,
    pub(super) circuit: Option<(PortId, PortId)>,
    pub(super) watch: Watch,
    /// Interior forwarding segments, one per topology link past the
    /// first — `None` on single-hop links (every pre-topology fabric).
    pub(super) chain: Option<HopChain>,
    /// The topology links the endpoint slot itself rides (one for a
    /// direct cable, two when a hub route is collapsed onto one slot).
    pub(super) topo_links: Vec<usize>,
}

impl LinkSlot {
    fn pair_mut(&mut self, dir: Dir) -> &mut LlcPair {
        match dir {
            Dir::ToMemory => &mut self.up,
            Dir::ToCompute => &mut self.down,
        }
    }

    /// Intact frames the link's wire has carried, over both endpoint
    /// channels and every hop segment. The watchdog's only progress
    /// signal — a congested or lossy link keeps moving it, a dead one
    /// does not.
    pub(super) fn frames_carried(&self) -> u64 {
        let chain = self.chain.as_ref().map_or(0, HopChain::frames_carried);
        intact_frames(&self.fwd) + intact_frames(&self.rev) + chain
    }

    /// Whether both directions' Tx owe nothing.
    pub(super) fn is_idle(&self) -> bool {
        self.up.tx.is_idle() && self.down.tx.is_idle()
    }

    /// Takes both endpoint channels hard-down, or back up.
    pub(super) fn set_down(&mut self, down: bool) {
        self.fwd.set_down(down);
        self.rev.set_down(down);
    }

    /// Fails one lane of each endpoint channel; the lanes left.
    pub(super) fn fail_lane(&mut self) -> usize {
        self.fwd.fail_lane();
        self.rev.fail_lane()
    }

    /// The per-direction wire latencies of the endpoint channel plus
    /// every chain segment.
    pub(super) fn wire_latencies(&self) -> (WireLatency, WireLatency) {
        let ends = (wire_latency(&self.fwd), wire_latency(&self.rev));
        match &self.chain {
            Some(chain) => chain.add_wire(ends),
            None => ends,
        }
    }

    /// The link's unified statistics.
    pub(super) fn stats(&self, link: usize) -> LinkStats {
        LinkStats {
            link,
            path: PathId(self.path),
            fwd_frames: self.fwd.frames_sent(),
            fwd_bytes: self.fwd.bytes_sent(),
            rev_frames: self.rev.frames_sent(),
            rev_bytes: self.rev.bytes_sent(),
            fwd_dropped: self.fwd.frames_dropped(),
            fwd_corrupted: self.fwd.frames_corrupted(),
            rev_dropped: self.rev.frames_dropped(),
            rev_corrupted: self.rev.frames_corrupted(),
            up_replays: self.up.tx.frames_replayed(),
            down_replays: self.down.tx.frames_replayed(),
            up_delivered: self.up.rx.frames_delivered(),
            down_delivered: self.down.rx.frames_delivered(),
            up_credit_stalls: self.up.tx.credits().starvation_events(),
            down_credit_stalls: self.down.tx.credits().starvation_events(),
            up_credits: self.up.tx.credits().available(),
            down_credits: self.down.tx.credits().available(),
            up_backlog: self.up.tx.backlog(),
            down_backlog: self.down.tx.backlog(),
            up_rx_high_water: self.up.rx.ingress_high_water(),
            down_rx_high_water: self.down.rx.ingress_high_water(),
        }
    }

    /// Adds the link's counters to the congestion rows of the topology
    /// links it rides: the endpoint channels to the slot's own links,
    /// each hop segment to the one link it crosses.
    pub(super) fn add_congestion(&self, rows: &mut [LinkCongestion], now: SimTime) {
        for &tl in &self.topo_links {
            let Some(row) = rows.get_mut(tl) else {
                continue;
            };
            row.endpoint_frames += self.fwd.frames_sent() + self.rev.frames_sent();
            row.replays += self.up.tx.frames_replayed() + self.down.tx.frames_replayed();
            row.credit_stalls += self.up.tx.credits().starvation_events()
                + self.down.tx.credits().starvation_events();
            row.utilization = row
                .utilization
                .max(self.fwd.utilization(now))
                .max(self.rev.utilization(now));
            row.down |= self.fwd.is_down() || self.rev.is_down();
        }
        if let Some(chain) = &self.chain {
            chain.add_congestion(rows, now);
        }
    }
}

impl Fabric {
    /// Instantiates one link slot per channel of `spec` for path `path`
    /// to `donor`: LLC pairs and wire channels, through a fresh circuit
    /// on a switched fabric, riding `topo_links` and forwarding over
    /// `chain_links` past them. Returns the links' channel ids and the
    /// instant the last circuit is ready.
    pub(super) fn add_links(
        &mut self,
        spec: &PathSpec,
        path: u32,
        donor: usize,
        topo_links: &[usize],
        chain_links: &[usize],
    ) -> Result<(Vec<ChannelId>, SimTime), FabricError> {
        let now = self.queue.now();
        let mut chan_ids = Vec::with_capacity(spec.channels);
        let mut ready_at = now;
        for c in 0..spec.channels {
            let (circuit, extra, ready) = match self.switch.as_mut() {
                Some(sw) => {
                    let traversal = sw.traversal_latency();
                    let (a, b, ready) = sw.alloc_circuit(now)?;
                    (Some((a, b)), traversal, ready)
                }
                None => (None, SimTime::ZERO, now),
            };
            ready_at = ready_at.max(ready);
            let seeds = spec.seed_for(c);
            let chain = (!chain_links.is_empty())
                .then(|| HopChain::build(&self.params, spec.faults, seeds, chain_links, 0));
            let link = self.links.len();
            self.links.push(Some(Box::new(LinkSlot {
                up: LlcPair::new(self.params.llc),
                down: LlcPair::new(self.params.llc),
                fwd: wire_channel(&self.params, extra, spec.faults, seeds.0),
                rev: wire_channel(&self.params, extra, spec.faults, seeds.1),
                flush_pending: [false; 2],
                donor,
                path,
                circuit,
                watch: Watch::default(),
                chain,
                topo_links: topo_links.to_vec(),
            })));
            // Link indices stay far below u32::MAX.
            chan_ids.push(ChannelId(link as u32));
        }
        Ok((chan_ids, ready_at))
    }

    /// Offers one message to a link's LLC Tx; `false` once the link is
    /// gone.
    fn offer(&mut self, link: usize, dir: Dir, msg: FabricMsg) -> bool {
        let Some(slot) = self.links.get_mut(link).and_then(Option::as_mut) else {
            return false;
        };
        slot.pair_mut(dir).tx.offer(msg);
        true
    }

    /// A message enters a link's LLC Tx, batched with every coincident
    /// offer in the same direction: a bonded issue loop's requests, or
    /// a drained frame's responses, then cost one seal and pump per
    /// link instead of one per message.
    pub(super) fn offer_burst(
        &mut self,
        link: usize,
        dir: Dir,
        msg: FabricMsg,
    ) -> Result<(), FabricError> {
        let mut touched = std::mem::take(&mut self.touched);
        if self.offer(link, dir, msg) {
            touched.push(link);
        }
        while let Some(Ev::Offer { link, msg, .. }) = self
            .queue
            .pop_coincident(|e| matches!(e, Ev::Offer { dir: d, .. } if *d == dir))
        {
            if self.offer(link, dir, msg) && !touched.contains(&link) {
                touched.push(link);
            }
        }
        for &link in &touched {
            self.offer_or_flush(link, dir)?;
        }
        touched.clear();
        self.touched = touched;
        Ok(())
    }

    /// Adaptive batching: seal immediately once a full frame's payload
    /// is staged; otherwise wait (at most until the wire goes idle) for
    /// more transactions to share the frame.
    fn offer_or_flush(&mut self, link: usize, dir: Dir) -> Result<(), FabricError> {
        let now = self.queue.now();
        let frame_bytes = (self.params.llc.frame_flits * FLIT_BYTES) as u64;
        let Some(slot) = self.links.get_mut(link).and_then(Option::as_mut) else {
            return Ok(());
        };
        let pace = slot.fwd.payload_rate();
        let data_free = match dir {
            Dir::ToMemory => slot.fwd.free_at(),
            Dir::ToCompute => slot.rev.free_at(),
        };
        let tx = &mut slot.pair_mut(dir).tx;
        if tx.staged_flits() >= tx.frame_payload_flits() {
            tx.seal();
            return self.pump(link, dir);
        }
        // Wait for the wire to drain plus two frame times before
        // padding: under load the companion transactions arrive within
        // that window and frames leave full. One pending flush at a
        // time, or stale timers would fragment batches.
        let pending = &mut slot.flush_pending[dir as usize];
        if !*pending {
            *pending = true;
            let at = data_free.max(now) + pace.transfer_time(2 * frame_bytes);
            self.queue.schedule(at, Ev::Flush { link, dir });
        }
        Ok(())
    }

    /// A batching timer fires: seal whatever is staged on `dir` and
    /// send it.
    pub(super) fn flush(&mut self, link: usize, dir: Dir) -> Result<(), FabricError> {
        let Some(slot) = self.links.get_mut(link).and_then(Option::as_mut) else {
            return Ok(());
        };
        slot.flush_pending[dir as usize] = false;
        slot.pair_mut(dir).tx.seal();
        self.pump(link, dir)
    }

    /// Transmits every frame the `dir` Tx may send now.
    fn pump(&mut self, link: usize, dir: Dir) -> Result<(), FabricError> {
        let now = self.queue.now();
        loop {
            let Some(slot) = self.links.get_mut(link).and_then(Option::as_mut) else {
                return Ok(());
            };
            let Some(frame) = slot.pair_mut(dir).tx.next_transmittable()? else {
                return Ok(());
            };
            self.transmit(link, dir, frame, now);
        }
    }

    /// Puts a frame of direction `dir` on the right physical channel.
    /// Data frames travel with their direction; their control replies
    /// travel on the reverse channel but still belong to `dir`. On a
    /// multi-hop link the endpoint channel only covers the route's
    /// first topology link: the frame then enters the forwarding chain
    /// instead of arriving directly.
    fn transmit(&mut self, link: usize, dir: Dir, frame: Frame<FabricMsg>, now: SimTime) {
        self.stamp_wire_tx(dir, &frame, now);
        let Some(slot) = self.links.get_mut(link).and_then(Option::as_mut) else {
            return;
        };
        let chain = match (dir, matches!(frame, Frame::Control(_))) {
            (Dir::ToMemory, false) | (Dir::ToCompute, true) => ChainDir::Fwd,
            (Dir::ToCompute, false) | (Dir::ToMemory, true) => ChainDir::Rev,
        };
        let physical = match chain {
            ChainDir::Fwd => &mut slot.fwd,
            ChainDir::Rev => &mut slot.rev,
        };
        let delivery = physical.transmit(now, frame.wire_bytes());
        let hop = slot.chain.as_ref().and_then(|c| c.entry(link, chain));
        let Some((at, intact)) = self.watch_delivery(link, delivery, true) else {
            return;
        };
        let ev = match hop {
            None => Ev::Arrive {
                link,
                dir,
                frame,
                intact,
            },
            Some(at) => Ev::HopArrive {
                at,
                dir,
                frame,
                intact,
            },
        };
        self.queue.schedule(at.max(now), ev);
    }

    /// A frame lands at the far end of a link: an intact control frame
    /// goes to the Tx it answers, which may now send more; a data frame
    /// enters the Rx.
    pub(super) fn arrive(
        &mut self,
        link: usize,
        dir: Dir,
        frame: Frame<FabricMsg>,
        intact: bool,
    ) -> Result<(), FabricError> {
        match frame {
            Frame::Control(c) => {
                let Some(slot) = self.links.get_mut(link).and_then(Option::as_mut) else {
                    return Ok(());
                };
                if !intact {
                    return Ok(());
                }
                slot.pair_mut(dir).tx.on_control(c)?;
                self.pump(link, dir)
            }
            data @ Frame::Data { .. } => self.arrive_data(link, dir, data, intact),
        }
    }

    /// A data frame lands: batches every coincident data arrival on the
    /// same link and direction through the Rx's bounded ingress, sends
    /// the Rx's replies, dispatches what it delivered, and pumps the
    /// Tx the replies may have unblocked. The burst and the Rx action
    /// live in buffers the fabric keeps across steps.
    fn arrive_data(
        &mut self,
        link: usize,
        dir: Dir,
        frame: Frame<FabricMsg>,
        intact: bool,
    ) -> Result<(), FabricError> {
        let now = self.queue.now();
        let mut burst = std::mem::take(&mut self.arrivals);
        burst.push((frame, intact));
        while let Some(Ev::Arrive { frame, intact, .. }) = self.queue.pop_coincident(|e| {
            matches!(
                e,
                Ev::Arrive {
                    link: l,
                    dir: d,
                    frame: Frame::Data { .. },
                    ..
                } if *l == link && *d == dir
            )
        }) {
            burst.push((frame, intact));
        }
        let mut action = std::mem::take(&mut self.rx_action);
        let live = match self.links.get_mut(link).and_then(Option::as_mut) {
            Some(slot) => {
                let rx = &mut slot.pair_mut(dir).rx;
                rx.enqueue_arrivals(&mut burst)?;
                rx.drain_ingress(&mut action)?;
                true
            }
            None => false,
        };
        // Frames for a detached link are dropped with it.
        burst.clear();
        self.arrivals = burst;
        if live {
            for c in action.replies.drain(..) {
                self.transmit(link, dir, Frame::Control(c), now);
            }
            for msg in action.delivered.drain(..) {
                self.deliver(link, dir, msg, now)?;
            }
            self.pump(link, dir)?;
        }
        action.clear();
        self.rx_action = action;
        Ok(())
    }

    /// Tail-replay keepalive: re-queues every unacknowledged frame on
    /// both directions and pumps them through the channels.
    pub(super) fn kick_link(&mut self, link: usize) -> Result<(), FabricError> {
        let Some(slot) = self.links.get_mut(link).and_then(Option::as_mut) else {
            return Ok(());
        };
        slot.up.tx.kick_tail_replay();
        slot.down.tx.kick_tail_replay();
        self.pump(link, Dir::ToMemory)?;
        self.pump(link, Dir::ToCompute)
    }

    /// The minimum in-flight latency over every live link's wire
    /// channels — the fabric's conservative lookahead contribution: no
    /// flit can cross a link (and hence a partition boundary cut at a
    /// link) faster than this.
    pub(crate) fn min_wire_latency(&self) -> Option<SimTime> {
        self.links
            .iter()
            .flatten()
            .map(|slot| {
                let ends = slot.fwd.flight_latency().min(slot.rev.flight_latency());
                let chain = slot.chain.as_ref().and_then(HopChain::min_flight_latency);
                chain.map_or(ends, |c| ends.min(c))
            })
            .min()
    }
}
