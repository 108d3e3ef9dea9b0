//! Multi-hop forwarding: the store-and-forward chains that carry a
//! link's frames through the interior nodes of a route longer than one
//! cable, with per-segment credit backpressure. A chain's segments are
//! private to this module; the rest of the engine reaches them through
//! [`HopChain`]'s methods and the hop handlers below.

use std::collections::VecDeque;

use llc::frame::Frame;
use netsim::channel::Channel;
use netsim::fault::FaultSpec;
use netsim::switch::CircuitSwitch;
use simkit::time::SimTime;

use super::link::{intact_frames, wire_channel, wire_latency};
use super::{Dir, Ev, Fabric};
use crate::fabric::obs::LinkCongestion;
use crate::fabric::stage::FabricMsg;
use crate::fabric::trace::WireLatency;
use crate::params::DatapathParams;

/// Which physical chain of a multi-hop link a frame rides: the forward
/// chain extends the endpoint's forward channel (compute→donor), the
/// reverse chain extends the reverse channel (donor→compute).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ChainDir {
    Fwd,
    Rev,
}

/// One segment of one chain generation: where a frame in flight along
/// a multi-hop link is, and where its forwarding credit returns. Its
/// `u32` indices (link indices stay far below `u32::MAX`, as channel
/// ids do) keep an [`Ev`] at 48 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct SegRef {
    link: u32,
    /// Chain generation the frame was launched on; a frame from a
    /// superseded (rerouted) chain is dropped — end-to-end replay
    /// re-sends it down the new route.
    gen: u32,
    seg: u32,
    chain: ChainDir,
}

impl SegRef {
    fn link(self) -> usize {
        self.link as usize
    }
}

/// Forwarding credits per chain segment: how many frames an interior
/// hop buffers before upstream arrivals queue behind its backpressure.
const HOP_CREDITS: u32 = 8;

/// One store-and-forward segment of a multi-hop chain: the wire channel
/// crossing one interior topology link, its credit pool and the frames
/// waiting for a credit.
struct HopSeg {
    chan: Channel,
    /// The topology link (index into the mesh's links) this segment
    /// crosses — the unit chaos targets by name.
    topo_link: usize,
    credits: u32,
    /// Frames waiting for a credit, each stamped with its arrival
    /// instant so credit-stall time is exact at dequeue.
    queue: VecDeque<(Dir, Frame<FabricMsg>, bool, SimTime)>,
    /// Frames that crossed this segment (pure accounting — congestion
    /// counters never alter scheduling, so observation stays free).
    forwarded: u64,
    /// Arrivals that found no credit and had to queue.
    stall_events: u64,
    /// Total simulated time frames spent queued for a credit.
    stall_ns: u64,
    /// Deepest the credit queue ever got.
    queue_high_water: usize,
}

/// The interior hops of one multi-hop link, one segment per topology
/// link past the endpoint's own. Rebuilt (with `gen` bumped) when an
/// interior link dies and the route detours around it; the chain keeps
/// its own seed/fault identity so rebuilds need no original spec.
pub(super) struct HopChain {
    fwd: Vec<HopSeg>,
    rev: Vec<HopSeg>,
    gen: u32,
    fwd_seed: u64,
    rev_seed: u64,
    faults: FaultSpec,
}

/// Deterministic per-segment channel seeds: decorrelated from the
/// endpoint's seeds and from each other, and bumped with the chain
/// generation so a rebuilt (rerouted) chain never replays the old
/// segment loss pattern.
fn hop_seed(base: u64, seg: usize, gen: u32, rev: bool) -> u64 {
    base ^ 0x517c_c1b7_2722_0a95
        ^ ((seg as u64 + 1) << 8)
        ^ (u64::from(gen) << 32)
        ^ if rev { 1 << 63 } else { 0 }
}

impl HopChain {
    /// Builds the interior forwarding chain of one multi-hop channel:
    /// one store-and-forward segment per topology link in `links`, each
    /// with its own wire channel (same lane/cable calibration as the
    /// endpoint, plus one interior-node traversal) and [`HOP_CREDITS`]
    /// forwarding credits. `seeds` are the endpoint's
    /// `(forward, reverse)` channel seeds.
    pub(super) fn build(
        params: &DatapathParams,
        faults: FaultSpec,
        seeds: (u64, u64),
        links: &[usize],
        gen: u32,
    ) -> Self {
        let traversal = CircuitSwitch::optical(2).traversal_latency();
        let chain = |seed: u64, rev: bool| -> Vec<HopSeg> {
            let seg = |(k, &topo_link): (usize, &usize)| HopSeg {
                chan: wire_channel(params, traversal, faults, hop_seed(seed, k, gen, rev)),
                topo_link,
                credits: HOP_CREDITS,
                queue: VecDeque::new(),
                forwarded: 0,
                stall_events: 0,
                stall_ns: 0,
                queue_high_water: 0,
            };
            links.iter().enumerate().map(seg).collect()
        };
        HopChain {
            fwd: chain(seeds.0, false),
            rev: chain(seeds.1, true),
            gen,
            fwd_seed: seeds.0,
            rev_seed: seeds.1,
            faults,
        }
    }

    /// Rebuilds the chain along `links` as the next generation, with
    /// the same seeds and faults; returns the new generation.
    pub(super) fn rebuild(&mut self, params: &DatapathParams, links: &[usize]) -> u32 {
        let seeds = (self.fwd_seed, self.rev_seed);
        *self = Self::build(params, self.faults, seeds, links, self.gen + 1);
        self.gen
    }

    /// The first segment a frame of `link` launched onto `chain` enters.
    pub(super) fn entry(&self, link: usize, chain: ChainDir) -> Option<SegRef> {
        let segs = match chain {
            ChainDir::Fwd => &self.fwd,
            ChainDir::Rev => &self.rev,
        };
        (!segs.is_empty()).then_some(SegRef {
            link: link as u32,
            gen: self.gen,
            chain,
            seg: 0,
        })
    }

    fn segs(&self) -> impl Iterator<Item = &HopSeg> {
        self.fwd.iter().chain(&self.rev)
    }

    fn segs_mut(&mut self) -> impl Iterator<Item = &mut HopSeg> {
        self.fwd.iter_mut().chain(self.rev.iter_mut())
    }

    /// Intact frames every segment has carried.
    pub(super) fn frames_carried(&self) -> u64 {
        self.segs().map(|s| intact_frames(&s.chan)).sum()
    }

    /// The shortest cable flight of any segment.
    pub(super) fn min_flight_latency(&self) -> Option<SimTime> {
        self.segs().map(|s| s.chan.flight_latency()).min()
    }

    /// Fails one lane of every segment crossing topology link `idx`:
    /// `None` when none crosses it, else whether one lost its last lane.
    pub(super) fn fail_lane(&mut self, idx: usize) -> Option<bool> {
        let mut dead = None;
        for s in self.segs_mut().filter(|s| s.topo_link == idx) {
            let last = s.chan.fail_lane() == 0;
            dead = Some(last || dead == Some(true));
        }
        dead
    }

    /// Takes every segment crossing topology link `idx` down or back
    /// up; whether any crosses it.
    pub(super) fn set_down(&mut self, idx: usize, down: bool) -> bool {
        let mut rides = false;
        for s in self.segs_mut().filter(|s| s.topo_link == idx) {
            s.chan.set_down(down);
            rides = true;
        }
        rides
    }

    /// Adds every segment's forwarding counters to the congestion row of
    /// the topology link it crosses.
    pub(super) fn add_congestion(&self, rows: &mut [LinkCongestion], now: SimTime) {
        for seg in self.segs() {
            let Some(row) = rows.get_mut(seg.topo_link) else {
                continue;
            };
            row.forwarded += seg.forwarded;
            row.queue_depth += seg.queue.len();
            row.queue_high_water = row.queue_high_water.max(seg.queue_high_water);
            row.credit_stalls += seg.stall_events;
            row.stall_ns += seg.stall_ns;
            row.utilization = row.utilization.max(seg.chan.utilization(now));
            row.down |= seg.chan.is_down();
        }
    }

    /// The endpoint's `(forward, reverse)` wire latencies plus every
    /// segment's, per direction: a route of L topology links reports L
    /// crossings, L cable flights and L−1 interior traversals.
    pub(super) fn add_wire(&self, ends: (WireLatency, WireLatency)) -> (WireLatency, WireLatency) {
        let total = |base: WireLatency, segs: &[HopSeg]| {
            segs.iter()
                .map(|s| wire_latency(&s.chan))
                .fold(base, |acc, w| WireLatency {
                    crossing: acc.crossing + w.crossing,
                    cable: acc.cable + w.cable,
                    extra: acc.extra + w.extra,
                    flight: acc.flight + w.flight,
                })
        };
        (total(ends.0, &self.fwd), total(ends.1, &self.rev))
    }
}

impl Fabric {
    /// Every live link's forwarding chain.
    pub(super) fn chains_mut(&mut self) -> impl Iterator<Item = &mut HopChain> {
        self.links
            .iter_mut()
            .flatten()
            .filter_map(|s| s.chain.as_mut())
    }

    /// The live segment `at` names and whether it is its chain's last;
    /// `None` once the link is gone or its chain was rebuilt (the frame
    /// or credit belongs to a superseded generation).
    fn hop_seg(&mut self, at: SegRef) -> Option<(&mut HopSeg, bool)> {
        let chain = self.links.get_mut(at.link())?.as_mut()?.chain.as_mut()?;
        if chain.gen != at.gen {
            return None;
        }
        let segs = match at.chain {
            ChainDir::Fwd => &mut chain.fwd,
            ChainDir::Rev => &mut chain.rev,
        };
        let seg = at.seg as usize;
        let last = seg + 1 >= segs.len();
        segs.get_mut(seg).map(|s| (s, last))
    }

    /// A frame reaches one interior forwarding segment: it takes a
    /// credit and crosses, or queues behind the segment's backpressure.
    /// Frames from a superseded chain generation are dropped — the
    /// route was rebuilt around a failure, and end-to-end replay
    /// re-sends them down the new chain.
    pub(super) fn hop_arrive(
        &mut self,
        at: SegRef,
        dir: Dir,
        frame: Frame<FabricMsg>,
        intact: bool,
    ) {
        let now = self.queue.now();
        let Some((s, _)) = self.hop_seg(at) else {
            return;
        };
        if s.credits == 0 {
            s.queue.push_back((dir, frame, intact, now));
            s.stall_events += 1;
            s.queue_high_water = s.queue_high_water.max(s.queue.len());
            return;
        }
        s.credits -= 1;
        self.hop_forward(at, dir, frame, intact, now);
    }

    /// Crosses one chain segment: transmits on the segment's channel,
    /// returns the credit at delivery, and hands the frame to the next
    /// segment — or to the endpoint's arrival machinery after the last
    /// one (the LLC link layer stays end-to-end).
    fn hop_forward(
        &mut self,
        at: SegRef,
        dir: Dir,
        frame: Frame<FabricMsg>,
        intact: bool,
        now: SimTime,
    ) {
        let Some((s, last)) = self.hop_seg(at) else {
            return;
        };
        s.forwarded += 1;
        let delivery = s.chan.transmit(now, frame.wire_bytes());
        let Some((t, intact)) = self.watch_delivery(at.link(), delivery, intact) else {
            // The frame is gone mid-route: the credit returns (the
            // segment is not congested, the fabric is broken) and the
            // watched link's replay or death resolves every stranded
            // load.
            self.queue.schedule(now, Ev::HopCredit(at));
            return;
        };
        let t = t.max(now);
        self.queue.schedule(t, Ev::HopCredit(at));
        let ev = if last {
            Ev::Arrive {
                link: at.link(),
                dir,
                frame,
                intact,
            }
        } else {
            let at = SegRef {
                seg: at.seg + 1,
                ..at
            };
            Ev::HopArrive {
                at,
                dir,
                frame,
                intact,
            }
        };
        self.queue.schedule(t, ev);
    }

    /// A chain segment's credit returns; the oldest queued frame (if
    /// any) takes it and crosses.
    pub(super) fn hop_credit(&mut self, at: SegRef) {
        let now = self.queue.now();
        let Some((s, _)) = self.hop_seg(at) else {
            return;
        };
        let Some((dir, frame, intact, queued)) = s.queue.pop_front() else {
            s.credits += 1;
            return;
        };
        s.stall_ns += now.as_ns().saturating_sub(queued.as_ns());
        self.hop_forward(at, dir, frame, intact, now);
    }
}
