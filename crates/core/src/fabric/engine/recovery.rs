//! Recovery: scripted chaos, the link watchdog, link death and typed
//! load faults, reroutes around interior link failures, donor crashes
//! and switch-port failures. The watchdog's per-link state ([`Watch`])
//! is private to this module.

use netsim::switch::PortId;
use netsim::Delivery;
use routing::topology::{Route as TopoRoute, Topology, TopologyError};
use routing::ChannelId;
use simkit::time::SimTime;

use super::{Ev, Fabric, FabricError, PathId};
use crate::fabric::chaos::{
    ChaosEvent, ChaosPlan, FaultKind, LinkRef, LoadFault, DEAD_AFTER, WATCHDOG_PERIOD,
};
use crate::fabric::obs::{JournalKind, JournalRecord};

/// The link watchdog's state for one link.
#[derive(Default)]
pub(super) struct Watch {
    /// A sample is already scheduled.
    pending: bool,
    /// Consecutive silent samples.
    strikes: u32,
    /// The link's intact frames carried when the pending sample was
    /// armed.
    carried: u64,
    /// When the link went hard-down (for recovery-latency spans).
    down_since: Option<SimTime>,
}

/// The journal record of one scripted failure landing at `at`.
fn chaos_record(at: SimTime, ev: &ChaosEvent) -> JournalRecord {
    let (detail, target) = match ev {
        ChaosEvent::LinkDown { link } => (format!("{link} down"), Some(link)),
        ChaosEvent::LinkUp { link } => (format!("{link} up"), Some(link)),
        ChaosEvent::LinkFlap { link, down_for } => {
            (format!("{link} flap for {down_for}"), Some(link))
        }
        ChaosEvent::LaneFail { link } => (format!("lane failed on {link}"), Some(link)),
        ChaosEvent::DonorCrash { donor } => (format!("donor {donor} crash"), None),
        ChaosEvent::SwitchPortFail { port } => (format!("switch port {} fail", port.0), None),
    };
    let links = match target {
        Some(LinkRef::Name(n)) => vec![n.clone()],
        Some(LinkRef::Slot(s)) => vec![format!("slot{s}")],
        None => Vec::new(),
    };
    JournalRecord::new(at, JournalKind::Chaos, detail).links(links)
}

impl Fabric {
    /// Schedules a failure script on the event queue. Events dated in
    /// the past land at the current instant.
    pub fn schedule_chaos(&mut self, plan: &ChaosPlan) {
        let now = self.queue.now();
        for (at, ev) in plan.events() {
            self.queue.schedule((*at).max(now), Ev::Chaos(ev.clone()));
        }
    }

    /// Typed resolutions of every load an injected failure stranded, in
    /// resolution order.
    pub fn faults(&self) -> &[LoadFault] {
        &self.faults
    }

    /// Completions absorbed because their load had already been
    /// resolved as faulted (the response raced the failure declaration).
    pub fn late_completions(&self) -> u64 {
        self.late_completions
    }

    /// Multi-hop routes rebuilt around interior link failures.
    pub fn route_reroutes(&self) -> u64 {
        self.route_reroutes
    }

    /// Resolves a chaos link reference to the endpoint slots it touches
    /// and (for named references) the topology link index behind it.
    ///
    /// A raw [`LinkRef::Slot`] targets exactly one endpoint slot. A
    /// [`LinkRef::Name`] targets the declared topology: every endpoint
    /// slot riding that link plus every interior chain segment crossing
    /// it; a `"name#k"` suffix narrows the endpoint side to the k-th
    /// riding slot.
    fn resolve_link_ref(&self, r: &LinkRef) -> Result<(Vec<usize>, Option<usize>), FabricError> {
        match r {
            LinkRef::Slot(i) => Ok((vec![*i], None)),
            LinkRef::Name(name) => {
                let (base, pick) = match name.split_once('#') {
                    Some((b, k)) => {
                        let k = k.parse::<usize>().map_err(|_| {
                            FabricError::Config(format!(
                                "bad link selector {name:?}: the #-suffix must be a slot index"
                            ))
                        })?;
                        (b, Some(k))
                    }
                    None => (name.as_str(), None),
                };
                let idx = self.topo.mesh.link_named(base).ok_or_else(|| {
                    FabricError::Topology(TopologyError::UnknownLink(base.to_string()))
                })?;
                let riding = self.slots().filter(|(_, s)| s.topo_links.contains(&idx));
                let mut slots: Vec<usize> = riding.map(|(i, _)| i).collect();
                if let Some(k) = pick {
                    slots = slots.get(k).map(|&i| vec![i]).unwrap_or_default();
                }
                Ok((slots, Some(idx)))
            }
        }
    }

    /// Lands one scripted failure.
    pub(super) fn apply_chaos(&mut self, ev: ChaosEvent) -> Result<(), FabricError> {
        self.telemetry.inc(self.tele.chaos_events);
        let now = self.queue.now();
        self.jot(|_| chaos_record(now, &ev));
        match ev {
            ChaosEvent::LinkDown { link } => self.take_down(&link),
            ChaosEvent::LinkUp { link } => self.bring_up(&link),
            ChaosEvent::LinkFlap { link, down_for } => {
                self.take_down(&link)?;
                // A flap that outlasts simulated time stays down, as a
                // cut does.
                if let Some(up) = now.checked_add(down_for) {
                    self.queue
                        .schedule(up, Ev::Chaos(ChaosEvent::LinkUp { link }));
                }
                Ok(())
            }
            ChaosEvent::LaneFail { link } => self.lane_fail(&link),
            ChaosEvent::DonorCrash { donor } => self.donor_crash(donor),
            ChaosEvent::SwitchPortFail { port } => self.switch_port_fail(port),
        }
    }

    /// Cuts every endpoint slot and interior segment `link` names.
    fn take_down(&mut self, link: &LinkRef) -> Result<(), FabricError> {
        let (slots, topo) = self.resolve_link_ref(link)?;
        for s in slots {
            self.link_down(s);
        }
        match topo {
            Some(idx) => self.interior_link_down(idx),
            None => Ok(()),
        }
    }

    /// Restores every endpoint slot and interior segment `link` names.
    fn bring_up(&mut self, link: &LinkRef) -> Result<(), FabricError> {
        let (slots, topo) = self.resolve_link_ref(link)?;
        for s in slots {
            self.link_up(s)?;
        }
        match topo {
            Some(idx) => self.interior_link_up(idx),
            None => Ok(()),
        }
    }

    /// Fails one lane of every endpoint slot and interior segment `link`
    /// names; a channel that loses its last lane is a cut cable.
    fn lane_fail(&mut self, link: &LinkRef) -> Result<(), FabricError> {
        let (slots, topo) = self.resolve_link_ref(link)?;
        let mut touched = false;
        for s in slots {
            let Some(slot) = self.links.get_mut(s).and_then(Option::as_mut) else {
                continue;
            };
            touched = true;
            if slot.fail_lane() == 0 {
                self.link_down(s);
            }
        }
        if let Some(idx) = topo {
            let mut dead = false;
            for chain in self.chains_mut() {
                if let Some(last) = chain.fail_lane(idx) {
                    touched = true;
                    dead |= last;
                }
            }
            if dead {
                self.interior_link_down(idx)?;
            }
        }
        if touched {
            self.telemetry.inc(self.tele.lanes_failed);
        }
        Ok(())
    }

    /// Takes one interior topology link down: every chain segment
    /// crossing it goes hard-down, and every multi-hop path routed over
    /// it detours around the failure if the mesh still connects its
    /// endpoints — otherwise the path fails with
    /// [`FaultKind::RouteLost`].
    fn interior_link_down(&mut self, idx: usize) -> Result<(), FabricError> {
        if !self.topo.down.insert(idx) {
            return Ok(()); // already down
        }
        // Frames in flight on the segment are lost; end-to-end replay
        // plus the reroute below recover them.
        for chain in self.chains_mut() {
            chain.set_down(idx, true);
        }
        let affected: Vec<u32> = self
            .topo
            .routes
            .iter()
            .filter(|(_, r)| r.links.len() > 1 && r.links[1..].contains(&idx))
            .map(|(&p, _)| p)
            .collect();
        for p in affected {
            self.reroute_path(p, idx)?;
        }
        Ok(())
    }

    /// Restores one interior topology link. Chains still riding it
    /// (paths that could not detour or never needed to) come back up
    /// and get kicked; detoured routes stay on their detour.
    fn interior_link_up(&mut self, idx: usize) -> Result<(), FabricError> {
        if !self.topo.down.remove(&idx) {
            return Ok(());
        }
        let kick: Vec<usize> = self
            .links
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| {
                s.as_mut()?
                    .chain
                    .as_mut()?
                    .set_down(idx, false)
                    .then_some(i)
            })
            .collect();
        for s in kick {
            self.kick_link(s)?;
        }
        Ok(())
    }

    /// Rebuilds one multi-hop path's forwarding chain around the downed
    /// topology links: the endpoint attachment (the route's first link)
    /// is fixed, the tail detours, the chain generation bumps (frames
    /// in flight on the old chain are dropped on arrival and replayed),
    /// and the watchdog supervises the transition. With no surviving
    /// detour the path fails with [`FaultKind::RouteLost`].
    fn reroute_path(&mut self, path_id: u32, cause: usize) -> Result<(), FabricError> {
        let Some(network) = self.paths.get(&path_id).map(|p| p.network) else {
            return Ok(());
        };
        let slot_indices: Vec<usize> = self.path_links(network).collect();
        // Collapsed (single-hop / hub) routes have no chains; endpoint
        // recovery owns those failures.
        let chained = |&s: &usize| self.slot(s).is_some_and(|sl| sl.chain.is_some());
        if !slot_indices.iter().any(chained) {
            return Ok(());
        }
        let Some(route) = self.topo.routes.get(&path_id) else {
            return Ok(());
        };
        let mut avoid = self.topo.down.clone();
        avoid.insert(route.links[0]);
        let dst = route.nodes[route.nodes.len() - 1];
        let Ok(tail) = self
            .topo
            .mesh
            .get_route_avoiding(route.nodes[1], dst, &avoid)
        else {
            self.jot(|f| {
                let cause_name = f.topo_link_name(cause);
                let detail = format!("no detour around {cause_name} survives");
                JournalRecord::new(f.queue.now(), JournalKind::RouteLost, detail)
                    .path(PathId(path_id))
                    .links(vec![cause_name])
            });
            for &s in &slot_indices {
                self.fail_link(s, FaultKind::RouteLost { topo_link: cause })?;
            }
            return Ok(());
        };
        let mut nodes = vec![route.nodes[0]];
        nodes.extend_from_slice(&tail.nodes);
        let mut links = vec![route.links[0]];
        links.extend_from_slice(&tail.links);
        let new_route = TopoRoute { nodes, links };
        let mut new_gen = None;
        for &s in &slot_indices {
            let chain = self.links.get_mut(s).and_then(Option::as_mut);
            if let Some(chain) = chain.and_then(|slot| slot.chain.as_mut()) {
                new_gen = Some(chain.rebuild(&self.params, &new_route.links[1..]));
            }
        }
        self.topo.routes.insert(path_id, new_route);
        self.route_reroutes += 1;
        self.telemetry.inc(self.tele.route_reroutes);
        self.jot(|f| {
            let detail = format!("detoured around {}", f.topo_link_name(cause));
            let rec = JournalRecord::new(f.queue.now(), JournalKind::Reroute, detail)
                .path(PathId(path_id))
                .links(f.route_link_names(path_id));
            match new_gen {
                Some(g) => rec.generation(g),
                None => rec,
            }
        });
        for &s in &slot_indices {
            self.kick_link(s)?;
            self.arm_watchdog(s);
        }
        Ok(())
    }

    /// Takes both physical channels of a link hard-down and puts the
    /// link under watchdog supervision.
    fn link_down(&mut self, link: usize) {
        let now = self.queue.now();
        let Some(slot) = self.links.get_mut(link).and_then(Option::as_mut) else {
            return;
        };
        slot.set_down(true);
        slot.watch.down_since.get_or_insert(now);
        self.arm_watchdog(link);
    }

    /// Restores a hard-downed link and shoves whatever the outage
    /// stranded back onto the live wire.
    fn link_up(&mut self, link: usize) -> Result<(), FabricError> {
        let now = self.queue.now();
        let Some(slot) = self.links.get_mut(link).and_then(Option::as_mut) else {
            return Ok(());
        };
        slot.set_down(false);
        slot.watch.strikes = 0;
        if let Some(at) = slot.watch.down_since.take() {
            self.telemetry.record_span(self.tele.downtime, at, now);
        }
        self.kick_link(link)
    }

    /// Where and whether a frame transmitted on `link` lands, and
    /// whether it lands intact. A dropped or corrupted frame puts the
    /// link under watch: if it was the tail of the traffic, nothing
    /// else would ever replay it.
    pub(super) fn watch_delivery(
        &mut self,
        link: usize,
        delivery: Delivery,
        intact: bool,
    ) -> Option<(SimTime, bool)> {
        match delivery {
            Delivery::Delivered { at } => Some((at, intact)),
            Delivery::Corrupted { at } => {
                self.arm_watchdog(link);
                Some((at, false))
            }
            Delivery::Dropped => {
                self.arm_watchdog(link);
                None
            }
        }
    }

    /// Puts `link` under watch: schedules one watchdog sample a period
    /// from now and records the link's count of intact frames carried,
    /// unless a sample is already pending. No sample is scheduled past
    /// the end of simulated time.
    fn arm_watchdog(&mut self, link: usize) {
        let Some(at) = self.queue.now().checked_add(WATCHDOG_PERIOD) else {
            return;
        };
        let Some(slot) = self.links.get_mut(link).and_then(Option::as_mut) else {
            return;
        };
        if slot.watch.pending {
            return;
        }
        slot.watch.pending = true;
        slot.watch.carried = slot.frames_carried();
        self.queue.schedule(at, Ev::Watchdog { link });
    }

    /// One watchdog sample. A link whose every sent frame was delivered,
    /// and whose Tx heard the far Rx's last coalesced ack, goes quiet
    /// (no re-arm), so a drained queue stays drained, though the frames
    /// behind that ack stay unacknowledged. One whose wire carried
    /// an intact frame since the watchdog armed is busy, not dead: its
    /// strikes clear and the watch goes on. A silent one takes a strike
    /// and a keepalive kick, which also retries a lost replay request,
    /// and the [`DEAD_AFTER`]th strike in a row declares it dead.
    pub(super) fn watchdog_fire(&mut self, link: usize) -> Result<(), FabricError> {
        let Some(slot) = self.links.get_mut(link).and_then(Option::as_mut) else {
            return Ok(());
        };
        slot.watch.pending = false;
        if slot.is_idle() {
            slot.watch.strikes = 0;
            return Ok(());
        }
        let silent = slot.frames_carried() == slot.watch.carried;
        slot.watch.strikes = if silent { slot.watch.strikes + 1 } else { 0 };
        if slot.watch.strikes >= DEAD_AFTER {
            return self.fail_link(link, FaultKind::LinkDead { link });
        }
        if silent {
            self.kick_link(link)?;
        }
        // A retransmit the kick lost on a still-dark wire may have
        // re-armed already; arming is idempotent.
        self.arm_watchdog(link);
        Ok(())
    }

    /// Permanently removes a dead link: tombstones the slot, frees any
    /// surviving circuit end, resolves the link's in-flight loads to
    /// typed faults, and re-programs the path's route around the loss —
    /// or poisons the path if this was its last link.
    fn fail_link(&mut self, link: usize, kind: FaultKind) -> Result<(), FabricError> {
        let Some(slot) = self.links.get_mut(link).and_then(Option::take) else {
            return Ok(());
        };
        let now = self.queue.now();
        if let Some(since) = slot.watch.down_since {
            self.telemetry.record_span(self.tele.detect, since, now);
        }
        if let (Some((a, _)), Some(sw)) = (slot.circuit, self.switch.as_mut()) {
            // A failed port already tore the circuit; only live ones
            // still need disconnecting.
            if sw.peer(a).is_some() {
                sw.disconnect(a, now)?;
            }
        }
        // Resolve this link's stranded loads in tag order (the window
        // iterates in tag order), so the fault log is deterministic.
        let stranded: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, &(_, _, l))| l == link)
            .map(|(t, _)| t)
            .collect();
        for tag in stranded {
            self.fault_tag(tag, kind);
        }
        // Degrade the path to its surviving links, or poison it.
        let path = slot.path;
        if let Some(state) = self.paths.get_mut(&path) {
            let network = state.network;
            // Link indices stay far below u32::MAX.
            let dead = ChannelId(link as u32);
            let survivors: Vec<ChannelId> = self
                .router
                .channels_of(network)
                .unwrap_or_default()
                .iter()
                .copied()
                .filter(|&c| c != dead)
                .collect();
            // Re-adding the survivors restarts round-robin at the first.
            if self.router.channels_of(network).is_some() {
                self.router.remove_route(network)?;
            }
            if survivors.is_empty() {
                state.poisoned = Some(kind);
            } else {
                self.router.add_route(network, survivors)?;
            }
        }
        self.telemetry.inc(self.tele.links_failed);
        self.jot(|f| {
            let names = slot
                .topo_links
                .iter()
                .map(|&tl| f.topo_link_name(tl))
                .collect();
            let detail = format!("link {link} dead: {kind}");
            JournalRecord::new(now, JournalKind::LinkFailed, detail)
                .path(PathId(path))
                .links(names)
        });
        Ok(())
    }

    /// Resolves one in-flight load to a typed fault.
    fn fault_tag(&mut self, tag: u64, kind: FaultKind) {
        let Some((_, path, _)) = self.inflight.remove(tag) else {
            return;
        };
        let at = self.queue.now();
        self.faulted.insert(tag, kind);
        self.faults.push(LoadFault {
            tag,
            path: PathId(path),
            at,
            kind,
        });
        self.tracer.abandon(tag);
        self.telemetry.inc(self.tele.loads_faulted);
        self.jot(|_| {
            JournalRecord::new(at, JournalKind::LoadFaulted, format!("tag {tag}: {kind}"))
                .path(PathId(path))
        });
    }

    /// The donor host dies: every link it serves dies with it, every
    /// stranded load on them resolves to a [`FaultKind::DonorCrash`].
    fn donor_crash(&mut self, donor: usize) -> Result<(), FabricError> {
        if self.donors.get_mut(donor).and_then(Option::take).is_none() {
            return Ok(()); // already detached — nothing left to crash
        }
        let at = self.queue.now();
        self.jot(|_| {
            let detail = format!("donor {donor} crashed");
            JournalRecord::new(at, JournalKind::DonorCrash, detail)
        });
        let doomed: Vec<usize> = self
            .slots()
            .filter_map(|(i, s)| (s.donor == donor).then_some(i))
            .collect();
        for link in doomed {
            self.fail_link(link, FaultKind::DonorCrash { donor })?;
        }
        Ok(())
    }

    /// A switch port fails: the circuit riding it is re-programmed
    /// around the failed port (one reconfiguration latency of darkness,
    /// drained by the same flap machinery), or — with no spare ports —
    /// the link dies.
    fn switch_port_fail(&mut self, port: PortId) -> Result<(), FabricError> {
        let now = self.queue.now();
        let Some(sw) = self.switch.as_mut() else {
            return Ok(()); // no switch in this topology
        };
        if sw.fail_port(port).is_err() {
            return Ok(()); // unknown or already failed
        }
        let Some(link) = self.links.iter().position(|s| {
            s.as_ref()
                .and_then(|slot| slot.circuit)
                .is_some_and(|(a, b)| a == port || b == port)
        }) else {
            return Ok(()); // the port carried no live circuit
        };
        let Ok((a, b, ready)) = sw.alloc_circuit(now) else {
            return self.fail_link(link, FaultKind::SwitchPortFail { port });
        };
        // Re-point the link's slot at the new circuit and flap the link
        // for the reconfiguration window.
        if let Some(slot) = self.links.get_mut(link).and_then(Option::as_mut) {
            slot.circuit = Some((a, b));
        }
        self.link_down(link);
        self.queue.schedule(
            ready.max(now),
            Ev::Chaos(ChaosEvent::LinkUp {
                link: LinkRef::Slot(link),
            }),
        );
        self.telemetry.inc(self.tele.switch_reroutes);
        self.jot(|f| {
            let detail = format!(
                "port {} failed; circuit re-programmed onto {}→{}",
                port.0, a.0, b.0
            );
            let rec = JournalRecord::new(now, JournalKind::SwitchReroute, detail);
            match f.link_path(link) {
                Some(p) => rec.path(p),
                None => rec,
            }
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::fabric::chaos::DETECTION_WINDOW;
    use crate::fabric::engine::tests::{
        fabric, params, reference, run_exactly_once, switched, DONOR,
    };
    use crate::fabric::engine::PathSpec;
    use crate::fabric::stage::{StageKind, WindowSpec};
    use crate::memmodel::Calibration;
    use opencapi::pasid::Pasid;
    use rmmu::flow::NetworkId;

    #[test]
    fn flap_shorter_than_detection_window_completes_every_load() {
        let (mut f, p) = reference();
        // Dark for 10 µs, well inside the 25 µs detection window.
        f.schedule_chaos(&ChaosPlan::new().at(
            SimTime::from_ns(500),
            ChaosEvent::LinkFlap {
                link: LinkRef::Slot(0),
                down_for: SimTime::from_us(10),
            },
        ));
        let completed = run_exactly_once(&mut f, p, 16);
        assert_eq!(completed.len(), 16, "a survivable flap costs only latency");
        assert!(f.faults().is_empty());
        assert!(
            f.link_stats(0).is_some(),
            "a survived flap leaves the link live"
        );
        assert!(
            f.congestion_report().links().iter().all(|l| !l.down),
            "and up"
        );
        assert!(f.path_fault(p).unwrap().is_none());
        let replays = f.link_stats(0).unwrap();
        assert!(
            replays.up_replays + replays.down_replays > 0,
            "the outage must have been bridged by replay"
        );
    }

    #[test]
    fn hard_link_down_resolves_stranded_loads_to_typed_faults() {
        let (mut f, p) = reference();
        f.schedule_chaos(&ChaosPlan::new().at(
            SimTime::from_ns(300),
            ChaosEvent::LinkDown {
                link: LinkRef::Slot(0),
            },
        ));
        let completed = run_exactly_once(&mut f, p, 8);
        assert!(
            !f.faults().is_empty(),
            "a permanent cut must strand at least one load"
        );
        for fault in f.faults() {
            assert_eq!(fault.path, p);
            assert_eq!(fault.kind, FaultKind::LinkDead { link: 0 });
            assert!(
                fault.at >= DETECTION_WINDOW,
                "death cannot be declared before the detection window"
            );
        }
        assert_eq!(
            f.path_fault(p).unwrap(),
            Some(FaultKind::LinkDead { link: 0 })
        );
        assert!(matches!(
            f.issue_read(p),
            Err(FabricError::PathFaulted { .. })
        ));
        // The poisoned path detaches cleanly and frees its window.
        f.detach_path(p).unwrap();
        assert!(f.path_ids().is_empty());
        let _ = completed;
    }

    #[test]
    fn hard_cut_is_declared_dead_one_detection_window_after_it_lands() {
        // Cuts under load, after the loads drained and long after; the
        // load scheduled just behind each cut owes work on the dark wire.
        for cut_ns in [300, 2_000, 7_000, 50_000] {
            let (mut f, p) = reference();
            f.set_telemetry(true);
            let cut = SimTime::from_ns(cut_ns);
            f.schedule_chaos(&ChaosPlan::new().at(
                cut,
                ChaosEvent::LinkDown {
                    link: LinkRef::Slot(0),
                },
            ));
            for _ in 0..8 {
                f.issue_read(p).unwrap();
            }
            f.schedule_read(p, cut + SimTime::from_ns(1)).unwrap();
            f.drain().unwrap();
            let snap = f.telemetry_snapshot();
            let detect = snap.timer("fabric.recovery.detect_ns").unwrap();
            let window = DETECTION_WINDOW.as_ns();
            assert_eq!(detect.count(), 1, "cut at {cut}");
            assert_eq!(
                (detect.min(), detect.max()),
                (window, window),
                "cut at {cut}"
            );
            assert!(!f.faults().is_empty(), "cut at {cut}");
            for fault in f.faults() {
                assert_eq!(fault.at, cut + DETECTION_WINDOW, "cut at {cut}");
            }
        }
    }

    #[test]
    fn bonded_path_degrades_to_surviving_links() {
        let mut f = fabric(WindowSpec::rack_default(), None);
        let spec = PathSpec::new(NetworkId(1), Pasid(1), 0x7000_0000_0000, 512 << 20);
        let p = f.attach_routed(&spec.bonded_channels(2), DONOR).unwrap();
        f.schedule_chaos(&ChaosPlan::new().at(
            SimTime::from_ns(300),
            ChaosEvent::LinkDown {
                link: LinkRef::Slot(0),
            },
        ));
        run_exactly_once(&mut f, p, 8);
        // Link 0 died and is tombstoned; the path's one channel table
        // now lists link 1 alone, and link 1 carries on.
        let links: Vec<usize> = f
            .path_link_stats(p)
            .unwrap()
            .iter()
            .map(|s| s.link)
            .collect();
        assert_eq!(links, [1]);
        assert!(f.link_stats(0).is_none(), "dead links are tombstoned");
        assert!(f.path_fault(p).unwrap().is_none());
        let sent = f.link_stats(1).unwrap().fwd_frames;
        let tag = f.issue_read(p).unwrap();
        let mut late = Vec::new();
        while let Some(done) = f.step().unwrap() {
            late.extend(done.iter().map(|c| c.tag));
        }
        assert!(
            late.contains(&tag),
            "the degraded path must still serve loads"
        );
        assert!(
            f.link_stats(1).unwrap().fwd_frames > sent,
            "the late load rode link 1"
        );
    }

    #[test]
    fn lane_failure_degrades_bandwidth_without_faulting() {
        let (mut f, p) = reference();
        f.schedule_chaos(&ChaosPlan::new().at(
            SimTime::from_ns(100),
            ChaosEvent::LaneFail {
                link: LinkRef::Slot(0),
            },
        ));
        let completed = run_exactly_once(&mut f, p, 8);
        assert_eq!(completed.len(), 8, "a lane failure is graceful degradation");
        assert!(f.faults().is_empty());
        let healthy = Calibration::measure(params())
            .unwrap()
            .remote_load_latency();
        let degraded = f.completions(p).unwrap().max();
        assert!(
            degraded > healthy.as_ns(),
            "N-1 lanes must serialize slower: {degraded} vs {healthy}"
        );
    }

    #[test]
    fn donor_crash_faults_every_inflight_load_and_poisons_the_path() {
        let (mut f, p) = reference();
        let donor = f.path_donor(p).unwrap();
        f.schedule_chaos(&ChaosPlan::new().donor_crash(SimTime::from_ns(400), donor));
        run_exactly_once(&mut f, p, 8);
        assert!(!f.faults().is_empty());
        for fault in f.faults() {
            assert_eq!(fault.kind, FaultKind::DonorCrash { donor });
            assert_eq!(
                fault.at,
                SimTime::from_ns(400),
                "a crash resolves its stranded loads at the instant it lands"
            );
        }
        assert_eq!(
            f.path_fault(p).unwrap(),
            Some(FaultKind::DonorCrash { donor })
        );
        f.detach_path(p).unwrap();
    }

    #[test]
    fn switch_port_failure_reroutes_around_the_port() {
        let (mut f, p) = switched(8);
        // Warm up so the circuit-wait is behind us, then fail one of
        // the two ports the path's circuit rides.
        f.measure_load_latency(p).unwrap();
        let port = PortId(0);
        f.schedule_chaos(&ChaosPlan::new().at(f.now(), ChaosEvent::SwitchPortFail { port }));
        let completed = run_exactly_once(&mut f, p, 8);
        assert_eq!(
            completed.len(),
            8,
            "with spare ports the switch re-programs around the failure"
        );
        assert!(f.faults().is_empty());
        assert!(f.path_fault(p).unwrap().is_none());
        let sw = f.switch().unwrap();
        assert!(sw.is_port_failed(port));
        assert!(sw.reconfigurations() >= 2, "tear-down plus re-program");
        // The link slot moved onto the new circuit: still one circuit,
        // one live link, one set of link components.
        assert_eq!(sw.circuit_count(), 1);
        assert_eq!(f.path_link_stats(p).unwrap().len(), 1);
        let llc_pairs = f
            .components()
            .iter()
            .filter(|(_, k)| *k == StageKind::LlcPair)
            .count();
        assert_eq!(llc_pairs, 2);
    }

    #[test]
    fn switch_port_failure_without_spares_kills_the_link() {
        // A 2-port switch: the path's circuit uses both, no spares.
        let (mut f, p) = switched(2);
        f.measure_load_latency(p).unwrap();
        f.schedule_chaos(
            &ChaosPlan::new().at(f.now(), ChaosEvent::SwitchPortFail { port: PortId(0) }),
        );
        run_exactly_once(&mut f, p, 4);
        assert_eq!(
            f.path_fault(p).unwrap(),
            Some(FaultKind::SwitchPortFail { port: PortId(0) })
        );
        for fault in f.faults() {
            assert_eq!(fault.kind, FaultKind::SwitchPortFail { port: PortId(0) });
        }
    }
}
