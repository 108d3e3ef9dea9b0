//! Wiring: assembling an empty fabric over its topology, attaching a
//! compute→donor path along a route, and detaching it without
//! perturbing the paths that survive.

use std::collections::{BTreeMap, BTreeSet};

use llc::RxAction;
use netsim::switch::{CircuitSwitch, SwitchError};
use opencapi::m1::M1Endpoint;
use opencapi::pasid::Region;
use rmmu::section::{SectionEntry, SectionTable, DEFAULT_SECTION_BITS, MAX_SECTIONS};
use routing::topology::{Mesh, NodeId, Route as TopoRoute, Topology, TopologyError};
use routing::Router;
use simkit::event::{Engine, EventQueue};
use simkit::stats::Histogram;
use simkit::telemetry::Registry;
use simkit::time::SimTime;

use super::observe::FabricTele;
use super::{Fabric, FabricError, FabricTopo, PathId, PathSpec, PathState};
use crate::fabric::obs::{JournalKind, JournalRecord};
use crate::fabric::stage::{C1MasterDram, WindowSpec};
use crate::fabric::tags::TagWindow;
use crate::fabric::trace::FlitTracer;
use crate::params::DatapathParams;

/// Whether `route` collapses onto one endpoint link slot per channel: a
/// direct cable, or a 1-tier Clos route through the hub — both wire
/// bit-for-bit like the legacy point-to-point endpoint. Longer routes
/// forward store-and-forward through their interior nodes.
pub(super) fn is_collapsed(route: &TopoRoute, hub: Option<NodeId>) -> bool {
    route.hops() == 1 || (route.hops() == 2 && hub == Some(route.nodes[1]))
}

impl Fabric {
    /// An empty fabric wired over `mesh`, with the compute endpoint on
    /// node `compute`.
    pub(crate) fn assemble(
        params: DatapathParams,
        window: WindowSpec,
        switch: Option<CircuitSwitch>,
        engine: Engine,
        mesh: Mesh,
        compute: NodeId,
    ) -> Result<Self, FabricError> {
        // M1 capture asserts a non-empty, cacheline-aligned window, the
        // RMMU maps it in whole sections, and load addresses are base +
        // offset, so the window's one-past-end must fit in u64: refuse
        // anything else here.
        let section = 1u64 << DEFAULT_SECTION_BITS;
        if window.bytes == 0
            || !window.bytes.is_multiple_of(section)
            || !window.base.is_multiple_of(128)
            || window.base.checked_add(window.bytes).is_none()
        {
            return Err(FabricError::Config(format!(
                "device window {:#x}+{:#x} is not a whole number of {section} B sections \
                 at a 128 B aligned base, ending below 2^64",
                window.base, window.bytes
            )));
        }
        // The section table allocates one root pointer per 256 sections
        // up front: refuse before allocating it.
        if window.bytes / section > MAX_SECTIONS {
            return Err(FabricError::Config(format!(
                "device window {:#x} B spans more than {MAX_SECTIONS} sections",
                window.bytes
            )));
        }
        if mesh.nodes().iter().all(|n| n.id != compute) {
            return Err(FabricError::Topology(TopologyError::UnknownNode(compute)));
        }
        params.check_llc()?;
        let capture = M1Endpoint::new(window.base, window.bytes);
        let translate = SectionTable::with_default_sections(window.bytes);
        // Telemetry starts disabled: instrumentation is observation only
        // and costs one predicted branch per hook until switched on.
        let mut telemetry = Registry::new(false);
        let tele = FabricTele::register(&mut telemetry)?;
        Ok(Fabric {
            params,
            window,
            capture,
            translate,
            router: Router::new(),
            links: Vec::new(),
            donors: Vec::new(),
            switch,
            paths: BTreeMap::new(),
            next_path: 0,
            queue: EventQueue::with_engine(engine),
            inflight: TagWindow::default(),
            next_tag: 0,
            telemetry,
            tele,
            tracer: FlitTracer::default(),
            faults: Vec::new(),
            faulted: BTreeMap::new(),
            late_completions: 0,
            touched: Vec::new(),
            arrivals: Vec::new(),
            rx_action: RxAction::default(),
            injects_refused: 0,
            topo: FabricTopo {
                mesh,
                compute,
                down: BTreeSet::new(),
                routes: BTreeMap::new(),
            },
            route_reroutes: 0,
            journal: None,
            views: None,
        })
    }

    /// Attaches one compute→donor path along the declared topology: the
    /// route from the compute node to `donor_node` is computed
    /// ([`Topology::get_route_avoiding`], skipping downed links), a free
    /// section run is carved from the device window, the donor region is
    /// registered, and the LLC link pairs and wire channels are
    /// instantiated, then the sections and the router route programmed.
    /// Single-hop and hub-collapsed routes take one endpoint link slot
    /// per channel (the legacy wiring); longer routes add
    /// store-and-forward segments with per-link credit backpressure at
    /// every interior node. On a fabric built with a circuit switch every
    /// channel rides an allocated circuit.
    ///
    /// # Errors
    ///
    /// Fails — without touching fabric state — on unroutable donors,
    /// multi-hop routes on a switched fabric, malformed specs (including
    /// a donor range that runs past the top of the address space),
    /// window exhaustion, duplicate networks, or a full switch.
    pub fn attach_routed(
        &mut self,
        spec: &PathSpec,
        donor_node: NodeId,
    ) -> Result<PathId, FabricError> {
        let topo = &self.topo;
        let route = topo
            .mesh
            .get_route_avoiding(topo.compute, donor_node, &topo.down)?;
        self.attach_along(spec, route)
    }

    /// [`Fabric::attach_routed`] along a route chosen elsewhere: the
    /// rack's control plane routes and reserves every lease, and the
    /// fabric forwards on exactly that route. `route` must walk the
    /// fabric's topology from its compute node.
    ///
    /// # Errors
    ///
    /// As [`Fabric::attach_routed`].
    pub(crate) fn attach_along(
        &mut self,
        spec: &PathSpec,
        route: TopoRoute,
    ) -> Result<PathId, FabricError> {
        if route.hops() == 0 {
            return Err(FabricError::Config(
                "donor node is the compute node itself".into(),
            ));
        }
        let collapsed = is_collapsed(&route, self.topo.mesh.hub());
        if !collapsed && self.switch.is_some() {
            return Err(FabricError::Config(
                "a switched fabric runs every channel on one circuit; multi-hop \
                 routes forward through interior nodes instead"
                    .into(),
            ));
        }
        let section = self.translate.section_size();
        if spec.channels == 0 {
            return Err(FabricError::Config(
                "a path needs at least one channel".into(),
            ));
        }
        if spec.bytes == 0 || !spec.bytes.is_multiple_of(section) {
            return Err(FabricError::Config(format!(
                "path size {} is not a whole number of {} B sections",
                spec.bytes, section
            )));
        }
        // The section table computes each mapping's one-past-end donor
        // address, so the donor range must end below 2^64.
        if !spec.donor_ea.is_multiple_of(128) || spec.donor_ea.checked_add(spec.bytes).is_none() {
            return Err(FabricError::Config(format!(
                "donor range {:#x}+{:#x} must be 128 B aligned and end below 2^64",
                spec.donor_ea, spec.bytes
            )));
        }
        if self.router.channels_of(spec.network).is_some() {
            return Err(FabricError::Config(format!(
                "network {} already has an attached path",
                spec.network.0
            )));
        }
        if let Some(sw) = &self.switch {
            if sw.free_ports().len() < 2 * spec.channels {
                return Err(FabricError::Switch(SwitchError::Exhausted));
            }
        }
        let section_count = spec.bytes / section;
        let first_section =
            self.translate
                .first_free_run(section_count)
                .ok_or(FabricError::WindowExhausted {
                    sections: section_count,
                })?;

        // Donor stage.
        let donor_idx = self.donors.len();
        let mut donor =
            C1MasterDram::new(SimTime::from_ns(self.params.dram_latency_ns), spec.pasid);
        donor.register(Region {
            ea_base: spec.donor_ea,
            len: spec.bytes,
        })?;
        self.donors.push(Some(Box::new(donor)));

        // Links: the endpoint slots ride the whole collapsed route, or
        // only a longer route's first link, its chain forwarding the rest.
        let (topo_links, chain_links) = if collapsed {
            (&route.links[..], &[][..])
        } else {
            route.links.split_at(1)
        };
        let path_id = self.next_path;
        let (chan_ids, ready_at) =
            self.add_links(spec, path_id, donor_idx, topo_links, chain_links)?;

        // Section-table entries + route.
        for i in 0..section_count {
            let mut entry = SectionEntry::new(spec.donor_ea + i * section, spec.network);
            if spec.bonded {
                entry = entry.bonded();
            }
            self.translate.program(first_section + i, entry)?;
        }
        self.router.add_route(spec.network, chan_ids)?;

        self.paths.insert(
            path_id,
            PathState {
                network: spec.network,
                donor: donor_idx,
                window_base: self.window.base + first_section * section,
                window_bytes: spec.bytes,
                issue_cursor: 0,
                completions: Histogram::new(),
                completed_bytes: 0,
                ready_at,
                label: spec.label.clone(),
                poisoned: None,
            },
        );
        self.next_path += 1;
        self.topo.routes.insert(path_id, route);
        self.jot(|f| {
            let detail = format!("{} attached ({} bytes)", spec.label, spec.bytes);
            JournalRecord::new(f.queue.now(), JournalKind::Attach, detail)
                .path(PathId(path_id))
                .links(f.route_link_names(path_id))
        });
        Ok(PathId(path_id))
    }

    /// Detaches a path: removes the route, clears its section-table
    /// entries, frees its switch circuits and tombstones its link slots —
    /// surviving paths keep their channel indices and their trajectories.
    ///
    /// # Errors
    ///
    /// Refuses while the path still has loads in flight; drain first.
    pub fn detach_path(&mut self, path: PathId) -> Result<(), FabricError> {
        self.path_state(path)?;
        if self.inflight.iter().any(|(_, &(_, p, _))| p == path.0) {
            return Err(FabricError::PathBusy(path));
        }
        let state = self
            .paths
            .remove(&path.0)
            .ok_or(FabricError::UnknownPath(path))?;
        // A poisoned path already lost its route (and possibly its
        // circuits) when its last link died; tear down what remains.
        let links: Vec<usize> = self.path_links(state.network).collect();
        if !links.is_empty() {
            self.router.remove_route(state.network)?;
        }
        for s in self.translate.sections_of(state.network) {
            self.translate.unprogram(s)?;
        }
        let now = self.queue.now();
        for l in links {
            if let Some(slot) = self.links.get_mut(l).and_then(Option::take) {
                if let (Some((a, _)), Some(sw)) = (slot.circuit, self.switch.as_mut()) {
                    if sw.peer(a).is_some() {
                        sw.disconnect(a, now)?;
                    }
                }
            }
        }
        self.donors.get_mut(state.donor).and_then(Option::take);
        self.jot(|f| {
            let detail = format!("{} detached", state.label);
            JournalRecord::new(now, JournalKind::Detach, detail)
                .path(path)
                .links(f.route_link_names(path.0))
        });
        self.topo.routes.remove(&path.0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::fabric::engine::tests::{fabric, reference, DONOR};
    use crate::fabric::stage::StageKind;
    use opencapi::pasid::Pasid;
    use rmmu::flow::NetworkId;

    #[test]
    fn attach_carves_disjoint_windows() {
        let mut f = fabric(WindowSpec::rack_default(), None);
        let a = PathSpec::new(NetworkId(1), Pasid(1), 0x7000_0000_0000, 512 << 20);
        let b = PathSpec::new(NetworkId(2), Pasid(2), 0x7100_0000_0000, 256 << 20);
        let a = f.attach_routed(&a, DONOR).unwrap();
        let b = f.attach_routed(&b, DONOR).unwrap();
        let wa = f.path_window(a).unwrap();
        let wb = f.path_window(b).unwrap();
        assert_eq!(wa.base, 0x1000_0000_0000);
        assert_eq!(wb.base, wa.base + wa.bytes, "windows must not alias");
    }

    #[test]
    fn detach_frees_the_window_for_reuse() {
        let mut f = fabric(WindowSpec::reference(512 << 20), None);
        let one = PathSpec::new(NetworkId(1), Pasid(1), 0x7000_0000_0000, 512 << 20);
        let two = PathSpec::new(NetworkId(2), Pasid(2), 0x7100_0000_0000, 256 << 20);
        let a = f.attach_routed(&one, DONOR).unwrap();
        assert!(matches!(
            f.attach_routed(&two, DONOR),
            Err(FabricError::WindowExhausted { sections: 1 })
        ));
        f.detach_path(a).unwrap();
        let b = f.attach_routed(&two, DONOR).unwrap();
        assert_eq!(f.path_window(b).unwrap().base, 0x1000_0000_0000);
        assert!(matches!(f.detach_path(a), Err(FabricError::UnknownPath(_))));
    }

    #[test]
    fn duplicate_networks_and_bad_specs_are_refused() {
        let mut f = fabric(WindowSpec::rack_default(), None);
        let spec = |net, pasid, ea, bytes| PathSpec::new(NetworkId(net), Pasid(pasid), ea, bytes);
        f.attach_routed(&spec(1, 1, 0x7000_0000_0000, 256 << 20), DONOR)
            .unwrap();
        assert!(matches!(
            f.attach_routed(&spec(1, 2, 0x7200_0000_0000, 256 << 20), DONOR),
            Err(FabricError::Config(_))
        ));
        assert!(matches!(
            f.attach_routed(&spec(3, 3, 0x7300_0000_0000, 100), DONOR),
            Err(FabricError::Config(_))
        ));
    }

    #[test]
    fn busy_paths_refuse_detach_until_drained() {
        let (mut f, p) = reference();
        f.issue_read(p).unwrap();
        assert!(matches!(f.detach_path(p), Err(FabricError::PathBusy(_))));
        f.drain().unwrap();
        f.detach_path(p).unwrap();
        assert!(f.path_ids().is_empty());
        // Components are pruned back to the shared compute-side stages.
        assert_eq!(f.components().len(), 3);
    }

    #[test]
    fn bonded_attach_fills_one_link_slot_per_channel() {
        let mut f = fabric(WindowSpec::rack_default(), None);
        let spec = PathSpec::new(NetworkId(1), Pasid(1), 0x7000_0000_0000, 512 << 20);
        let p = f.attach_routed(&spec.bonded_channels(2), DONOR).unwrap();
        // 3 shared stages + 2 LLC pairs and 2 channels per link + 1 donor.
        let kinds: Vec<StageKind> = f.components().into_iter().map(|(_, k)| k).collect();
        assert_eq!(kinds.len(), 3 + 4 * 2 + 1);
        let count = |kind| kinds.iter().filter(|&&k| k == kind).count();
        assert_eq!(count(StageKind::LlcPair), 4);
        assert_eq!(count(StageKind::Channel), 4);
        assert_eq!(count(StageKind::C1MasterDram), 1);
        let links: Vec<usize> = f
            .path_link_stats(p)
            .unwrap()
            .iter()
            .map(|s| s.link)
            .collect();
        assert_eq!(links, vec![0, 1]);
    }
}
