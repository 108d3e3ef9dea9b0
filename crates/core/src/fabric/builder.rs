//! Wires fabric components into topologies.
//!
//! [`FabricBuilder`] assembles a [`Fabric`] over one shared event queue
//! and a declared [`Topology`], and attaches the requested paths along
//! their computed routes — a fabric has no other wiring mode, so
//! [`FabricBuilder::build`] refuses a builder without
//! [`FabricBuilder::topology`]. A builder given
//! [`FabricBuilder::switch`] puts every channel of every path on a
//! circuit. Every canned shape is a thin wrapper over a degenerate
//! topology:
//!
//! * [`FabricBuilder::point_to_point`] — a 2-node [`routing::Line`];
//!   the pre-fabric monolith's shape, preserved event-for-event as the
//!   reference topology;
//! * [`FabricBuilder::fan_out`] — a 1-tier [`routing::Clos`] (one hub,
//!   one compute node borrowing from N donors, one network id per
//!   donor);
//! * [`FabricBuilder::circuit_rack`] — the same 1-tier Clos with a
//!   circuit switch, every channel on an allocated circuit;
//! * [`FabricBuilder::from_topology`] — any [`Topology`] (Line, Ring,
//!   Torus2D, 2-tier Clos, or a hand-built [`Mesh`]): paths attach by
//!   destination node ([`FabricBuilder::path_to`]) and multi-hop
//!   routes forward store-and-forward through interior nodes.

use netsim::switch::CircuitSwitch;
use simkit::event::Engine;

use crate::fabric::engine::{Fabric, FabricError, PathId, PathSpec};
use crate::fabric::stage::WindowSpec;
use crate::params::DatapathParams;

use routing::plan::FlowPlan;
use routing::topology::{Clos, Line, Mesh, NodeId, Topology};

/// Builds a [`Fabric`] and its initial paths.
#[derive(Debug)]
pub struct FabricBuilder {
    params: DatapathParams,
    engine: Engine,
    window: WindowSpec,
    switch: Option<CircuitSwitch>,
    topology: Option<(Mesh, NodeId)>,
    paths: Vec<(PathSpec, NodeId)>,
}

impl FabricBuilder {
    /// A builder over the rack-default 1 TiB device window. It builds
    /// only once [`FabricBuilder::topology`] declares what it is wired
    /// over.
    pub fn new(params: DatapathParams) -> Self {
        FabricBuilder {
            params,
            engine: Engine::Hybrid,
            window: WindowSpec::rack_default(),
            switch: None,
            topology: None,
            paths: Vec::new(),
        }
    }

    /// A builder wired over `topo`, with the compute endpoint on
    /// `compute`. Paths attach by destination node
    /// ([`FabricBuilder::path_to`]) and derive their wiring — including
    /// store-and-forward segments on multi-hop routes — from computed
    /// routes.
    pub fn from_topology(
        params: DatapathParams,
        topo: &dyn Topology,
        compute: NodeId,
    ) -> Self {
        Self::new(params).topology(Mesh::snapshot(topo), compute)
    }

    /// Overrides the event engine (the engine benchmark pins
    /// [`Engine::HeapOnly`] as its baseline).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Overrides the device-window placement.
    pub fn window(mut self, window: WindowSpec) -> Self {
        self.window = window;
        self
    }

    /// Adds a circuit-switching layer: every channel of every path then
    /// rides an allocated circuit, and only single-hop or hub routes
    /// attach.
    pub fn switch(mut self, switch: CircuitSwitch) -> Self {
        self.switch = Some(switch);
        self
    }

    /// Declares the topology the fabric is wired over (a concrete
    /// [`Mesh`], so hub markers from [`Clos::single_tier`] survive) and
    /// the node carrying the compute endpoint.
    pub fn topology(mut self, mesh: Mesh, compute: NodeId) -> Self {
        self.topology = Some((mesh, compute));
        self
    }

    /// Queues a path to the donor on topology node `donor` — its wiring
    /// is derived from the computed route at build time.
    pub fn path_to(mut self, donor: NodeId, spec: PathSpec) -> Self {
        self.paths.push((spec, donor));
        self
    }

    /// Assembles the fabric and attaches the queued paths in order.
    ///
    /// # Errors
    ///
    /// Refuses a builder without a declared topology and a device window
    /// that is not a whole number of RMMU sections at a 128 B aligned
    /// base or that wraps past the top of the address space
    /// ([`FabricError::Config`]), and propagates the first failing
    /// attach.
    pub fn build(self) -> Result<(Fabric, Vec<PathId>), FabricError> {
        let (mesh, compute) = self.topology.ok_or_else(|| {
            FabricError::Config(
                "a fabric is wired over a declared topology (FabricBuilder::topology)".into(),
            )
        })?;
        let mut fabric = Fabric::assemble(
            self.params,
            self.window,
            self.switch,
            self.engine,
            mesh,
            compute,
        )?;
        let mut ids = Vec::with_capacity(self.paths.len());
        for (spec, donor) in &self.paths {
            ids.push(fabric.attach_routed(spec, *donor)?);
        }
        Ok((fabric, ids))
    }

    /// The reference topology — a 2-node [`Line`]: one borrower, one
    /// donor, `channels` bonded channels over a `bytes`-sized
    /// attachment — exactly the shape (and event trajectory) of the
    /// pre-fabric `Datapath`.
    ///
    /// # Errors
    ///
    /// Propagates attach failures (misaligned sizes, zero channels).
    pub fn point_to_point(
        params: DatapathParams,
        channels: usize,
        bytes: u64,
    ) -> Result<(Fabric, PathId), FabricError> {
        Self::point_to_point_with_engine(params, channels, bytes, Engine::Hybrid)
    }

    /// [`FabricBuilder::point_to_point`] with an explicit engine choice.
    ///
    /// # Errors
    ///
    /// Propagates attach failures (misaligned sizes, zero channels).
    pub fn point_to_point_with_engine(
        params: DatapathParams,
        channels: usize,
        bytes: u64,
        engine: Engine,
    ) -> Result<(Fabric, PathId), FabricError> {
        let line = Line::new(2)?;
        let (fabric, ids) = FabricBuilder::from_topology(params, &line, NodeId(0))
            .engine(engine)
            .window(WindowSpec::reference(bytes))
            .path_to(NodeId(1), PathSpec::reference(bytes, channels))
            .build()?;
        let id = ids
            .first()
            .copied()
            .ok_or_else(|| FabricError::Config("point-to-point built no path".into()))?;
        Ok((fabric, id))
    }

    /// One compute × N donors — a 1-tier [`Clos`] (hub) topology: each
    /// donor contributes a `share`-sized attachment on its own network
    /// id (`d + 1`), PASID (`100 + d`) and donor address range, all
    /// multiplexed over the shared compute-side stages.
    ///
    /// # Errors
    ///
    /// Propagates attach failures.
    pub fn fan_out(
        params: DatapathParams,
        donors: usize,
        share: u64,
    ) -> Result<(Fabric, Vec<PathId>), FabricError> {
        let clos = Clos::single_tier(1 + donors)?;
        let mut b = FabricBuilder::new(params)
            .topology(clos.mesh(), hub_host(&clos, 0)?)
            .window(WindowSpec {
                base: 0x1000_0000_0000,
                bytes: share * donors as u64,
            });
        for d in 0..donors {
            b = b.path_to(hub_host(&clos, 1 + d)?, donor_share(d, share));
        }
        b.build()
    }

    /// The fan-out shape with a circuit switch: every channel rides an
    /// allocated `switch` circuit.
    ///
    /// # Errors
    ///
    /// Propagates attach failures, including switch-port exhaustion.
    pub fn circuit_rack(
        params: DatapathParams,
        donors: usize,
        share: u64,
        switch: CircuitSwitch,
    ) -> Result<(Fabric, Vec<PathId>), FabricError> {
        let clos = Clos::single_tier(1 + donors)?;
        let mut b = FabricBuilder::new(params)
            .topology(clos.mesh(), hub_host(&clos, 0)?)
            .window(WindowSpec {
                base: 0x1000_0000_0000,
                bytes: share * donors as u64,
            })
            .switch(switch);
        for d in 0..donors {
            b = b.path_to(hub_host(&clos, 1 + d)?, donor_share(d, share));
        }
        b.build()
    }
}

/// Host `i` of a 1-tier Clos (always present by construction; typed as
/// a config error to keep builders panic-free).
fn hub_host(clos: &Clos, i: usize) -> Result<NodeId, FabricError> {
    clos.host(i)
        .ok_or_else(|| FabricError::Config(format!("1-tier Clos has no host {i}")))
}

/// The per-donor path spec the fan-out topologies use; the flow
/// identity (network, PASID, donor window) comes from the routing
/// layer's [`FlowPlan`].
fn donor_share(d: usize, share: u64) -> PathSpec {
    let plan = FlowPlan::donor(d);
    PathSpec::new(plan.network, plan.pasid, plan.donor_ea, share).labelled(&plan.label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::stage::StageKind;
    use simkit::time::SimTime;

    #[test]
    fn fan_out_multiplexes_one_compute_side() {
        let (fabric, paths) =
            FabricBuilder::fan_out(DatapathParams::prototype(), 3, 256 << 20).unwrap();
        assert_eq!(paths.len(), 3);
        let kinds = fabric.components();
        let donors = kinds
            .iter()
            .filter(|(_, k)| *k == StageKind::C1MasterDram)
            .count();
        let captures = kinds
            .iter()
            .filter(|(_, k)| *k == StageKind::M1)
            .count();
        assert_eq!(donors, 3);
        assert_eq!(captures, 1, "fan-out shares one M1 capture stage");
    }

    #[test]
    fn circuit_rack_puts_every_channel_on_a_circuit() {
        let (mut fabric, paths) = FabricBuilder::circuit_rack(
            DatapathParams::prototype(),
            2,
            256 << 20,
            CircuitSwitch::optical(8),
        )
        .unwrap();
        let sw = fabric.switch().unwrap();
        assert_eq!(sw.circuit_count(), 2);
        assert_eq!(sw.free_ports().len(), 4);
        // A first load on each path waits out the circuits' 25 µs setup.
        for &p in &paths {
            fabric.issue_read(p).unwrap();
        }
        let mut done = Vec::new();
        while let Some(batch) = fabric.step().unwrap() {
            done.extend(batch);
        }
        assert_eq!(done.len(), paths.len());
        assert!(done.iter().all(|c| c.latency >= SimTime::from_us(25)));
    }

    #[test]
    fn switched_fabrics_refuse_multi_hop_routes() {
        let line = Line::new(3).unwrap();
        let switched = |donor| {
            FabricBuilder::from_topology(DatapathParams::prototype(), &line, NodeId(0))
                .switch(CircuitSwitch::optical(8))
                .path_to(donor, PathSpec::reference(256 << 20, 1))
                .build()
        };
        // Node 2 is two hops away: its frames would forward through
        // node 1, never touching the switch.
        assert!(matches!(switched(NodeId(2)), Err(FabricError::Config(_))));
        // A single-hop route rides a circuit.
        let (fabric, _) = switched(NodeId(1)).unwrap();
        assert_eq!(fabric.switch().unwrap().circuit_count(), 1);
    }

    #[test]
    fn legacy_builders_expose_their_degenerate_topologies() {
        let (fabric, path) =
            FabricBuilder::point_to_point(DatapathParams::prototype(), 2, 1 << 30).unwrap();
        let route = fabric.topology_route(path).unwrap();
        assert_eq!(route.hops(), 1);
        assert_eq!(fabric.topology_link_names(), vec!["h0-h1".to_string()]);

        let (fabric, paths) =
            FabricBuilder::fan_out(DatapathParams::prototype(), 2, 256 << 20).unwrap();
        let route = fabric.topology_route(paths[1]).unwrap();
        assert_eq!(route.hops(), 2, "fan-out routes go compute → hub → donor");
        assert!(fabric
            .topology_link_names()
            .contains(&"h2-hub".to_string()));
    }

    #[test]
    fn path_to_without_topology_is_refused() {
        let bare = FabricBuilder::new(DatapathParams::prototype());
        assert!(matches!(bare.build(), Err(FabricError::Config(_))));
        let err = FabricBuilder::new(DatapathParams::prototype())
            .path_to(NodeId(1), PathSpec::reference(256 << 20, 1))
            .build()
            .unwrap_err();
        assert!(matches!(err, FabricError::Config(_)));
    }
}
