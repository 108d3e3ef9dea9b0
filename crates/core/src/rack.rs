//! Rack assembly: hosts + agents + control plane + datapath parameters.
//!
//! [`RackBuilder`] wires AC922-shaped hosts together with direct-attach
//! cables (two per node pair — the prototype's two independent
//! 100 Gbit/s channels) and stands up the software-defined control
//! plane. [`Rack::attach`] then runs the paper's full flow: authorize →
//! path search + reservation → push signed configs to the two agents →
//! donor pins memory → borrower hotplugs a CPU-less NUMA node — **and**
//! instantiates the flit-level fabric path for the lease: section-table
//! entries, a router route, LLC link pairs and channels on the
//! borrower's [`Fabric`], torn back down on [`Rack::detach`]. Leased
//! memory is thereby exercised end to end at flit granularity: a
//! lease's probes run on the fabric and path [`Rack::lease_fabric`]
//! hands out, and [`Rack::run_lease_streams`] streams leases together.
//!
//! The control plane is the one route authority: it routes every lease
//! on the rack's cable mesh, around cabled pairs without free channels
//! and around the cables the borrower's fabric has seen cut, reserves
//! the lease's channels on that route, and the borrower's fabric
//! forwards on exactly that route. An attach with no such route is
//! refused with [`CpError::NoPath`].

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use ctrlplane::agent::{AgentError, NodeAgent, PinnedRegion};
use ctrlplane::api::AttachSpec;
use ctrlplane::auth::{Role, Token};
use ctrlplane::service::{ControlPlane, CpError, FlowGrant};
use hostsim::node::{HostNode, NodeSpec};
use opencapi::pasid::Pasid;
use rmmu::flow::NetworkId;
use simkit::bandwidth::Rate;
use simkit::stats::Histogram;
use simkit::sweep::sweep_with_workers;
use simkit::time::SimTime;

use crate::attach::{AttachRequest, Lease, LeaseId};
use crate::fabric::{
    ChaosPlan, CongestionReport, Fabric, FabricBuilder, FabricError, Journal, JournalKind,
    JournalRecord, LinkCongestion, PathId, PathSpec, SloBreach, SloSpec, StreamLoad,
};
use crate::params::DatapathParams;

/// Per-node rack configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeConfig {
    /// The host hardware.
    pub spec: NodeSpec,
    /// Network-facing transceiver (channel) count.
    pub transceivers: u32,
}

impl NodeConfig {
    /// The prototype node: an AC922 with two 100 Gbit/s channels.
    pub fn ac922(name: &str) -> Self {
        NodeConfig {
            spec: NodeSpec::ac922(name),
            transceivers: 2,
        }
    }
}

/// Rack-level errors.
#[derive(Debug, Clone, PartialEq)]
pub enum RackError {
    /// Duplicate or missing host names at build time.
    BadTopology(String),
    /// Control-plane rejection.
    ControlPlane(CpError),
    /// Agent-side rejection.
    Agent(AgentError),
    /// Unknown lease.
    UnknownLease(LeaseId),
    /// Flit-level fabric rejection.
    Fabric(FabricError),
    /// The named host crashed; it can neither donate nor borrow until
    /// the operator re-provisions it.
    HostDown(String),
}

impl fmt::Display for RackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RackError::BadTopology(m) => write!(f, "bad topology: {m}"),
            RackError::ControlPlane(e) => write!(f, "control plane: {e}"),
            RackError::Agent(e) => write!(f, "agent: {e}"),
            RackError::UnknownLease(l) => write!(f, "unknown {l}"),
            RackError::Fabric(e) => write!(f, "fabric: {e}"),
            RackError::HostDown(h) => write!(f, "host {h} is down"),
        }
    }
}

impl std::error::Error for RackError {}

impl From<CpError> for RackError {
    fn from(e: CpError) -> Self {
        RackError::ControlPlane(e)
    }
}

impl From<AgentError> for RackError {
    fn from(e: AgentError) -> Self {
        RackError::Agent(e)
    }
}

impl From<FabricError> for RackError {
    fn from(e: FabricError) -> Self {
        RackError::Fabric(e)
    }
}

/// What happened to one lease when its donor host died.
///
/// Emitted by [`Rack::crash_donor`], one per lease the dead host was
/// serving — the typed fault the borrower receives instead of silence.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseFault {
    /// The lease that lost its donor.
    pub lease: LeaseId,
    /// The borrower host that was using the memory.
    pub borrower: String,
    /// The donor host that crashed.
    pub donor: String,
    /// The leased window size.
    pub bytes: u64,
    /// In-flight loads the crash resolved to typed fabric faults.
    pub loads_faulted: usize,
    /// How the evacuation resolved.
    pub resolution: LeaseResolution,
}

/// The outcome of evacuating one lease off a dead donor.
#[derive(Debug, Clone, PartialEq)]
pub enum LeaseResolution {
    /// The window was re-homed on a surviving donor under a new lease.
    /// The borrower keeps its remote memory; the *contents* died with
    /// the donor and the new window starts cold.
    Migrated {
        /// The replacement lease.
        lease: LeaseId,
        /// The surviving donor now serving it.
        donor: String,
    },
    /// No surviving donor could host the window: the lease is gone and
    /// the borrower's remote NUMA node was unplugged.
    Poisoned,
}

/// Builds a [`Rack`].
#[derive(Debug, Default)]
pub struct RackBuilder {
    nodes: Vec<NodeConfig>,
    cables: Vec<(String, String)>,
    params: DatapathParams,
}

impl RackBuilder {
    /// Starts an empty rack with prototype calibration.
    pub fn new() -> Self {
        RackBuilder {
            nodes: Vec::new(),
            cables: Vec::new(),
            params: DatapathParams::prototype(),
        }
    }

    /// Adds a node.
    pub fn node(mut self, config: NodeConfig) -> Self {
        self.nodes.push(config);
        self
    }

    /// Cables two nodes together on every matching transceiver index
    /// (two cables between AC922s: the two independent channels).
    pub fn cable(mut self, a: &str, b: &str) -> Self {
        self.cables.push((a.to_string(), b.to_string()));
        self
    }

    /// Overrides the calibration.
    pub fn params(mut self, params: DatapathParams) -> Self {
        self.params = params;
        self
    }

    /// Builds the rack.
    ///
    /// # Errors
    ///
    /// Fails on duplicate node names or cables naming unknown nodes.
    pub fn build(self) -> Result<Rack, RackError> {
        let mut cp = ControlPlane::new("rack-secret");
        let admin = cp.auth_mut().issue_token(Role::Admin);
        let mut agents = BTreeMap::new();
        for n in &self.nodes {
            if agents.contains_key(&n.spec.name) {
                return Err(RackError::BadTopology(format!(
                    "duplicate node {}",
                    n.spec.name
                )));
            }
            cp.register_host(&n.spec.name, n.spec.dram_bytes);
            agents.insert(
                n.spec.name.clone(),
                NodeAgent::new(HostNode::new(n.spec.clone()), "rack-secret"),
            );
        }
        // One cable per matching transceiver index: the control plane's
        // mesh link for the pair carries one channel per cable.
        for (a, b) in &self.cables {
            let ta = self
                .nodes
                .iter()
                .find(|n| &n.spec.name == a)
                .ok_or_else(|| RackError::BadTopology(format!("unknown node {a}")))?
                .transceivers;
            let tb = self
                .nodes
                .iter()
                .find(|n| &n.spec.name == b)
                .ok_or_else(|| RackError::BadTopology(format!("unknown node {b}")))?
                .transceivers;
            for _ in 0..ta.min(tb) {
                cp.add_cable(a, b)?;
            }
        }
        Ok(Rack {
            cp,
            admin,
            agents,
            leases: BTreeMap::new(),
            next_lease: 1,
            params: self.params,
            fabrics: BTreeMap::new(),
            lease_paths: BTreeMap::new(),
            failed_hosts: BTreeSet::new(),
            journal: Journal::new(),
            slos: BTreeMap::new(),
            pending_breaches: Vec::new(),
            fabric_journals: false,
        })
    }
}

/// One lease's SLO contract plus the cumulative signals already judged,
/// so each [`Rack::evaluate_slos`] call evaluates only the *window*
/// since the last one.
#[derive(Debug)]
struct SloMonitor {
    spec: SloSpec,
    seen: Histogram,
    seen_faults: u64,
}

/// A path's cumulative SLO signals: its completion histogram and the
/// number of its loads that faulted.
fn path_signals(fabric: &Fabric, path: PathId) -> Result<(Histogram, u64), FabricError> {
    let completions = fabric.completions(path)?.clone();
    let faults = fabric.faults().iter().filter(|f| f.path == path).count() as u64;
    Ok((completions, faults))
}

/// A built rack.
#[derive(Debug)]
pub struct Rack {
    cp: ControlPlane,
    admin: Token,
    agents: BTreeMap<String, NodeAgent>,
    leases: BTreeMap<LeaseId, Lease>,
    next_lease: u64,
    params: DatapathParams,
    /// One flit-level fabric per borrower host, created lazily on the
    /// first lease that borrows there.
    fabrics: BTreeMap<String, Fabric>,
    /// Which fabric (by borrower host) and path each lease drives.
    lease_paths: BTreeMap<LeaseId, (String, PathId)>,
    /// Hosts declared dead by [`Rack::crash_donor`]. They neither donate
    /// nor borrow until an operator re-provisions them.
    failed_hosts: BTreeSet<String>,
    /// The rack-level causal journal: lease attach/detach, evacuations
    /// and SLO breaches. Always on — control-plane transitions are rare
    /// and recording never touches the simulation.
    journal: Journal,
    /// Per-lease SLO contracts under evaluation.
    slos: BTreeMap<LeaseId, SloMonitor>,
    /// Final-window breaches judged outside [`Rack::evaluate_slos`] —
    /// today only a dying lease's last judgement during evacuation.
    /// The next `evaluate_slos` call drains them, so callers polling
    /// on a window cadence never miss a breach whose lease no longer
    /// exists.
    pending_breaches: Vec<SloBreach>,
    /// Whether borrower fabrics (existing and lazily created) keep
    /// their own causal journals.
    fabric_journals: bool,
}

impl Rack {
    /// Attaches donor memory to a borrower, end to end: control-plane
    /// route and channel reservation, signed agent configs, donor pin,
    /// borrower hotplug, **and** the flit-level fabric path
    /// (section-table entries, router route, LLC pairs, channels) on the
    /// borrower's [`Fabric`], along the reserved route.
    ///
    /// # Errors
    ///
    /// Propagates control-plane, agent, and fabric failures — including
    /// [`CpError::NoPath`] when no route to the donor has the lease's
    /// channels free and avoids every cable the borrower's fabric has
    /// seen cut; on any partial failure every prior step is rolled back.
    pub fn attach(&mut self, req: AttachRequest) -> Result<Lease, RackError> {
        if !self.agents.contains_key(&req.compute) {
            return Err(RackError::BadTopology(format!("unknown node {}", req.compute)));
        }
        if !self.agents.contains_key(&req.memory) {
            return Err(RackError::BadTopology(format!("unknown node {}", req.memory)));
        }
        for host in [&req.compute, &req.memory] {
            if self.failed_hosts.contains(host.as_str()) {
                return Err(RackError::HostDown(host.clone()));
            }
        }
        // The control plane routes and reserves, around the cables this
        // borrower's fabric has seen cut.
        let no_cuts = BTreeSet::new();
        let cut = self
            .fabrics
            .get(&req.compute)
            .map_or(&no_cuts, Fabric::down_topology_links);
        let grant = self.cp.attach_avoiding(
            &self.admin,
            AttachSpec {
                compute_host: req.compute.clone(),
                memory_host: req.memory.clone(),
                bytes: req.bytes,
                bonded: req.bonded,
            },
            cut,
        )?;
        // Donor pins first; borrower hotplugs second.
        let donor = self.agents.get_mut(&req.memory).expect("checked");
        if let Err(e) = donor.apply_memory(&grant.memory_config) {
            self.cp.detach(&self.admin, grant.flow).expect("fresh flow");
            return Err(e.into());
        }
        let pasid = grant.memory_config.pasid;
        let borrower = self.agents.get_mut(&req.compute).expect("checked");
        let node = match borrower.apply_compute(&grant.compute_config) {
            Ok(n) => n,
            Err(e) => {
                self.agents
                    .get_mut(&req.memory)
                    .expect("checked")
                    .release_memory(pasid)
                    .expect("just pinned");
                self.cp.detach(&self.admin, grant.flow).expect("fresh flow");
                return Err(e.into());
            }
        };
        // Wire the flit-level path the lease will be served over, on the
        // route the control plane reserved.
        let id = LeaseId(self.next_lease);
        let spec = Self::grant_path_spec(&grant, &format!("{}:{id}", req.memory));
        let params = self.params.clone();
        let mesh = self.cp.mesh();
        let compute_node = grant.route.nodes[0];
        let journal_fabrics = self.fabric_journals;
        let fabric = self.fabrics.entry(req.compute.clone()).or_insert_with(|| {
            let (fabric, _) = FabricBuilder::new(params)
                .topology(mesh.clone(), compute_node)
                .build()
                .expect("an empty fabric always assembles");
            fabric
        });
        if journal_fabrics && fabric.journal().is_none() {
            fabric.set_journal(true);
        }
        let path = match fabric.attach_along(&spec, grant.route) {
            Ok(p) => p,
            Err(e) => {
                self.agents
                    .get_mut(&req.compute)
                    .expect("checked")
                    .remove_compute(node)
                    .expect("just hotplugged, no pages yet");
                self.agents
                    .get_mut(&req.memory)
                    .expect("checked")
                    .release_memory(pasid)
                    .expect("just pinned");
                self.cp.detach(&self.admin, grant.flow).expect("fresh flow");
                return Err(e.into());
            }
        };
        let window_base = fabric
            .path_window(path)
            .expect("path just attached")
            .base;
        let at = fabric.now();
        let route_links = Self::route_names(fabric, path);
        self.next_lease += 1;
        let lease = Lease::new(id, grant.flow, node, &req, window_base, spec.network.0, pasid);
        self.leases.insert(id, lease.clone());
        self.lease_paths.insert(id, (req.compute.clone(), path));
        self.journal.record(
            JournalRecord::new(
                at,
                JournalKind::Attach,
                format!(
                    "{} borrows {} bytes from {}",
                    req.compute, req.bytes, req.memory
                ),
            )
            .lease(id.0)
            .path(path)
            .links(route_links),
        );
        Ok(lease)
    }

    /// The topology link names a path's live route walks.
    fn route_names(fabric: &Fabric, path: PathId) -> Vec<String> {
        let names = fabric.topology_link_names();
        fabric
            .topology_route(path)
            .map(|r| {
                r.links
                    .iter()
                    .filter_map(|&l| names.get(l).cloned())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// [`Rack::attach`] with a per-lease SLO contract: the lease's
    /// load-to-use latency and availability are judged window by window
    /// on every [`Rack::evaluate_slos`] call, and breaches land in the
    /// rack journal as typed [`JournalKind::SloBreach`] records.
    ///
    /// # Errors
    ///
    /// As [`Rack::attach`].
    pub fn attach_with_slo(
        &mut self,
        req: AttachRequest,
        spec: SloSpec,
    ) -> Result<Lease, RackError> {
        let lease = self.attach(req)?;
        self.set_lease_slo(lease.id(), spec)?;
        Ok(lease)
    }

    /// Attaches or replaces the SLO contract on a live lease. The new
    /// contract judges only what runs under it: the next
    /// [`Rack::evaluate_slos`] call sees the loads completed or faulted
    /// since this one, never the lease's earlier history.
    ///
    /// # Errors
    ///
    /// Fails on unknown leases.
    pub fn set_lease_slo(&mut self, id: LeaseId, spec: SloSpec) -> Result<(), RackError> {
        let (host, path) = self
            .lease_paths
            .get(&id)
            .ok_or(RackError::UnknownLease(id))?;
        let fabric = self
            .fabrics
            .get(host)
            .ok_or(RackError::UnknownLease(id))?;
        let (seen, seen_faults) = path_signals(fabric, *path)?;
        self.slos.insert(
            id,
            SloMonitor {
                spec,
                seen,
                seen_faults,
            },
        );
        Ok(())
    }

    /// Evaluates every contracted lease's SLO over the window since the
    /// last evaluation (the caller owns the cadence, exactly like
    /// [`simkit::obs::Recorder`] polling): the window is the *delta* of
    /// the path's completion histogram and fault count. Breaches are
    /// returned in lease order and journaled.
    ///
    /// # Errors
    ///
    /// Propagates fabric errors reading a live path's statistics.
    pub fn evaluate_slos(&mut self) -> Result<Vec<SloBreach>, RackError> {
        // Breaches judged out of band (a dying lease's final window
        // during evacuation) surface first, in judgement order.
        let mut out = std::mem::take(&mut self.pending_breaches);
        let ids: Vec<LeaseId> = self.slos.keys().copied().collect();
        for id in ids {
            let Some((host, path)) = self.lease_paths.get(&id).cloned() else {
                continue; // evacuated or detached since contracted
            };
            let Some(fabric) = self.fabrics.get(&host) else {
                continue;
            };
            let (cumulative, faults) = path_signals(fabric, path)?;
            let at = fabric.now();
            let monitor = self.slos.get_mut(&id).expect("listed above");
            let window = cumulative.subtract(&monitor.seen);
            let faulted = faults.saturating_sub(monitor.seen_faults);
            let breaches = monitor.spec.evaluate(id.0, at, &window, faulted);
            monitor.seen = cumulative;
            monitor.seen_faults = faults;
            for b in &breaches {
                self.journal.record(
                    JournalRecord::new(b.at, JournalKind::SloBreach, b.kind.to_string())
                        .lease(id.0)
                        .path(path),
                );
            }
            out.extend(breaches);
        }
        Ok(out)
    }

    /// The rack-level causal journal: lease lifecycle,
    /// evacuations and SLO breaches. Per-fabric transitions (chaos,
    /// reroutes, link deaths) live in each borrower fabric's own
    /// journal — see [`Rack::set_observability`].
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Enables or disables causal journals on every borrower fabric,
    /// current and future. Pure observation: toggling never changes a
    /// fabric's event trajectory.
    pub fn set_observability(&mut self, enabled: bool) {
        self.fabric_journals = enabled;
        for fabric in self.fabrics.values_mut() {
            fabric.set_journal(enabled);
        }
    }

    /// A congestion heatmap over the borrower host's fabric, keyed by
    /// cable-mesh link names. `None` if no lease ever built a fabric
    /// there.
    pub fn congestion_report(&self, host: &str) -> Option<CongestionReport> {
        self.fabrics.get(host).map(Fabric::congestion_report)
    }

    /// Declares a donor host dead and evacuates every lease it served.
    ///
    /// Models the paper's worst failure case: the memory-stealing
    /// endpoint vanishes mid-service. For each affected lease, in
    /// ascending lease order: the borrower fabric's donor component is
    /// crashed (every in-flight load resolves to a typed fault — never
    /// silence), the poisoned path is torn down, the borrower's remote
    /// NUMA node is unplugged, the control-plane reservation is
    /// released, and the window is re-homed on a surviving donor when
    /// one has capacity and connectivity ([`LeaseResolution::Migrated`])
    /// or reported lost ([`LeaseResolution::Poisoned`]). The crashed
    /// host's own pinned-memory accounting is left as it died — its
    /// state is gone — and the host refuses new attachments
    /// ([`RackError::HostDown`]) until re-provisioned.
    ///
    /// Returns one [`LeaseFault`] per evacuated lease.
    ///
    /// # Errors
    ///
    /// Fails on unknown hosts, or if a borrower still has pages
    /// allocated on a dying node (the unplug is refused rather than
    /// losing data silently).
    pub fn crash_donor(&mut self, host: &str) -> Result<Vec<LeaseFault>, RackError> {
        if !self.agents.contains_key(host) {
            return Err(RackError::BadTopology(format!("unknown node {host}")));
        }
        self.failed_hosts.insert(host.to_string());
        let mut victims: Vec<LeaseId> = self
            .leases
            .values()
            .filter(|l| l.memory() == host)
            .map(|l| l.id())
            .collect();
        victims.sort();
        let mut faults = Vec::with_capacity(victims.len());
        for id in victims {
            faults.push(self.evacuate(id, host)?);
        }
        Ok(faults)
    }

    /// Evacuates one lease off the crashed donor `host`.
    fn evacuate(&mut self, id: LeaseId, host: &str) -> Result<LeaseFault, RackError> {
        let lease = self
            .leases
            .get(&id)
            .cloned()
            .ok_or(RackError::UnknownLease(id))?;
        // Land the crash on the serving fabric: in-flight loads on the
        // lease's path resolve to typed faults and the path poisons.
        let mut loads_faulted = 0;
        if let Some((fabric_host, path)) = self.lease_paths.remove(&id) {
            if let Some(fabric) = self.fabrics.get_mut(&fabric_host) {
                let donor = fabric.path_donor(path)?;
                let before = fabric.faults().len();
                fabric.schedule_chaos(&ChaosPlan::new().donor_crash(fabric.now(), donor));
                fabric.drain()?;
                loads_faulted = fabric.faults().len() - before;
                // The dying lease gets one final judgement before the
                // contract migrates: loads the crash faulted are an
                // availability violation, and evacuating must not
                // launder it. The breaches surface from the next
                // `evaluate_slos` call.
                if let Some(monitor) = self.slos.get_mut(&id) {
                    let (cumulative, faults) = path_signals(fabric, path)?;
                    let window = cumulative.subtract(&monitor.seen);
                    let faulted = faults.saturating_sub(monitor.seen_faults);
                    let breaches =
                        monitor.spec.evaluate(id.0, fabric.now(), &window, faulted);
                    for b in &breaches {
                        self.journal.record(
                            JournalRecord::new(b.at, JournalKind::SloBreach, b.kind.to_string())
                                .lease(id.0)
                                .path(path),
                        );
                    }
                    self.pending_breaches.extend(breaches);
                }
                fabric.detach_path(path)?;
            }
        }
        // The borrower unplugs the now-dead remote node. The crashed
        // donor's pinned accounting is deliberately not released — that
        // state died with the host.
        self.agents
            .get_mut(lease.compute())
            .expect("lease host exists")
            .remove_compute(lease.numa_node())?;
        self.cp.detach(&self.admin, lease.flow())?;
        self.leases.remove(&id);
        // Re-home the window on a surviving donor, smallest name first
        // for determinism. Capacity or connectivity rejections move on
        // to the next candidate; fabric errors are real bugs.
        let mut candidates: Vec<String> = self
            .agents
            .keys()
            .filter(|h| {
                h.as_str() != lease.compute() && !self.failed_hosts.contains(h.as_str())
            })
            .cloned()
            .collect();
        candidates.sort();
        for candidate in candidates {
            let mut req = AttachRequest::new(lease.compute(), &candidate, lease.bytes());
            if lease.is_bonded() {
                req = req.bonded();
            }
            match self.attach(req) {
                Ok(new) => {
                    // The contract survives the migration: the
                    // replacement lease is judged from a fresh window.
                    if let Some(m) = self.slos.remove(&id) {
                        self.set_lease_slo(new.id(), m.spec)?;
                    }
                    self.journal.record(
                        JournalRecord::new(
                            self.fabrics
                                .get(lease.compute())
                                .map_or(SimTime::ZERO, Fabric::now),
                            JournalKind::Evacuation,
                            format!(
                                "donor {host} died; lease migrated to {candidate} as lease {}",
                                new.id().0
                            ),
                        )
                        .lease(id.0),
                    );
                    return Ok(LeaseFault {
                        lease: id,
                        borrower: lease.compute().to_string(),
                        donor: host.to_string(),
                        bytes: lease.bytes(),
                        loads_faulted,
                        resolution: LeaseResolution::Migrated {
                            lease: new.id(),
                            donor: candidate,
                        },
                    });
                }
                Err(RackError::ControlPlane(_) | RackError::Agent(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        self.slos.remove(&id);
        self.journal.record(
            JournalRecord::new(
                self.fabrics
                    .get(lease.compute())
                    .map_or(SimTime::ZERO, Fabric::now),
                JournalKind::Evacuation,
                format!("donor {host} died; no surviving donor — lease poisoned"),
            )
            .lease(id.0),
        );
        Ok(LeaseFault {
            lease: id,
            borrower: lease.compute().to_string(),
            donor: host.to_string(),
            bytes: lease.bytes(),
            loads_faulted,
            resolution: LeaseResolution::Poisoned,
        })
    }

    /// Derives the flit-level path of a control-plane grant: network id
    /// and bonding from the section programming, PASID and donor EA from
    /// the memory config, and channel count from the reservation.
    fn grant_path_spec(grant: &FlowGrant, label: &str) -> PathSpec {
        let first = grant
            .compute_config
            .sections
            .first()
            .expect("granted flows program at least one section");
        let mut spec = PathSpec::new(
            NetworkId(first.network),
            Pasid(grant.memory_config.pasid),
            grant.memory_config.ea_base,
            grant.compute_config.window_bytes,
        )
        .bonded_channels(grant.channels as usize)
        .labelled(label);
        spec.bonded = first.bonded;
        spec
    }

    /// Tears a lease down end to end: borrower unplug, flit-level path
    /// teardown (drained first so in-flight loads retire), donor unpin,
    /// control-plane release.
    ///
    /// # Errors
    ///
    /// Fails on unknown leases, or if the borrower still has pages
    /// allocated on the remote node.
    pub fn detach(&mut self, id: LeaseId) -> Result<(), RackError> {
        let lease = self
            .leases
            .get(&id)
            .cloned()
            .ok_or(RackError::UnknownLease(id))?;
        self.agents
            .get_mut(lease.compute())
            .expect("lease host exists")
            .remove_compute(lease.numa_node())?;
        // Unwire the flit-level path. Surviving paths on the same fabric
        // keep their channel indices (the slots are tombstoned).
        if let Some((host, path)) = self.lease_paths.remove(&id) {
            if let Some(fabric) = self.fabrics.get_mut(&host) {
                fabric.drain()?;
                fabric.detach_path(path)?;
            }
        }
        self.agents
            .get_mut(lease.memory())
            .expect("lease host")
            .release_memory(lease.pasid())
            .expect("a live lease's donor pin is held");
        self.cp.detach(&self.admin, lease.flow())?;
        self.leases.remove(&id);
        self.slos.remove(&id);
        let at = self
            .fabrics
            .get(lease.compute())
            .map_or(SimTime::ZERO, Fabric::now);
        self.journal.record(
            JournalRecord::new(
                at,
                JournalKind::Detach,
                format!("{} returns {} bytes to {}", lease.compute(), lease.bytes(), lease.memory()),
            )
            .lease(id.0),
        );
        Ok(())
    }

    /// A host by name.
    pub fn host(&self, name: &str) -> Option<&HostNode> {
        self.agents.get(name).map(|a| a.host())
    }

    /// Mutable host access (workload allocation).
    pub fn host_mut(&mut self, name: &str) -> Option<&mut HostNode> {
        self.agents.get_mut(name).map(|a| a.host_mut())
    }

    /// The control plane: the cable mesh, its channel reservations and
    /// the audit trail.
    pub fn control_plane(&self) -> &ControlPlane {
        &self.cp
    }

    /// The control plane (REST-style interface, audit trail).
    pub fn control_plane_mut(&mut self) -> &mut ControlPlane {
        &mut self.cp
    }

    /// The regions a host has pinned for donation, one per lease it
    /// serves. `None` for unknown hosts.
    pub fn pinned(&self, host: &str) -> Option<&[PinnedRegion]> {
        self.agents.get(host).map(NodeAgent::pinned)
    }

    /// Live leases.
    pub fn leases(&self) -> impl Iterator<Item = &Lease> {
        self.leases.values()
    }

    /// The calibration constants.
    pub fn params(&self) -> &DatapathParams {
        &self.params
    }

    /// The borrower host's flit-level fabric, if any lease ever
    /// instantiated one there.
    pub fn fabric(&self, host: &str) -> Option<&Fabric> {
        self.fabrics.get(host)
    }

    /// Mutable access to a borrower host's fabric — chaos injection and
    /// direct load issue for failure testing.
    pub fn fabric_mut(&mut self, host: &str) -> Option<&mut Fabric> {
        self.fabrics.get_mut(host)
    }

    /// The fabric path a lease drives.
    pub fn lease_path(&self, id: LeaseId) -> Option<PathId> {
        self.lease_paths.get(&id).map(|(_, p)| *p)
    }

    /// The borrower fabric serving a lease, and the lease's path on it:
    /// every per-lease probe is a [`Fabric`] call on this pair
    /// ([`Fabric::measure_load_latency`],
    /// [`Fabric::measure_stream_bandwidth`],
    /// [`Fabric::measure_traced_load`] then [`Fabric::path_breakdown`],
    /// [`Fabric::set_telemetry`], [`Fabric::telemetry_snapshot`]).
    ///
    /// # Errors
    ///
    /// [`RackError::UnknownLease`] for a lease that is not live.
    pub fn lease_fabric(&mut self, id: LeaseId) -> Result<(&mut Fabric, PathId), RackError> {
        let (host, path) = self
            .lease_paths
            .get(&id)
            .cloned()
            .ok_or(RackError::UnknownLease(id))?;
        let fabric = self
            .fabrics
            .get_mut(&host)
            .ok_or(RackError::UnknownLease(id))?;
        Ok((fabric, path))
    }

    /// Runs concurrent closed-loop streams — `(lease, threads, window)`
    /// each — over one borrower's fabric, returning per-lease rates in
    /// the order given.
    ///
    /// The window drains after its deadline, as
    /// [`Rack::run_fleet_streams`] does, so back-to-back calls each
    /// start from an idle fabric: latency measures contention, not the
    /// last window's backlog.
    ///
    /// # Errors
    ///
    /// Fails on unknown leases, on an empty load list, or if the leases
    /// borrow on different hosts (their fabrics share no clock).
    pub fn run_lease_streams(
        &mut self,
        loads: &[(LeaseId, u32, u32)],
        duration: SimTime,
    ) -> Result<Vec<Rate>, RackError> {
        let mut host: Option<String> = None;
        let mut streams = Vec::with_capacity(loads.len());
        for &(id, threads, window) in loads {
            let (h, path) = self
                .lease_paths
                .get(&id)
                .cloned()
                .ok_or(RackError::UnknownLease(id))?;
            match &host {
                None => host = Some(h),
                Some(prev) if *prev == h => {}
                Some(prev) => {
                    return Err(RackError::BadTopology(format!(
                        "streams span fabrics: {prev} vs {h}"
                    )))
                }
            }
            streams.push(StreamLoad {
                path,
                threads,
                window,
            });
        }
        let host = host.ok_or_else(|| RackError::BadTopology("no streams given".into()))?;
        let fabric = self
            .fabrics
            .get_mut(&host)
            .expect("lease paths point at live fabrics");
        let rates = fabric.run_closed_loop(&streams, duration)?;
        fabric.drain()?;
        Ok(rates)
    }

    /// Runs concurrent closed-loop streams across *every* borrower
    /// fabric at once — the fleet-scale sibling of
    /// [`Rack::run_lease_streams`], which insists on a single host.
    ///
    /// Loads are grouped by borrower host and each group runs on its
    /// own fabric. A borrower fabric is an independent event queue with
    /// its own clock, so the groups share no state and execute
    /// concurrently on up to `workers` threads (via the same
    /// deterministic harness the figure sweeps use). Because each
    /// fabric's run is sequential and isolated, every returned rate —
    /// and every statistic, journal record and congestion counter the
    /// run leaves behind — is bit-identical at any worker count.
    ///
    /// Each window drains after its deadline, so in-flight loads retire
    /// instead of piling onto the next call: latency measures
    /// contention, not carried-over backlog. Use
    /// [`Rack::run_fleet_streams_undrained`] when the backlog is the
    /// point.
    ///
    /// Returns per-lease rates in the order given.
    ///
    /// # Errors
    ///
    /// Fails on unknown leases, on an empty load list, or on a fabric
    /// protocol violation in any group (the first failing host in
    /// `BTreeMap` order wins; all fabrics are restored regardless).
    pub fn run_fleet_streams(
        &mut self,
        loads: &[(LeaseId, u32, u32)],
        duration: SimTime,
        workers: usize,
    ) -> Result<Vec<Rate>, RackError> {
        self.run_fleet_streams_inner(loads, duration, workers, true)
    }

    /// [`Rack::run_fleet_streams`] without the post-deadline drain:
    /// loads still in flight at the deadline stay queued on their
    /// fabrics. That is how a scenario lands chaos *mid-burst* — e.g.
    /// crash a donor while its leases still owe loads, so the faults
    /// are judged against the availability contract.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Rack::run_fleet_streams`].
    pub fn run_fleet_streams_undrained(
        &mut self,
        loads: &[(LeaseId, u32, u32)],
        duration: SimTime,
        workers: usize,
    ) -> Result<Vec<Rate>, RackError> {
        self.run_fleet_streams_inner(loads, duration, workers, false)
    }

    fn run_fleet_streams_inner(
        &mut self,
        loads: &[(LeaseId, u32, u32)],
        duration: SimTime,
        workers: usize,
        drain: bool,
    ) -> Result<Vec<Rate>, RackError> {
        // Group loads by borrower host, remembering each load's
        // original slot so rates come back in caller order.
        let mut groups: BTreeMap<String, (Vec<StreamLoad>, Vec<usize>)> = BTreeMap::new();
        for (slot, &(id, threads, window)) in loads.iter().enumerate() {
            let (host, path) = self
                .lease_paths
                .get(&id)
                .cloned()
                .ok_or(RackError::UnknownLease(id))?;
            let group = groups.entry(host).or_default();
            group.0.push(StreamLoad {
                path,
                threads,
                window,
            });
            group.1.push(slot);
        }
        if groups.is_empty() {
            return Err(RackError::BadTopology("no streams given".into()));
        }
        // Move each group's fabric out of the rack so the runs can
        // migrate to worker threads; every fabric is put back below,
        // error or not.
        let mut work = Vec::with_capacity(groups.len());
        for (host, (streams, slots)) in groups {
            let fabric = self
                .fabrics
                .remove(&host)
                .expect("lease paths point at live fabrics");
            work.push((host, fabric, streams, slots));
        }
        let results = sweep_with_workers(
            0,
            work,
            workers.max(1),
            move |_i, (host, mut fabric, streams, slots), _rng| {
                let rates = fabric.run_closed_loop(&streams, duration).and_then(|r| {
                    if drain {
                        fabric.drain()?;
                    }
                    Ok(r)
                });
                (host, fabric, rates, slots)
            },
        );
        let mut rates: Vec<Option<Rate>> = vec![None; loads.len()];
        let mut first_err: Option<FabricError> = None;
        for (host, fabric, result, slots) in results {
            self.fabrics.insert(host, fabric);
            match result {
                Ok(group_rates) => {
                    for (slot, rate) in slots.into_iter().zip(group_rates) {
                        rates[slot] = Some(rate);
                    }
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e.into());
        }
        Ok(rates
            .into_iter()
            .map(|r| r.expect("every load slot was grouped"))
            .collect())
    }

    /// Congestion heatmaps for every borrower fabric in the rack, in
    /// host order — the fleet-wide view [`Rack::congestion_report`]
    /// gives per host. Hosts that never built a fabric are absent.
    fn fleet_congestion(&self) -> BTreeMap<String, CongestionReport> {
        self.fabrics
            .iter()
            .map(|(host, fabric)| (host.clone(), fabric.congestion_report()))
            .collect()
    }

    /// The single hottest link across every borrower fabric, as
    /// `(host, link)` — the headline of a fleet report's congestion
    /// snapshot. Ranks by the same (utilization, stall, frames) order
    /// [`CongestionReport::hottest`] uses; ties resolve to the first
    /// host in `BTreeMap` order, so the answer is deterministic.
    pub fn hottest_link(&self) -> Option<(String, LinkCongestion)> {
        let mut best: Option<(String, LinkCongestion)> = None;
        for (host, report) in self.fleet_congestion() {
            let Some(link) = report.hottest().cloned() else {
                continue;
            };
            let better = match &best {
                None => true,
                Some((_, current)) => {
                    (link.utilization, link.stall_ns, link.frames())
                        > (current.utilization, current.stall_ns, current.frames())
                }
            };
            if better {
                best = Some((host, link));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::units::GIB;

    fn rack() -> Rack {
        RackBuilder::new()
            .node(NodeConfig::ac922("borrower"))
            .node(NodeConfig::ac922("donor"))
            .cable("borrower", "donor")
            .build()
            .unwrap()
    }

    /// One uncontended load over the lease's path.
    fn lease_rtt(r: &mut Rack, id: LeaseId) -> SimTime {
        let (fabric, path) = r.lease_fabric(id).unwrap();
        fabric.measure_load_latency(path).unwrap()
    }

    #[test]
    fn attach_detach_lifecycle() {
        let mut r = rack();
        let lease = r
            .attach(AttachRequest::new("borrower", "donor", 16 * GIB))
            .unwrap();
        assert_eq!(r.host("borrower").unwrap().remote_bytes(), 16 * GIB);
        assert!(r
            .host("borrower")
            .unwrap()
            .numa()
            .node(lease.numa_node())
            .unwrap()
            .is_cpuless());
        assert_eq!(r.leases().count(), 1);
        r.detach(lease.id()).unwrap();
        assert_eq!(r.host("borrower").unwrap().remote_bytes(), 0);
        assert_eq!(r.leases().count(), 0);
    }

    #[test]
    fn bonded_attach_uses_two_channels() {
        let mut r = rack();
        let lease = r
            .attach(AttachRequest::new("borrower", "donor", 16 * GIB).bonded())
            .unwrap();
        assert!(lease.is_bonded());
        // Both channels reserved: a second bonded attach between the
        // same pair fails.
        let err = r
            .attach(AttachRequest::new("borrower", "donor", 16 * GIB).bonded())
            .unwrap_err();
        assert!(matches!(err, RackError::ControlPlane(_)));
    }

    #[test]
    fn unknown_nodes_rejected() {
        let mut r = rack();
        assert!(matches!(
            r.attach(AttachRequest::new("ghost", "donor", GIB)),
            Err(RackError::BadTopology(_))
        ));
        assert!(matches!(
            r.detach(LeaseId(99)),
            Err(RackError::UnknownLease(LeaseId(99)))
        ));
    }

    #[test]
    fn failed_agent_application_rolls_back_reservation() {
        let mut r = rack();
        // Exhaust the donor's pinnable memory (512 GiB) so the memory
        // agent rejects while the control plane would accept 256 GiB
        // twice (donor_total is 512 GiB) plus one more.
        let a = r
            .attach(AttachRequest::new("borrower", "donor", 256 * GIB))
            .unwrap();
        let _b = r
            .attach(AttachRequest::new("borrower", "donor", 256 * GIB))
            .unwrap();
        // Donor now fully pinned AND control plane fully reserved: the
        // next attach fails cleanly at the control plane.
        let err = r
            .attach(AttachRequest::new("borrower", "donor", GIB))
            .unwrap_err();
        assert!(matches!(err, RackError::ControlPlane(_)));
        // Detach one and retry: works again (reservation was not leaked).
        r.detach(a.id()).unwrap();
        assert!(r
            .attach(AttachRequest::new("borrower", "donor", GIB))
            .is_ok());
    }

    #[test]
    fn three_node_rack_cross_attachments() {
        let mut r = RackBuilder::new()
            .node(NodeConfig::ac922("n1"))
            .node(NodeConfig::ac922("n2"))
            .node(NodeConfig::ac922("n3"))
            .cable("n1", "n2")
            .cable("n2", "n3")
            .build()
            .unwrap();
        // n1 borrows from n2; n3 borrows from n2 as well.
        let l1 = r.attach(AttachRequest::new("n1", "n2", 8 * GIB)).unwrap();
        let l2 = r.attach(AttachRequest::new("n3", "n2", 8 * GIB)).unwrap();
        assert_ne!(l1.id(), l2.id());
        assert_eq!(r.host("n1").unwrap().remote_bytes(), 8 * GIB);
        assert_eq!(r.host("n3").unwrap().remote_bytes(), 8 * GIB);
    }

    #[test]
    fn leases_carve_non_aliasing_fabric_windows() {
        let mut r = rack();
        let a = r
            .attach(AttachRequest::new("borrower", "donor", 16 * GIB))
            .unwrap();
        let b = r
            .attach(AttachRequest::new("borrower", "donor", 8 * GIB))
            .unwrap();
        // Both leases live on the borrower's one fabric, in disjoint
        // window ranges and on distinct networks.
        assert_ne!(a.network_id(), b.network_id());
        assert_ne!(a.window_base(), b.window_base());
        let (lo, hi) = if a.window_base() < b.window_base() {
            (&a, &b)
        } else {
            (&b, &a)
        };
        assert!(
            lo.window_base() + lo.bytes() <= hi.window_base(),
            "windows alias: {:#x}+{:#x} vs {:#x}",
            lo.window_base(),
            lo.bytes(),
            hi.window_base()
        );
        let fabric = r.fabric("borrower").unwrap();
        assert_eq!(fabric.path_ids().len(), 2);
    }

    #[test]
    fn lease_traffic_flows_at_flit_level() {
        let mut r = rack();
        let lease = r
            .attach(AttachRequest::new("borrower", "donor", 4 * GIB))
            .unwrap();
        let rtt = lease_rtt(&mut r, lease.id());
        assert!(
            (1000..=1200).contains(&rtt.as_ns()),
            "lease RTT {rtt} off the reference envelope"
        );
        let (fabric, path) = r.lease_fabric(lease.id()).unwrap();
        let rate = fabric
            .measure_stream_bandwidth(path, 8, 32, SimTime::from_us(100))
            .unwrap();
        let gib = rate.as_gib_per_sec();
        assert!((8.5..=11.64).contains(&gib), "lease stream {gib} GiB/s");
        r.detach(lease.id()).unwrap();
        assert!(r.lease_path(lease.id()).is_none());
        assert!(matches!(
            r.lease_fabric(lease.id()),
            Err(RackError::UnknownLease(_))
        ));
    }

    #[test]
    fn detach_tears_down_the_fabric_path() {
        let mut r = rack();
        let a = r
            .attach(AttachRequest::new("borrower", "donor", 4 * GIB))
            .unwrap();
        let b = r
            .attach(AttachRequest::new("borrower", "donor", 4 * GIB))
            .unwrap();
        r.detach(a.id()).unwrap();
        let fabric = r.fabric("borrower").unwrap();
        assert_eq!(fabric.path_ids().len(), 1);
        // The survivor still serves traffic.
        let rtt = lease_rtt(&mut r, b.id());
        assert!((1000..=1200).contains(&rtt.as_ns()), "{rtt}");
        // And a fresh lease can reuse the freed window space.
        let c = r
            .attach(AttachRequest::new("borrower", "donor", 4 * GIB))
            .unwrap();
        assert_eq!(c.window_base(), a.window_base());
    }

    #[test]
    fn donor_crash_migrates_leases_to_a_surviving_donor() {
        let mut r = RackBuilder::new()
            .node(NodeConfig::ac922("n1"))
            .node(NodeConfig::ac922("n2"))
            .node(NodeConfig::ac922("n3"))
            .cable("n1", "n2")
            .cable("n1", "n3")
            .build()
            .unwrap();
        let lease = r.attach(AttachRequest::new("n1", "n2", 8 * GIB)).unwrap();
        // Put loads in flight on the lease's path, then kill the donor
        // mid-service: the fabric must fault them, never drop them.
        let path = r.lease_path(lease.id()).unwrap();
        let fabric = r.fabric_mut("n1").unwrap();
        let issued: Vec<u64> = (0..4).map(|_| fabric.issue_read(path).unwrap()).collect();
        let faults = r.crash_donor("n2").unwrap();
        assert_eq!(faults.len(), 1);
        let f = &faults[0];
        assert_eq!(f.lease, lease.id());
        assert_eq!(f.borrower, "n1");
        assert_eq!(f.donor, "n2");
        assert_eq!(f.bytes, 8 * GIB);
        assert_eq!(f.loads_faulted, issued.len());
        let LeaseResolution::Migrated { lease: new, donor } = &f.resolution else {
            panic!("n3 has capacity and a cable: {:?}", f.resolution);
        };
        assert_eq!(donor, "n3");
        // Every stranded load shows up in the fabric's typed fault log.
        let fabric = r.fabric("n1").unwrap();
        for tag in issued {
            assert!(fabric.faults().iter().any(|l| l.tag == tag));
        }
        // The replacement lease serves traffic; the borrower never lost
        // its remote capacity.
        assert_eq!(r.host("n1").unwrap().remote_bytes(), 8 * GIB);
        let rtt = lease_rtt(&mut r, *new);
        assert!((1000..=1200).contains(&rtt.as_ns()), "{rtt}");
        assert_eq!(r.leases().count(), 1);
        // The dead host refuses new business.
        assert!(matches!(
            r.attach(AttachRequest::new("n1", "n2", GIB)),
            Err(RackError::HostDown(h)) if h == "n2"
        ));
    }

    #[test]
    fn donor_crash_without_spare_poisons_the_lease() {
        let mut r = rack();
        let lease = r
            .attach(AttachRequest::new("borrower", "donor", 16 * GIB))
            .unwrap();
        let faults = r.crash_donor("donor").unwrap();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].resolution, LeaseResolution::Poisoned);
        assert_eq!(faults[0].lease, lease.id());
        // The borrower lost the window: node unplugged, lease gone.
        assert_eq!(r.host("borrower").unwrap().remote_bytes(), 0);
        assert_eq!(r.leases().count(), 0);
        assert!(r.lease_path(lease.id()).is_none());
    }

    #[test]
    fn donor_crash_spares_other_donors_leases() {
        let mut r = RackBuilder::new()
            .node(NodeConfig::ac922("n1"))
            .node(NodeConfig::ac922("n2"))
            .node(NodeConfig::ac922("n3"))
            .cable("n1", "n2")
            .cable("n1", "n3")
            .build()
            .unwrap();
        let doomed = r.attach(AttachRequest::new("n1", "n2", 8 * GIB)).unwrap();
        let safe = r.attach(AttachRequest::new("n1", "n3", 4 * GIB)).unwrap();
        let faults = r.crash_donor("n2").unwrap();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].lease, doomed.id());
        // n3's lease rides through on the shared borrower fabric. (The
        // migration target for the doomed lease is also n3, so n1 now
        // holds two leases there.)
        let rtt = lease_rtt(&mut r, safe.id());
        assert!((1000..=1200).contains(&rtt.as_ns()), "{rtt}");
        assert_eq!(r.host("n1").unwrap().remote_bytes(), 12 * GIB);
    }

    #[test]
    fn evacuation_judges_the_dying_leases_final_window() {
        let mut r = RackBuilder::new()
            .node(NodeConfig::ac922("n1"))
            .node(NodeConfig::ac922("n2"))
            .node(NodeConfig::ac922("n3"))
            .cable("n1", "n2")
            .cable("n1", "n3")
            .build()
            .unwrap();
        let lease = r
            .attach_with_slo(
                AttachRequest::new("n1", "n2", 8 * GIB),
                SloSpec::new().availability(0.999),
            )
            .unwrap();
        let path = r.lease_path(lease.id()).unwrap();
        let fabric = r.fabric_mut("n1").unwrap();
        for _ in 0..4 {
            fabric.issue_read(path).unwrap();
        }
        // Kill the donor mid-service: the four in-flight loads fault
        // and the dying lease is judged one final time instead of the
        // migration laundering the availability violation.
        let faults = r.crash_donor("n2").unwrap();
        assert_eq!(faults[0].loads_faulted, 4);
        let breaches = r.evaluate_slos().unwrap();
        let fatal = breaches
            .iter()
            .find(|b| b.lease == lease.id().0)
            .expect("the dying lease's final window is judged");
        assert!(matches!(
            fatal.kind,
            crate::fabric::SloBreachKind::Availability { .. }
        ));
        // The judgement is one-shot: the next evaluation starts clean
        // (the replacement lease has a fresh window and no traffic).
        assert!(r.evaluate_slos().unwrap().is_empty());
    }

    #[test]
    fn fleet_streams_match_per_host_runs_exactly() {
        let build = || {
            RackBuilder::new()
                .node(NodeConfig::ac922("n1"))
                .node(NodeConfig::ac922("n2"))
                .node(NodeConfig::ac922("n3"))
                .node(NodeConfig::ac922("n4"))
                .cable("n1", "n2")
                .cable("n3", "n4")
                .build()
                .unwrap()
        };
        let duration = simkit::time::SimTime::from_us(10);
        // Arm A: both borrower fabrics at once through the fleet path.
        let mut fleet = build();
        let a = fleet.attach(AttachRequest::new("n1", "n2", 4 * GIB)).unwrap();
        let b = fleet.attach(AttachRequest::new("n3", "n4", 4 * GIB)).unwrap();
        let fleet_rates = fleet
            .run_fleet_streams(&[(a.id(), 4, 8), (b.id(), 2, 4)], duration, 4)
            .unwrap();
        // Arm B: the same loads, one host at a time.
        let mut solo = build();
        let a2 = solo.attach(AttachRequest::new("n1", "n2", 4 * GIB)).unwrap();
        let b2 = solo.attach(AttachRequest::new("n3", "n4", 4 * GIB)).unwrap();
        let ra = solo.run_lease_streams(&[(a2.id(), 4, 8)], duration).unwrap();
        let rb = solo.run_lease_streams(&[(b2.id(), 2, 4)], duration).unwrap();
        // Independent event queues: the fleet run is the per-host runs,
        // in caller order, except the fleet path also drains (so its
        // byte counts can only be higher).
        assert_eq!(fleet_rates.len(), 2);
        assert!(fleet_rates[0].bytes_per_sec() >= ra[0].bytes_per_sec());
        assert!(fleet_rates[1].bytes_per_sec() >= rb[0].bytes_per_sec());
        // And the fleet-wide congestion view covers both fabrics.
        assert_eq!(fleet.fleet_congestion().len(), 2);
        assert!(fleet.hottest_link().is_some());
    }

    #[test]
    fn fleet_stream_that_loses_its_route_before_any_completion_errs() {
        // Cut the lease's only link 50 ns into the window, long before
        // the first load can come back: the stream retires nothing, the
        // watchdog declares the link dead and poisons the path. That is
        // a typed fault, not a zero-rate panic.
        let mut r = rack();
        let lease = r
            .attach(AttachRequest::new("borrower", "donor", 4 * GIB))
            .unwrap();
        let path = r.lease_path(lease.id()).unwrap();
        let fabric = r.fabric_mut("borrower").unwrap();
        let route = fabric.topology_route(path).unwrap();
        assert_eq!(route.links.len(), 1, "a single cable is the only route");
        let link = fabric.topology_link_names()[route.links[0]].clone();
        let at = fabric.now() + SimTime::from_ns(50);
        fabric.schedule_chaos(&ChaosPlan::new().link_down_named(at, &link));
        let got = r.run_fleet_streams(&[(lease.id(), 2, 4)], SimTime::from_us(60), 1);
        assert!(
            matches!(
                got,
                Err(RackError::Fabric(FabricError::PathFaulted { path: p, .. })) if p == path
            ),
            "{got:?}"
        );
        // A window too short for any round trip on a healthy path is an
        // error too, and so is an empty one.
        let mut r = rack();
        let lease = r
            .attach(AttachRequest::new("borrower", "donor", 4 * GIB))
            .unwrap();
        let path = r.lease_path(lease.id()).unwrap();
        let short = r.run_lease_streams(&[(lease.id(), 1, 1)], SimTime::from_ns(100));
        assert!(
            matches!(short, Err(RackError::Fabric(FabricError::NoCompletions(p))) if p == path),
            "{short:?}"
        );
        let empty = r.run_lease_streams(&[(lease.id(), 1, 1)], SimTime::ZERO);
        assert!(
            matches!(empty, Err(RackError::Fabric(FabricError::Config(_)))),
            "{empty:?}"
        );
    }

    /// The completions `path` retired since `before`, on the borrower's
    /// fabric.
    fn window_since(r: &Rack, path: PathId, before: &Histogram) -> Histogram {
        r.fabric("borrower")
            .unwrap()
            .completions(path)
            .unwrap()
            .subtract(before)
    }

    #[test]
    fn back_to_back_lease_windows_each_start_idle() {
        // Each window drains before the call returns, so the second
        // window carries none of the first's loads and sees the same
        // latencies.
        let mut r = rack();
        let lease = r
            .attach(AttachRequest::new("borrower", "donor", 4 * GIB))
            .unwrap();
        let path = r.lease_path(lease.id()).unwrap();
        let mut p50s = Vec::new();
        for _ in 0..2 {
            let before = r.fabric("borrower").unwrap().completions(path).unwrap().clone();
            r.run_lease_streams(&[(lease.id(), 8, 32)], SimTime::from_us(20))
                .unwrap();
            p50s.push(window_since(&r, path, &before).quantile(0.5));
        }
        assert_eq!(p50s[0], p50s[1], "the second window's p50 climbed");
        assert_eq!(r.fabric("borrower").unwrap().next_event_time(), None);
    }

    #[test]
    fn re_contracting_a_lease_judges_only_windows_under_the_new_contract() {
        let mut r = rack();
        let lease = r
            .attach_with_slo(
                AttachRequest::new("borrower", "donor", 4 * GIB),
                SloSpec::new().availability(0.999),
            )
            .unwrap();
        let path = r.lease_path(lease.id()).unwrap();
        // The new contract's budget: twice the uncontended load-to-use.
        let budget = SimTime::from_ns(2 * lease_rtt(&mut r, lease.id()).as_ns());
        // A slow history: a deep closed loop queues loads behind each
        // other, under a contract with no latency budget.
        let slow = [(lease.id(), 16, 32)];
        r.run_lease_streams(&slow, SimTime::from_us(20)).unwrap();
        assert!(r.evaluate_slos().unwrap().is_empty());
        let history_p99 = window_since(&r, path, &Histogram::new()).quantile(0.99);
        assert!(history_p99 > budget.as_ns(), "history p99 {history_p99} ns");
        r.set_lease_slo(lease.id(), SloSpec::new().p99(budget)).unwrap();
        assert_eq!(
            r.evaluate_slos().unwrap(),
            vec![],
            "the slow history ran under the old contract"
        );
        // A light window under the new contract stays inside it...
        r.run_lease_streams(&[(lease.id(), 1, 1)], SimTime::from_us(20))
            .unwrap();
        assert_eq!(r.evaluate_slos().unwrap(), vec![]);
        // ...and the first slow one breaches it.
        r.run_lease_streams(&slow, SimTime::from_us(20)).unwrap();
        let breaches = r.evaluate_slos().unwrap();
        assert_eq!(breaches.len(), 1, "{breaches:?}");
        assert_eq!(breaches[0].lease, lease.id().0);
        assert!(
            matches!(
                breaches[0].kind,
                crate::fabric::SloBreachKind::P99 { budget_ns, .. } if budget_ns == budget.as_ns()
            ),
            "{breaches:?}"
        );
    }

    #[test]
    fn attach_without_a_surviving_route_rolls_back() {
        // A line a–b–c. a's fabric has seen cable a-b cut, so the
        // control plane routes a's leases around it: a's attach to c has
        // no route, is refused and holds nothing.
        let mut r = RackBuilder::new()
            .node(NodeConfig::ac922("a"))
            .node(NodeConfig::ac922("b"))
            .node(NodeConfig::ac922("c"))
            .cable("a", "b")
            .cable("b", "c")
            .build()
            .unwrap();
        let lease = r.attach(AttachRequest::new("a", "b", 4 * GIB)).unwrap();
        let path = r.lease_path(lease.id()).unwrap();
        let fabric = r.fabric_mut("a").unwrap();
        let cut = fabric.topology_route(path).unwrap().links[0];
        let name = fabric.topology_link_names()[cut].clone();
        assert_eq!(name, "a-b");
        let at = fabric.now();
        fabric.schedule_chaos(&ChaosPlan::new().link_down_named(at, &name));
        fabric.drain().unwrap();
        let flows = r.cp.flow_count();
        let channels = r.cp.links().to_vec();
        let pinned = r.agents["c"].pinned().to_vec();
        let numa = r.host("a").unwrap().numa().nodes().to_vec();
        let paths = r.fabric("a").unwrap().path_ids();
        let err = r.attach(AttachRequest::new("a", "c", 4 * GIB)).unwrap_err();
        assert_eq!(err, RackError::ControlPlane(CpError::NoPath));
        assert_eq!(r.cp.flow_count(), flows);
        assert_eq!(r.cp.links(), channels.as_slice());
        assert_eq!(r.agents["c"].pinned(), pinned.as_slice());
        assert_eq!(r.host("a").unwrap().numa().nodes(), numa.as_slice());
        assert_eq!(r.fabric("a").unwrap().path_ids(), paths);
        assert_eq!(r.leases().count(), 1);
    }

    #[test]
    fn duplicate_nodes_rejected_at_build() {
        let err = RackBuilder::new()
            .node(NodeConfig::ac922("x"))
            .node(NodeConfig::ac922("x"))
            .build()
            .unwrap_err();
        assert!(matches!(err, RackError::BadTopology(_)));
    }
}
