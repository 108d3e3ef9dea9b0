//! The control-plane service: state, attach/detach orchestration, the
//! JSON entry point and the audit trail.
//!
//! The system state is the rack's cable mesh: one [`Mesh`] host per
//! registered host and one link per cabled host pair, whose capacity is
//! the number of cables laid between the pair, one channel each. An
//! attach routes the lease with [`Topology::get_route_avoiding`], the
//! breadth-first search the fabric forwards on, skipping every link
//! without enough free channels, and holds the lease's channels (two
//! when bonded) on each link of that one route.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use routing::topology::{Mesh, NodeId, Route, Topology};
use serde::{Deserialize, Serialize};

use crate::api::{
    AttachSpec, ComputeConfig, MemoryConfig, Request, Response, SectionProgram,
};
use crate::auth::{sign_config, AccessControl, AuthError, Token};

/// Section granularity (must match the RMMU/hotplug section size).
pub const SECTION_BYTES: u64 = 256 << 20;

/// Handle of a live attachment.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct FlowHandle(pub u64);

impl fmt::Display for FlowHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow#{}", self.0)
    }
}

/// Control-plane errors.
#[derive(Debug, Clone, PartialEq)]
pub enum CpError {
    /// Authorization failed.
    Auth(AuthError),
    /// Unknown host.
    UnknownHost(String),
    /// Bytes must be a positive multiple of the section size.
    BadSize(u64),
    /// The donor lacks unreserved memory.
    DonorExhausted {
        /// The donor host.
        host: String,
        /// Bytes available.
        available: u64,
    },
    /// No route between the two hosts has the lease's channels free on
    /// every link.
    NoPath,
    /// Unknown flow handle.
    UnknownFlow(FlowHandle),
}

impl fmt::Display for CpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpError::Auth(e) => write!(f, "authorization: {e}"),
            CpError::UnknownHost(h) => write!(f, "unknown host {h}"),
            CpError::BadSize(b) => write!(f, "bad size {b}"),
            CpError::DonorExhausted { host, available } => {
                write!(f, "donor {host} exhausted ({available} bytes left)")
            }
            CpError::NoPath => write!(f, "no network path with enough capacity"),
            CpError::UnknownFlow(h) => write!(f, "unknown {h}"),
        }
    }
}

impl std::error::Error for CpError {}

impl From<AuthError> for CpError {
    fn from(e: AuthError) -> Self {
        CpError::Auth(e)
    }
}

/// What an approved attachment hands back: the configurations to push to
/// the two agents, and the route the datapath must forward on.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowGrant {
    /// The flow handle for later detachment.
    pub flow: FlowHandle,
    /// Configuration for the compute-side agent.
    pub compute_config: ComputeConfig,
    /// Configuration for the memory-side agent.
    pub memory_config: MemoryConfig,
    /// The reserved route over [`ControlPlane::mesh`], compute host
    /// first, memory host last.
    pub route: Route,
    /// Channels held on every link of `route` (1, or 2 when bonded).
    pub channels: u32,
}

/// Channel accounting of one cabled host pair (one mesh link).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkChannels {
    /// Cables laid between the pair, one channel each.
    pub cables: u32,
    /// Channels live flows hold on the pair.
    pub held: u32,
}

#[derive(Debug, Clone)]
struct HostRecord {
    node: NodeId,
    donor_total: u64,
    donor_reserved: u64,
    next_ea: u64,
}

#[derive(Debug, Clone)]
struct FlowRecord {
    compute: String,
    memory: String,
    bytes: u64,
    route: Route,
    channels: u32,
}

/// One audit-trail entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditEntry {
    /// Monotone sequence number.
    pub seq: u64,
    /// What happened.
    pub event: String,
}

/// The control-plane service.
#[derive(Debug)]
pub struct ControlPlane {
    secret: String,
    mesh: Mesh,
    /// Per mesh link, by link index.
    links: Vec<LinkChannels>,
    auth: AccessControl,
    hosts: BTreeMap<String, HostRecord>,
    flows: BTreeMap<FlowHandle, FlowRecord>,
    next_flow: u64,
    next_network: u32,
    next_pasid: u32,
    audit: Vec<AuditEntry>,
}

impl ControlPlane {
    /// Creates a control plane with the given config-signing secret.
    pub fn new(secret: &str) -> Self {
        ControlPlane {
            secret: secret.to_string(),
            mesh: Mesh::new(),
            links: Vec::new(),
            auth: AccessControl::new(),
            hosts: BTreeMap::new(),
            flows: BTreeMap::new(),
            next_flow: 1,
            next_network: 1,
            next_pasid: 1,
            audit: Vec::new(),
        }
    }

    /// The access-control registry.
    pub fn auth_mut(&mut self) -> &mut AccessControl {
        &mut self.auth
    }

    /// The system state: the cable mesh grants are routed on. Hosts are
    /// nodes in registration order; each cabled pair is one link, in
    /// the order of its first cable.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Channel accounting of every mesh link, by link index.
    pub fn links(&self) -> &[LinkChannels] {
        &self.links
    }

    /// The audit trail.
    pub fn audit(&self) -> &[AuditEntry] {
        &self.audit
    }

    fn log(&mut self, event: String) {
        let seq = self.audit.len() as u64;
        self.audit.push(AuditEntry { seq, event });
    }

    fn host(&self, name: &str) -> Result<&HostRecord, CpError> {
        self.hosts
            .get(name)
            .ok_or_else(|| CpError::UnknownHost(name.to_string()))
    }

    /// Registers a host with `donor_bytes` of memory it may donate.
    pub fn register_host(&mut self, name: &str, donor_bytes: u64) {
        let node = self.mesh.add_host(name);
        self.hosts.insert(
            name.to_string(),
            HostRecord {
                node,
                donor_total: donor_bytes,
                donor_reserved: 0,
                next_ea: 0x7000_0000_0000,
            },
        );
        self.log(format!("register_host {name} donor_bytes={donor_bytes}"));
    }

    /// Lays one direct-attach cable between `host_a` and `host_b`: one
    /// more channel on the pair's mesh link, which the pair's first
    /// cable creates.
    ///
    /// # Errors
    ///
    /// [`CpError::UnknownHost`] if either host is unregistered.
    pub fn add_cable(&mut self, host_a: &str, host_b: &str) -> Result<(), CpError> {
        let a = self.host(host_a)?.node;
        let b = self.host(host_b)?.node;
        let pair = self
            .mesh
            .links()
            .iter()
            .position(|l| (l.a, l.b) == (a, b) || (l.a, l.b) == (b, a));
        let link = match pair {
            Some(link) => link,
            None => {
                self.links.push(LinkChannels::default());
                self.mesh.link(a, b)
            }
        };
        self.links[link].cables += 1;
        self.log(format!("add_cable {host_a} <-> {host_b}"));
        Ok(())
    }

    /// Attaches `spec.bytes` of `spec.memory_host`'s memory to
    /// `spec.compute_host` over the fewest-hop route whose every link
    /// has the lease's channels free.
    ///
    /// # Errors
    ///
    /// Fails on authorization, capacity, or route-search failures; on
    /// failure no resource remains reserved.
    pub fn attach(&mut self, token: &Token, spec: AttachSpec) -> Result<FlowGrant, CpError> {
        self.attach_avoiding(token, spec, &BTreeSet::new())
    }

    /// [`ControlPlane::attach`] that also keeps the route off the `cut`
    /// mesh links, the cables the borrower's datapath has seen fail.
    ///
    /// # Errors
    ///
    /// As [`ControlPlane::attach`].
    pub fn attach_avoiding(
        &mut self,
        token: &Token,
        spec: AttachSpec,
        cut: &BTreeSet<usize>,
    ) -> Result<FlowGrant, CpError> {
        self.auth
            .authorize_attach(token, &spec.compute_host, &spec.memory_host)?;
        if spec.bytes == 0 || !spec.bytes.is_multiple_of(SECTION_BYTES) {
            return Err(CpError::BadSize(spec.bytes));
        }
        let compute = self.host(&spec.compute_host)?.node;
        let donor = self.host(&spec.memory_host)?;
        let available = donor.donor_total - donor.donor_reserved;
        if available < spec.bytes {
            return Err(CpError::DonorExhausted {
                host: spec.memory_host.clone(),
                available,
            });
        }

        // Route on the mesh around the cut links and every link without
        // the lease's channels free, then hold them along the route.
        let channels = if spec.bonded { 2 } else { 1 };
        let mut avoid = cut.clone();
        avoid.extend(
            self.links
                .iter()
                .enumerate()
                .filter(|(_, l)| l.held + channels > l.cables)
                .map(|(i, _)| i),
        );
        let route = self
            .mesh
            .get_route_avoiding(compute, donor.node, &avoid)
            .map_err(|_| CpError::NoPath)?;
        if route.hops() == 0 {
            return Err(CpError::NoPath);
        }
        for &l in &route.links {
            self.links[l].held += channels;
        }

        // Carve the donor region and mint configurations.
        let donor = self
            .hosts
            .get_mut(&spec.memory_host)
            .expect("checked above");
        donor.donor_reserved += spec.bytes;
        let ea_base = donor.next_ea;
        donor.next_ea += spec.bytes;
        let pasid = self.next_pasid;
        self.next_pasid += 1;
        let network = self.next_network;
        self.next_network += 1;

        let sections: Vec<SectionProgram> = (0..spec.bytes / SECTION_BYTES)
            .map(|i| SectionProgram {
                index: i,
                remote_ea_base: ea_base + i * SECTION_BYTES,
                network,
                bonded: spec.bonded,
            })
            .collect();
        let mut compute_config = ComputeConfig {
            window_bytes: spec.bytes,
            sections,
            signature: 0,
        };
        compute_config.signature = sign_config(&self.secret, &compute_config.payload());
        let mut memory_config = MemoryConfig {
            pasid,
            ea_base,
            len: spec.bytes,
            signature: 0,
        };
        memory_config.signature = sign_config(&self.secret, &memory_config.payload());

        let flow = FlowHandle(self.next_flow);
        self.next_flow += 1;
        self.flows.insert(
            flow,
            FlowRecord {
                compute: spec.compute_host.clone(),
                memory: spec.memory_host.clone(),
                bytes: spec.bytes,
                route: route.clone(),
                channels,
            },
        );
        self.log(format!(
            "attach {flow}: {} <- {} {} bytes bonded={} channels={channels} hops={}",
            spec.compute_host,
            spec.memory_host,
            spec.bytes,
            spec.bonded,
            route.hops()
        ));
        Ok(FlowGrant {
            flow,
            compute_config,
            memory_config,
            route,
            channels,
        })
    }

    /// Tears a flow down, releasing its channels and donor reservation.
    ///
    /// # Errors
    ///
    /// Fails on authorization failure or unknown flows.
    pub fn detach(&mut self, token: &Token, flow: FlowHandle) -> Result<(), CpError> {
        let record = self.flows.get(&flow).ok_or(CpError::UnknownFlow(flow))?;
        self.auth
            .authorize_attach(token, &record.compute, &record.memory)?;
        let record = self.flows.remove(&flow).expect("found above");
        for &l in &record.route.links {
            self.links[l].held -= record.channels;
        }
        self.hosts
            .get_mut(&record.memory)
            .expect("host existed at attach")
            .donor_reserved -= record.bytes;
        self.log(format!("detach {flow}"));
        Ok(())
    }

    /// Number of live flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Handles one request.
    pub fn handle(&mut self, req: Request) -> Response {
        match req {
            Request::Attach { token, spec } => match self.attach(&token, spec) {
                Ok(grant) => Response::Attached {
                    flow: grant.flow.0,
                    bytes: grant.memory_config.len,
                    channels: grant.channels,
                },
                Err(e) => error_response(e),
            },
            Request::Detach { token, flow } => {
                match self.detach(&token, FlowHandle(flow)) {
                    Ok(()) => Response::Detached { flow },
                    Err(e) => error_response(e),
                }
            }
            Request::Status { token } => {
                if self.auth.role(&token).is_none() {
                    return error_response(CpError::Auth(AuthError::UnknownToken));
                }
                Response::Status {
                    flows: self.flows.len() as u64,
                    hosts: self.hosts.len() as u64,
                }
            }
        }
    }

    /// The REST-style JSON entry point.
    pub fn handle_json(&mut self, json: &str) -> String {
        let resp = match serde_json::from_str::<Request>(json) {
            Ok(req) => self.handle(req),
            Err(e) => Response::Error {
                code: "bad_request".into(),
                message: e.to_string(),
            },
        };
        serde_json::to_string(&resp).expect("responses always serialize")
    }
}

fn error_response(e: CpError) -> Response {
    let code = match &e {
        CpError::Auth(AuthError::UnknownToken) => "unauthorized",
        CpError::Auth(AuthError::Forbidden) => "forbidden",
        CpError::UnknownHost(_) => "unknown_host",
        CpError::BadSize(_) => "bad_size",
        CpError::DonorExhausted { .. } => "donor_exhausted",
        CpError::NoPath => "no_path",
        CpError::UnknownFlow(_) => "unknown_flow",
    };
    Response::Error {
        code: code.into(),
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::Role;
    use simkit::units::GIB;

    /// `c1` and `m1` joined by two cables.
    fn plane() -> (ControlPlane, Token) {
        let mut cp = ControlPlane::new("s3cret");
        let admin = cp.auth_mut().issue_token(Role::Admin);
        cp.register_host("c1", 512 * GIB);
        cp.register_host("m1", 512 * GIB);
        cp.add_cable("c1", "m1").unwrap();
        cp.add_cable("c1", "m1").unwrap();
        (cp, admin)
    }

    /// Hosts `h0..h{n-1}` in a row, one cable per neighbouring pair.
    fn line(n: usize) -> (ControlPlane, Token) {
        let mut cp = ControlPlane::new("s");
        let admin = cp.auth_mut().issue_token(Role::Admin);
        for i in 0..n {
            cp.register_host(&format!("h{i}"), 512 * GIB);
        }
        for i in 1..n {
            cp.add_cable(&format!("h{}", i - 1), &format!("h{i}"))
                .unwrap();
        }
        (cp, admin)
    }

    fn spec(bytes: u64, bonded: bool) -> AttachSpec {
        between("c1", "m1", bytes, bonded)
    }

    fn between(compute: &str, memory: &str, bytes: u64, bonded: bool) -> AttachSpec {
        AttachSpec {
            compute_host: compute.into(),
            memory_host: memory.into(),
            bytes,
            bonded,
        }
    }

    fn held(cp: &ControlPlane) -> Vec<u32> {
        cp.links().iter().map(|l| l.held).collect()
    }

    #[test]
    fn attach_produces_signed_configs() {
        let (mut cp, admin) = plane();
        let grant = cp.attach(&admin, spec(GIB, false)).unwrap();
        assert_eq!(grant.compute_config.sections.len(), 4); // 4 x 256 MiB
        assert_eq!(grant.memory_config.len, GIB);
        assert_eq!(grant.channels, 1);
        assert!(crate::auth::verify_config(
            "s3cret",
            &grant.compute_config.payload(),
            grant.compute_config.signature
        ));
        assert!(crate::auth::verify_config(
            "s3cret",
            &grant.memory_config.payload(),
            grant.memory_config.signature
        ));
        assert_eq!(cp.flow_count(), 1);
    }

    #[test]
    fn cables_between_one_pair_share_one_link() {
        let (cp, _) = plane();
        assert_eq!(cp.mesh().links().len(), 1);
        assert_eq!(cp.mesh().link_name(0), Some("c1-m1"));
        assert_eq!(cp.links(), &[LinkChannels { cables: 2, held: 0 }]);
    }

    #[test]
    fn add_cable_to_an_unknown_host_is_refused() {
        let (mut cp, _) = plane();
        assert_eq!(
            cp.add_cable("c1", "ghost"),
            Err(CpError::UnknownHost("ghost".into()))
        );
        assert_eq!(cp.links(), &[LinkChannels { cables: 2, held: 0 }]);
    }

    #[test]
    fn bonding_holds_two_channels_on_one_route() {
        let (mut cp, admin) = plane();
        let grant = cp.attach(&admin, spec(GIB, true)).unwrap();
        assert_eq!(grant.channels, 2);
        assert_eq!(grant.route.links, vec![0]);
        assert_eq!(held(&cp), vec![2]);
        // Both cables are now full: a second bonded attach fails with
        // everything rolled back.
        let err = cp.attach(&admin, spec(GIB, true)).unwrap_err();
        assert_eq!(err, CpError::NoPath);
        cp.detach(&admin, grant.flow).unwrap();
        // After detach the capacity is back.
        assert!(cp.attach(&admin, spec(GIB, true)).is_ok());
    }

    #[test]
    fn attach_takes_the_fewest_hop_route() {
        // A row of four hosts: the only route crosses both interior
        // hosts.
        let (mut cp, admin) = line(4);
        let grant = cp.attach(&admin, between("h0", "h3", GIB, false)).unwrap();
        assert_eq!(grant.route.links, vec![0, 1, 2]);
        assert_eq!(grant.route.nodes.first(), Some(&NodeId(0)));
        assert_eq!(grant.route.nodes.last(), Some(&NodeId(3)));
        assert_eq!(held(&cp), vec![1, 1, 1]);
        // With the row free again, a shortcut cable wins over it.
        cp.detach(&admin, grant.flow).unwrap();
        cp.add_cable("h0", "h3").unwrap();
        let grant = cp.attach(&admin, between("h0", "h3", GIB, false)).unwrap();
        assert_eq!(grant.route.links, vec![3]);
    }

    #[test]
    fn attach_detours_around_full_links() {
        // A ring h0-h1-h2-h3-h0 of single cables: once h0-h1 is full,
        // h0's lease on h1 goes the long way round.
        let (mut cp, admin) = line(4);
        cp.add_cable("h3", "h0").unwrap();
        let first = cp.attach(&admin, between("h0", "h1", GIB, false)).unwrap();
        assert_eq!(first.route.links, vec![0]);
        let detour = cp.attach(&admin, between("h0", "h1", GIB, false)).unwrap();
        assert_eq!(detour.route.links, vec![3, 2, 1]);
        assert_eq!(held(&cp), vec![1, 1, 1, 1]);
        // The cut links of the caller's datapath are avoided the same way.
        cp.detach(&admin, first.flow).unwrap();
        let cut = BTreeSet::from([0]);
        let err = cp
            .attach_avoiding(&admin, between("h0", "h1", GIB, false), &cut)
            .unwrap_err();
        assert_eq!(err, CpError::NoPath);
    }

    #[test]
    fn no_free_channels_is_no_path_and_holds_nothing() {
        let (mut cp, admin) = line(3);
        cp.add_cable("h1", "h2").unwrap();
        let _hog = cp.attach(&admin, between("h0", "h1", GIB, false)).unwrap();
        // h0-h1 has no channel left, h1-h2 has two.
        let before = held(&cp);
        for bonded in [false, true] {
            let err = cp
                .attach(&admin, between("h0", "h2", GIB, bonded))
                .unwrap_err();
            assert_eq!(err, CpError::NoPath);
            assert_eq!(held(&cp), before, "a refusal holds nothing");
        }
        assert_eq!(cp.flow_count(), 1);
        // The donor's memory was not reserved either: h2 can still give
        // away all of it where a channel is free.
        assert!(cp
            .attach(&admin, between("h1", "h2", 512 * GIB, true))
            .is_ok());
        // A host is no route to itself.
        assert_eq!(
            cp.attach(&admin, between("h0", "h0", GIB, false)),
            Err(CpError::NoPath)
        );
    }

    #[test]
    fn detach_returns_every_channel() {
        let (mut cp, admin) = line(4);
        for i in 1..4 {
            cp.add_cable(&format!("h{}", i - 1), &format!("h{i}"))
                .unwrap();
        }
        let grant = cp.attach(&admin, between("h0", "h3", GIB, true)).unwrap();
        assert_eq!(held(&cp), vec![2, 2, 2]);
        cp.detach(&admin, grant.flow).unwrap();
        assert_eq!(held(&cp), vec![0, 0, 0]);
        assert_eq!(cp.flow_count(), 0);
    }

    #[test]
    fn donor_capacity_enforced() {
        let (mut cp, admin) = plane();
        let err = cp.attach(&admin, spec(1024 * GIB, false)).unwrap_err();
        assert!(matches!(err, CpError::DonorExhausted { .. }));
        // Nothing was reserved.
        assert_eq!(cp.flow_count(), 0);
        assert_eq!(held(&cp), vec![0]);
    }

    #[test]
    fn section_alignment_enforced() {
        let (mut cp, admin) = plane();
        assert_eq!(
            cp.attach(&admin, spec(100, false)),
            Err(CpError::BadSize(100))
        );
    }

    #[test]
    fn tenant_cannot_touch_foreign_hosts() {
        let (mut cp, _) = plane();
        let tenant = cp.auth_mut().issue_token(Role::Tenant {
            hosts: vec!["c1".into()],
        });
        let err = cp.attach(&tenant, spec(GIB, false)).unwrap_err();
        assert!(matches!(err, CpError::Auth(AuthError::Forbidden)));
    }

    #[test]
    fn detach_unknown_flow_fails() {
        let (mut cp, admin) = plane();
        assert_eq!(
            cp.detach(&admin, FlowHandle(77)),
            Err(CpError::UnknownFlow(FlowHandle(77)))
        );
    }

    #[test]
    fn json_interface_round_trip() {
        let (mut cp, admin) = plane();
        let req = serde_json::to_string(&Request::Attach {
            token: admin.clone(),
            spec: spec(GIB, false),
        })
        .unwrap();
        let resp = cp.handle_json(&req);
        let parsed: Response = serde_json::from_str(&resp).unwrap();
        match parsed {
            Response::Attached { flow, bytes, channels } => {
                assert_eq!(bytes, GIB);
                assert_eq!(channels, 1);
                let det = serde_json::to_string(&Request::Detach { token: admin, flow })
                    .unwrap();
                let resp = cp.handle_json(&det);
                assert!(resp.contains("detached"));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn malformed_json_is_a_clean_error() {
        let (mut cp, _) = plane();
        let resp = cp.handle_json("{not json");
        assert!(resp.contains("bad_request"));
    }

    #[test]
    fn audit_trail_records_lifecycle() {
        let (mut cp, admin) = plane();
        let g = cp.attach(&admin, spec(GIB, false)).unwrap();
        cp.detach(&admin, g.flow).unwrap();
        let events: Vec<&str> = cp.audit().iter().map(|e| e.event.as_str()).collect();
        assert!(events.iter().any(|e| e.starts_with("attach flow#1")));
        assert!(events.iter().any(|e| e.starts_with("detach flow#1")));
    }
}
