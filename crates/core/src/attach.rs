//! Attachment requests and leases.

use serde::{Deserialize, Serialize};

use ctrlplane::FlowHandle;
use hostsim::numa::NumaNodeId;

/// Identifier of a live lease.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct LeaseId(pub u64);

impl std::fmt::Display for LeaseId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lease#{}", self.0)
    }
}

/// A request to attach donor memory to a borrower.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttachRequest {
    /// The borrower (compute role).
    pub compute: String,
    /// The donor (memory-stealing role).
    pub memory: String,
    /// Bytes to attach (a whole number of 256 MiB sections).
    pub bytes: u64,
    /// Whether to bond two channels.
    pub bonded: bool,
}

impl AttachRequest {
    /// A single-channel attachment.
    pub fn new(compute: &str, memory: &str, bytes: u64) -> Self {
        AttachRequest {
            compute: compute.to_string(),
            memory: memory.to_string(),
            bytes,
            bonded: false,
        }
    }

    /// Enables channel bonding.
    pub fn bonded(mut self) -> Self {
        self.bonded = true;
        self
    }
}

/// A live attachment: what [`crate::rack::Rack::attach`] hands back.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lease {
    id: LeaseId,
    flow: FlowHandle,
    numa_node: NumaNodeId,
    bytes: u64,
    compute: String,
    memory: String,
    bonded: bool,
    window_base: u64,
    network: u32,
    pasid: u32,
}

impl Lease {
    pub(crate) fn new(
        id: LeaseId,
        flow: FlowHandle,
        numa_node: NumaNodeId,
        req: &AttachRequest,
        window_base: u64,
        network: u32,
        pasid: u32,
    ) -> Self {
        Lease {
            id,
            flow,
            numa_node,
            bytes: req.bytes,
            compute: req.compute.clone(),
            memory: req.memory.clone(),
            bonded: req.bonded,
            window_base,
            network,
            pasid,
        }
    }

    /// The lease handle (pass to [`crate::rack::Rack::detach`]).
    pub fn id(&self) -> LeaseId {
        self.id
    }

    /// The underlying control-plane flow.
    pub fn flow(&self) -> FlowHandle {
        self.flow
    }

    /// The CPU-less NUMA node the memory appears as on the borrower.
    pub fn numa_node(&self) -> NumaNodeId {
        self.numa_node
    }

    /// Attached bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The borrower host.
    pub fn compute(&self) -> &str {
        &self.compute
    }

    /// The donor host.
    pub fn memory(&self) -> &str {
        &self.memory
    }

    /// Whether the flow is bonded over two channels.
    pub fn is_bonded(&self) -> bool {
        self.bonded
    }

    /// Fabric window base address the lease's sections were carved at
    /// (distinct across concurrent leases on one borrower).
    pub fn window_base(&self) -> u64 {
        self.window_base
    }

    /// The flow's network identifier on the borrower's fabric.
    pub fn network_id(&self) -> u32 {
        self.network
    }

    /// The PASID the donor pinned the lease's region under.
    pub fn pasid(&self) -> u32 {
        self.pasid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let r = AttachRequest::new("a", "b", 1 << 30).bonded();
        assert_eq!(r.compute, "a");
        assert_eq!(r.memory, "b");
        assert!(r.bonded);
    }

    #[test]
    fn lease_exposes_request() {
        let r = AttachRequest::new("a", "b", 1 << 30);
        let l = Lease::new(LeaseId(1), FlowHandle(9), NumaNodeId(255), &r, 0x1000_0000_0000, 7, 3);
        assert_eq!(l.id(), LeaseId(1));
        assert_eq!(l.bytes(), 1 << 30);
        assert_eq!(l.numa_node(), NumaNodeId(255));
        assert!(!l.is_bonded());
        assert_eq!(l.window_base(), 0x1000_0000_0000);
        assert_eq!(l.network_id(), 7);
        assert_eq!(l.pasid(), 3);
        assert_eq!(l.to_owned().compute(), "a");
    }
}
