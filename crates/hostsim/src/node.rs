//! A complete host node.
//!
//! Assembles topology, physical map, sparse memory and NUMA into the
//! AC922-shaped host the prototype runs on, and implements the agent's
//! two OS-level operations: hotplugging disaggregated memory in (probe +
//! online + CPU-less NUMA node) and tearing it back down.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::cpu::CpuTopology;
use crate::hotplug::{SparseMemory, SECTION_BYTES};
use crate::mmu::PAGE_BYTES;
use crate::numa::{NumaError, NumaNodeId, NumaTopology};
use crate::physmap::{PhysMapError, PhysicalMemoryMap, Region, RegionKind};

/// Distance the kernel assigns to the CPU-less disaggregated node,
/// "reflecting the respective transaction RTT delay".
pub(crate) const REMOTE_NODE_DISTANCE: u32 = 80;

/// Static description of a host.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Host name.
    pub name: String,
    /// CPU geometry.
    pub topology: CpuTopology,
    /// Local DRAM in bytes (split across the sockets' NUMA nodes).
    pub dram_bytes: u64,
}

impl NodeSpec {
    /// The prototype's AC922: dual-socket POWER9, 512 GiB of RAM.
    pub fn ac922(name: &str) -> Self {
        NodeSpec {
            name: name.to_string(),
            topology: CpuTopology::ac922(),
            dram_bytes: 512u64 << 30,
        }
    }
}

/// Host-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostError {
    /// Size must be a whole number of sections.
    NotSectionMultiple(u64),
    /// Physical-map failure.
    PhysMap(PhysMapError),
    /// NUMA failure.
    Numa(NumaError),
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::NotSectionMultiple(b) =>

                write!(f, "{b} bytes is not a whole number of sections"),
            HostError::PhysMap(e) => write!(f, "physical map: {e}"),
            HostError::Numa(e) => write!(f, "numa: {e}"),
        }
    }
}

impl std::error::Error for HostError {}

impl From<PhysMapError> for HostError {
    fn from(e: PhysMapError) -> Self {
        HostError::PhysMap(e)
    }
}

impl From<NumaError> for HostError {
    fn from(e: NumaError) -> Self {
        HostError::Numa(e)
    }
}

/// A running host.
///
/// # Example
///
/// ```
/// use hostsim::node::{HostNode, NodeSpec};
/// use simkit::units::GIB;
///
/// let mut host = HostNode::new(NodeSpec::ac922("borrower"));
/// let node = host.hotplug_remote_memory(16 * GIB)?;
/// assert_eq!(host.remote_bytes(), 16 * GIB);
/// host.unplug_remote_memory(node)?;
/// assert_eq!(host.remote_bytes(), 0);
/// # Ok::<(), hostsim::node::HostError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HostNode {
    spec: NodeSpec,
    physmap: PhysicalMemoryMap,
    sparse: SparseMemory,
    numa: NumaTopology,
    next_remote_node: u32,
}

impl HostNode {
    /// Boots a host: local DRAM is split across one NUMA node per
    /// socket (ppc64 numbers them 0 and 8), and each socket's share is
    /// probed and onlined as one run of sections.
    ///
    /// # Panics
    ///
    /// Panics if the spec's DRAM is not a whole number of sections per
    /// socket.
    pub fn new(spec: NodeSpec) -> Self {
        let sockets = spec.topology.sockets();
        let per_socket = spec.dram_bytes / sockets as u64;
        assert!(
            per_socket.is_multiple_of(SECTION_BYTES),
            "per-socket DRAM must be section aligned"
        );
        let mut physmap = PhysicalMemoryMap::new();
        let mut sparse = SparseMemory::new();
        let mut numa = NumaTopology::new();
        for s in 0..sockets {
            let node_id = NumaNodeId(s * 8); // ppc64 convention: 0, 8
            let base = s as u64 * per_socket;
            physmap
                .add(Region {
                    base,
                    len: per_socket,
                    kind: RegionKind::LocalDram { node: node_id.0 },
                })
                .expect("boot regions cannot overlap");
            sparse
                .probe_online_run(base, per_socket / SECTION_BYTES, node_id.0)
                .expect("boot DRAM is fresh");
            let cpus: Vec<u32> = spec
                .topology
                .threads_of_socket(s)
                .iter()
                .map(|t| t.0)
                .collect();
            numa.add_node(node_id, cpus, per_socket / PAGE_BYTES)
                .expect("fresh numa node");
        }
        HostNode {
            spec,
            physmap,
            sparse,
            numa,
            next_remote_node: 255,
        }
    }

    /// Host name.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// CPU geometry.
    pub fn topology(&self) -> &CpuTopology {
        &self.spec.topology
    }

    /// The NUMA view.
    pub fn numa(&self) -> &NumaTopology {
        &self.numa
    }

    /// Mutable NUMA view (allocation/migration paths).
    pub fn numa_mut(&mut self) -> &mut NumaTopology {
        &mut self.numa
    }

    /// Local DRAM bytes.
    pub fn local_bytes(&self) -> u64 {
        self.physmap
            .total_bytes(|k| matches!(k, RegionKind::LocalDram { .. }))
    }

    /// Hotplugged disaggregated bytes currently online.
    pub fn remote_bytes(&self) -> u64 {
        self.physmap
            .total_bytes(|k| matches!(k, RegionKind::ThymesisFlow { .. }))
    }

    /// The agent's attach path: places a ThymesisFlow window in the real
    /// address space, probes and onlines its sections, and exposes them
    /// as a new CPU-less NUMA node. Returns the node id.
    ///
    /// # Errors
    ///
    /// Fails if `bytes` is not a whole number of sections or the map
    /// rejects the window.
    pub fn hotplug_remote_memory(&mut self, bytes: u64) -> Result<NumaNodeId, HostError> {
        if bytes == 0 || !bytes.is_multiple_of(SECTION_BYTES) {
            return Err(HostError::NotSectionMultiple(bytes));
        }
        let node_id = NumaNodeId(self.next_remote_node);
        self.next_remote_node += 1;
        // Firmware places the window above all existing regions.
        let base = self
            .physmap
            .find_hole(1u64 << 42, bytes, SECTION_BYTES);
        self.physmap.add(Region {
            base,
            len: bytes,
            kind: RegionKind::ThymesisFlow { node: node_id.0 },
        })?;
        self.sparse
            .probe_online_run(base, bytes / SECTION_BYTES, node_id.0)
            .expect("window hole is fresh");
        self.numa
            .add_cpuless_node(node_id, bytes / PAGE_BYTES, REMOTE_NODE_DISTANCE)?;
        Ok(node_id)
    }

    /// The agent's detach path: offline + remove the sections, drop the
    /// window and the NUMA node.
    ///
    /// # Errors
    ///
    /// Fails if the node still has live allocations or is unknown.
    pub fn unplug_remote_memory(&mut self, node: NumaNodeId) -> Result<(), HostError> {
        // Refuse while pages are allocated (the kernel would have to
        // migrate them away first).
        self.numa.remove_node(node)?;
        for s in self.sparse.sections_of(node.0) {
            self.sparse.offline(s.start).expect("section online");
            self.sparse.remove(s.start).expect("section offline");
        }
        let window: Vec<u64> = self
            .physmap
            .regions()
            .iter()
            .filter(|r| matches!(r.kind, RegionKind::ThymesisFlow { node: n } if n == node.0))
            .map(|r| r.base)
            .collect();
        for base in window {
            self.physmap.remove(base)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numa::AllocPolicy;
    use simkit::units::GIB;

    /// The real-address window backing a remote NUMA node.
    fn remote_window(host: &HostNode, node: NumaNodeId) -> Option<Region> {
        host.physmap
            .regions()
            .iter()
            .find(|r| matches!(r.kind, RegionKind::ThymesisFlow { node: n } if n == node.0))
            .copied()
    }

    #[test]
    fn boot_builds_two_numa_nodes() {
        let host = HostNode::new(NodeSpec::ac922("n1"));
        assert_eq!(host.numa().nodes().len(), 2);
        assert_eq!(host.local_bytes(), 512 * GIB);
        assert_eq!(host.remote_bytes(), 0);
        let n0 = host.numa().node(NumaNodeId(0)).unwrap();
        assert!(!n0.is_cpuless());
        assert_eq!(n0.total_pages(), 256 * GIB / PAGE_BYTES);
    }

    #[test]
    fn hotplug_creates_cpuless_node_with_rtt_distance() {
        let mut host = HostNode::new(NodeSpec::ac922("n1"));
        let node = host.hotplug_remote_memory(64 * GIB).unwrap();
        let n = host.numa().node(node).unwrap();
        assert!(n.is_cpuless());
        assert_eq!(n.total_pages(), 64 * GIB / PAGE_BYTES);
        assert_eq!(
            host.numa().distance(NumaNodeId(0), node),
            Some(REMOTE_NODE_DISTANCE)
        );
        assert_eq!(host.remote_bytes(), 64 * GIB);
        // The window exists and is section aligned.
        let w = remote_window(&host, node).unwrap();
        assert_eq!(w.base % SECTION_BYTES, 0);
        assert_eq!(w.len, 64 * GIB);
    }

    #[test]
    fn unplug_round_trip() {
        let mut host = HostNode::new(NodeSpec::ac922("n1"));
        let node = host.hotplug_remote_memory(16 * GIB).unwrap();
        host.unplug_remote_memory(node).unwrap();
        assert_eq!(host.remote_bytes(), 0);
        assert!(host.numa().node(node).is_none());
        assert!(remote_window(&host, node).is_none());
        // A second attach lands cleanly.
        let node2 = host.hotplug_remote_memory(16 * GIB).unwrap();
        assert_ne!(node, node2);
    }

    #[test]
    fn unplug_refuses_live_allocations() {
        let mut host = HostNode::new(NodeSpec::ac922("n1"));
        let node = host.hotplug_remote_memory(16 * GIB).unwrap();
        host.numa_mut()
            .allocate(&AllocPolicy::Bind(node), NumaNodeId(0), 100)
            .unwrap();
        assert!(host.unplug_remote_memory(node).is_err());
        host.numa_mut().free(node, 100).unwrap();
        assert!(host.unplug_remote_memory(node).is_ok());
    }

    #[test]
    fn bad_sizes_rejected() {
        let mut host = HostNode::new(NodeSpec::ac922("n1"));
        assert!(matches!(
            host.hotplug_remote_memory(SECTION_BYTES + 1),
            Err(HostError::NotSectionMultiple(_))
        ));
        assert!(matches!(
            host.hotplug_remote_memory(0),
            Err(HostError::NotSectionMultiple(0))
        ));
    }

    #[test]
    fn multiple_attachments_coexist() {
        let mut host = HostNode::new(NodeSpec::ac922("n1"));
        let a = host.hotplug_remote_memory(16 * GIB).unwrap();
        let b = host.hotplug_remote_memory(32 * GIB).unwrap();
        assert_eq!(host.remote_bytes(), 48 * GIB);
        let wa = remote_window(&host, a).unwrap();
        let wb = remote_window(&host, b).unwrap();
        assert!(wa.base + wa.len <= wb.base || wb.base + wb.len <= wa.base);
    }
}
