//! Host substrate: the slice of a POWER9 server that ThymesisFlow's OS
//! support touches.
//!
//! The prototype runs on IBM Power System AC922 nodes — dual-socket
//! POWER9, 32 physical cores / 128 SMT threads, 512 GiB of RAM — with a
//! Linux 5.0 kernel featuring memory hotplug and NUMA extensions. This
//! crate models the pieces the paper's OS integration depends on:
//!
//! * [`cpu`] — sockets, cores and SMT threads.
//! * [`mmu`] — the kernel's page size.
//! * [`physmap`] — the real-address map, including the window firmware
//!   assigns to the ThymesisFlow compute endpoint.
//! * [`hotplug`] — the Linux sparse-memory section lifecycle
//!   (probe → online → offline → remove) used to attach disaggregated
//!   memory at runtime.
//! * [`numa`] — NUMA nodes (including the CPU-less nodes that host
//!   remote memory), allocation policies and the interleave machinery.
//! * [`migration`] — AutoNUMA-style page migration that moves hot pages
//!   from distant to closer nodes.
//! * [`node`] — a complete host assembling all of the above.
//!
//! # Example
//!
//! ```
//! use hostsim::node::{HostNode, NodeSpec};
//! use simkit::units::GIB;
//!
//! let mut host = HostNode::new(NodeSpec::ac922("n1"));
//! assert_eq!(host.topology().hw_threads(), 128);
//! // Hotplug 64 GiB of disaggregated memory: a new CPU-less NUMA node.
//! let node = host.hotplug_remote_memory(64 * GIB).expect("hotplug");
//! assert!(host.numa().node(node).unwrap().is_cpuless());
//! ```

pub mod cpu;
pub mod hotplug;
pub mod migration;
pub mod mmu;
pub mod node;
pub mod numa;
pub mod physmap;

pub use cpu::CpuTopology;
pub use node::{HostNode, NodeSpec};
pub use numa::{AllocPolicy, NumaNodeId};
