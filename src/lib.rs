//! # ThymesisFlow (reproduction)
//!
//! Umbrella crate for the ThymesisFlow reproduction workspace. It re-exports
//! every subsystem crate so that downstream users (and the examples and
//! integration tests in this repository) can depend on a single crate.
//!
//! The original system — presented at MICRO 2020 — is a HW/SW co-designed
//! interconnect for rack-scale memory disaggregation built on POWER9 and
//! OpenCAPI. This repository models the complete stack in software:
//!
//! * [`netsim`] — the physical network substrate (serDES lanes, bonded
//!   channels, direct-attach cables, a circuit switch, error injection).
//! * [`llc`] — the Link-Layer Control protocol (credits, frames, replay).
//! * [`opencapi`] — the OpenCAPI M1/C1 attachment model.
//! * [`rmmu`] — the Remote Memory Management Unit (section-table address
//!   translation and network-id tagging).
//! * [`routing`] — per-flow routing with round-robin channel bonding.
//! * [`hostsim`] — the host substrate (cores, caches, NUMA, memory hotplug).
//! * [`ctrlplane`] — the software-defined control plane (cable mesh,
//!   route reservation, REST-style API, agents).
//! * [`core`] — the flit-level fabric, rack builder, attach/detach
//!   lifecycle and the calibrated memory model.
//! * [`workloads`] — STREAM, YCSB/VoltDB, Memcached and Elasticsearch-like
//!   application models used by the paper's evaluation.
//! * [`dcsim`] — the data-centre motivation simulator (paper Fig. 1).
//!
//! ## Quickstart
//!
//! ```
//! use thymesisflow::prelude::*;
//!
//! // Build a two-node rack: one borrower (compute) and one donor.
//! let mut rack = RackBuilder::new()
//!     .node(NodeConfig::ac922("borrower"))
//!     .node(NodeConfig::ac922("donor"))
//!     .cable("borrower", "donor")
//!     .build()
//!     .expect("rack builds");
//!
//! // Attach 64 GiB of the donor's memory to the borrower.
//! let lease = rack
//!     .attach(AttachRequest::new("borrower", "donor", 64 * GIB))
//!     .expect("attach succeeds");
//! assert_eq!(lease.bytes(), 64 * GIB);
//!
//! // The borrower now sees a new CPU-less NUMA node.
//! let host = rack.host("borrower").unwrap();
//! assert!(host.numa().nodes().len() >= 2);
//! # rack.detach(lease.id()).unwrap();
//! ```

pub use ctrlplane;
pub use dcsim;
pub use hostsim;
pub use llc;
pub use netsim;
pub use opencapi;
pub use rmmu;
pub use routing;
pub use simkit;
pub use thymesisflow_core as core;
pub use workloads;

/// Convenience re-exports covering the most common entry points.
pub mod prelude {
    pub use crate::core::attach::{AttachRequest, Lease};
    pub use crate::core::config::SystemConfig;
    pub use crate::core::params::DatapathParams;
    pub use crate::core::rack::{NodeConfig, Rack, RackBuilder};
    pub use crate::workloads::runner::WorkloadRunner;
    pub use simkit::time::SimTime;
    pub use simkit::units::{GIB, KIB, MIB};
}
