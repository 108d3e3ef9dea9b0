//! ThymesisFlow assembled: the paper's contribution as a library.
//!
//! This crate glues the substrate crates into the system of the paper's
//! Fig. 2:
//!
//! * [`params`] — every calibrated timing/bandwidth constant (§V
//!   prototype numbers) in one place.
//! * [`config`] — the five experimental system configurations of §VI-A
//!   (local, single-disaggregated, bonding-disaggregated, interleaved,
//!   scale-out).
//! * [`fabric`] — the flit-level pipeline: the compute endpoint (M1
//!   capture, RMMU translate, router) and the memory-stealing endpoint
//!   (C1 master + donor DRAM) as stages, configured through link-slot,
//!   donor and route tables over one shared event queue, in arbitrary
//!   topologies (point-to-point, 1×N fan-out, circuit-switched rack,
//!   multi-hop meshes), with dynamic path attach/detach at flit
//!   granularity. Its point-to-point reference shape
//!   ([`FabricBuilder::point_to_point`]) *measures* the prototype numbers
//!   (≈950 ns flit RTT, channel saturation, the 16 GiB/s C1 cap under
//!   bonding).
//! * [`memmodel`] — the application-level memory model, used by the
//!   `workloads` crate. It prices a remote load at one
//!   [`memmodel::Calibration`]: an idle load measured on that reference
//!   fabric.
//! * [`rack`] / [`attach`] — rack assembly: control plane + node agents
//!   + hosts, with the full attach/detach lifecycle.
//!
//! # Example
//!
//! ```
//! use thymesisflow_core::rack::{NodeConfig, RackBuilder};
//! use thymesisflow_core::attach::AttachRequest;
//! use simkit::units::GIB;
//!
//! let mut rack = RackBuilder::new()
//!     .node(NodeConfig::ac922("borrower"))
//!     .node(NodeConfig::ac922("donor"))
//!     .cable("borrower", "donor")
//!     .build()?;
//! let lease = rack.attach(AttachRequest::new("borrower", "donor", 4 * GIB))?;
//! assert_eq!(rack.host("borrower").unwrap().remote_bytes(), 4 * GIB);
//! rack.detach(lease.id())?;
//! # Ok::<(), thymesisflow_core::rack::RackError>(())
//! ```

pub mod attach;
pub mod config;
pub mod fabric;
pub mod memmodel;
pub mod params;
pub mod rack;

pub use attach::{AttachRequest, Lease, LeaseId};
pub use config::SystemConfig;
pub use fabric::{Fabric, FabricBuilder};
pub use memmodel::MemoryModel;
pub use params::DatapathParams;
pub use rack::{LeaseFault, LeaseResolution, NodeConfig, Rack, RackBuilder, RackError};
