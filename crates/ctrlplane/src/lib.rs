//! The ThymesisFlow software-defined control plane.
//!
//! Paper §IV-C: the control plane's responsibilities are (i) system-state
//! maintenance, (ii) configuration of endpoints and intermediate
//! switching layers, (iii) a system access interface, and (iv) security
//! and access control.
//!
//! "The system state is modeled as an undirected graph whose nodes are
//! compute and memory endpoints, transceivers associated with each
//! endpoint and switch ports. The edges of the graph are the possible
//! physical links between nodes. For each disaggregated memory allocation
//! request, the control plane traverses the graph looking for the best
//! available path connecting the compute and memory stealing endpoints
//! involved. Once a suitable path is found and its resources are
//! reserved, the control plane generates the suitable configurations and
//! pushes them to the appropriate agents."
//!
//! The paper backs this graph with JanusGraph. Here the state is the
//! rack's cable mesh, a [`routing::topology::Mesh`] with one node per
//! host and one link per cabled host pair, each link carrying as many
//! channels as cables were laid ([`service::ControlPlane::add_cable`]).
//! An attach routes the lease with the same breadth-first search the
//! flit-level fabric forwards on, over links with enough free channels,
//! holds the lease's channels on every link of that route, and hands the
//! route to the caller in the [`service::FlowGrant`], so the links the
//! control plane reserves are the links the data plane uses. The "REST
//! API" of the paper is modelled by [`api`]: serde-encoded requests
//! answered by [`service::ControlPlane::handle_json`]. Access control and
//! trusted configuration push ("trusted node agents […] accept
//! configuration updates only from a trusted control plane") live in
//! [`auth`], and the host-side agents in [`agent`].
//!
//! # Example
//!
//! ```
//! use ctrlplane::service::ControlPlane;
//! use ctrlplane::api::AttachSpec;
//! use ctrlplane::auth::Role;
//! use simkit::units::GIB;
//!
//! let mut cp = ControlPlane::new("cp-secret");
//! let admin = cp.auth_mut().issue_token(Role::Admin);
//! cp.register_host("borrower", 512 * GIB);
//! cp.register_host("donor", 512 * GIB);
//! cp.add_cable("borrower", "donor")?;
//!
//! let grant = cp.attach(&admin, AttachSpec {
//!     compute_host: "borrower".into(),
//!     memory_host: "donor".into(),
//!     bytes: 64 * GIB,
//!     bonded: false,
//! })?;
//! assert_eq!(grant.memory_config.len, 64 * GIB);
//! assert_eq!((grant.route.hops(), grant.channels), (1, 1));
//! # Ok::<(), ctrlplane::service::CpError>(())
//! ```

pub mod agent;
pub mod api;
pub mod auth;
pub mod retry;
pub mod service;

pub use api::{AttachSpec, Request, Response};
pub use auth::{AccessControl, Role, Token};
pub use retry::{attach_with_retry, RetryPolicy, RetryStats};
pub use service::{ControlPlane, CpError, FlowGrant, FlowHandle, LinkChannels};
