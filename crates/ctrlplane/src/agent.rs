//! The per-host user-space agent.
//!
//! "A user-space agent runs as a daemon on every host, to issue the
//! appropriate configuration commands received from the orchestration
//! layer. The role of the user-space agent is twofold: i) configure the
//! compute endpoint by performing the necessary operations required for
//! physical and logical attachment of disaggregated memory or, ii)
//! allocate local host memory and make it available to the
//! memory-stealing endpoint."
//!
//! Agents are *trusted*: they verify the control-plane signature before
//! applying any configuration.

use std::fmt;

use serde::{Deserialize, Serialize};

use hostsim::node::{HostError, HostNode};
use hostsim::numa::NumaNodeId;

use crate::api::{ComputeConfig, MemoryConfig};
use crate::auth::verify_config;

/// Agent errors.
#[derive(Debug, Clone, PartialEq)]
pub enum AgentError {
    /// The configuration's signature does not verify: it did not come
    /// from the trusted control plane.
    UntrustedConfig,
    /// The host rejected the operation.
    Host(HostError),
    /// The donor lacks free local memory to pin.
    InsufficientDonorMemory {
        /// Bytes requested.
        wanted: u64,
        /// Bytes available.
        available: u64,
    },
    /// Unknown PASID on release.
    UnknownPasid(u32),
}

impl fmt::Display for AgentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgentError::UntrustedConfig => write!(f, "configuration not signed by control plane"),
            AgentError::Host(e) => write!(f, "host: {e}"),
            AgentError::InsufficientDonorMemory { wanted, available } => {
                write!(f, "cannot pin {wanted} bytes ({available} available)")
            }
            AgentError::UnknownPasid(p) => write!(f, "unknown pasid {p}"),
        }
    }
}

impl std::error::Error for AgentError {}

impl From<HostError> for AgentError {
    fn from(e: HostError) -> Self {
        AgentError::Host(e)
    }
}

/// A pinned, donated region on the memory-stealing side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PinnedRegion {
    /// PASID it is registered under.
    pub pasid: u32,
    /// Base effective address.
    pub ea_base: u64,
    /// Length in bytes.
    pub len: u64,
}

/// The agent daemon of one host.
#[derive(Debug)]
pub struct NodeAgent {
    host: HostNode,
    secret: String,
    pinned: Vec<PinnedRegion>,
}

impl NodeAgent {
    /// Creates an agent for `host`, trusting configurations signed with
    /// `secret`.
    pub fn new(host: HostNode, secret: &str) -> Self {
        NodeAgent {
            host,
            secret: secret.to_string(),
            pinned: Vec::new(),
        }
    }

    /// The managed host.
    pub fn host(&self) -> &HostNode {
        &self.host
    }

    /// Mutable access to the managed host (workload allocation paths).
    pub fn host_mut(&mut self) -> &mut HostNode {
        &mut self.host
    }

    /// Applies a compute-side configuration: verifies the signature, then
    /// hotplugs the window and onlines it as a CPU-less NUMA node.
    ///
    /// # Errors
    ///
    /// Fails on untrusted configurations or host-level failures.
    pub fn apply_compute(&mut self, config: &ComputeConfig) -> Result<NumaNodeId, AgentError> {
        if !verify_config(&self.secret, &config.payload(), config.signature) {
            return Err(AgentError::UntrustedConfig);
        }
        Ok(self.host.hotplug_remote_memory(config.window_bytes)?)
    }

    /// Reverts a compute-side attachment.
    ///
    /// # Errors
    ///
    /// Fails if the node has live allocations or is unknown.
    pub fn remove_compute(&mut self, node: NumaNodeId) -> Result<(), AgentError> {
        Ok(self.host.unplug_remote_memory(node)?)
    }

    /// Applies a memory-side configuration: verifies the signature, then
    /// pins the requested amount of local memory and registers it under
    /// the PASID.
    ///
    /// # Errors
    ///
    /// Fails on untrusted configurations or when local memory is
    /// exhausted by earlier pins.
    pub fn apply_memory(&mut self, config: &MemoryConfig) -> Result<PinnedRegion, AgentError> {
        if !verify_config(&self.secret, &config.payload(), config.signature) {
            return Err(AgentError::UntrustedConfig);
        }
        let already: u64 = self.pinned.iter().map(|p| p.len).sum();
        let available = self.host.local_bytes().saturating_sub(already);
        if config.len > available {
            return Err(AgentError::InsufficientDonorMemory {
                wanted: config.len,
                available,
            });
        }
        let region = PinnedRegion {
            pasid: config.pasid,
            ea_base: config.ea_base,
            len: config.len,
        };
        self.pinned.push(region);
        Ok(region)
    }

    /// Releases a pinned donation.
    ///
    /// # Errors
    ///
    /// Fails on unknown PASIDs.
    pub fn release_memory(&mut self, pasid: u32) -> Result<PinnedRegion, AgentError> {
        let pos = self
            .pinned
            .iter()
            .position(|p| p.pasid == pasid)
            .ok_or(AgentError::UnknownPasid(pasid))?;
        Ok(self.pinned.remove(pos))
    }

    /// Currently pinned donations.
    pub fn pinned(&self) -> &[PinnedRegion] {
        &self.pinned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SectionProgram;
    use crate::auth::sign_config;
    use hostsim::node::NodeSpec;
    use simkit::units::GIB;

    fn agent() -> NodeAgent {
        NodeAgent::new(HostNode::new(NodeSpec::ac922("h")), "sec")
    }

    fn signed_compute(bytes: u64, secret: &str) -> ComputeConfig {
        let mut c = ComputeConfig {
            window_bytes: bytes,
            sections: vec![SectionProgram {
                index: 0,
                remote_ea_base: 0x1000_0000,
                network: 1,
                bonded: false,
            }],
            signature: 0,
        };
        c.signature = sign_config(secret, &c.payload());
        c
    }

    fn signed_memory(len: u64, secret: &str) -> MemoryConfig {
        let mut m = MemoryConfig {
            pasid: 7,
            ea_base: 0x7000_0000_0000,
            len,
            signature: 0,
        };
        m.signature = sign_config(secret, &m.payload());
        m
    }

    #[test]
    fn trusted_compute_config_hotplugs() {
        let mut a = agent();
        let node = a.apply_compute(&signed_compute(GIB, "sec")).unwrap();
        assert_eq!(a.host().remote_bytes(), GIB);
        a.remove_compute(node).unwrap();
        assert_eq!(a.host().remote_bytes(), 0);
    }

    #[test]
    fn untrusted_configs_rejected() {
        let mut a = agent();
        // Signed with the wrong secret.
        let c = signed_compute(GIB, "evil");
        assert_eq!(a.apply_compute(&c), Err(AgentError::UntrustedConfig));
        // Tampered after signing.
        let mut m = signed_memory(GIB, "sec");
        m.len = 2 * GIB;
        assert_eq!(a.apply_memory(&m), Err(AgentError::UntrustedConfig));
        assert_eq!(a.host().remote_bytes(), 0);
        assert!(a.pinned().is_empty());
    }

    #[test]
    fn memory_pin_accounting() {
        let mut a = agent();
        a.apply_memory(&signed_memory(256 * GIB, "sec")).unwrap();
        // The AC922 has 512 GiB; a second 512 GiB pin cannot fit.
        let err = a.apply_memory(&signed_memory(512 * GIB, "sec")).unwrap_err();
        assert!(matches!(
            err,
            AgentError::InsufficientDonorMemory { available, .. } if available == 256 * GIB
        ));
        let released = a.release_memory(7).unwrap();
        assert_eq!(released.len, 256 * GIB);
        assert_eq!(
            a.release_memory(7),
            Err(AgentError::UnknownPasid(7))
        );
    }
}
