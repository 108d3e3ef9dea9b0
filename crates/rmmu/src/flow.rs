//! Flow identities.
//!
//! "The architecture logically groups all transactions (and their
//! responses) in-transit between a given compute and memory-stealing
//! endpoint, and belonging to a specific section, as an *active
//! thymesisflow*. Each active thymesisflow is associated with a unique
//! network identifier."

use std::fmt;

use serde::{Deserialize, Serialize};

/// The network identifier embedded in transaction headers and consumed
/// by the routing layer.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct NetworkId(pub u32);

impl fmt::Display for NetworkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net:{}", self.0)
    }
}

/// A logical "active thymesisflow": one section's worth of traffic
/// between a compute endpoint and a memory-stealing endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlowId {
    /// The compute-side section index this flow serves.
    pub section: u64,
    /// Its unique network identifier.
    pub network: NetworkId,
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow(section={}, {})", self.section, self.network)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(NetworkId(3).to_string(), "net:3");
        let f = FlowId {
            section: 2,
            network: NetworkId(3),
        };
        assert_eq!(f.to_string(), "flow(section=2, net:3)");
    }
}
