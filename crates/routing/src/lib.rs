//! The ThymesisFlow routing layer.
//!
//! "Right after the endpoint attachment module, the ThymesisFlow stack
//! features a routing layer to forward transactions towards remote
//! endpoints. Each transaction is handled independently, based on the
//! network information included in the header (added by the RMMU), and
//! therefore the architecture allows any number of endpoints to be
//! concurrently connected."
//!
//! Channel bonding (§IV-A.3): "transactions belonging to an active
//! thymesisflow can be forwarded using two or more physical network
//! channels in a round-robin fashion. […] A network channel may be
//! shared concurrently between different active thymesisflows regardless
//! if one or more of them are using the channel in bonding mode."
//!
//! # Example
//!
//! ```
//! use routing::{ChannelId, Router};
//! use rmmu::flow::NetworkId;
//!
//! let mut router = Router::new();
//! router.add_route(NetworkId(1), vec![ChannelId(0), ChannelId(1)])?;
//! // A bonded flow alternates channels round-robin.
//! let a = router.forward(NetworkId(1), true)?;
//! let b = router.forward(NetworkId(1), true)?;
//! assert_ne!(a, b);
//! # Ok::<(), routing::RouteError>(())
//! ```

pub mod plan;
pub mod topology;

pub use plan::FlowPlan;
pub use topology::{
    Clos, Line, Mesh, NodeId, NodeKind, Ring, Route, TopoLink, TopoNode, Topology,
    TopologyError, Torus2D,
};

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use rmmu::flow::NetworkId;

/// Identifier of a physical network channel at this endpoint.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct ChannelId(pub u32);

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// Routing errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// No route is installed for the network identifier — the transaction
    /// is not forwarded towards an illegal destination; it fails.
    NoRoute(NetworkId),
    /// A route needs at least one channel.
    EmptyChannelSet,
    /// A route for this flow already exists.
    DuplicateRoute(NetworkId),
    /// The channel is already part of the flow's route.
    DuplicateChannel(ChannelId),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::NoRoute(n) => write!(f, "no route installed for {n}"),
            RouteError::EmptyChannelSet => write!(f, "route needs at least one channel"),
            RouteError::DuplicateRoute(n) => write!(f, "route for {n} already installed"),
            RouteError::DuplicateChannel(c) => write!(f, "channel {c} already in the route"),
        }
    }
}

impl std::error::Error for RouteError {}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct RouteEntry {
    channels: Vec<ChannelId>,
    cursor: usize,
    forwarded: u64,
}

/// The per-endpoint routing table.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct Router {
    routes: BTreeMap<NetworkId, RouteEntry>,
    per_channel: BTreeMap<ChannelId, u64>,
}

impl Router {
    /// Creates an empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a route: the ordered channel set a flow may use. One
    /// channel for plain flows, two or more to enable bonding.
    ///
    /// # Errors
    ///
    /// Fails on an empty channel set or a duplicate flow.
    pub fn add_route(
        &mut self,
        network: NetworkId,
        channels: Vec<ChannelId>,
    ) -> Result<(), RouteError> {
        if channels.is_empty() {
            return Err(RouteError::EmptyChannelSet);
        }
        if self.routes.contains_key(&network) {
            return Err(RouteError::DuplicateRoute(network));
        }
        self.routes.insert(
            network,
            RouteEntry {
                channels,
                cursor: 0,
                forwarded: 0,
            },
        );
        Ok(())
    }

    /// Removes a route (teardown path).
    ///
    /// # Errors
    ///
    /// Fails if no route exists for the flow.
    pub fn remove_route(&mut self, network: NetworkId) -> Result<(), RouteError> {
        self.routes
            .remove(&network)
            .map(|_| ())
            .ok_or(RouteError::NoRoute(network))
    }

    /// Picks the channel for the next transaction of a flow. Bonded
    /// transactions rotate round-robin over the route's channels;
    /// unbonded ones always use the first.
    ///
    /// # Errors
    ///
    /// Fails if no route is installed — illegal destinations are never
    /// forwarded.
    pub fn forward(&mut self, network: NetworkId, bonded: bool) -> Result<ChannelId, RouteError> {
        let route = self
            .routes
            .get_mut(&network)
            .ok_or(RouteError::NoRoute(network))?;
        let ch = if bonded {
            let ch = route.channels[route.cursor % route.channels.len()];
            route.cursor = (route.cursor + 1) % route.channels.len();
            ch
        } else {
            route.channels[0]
        };
        route.forwarded += 1;
        *self.per_channel.entry(ch).or_insert(0) += 1;
        Ok(ch)
    }

    /// Grows an installed route by one channel (multi-endpoint fan-out:
    /// a flow upgraded to bonding, or a fabric adding capacity to a live
    /// lease). Round-robin resumes over the widened set.
    ///
    /// # Errors
    ///
    /// Fails if no route exists for the flow or the channel is already
    /// part of it.
    pub fn add_channel(
        &mut self,
        network: NetworkId,
        channel: ChannelId,
    ) -> Result<(), RouteError> {
        let route = self
            .routes
            .get_mut(&network)
            .ok_or(RouteError::NoRoute(network))?;
        if route.channels.contains(&channel) {
            return Err(RouteError::DuplicateChannel(channel));
        }
        route.channels.push(channel);
        Ok(())
    }

    /// Channels a flow may use.
    pub fn channels_of(&self, network: NetworkId) -> Option<&[ChannelId]> {
        self.routes.get(&network).map(|r| r.channels.as_slice())
    }

    /// The installed flows, sorted (fabric introspection and teardown).
    pub fn networks(&self) -> Vec<NetworkId> {
        let mut out: Vec<NetworkId> = self.routes.keys().copied().collect();
        out.sort();
        out
    }

    /// Transactions forwarded for a flow.
    pub fn forwarded(&self, network: NetworkId) -> u64 {
        self.routes.get(&network).map_or(0, |r| r.forwarded)
    }

    /// Transactions forwarded on a channel (across all flows).
    pub fn channel_load(&self, ch: ChannelId) -> u64 {
        self.per_channel.get(&ch).copied().unwrap_or(0)
    }

    /// Installed flow count.
    pub fn route_count(&self) -> usize {
        self.routes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bonded_flow_alternates_round_robin() {
        let mut r = Router::new();
        r.add_route(NetworkId(1), vec![ChannelId(0), ChannelId(1)])
            .unwrap();
        let picks: Vec<ChannelId> = (0..6).map(|_| r.forward(NetworkId(1), true).unwrap()).collect();
        assert_eq!(
            picks,
            vec![
                ChannelId(0),
                ChannelId(1),
                ChannelId(0),
                ChannelId(1),
                ChannelId(0),
                ChannelId(1)
            ]
        );
        assert_eq!(r.channel_load(ChannelId(0)), 3);
        assert_eq!(r.channel_load(ChannelId(1)), 3);
    }

    #[test]
    fn unbonded_flow_sticks_to_first_channel() {
        let mut r = Router::new();
        r.add_route(NetworkId(2), vec![ChannelId(3), ChannelId(4)])
            .unwrap();
        for _ in 0..5 {
            assert_eq!(r.forward(NetworkId(2), false).unwrap(), ChannelId(3));
        }
        assert_eq!(r.channel_load(ChannelId(4)), 0);
    }

    #[test]
    fn channels_shared_between_flows() {
        // "A network channel may be shared concurrently between different
        // active thymesisflows regardless if one or more of them are
        // using the channel in bonding mode."
        let mut r = Router::new();
        r.add_route(NetworkId(1), vec![ChannelId(0), ChannelId(1)])
            .unwrap();
        r.add_route(NetworkId(2), vec![ChannelId(0)]).unwrap();
        r.forward(NetworkId(1), true).unwrap();
        r.forward(NetworkId(2), false).unwrap();
        r.forward(NetworkId(1), true).unwrap();
        r.forward(NetworkId(2), false).unwrap();
        assert_eq!(r.channel_load(ChannelId(0)), 3);
        assert_eq!(r.channel_load(ChannelId(1)), 1);
    }

    #[test]
    fn route_grows_one_channel_at_a_time() {
        let mut r = Router::new();
        r.add_route(NetworkId(1), vec![ChannelId(0)]).unwrap();
        // Unbonded traffic sticks to the first channel even after growth.
        r.add_channel(NetworkId(1), ChannelId(1)).unwrap();
        assert_eq!(r.channels_of(NetworkId(1)).unwrap().len(), 2);
        assert_eq!(r.forward(NetworkId(1), false).unwrap(), ChannelId(0));
        // Bonded traffic round-robins over the widened set.
        let picks: Vec<ChannelId> =
            (0..4).map(|_| r.forward(NetworkId(1), true).unwrap()).collect();
        assert!(picks.contains(&ChannelId(1)));
        assert_eq!(
            r.add_channel(NetworkId(1), ChannelId(1)),
            Err(RouteError::DuplicateChannel(ChannelId(1)))
        );
        assert_eq!(
            r.add_channel(NetworkId(9), ChannelId(0)),
            Err(RouteError::NoRoute(NetworkId(9)))
        );
    }

    #[test]
    fn networks_lists_installed_flows_sorted() {
        let mut r = Router::new();
        assert!(r.networks().is_empty());
        r.add_route(NetworkId(5), vec![ChannelId(0)]).unwrap();
        r.add_route(NetworkId(2), vec![ChannelId(1)]).unwrap();
        assert_eq!(r.networks(), vec![NetworkId(2), NetworkId(5)]);
    }

    #[test]
    fn illegal_destination_fails() {
        let mut r = Router::new();
        assert_eq!(
            r.forward(NetworkId(9), false),
            Err(RouteError::NoRoute(NetworkId(9)))
        );
    }

    #[test]
    fn route_lifecycle() {
        let mut r = Router::new();
        r.add_route(NetworkId(1), vec![ChannelId(0)]).unwrap();
        assert_eq!(
            r.add_route(NetworkId(1), vec![ChannelId(1)]),
            Err(RouteError::DuplicateRoute(NetworkId(1)))
        );
        assert_eq!(r.add_route(NetworkId(2), vec![]), Err(RouteError::EmptyChannelSet));
        r.remove_route(NetworkId(1)).unwrap();
        assert_eq!(
            r.remove_route(NetworkId(1)),
            Err(RouteError::NoRoute(NetworkId(1)))
        );
        assert_eq!(r.route_count(), 0);
    }
}
