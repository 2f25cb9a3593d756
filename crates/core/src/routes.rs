//! Per-host route tables: the kernel state that routing daemons manipulate.
//!
//! The deployed DRS ran as a user-space demon that installed point-to-point
//! routes in the host kernel. This module models that kernel table: for
//! every destination host there is at most one route, either **direct** on
//! one of the two networks or **via a gateway** host reachable on one of
//! them.

use crate::ids::{NetId, NodeId};

/// A route to one destination host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    /// Send directly to the destination's NIC on the given network.
    Direct(NetId),
    /// Send to `gateway`'s NIC on `net`; the gateway forwards from there.
    Via {
        /// The relaying host.
        gateway: NodeId,
        /// Network used for the first hop (us → gateway).
        net: NetId,
    },
}

impl Route {
    /// The L2 next hop `(node, net)` this route resolves to for a given
    /// destination.
    #[must_use]
    pub fn next_hop(self, dst: NodeId) -> (NodeId, NetId) {
        match self {
            Route::Direct(net) => (dst, net),
            Route::Via { gateway, net } => (gateway, net),
        }
    }

    /// Whether this route relays through another host.
    #[must_use]
    pub fn is_indirect(self) -> bool {
        matches!(self, Route::Via { .. })
    }
}

/// The route table of one host: `dst → route`, dense over the cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTable {
    owner: NodeId,
    routes: Vec<Option<Route>>,
}

impl RouteTable {
    /// A table for host `owner` in an `n`-host cluster, with the deployed
    /// default: a direct route on the primary network to every other host.
    #[must_use]
    pub fn new_default(owner: NodeId, n: usize) -> Self {
        let mut routes = vec![Some(Route::Direct(NetId::A)); n];
        routes[owner.idx()] = None; // no route to self
        RouteTable { owner, routes }
    }

    /// A table with no routes at all (used by baselines that must first
    /// discover the topology).
    #[must_use]
    pub fn new_empty(owner: NodeId, n: usize) -> Self {
        RouteTable {
            owner,
            routes: vec![None; n],
        }
    }

    /// The current route to `dst`, if any.
    #[must_use]
    pub fn get(&self, dst: NodeId) -> Option<Route> {
        self.routes.get(dst.idx()).copied().flatten()
    }

    /// Installs (or replaces) the route to `dst`.
    ///
    /// # Panics
    /// Panics when installing a route to oneself, or a `Via` route whose
    /// gateway is the destination or the owner — malformed entries that a
    /// real kernel would reject and that could otherwise loop.
    pub fn set(&mut self, dst: NodeId, route: Route) {
        assert_ne!(dst, self.owner, "route to self is meaningless");
        if let Route::Via { gateway, .. } = route {
            assert_ne!(gateway, dst, "gateway must differ from destination");
            assert_ne!(gateway, self.owner, "gateway must differ from owner");
        }
        self.routes[dst.idx()] = Some(route);
    }

    /// Removes the route to `dst`, returning the old entry.
    pub fn remove(&mut self, dst: NodeId) -> Option<Route> {
        self.routes[dst.idx()].take()
    }

    /// Iterates `(dst, route)` over installed routes.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Route)> + '_ {
        self.routes
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.map(|r| (NodeId(i as u32), r)))
    }

    /// Number of installed routes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.routes.iter().flatten().count()
    }

    /// Whether no route is installed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of indirect (via-gateway) routes — a health indicator used by
    /// experiments.
    #[must_use]
    pub fn indirect_count(&self) -> usize {
        self.routes
            .iter()
            .flatten()
            .filter(|r| r.is_indirect())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_table_is_all_direct_primary() {
        let t = RouteTable::new_default(NodeId(1), 4);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(NodeId(0)), Some(Route::Direct(NetId::A)));
        assert_eq!(t.get(NodeId(1)), None, "no route to self");
        assert_eq!(t.indirect_count(), 0);
    }

    #[test]
    fn set_get_remove_roundtrip() {
        let mut t = RouteTable::new_empty(NodeId(0), 4);
        assert!(t.is_empty());
        t.set(NodeId(2), Route::Direct(NetId::B));
        t.set(
            NodeId(3),
            Route::Via {
                gateway: NodeId(1),
                net: NetId::A,
            },
        );
        assert_eq!(t.get(NodeId(2)), Some(Route::Direct(NetId::B)));
        assert_eq!(t.indirect_count(), 1);
        assert_eq!(t.remove(NodeId(2)), Some(Route::Direct(NetId::B)));
        assert_eq!(t.get(NodeId(2)), None);
    }

    #[test]
    fn next_hop_resolution() {
        let dst = NodeId(5);
        assert_eq!(Route::Direct(NetId::B).next_hop(dst), (dst, NetId::B));
        let via = Route::Via {
            gateway: NodeId(2),
            net: NetId::A,
        };
        assert_eq!(via.next_hop(dst), (NodeId(2), NetId::A));
    }

    #[test]
    #[should_panic(expected = "route to self")]
    fn self_route_rejected() {
        let mut t = RouteTable::new_empty(NodeId(0), 4);
        t.set(NodeId(0), Route::Direct(NetId::A));
    }

    #[test]
    #[should_panic(expected = "gateway must differ from destination")]
    fn degenerate_gateway_rejected() {
        let mut t = RouteTable::new_empty(NodeId(0), 4);
        t.set(
            NodeId(2),
            Route::Via {
                gateway: NodeId(2),
                net: NetId::A,
            },
        );
    }

    #[test]
    fn iter_lists_installed_routes() {
        let t = RouteTable::new_default(NodeId(0), 3);
        let got: Vec<_> = t.iter().collect();
        assert_eq!(
            got,
            vec![
                (NodeId(1), Route::Direct(NetId::A)),
                (NodeId(2), Route::Direct(NetId::A)),
            ]
        );
    }
}
