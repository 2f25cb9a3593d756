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

/// The route table of one host: `dst → route` over the cluster. It
/// keeps its constructor's fill implicit until the first [`Self::set`]
/// or [`Self::remove`] builds one entry per host, and two tables are
/// equal when [`Self::get`] agrees on every id, however each is stored.
#[derive(Debug, Clone)]
pub struct RouteTable {
    owner: NodeId,
    n: usize,
    /// The route to every host but the owner while `routes` is empty.
    fill: Option<Route>,
    /// One entry per host once written, else empty.
    routes: Vec<Option<Route>>,
}

impl RouteTable {
    /// A table for host `owner` in an `n`-host cluster, with the deployed
    /// default: a direct route on the primary network to every other host.
    #[must_use]
    pub fn new_default(owner: NodeId, n: usize) -> Self {
        RouteTable {
            fill: Some(Route::Direct(NetId::A)),
            ..Self::new_empty(owner, n)
        }
    }

    /// A table with no routes at all (used by baselines that must first
    /// discover the topology).
    #[must_use]
    pub fn new_empty(owner: NodeId, n: usize) -> Self {
        RouteTable {
            owner,
            n,
            fill: None,
            routes: Vec::new(),
        }
    }

    /// The current route to `dst`, if any.
    #[must_use]
    pub fn get(&self, dst: NodeId) -> Option<Route> {
        if self.routes.is_empty() {
            (dst != self.owner && dst.idx() < self.n).then_some(self.fill?)
        } else {
            self.routes.get(dst.idx()).copied().flatten()
        }
    }

    /// Every entry, built from the fill on the first write.
    fn entries_mut(&mut self) -> &mut [Option<Route>] {
        if self.routes.is_empty() {
            self.routes = (0..self.n as u32).map(|i| self.get(NodeId(i))).collect();
        }
        &mut self.routes
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
        self.entries_mut()[dst.idx()] = Some(route);
    }

    /// Removes the route to `dst`, returning the old entry.
    pub fn remove(&mut self, dst: NodeId) -> Option<Route> {
        self.entries_mut()[dst.idx()].take()
    }

    /// Iterates `(dst, route)` over installed routes, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Route)> + '_ {
        (0..self.n as u32)
            .map(NodeId)
            .filter_map(|dst| self.get(dst).map(|r| (dst, r)))
    }

    /// Number of installed routes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether no route is installed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many entries the table stores: zero until the first write,
    /// one per host after it.
    #[must_use]
    pub fn entry_slots(&self) -> usize {
        self.routes.len()
    }

    /// Number of indirect (via-gateway) routes — a health indicator used by
    /// experiments.
    #[must_use]
    pub fn indirect_count(&self) -> usize {
        self.iter().filter(|(_, r)| r.is_indirect()).count()
    }
}

impl PartialEq for RouteTable {
    fn eq(&self, other: &Self) -> bool {
        (self.owner, self.n) == (other.owner, other.n) && self.iter().eq(other.iter())
    }
}

impl Eq for RouteTable {}

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

    /// `t` with every entry built, as after a first write.
    fn eager(t: &RouteTable) -> RouteTable {
        let mut e = t.clone();
        e.entries_mut();
        e
    }

    /// Asserts that `a` and `b` answer every query alike, ids past the
    /// cluster included.
    fn assert_same(a: &RouteTable, b: &RouteTable) {
        assert_eq!(a, b);
        assert_eq!(b, a);
        for dst in 0..a.n as u32 + 2 {
            assert_eq!(a.get(NodeId(dst)), b.get(NodeId(dst)), "dst {dst}");
        }
        assert!(a.iter().eq(b.iter()));
        assert_eq!(a.len(), b.len());
        assert_eq!(a.is_empty(), b.is_empty());
        assert_eq!(a.indirect_count(), b.indirect_count());
    }

    #[test]
    fn a_lazy_table_equals_its_eager_form() {
        for lazy in [
            RouteTable::new_default(NodeId(1), 5),
            RouteTable::new_empty(NodeId(1), 5),
        ] {
            let built = eager(&lazy);
            assert_eq!(lazy.entry_slots(), 0, "no entry before a write");
            assert_eq!(built.entry_slots(), 5);
            assert_same(&lazy, &built);
        }
        let default = RouteTable::new_default(NodeId(1), 5);
        assert_eq!(default.len(), 4);
        assert_ne!(default, RouteTable::new_empty(NodeId(1), 5));
        assert_ne!(default, RouteTable::new_default(NodeId(2), 5));
        assert_ne!(default, RouteTable::new_default(NodeId(1), 6));
    }

    #[test]
    fn a_write_that_restores_the_fill_leaves_an_equal_table() {
        let via = Route::Via {
            gateway: NodeId(1),
            net: NetId::B,
        };
        let empty = RouteTable::new_empty(NodeId(0), 4);
        let mut t = empty.clone();
        t.set(NodeId(2), via);
        assert_ne!(t, empty);
        assert_eq!((t.len(), t.indirect_count()), (1, 1));
        assert_eq!(t.remove(NodeId(2)), Some(via));
        assert_eq!(t.entry_slots(), 4, "built by the first write");
        assert_same(&t, &empty);

        let default = RouteTable::new_default(NodeId(0), 4);
        let mut t = default.clone();
        t.set(NodeId(3), via);
        assert_eq!((t.len(), t.indirect_count()), (3, 1));
        assert_eq!(t.remove(NodeId(3)), Some(via));
        assert_ne!(t, default, "removed, not restored");
        assert_eq!(t.len(), 2);
        t.set(NodeId(3), Route::Direct(NetId::A));
        assert_same(&t, &default);
    }

    #[test]
    #[should_panic(expected = "route to self")]
    fn self_route_rejected_before_the_first_write() {
        let mut t = RouteTable::new_default(NodeId(2), 4);
        t.set(NodeId(2), Route::Direct(NetId::B));
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
