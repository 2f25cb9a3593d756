//! Per-host state in struct-of-arrays layout: NIC liveness, kernel route
//! tables and counters.
//!
//! The simulator used to keep one `HostState` struct per host; [`Hosts`]
//! keeps parallel arrays over the cluster's host ids instead. The hot
//! kernel paths touch exactly one field family at a time (a NIC check on
//! delivery, a counter bump on a drop), and parallel arrays keep each
//! family dense instead of striding over whole-host records.
//!
//! Read access for experiments goes through [`HostView`], which exposes
//! the same `.routes` / `.counters` / `.obs` fields the old per-host
//! struct had.

use crate::stats::HostCounters;
use drs_core::{NetId, NodeId, ProbeObs, RouteTable};

/// Struct-of-arrays state for every host of a cluster, indexed by
/// [`NodeId`].
#[derive(Debug, Clone)]
pub struct Hosts {
    /// Planes per host (`K`).
    planes: u8,
    /// NIC liveness, row-major: `[host][plane]`.
    nic_up: Vec<bool>,
    /// Kernel route tables (dense `O(N)` per host).
    routes: Vec<RouteTable>,
    /// Stack-level event counters.
    counters: Vec<HostCounters>,
    /// Probe-path observability recorded by the routing daemons.
    obs: Vec<ProbeObs>,
}

impl Hosts {
    /// `n` healthy hosts attached to `planes` network planes, each with
    /// the deployed default route table (direct routes on the primary).
    ///
    /// # Panics
    /// Panics if `planes < 2`.
    #[must_use]
    pub fn new(n: usize, planes: u8) -> Self {
        assert!(planes >= 2, "a redundant host needs at least two planes");
        Hosts {
            planes,
            nic_up: vec![true; n * planes as usize],
            routes: (0..n)
                .map(|i| RouteTable::new_default(NodeId(i as u32), n))
                .collect(),
            counters: vec![HostCounters::default(); n],
            obs: vec![ProbeObs::default(); n],
        }
    }

    /// Planes per host.
    #[must_use]
    pub fn planes(&self) -> u8 {
        self.planes
    }

    #[inline]
    fn cell(&self, node: NodeId, net: NetId) -> usize {
        node.idx() * self.planes as usize + net.idx()
    }

    /// Whether `node`'s NIC on `net` is operational.
    #[inline]
    #[must_use]
    pub fn nic_is_up(&self, node: NodeId, net: NetId) -> bool {
        self.nic_up[self.cell(node, net)]
    }

    /// Fails or repairs `node`'s NIC on `net`.
    pub fn set_nic(&mut self, node: NodeId, net: NetId, up: bool) {
        let c = self.cell(node, net);
        self.nic_up[c] = up;
    }

    /// Whether `node` is completely cut off at the NIC level.
    #[must_use]
    pub fn is_isolated(&self, node: NodeId) -> bool {
        let k = self.planes as usize;
        let row = node.idx() * k;
        self.nic_up[row..row + k].iter().all(|up| !up)
    }

    /// Read access to `node`'s route table.
    #[inline]
    #[must_use]
    pub fn routes(&self, node: NodeId) -> &RouteTable {
        &self.routes[node.idx()]
    }

    /// Mutable access to `node`'s route table.
    pub fn routes_mut(&mut self, node: NodeId) -> &mut RouteTable {
        &mut self.routes[node.idx()]
    }

    /// Read access to `node`'s stack counters.
    #[must_use]
    pub fn counters(&self, node: NodeId) -> &HostCounters {
        &self.counters[node.idx()]
    }

    /// Mutable access to `node`'s stack counters.
    pub fn counters_mut(&mut self, node: NodeId) -> &mut HostCounters {
        &mut self.counters[node.idx()]
    }

    /// Read access to `node`'s probe-path observability record.
    #[must_use]
    pub fn obs(&self, node: NodeId) -> &ProbeObs {
        &self.obs[node.idx()]
    }

    /// Mutable access to `node`'s probe-path observability record.
    pub fn obs_mut(&mut self, node: NodeId) -> &mut ProbeObs {
        &mut self.obs[node.idx()]
    }

    /// Every host's probe observations, in host order.
    pub fn obs_iter(&self) -> impl Iterator<Item = &ProbeObs> {
        self.obs.iter()
    }

    /// A read view of one host, shaped like the old per-host struct.
    #[must_use]
    pub fn view(&self, node: NodeId) -> HostView<'_> {
        let l = node.idx();
        let k = self.planes as usize;
        HostView {
            id: node,
            routes: &self.routes[l],
            counters: &self.counters[l],
            obs: &self.obs[l],
            nic_up: &self.nic_up[l * k..(l + 1) * k],
        }
    }
}

/// A read-only window onto one host's simulated state.
///
/// Field names match the retired per-host struct, so experiment code
/// keeps reading `world.host(n).counters.forwarded` unchanged.
#[derive(Debug, Clone, Copy)]
pub struct HostView<'a> {
    /// This host's identity.
    pub id: NodeId,
    /// The kernel route table routing daemons manipulate.
    pub routes: &'a RouteTable,
    /// Stack-level event counters.
    pub counters: &'a HostCounters,
    /// Probe-path observability recorded by the routing daemon.
    pub obs: &'a ProbeObs,
    nic_up: &'a [bool],
}

impl HostView<'_> {
    /// How many network planes this host is attached to.
    #[must_use]
    pub fn planes(&self) -> u8 {
        self.nic_up.len() as u8
    }

    /// Whether this host's NIC on `net` is operational.
    #[must_use]
    pub fn nic_is_up(&self, net: NetId) -> bool {
        self.nic_up[net.idx()]
    }

    /// Whether the host is completely cut off at the NIC level.
    #[must_use]
    pub fn is_isolated(&self) -> bool {
        self.nic_up.iter().all(|up| !up)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_core::Route;

    #[test]
    fn new_hosts_are_healthy_with_default_routes() {
        let h = Hosts::new(4, 2);
        let n2 = NodeId(2);
        assert!(h.nic_is_up(n2, NetId::A) && h.nic_is_up(n2, NetId::B));
        assert_eq!(h.planes(), 2);
        assert!(!h.is_isolated(n2));
        assert_eq!(h.routes(n2).get(NodeId(0)), Some(Route::Direct(NetId::A)));
        assert_eq!(h.routes(n2).get(NodeId(2)), None);
    }

    #[test]
    fn nic_toggling() {
        let mut h = Hosts::new(2, 2);
        let n0 = NodeId(0);
        h.set_nic(n0, NetId::A, false);
        assert!(!h.nic_is_up(n0, NetId::A));
        assert!(h.nic_is_up(n0, NetId::B));
        assert!(h.nic_is_up(NodeId(1), NetId::A), "rows are independent");
        assert!(!h.is_isolated(n0));
        h.set_nic(n0, NetId::B, false);
        assert!(h.is_isolated(n0));
        h.set_nic(n0, NetId::A, true);
        assert!(!h.is_isolated(n0));
    }

    #[test]
    fn three_plane_host_isolated_only_when_all_nics_down() {
        let mut h = Hosts::new(2, 3);
        let n0 = NodeId(0);
        assert_eq!(h.planes(), 3);
        h.set_nic(n0, NetId(0), false);
        h.set_nic(n0, NetId(1), false);
        assert!(!h.is_isolated(n0), "plane C still up");
        h.set_nic(n0, NetId(2), false);
        assert!(h.is_isolated(n0));
    }

    #[test]
    fn view_exposes_per_host_fields() {
        let mut h = Hosts::new(3, 2);
        h.counters_mut(NodeId(1)).forwarded = 7;
        let v = h.view(NodeId(1));
        assert_eq!(v.id, NodeId(1));
        assert_eq!(v.counters.forwarded, 7);
        assert_eq!(v.planes(), 2);
        assert!(v.nic_is_up(NetId::A));
        assert!(!v.is_isolated());
    }
}
