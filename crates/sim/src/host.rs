//! Per-host state in struct-of-arrays layout: NIC liveness, kernel route
//! tables, transport bookkeeping and counters.
//!
//! The simulator used to keep one `HostState` struct per host; the
//! sharded kernel replaced that with a [`Hosts`] *block* — parallel
//! arrays over a contiguous range of host ids. Two things motivated the
//! layout change:
//!
//! * **Cache behaviour.** The hot kernel paths touch exactly one field
//!   family at a time (a NIC check on delivery, a counter bump on a
//!   drop). Parallel arrays keep each family dense instead of striding
//!   over whole-host records.
//! * **Sharding.** A shard owns the hosts `[base, base + len)` of a
//!   larger cluster and nothing else. A block with a base offset makes
//!   that ownership structural: the shard allocates only its own rows,
//!   and an out-of-block access is a bug the accessors catch.
//!
//! Read access for experiments goes through [`HostView`], which exposes
//! the same `.routes` / `.counters` / `.obs` fields the old per-host
//! struct had.

use crate::stats::HostCounters;
use crate::transport::TransportState;
use drs_core::{NetId, NodeId, ProbeObs, RouteTable};

/// Struct-of-arrays state for a contiguous block of hosts.
///
/// Each shard of a [`crate::world::World`] owns the block of hosts it
/// simulates — one full-cluster block (`base == 0`) when it is the only
/// shard. All accessors take global [`NodeId`]s and
/// translate to block-local rows internally.
#[derive(Debug, Clone)]
pub struct Hosts {
    /// First host id in this block.
    base: u32,
    /// Hosts in this block.
    len: usize,
    /// Planes per host (`K`).
    planes: u8,
    /// NIC liveness, row-major: `[host][plane]`.
    nic_up: Vec<bool>,
    /// Kernel route tables (dense `O(N)` per host).
    routes: Vec<RouteTable>,
    /// Outstanding reliable-transport sends.
    transport: Vec<TransportState>,
    /// Stack-level event counters.
    counters: Vec<HostCounters>,
    /// Probe-path observability recorded by the routing daemons.
    obs: Vec<ProbeObs>,
}

impl Hosts {
    /// A block of `len` healthy hosts starting at id `base`, inside a
    /// cluster of `n_total` hosts attached to `planes` network planes,
    /// each with the deployed default route table (direct routes on the
    /// primary).
    ///
    /// # Panics
    /// Panics if `planes < 2` or the block exceeds the cluster.
    #[must_use]
    pub fn new_block(base: u32, len: usize, n_total: usize, planes: u8) -> Self {
        assert!(planes >= 2, "a redundant host needs at least two planes");
        assert!(
            base as usize + len <= n_total,
            "host block [{base}, {}) exceeds the {n_total}-host cluster",
            base as usize + len
        );
        let k = planes as usize;
        Hosts {
            base,
            len,
            planes,
            nic_up: vec![true; len * k],
            routes: (0..len)
                .map(|i| RouteTable::new_default(NodeId(base + i as u32), n_total))
                .collect(),
            transport: vec![TransportState::default(); len],
            counters: vec![HostCounters::default(); len],
            obs: vec![ProbeObs::default(); len],
        }
    }

    /// The full-cluster block (`base == 0`, every host).
    #[must_use]
    pub fn full(n: usize, planes: u8) -> Self {
        Self::new_block(0, n, n, planes)
    }

    /// First host id in this block.
    #[must_use]
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Hosts in this block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Planes per host.
    #[must_use]
    pub fn planes(&self) -> u8 {
        self.planes
    }

    /// Whether `node` belongs to this block.
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        node.0 >= self.base && (node.0 - self.base) < self.len as u32
    }

    /// The global ids of this block's hosts, ascending.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (self.base..self.base + self.len as u32).map(NodeId)
    }

    /// Block-local row of `node`.
    #[inline]
    pub(crate) fn local(&self, node: NodeId) -> usize {
        debug_assert!(
            self.contains(node),
            "host {node:?} is outside block [{}, {})",
            self.base,
            self.base as usize + self.len
        );
        (node.0 - self.base) as usize
    }

    #[inline]
    fn cell(&self, node: NodeId, net: NetId) -> usize {
        self.local(node) * self.planes as usize + net.idx()
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
        let row = self.local(node) * k;
        self.nic_up[row..row + k].iter().all(|up| !up)
    }

    /// Read access to `node`'s route table.
    #[inline]
    #[must_use]
    pub fn routes(&self, node: NodeId) -> &RouteTable {
        &self.routes[self.local(node)]
    }

    /// Mutable access to `node`'s route table.
    pub fn routes_mut(&mut self, node: NodeId) -> &mut RouteTable {
        let l = self.local(node);
        &mut self.routes[l]
    }

    /// Read access to `node`'s transport state.
    #[must_use]
    pub fn transport(&self, node: NodeId) -> &TransportState {
        &self.transport[self.local(node)]
    }

    /// Mutable access to `node`'s transport state.
    pub fn transport_mut(&mut self, node: NodeId) -> &mut TransportState {
        let l = self.local(node);
        &mut self.transport[l]
    }

    /// Read access to `node`'s stack counters.
    #[must_use]
    pub fn counters(&self, node: NodeId) -> &HostCounters {
        &self.counters[self.local(node)]
    }

    /// Mutable access to `node`'s stack counters.
    pub fn counters_mut(&mut self, node: NodeId) -> &mut HostCounters {
        let l = self.local(node);
        &mut self.counters[l]
    }

    /// Read access to `node`'s probe-path observability record.
    #[must_use]
    pub fn obs(&self, node: NodeId) -> &ProbeObs {
        &self.obs[self.local(node)]
    }

    /// Mutable access to `node`'s probe-path observability record.
    pub fn obs_mut(&mut self, node: NodeId) -> &mut ProbeObs {
        let l = self.local(node);
        &mut self.obs[l]
    }

    /// This block's probe observations, block-local order (ascending id).
    pub fn obs_iter(&self) -> impl Iterator<Item = &ProbeObs> {
        self.obs.iter()
    }

    /// Flows still outstanding across this block.
    #[must_use]
    pub fn flows_in_flight(&self) -> usize {
        self.transport.iter().map(TransportState::in_flight).sum()
    }

    /// A read view of one host, shaped like the old per-host struct.
    #[must_use]
    pub fn view(&self, node: NodeId) -> HostView<'_> {
        let l = self.local(node);
        let k = self.planes as usize;
        HostView {
            id: node,
            routes: &self.routes[l],
            transport: &self.transport[l],
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
    /// Outstanding reliable-transport sends.
    pub transport: &'a TransportState,
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
    fn new_block_is_healthy_with_default_routes() {
        let h = Hosts::full(4, 2);
        let n2 = NodeId(2);
        assert!(h.nic_is_up(n2, NetId::A) && h.nic_is_up(n2, NetId::B));
        assert_eq!(h.planes(), 2);
        assert!(!h.is_isolated(n2));
        assert_eq!(h.routes(n2).get(NodeId(0)), Some(Route::Direct(NetId::A)));
        assert_eq!(h.routes(n2).get(NodeId(2)), None);
    }

    #[test]
    fn offset_block_owns_only_its_range() {
        let h = Hosts::new_block(4, 3, 10, 2);
        assert_eq!(h.base(), 4);
        assert_eq!(h.len(), 3);
        assert!(!h.contains(NodeId(3)));
        assert!(h.contains(NodeId(4)) && h.contains(NodeId(6)));
        assert!(!h.contains(NodeId(7)));
        assert_eq!(h.nodes().collect::<Vec<_>>().len(), 3);
        // Routes still span the whole cluster.
        assert_eq!(
            h.routes(NodeId(5)).get(NodeId(9)),
            Some(Route::Direct(NetId::A))
        );
    }

    #[test]
    fn nic_toggling() {
        let mut h = Hosts::full(2, 2);
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
        let mut h = Hosts::full(2, 3);
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
        let mut h = Hosts::full(3, 2);
        h.counters_mut(NodeId(1)).forwarded = 7;
        let v = h.view(NodeId(1));
        assert_eq!(v.id, NodeId(1));
        assert_eq!(v.counters.forwarded, 7);
        assert_eq!(v.planes(), 2);
        assert!(v.nic_is_up(NetId::A));
        assert!(!v.is_isolated());
    }
}
