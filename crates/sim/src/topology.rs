//! Building simulated clusters from an explicit topology graph.
//!
//! The classical [`ClusterSpec`] world is a K-plane cluster: every host
//! has one NIC on each of `K` shared segments. A [`TopologySpec`] wraps
//! a [`drs_topology::Topology`] — an arbitrary graph of hosts, switches
//! and point-to-point links — and maps it onto the same event kernel
//! without touching any hot path:
//!
//! * every graph node (host **and** switch) becomes a simulated host
//!   running the protocol — switches are store-and-forward devices, so
//!   modelling them as protocol-running nodes matches a real fabric
//!   where switch firmware floods/forwards frames;
//! * every **link** becomes one two-endpoint shared segment (its own
//!   [`SharedMedium`], [`NetId`] = link index). Only the link's two
//!   endpoints have a live NIC on that segment; every other `(node,
//!   segment)` NIC starts *down*, so the existing sender/receiver NIC
//!   checks in the kernel enforce membership for free;
//! * a topology **link failure** maps to the segment's hub
//!   ([`SimComponent::Hub`]); a **switch failure** maps to the switch
//!   node's NICs on all its incident segments (deaf and mute on every
//!   port — the node itself keeps "running", but nothing reaches it).
//!
//! The degenerate K-plane topology
//! ([`drs_topology::generators::kplane`]) reproduces the classical
//! cluster: plane `p`'s switch is the hub and host `i`'s link on plane
//! `p` is the NIC, in the same component order as
//! [`crate::fault::index_to_component`].
//!
//! Capacity limits are validated once, at construction, through the
//! shared [`drs_topology::limits`] checks — the same validation the
//! analytic engines apply, so a topology that builds here is guaranteed
//! to enumerate there.

use drs_core::{NetId, NodeId, RouteTable, SimDuration, SimTime};
use drs_topology::{limits, TopoComponent, Topology};

use crate::fault::{FaultPlan, SimComponent};
use crate::host::Hosts;
use crate::medium::SharedMedium;
use crate::scenario::{ClusterSpec, TransportConfig};

/// A simulation scenario over an explicit topology graph: the graph plus
/// the physical-layer and transport knobs of [`ClusterSpec`].
///
/// Construction validates the shared capacity limits
/// ([`drs_topology::limits::validate_components`]) and the simulator's
/// own structural bounds (at least two links, at most 255 — segments are
/// addressed by the `u8` [`NetId`]).
#[derive(Debug, Clone)]
pub struct TopologySpec {
    topo: Topology,
    spec: ClusterSpec,
    /// Sparse per-link bandwidth overrides, `(link index, bps)`.
    link_bandwidth: Vec<(u32, u64)>,
}

impl TopologySpec {
    /// Wraps a topology with default physical parameters (100 Mb/s
    /// segments, 5 µs propagation — the [`ClusterSpec::new`] defaults).
    ///
    /// # Panics
    /// Panics if the component universe exceeds the shared 256-entry
    /// index space, or the link count falls outside `2..=255`.
    #[must_use]
    pub fn new(topo: Topology) -> Self {
        if let Err(e) = limits::validate_components(topo.component_count()) {
            // Display, not Debug: the message is the shared limit text.
            panic!("{e}");
        }
        let segments = topo.links().len();
        assert!(
            segments >= 2,
            "a topology world needs at least two links, got {segments}"
        );
        assert!(
            segments <= 255,
            "{segments} links exceed the 255-segment NetId space"
        );
        let spec = ClusterSpec::new(topo.nodes()).planes(segments as u8);
        TopologySpec {
            topo,
            spec,
            link_bandwidth: Vec::new(),
        }
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec = self.spec.seed(seed);
        self
    }

    /// Sets the data rate of every segment (overridable per link via
    /// [`Self::link_bandwidth`]).
    #[must_use]
    pub fn bandwidth_bps(mut self, bps: u64) -> Self {
        self.spec = self.spec.bandwidth_bps(bps);
        self
    }

    /// Overrides the data rate of one link's segment (e.g. a fat-tree
    /// core link running at a higher rate than the edge).
    ///
    /// # Panics
    /// Panics if `link` is out of range or `bps` is zero.
    #[must_use]
    pub fn link_bandwidth(mut self, link: usize, bps: u64) -> Self {
        assert!(
            link < self.topo.links().len(),
            "link {link} out of range for {} links",
            self.topo.links().len()
        );
        assert!(bps > 0, "bandwidth must be positive");
        self.link_bandwidth.retain(|&(l, _)| l != link as u32);
        self.link_bandwidth.push((link as u32, bps));
        self.link_bandwidth.sort_unstable();
        self
    }

    /// Sets the propagation delay of every segment.
    #[must_use]
    pub fn propagation(mut self, d: SimDuration) -> Self {
        self.spec = self.spec.propagation(d);
        self
    }

    /// Sets the transport tuning.
    #[must_use]
    pub fn transport(mut self, t: TransportConfig) -> Self {
        self.spec = self.spec.transport(t);
        self
    }

    /// Sets the per-receiver frame corruption probability.
    #[must_use]
    pub fn frame_loss_rate(mut self, p: f64) -> Self {
        self.spec = self.spec.frame_loss_rate(p);
        self
    }

    /// Sets the data-segment TTL.
    #[must_use]
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.spec = self.spec.ttl(ttl);
        self
    }

    /// The wrapped topology graph.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The derived cluster scenario: `n` = every graph node (hosts and
    /// switches), one "plane" per link.
    #[must_use]
    pub fn cluster_spec(&self) -> ClusterSpec {
        self.spec
    }

    /// Total simulated nodes (`hosts + switches`).
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.topo.nodes()
    }

    /// Number of host nodes (ids `0..hosts`).
    #[must_use]
    pub fn hosts(&self) -> usize {
        self.topo.hosts()
    }

    /// Number of two-endpoint segments (= links).
    #[must_use]
    pub fn segments(&self) -> usize {
        self.topo.links().len()
    }

    /// The simulated node of switch `s`.
    ///
    /// # Panics
    /// Panics if `s` is not a switch index.
    #[must_use]
    pub fn switch_node(&self, s: usize) -> NodeId {
        NodeId(self.topo.switch_node(s) as u32)
    }

    /// Whether `node` is an endpoint of segment `net` (i.e. starts with
    /// a live NIC there).
    #[must_use]
    pub fn is_member(&self, node: NodeId, net: NetId) -> bool {
        let l = &self.topo.links()[net.idx()];
        l.a == node.0 || l.b == node.0
    }

    /// The effective data rate of segment `link`.
    #[must_use]
    pub fn segment_bandwidth(&self, link: usize) -> u64 {
        self.link_bandwidth
            .iter()
            .find(|&&(l, _)| l == link as u32)
            .map_or(self.spec.bandwidth_bps, |&(_, bps)| bps)
    }

    /// Builds the per-segment media, honouring per-link overrides.
    pub(crate) fn media(&self) -> Vec<SharedMedium> {
        (0..self.segments())
            .map(|l| {
                SharedMedium::new(
                    NetId(l as u8),
                    self.segment_bandwidth(l),
                    self.spec.propagation,
                )
            })
            .collect()
    }

    /// Masks every node's NICs down to topology membership: every
    /// `(node, segment)` cell goes down except the two endpoints of each
    /// link, and route tables start empty (a graph fabric has no
    /// meaningful "direct on the primary plane" default). Applied before
    /// any `on_start`, so daemons observe membership from the first
    /// instant.
    pub(crate) fn apply_membership(&self, hosts: &mut Hosts) {
        let segments = self.segments();
        let n = self.nodes();
        for node in (0..n as u32).map(NodeId) {
            for s in 0..segments {
                hosts.set_nic(node, NetId(s as u8), false);
            }
            for &l in self.topo.incident_links(node.idx()) {
                hosts.set_nic(node, NetId(l as u8), true);
            }
            *hosts.routes_mut(node) = RouteTable::new_empty(node, n);
        }
    }

    /// The [`SimComponent`]s implementing one topology failure component
    /// (by universe index — switches first, then links):
    ///
    /// * a link maps to its segment's hub (one component);
    /// * a switch maps to the switch node's NICs on all incident
    ///   segments (the node goes deaf and mute on every port).
    ///
    /// # Panics
    /// Panics if `idx` is at or beyond the component universe.
    #[must_use]
    pub fn sim_components(&self, idx: usize) -> Vec<SimComponent> {
        let c = self
            .topo
            .component(idx)
            .unwrap_or_else(|| panic!("component index {idx} out of range for {}", self.topo));
        match c {
            TopoComponent::Link(l) => vec![SimComponent::Hub(NetId(l as u8))],
            TopoComponent::Switch(s) => {
                let v = self.topo.switch_node(s);
                self.topo
                    .incident_links(v)
                    .iter()
                    .map(|&l| SimComponent::Nic(NodeId(v as u32), NetId(l as u8)))
                    .collect()
            }
        }
    }

    /// A fault plan failing the given topology components (by universe
    /// index) at instant `at`.
    ///
    /// # Panics
    /// Panics if any index is at or beyond the component universe.
    #[must_use]
    pub fn fault_plan(&self, at: SimTime, failed: &[usize]) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for &idx in failed {
            for c in self.sim_components(idx) {
                plan = plan.fail_at(at, c);
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_topology::generators;

    fn kplane42() -> TopologySpec {
        TopologySpec::new(generators::kplane(4, 2))
    }

    #[test]
    fn derived_spec_counts_nodes_and_segments() {
        let t = kplane42();
        // kplane(4, 2): 4 hosts + 2 plane switches, one link per NIC.
        assert_eq!(t.hosts(), 4);
        assert_eq!(t.nodes(), 6);
        assert_eq!(t.segments(), 8);
        let spec = t.cluster_spec();
        assert_eq!(spec.n, 6);
        assert_eq!(spec.planes, 8);
    }

    #[test]
    fn membership_follows_link_endpoints() {
        let t = kplane42();
        // kplane links are plane-major, host-minor: segment p*n + i wires
        // host i to plane p's switch.
        assert!(t.is_member(NodeId(0), NetId(0)));
        assert!(t.is_member(t.switch_node(0), NetId(0)));
        assert!(!t.is_member(NodeId(1), NetId(0)));
        assert!(!t.is_member(t.switch_node(1), NetId(0)));
        assert!(t.is_member(NodeId(1), NetId(4 + 1)), "plane 1, host 1");
    }

    #[test]
    fn link_failure_maps_to_segment_hub() {
        let t = kplane42();
        // Universe: 2 switches then 8 links; component 2 is link 0.
        assert_eq!(t.sim_components(2), vec![SimComponent::Hub(NetId(0))]);
        assert_eq!(t.sim_components(9), vec![SimComponent::Hub(NetId(7))]);
    }

    #[test]
    fn switch_failure_maps_to_all_incident_nics() {
        let t = kplane42();
        let s0 = t.switch_node(0);
        let got = t.sim_components(0);
        // Plane 0's switch touches segments 0..4 (its hosts' links).
        let want: Vec<SimComponent> = (0..4).map(|l| SimComponent::Nic(s0, NetId(l))).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn fault_plan_expands_every_component() {
        let t = kplane42();
        let plan = t.fault_plan(SimTime(5), &[0, 2]);
        // Switch 0 → 4 NIC faults; link 0 → 1 hub fault.
        assert_eq!(plan.len(), 5);
        for ev in plan.into_sorted_events() {
            assert_eq!(ev.at, SimTime(5));
            assert!(!ev.up);
        }
    }

    #[test]
    fn per_link_bandwidth_overrides_apply() {
        let t = kplane42()
            .bandwidth_bps(10_000_000)
            .link_bandwidth(3, 1_000_000_000);
        assert_eq!(t.segment_bandwidth(0), 10_000_000);
        assert_eq!(t.segment_bandwidth(3), 1_000_000_000);
        let media = t.media();
        assert!(media[3].serialization(100) < media[0].serialization(100));
    }

    #[test]
    #[should_panic(expected = "exceeds the 256-component index space")]
    fn oversized_universe_rejected_at_construction() {
        // fat_tree(8): 80 switches + 384 links = 464 components.
        let _ = TopologySpec::new(generators::fat_tree(8));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fault_plan_rejects_out_of_universe_index() {
        let t = kplane42();
        let _ = t.fault_plan(SimTime(0), &[10]);
    }
}
