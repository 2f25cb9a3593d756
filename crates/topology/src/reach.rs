//! Reachability predicates over the live subgraph of a [`Topology`].
//!
//! Two policies:
//!
//! * [`Reachability::Transitive`] — plain graph connectivity by
//!   union-find: a pair of hosts communicates iff some path of live
//!   links through live switches (and relaying hosts) joins them. This
//!   is the survivability notion for general datacenter fabrics, where
//!   forwarding is multi-hop (Couto et al.).
//! * [`Reachability::OneHostRelay`] — the DRS predicate: the pair shares
//!   a live switch component directly, or a **single** gateway host can
//!   see both sides. DRS installs one-hop gateway routes only, so relay
//!   chains do not transit. On the degenerate K-plane topology this is
//!   exactly the analytic `pair_connected_k`; at `K = 2` it coincides
//!   with the transitive predicate (any path between hosts crosses from
//!   plane A to plane B at most once, and the crossing host is the
//!   gateway), while at `K ≥ 3` it is strictly stronger.
//!
//! Hosts are not failure components — only switches and links fail —
//! but a failed switch removes its node from the live subgraph, exactly
//! like the simulator's "all incident NICs down" mapping.

use crate::graph::{ComponentSet, TopoComponent, Topology};

/// Which connectivity notion to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reachability {
    /// Union-find connectivity over the whole live subgraph (multi-hop
    /// forwarding).
    Transitive,
    /// The DRS notion: a directly shared live switch component, or one
    /// gateway host seeing both endpoints. Host-to-host links (DCell
    /// cross links) are ignored — DRS has no concept of them.
    OneHostRelay,
}

/// Reusable scratch for repeated pair queries over one topology —
/// the enumeration engines call [`ReachEngine::pair_connected`] once per
/// failure subset, so allocations must not be per-query.
#[derive(Debug, Clone)]
pub struct ReachEngine<'a> {
    topo: &'a Topology,
    /// Union-find parent, over all nodes (Transitive) or switches only
    /// (OneHostRelay).
    parent: Vec<u32>,
}

impl<'a> ReachEngine<'a> {
    /// Prepares an engine for `topo`.
    #[must_use]
    pub fn new(topo: &'a Topology) -> Self {
        ReachEngine {
            topo,
            parent: vec![0; topo.nodes()],
        }
    }

    /// The topology this engine evaluates.
    #[must_use]
    pub fn topology(&self) -> &'a Topology {
        self.topo
    }

    fn find(&mut self, mut v: u32) -> u32 {
        while self.parent[v as usize] != v {
            let g = self.parent[self.parent[v as usize] as usize];
            self.parent[v as usize] = g;
            v = g;
        }
        v
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Smaller root wins: keeps find results deterministic and
            // root ids within the original index range.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }

    /// Whether hosts `s` and `t` can communicate with the components in
    /// `failed` down, under `policy`.
    ///
    /// # Panics
    /// Panics if `s` or `t` is not a host, if `s == t`, or (for
    /// [`Reachability::OneHostRelay`]) if the topology has more than 128
    /// switches.
    #[must_use]
    pub fn pair_connected(
        &mut self,
        failed: &ComponentSet,
        s: usize,
        t: usize,
        policy: Reachability,
    ) -> bool {
        assert!(
            self.topo.is_host(s) && self.topo.is_host(t),
            "pair endpoints must be hosts"
        );
        assert_ne!(s, t, "a host does not message itself");
        match policy {
            Reachability::Transitive => self.transitive(failed, s, t),
            Reachability::OneHostRelay => self.one_host_relay(failed, s, t),
        }
    }

    fn switch_is_live(&self, v: usize, failed: &ComponentSet) -> bool {
        match self.topo.switch_of_node(v) {
            Some(sw) => !failed.contains(sw),
            None => true, // hosts never fail
        }
    }

    fn transitive(&mut self, failed: &ComponentSet, s: usize, t: usize) -> bool {
        let nodes = self.topo.nodes();
        for v in 0..nodes {
            self.parent[v] = v as u32;
        }
        let switches = self.topo.switches();
        for (li, link) in self.topo.links().iter().enumerate() {
            if failed.contains(switches + li) {
                continue;
            }
            if !self.switch_is_live(link.a as usize, failed)
                || !self.switch_is_live(link.b as usize, failed)
            {
                continue;
            }
            self.union(link.a, link.b);
        }
        self.find(s as u32) == self.find(t as u32)
    }

    /// The live switch-component mask of host `h`: one bit per union-find
    /// root among the switches `h` reaches over a single live link.
    fn host_mask(&mut self, h: usize, failed: &ComponentSet) -> u128 {
        let switches = self.topo.switches();
        let hosts = self.topo.hosts();
        let mut mask = 0u128;
        for i in 0..self.topo.incident_links(h).len() {
            let li = self.topo.incident_links(h)[i] as usize;
            if failed.contains(switches + li) {
                continue;
            }
            let link = self.topo.links()[li];
            let other = if link.a as usize == h { link.b } else { link.a } as usize;
            if other < hosts {
                continue; // host-host link: outside the DRS model
            }
            let sw = other - hosts;
            if failed.contains(sw) {
                continue;
            }
            mask |= 1 << self.find(sw as u32);
        }
        mask
    }

    fn one_host_relay(&mut self, failed: &ComponentSet, s: usize, t: usize) -> bool {
        let switches = self.topo.switches();
        assert!(
            switches <= 128,
            "OneHostRelay supports at most 128 switches"
        );
        let hosts = self.topo.hosts();
        // Union-find over the live switch-switch subgraph only (slots
        // 0..switches of the parent scratch).
        for sw in 0..switches {
            self.parent[sw] = sw as u32;
        }
        for (li, link) in self.topo.links().iter().enumerate() {
            if failed.contains(switches + li) {
                continue;
            }
            let (a, b) = (link.a as usize, link.b as usize);
            if a < hosts || b < hosts {
                continue; // not a switch-switch link
            }
            let (sa, sb) = (a - hosts, b - hosts);
            if failed.contains(sa) || failed.contains(sb) {
                continue;
            }
            self.union(sa as u32, sb as u32);
        }
        let ms = self.host_mask(s, failed);
        let mt = self.host_mask(t, failed);
        if ms & mt != 0 {
            return true;
        }
        if ms == 0 || mt == 0 {
            return false;
        }
        for g in 0..hosts {
            if g == s || g == t {
                continue;
            }
            let mg = self.host_mask(g, failed);
            if mg & ms != 0 && mg & mt != 0 {
                return true;
            }
        }
        false
    }
}

/// One-shot convenience over [`ReachEngine`]; prefer keeping an engine
/// when evaluating many subsets.
#[must_use]
pub fn pair_connected(
    topo: &Topology,
    failed: &ComponentSet,
    s: usize,
    t: usize,
    policy: Reachability,
) -> bool {
    ReachEngine::new(topo).pair_connected(failed, s, t, policy)
}

/// Maps a failed component to the nodes it silences, for documentation
/// and the simulator's fault bridge: a failed link silences nothing by
/// itself (the segment dies), a failed switch removes its node.
#[must_use]
pub fn failed_node_of(topo: &Topology, c: TopoComponent) -> Option<usize> {
    match c {
        TopoComponent::Switch(s) => Some(topo.switch_node(s)),
        TopoComponent::Link(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{dcell, fat_tree, kplane};

    fn set(indices: &[usize]) -> ComponentSet {
        ComponentSet::from_indices(indices)
    }

    #[test]
    fn healthy_topologies_connect_every_pair_under_both_policies() {
        for topo in [kplane(4, 2), kplane(4, 3), fat_tree(4)] {
            let mut eng = ReachEngine::new(&topo);
            let h = topo.hosts();
            for s in 0..h {
                for t in s + 1..h {
                    assert!(eng.pair_connected(&set(&[]), s, t, Reachability::Transitive));
                    assert!(eng.pair_connected(&set(&[]), s, t, Reachability::OneHostRelay));
                }
            }
        }
    }

    #[test]
    fn dcell_cross_links_carry_traffic_transitively() {
        // DCell(4,1): kill both endpoints' switches; the direct cross
        // link (or a relay through other cells) must still connect them.
        let topo = dcell(4, 1);
        let mut eng = ReachEngine::new(&topo);
        // Host 0 (cell 0) and host 4 (cell 1) are joined by a cross link.
        assert!(eng.pair_connected(&set(&[0, 1]), 0, 4, Reachability::Transitive));
        // OneHostRelay ignores host-host links: with both switches dead
        // the DRS predicate sees no shared segment at all.
        assert!(!eng.pair_connected(&set(&[0, 1]), 0, 4, Reachability::OneHostRelay));
    }

    #[test]
    fn relay_is_one_hop_not_transitive_at_k3() {
        // The analytic layer's canonical K=3 chain: attachment profiles
        // host0={A}, host1={C}, host2={A,B}, host3={B,C} — transitively
        // connected, but no single gateway sees both host0 and host1.
        let n = 4;
        let topo = kplane(n, 3);
        let k = 3;
        let nic = |p: usize, i: usize| k + p * n + i;
        // Fail NICs so the profiles above remain.
        let failed = set(&[
            nic(1, 0), // host0 off B
            nic(2, 0), // host0 off C
            nic(0, 1), // host1 off A
            nic(1, 1), // host1 off B
            nic(2, 2), // host2 off C
            nic(0, 3), // host3 off A
        ]);
        let mut eng = ReachEngine::new(&topo);
        assert!(
            eng.pair_connected(&failed, 0, 1, Reachability::Transitive),
            "a two-gateway chain exists"
        );
        assert!(
            !eng.pair_connected(&failed, 0, 1, Reachability::OneHostRelay),
            "DRS cannot chain gateways"
        );
        // Each single hop of the chain is fine under DRS.
        assert!(eng.pair_connected(&failed, 0, 2, Reachability::OneHostRelay));
        assert!(eng.pair_connected(&failed, 2, 3, Reachability::OneHostRelay));
        assert!(eng.pair_connected(&failed, 3, 1, Reachability::OneHostRelay));
    }

    #[test]
    fn policies_coincide_exhaustively_at_k2() {
        // At K=2 every host-to-host path crosses planes at most once, so
        // one gateway suffices: the predicates are equal on all 2^m
        // subsets.
        for n in [2usize, 3, 4] {
            let topo = kplane(n, 2);
            let m = topo.component_count();
            let mut eng = ReachEngine::new(&topo);
            for bits in 0u32..1 << m {
                let indices: Vec<usize> = (0..m).filter(|&i| bits >> i & 1 == 1).collect();
                let failed = ComponentSet::from_indices(&indices);
                for s in 0..n {
                    for t in s + 1..n {
                        assert_eq!(
                            eng.pair_connected(&failed, s, t, Reachability::Transitive),
                            eng.pair_connected(&failed, s, t, Reachability::OneHostRelay),
                            "n={n} bits={bits:b} pair=({s},{t})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fat_tree_survives_single_core_loss_but_not_edge_cut() {
        let topo = fat_tree(4);
        let mut eng = ReachEngine::new(&topo);
        let (s, t) = (0, topo.hosts() - 1);
        // Any one core switch down: still connected.
        for c in 0..4 {
            let core_sw = 8 + 8 + c; // edge(8) + agg(8) + core index
            assert!(eng.pair_connected(&set(&[core_sw]), s, t, Reachability::Transitive));
        }
        // Host 0's only edge link down: fully cut.
        let first_host_link = topo.switches(); // component of link 0
        assert!(!eng.pair_connected(&set(&[first_host_link]), s, t, Reachability::Transitive));
        // Host 0's edge switch down: also cut.
        assert!(!eng.pair_connected(&set(&[0]), s, t, Reachability::Transitive));
    }

    #[test]
    fn failed_node_mapping() {
        let topo = kplane(3, 2);
        assert_eq!(
            failed_node_of(&topo, TopoComponent::Switch(1)),
            Some(topo.hosts() + 1)
        );
        assert_eq!(failed_node_of(&topo, TopoComponent::Link(0)), None);
    }
}
