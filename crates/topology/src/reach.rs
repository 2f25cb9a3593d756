//! Reachability predicates over the live subgraph of a [`Topology`], and
//! the certificates that let a caller skip most evaluations.
//!
//! Two policies:
//!
//! * [`Reachability::Transitive`] — plain graph connectivity: a pair of
//!   hosts communicates iff some path of live links through live switches
//!   (and relaying hosts) joins them. This is the survivability notion for
//!   general datacenter fabrics, where forwarding is multi-hop (Couto et
//!   al.).
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
//!
//! # One search
//!
//! Both policies are one breadth-first search from `s` over states
//! `(node, layer)`. Under `Transitive` there is one layer and every live
//! link is an edge. Under `OneHostRelay` the graph is unrolled twice:
//! layer 0 leaves `s` across host–switch links and the switch fabric;
//! arriving at a host `g ∉ {s, t}` moves to layer 1 *at `g`* — the
//! gateway — from where the walk again crosses host–switch links and the
//! fabric; any other host met in layer 1 is a dead end (a second relay)
//! and host–host links are no edges at all. Arriving at `t` in either
//! layer succeeds. The predicate is symmetric in `(s, t)`, so "search from
//! `t`" is the same routine with the roles swapped.
//!
//! # Certificates
//!
//! [`ReachEngine::certify`] returns the proof along with the answer:
//!
//! * a [`Certificate::Path`] `P` — the links and transit switches of the
//!   path the search found. The path stays live, and valid under the
//!   policy, for **every** failure set disjoint from `P`.
//! * a [`Certificate::Cut`] `C` — one failed blocker for each edge
//!   leaving the set of states the search reached: the link if it is
//!   failed, otherwise the failed switch at its far end (hosts never
//!   fail). While all of `C` stays failed the reached set cannot grow, so
//!   the pair stays apart under **every** failure set containing `C`. The
//!   search is run from both endpoints and the smaller cut kept: a dead
//!   `t`-link seen from `s` drags in every failed component bordering
//!   whatever `s` still reaches; seen from `t` it is one element.
//!
//! A caller that evaluates many failure sets of one pair (the counting
//! engines' `GraphModel`) keeps a few of each and answers most sets with
//! [`ComponentSet::is_disjoint`] / [`ComponentSet::is_subset`] — certificates
//! are facts about the topology, not about the set that produced them.
//! Soundness is checkable without trusting the search: failing everything
//! but `P` must still connect the pair and failing exactly `C` must not;
//! the tests below evaluate both, exhaustively over small fabrics, against
//! an independent union-find implementation kept for that purpose.

use crate::graph::{ComponentSet, Topology};

/// Which connectivity notion to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reachability {
    /// Connectivity over the whole live subgraph (multi-hop forwarding,
    /// hosts relay freely).
    Transitive,
    /// The DRS notion: a directly shared live switch component, or one
    /// gateway host seeing both endpoints. Host-to-host links (DCell
    /// cross links) are ignored — DRS has no concept of them.
    OneHostRelay,
}

/// What a full search proved about one failure set — and, because it
/// names only the components the proof depends on, about every other
/// failure set the same proof covers (see the module header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Certificate {
    /// The pair is connected, along a path made of these links and
    /// transit switches: every failure set disjoint from it connects the
    /// pair too.
    Path(ComponentSet),
    /// The pair is apart, closed off by these failed components: every
    /// failure set containing them keeps the pair apart too.
    Cut(ComponentSet),
}

/// Marks a search state no search step has reached.
const UNSEEN: [u32; 2] = [u32::MAX; 2];

/// Where an edge of the state graph leads.
#[derive(Clone, Copy)]
enum Step {
    /// To the far endpoint of the pair.
    Goal,
    /// To this search state.
    To(u32),
}

/// One search: from host `from` for host `to`, under `policy`.
#[derive(Clone, Copy)]
struct Query {
    from: usize,
    to: usize,
    policy: Reachability,
}

/// Reusable scratch for repeated pair queries over one topology —
/// allocations must not be per-query.
#[derive(Debug, Clone)]
pub struct ReachEngine<'a> {
    topo: &'a Topology,
    /// Per search state `layer · nodes + node`: the `[state, link]` it was
    /// first reached over, or [`UNSEEN`].
    pred: Vec<[u32; 2]>,
    /// The states reached, in discovery order: the BFS queue and, once a
    /// search has failed, the closed set its cut is read off.
    reached: Vec<u32>,
}

impl<'a> ReachEngine<'a> {
    /// Prepares an engine for `topo`.
    #[must_use]
    pub fn new(topo: &'a Topology) -> Self {
        let states = 2 * topo.nodes();
        ReachEngine {
            topo,
            pred: vec![UNSEEN; states],
            reached: Vec::with_capacity(states),
        }
    }

    /// The topology this engine evaluates.
    #[must_use]
    pub fn topology(&self) -> &'a Topology {
        self.topo
    }

    /// Whether hosts `s` and `t` can communicate with the components in
    /// `failed` down, under `policy`. Any topology size: components beyond
    /// the 256 a [`ComponentSet`] can name simply never fail.
    ///
    /// # Panics
    /// Panics if `s` or `t` is not a host, or if `s == t`.
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
        let query = Query {
            from: s,
            to: t,
            policy,
        };
        self.explore(failed, query).is_some()
    }

    /// [`ReachEngine::pair_connected`] with its proof: the path found, or
    /// the smaller of the two cuts seen from `s` and from `t`.
    ///
    /// `(s, t)` must be a distinct host pair — checked once by whoever
    /// fixes the pair, not here on every failure set.
    ///
    /// # Panics
    /// Panics if the topology has more than the 256 components a
    /// [`ComponentSet`] can name.
    #[must_use]
    pub fn certify(
        &mut self,
        failed: &ComponentSet,
        s: usize,
        t: usize,
        policy: Reachability,
    ) -> Certificate {
        debug_assert!(self.topo.is_host(s) && self.topo.is_host(t) && s != t);
        let [forth, back] = [(s, t), (t, s)].map(|(from, to)| Query { from, to, policy });
        if let Some(arrival) = self.explore(failed, forth) {
            let path = self.path(s, arrival);
            debug_assert!(path.is_disjoint(failed), "a live path avoids failures");
            return Certificate::Path(path);
        }
        let from_s = self.cut(failed, forth);
        let arrival = self.explore(failed, back);
        debug_assert!(arrival.is_none(), "the predicate is symmetric in (s, t)");
        let from_t = self.cut(failed, back);
        let cut = if from_t.len() < from_s.len() {
            from_t
        } else {
            from_s
        };
        debug_assert!(cut.is_subset(failed), "a cut is made of failed parts");
        Certificate::Cut(cut)
    }

    /// Splits search state `layer · nodes + node` into the node and its
    /// layer's offset (`0` or `nodes`).
    #[inline]
    fn node_of(&self, state: u32) -> (usize, usize) {
        let (state, nodes) = (state as usize, self.topo.nodes());
        if state < nodes {
            (state, 0)
        } else {
            (state - nodes, nodes)
        }
    }

    /// The edge of the state graph that link `li` is from `state`, if the
    /// policy has one and it leads out of the reached set — failures
    /// aside — with the node at its far end.
    #[inline]
    fn leaving(&self, state: u32, li: u32, q: Query) -> Option<(Step, usize)> {
        let topo = self.topo;
        let (v, layer) = self.node_of(state);
        let link = topo.links()[li as usize];
        let o = if link.a as usize == v { link.b } else { link.a } as usize;
        let next = if !topo.is_host(o) {
            layer + o
        } else if q.policy == Reachability::OneHostRelay && topo.is_host(v) {
            return None; // host-host link: outside the DRS model
        } else if o == q.to {
            return Some((Step::Goal, o));
        } else {
            match q.policy {
                Reachability::Transitive => o,
                // The one relay: `o` becomes the gateway — unless one is
                // behind us already, or `o` is where we started.
                Reachability::OneHostRelay if layer == 0 && o != q.from => topo.nodes() + o,
                Reachability::OneHostRelay => return None,
            }
        };
        (self.pred[next] == UNSEEN).then_some((Step::To(next as u32), o))
    }

    /// The failed component that closes link `li` towards node `o`: the
    /// link itself, else the switch `o`.
    #[inline]
    fn blocker(&self, failed: &ComponentSet, li: u32, o: usize) -> Option<usize> {
        let link = self.topo.switches() + li as usize;
        if failed.contains(link) {
            return Some(link);
        }
        self.topo
            .switch_of_node(o)
            .filter(|&sw| failed.contains(sw))
    }

    /// Breadth-first search over the live state graph. Returns the
    /// `[state, link]` the goal was entered over; on `None`,
    /// `self.reached` is the closed set of states reached.
    fn explore(&mut self, failed: &ComponentSet, q: Query) -> Option<[u32; 2]> {
        let topo = self.topo;
        self.pred.fill(UNSEEN);
        self.reached.clear();
        self.pred[q.from] = [q.from as u32, u32::MAX];
        self.reached.push(q.from as u32);
        let mut head = 0;
        while let Some(&state) = self.reached.get(head) {
            head += 1;
            for &li in topo.incident_links(self.node_of(state).0) {
                let Some((step, o)) = self.leaving(state, li, q) else {
                    continue;
                };
                if self.blocker(failed, li, o).is_some() {
                    continue;
                }
                match step {
                    Step::Goal => return Some([state, li]),
                    Step::To(next) => {
                        self.pred[next as usize] = [state, li];
                        self.reached.push(next);
                    }
                }
            }
        }
        None
    }

    /// The components of the path a successful [`Self::explore`] from
    /// `from` found: every link walked and every switch walked through.
    fn path(&self, from: usize, arrival: [u32; 2]) -> ComponentSet {
        let topo = self.topo;
        let mut path = ComponentSet::new();
        let [mut state, mut li] = arrival;
        loop {
            path.insert(topo.switches() + li as usize);
            if state as usize == from {
                return path;
            }
            if let Some(sw) = topo.switch_of_node(self.node_of(state).0) {
                path.insert(sw);
            }
            [state, li] = self.pred[state as usize];
        }
    }

    /// The cut a failed [`Self::explore`] proved: one failed blocker per
    /// edge of the state graph that leaves the reached set.
    fn cut(&self, failed: &ComponentSet, q: Query) -> ComponentSet {
        let topo = self.topo;
        let mut cut = ComponentSet::new();
        for &state in &self.reached {
            for &li in topo.incident_links(self.node_of(state).0) {
                if let Some((_, o)) = self.leaving(state, li, q) {
                    let blocker = self.blocker(failed, li, o);
                    cut.insert(blocker.expect("an open edge would have been walked"));
                }
            }
        }
        cut
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

/// The predicates as they were computed before the layered search: two
/// union-find routines, one per policy, sharing nothing with it. Kept as
/// the oracle the search and its certificates are judged against.
#[cfg(test)]
mod oracle {
    use super::Reachability;
    use crate::graph::{ComponentSet, Topology};

    pub struct UnionFind<'a> {
        topo: &'a Topology,
        /// Union-find parent, over all nodes (Transitive) or switches only
        /// (OneHostRelay).
        parent: Vec<u32>,
    }

    impl<'a> UnionFind<'a> {
        pub fn new(topo: &'a Topology) -> Self {
            UnionFind {
                topo,
                parent: vec![0; topo.nodes()],
            }
        }

        pub fn pair_connected(
            &mut self,
            failed: &ComponentSet,
            s: usize,
            t: usize,
            policy: Reachability,
        ) -> bool {
            match policy {
                Reachability::Transitive => self.transitive(failed, s, t),
                Reachability::OneHostRelay => self.one_host_relay(failed, s, t),
            }
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

        /// The live switch-component mask of host `h`: one bit per
        /// union-find root among the switches `h` reaches over a single
        /// live link.
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
            assert!(switches <= 128, "the oracle's root mask is a u128");
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
}

#[cfg(test)]
mod tests {
    use super::oracle::UnionFind;
    use super::*;
    use crate::generators::{bcube, dcell, fat_tree, kplane};
    use crate::graph::Link;

    const POLICIES: [Reachability; 2] = [Reachability::Transitive, Reachability::OneHostRelay];

    fn set(indices: &[usize]) -> ComponentSet {
        ComponentSet::from_indices(indices)
    }

    /// The subset of `0..m` whose members are the set bits of `bits`.
    fn subset(m: usize, bits: u32) -> ComponentSet {
        set(&(0..m).filter(|&i| bits >> i & 1 == 1).collect::<Vec<_>>())
    }

    /// Everything in `0..m` that is not in `keep`.
    fn all_but(m: usize, keep: &ComponentSet) -> ComponentSet {
        set(&(0..m).filter(|&i| !keep.contains(i)).collect::<Vec<_>>())
    }

    #[test]
    fn search_and_certificates_agree_with_the_union_find_oracle_exhaustively() {
        // Every failure set, every host pair, both policies, on one fabric
        // of each shape: planes at K = 2 and at K = 3 (where relay and
        // transitive differ), a switch fabric, host-relayed levels, and
        // host-host links. The certificates are judged by the oracle
        // alone: fail everything but the path and the pair must still
        // connect; fail exactly the cut and it must not.
        for topo in [
            kplane(3, 2),
            kplane(3, 3),
            fat_tree(2),
            bcube(2, 1),
            dcell(2, 1),
        ] {
            let m = topo.component_count();
            assert!(m <= 12, "{topo}: 2^{m} subsets is no unit test");
            let mut eng = ReachEngine::new(&topo);
            let mut oracle = UnionFind::new(&topo);
            for bits in 0u32..1 << m {
                let failed = subset(m, bits);
                for s in 0..topo.hosts() {
                    for t in s + 1..topo.hosts() {
                        for policy in POLICIES {
                            let at = format!("{topo} failed={bits:b} ({s},{t}) {policy:?}");
                            let expected = oracle.pair_connected(&failed, s, t, policy);
                            assert_eq!(eng.pair_connected(&failed, s, t, policy), expected, "{at}");
                            match eng.certify(&failed, s, t, policy) {
                                Certificate::Path(p) => {
                                    assert!(expected, "{at}: path for a cut pair");
                                    assert!(p.is_disjoint(&failed), "{at}: dead path");
                                    assert!(
                                        oracle.pair_connected(&all_but(m, &p), s, t, policy),
                                        "{at}: path {p:?} alone does not connect"
                                    );
                                }
                                Certificate::Cut(c) => {
                                    assert!(!expected, "{at}: cut for a connected pair");
                                    assert!(c.is_subset(&failed), "{at}: cut of live parts");
                                    assert!(
                                        !oracle.pair_connected(&c, s, t, policy),
                                        "{at}: cut {c:?} alone does not separate"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn certify_is_symmetric_and_returns_the_smaller_cut() {
        // Fat-tree(4), far pair, `t`'s only uplink dead plus unrelated
        // damage near `s`: from `s` the cut would name the damage; from
        // `t` it is the one link.
        let topo = fat_tree(4);
        let (s, t) = (0, topo.hosts() - 1);
        let t_link = topo.switches() + topo.incident_links(t)[0] as usize;
        let core = 8 + 8; // first core switch
        let failed = set(&[core, core + 1, t_link]);
        let mut eng = ReachEngine::new(&topo);
        for (a, b) in [(s, t), (t, s)] {
            assert_eq!(
                eng.certify(&failed, a, b, Reachability::Transitive),
                Certificate::Cut(set(&[t_link]))
            );
        }
    }

    #[test]
    fn one_host_relay_has_no_switch_limit() {
        // Two 65-switch chains, s - chain - g - chain - t: 130 switches,
        // where the old root mask (one u128 bit per switch) panicked.
        // With three hosts and no host-host link a simple path relays
        // through at most one host, so the policies must coincide.
        let (hosts, chain) = (3u32, 65u32);
        let (s, t, g) = (0u32, 1u32, 2u32);
        let mut links = Vec::new();
        for (from, to, base) in [(s, g, hosts), (g, t, hosts + chain)] {
            links.push(Link { a: from, b: base });
            for i in 1..chain {
                links.push(Link {
                    a: base + i - 1,
                    b: base + i,
                });
            }
            links.push(Link {
                a: base + chain - 1,
                b: to,
            });
        }
        let topo = Topology::new("chains", "", hosts as usize, 2 * chain as usize, links);
        assert_eq!(topo.switches(), 130);
        let mut eng = ReachEngine::new(&topo);
        let both = |eng: &mut ReachEngine<'_>, failed: &ComponentSet| {
            let [a, b] = POLICIES.map(|p| eng.pair_connected(failed, 0, 1, p));
            assert_eq!(a, b, "policies differ under {failed:?}");
            a
        };
        assert!(both(&mut eng, &set(&[])));
        // A series circuit: every component a failure set can name cuts it.
        for idx in 0..256 {
            assert!(!both(&mut eng, &set(&[idx])), "component {idx}");
        }
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
}
