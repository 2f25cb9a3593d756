//! The DRS connectivity predicate: given a set of failed components, can a
//! pair of servers (or every pair) still communicate?
//!
//! The model is the paper's two-network cluster generalized to `K ≥ 2`
//! planes (`K = 2` everywhere by default). Under DRS routing a frame from
//! `s` reaches `t` iff
//!
//! 1. both are attached to some common live plane (a direct route), or
//! 2. each is attached to *some* live plane, and some node is attached to
//!    both a live plane of `s` and a live plane of `t`, so it can act as a
//!    **one-hop** gateway (the DRS broadcast-discovery repair path).
//!
//! A node is *attached to* plane `p` iff the plane's backplane is alive
//! **and** its own NIC on `p` is alive. Relaying is deliberately not
//! transitive: DRS gateways forward exactly one hop, so two nodes whose
//! planes are only connected through a *chain* of bridges do not
//! communicate — the predicate mirrors the deployed protocol, not graph
//! reachability.
//!
//! The predicate is evaluated on a compact [`ClusterState`] (one 128-bit
//! node mask per plane plus a backplane bitmask) so the Monte-Carlo
//! estimator can test millions of failure draws per second without
//! allocating. [`KPlane`] wraps a state and the [`Question`] asked of it
//! as the bitmask [`FailureModel`] of the counting core; the graph-search
//! [`crate::topo::GraphModel`] is the other model, and on a
//! [`drs_topology::generators::kplane`] topology each is the other's
//! oracle.

use drs_topology::ComponentSet;

use crate::components::FailureModel;

/// Maximum number of network planes the fixed-width [`ClusterState`]
/// supports. Bounded well under the [`ComponentSet`] bitset capacity
/// (`K·N + K ≤ 256`) for any interesting `N`. Shared with every other
/// bitset-backed engine via [`drs_topology::limits`].
pub use drs_topology::limits::MAX_PLANES;

/// Liveness snapshot of a cluster: which NICs and backplanes are up.
///
/// Bit `i` of `nic[p]` is set iff node `i`'s NIC on plane `p` is
/// operational (regardless of backplane state); bit `p` of `bp` is set iff
/// plane `p`'s backplane is operational.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterState {
    /// Number of nodes.
    pub n: usize,
    /// Number of network planes (`2` for the paper's cluster).
    pub planes: u8,
    /// Backplane (hub) liveness bitmask, bit `p` = plane `p` up.
    pub bp: u8,
    /// Per-node NIC liveness per plane.
    pub nic: [u128; MAX_PLANES],
}

impl ClusterState {
    /// A fully-operational `planes`-plane cluster of `n` nodes (`planes`
    /// is 2 for the paper's configuration).
    ///
    /// # Panics
    /// Panics if `n` is 0 or exceeds [`crate::components::MAX_NODES`], if
    /// `planes` is outside
    /// `2..=MAX_PLANES`, or if the `planes·n + planes` components exceed
    /// the [`ComponentSet`] index space (256).
    #[must_use]
    pub fn fully_up_k(n: usize, planes: u8) -> Self {
        let k = planes as usize;
        // The shared validation's Display strings are byte-compatible with
        // the asserts that used to live here.
        if let Err(e) = drs_topology::limits::validate_kplane(n, k) {
            panic!("{e}");
        }
        let full = if n == 128 {
            u128::MAX
        } else {
            (1u128 << n) - 1
        };
        let mut nic = [0u128; MAX_PLANES];
        for plane in &mut nic[..k] {
            *plane = full;
        }
        ClusterState {
            n,
            planes,
            bp: if k == 8 { u8::MAX } else { (1u8 << k) - 1 },
            nic,
        }
    }

    /// Applies a failure set (indexed per [`crate::components`]:
    /// `0..planes` backplanes, then plane-0 NICs, plane-1 NICs, …) to a
    /// fully-up `planes`-plane cluster of `n` nodes.
    #[must_use]
    pub fn from_failures_k(n: usize, planes: u8, failures: &ComponentSet) -> Self {
        let mut st = ClusterState::fully_up_k(n, planes);
        for idx in failures.iter() {
            st.fail_index(idx);
        }
        st
    }

    /// The liveness bit behind dense index `idx` — the analytic layer's one
    /// spelling of the `K·N + K` layout — or `None` past the universe.
    fn locate(&self, idx: usize) -> Option<Slot> {
        let k = self.planes as usize;
        if idx < k {
            Some(Slot::Backplane(idx as u8))
        } else if idx < k + k * self.n {
            let rel = idx - k;
            Some(Slot::Nic {
                plane: (rel / self.n) as u8,
                node: (rel % self.n) as u8,
            })
        } else {
            None
        }
    }

    #[inline]
    fn clear(&mut self, slot: Slot) {
        match slot {
            Slot::Backplane(p) => self.bp &= !(1u8 << p),
            Slot::Nic { plane, node } => self.nic[plane as usize] &= !(1u128 << node),
        }
    }

    #[inline]
    fn set(&mut self, slot: Slot) {
        match slot {
            Slot::Backplane(p) => self.bp |= 1u8 << p,
            Slot::Nic { plane, node } => self.nic[plane as usize] |= 1u128 << node,
        }
    }

    /// Marks the component with dense index `idx` as failed. An index past
    /// the universe names no component and changes nothing, whatever `K`.
    pub fn fail_index(&mut self, idx: usize) {
        if let Some(slot) = self.locate(idx) {
            self.clear(slot);
        }
    }

    /// Marks the component with dense index `idx` as operational again —
    /// the inverse of [`ClusterState::fail_index`], and like it a no-op
    /// past the universe.
    pub fn restore_index(&mut self, idx: usize) {
        if let Some(slot) = self.locate(idx) {
            self.set(slot);
        }
    }

    /// Mask of nodes attached to live plane `p` (zero when the backplane
    /// is down).
    #[inline]
    #[must_use]
    pub fn on(&self, p: usize) -> u128 {
        if self.bp >> p & 1 != 0 {
            self.nic[p]
        } else {
            0
        }
    }

    /// Bitmask of planes node `i` is attached to.
    #[inline]
    #[must_use]
    pub fn attachment(&self, i: usize) -> u8 {
        let mut m = 0u8;
        for p in 0..self.planes as usize {
            m |= (((self.on(p) >> i) & 1) as u8) << p;
        }
        m
    }
}

/// A liveness bit of [`ClusterState`]: one backplane, or one node's NIC on
/// one plane.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Backplane(u8),
    Nic { plane: u8, node: u8 },
}

/// Can nodes `s` and `t` communicate under DRS routing?
///
/// One pass over the planes: `s` reaches `t` iff the nodes sharing a live
/// plane with `s` and those sharing one with `t` intersect. A node in both
/// is a one-hop gateway, and a shared plane puts each endpoint in both
/// sets, so the direct route needs no separate test; a detached endpoint
/// contributes the empty set.
///
/// # Panics
/// Panics if `s` or `t` is out of range or `s == t`.
#[must_use]
pub fn pair_connected_state(st: &ClusterState, s: usize, t: usize) -> bool {
    assert!(
        s < st.n && t < st.n && s != t,
        "invalid pair ({s},{t}) for n={}",
        st.n
    );
    let (mut reach_s, mut reach_t) = (0u128, 0u128);
    for p in 0..st.planes as usize {
        let op = st.on(p);
        if op >> s & 1 != 0 {
            reach_s |= op;
        }
        if op >> t & 1 != 0 {
            reach_t |= op;
        }
    }
    reach_s & reach_t != 0
}

/// Can nodes `s` and `t` communicate, given a failure set over the
/// `planes·n + planes` components of an `n`-node, `planes`-plane cluster?
#[must_use]
pub fn pair_connected_k(n: usize, planes: u8, failures: &ComponentSet, s: usize, t: usize) -> bool {
    pair_connected_state(&ClusterState::from_failures_k(n, planes, failures), s, t)
}

/// Can **every** pair of nodes communicate?
///
/// True iff every node is attached to at least one live plane **and**
/// every pair of attachment profiles present in the cluster is connected
/// — directly (shared plane) or by a one-hop relay.
#[must_use]
pub fn all_pairs_connected_state(st: &ClusterState) -> bool {
    let full = if st.n == 128 {
        u128::MAX
    } else {
        (1u128 << st.n) - 1
    };
    let k = st.planes as usize;
    let mut union = 0u128;
    for p in 0..k {
        union |= st.on(p);
    }
    if union != full {
        return false; // some node is completely detached
    }
    // reach[p]: planes q such that some node is attached to both p and q
    // (includes p itself whenever plane p has any attached node). Two
    // attachment profiles are connected iff one's reach meets the other.
    let mut reach = [0u8; MAX_PLANES];
    for (p, reach_p) in reach.iter_mut().enumerate().take(k) {
        let op = st.on(p);
        if op == 0 {
            continue;
        }
        for q in 0..k {
            if op & st.on(q) != 0 {
                *reach_p |= 1u8 << q;
            }
        }
    }
    // The distinct attachment profiles present among the nodes (at most
    // 2^k − 1 of them; coverage above rules out 0).
    let mut present = [false; 1 << MAX_PLANES];
    let mut profiles: Vec<u8> = Vec::new();
    for i in 0..st.n {
        let m = st.attachment(i);
        if !present[m as usize] {
            present[m as usize] = true;
            profiles.push(m);
        }
    }
    for (i, &ma) in profiles.iter().enumerate() {
        let ra = (0..k)
            .filter(|&p| ma >> p & 1 != 0)
            .fold(0u8, |acc, p| acc | reach[p]);
        for &mb in &profiles[i..] {
            if ma & mb == 0 && ra & mb == 0 {
                return false;
            }
        }
    }
    true
}

/// [`all_pairs_connected_state`] evaluated from a failure set over a
/// `planes`-plane cluster.
#[must_use]
pub fn all_pairs_connected_k(n: usize, planes: u8, failures: &ComponentSet) -> bool {
    all_pairs_connected_state(&ClusterState::from_failures_k(n, planes, failures))
}

/// What a [`KPlane`] model asks of its cluster after each failure set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Question {
    /// Can the pair `(0, 1)` communicate? By symmetry of the component
    /// model every pair has the same count, so the fixed pair loses no
    /// generality.
    Pair,
    /// Can every pair communicate?
    AllPairs,
}

/// The bitmask [`FailureModel`]: a K-plane [`ClusterState`] and the
/// [`Question`] asked of it.
#[derive(Debug, Clone)]
pub struct KPlane {
    pub(crate) state: ClusterState,
    /// The fully-operational state [`FailureModel::reset`] copies back.
    up: ClusterState,
    /// The bit behind every index of the universe, located once here so
    /// that a flip in the walk or the sampler costs no division.
    slots: Box<[Slot]>,
    question: Question,
}

impl KPlane {
    /// A fully-operational `n`-node, `planes`-plane cluster under
    /// `question`.
    ///
    /// # Panics
    /// Panics if `n < 2` or the cluster is out of range (see
    /// [`ClusterState::fully_up_k`]).
    #[must_use]
    pub fn new(n: usize, planes: u8, question: Question) -> Self {
        assert!(n >= 2, "need a pair of nodes");
        let up = ClusterState::fully_up_k(n, planes);
        let k = planes as usize;
        let slots = (0..k * n + k)
            .map(|idx| up.locate(idx).expect("index inside the universe"))
            .collect();
        KPlane {
            state: up,
            up,
            slots,
            question,
        }
    }
}

impl FailureModel for KPlane {
    fn universe(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn fail(&mut self, idx: usize) {
        self.state.clear(self.slots[idx]);
    }

    #[inline]
    fn restore(&mut self, idx: usize) {
        self.state.set(self.slots[idx]);
    }

    #[inline]
    fn reset(&mut self) {
        self.state = self.up;
    }

    #[inline]
    fn holds(&mut self) -> bool {
        match self.question {
            Question::Pair => pair_connected_state(&self.state, 0, 1),
            Question::AllPairs => all_pairs_connected_state(&self.state),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-plane failure sets, spelled by component: backplane `net`, or
    /// node `node`'s NIC on `net`.
    fn bp(net: usize) -> usize {
        net
    }

    fn nic(n: usize, node: usize, net: usize) -> usize {
        2 + net * n + node
    }

    fn fs(indices: &[usize]) -> ComponentSet {
        ComponentSet::from_indices(indices)
    }

    fn pair_connected(n: usize, failures: &ComponentSet, s: usize, t: usize) -> bool {
        pair_connected_k(n, 2, failures, s, t)
    }

    fn all_pairs_connected(n: usize, failures: &ComponentSet) -> bool {
        all_pairs_connected_k(n, 2, failures)
    }

    #[test]
    fn no_failures_everything_connected() {
        for n in 2..=10 {
            assert!(all_pairs_connected(n, &ComponentSet::new()));
            assert!(pair_connected(n, &ComponentSet::new(), 0, n - 1));
        }
    }

    #[test]
    fn single_nic_failure_survivable() {
        let n = 4;
        let f = fs(&[nic(n, 0, 0)]);
        assert!(pair_connected(n, &f, 0, 1));
        assert!(all_pairs_connected(n, &f));
    }

    #[test]
    fn single_backplane_failure_survivable() {
        let n = 4;
        let f = fs(&[bp(0)]);
        assert!(all_pairs_connected(n, &f));
    }

    #[test]
    fn both_backplanes_down_disconnects() {
        let n = 4;
        let f = fs(&[bp(0), bp(1)]);
        assert!(!pair_connected(n, &f, 0, 1));
    }

    #[test]
    fn node_isolated_when_both_nics_fail() {
        let n = 4;
        let f = fs(&[nic(n, 2, 0), nic(n, 2, 1)]);
        assert!(!pair_connected(n, &f, 2, 0));
        assert!(pair_connected(n, &f, 0, 1), "other pairs unaffected");
        assert!(!all_pairs_connected(n, &f));
    }

    #[test]
    fn backplane_plus_opposite_nic_disconnects() {
        // Backplane A down and s's B NIC down: s unreachable.
        let n = 4;
        let f = fs(&[bp(0), nic(n, 0, 1)]);
        assert!(!pair_connected(n, &f, 0, 1));
    }

    #[test]
    fn gateway_relay_saves_crossed_pair() {
        // s lost its B NIC, t lost its A NIC: no shared direct network, but
        // node 2 has both NICs and relays.
        let n = 3;
        let f = fs(&[nic(n, 0, 1), nic(n, 1, 0)]);
        assert!(pair_connected(n, &f, 0, 1));
    }

    #[test]
    fn crossed_pair_without_gateway_fails() {
        // Same as above but the only third node lost a NIC too, so no node
        // bridges both networks.
        let n = 3;
        let f = fs(&[nic(n, 0, 1), nic(n, 1, 0), nic(n, 2, 0)]);
        assert!(!pair_connected(n, &f, 0, 1));
        // ...though 1 and 2 still share network B.
        assert!(pair_connected(n, &f, 1, 2));
    }

    #[test]
    fn endpoint_can_be_its_own_bridge() {
        // s has both NICs; t lost A. They share network B directly, and the
        // bridge formulation must agree.
        let n = 2;
        let f = fs(&[nic(n, 1, 0)]);
        assert!(pair_connected(n, &f, 0, 1));
    }

    #[test]
    fn all_pairs_requires_common_net_without_bridge() {
        // Node 0 on A only, node 1 on A+B, node 2 on B only -> no bridge
        // after also removing node 1's... keep node 1 intact: bridge exists.
        let n = 3;
        let f = fs(&[nic(n, 0, 1), nic(n, 2, 0)]);
        assert!(all_pairs_connected(n, &f), "node 1 bridges");
        // Remove node 1's A NIC: node 0 (A only) vs node 2 (B only), and the
        // only potential bridge is gone.
        let f2 = fs(&[nic(n, 0, 1), nic(n, 2, 0), nic(n, 1, 0)]);
        assert!(!all_pairs_connected(n, &f2));
    }

    #[test]
    fn state_from_failures_matches_manual() {
        let n = 5;
        let mut st = ClusterState::fully_up_k(n, 2);
        st.fail_index(0);
        st.fail_index(2 + n + 3);
        let f = fs(&[bp(0), nic(n, 3, 1)]);
        assert_eq!(st, ClusterState::from_failures_k(n, 2, &f));
    }

    #[test]
    fn fail_index_layout_matches_doc() {
        // The table in `crate::components`, read off the state: backplanes
        // first, then one block of `n` NICs per plane.
        let n = 5;
        let up = ClusterState::fully_up_k(n, 2);
        let after = |idx: usize| {
            let mut st = up;
            st.fail_index(idx);
            st
        };
        assert_eq!(after(0).bp, 0b10);
        assert_eq!(after(1).bp, 0b01);
        for i in 0..n {
            assert_eq!(after(2 + i).nic[0], up.nic[0] & !(1 << i), "node {i} net A");
            assert_eq!(
                after(2 + n + i).nic[1],
                up.nic[1] & !(1 << i),
                "node {i} net B"
            );
            assert_eq!(after(2 + i).nic[1], up.nic[1]);
            assert_eq!(after(2 + n + i).bp, up.bp);
        }
    }

    #[test]
    #[should_panic(expected = "invalid pair")]
    fn same_node_pair_panics() {
        let st = ClusterState::fully_up_k(4, 2);
        let _ = pair_connected_state(&st, 1, 1);
    }

    #[test]
    fn restore_inverts_fail() {
        for planes in [2u8, 3, 5] {
            let n = 6;
            let k = planes as usize;
            for idx in 0..k * n + k {
                let mut st = ClusterState::fully_up_k(n, planes);
                st.fail_index(idx);
                assert_ne!(st, ClusterState::fully_up_k(n, planes), "idx={idx}");
                st.restore_index(idx);
                assert_eq!(st, ClusterState::fully_up_k(n, planes), "idx={idx}");
            }
        }
    }

    #[test]
    fn max_nodes_cluster_works() {
        let n = crate::components::MAX_NODES;
        let st = ClusterState::fully_up_k(n, 2);
        assert!(pair_connected_state(&st, 0, n - 1));
        assert!(all_pairs_connected_state(&st));
    }

    #[test]
    fn third_plane_survives_two_dead_backplanes() {
        // K = 3, backplanes 0 and 1 down: everything still flows on plane 2.
        let n = 4;
        let mut st = ClusterState::fully_up_k(n, 3);
        st.fail_index(0);
        st.fail_index(1);
        assert!(pair_connected_state(&st, 0, 3));
        assert!(all_pairs_connected_state(&st));
        // Killing the last backplane disconnects everyone.
        st.fail_index(2);
        assert!(!pair_connected_state(&st, 0, 3));
        assert!(!all_pairs_connected_state(&st));
    }

    #[test]
    fn relay_is_one_hop_not_transitive() {
        // K = 3, n = 4: node 0 on plane 0 only, node 1 on plane 2 only,
        // node 2 bridges planes 0+1, node 3 bridges planes 1+2. Plane 0
        // and plane 2 are only connected through a chain of two bridges,
        // which DRS's one-hop relay cannot use.
        let n = 4;
        let mut st = ClusterState::fully_up_k(n, 3);
        let k = 3;
        let nic = |node: usize, plane: usize| k + plane * n + node;
        st.fail_index(nic(0, 1));
        st.fail_index(nic(0, 2));
        st.fail_index(nic(1, 0));
        st.fail_index(nic(1, 1));
        st.fail_index(nic(2, 2));
        st.fail_index(nic(3, 0));
        assert_eq!(st.attachment(0), 0b001);
        assert_eq!(st.attachment(1), 0b100);
        assert_eq!(st.attachment(2), 0b011);
        assert_eq!(st.attachment(3), 0b110);
        assert!(!pair_connected_state(&st, 0, 1), "needs two hops");
        assert!(pair_connected_state(&st, 0, 3), "one hop via node 2");
        assert!(pair_connected_state(&st, 2, 3), "shared plane 1");
        assert!(!all_pairs_connected_state(&st));
    }

    /// The plane-pair formulation the O(K) predicate replaced: attachment
    /// profiles first, then every (plane of `s`, plane of `t`) pair tested
    /// for a common node — O(K²) mask intersections.
    fn pair_connected_by_plane_pairs(st: &ClusterState, s: usize, t: usize) -> bool {
        let (ms, mt) = (st.attachment(s), st.attachment(t));
        if ms & mt != 0 {
            return true;
        }
        if ms == 0 || mt == 0 {
            return false;
        }
        let k = st.planes as usize;
        for p in 0..k {
            if ms >> p & 1 == 0 {
                continue;
            }
            let op = st.on(p);
            for q in 0..k {
                if mt >> q & 1 != 0 && op & st.on(q) != 0 {
                    return true;
                }
            }
        }
        false
    }

    #[test]
    fn pair_predicate_matches_the_plane_pair_oracle() {
        // Every liveness state of every n ≤ 4, K ≤ 4 cluster (bit `p` of
        // `bits` is backplane `p`, then one n-bit NIC block per plane) and
        // every ordered pair.
        for planes in 2u8..=4 {
            let k = planes as usize;
            for n in 2..=4usize {
                let full = (1u128 << n) - 1;
                for bits in 0u128..1 << (k + k * n) {
                    let mut st = ClusterState::fully_up_k(n, planes);
                    st.bp = (bits & ((1 << k) - 1)) as u8;
                    for p in 0..k {
                        st.nic[p] = bits >> (k + p * n) & full;
                    }
                    for s in 0..n {
                        for t in (0..n).filter(|&t| t != s) {
                            assert_eq!(
                                pair_connected_state(&st, s, t),
                                pair_connected_by_plane_pairs(&st, s, t),
                                "K={k} n={n} bits={bits:b} pair=({s},{t})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn kplane_flips_equal_the_index_layout() {
        // Fail every index in turn, then restore them in turn: the model's
        // located slots and `fail_index`/`restore_index` agree at every
        // step, at every plane count.
        for (n, planes) in [(5usize, 2u8), (4, 3), (7, 5), (3, 8), (31, 8)] {
            let mut model = KPlane::new(n, planes, Question::Pair);
            let mut st = ClusterState::fully_up_k(n, planes);
            let m = model.universe();
            assert_eq!(m, planes as usize * (n + 1));
            for idx in 0..m {
                model.fail(idx);
                st.fail_index(idx);
                assert_eq!(model.state, st, "fail n={n} K={planes} idx={idx}");
            }
            for idx in 0..m {
                model.restore(idx);
                st.restore_index(idx);
                assert_eq!(model.state, st, "restore n={n} K={planes} idx={idx}");
            }
            assert_eq!(st, ClusterState::fully_up_k(n, planes));
        }
    }

    #[test]
    fn generalized_predicates_match_legacy_at_k2() {
        // Exhaustive over every failure subset of a small cluster: the
        // K-general code path at planes=2 must agree with the paper's
        // two-network formulation, expressed directly.
        let n = 3;
        let m = 2 * n + 2;
        for bits in 0u32..1 << m {
            let mut st = ClusterState::fully_up_k(n, 2);
            for idx in 0..m {
                if bits >> idx & 1 != 0 {
                    st.fail_index(idx);
                }
            }
            let full = (1u128 << n) - 1;
            let (a, b) = (st.on(0), st.on(1));
            let legacy_pair = |s: usize, t: usize| {
                let (sa, sb) = (a >> s & 1 != 0, b >> s & 1 != 0);
                let (ta, tb) = (a >> t & 1 != 0, b >> t & 1 != 0);
                (sa && ta) || (sb && tb) || (a & b != 0 && (sa || sb) && (ta || tb))
            };
            for s in 0..n {
                for t in 0..n {
                    if s != t {
                        assert_eq!(
                            pair_connected_state(&st, s, t),
                            legacy_pair(s, t),
                            "bits={bits:b} pair=({s},{t})"
                        );
                    }
                }
            }
            let legacy_all = (a | b == full) && (a & b != 0 || a == full || b == full);
            assert_eq!(all_pairs_connected_state(&st), legacy_all, "bits={bits:b}");
        }
    }
}
