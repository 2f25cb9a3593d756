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
//! The predicate is evaluated on a compact [`ClusterState`]: one `u128`
//! word per plane, whose bits `0..n` are the plane's NICs and whose bit
//! 127 is its backplane (free because `n ≤ MAX_NODES = 127`). Failing or
//! restoring a component is one AND or one OR of a precomputed mask into
//! one word, a dead backplane zeroes its plane with one arithmetic shift,
//! and the pair question is a branch-free pass over the words — so the
//! subset walk and the Monte-Carlo estimator test tens of millions of
//! failure sets per second without allocating. [`KPlane`] wraps a state and the
//! [`Question`] asked of it as the bitmask [`FailureModel`] of the
//! counting core; the graph-search [`crate::topo::GraphModel`] is the
//! other model, and on a [`drs_topology::generators::kplane`] topology
//! each is the other's oracle.

use drs_topology::ComponentSet;

use crate::components::{FailureModel, MAX_NODES};

/// Maximum number of network planes the fixed-width [`ClusterState`]
/// supports. Bounded well under the [`ComponentSet`] bitset capacity
/// (`K·N + K ≤ 256`) for any interesting `N`. Shared with every other
/// bitset-backed engine via [`drs_topology::limits`].
pub use drs_topology::limits::MAX_PLANES;

// A plane's backplane is bit 127 of its word, above every node's NIC.
const _: () = assert!(MAX_NODES < 128);

/// Liveness snapshot of a cluster: which NICs and backplanes are up, one
/// word per plane.
///
/// Bit `i < n` of `words[p]` is set iff node `i`'s NIC on plane `p` is
/// operational (regardless of backplane state), and bit 127
/// ([`ClusterState::BACKPLANE`]) iff plane `p`'s backplane is. Bits
/// `n..127`, and the words of planes `planes..MAX_PLANES`, are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterState {
    /// Number of nodes.
    pub n: usize,
    /// Number of network planes (`2` for the paper's cluster).
    pub planes: u8,
    /// Per-plane liveness: NICs in bits `0..n`, the backplane in bit 127.
    pub words: [u128; MAX_PLANES],
}

/// A liveness bit of [`ClusterState`]: `(plane, mask)`, the index of its
/// word and the word with only that bit set.
type Bit = (usize, u128);

impl ClusterState {
    /// The backplane bit of a plane's word.
    pub const BACKPLANE: u128 = 1 << 127;

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
        // The shared validation's Display strings are byte-compatible with
        // the asserts that used to live here.
        if let Err(e) = drs_topology::limits::validate_kplane(n, planes as usize) {
            panic!("{e}");
        }
        let mut words = [0u128; MAX_PLANES];
        words[..planes as usize].fill(Self::BACKPLANE | ((1u128 << n) - 1));
        ClusterState { n, planes, words }
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
    fn locate(&self, idx: usize) -> Option<Bit> {
        let k = self.planes as usize;
        if idx < k {
            Some((idx, Self::BACKPLANE))
        } else if idx < k + k * self.n {
            let rel = idx - k;
            Some((rel / self.n, 1 << (rel % self.n)))
        } else {
            None
        }
    }

    #[inline]
    fn clear(&mut self, (plane, mask): Bit) {
        self.words[plane] &= !mask;
    }

    #[inline]
    fn set(&mut self, (plane, mask): Bit) {
        self.words[plane] |= mask;
    }

    /// Marks the component with dense index `idx` as failed. An index past
    /// the universe names no component and changes nothing, whatever `K`.
    pub fn fail_index(&mut self, idx: usize) {
        if let Some(bit) = self.locate(idx) {
            self.clear(bit);
        }
    }

    /// Marks the component with dense index `idx` as operational again —
    /// the inverse of [`ClusterState::fail_index`], and like it a no-op
    /// past the universe.
    pub fn restore_index(&mut self, idx: usize) {
        if let Some(bit) = self.locate(idx) {
            self.set(bit);
        }
    }

    /// Mask of nodes attached to live plane `p` (zero when the backplane
    /// is down).
    #[inline]
    #[must_use]
    pub fn on(&self, p: usize) -> u128 {
        live(self.words[p]) & !Self::BACKPLANE
    }
}

/// A plane's word if its backplane is up, else zero: bit 127 is the sign
/// bit, and the arithmetic shift spreads it over the whole word.
#[inline]
fn live(word: u128) -> u128 {
    word & ((word as i128) >> 127) as u128
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
    reaches(&st.words[..st.planes as usize], s, t)
}

/// [`pair_connected_state`]'s pass over the plane words, without a
/// branch: a live plane joins `s`'s reach set iff `s`'s bit is in it.
#[inline]
fn reaches(words: &[u128], s: usize, t: usize) -> bool {
    let (mut reach_s, mut reach_t) = (0u128, 0u128);
    for &word in words {
        let op = live(word);
        reach_s |= op & (op >> s & 1).wrapping_neg();
        reach_t |= op & (op >> t & 1).wrapping_neg();
    }
    // Both sets hold bit 127 once each endpoint sits on a live plane;
    // only a node's bit is a gateway.
    (reach_s & reach_t) << 1 != 0
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
    let k = st.planes as usize;
    let on: [u128; MAX_PLANES] = std::array::from_fn(|p| st.on(p));
    if on.iter().fold(0, |union, &op| union | op) != (1u128 << st.n) - 1 {
        return false; // some node is completely detached
    }
    // reach[p]: planes q such that some node is attached to both p and q
    // (includes p itself whenever plane p has any attached node). Two
    // attachment profiles are connected iff one's reach meets the other.
    let mut reach = [0u8; MAX_PLANES];
    for (p, reach_p) in reach.iter_mut().enumerate().take(k) {
        for q in 0..k {
            *reach_p |= u8::from(on[p] & on[q] != 0) << q;
        }
    }
    // The distinct attachment profiles present among the nodes (at most
    // 2^k − 1 of them; coverage above rules out 0), in fixed arrays.
    let mut present = [false; 1 << MAX_PLANES];
    let mut profiles = [0u8; 1 << MAX_PLANES];
    let mut len = 0;
    for i in 0..st.n {
        let m = (0..k).fold(0u8, |m, p| m | ((on[p] >> i & 1) as u8) << p);
        if !present[m as usize] {
            present[m as usize] = true;
            profiles[len] = m;
            len += 1;
        }
    }
    let profiles = &profiles[..len];
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
    /// The fully-operational words [`FailureModel::reset`] copies back.
    up: [u128; MAX_PLANES],
    /// The `(plane, mask)` behind every index of the universe, located
    /// once here so that a flip in the walk or the sampler is one AND or OR
    /// with a loaded mask. A mask rather than a bit number: the compiler
    /// narrows `word &= !(1 << bit)` to a one- or four-byte store, which
    /// the predicate's eight-byte loads of the same word must then wait
    /// out (walk steps and draws measured 5–10 % slower that way).
    bits: Box<[Bit]>,
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
        let bits = (0..k * n + k)
            .map(|idx| up.locate(idx).expect("index inside the universe"))
            .collect();
        KPlane {
            state: up,
            up: up.words,
            bits,
            question,
        }
    }
}

impl FailureModel for KPlane {
    fn universe(&self) -> usize {
        self.bits.len()
    }

    #[inline]
    fn fail(&mut self, idx: usize) {
        self.state.clear(self.bits[idx]);
    }

    #[inline]
    fn restore(&mut self, idx: usize) {
        self.state.set(self.bits[idx]);
    }

    #[inline]
    fn reset(&mut self) {
        self.state.words = self.up;
    }

    #[inline]
    fn holds(&mut self) -> bool {
        match self.question {
            Question::Pair => reaches(&self.state.words[..self.state.planes as usize], 0, 1),
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
        // Each plane's word holds its NICs in bits `0..n` and its
        // backplane in bit 127.
        let n = 5;
        let up = ClusterState::fully_up_k(n, 2);
        assert_eq!(up.words[..2], [ClusterState::BACKPLANE | 0b1_1111; 2]);
        assert!(up.words[2..].iter().all(|&w| w == 0));
        let after = |idx: usize| {
            let mut st = up;
            st.fail_index(idx);
            st.words
        };
        let bp = ClusterState::BACKPLANE;
        assert_eq!(after(0)[..2], [up.words[0] & !bp, up.words[1]]);
        assert_eq!(after(1)[..2], [up.words[0], up.words[1] & !bp]);
        for i in 0..n {
            let nic = 1u128 << i;
            assert_eq!(
                after(2 + i)[..2],
                [up.words[0] & !nic, up.words[1]],
                "node {i} net A"
            );
            assert_eq!(
                after(2 + n + i)[..2],
                [up.words[0], up.words[1] & !nic],
                "node {i} net B"
            );
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
        let attachment = |i: usize| (0..k).fold(0, |m, p| m | (st.on(p) >> i & 1) << p);
        assert_eq!(attachment(0), 0b001);
        assert_eq!(attachment(1), 0b100);
        assert_eq!(attachment(2), 0b011);
        assert_eq!(attachment(3), 0b110);
        assert!(!pair_connected_state(&st, 0, 1), "needs two hops");
        assert!(pair_connected_state(&st, 0, 3), "one hop via node 2");
        assert!(pair_connected_state(&st, 2, 3), "shared plane 1");
        assert!(!all_pairs_connected_state(&st));
    }

    /// The layout the packed words replaced, kept as the oracles'
    /// independent spelling: a backplane mask (bit `p` is plane `p`) and one
    /// NIC mask per plane, with its own reading of the index layout.
    #[derive(Debug, Clone, Copy)]
    struct Unpacked {
        n: usize,
        k: usize,
        bp: u8,
        nic: [u128; MAX_PLANES],
    }

    impl Unpacked {
        fn up(n: usize, planes: u8) -> Self {
            let k = planes as usize;
            let mut nic = [0; MAX_PLANES];
            nic[..k].fill((1u128 << n) - 1);
            let bp = ((1u16 << k) - 1) as u8;
            Unpacked { n, k, bp, nic }
        }

        /// Sets component `idx` to `alive`: backplanes first, then one
        /// block of `n` NICs per plane.
        fn set(&mut self, idx: usize, alive: bool) {
            if idx < self.k {
                self.bp = self.bp & !(1 << idx) | u8::from(alive) << idx;
            } else {
                let (p, i) = ((idx - self.k) / self.n, (idx - self.k) % self.n);
                self.nic[p] = self.nic[p] & !(1 << i) | u128::from(alive) << i;
            }
        }

        fn packed(&self) -> ClusterState {
            let mut words = [0; MAX_PLANES];
            for (p, word) in words.iter_mut().enumerate().take(self.k) {
                let bp = if self.bp >> p & 1 != 0 {
                    ClusterState::BACKPLANE
                } else {
                    0
                };
                *word = self.nic[p] | bp;
            }
            ClusterState {
                n: self.n,
                planes: self.k as u8,
                words,
            }
        }

        fn on(&self, p: usize) -> u128 {
            if self.bp >> p & 1 != 0 {
                self.nic[p]
            } else {
                0
            }
        }

        /// The plane-pair formulation the O(K) predicate replaced:
        /// attachment profiles first, then every (plane of `s`, plane of
        /// `t`) pair tested for a common node — O(K²) mask intersections.
        fn pair(&self, s: usize, t: usize) -> bool {
            let attachment = |i: usize| (0..self.k).filter(move |&p| self.on(p) >> i & 1 != 0);
            attachment(s).any(|p| attachment(t).any(|q| p == q || self.on(p) & self.on(q) != 0))
        }

        /// Every pair, one at a time.
        fn all_pairs(&self) -> bool {
            (0..self.n).all(|s| (s + 1..self.n).all(|t| self.pair(s, t)))
        }

        fn answer(&self, question: Question) -> bool {
            match question {
                Question::Pair => self.pair(0, 1),
                Question::AllPairs => self.all_pairs(),
            }
        }
    }

    #[test]
    fn pair_predicate_matches_the_plane_pair_oracle() {
        // Every liveness state of every n ≤ 4, K ≤ 4 cluster (bit `p` of
        // `bits` is backplane `p`, then one n-bit NIC block per plane),
        // packed into plane words: every ordered pair, and all pairs.
        for planes in 2u8..=4 {
            let k = planes as usize;
            for n in 2..=4usize {
                let full = (1u128 << n) - 1;
                for bits in 0u128..1 << (k + k * n) {
                    let mut old = Unpacked::up(n, planes);
                    old.bp = (bits & ((1 << k) - 1)) as u8;
                    for p in 0..k {
                        old.nic[p] = bits >> (k + p * n) & full;
                    }
                    let st = old.packed();
                    for s in 0..n {
                        for t in (0..n).filter(|&t| t != s) {
                            assert_eq!(
                                pair_connected_state(&st, s, t),
                                old.pair(s, t),
                                "K={k} n={n} bits={bits:b} pair=({s},{t})"
                            );
                        }
                    }
                    assert_eq!(
                        all_pairs_connected_state(&st),
                        old.all_pairs(),
                        "K={k} n={n} bits={bits:b} all pairs"
                    );
                }
            }
        }
    }

    #[test]
    fn kplane_flips_equal_the_index_layout() {
        // Fail every index in turn, then restore them in turn: the model's
        // located bits, `fail_index`/`restore_index` and the unpacked
        // layout agree at every step, at every plane count up to the
        // 256-component universes (31, 8) and (127, 2), and so do both
        // questions' answers.
        for (n, planes) in [(5usize, 2u8), (4, 3), (7, 5), (3, 8), (31, 8), (127, 2)] {
            for question in [Question::Pair, Question::AllPairs] {
                let mut model = KPlane::new(n, planes, question);
                let mut st = ClusterState::fully_up_k(n, planes);
                let mut old = Unpacked::up(n, planes);
                let m = model.universe();
                assert_eq!(m, planes as usize * (n + 1));
                let steps = (0..m)
                    .map(|idx| (idx, false))
                    .chain((0..m).map(|idx| (idx, true)));
                for (idx, alive) in steps {
                    if alive {
                        model.restore(idx);
                        st.restore_index(idx);
                    } else {
                        model.fail(idx);
                        st.fail_index(idx);
                    }
                    old.set(idx, alive);
                    let at = format!("n={n} K={planes} idx={idx} alive={alive}");
                    assert_eq!(model.state, st, "{at}");
                    assert_eq!(st, old.packed(), "{at}");
                    assert_eq!(model.holds(), old.answer(question), "{question:?} {at}");
                }
                assert_eq!(st, ClusterState::fully_up_k(n, planes));
            }
        }
    }

    #[test]
    fn kplane_answers_the_oracle_on_drawn_failure_sets() {
        // The Monte-Carlo path (fail the drawn set, ask, reset) on the
        // largest clusters, where the walk above only sees nested prefixes
        // of the universe.
        let mut rng = drs_obs::rng::Rng::seed_from_u64(42);
        for (n, planes) in [(127usize, 2u8), (31, 8), (9, 5)] {
            for question in [Question::Pair, Question::AllPairs] {
                let mut model = KPlane::new(n, planes, question);
                let m = model.universe();
                for f in 1..=8 {
                    for _ in 0..40 {
                        let mut old = Unpacked::up(n, planes);
                        for idx in crate::montecarlo::sample_failures(m, f, &mut rng).iter() {
                            model.fail(idx);
                            old.set(idx, false);
                        }
                        assert_eq!(model.state, old.packed(), "n={n} K={planes} f={f}");
                        assert_eq!(
                            model.holds(),
                            old.answer(question),
                            "{question:?} n={n} K={planes} f={f}"
                        );
                        model.reset();
                    }
                }
            }
        }
    }

    #[test]
    fn generalized_predicates_match_legacy_at_k2() {
        // Exhaustive over every failure subset of a small cluster: the
        // K-general code path at planes=2 — the packed state built by
        // `fail_index`, and the model flipped through its located bits —
        // must agree with the paper's two-network formulation, expressed
        // directly on the subset's bits.
        let n = 3;
        let m = 2 * n + 2;
        let full = (1u128 << n) - 1;
        let mut pair_model = KPlane::new(n, 2, Question::Pair);
        let mut all_model = KPlane::new(n, 2, Question::AllPairs);
        for bits in 0u32..1 << m {
            let mut st = ClusterState::fully_up_k(n, 2);
            for idx in (0..m).filter(|&idx| bits >> idx & 1 != 0) {
                st.fail_index(idx);
                pair_model.fail(idx);
                all_model.fail(idx);
            }
            // Networks A and B: a node is on a network iff its hub and its
            // NIC there are both up.
            let net = |p: u32| {
                let hub_up = bits >> p & 1 == 0;
                let nics_up = !u128::from(bits >> (2 + p as usize * n)) & full;
                if hub_up {
                    nics_up
                } else {
                    0
                }
            };
            let (a, b) = (net(0), net(1));
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
            assert_eq!(pair_model.holds(), legacy_pair(0, 1), "model bits={bits:b}");
            assert_eq!(all_model.holds(), legacy_all, "model bits={bits:b}");
            pair_model.reset();
            all_model.reset();
        }
    }
}
