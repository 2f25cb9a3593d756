//! Phase 1 of the DRS run process: the per-peer link state table.
//!
//! For every monitored peer the daemon tracks one link per network plane
//! (the paper's two; `K` in general), each either `Up` or `Down`. Probes
//! that time out accumulate
//! *consecutive misses*; crossing the configured threshold flips the link
//! to `Down`. Any answered probe resets the count and flips it back `Up`.
//! This module is pure state-machine bookkeeping; the daemon drives it
//! from probe timers and echo replies.

use crate::ids::{NetId, NodeId};
use crate::time::SimTime;

/// The daemon's belief about one `(peer, network)` link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    /// Probes are being answered.
    Up,
    /// `miss_threshold` consecutive probes went unanswered.
    Down,
}

/// Per-link bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkInfo {
    /// Current believed state.
    pub state: LinkState,
    /// Consecutive unanswered probes.
    pub misses: u32,
    /// Sequence number of the probe currently awaiting a reply, if any.
    pub pending_seq: Option<u32>,
    /// When the last reply was heard (`None` before the first).
    pub last_seen: Option<SimTime>,
}

impl Default for LinkInfo {
    fn default() -> Self {
        LinkInfo {
            state: LinkState::Up, // optimistic start, as deployed
            misses: 0,
            pending_seq: None,
            last_seen: None,
        }
    }
}

/// What a probe result did to the link state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// No state change.
    None,
    /// The link just flipped `Up → Down`.
    WentDown,
    /// The link just flipped `Down → Up`.
    WentUp,
}

/// The full link-state table of one daemon: `(peer, net) → LinkInfo`.
#[derive(Debug, Clone)]
pub struct PeerTable {
    owner: NodeId,
    n: usize,
    planes: u8,
    links: Vec<Vec<LinkInfo>>,
}

impl PeerTable {
    /// A table for daemon `owner` monitoring all other hosts of an
    /// `n`-host, `planes`-plane cluster.
    ///
    /// # Panics
    /// Panics if `planes < 2` — DRS requires a redundant network.
    #[must_use]
    pub fn new(owner: NodeId, n: usize, planes: u8) -> Self {
        assert!(planes >= 2, "DRS monitors a redundant cluster (K >= 2)");
        PeerTable {
            owner,
            n,
            planes,
            links: vec![vec![LinkInfo::default(); planes as usize]; n],
        }
    }

    /// The number of network planes this table monitors.
    #[must_use]
    pub fn planes(&self) -> u8 {
        self.planes
    }

    /// The monitored peers, in id order (everyone but the owner).
    pub fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        let owner = self.owner;
        (0..self.n as u32).map(NodeId).filter(move |&p| p != owner)
    }

    /// Number of monitored peers.
    #[must_use]
    pub fn peer_count(&self) -> usize {
        self.n - 1
    }

    /// Link bookkeeping for `(peer, net)`.
    ///
    /// # Panics
    /// Panics if `peer` is the owner or out of range.
    #[must_use]
    pub fn link(&self, peer: NodeId, net: NetId) -> &LinkInfo {
        assert_ne!(peer, self.owner, "no link to self");
        &self.links[peer.idx()][net.idx()]
    }

    fn link_mut(&mut self, peer: NodeId, net: NetId) -> &mut LinkInfo {
        assert_ne!(peer, self.owner, "no link to self");
        &mut self.links[peer.idx()][net.idx()]
    }

    /// Convenience: the believed state of `(peer, net)`.
    #[must_use]
    pub fn state(&self, peer: NodeId, net: NetId) -> LinkState {
        self.link(peer, net).state
    }

    /// Whether every plane's link to `peer` is believed down.
    #[must_use]
    pub fn peer_unreachable_direct(&self, peer: NodeId) -> bool {
        NetId::planes(self.planes).all(|net| self.state(peer, net) == LinkState::Down)
    }

    /// The lowest-numbered plane whose link to `peer` is believed up —
    /// the "next healthy plane" a failover moves to. `None` when the peer
    /// is directly unreachable on every plane.
    #[must_use]
    pub fn first_up(&self, peer: NodeId) -> Option<NetId> {
        NetId::planes(self.planes).find(|&net| self.state(peer, net) == LinkState::Up)
    }

    /// Records that a probe with `seq` was sent on `(peer, net)`.
    pub fn probe_sent(&mut self, peer: NodeId, net: NetId, seq: u32) {
        self.link_mut(peer, net).pending_seq = Some(seq);
    }

    /// Processes an echo reply. Replies that match no pending probe
    /// (stale or duplicate) still prove liveness and are treated as
    /// successes — ICMP is idempotent evidence.
    pub fn reply_received(&mut self, peer: NodeId, net: NetId, at: SimTime) -> Transition {
        let link = self.link_mut(peer, net);
        link.pending_seq = None;
        link.misses = 0;
        link.last_seen = Some(at);
        if link.state == LinkState::Down {
            link.state = LinkState::Up;
            Transition::WentUp
        } else {
            Transition::None
        }
    }

    /// Processes a probe timeout for `seq`. Returns the resulting
    /// transition; a timeout for anything but the currently pending probe
    /// is stale and ignored.
    pub fn probe_timed_out(
        &mut self,
        peer: NodeId,
        net: NetId,
        seq: u32,
        miss_threshold: u32,
    ) -> Transition {
        let link = self.link_mut(peer, net);
        if link.pending_seq != Some(seq) {
            return Transition::None; // answered in the meantime, or stale
        }
        link.pending_seq = None;
        link.misses += 1;
        if link.state == LinkState::Up && link.misses >= miss_threshold {
            link.state = LinkState::Down;
            Transition::WentDown
        } else {
            Transition::None
        }
    }

    /// Number of links currently believed down.
    #[must_use]
    pub fn down_count(&self) -> usize {
        self.peers()
            .map(|p| {
                NetId::planes(self.planes)
                    .filter(|&net| self.state(p, net) == LinkState::Down)
                    .count()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PeerTable {
        PeerTable::new(NodeId(0), 4, 2)
    }

    #[test]
    fn starts_optimistic() {
        let t = table();
        assert_eq!(t.peer_count(), 3);
        for p in t.peers() {
            assert_eq!(t.state(p, NetId::A), LinkState::Up);
            assert_eq!(t.state(p, NetId::B), LinkState::Up);
        }
        assert_eq!(t.down_count(), 0);
    }

    #[test]
    fn peers_excludes_owner() {
        let t = PeerTable::new(NodeId(2), 4, 2);
        let peers: Vec<_> = t.peers().collect();
        assert_eq!(peers, vec![NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn threshold_misses_flip_down_once() {
        let mut t = table();
        t.probe_sent(NodeId(1), NetId::A, 1);
        assert_eq!(
            t.probe_timed_out(NodeId(1), NetId::A, 1, 2),
            Transition::None,
            "first miss below threshold"
        );
        t.probe_sent(NodeId(1), NetId::A, 2);
        assert_eq!(
            t.probe_timed_out(NodeId(1), NetId::A, 2, 2),
            Transition::WentDown
        );
        t.probe_sent(NodeId(1), NetId::A, 3);
        assert_eq!(
            t.probe_timed_out(NodeId(1), NetId::A, 3, 2),
            Transition::None,
            "already down"
        );
        assert_eq!(t.down_count(), 1);
    }

    #[test]
    fn reply_resets_miss_count() {
        let mut t = table();
        t.probe_sent(NodeId(1), NetId::A, 1);
        let _ = t.probe_timed_out(NodeId(1), NetId::A, 1, 3);
        t.probe_sent(NodeId(1), NetId::A, 2);
        assert_eq!(
            t.reply_received(NodeId(1), NetId::A, SimTime(5)),
            Transition::None
        );
        assert_eq!(t.link(NodeId(1), NetId::A).misses, 0);
        assert_eq!(t.link(NodeId(1), NetId::A).last_seen, Some(SimTime(5)));
    }

    #[test]
    fn recovery_transition() {
        let mut t = table();
        for seq in 1..=2 {
            t.probe_sent(NodeId(3), NetId::B, seq);
            let _ = t.probe_timed_out(NodeId(3), NetId::B, seq, 2);
        }
        assert_eq!(t.state(NodeId(3), NetId::B), LinkState::Down);
        assert_eq!(
            t.reply_received(NodeId(3), NetId::B, SimTime(9)),
            Transition::WentUp
        );
        assert_eq!(t.state(NodeId(3), NetId::B), LinkState::Up);
    }

    #[test]
    fn stale_timeout_ignored() {
        let mut t = table();
        t.probe_sent(NodeId(1), NetId::A, 7);
        let _ = t.reply_received(NodeId(1), NetId::A, SimTime(1));
        // The timeout for seq 7 fires after the reply: no effect.
        assert_eq!(
            t.probe_timed_out(NodeId(1), NetId::A, 7, 1),
            Transition::None
        );
        assert_eq!(t.link(NodeId(1), NetId::A).misses, 0);
    }

    #[test]
    fn timeout_for_wrong_seq_ignored() {
        let mut t = table();
        t.probe_sent(NodeId(1), NetId::A, 8);
        assert_eq!(
            t.probe_timed_out(NodeId(1), NetId::A, 7, 1),
            Transition::None
        );
        assert_eq!(t.link(NodeId(1), NetId::A).pending_seq, Some(8));
    }

    #[test]
    fn unreachable_requires_both_nets_down() {
        let mut t = table();
        t.probe_sent(NodeId(1), NetId::A, 1);
        let _ = t.probe_timed_out(NodeId(1), NetId::A, 1, 1);
        assert!(!t.peer_unreachable_direct(NodeId(1)));
        assert_eq!(t.first_up(NodeId(1)), Some(NetId::B));
        t.probe_sent(NodeId(1), NetId::B, 2);
        let _ = t.probe_timed_out(NodeId(1), NetId::B, 2, 1);
        assert!(t.peer_unreachable_direct(NodeId(1)));
        assert_eq!(t.first_up(NodeId(1)), None);
    }

    #[test]
    fn three_plane_unreachable_requires_all_planes_down() {
        let mut t = PeerTable::new(NodeId(0), 3, 3);
        for (seq, net) in [(1, NetId::A), (2, NetId::B)] {
            t.probe_sent(NodeId(1), net, seq);
            let _ = t.probe_timed_out(NodeId(1), net, seq, 1);
        }
        assert!(!t.peer_unreachable_direct(NodeId(1)));
        assert_eq!(t.first_up(NodeId(1)), Some(NetId(2)), "next healthy plane");
        t.probe_sent(NodeId(1), NetId(2), 3);
        let _ = t.probe_timed_out(NodeId(1), NetId(2), 3, 1);
        assert!(t.peer_unreachable_direct(NodeId(1)));
        assert_eq!(t.down_count(), 3);
    }

    #[test]
    #[should_panic(expected = "K >= 2")]
    fn single_plane_table_rejected() {
        let _ = PeerTable::new(NodeId(0), 4, 1);
    }

    #[test]
    #[should_panic(expected = "no link to self")]
    fn self_link_rejected() {
        let t = table();
        let _ = t.link(NodeId(0), NetId::A);
    }
}
