//! The DRS daemon's protocol state: one table, two records.
//!
//! The daemon "continuously probes every monitored peer on every
//! network", so the `(peer, network)` link is the protocol's unit of
//! state and Figure 1's N² cost is this table. [`PeerTable`] owns all of
//! it:
//!
//! * one [`Link`] per `(peer, net)` pair, flat and indexed `peer·K + net`
//!   — phase 1 of the run process. A link is `Up` or `Down`; probes that
//!   time out accumulate *consecutive misses*, crossing the configured
//!   threshold flips the link `Down`, and any answered probe resets the
//!   count and flips it back `Up`. The same record carries the instants
//!   the latency histograms are measured from (last probe out, last
//!   reply in);
//! * one `Peer` per host — phase 2's repair state: the gateway-discovery
//!   round, its rate limiter, and the open repair (failure observed, no
//!   replacement route installed yet);
//! * side vectors for what most runs never set, each empty until first
//!   written: the batched monitor's down-link backoff counters (only a
//!   backoff above 1 writes one), and the flight-recorder identities —
//!   three per link, one per open repair — which stay empty until a
//!   backend first hands back a record, so a daemon driven without a
//!   recorder pays nothing for them.
//!
//! # Record sizes
//!
//! Every daemon holds `K·N` links and `N` peers, so the cluster holds
//! `K·N²` and `N²`: at N = 1024, K = 2 that is 2.1 M links and 1.05 M
//! peers, the largest state a run keeps besides the frames in flight. A
//! `Link` is 32 bytes and a `Peer` 24 (`const` asserts below fail the
//! build if either grows). They were 56 and 104 while they carried what
//! almost never varies inline: each "never" instant as a 16-byte
//! `Option<SimTime>` (now an 8-byte [`OptTime`]), a 40-byte discovery
//! round that exists only while every direct link to the peer is down
//! (now boxed), a 32-byte flight identity and an 8-byte backoff counter
//! (now in the side vectors above).
//!
//! Ids reach the daemon off a real wire in the live backend, so every
//! lookup by id returns `Option`: the owner itself, a peer outside the
//! cluster and a plane the cluster does not have are all "no such
//! record", never an index panic. `PeerTable::slot` is the one place an
//! id pair becomes an index.

use drs_obs::flight::EventRef;

use crate::ids::{NetId, NodeId};
use crate::time::{OptTime, SimDuration, SimTime};

/// The daemon's belief about one `(peer, network)` link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    /// Probes are being answered.
    Up,
    /// `miss_threshold` consecutive probes went unanswered.
    Down,
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

/// Everything the protocol tracks about one `(peer, network)` link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// Current believed state.
    pub state: LinkState,
    /// Consecutive unanswered probes.
    pub misses: u32,
    /// Sequence number of the probe currently awaiting a reply, if any.
    pub pending_seq: Option<u32>,
    /// When the last reply was heard (never before the first) — the
    /// baseline of failure-detection latency.
    pub last_seen: OptTime,
    /// When the last probe left (never before the first) — the baseline
    /// of the probe-gap and round-trip histograms.
    pub last_probe: OptTime,
}

// Bytes per (daemon, peer, plane): the N = 1024, K = 2 burst holds
// 2.1 M of these, so every byte here is 2 MB of peak RSS.
const _: () = assert!(std::mem::size_of::<Link>() <= 32);
// Bytes per (daemon, peer): 1.05 M of these in the same burst.
const _: () = assert!(std::mem::size_of::<Peer>() <= 24);

impl Default for Link {
    fn default() -> Self {
        Link {
            state: LinkState::Up, // optimistic start, as deployed
            misses: 0,
            pending_seq: None,
            last_seen: OptTime::NEVER,
            last_probe: OptTime::NEVER,
        }
    }
}

impl Link {
    /// Records that a probe with `seq` left at `now`. Returns the gap
    /// since the previous probe on this link — the realized sweep period.
    pub fn probe_sent(&mut self, seq: u32, now: SimTime) -> Option<SimDuration> {
        self.pending_seq = Some(seq);
        self.last_probe.replace(now).map(|prev| now.since(prev))
    }

    /// Processes an echo reply. Replies that match no pending probe
    /// (stale or duplicate) still prove liveness and are treated as
    /// successes — ICMP is idempotent evidence.
    pub fn reply_received(&mut self, at: SimTime) -> Transition {
        self.pending_seq = None;
        self.misses = 0;
        self.last_seen = OptTime::at(at);
        if self.state == LinkState::Down {
            self.state = LinkState::Up;
            Transition::WentUp
        } else {
            Transition::None
        }
    }

    /// Processes a probe timeout for `seq`. Returns the resulting
    /// transition; a timeout for anything but the currently pending probe
    /// is stale and ignored.
    pub fn probe_timed_out(&mut self, seq: u32, miss_threshold: u32) -> Transition {
        if self.pending_seq != Some(seq) {
            return Transition::None; // answered in the meantime, or stale
        }
        self.pending_seq = None;
        self.misses += 1;
        if self.state == LinkState::Up && self.misses >= miss_threshold {
            self.state = LinkState::Down;
            Transition::WentDown
        } else {
            Transition::None
        }
    }
}

/// One gateway-discovery round for an unreachable peer.
#[derive(Debug, Clone, Default)]
pub(crate) struct DiscoveryRound {
    pub req_id: u64,
    pub offers: Vec<(NodeId, NetId)>,
    pub decided: bool,
}

/// Everything the protocol tracks about one peer beyond its links.
#[derive(Debug, Clone, Default)]
pub(crate) struct Peer {
    /// The latest discovery round for this peer, decided or not. Boxed:
    /// a round exists only once every direct link to the peer has been
    /// down, and its box is reused by every later round.
    pub discovery: Option<Box<DiscoveryRound>>,
    /// When that round's broadcast went out (the rate limiter's clock).
    pub last_discovery: OptTime,
    /// When the open repair began: failure observed, no replacement
    /// route installed yet. The baseline of `reroute_complete`.
    pub repair_opened: OptTime,
}

/// Flight-recorder identities of one link (all `None` while the recorder
/// is off; recording never changes what the daemon *does*, only what it
/// can explain afterwards).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LinkRefs {
    /// The last `ProbeSend` record.
    pub send: Option<EventRef>,
    /// Causal-chain tail: the previous probe send, or the last good
    /// reply — so a chain walks send → … → send → last-good-recv.
    pub chain: Option<EventRef>,
    /// The pinned `LinkDown` chain head, released on link-up.
    pub down: Option<EventRef>,
}

/// The full protocol state of one daemon: a [`Link`] per `(peer, net)`
/// and a repair record per peer. The default table monitors nothing —
/// what a daemon holds until it boots and learns the plane count.
#[derive(Debug, Clone, Default)]
pub struct PeerTable {
    owner: NodeId,
    planes: u8,
    /// Indexed by [`Self::slot`]. The owner's own row is never touched.
    links: Vec<Link>,
    /// Indexed by [`NodeId::idx`]; its length is the cluster size.
    peers: Vec<Peer>,
    /// Batched-monitor down-link backoff, cycles each link has left to
    /// sit out: parallel to `links` once any link first has to, else
    /// empty.
    skips: Vec<u32>,
    /// Parallel to `links` once any flight identity exists, else empty.
    refs: Vec<LinkRefs>,
    /// Flight: each open repair's `FailoverDecision`, consumed by the
    /// `RerouteComplete` that closes it. Parallel to `peers` once any
    /// exists, else empty.
    repair_refs: Vec<Option<EventRef>>,
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
            planes,
            links: vec![Link::default(); n * planes as usize],
            peers: vec![Peer::default(); n],
            skips: Vec::new(),
            refs: Vec::new(),
            repair_refs: Vec::new(),
        }
    }

    /// The number of network planes this table monitors.
    #[must_use]
    pub fn planes(&self) -> u8 {
        self.planes
    }

    /// The monitored peers, in id order (everyone but the owner).
    pub fn peers(&self) -> impl Iterator<Item = NodeId> {
        let owner = self.owner;
        (0..self.peers.len() as u32)
            .map(NodeId)
            .filter(move |&p| p != owner)
    }

    /// Index of `(peer, net)` into the link records: `peer·K + net`.
    /// `None` for the owner itself, a peer outside the cluster or a
    /// plane the cluster does not have.
    pub(crate) fn slot(&self, peer: NodeId, net: NetId) -> Option<usize> {
        (peer != self.owner && peer.idx() < self.peers.len() && net.0 < self.planes)
            .then(|| peer.idx() * self.planes as usize + net.idx())
    }

    /// The link record in `slot` (a value [`Self::slot`] returned).
    pub(crate) fn link_at(&mut self, slot: usize) -> &mut Link {
        &mut self.links[slot]
    }

    /// Link bookkeeping for `(peer, net)`, if this table monitors it.
    #[must_use]
    pub fn link(&self, peer: NodeId, net: NetId) -> Option<&Link> {
        self.slot(peer, net).map(|i| &self.links[i])
    }

    /// Convenience: the believed state of `(peer, net)`.
    #[must_use]
    pub fn state(&self, peer: NodeId, net: NetId) -> Option<LinkState> {
        self.link(peer, net).map(|l| l.state)
    }

    /// Every plane's link to `peer`, primary first.
    fn links_of(&self, peer: NodeId) -> Option<&[Link]> {
        let first = self.slot(peer, NetId::A)?;
        Some(&self.links[first..first + self.planes as usize])
    }

    /// Whether every plane's link to `peer` is believed down (`false`
    /// for a peer this table does not monitor).
    #[must_use]
    pub fn peer_unreachable_direct(&self, peer: NodeId) -> bool {
        self.links_of(peer)
            .is_some_and(|links| links.iter().all(|l| l.state == LinkState::Down))
    }

    /// The lowest-numbered plane whose link to `peer` is believed up —
    /// the "next healthy plane" a failover moves to. `None` when the peer
    /// is directly unreachable on every plane.
    #[must_use]
    pub fn first_up(&self, peer: NodeId) -> Option<NetId> {
        self.links_of(peer)?
            .iter()
            .position(|l| l.state == LinkState::Up)
            .map(NetId::from_idx)
    }

    /// Number of links currently believed down.
    #[must_use]
    pub fn down_count(&self) -> usize {
        self.links
            .iter()
            .filter(|l| l.state == LinkState::Down)
            .count()
    }

    /// The repair record of `peer`, if this table monitors it.
    pub(crate) fn peer_mut(&mut self, peer: NodeId) -> Option<&mut Peer> {
        if peer == self.owner {
            return None;
        }
        self.peers.get_mut(peer.idx())
    }

    /// The latest discovery round for `target`, if there ever was one.
    pub(crate) fn round_mut(&mut self, target: NodeId) -> Option<&mut DiscoveryRound> {
        self.peer_mut(target)?.discovery.as_deref_mut()
    }

    /// Spends one batched cycle of the link in `slot`'s down-link
    /// backoff: `true` if the link sits this cycle out.
    pub(crate) fn skip_cycle(&mut self, slot: usize) -> bool {
        match self.skips.get_mut(slot) {
            Some(left) if *left > 0 => {
                *left -= 1;
                true
            }
            _ => false,
        }
    }

    /// Makes the link in `slot` sit out its next `cycles` batched cycles,
    /// saturating at `u32::MAX` (≈ 136 years of 1 s cycles), so no
    /// backoff wraps to a short one. Zero on a table whose links never
    /// skipped allocates nothing.
    pub(crate) fn set_skip(&mut self, slot: usize, cycles: u64) {
        if self.skips.is_empty() {
            if cycles == 0 {
                return;
            }
            self.skips.resize(self.links.len(), 0);
        }
        self.skips[slot] = u32::try_from(cycles).unwrap_or(u32::MAX);
    }

    /// The flight identities of the link in `slot` (all `None` until a
    /// recorder handed one back).
    pub(crate) fn refs(&self, slot: usize) -> LinkRefs {
        self.refs.get(slot).copied().unwrap_or_default()
    }

    /// Mutable flight identities of the link in `slot`. The first call
    /// allocates the side vector, so call it only with a record in hand.
    pub(crate) fn refs_mut(&mut self, slot: usize) -> &mut LinkRefs {
        if self.refs.is_empty() {
            self.refs.resize(self.links.len(), LinkRefs::default());
        }
        &mut self.refs[slot]
    }

    /// Records `decision` as the open repair of `peer` (an index
    /// [`Self::peer_mut`] accepted). The first call allocates the side
    /// vector, so call it only with a record in hand.
    pub(crate) fn set_repair_ref(&mut self, peer: NodeId, decision: EventRef) {
        if self.repair_refs.is_empty() {
            self.repair_refs.resize(self.peers.len(), None);
        }
        self.repair_refs[peer.idx()] = Some(decision);
    }

    /// Takes the open repair's decision record of `peer`, if one exists.
    pub(crate) fn take_repair_ref(&mut self, peer: NodeId) -> Option<EventRef> {
        self.repair_refs.get_mut(peer.idx())?.take()
    }

    /// How many links hold flight identities: zero for a daemon whose
    /// backend never recorded, every link after the first record.
    #[must_use]
    pub fn flight_slots(&self) -> usize {
        self.refs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime(0);

    fn table() -> PeerTable {
        PeerTable::new(NodeId(0), 4, 2)
    }

    fn link(t: &mut PeerTable, peer: u32, net: NetId) -> &mut Link {
        let slot = t.slot(NodeId(peer), net).expect("a monitored pair");
        t.link_at(slot)
    }

    #[test]
    fn starts_optimistic() {
        let t = table();
        assert_eq!(t.peers().count(), 3);
        for p in t.peers() {
            assert_eq!(t.state(p, NetId::A), Some(LinkState::Up));
            assert_eq!(t.state(p, NetId::B), Some(LinkState::Up));
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
        let l = link(&mut t, 1, NetId::A);
        l.probe_sent(1, T0);
        assert_eq!(
            l.probe_timed_out(1, 2),
            Transition::None,
            "first miss below threshold"
        );
        l.probe_sent(2, T0);
        assert_eq!(l.probe_timed_out(2, 2), Transition::WentDown);
        l.probe_sent(3, T0);
        assert_eq!(l.probe_timed_out(3, 2), Transition::None, "already down");
        assert_eq!(t.down_count(), 1);
    }

    #[test]
    fn reply_resets_miss_count() {
        let mut t = table();
        let l = link(&mut t, 1, NetId::A);
        l.probe_sent(1, T0);
        let _ = l.probe_timed_out(1, 3);
        l.probe_sent(2, T0);
        assert_eq!(l.reply_received(SimTime(5)), Transition::None);
        let l = t.link(NodeId(1), NetId::A).unwrap();
        assert_eq!(l.misses, 0);
        assert_eq!(l.last_seen.get(), Some(SimTime(5)));
    }

    #[test]
    fn probe_gap_is_measured_send_to_send() {
        let mut l = Link::default();
        assert_eq!(l.probe_sent(1, SimTime(100)), None, "no previous send");
        assert_eq!(l.probe_sent(2, SimTime(350)), Some(SimDuration(250)));
        assert_eq!(
            l.probe_sent(3, SimTime(300)),
            Some(SimDuration::ZERO),
            "a clock that stepped back saturates"
        );
        assert_eq!(l.last_probe.get(), Some(SimTime(300)));
    }

    #[test]
    fn a_probe_at_time_zero_is_a_baseline() {
        let mut l = Link::default();
        assert_eq!(l.probe_sent(1, SimTime::ZERO), None);
        assert_eq!(l.last_probe.get(), Some(SimTime::ZERO), "zero is not never");
        assert_eq!(l.probe_sent(2, SimTime(200)), Some(SimDuration(200)));
        assert_eq!(l.reply_received(SimTime::ZERO), Transition::None);
        assert_eq!(l.last_seen.get(), Some(SimTime::ZERO));
    }

    #[test]
    fn recovery_transition() {
        let mut t = table();
        let l = link(&mut t, 3, NetId::B);
        for seq in 1..=2 {
            l.probe_sent(seq, T0);
            let _ = l.probe_timed_out(seq, 2);
        }
        assert_eq!(l.state, LinkState::Down);
        assert_eq!(l.reply_received(SimTime(9)), Transition::WentUp);
        assert_eq!(t.state(NodeId(3), NetId::B), Some(LinkState::Up));
    }

    #[test]
    fn stale_timeout_ignored() {
        let mut l = Link::default();
        l.probe_sent(7, T0);
        let _ = l.reply_received(SimTime(1));
        // The timeout for seq 7 fires after the reply: no effect.
        assert_eq!(l.probe_timed_out(7, 1), Transition::None);
        assert_eq!(l.misses, 0);
    }

    #[test]
    fn timeout_for_wrong_seq_ignored() {
        let mut l = Link::default();
        l.probe_sent(8, T0);
        assert_eq!(l.probe_timed_out(7, 1), Transition::None);
        assert_eq!(l.pending_seq, Some(8));
    }

    #[test]
    fn unreachable_requires_both_nets_down() {
        let mut t = table();
        let a = link(&mut t, 1, NetId::A);
        a.probe_sent(1, T0);
        let _ = a.probe_timed_out(1, 1);
        assert!(!t.peer_unreachable_direct(NodeId(1)));
        assert_eq!(t.first_up(NodeId(1)), Some(NetId::B));
        let b = link(&mut t, 1, NetId::B);
        b.probe_sent(2, T0);
        let _ = b.probe_timed_out(2, 1);
        assert!(t.peer_unreachable_direct(NodeId(1)));
        assert_eq!(t.first_up(NodeId(1)), None);
    }

    #[test]
    fn three_plane_unreachable_requires_all_planes_down() {
        let mut t = PeerTable::new(NodeId(0), 3, 3);
        for (seq, net) in [(1, NetId::A), (2, NetId::B)] {
            let l = link(&mut t, 1, net);
            l.probe_sent(seq, T0);
            let _ = l.probe_timed_out(seq, 1);
        }
        assert!(!t.peer_unreachable_direct(NodeId(1)));
        assert_eq!(t.first_up(NodeId(1)), Some(NetId(2)), "next healthy plane");
        let l = link(&mut t, 1, NetId(2));
        l.probe_sent(3, T0);
        let _ = l.probe_timed_out(3, 1);
        assert!(t.peer_unreachable_direct(NodeId(1)));
        assert_eq!(t.down_count(), 3);
    }

    #[test]
    #[should_panic(expected = "K >= 2")]
    fn single_plane_table_rejected() {
        let _ = PeerTable::new(NodeId(0), 4, 1);
    }

    #[test]
    fn self_link_rejected() {
        let mut t = table();
        assert_eq!(t.link(NodeId(0), NetId::A), None, "no link to self");
        assert!(t.peer_mut(NodeId(0)).is_none(), "no repair record either");
    }

    #[test]
    fn ids_outside_the_cluster_name_no_record() {
        let mut t = table();
        for peer in [NodeId(4), NodeId(u32::MAX)] {
            assert_eq!(t.link(peer, NetId::A), None);
            assert_eq!(t.state(peer, NetId::B), None);
            assert!(!t.peer_unreachable_direct(peer));
            assert_eq!(t.first_up(peer), None);
            assert!(t.peer_mut(peer).is_none());
        }
        assert_eq!(t.link(NodeId(1), NetId(2)), None, "plane >= K");
        assert_eq!(t.link(NodeId(1), NetId(255)), None);
        // The default table — a daemon before boot — monitors nothing.
        let unbooted = PeerTable::default();
        assert_eq!(unbooted.link(NodeId(1), NetId::A), None);
        assert_eq!(unbooted.peers().count(), 0);
    }

    #[test]
    fn backoff_skips_cost_nothing_until_a_link_must_skip() {
        let mut t = table();
        let slot = t.slot(NodeId(2), NetId::A).unwrap();
        t.set_skip(slot, 0);
        assert!(t.skips.is_empty(), "a backoff of 1 never allocates");
        assert!(!t.skip_cycle(slot));
        t.set_skip(slot, 2);
        assert_eq!(t.skips.len(), 8, "one per link once any skips");
        assert!(t.skip_cycle(slot));
        assert!(t.skip_cycle(slot));
        assert!(!t.skip_cycle(slot), "probed again after two cycles");
        assert!(!t.skip_cycle(t.slot(NodeId(1), NetId::B).unwrap()));
    }

    #[test]
    fn a_backoff_beyond_u32_saturates_instead_of_wrapping() {
        let mut t = table();
        let slot = t.slot(NodeId(1), NetId::A).unwrap();
        // 2³² + 1 cycles truncated would be one cycle; saturated, the
        // link stays backed off as long as a u32 can count.
        t.set_skip(slot, (1 << 32) + 1);
        assert_eq!(t.skips[slot], u32::MAX);
        t.set_skip(slot, u64::MAX);
        assert_eq!(t.skips[slot], u32::MAX);
    }

    #[test]
    fn repair_refs_cost_nothing_until_first_used() {
        let mut t = table();
        assert_eq!(t.take_repair_ref(NodeId(3)), None);
        assert!(t.repair_refs.is_empty(), "reading allocates nothing");
        let r = EventRef {
            time_ns: 3,
            seq: 4,
            host: 0,
            sub: 1,
        };
        t.set_repair_ref(NodeId(3), r);
        assert_eq!(t.repair_refs.len(), 4, "one per peer once recording");
        assert_eq!(t.take_repair_ref(NodeId(3)), Some(r));
        assert_eq!(t.take_repair_ref(NodeId(3)), None, "taken once");
        assert_eq!(t.take_repair_ref(NodeId(u32::MAX)), None);
    }

    #[test]
    fn flight_identities_cost_nothing_until_first_used() {
        let mut t = table();
        let slot = t.slot(NodeId(1), NetId::B).unwrap();
        assert!(t.refs(slot).send.is_none());
        assert_eq!(t.flight_slots(), 0, "reading allocates nothing");
        let r = EventRef {
            time_ns: 1,
            seq: 2,
            host: 0,
            sub: 0,
        };
        t.refs_mut(slot).send = Some(r);
        assert_eq!(t.flight_slots(), 8, "one per link once recording");
        assert_eq!(t.refs(slot).send, Some(r));
        assert!(t.refs(slot).chain.is_none());
    }
}
