//! Phase 2 of the DRS run process: the daemon state machine.
//!
//! The daemon loops through the cycle the paper describes — *"monitoring
//! communication links, answering requests, and fixing problems as they
//! occur, for the life of the server cluster"*:
//!
//! * **monitoring** — staggered ICMP probes of every `(peer, net)` pair
//!   across all `K` network planes, one full sweep per probe interval;
//! * **answering requests** — when another daemon broadcasts a
//!   [`DrsMsg::RouteRequest`], offer to act as gateway if (and only if)
//!   this host has a live *direct* route to the target (the directness
//!   requirement keeps relays one hop deep and is the protocol's routing
//!   loop avoidance, backstopped by the stack's TTL);
//! * **fixing problems** — when the link under a kernel route fails,
//!   repair it: first to the peer's NIC on the next healthy plane, and if
//!   every direct link is gone, through broadcast gateway discovery.
//!   When a direct link recovers, revert to it.
//!
//! All repair actions are driven by probe state transitions, never by
//! application traffic — that is what makes DRS *proactive*: by the time
//! an application sends, the route table has already been fixed.
//!
//! What the daemon knows lives in one table, [`crate::monitor::PeerTable`]
//! — a link record per `(peer, net)` pair and a repair record per peer —
//! allocated once, at boot, when the backend says how many planes there
//! are. The handlers below look a record up once and work on it; an id
//! that names no record is an ignored input, never an index.
//!
//! The daemon talks to the outside world only through
//! [`crate::io::DrsIo`]: the four entry points ([`DrsDaemon::handle_start`],
//! [`DrsDaemon::handle_timer`], [`DrsDaemon::handle_echo_reply`],
//! [`DrsDaemon::handle_control`]) each take `&mut impl DrsIo`, so the
//! identical state machine runs on the DES kernel, on real UDP sockets,
//! and against a recorded trace.

use drs_obs::flight::{EventRef, TraceKind};

use crate::config::{DrsConfig, GatewayPolicy};
use crate::ids::{NetId, NodeId};
use crate::io::DrsIo;
use crate::journal::{DaemonInput, DaemonJournal};
use crate::messages::DrsMsg;
use crate::metrics::{DrsEventKind, DrsMetrics};
use crate::monitor::{Link, LinkState, PeerTable, Transition};
use crate::routes::Route;
use crate::time::{OptTime, SimDuration, SimTime};

/// ICMP identifier used by all DRS probes.
const ECHO_ID: u32 = 0x0D25;

// Timer token layout: [kind:8][peer:24][net:8][payload:24]
const KIND_PROBE: u64 = 1;
const KIND_TIMEOUT: u64 = 2;
const KIND_OFFER_WINDOW: u64 = 3;
const KIND_CYCLE: u64 = 4;
const KIND_CYCLE_TIMEOUT: u64 = 5;

fn token(kind: u64, peer: NodeId, net: NetId, payload: u64) -> u64 {
    debug_assert!(payload < (1 << 24));
    kind << 56 | (peer.0 as u64) << 32 | (net.idx() as u64) << 24 | payload
}

fn untoken(t: u64) -> (u64, NodeId, NetId, u64) {
    (
        t >> 56,
        NodeId((t >> 32 & 0xFF_FFFF) as u32),
        NetId::from_idx((t >> 24 & 0xFF) as usize),
        t & 0xFF_FFFF,
    )
}

/// One host's DRS routing demon.
///
/// Every per-link and per-peer record lives in the daemon's one
/// [`PeerTable`]; the daemon itself keeps only scalars, its
/// configuration and what it reports (metrics, the optional journal).
/// A healthy daemon's state is its `K·N` 24-byte links: the table
/// writes repair records only once a repair begins, the host's route
/// table stays the implicit default until the first route change, and
/// the batched monitor keeps no list of the probes a cycle sent.
/// The latency histograms and flight records are clocked on
/// [`DrsIo::now`] alone, and recording into them never arms a timer or
/// draws randomness, so an observed daemon is event-for-event identical
/// to an unobserved one.
#[derive(Debug, Clone)]
pub struct DrsDaemon {
    id: NodeId,
    n: usize,
    cfg: DrsConfig,
    /// Monitors nothing until [`Self::handle_start`] sizes it.
    table: PeerTable,
    next_seq: u32,
    next_req: u64,
    /// Counters and the timestamped event log.
    pub metrics: DrsMetrics,
    /// Input journal for trace replay, present when
    /// [`DrsConfig::record_journal`] is on. Recording never changes what
    /// the daemon does.
    journal: Option<DaemonJournal>,
    /// Probes sent by the current batched monitor cycle, all counted in
    /// [`DrsMetrics::timeouts`] by the cycle's one timeout sweep.
    cycle_sent: u64,
}

impl DrsDaemon {
    /// A daemon for host `id` in an `n`-host cluster. Its link table is
    /// sized in [`Self::handle_start`], where the daemon first sees the
    /// backend's redundancy degree.
    ///
    /// # Panics
    /// Panics if the cluster has fewer than two hosts or more than the
    /// 2²⁴ the timer-token encoding supports, or if `cfg` holds a value
    /// its builders reject (its fields are public, so a struct literal
    /// skips them).
    #[must_use]
    pub fn new(id: NodeId, n: usize, cfg: DrsConfig) -> Self {
        assert!(n >= 2, "DRS monitors peers; a cluster needs two hosts");
        assert!(n < (1 << 24), "cluster size exceeds token encoding");
        cfg.validate();
        DrsDaemon {
            id,
            n,
            cfg,
            table: PeerTable::default(),
            next_seq: 0,
            next_req: 0,
            metrics: DrsMetrics::default(),
            journal: cfg.record_journal.then(DaemonJournal::default),
            cycle_sent: 0,
        }
    }

    /// The daemon's view of its links.
    #[must_use]
    pub fn peer_table(&self) -> &PeerTable {
        &self.table
    }

    /// The host this daemon runs on.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The cluster size this daemon was configured for.
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// The daemon's configuration.
    #[must_use]
    pub fn config(&self) -> &DrsConfig {
        &self.cfg
    }

    /// The recorded input journal, when [`DrsConfig::record_journal`] is
    /// on.
    #[must_use]
    pub fn journal(&self) -> Option<&DaemonJournal> {
        self.journal.as_ref()
    }

    /// Takes the recorded journal out of the daemon, leaving recording
    /// disabled.
    pub fn take_journal(&mut self) -> Option<DaemonJournal> {
        self.journal.take()
    }

    fn journal_input(&mut self, at: SimTime, input: DaemonInput) {
        if let Some(j) = self.journal.as_mut() {
            j.push(at, input);
        }
    }

    fn alloc_seq(&mut self) -> u32 {
        self.next_seq = (self.next_seq + 1) & Link::SEQ_MAX;
        self.next_seq
    }

    /// Transmits one monitor probe on the link in `slot` (that of
    /// `(peer, net)`): sequence allocation, pending-probe bookkeeping,
    /// the probe-gap sample and the echo itself — everything except
    /// timeout arming, which differs between the per-pair and batched
    /// monitor drivers. Returns the ICMP seq.
    fn send_probe(&mut self, io: &mut impl DrsIo, peer: NodeId, net: NetId, slot: usize) -> u32 {
        let seq = self.alloc_seq();
        self.metrics.probes_sent += 1;
        // The gap to the pair's previous probe is the realized sweep
        // period, stagger and backoff included.
        if let Some(gap) = self.table.link_at(slot).probe_sent(seq, io.now()) {
            io.probe_obs_mut().probe_gap.record(gap.as_nanos());
        }
        // Flight: this send's cause is the pair's chain tail (the
        // previous send, or the last good reply), and the send ref rides
        // on the frame so kernel loss sites can blame it.
        let sref = io.flight_record(
            TraceKind::ProbeSend,
            Some(net),
            u64::from(peer.0) << 32 | u64::from(seq),
            self.table.refs(slot).chain,
        );
        if sref.is_some() {
            let refs = self.table.refs_mut(slot);
            refs.send = sref;
            refs.chain = sref;
        }
        io.send_echo_traced(net, peer, ECHO_ID, seq, sref);
        seq
    }

    /// One batched monitor cycle: fan out every due `(peer, net)` probe
    /// inline — peers in id order, planes in order within each peer,
    /// exactly the per-pair timers' firing order — then arm a single
    /// timeout sweep and the next cycle. Two queue entries per cycle per
    /// daemon, against `2·K·(N-1)` for the per-pair driver. Only the
    /// number of probes sent is kept: the sweep finds them again as the
    /// links whose probe is still pending.
    fn run_monitor_cycle(&mut self, io: &mut impl DrsIo) {
        self.cycle_sent = 0;
        for peer in self.table.peers() {
            for net in NetId::planes(self.table.planes()) {
                let Some(slot) = self.table.slot(peer, net) else {
                    continue;
                };
                if self.table.skip_cycle(slot) {
                    // Down-link backoff: the per-pair driver stretches the
                    // re-arm delay; the batched driver skips whole cycles.
                    continue;
                }
                self.send_probe(io, peer, net, slot);
                self.cycle_sent += 1;
                if self.table.link_at(slot).state() == LinkState::Down {
                    self.table.set_skip(slot, self.cfg.down_probe_backoff - 1);
                }
                // Same retry hook as the per-pair driver: once per cycle
                // per peer, keyed to an actually-sent plane-A probe.
                if net == NetId::A && self.table.peer_unreachable_direct(peer) {
                    self.start_discovery(io, peer);
                }
            }
        }
        io.set_timer(
            self.cfg.probe_timeout,
            token(KIND_CYCLE_TIMEOUT, NodeId(0), NetId::A, 0),
        );
        io.set_timer(
            self.cfg.probe_interval,
            token(KIND_CYCLE, NodeId(0), NetId::A, 0),
        );
    }

    /// The batched cycle's single timeout sweep: times out every link
    /// whose probe is still pending, in the cycle's send order. Each is
    /// this cycle's probe: a batched daemon sends from
    /// [`Self::run_monitor_cycle`] only, and `probe_timeout <
    /// probe_interval` let the previous sweep close the previous cycle's.
    /// Every probe the cycle sent counts as one timeout processed,
    /// answered ones included.
    fn sweep_cycle_timeouts(&mut self, io: &mut impl DrsIo) {
        self.metrics.timeouts += std::mem::take(&mut self.cycle_sent);
        for peer in self.table.peers() {
            for net in NetId::planes(self.table.planes()) {
                if let Some(seq) = self.table.link(peer, net).and_then(Link::pending_seq) {
                    self.probe_timed_out(io, peer, net, seq);
                }
            }
        }
    }

    /// The reply window of probe `seq` on `(peer, net)` closed — one
    /// per-pair timeout timer, or one pending probe of the batched sweep.
    fn probe_timed_out(&mut self, io: &mut impl DrsIo, peer: NodeId, net: NetId, seq: u32) {
        let Some(slot) = self.table.slot(peer, net) else {
            return;
        };
        let link = self.table.link_at(slot);
        if link.probe_timed_out(seq, self.cfg.miss_threshold) == Transition::WentDown {
            // Flight: the sweep record that declared the pair overdue,
            // caused by the probe send it gave up on.
            let sweep = io.flight_record(
                TraceKind::TimeoutSweep,
                Some(net),
                u64::from(peer.0),
                self.table.refs(slot).send,
            );
            self.handle_link_down(io, peer, net, slot, sweep);
        }
    }

    fn install(&mut self, io: &mut impl DrsIo, dst: NodeId, route: Route) {
        if io.route(dst) == Some(route) {
            return;
        }
        io.set_route(dst, route);
        self.metrics.route_changes += 1;
        self.metrics
            .log(io.now(), DrsEventKind::RouteChanged { dst, route });
        // The repair open for this destination closes on the first actual
        // route change after the failure — if discovery had to wait for
        // the peer to recover, the recorded latency honestly covers the
        // whole outage.
        let Some(peer) = self.table.written_peer_mut(dst) else {
            return;
        };
        if let Some(opened) = peer.repair_opened.take() {
            let elapsed = io.now().since(opened).as_nanos();
            io.probe_obs_mut().reroute_complete.record(elapsed);
            // Flight: exactly one completion per closed repair, so these
            // records mirror the reroute_complete histogram 1:1.
            io.flight_record(
                TraceKind::RerouteComplete,
                None,
                elapsed,
                self.table.take_repair_ref(dst),
            );
            // Session layer: exactly one notification per closed repair,
            // so the fluid workload engine can cross-check its
            // stall/resume accounting against `reroute_complete` 1:1.
            io.notify_reroute(dst);
        }
    }

    /// Repairs the route to `dst` after its current path broke: redundant
    /// direct link first (the lowest-numbered plane believed up), gateway
    /// discovery second. `cause` is the link-down record that forced the
    /// repair.
    fn repair_route(&mut self, io: &mut impl DrsIo, dst: NodeId, cause: Option<EventRef>) {
        let direct = self.table.first_up(dst);
        let Some(peer) = self.table.peer_mut(dst) else {
            return;
        };
        if peer.repair_opened.get().is_none() {
            peer.repair_opened = OptTime::at(io.now());
            // Flight: one decision per repair, at the instant it opens —
            // mode says which repair path the daemon committed to.
            let mode = u64::from(direct.is_none());
            let decision = io.flight_record(
                TraceKind::FailoverDecision,
                None,
                u64::from(dst.0) << 1 | mode,
                cause,
            );
            if let Some(decision) = decision {
                self.table.set_repair_ref(dst, decision);
            }
        }
        if let Some(net) = direct {
            let new = Route::Direct(net);
            if io.route(dst) != Some(new) {
                self.metrics.direct_failovers += 1;
                self.install(io, dst, new);
            }
        } else {
            self.start_discovery(io, dst);
        }
    }

    fn handle_link_down(
        &mut self,
        io: &mut impl DrsIo,
        peer: NodeId,
        net: NetId,
        slot: usize,
        sweep: Option<EventRef>,
    ) {
        self.metrics.link_down_events += 1;
        self.metrics
            .log(io.now(), DrsEventKind::LinkDown { peer, net });
        // Failure-detection latency: last healthy reply → this event. A
        // link that never answered has no baseline and records nothing
        // (no samples, not a fake zero).
        let mut detect_ns = u64::MAX;
        if let Some(ok) = self.table.link_at(slot).last_seen.get() {
            detect_ns = io.now().since(ok).as_nanos();
            io.probe_obs_mut().failover_detect.record(detect_ns);
        }
        // Flight: the down transition carries the detect latency and is
        // pinned as a live chain head, so its ancestry (losses, last good
        // reply) survives ring eviction until the link recovers.
        let down = io.flight_record(TraceKind::LinkDown, Some(net), detect_ns, sweep);
        if let Some(head) = down {
            if let Some(old) = self.table.refs_mut(slot).down.replace(head) {
                io.flight_release(old);
            }
            io.flight_pin(head);
        }

        // The direct route to this peer may have died...
        if io.route(peer) == Some(Route::Direct(net)) {
            self.repair_route(io, peer, down);
        }
        // ...and so may any route relaying through this peer on this net.
        let via = Route::Via { gateway: peer, net };
        let broken: Vec<NodeId> = io
            .routes()
            .iter()
            .filter(|&(_, r)| r == via)
            .map(|(dst, _)| dst)
            .collect();
        for dst in broken {
            self.repair_route(io, dst, down);
        }
    }

    fn handle_link_up(
        &mut self,
        io: &mut impl DrsIo,
        peer: NodeId,
        net: NetId,
        slot: usize,
        reply: Option<EventRef>,
    ) {
        self.metrics.link_up_events += 1;
        self.metrics
            .log(io.now(), DrsEventKind::LinkUp { peer, net });
        // Flight: the revival names the reply that proved the link, and
        // the failure chain it ends is unpinned — its records may now be
        // evicted like any others.
        io.flight_record(TraceKind::LinkUp, Some(net), u64::from(peer.0), reply);
        if let Some(head) = self.table.refs(slot).down {
            self.table.refs_mut(slot).down = None;
            io.flight_release(head);
        }

        // Any running discovery for this peer is obsolete.
        if let Some(round) = self.table.round_mut(peer) {
            round.decided = true;
        }

        let current = io.route(peer);
        let best = self
            .table
            .first_up(peer)
            .expect("a link just came up, so some direct net is up");
        let should_move = match current {
            None => true,
            Some(Route::Via { .. }) => true,
            Some(Route::Direct(cur)) => {
                cur != best
                    && (self.cfg.prefer_primary
                        || self.table.state(peer, cur) == Some(LinkState::Down))
            }
        };
        if should_move {
            if matches!(current, Some(Route::Via { .. }) | Some(Route::Direct(_))) {
                self.metrics.reverts += 1;
            }
            self.install(io, peer, Route::Direct(best));
        }
    }

    fn start_discovery(&mut self, io: &mut impl DrsIo, target: NodeId) {
        let now = io.now();
        let Some(peer) = self.table.peer_mut(target) else {
            return;
        };
        if let Some(last) = peer.last_discovery.get() {
            let round_active = peer.discovery.as_ref().is_some_and(|r| !r.decided);
            if round_active || now.since(last) < self.cfg.discovery_backoff {
                return;
            }
        }
        peer.last_discovery = OptTime::at(now);
        self.next_req += 1;
        let req_id = self.next_req;
        // A new round replaces the last one in its box.
        let round = peer.discovery.get_or_insert_with(Box::default);
        round.req_id = req_id;
        round.offers.clear();
        round.decided = false;
        self.metrics.discoveries += 1;
        self.metrics
            .log(now, DrsEventKind::DiscoveryStarted { target });
        let msg = DrsMsg::RouteRequest { target, req_id };
        for net in NetId::planes(self.table.planes()) {
            io.broadcast_control(net, msg);
        }
        // Arm the decision/failure-detection window.
        io.set_timer(
            self.cfg.offer_window,
            token(KIND_OFFER_WINDOW, target, NetId::A, req_id & 0xFF_FFFF),
        );
    }

    fn handle_offer_window(&mut self, io: &mut impl DrsIo, target: NodeId, req_low: u64) {
        let Some(round) = self.table.round_mut(target) else {
            return;
        };
        if round.decided || round.req_id & 0xFF_FFFF != req_low {
            return;
        }
        round.decided = true;
        if round.offers.is_empty() {
            self.metrics
                .log(io.now(), DrsEventKind::DiscoveryFailed { target });
            return;
        }
        let (gateway, net) = match self.cfg.gateway_policy {
            GatewayPolicy::FirstOffer => round.offers[0], // unreachable in practice
            GatewayPolicy::LowestId => *round
                .offers
                .iter()
                .min_by_key(|(gw, _)| gw.0)
                .expect("non-empty"),
            GatewayPolicy::Random => {
                let i = io.pick(round.offers.len());
                if let Some(j) = self.journal.as_mut() {
                    j.push_pick(i);
                }
                round.offers[i]
            }
        };
        self.metrics.gateway_failovers += 1;
        self.install(io, target, Route::Via { gateway, net });
    }

    fn handle_route_request(
        &mut self,
        io: &mut impl DrsIo,
        from: NodeId,
        net: NetId,
        target: NodeId,
        req_id: u64,
    ) {
        if target == self.id {
            return; // cannot gateway to ourselves
        }
        // Offer only with a live *direct* route to the target: one-hop
        // relays cannot form loops.
        let Some(Route::Direct(tnet)) = io.route(target) else {
            return;
        };
        if self.table.state(target, tnet) != Some(LinkState::Up) {
            return;
        }
        self.metrics.offers_sent += 1;
        io.send_control(net, from, DrsMsg::RouteOffer { target, req_id });
    }

    fn handle_route_offer(
        &mut self,
        io: &mut impl DrsIo,
        from: NodeId,
        net: NetId,
        target: NodeId,
        req_id: u64,
    ) {
        let Some(round) = self.table.round_mut(target) else {
            return;
        };
        if round.decided || round.req_id != req_id {
            return; // stale offer from an earlier round
        }
        match self.cfg.gateway_policy {
            GatewayPolicy::FirstOffer => {
                round.decided = true;
                self.metrics.gateway_failovers += 1;
                self.install(io, target, Route::Via { gateway: from, net });
            }
            GatewayPolicy::LowestId | GatewayPolicy::Random => {
                round.offers.push((from, net));
            }
        }
    }

    // ---- Entry points -----------------------------------------------
    //
    // The backend (DES kernel, UDP event loop, trace replayer) calls
    // exactly these four methods; everything above is internal. Ids that
    // arrive here may come off a real wire: one that names no record of
    // the table is an ignored input — counted, never indexed with.

    /// Boot: size the table to the backend's plane count — the one time
    /// it is allocated — and arm the monitor timers.
    pub fn handle_start(&mut self, io: &mut impl DrsIo) {
        let planes = io.planes();
        self.journal_input(io.now(), DaemonInput::Start { planes });
        self.table = PeerTable::new(self.id, self.n, planes);
        if self.cfg.batched_monitor {
            // One cycle event drives the whole sweep (stagger does not
            // apply: the point of batching is the single timer).
            io.set_timer(SimDuration::ZERO, token(KIND_CYCLE, NodeId(0), NetId::A, 0));
            return;
        }
        // Arm one repeating probe timer per (peer, net) pair, staggered
        // across the first cycle so the shared medium never sees a burst.
        let pair_count = u64::from(planes) * (self.n - 1) as u64;
        // Without stagger every pair's first probe goes out at once.
        let spread = self.cfg.probe_interval.as_nanos() * u64::from(self.cfg.stagger);
        let mut k = 0u64;
        for peer in self.table.peers() {
            for net in NetId::planes(planes) {
                let offset = SimDuration(spread * k / pair_count);
                io.set_timer(offset, token(KIND_PROBE, peer, net, 0));
                k += 1;
            }
        }
    }

    /// A previously armed timer fired with token `t`.
    pub fn handle_timer(&mut self, io: &mut impl DrsIo, t: u64) {
        self.journal_input(io.now(), DaemonInput::Timer { token: t });
        let (kind, peer, net, payload) = untoken(t);
        match kind {
            KIND_PROBE => {
                let Some(slot) = self.table.slot(peer, net) else {
                    return;
                };
                let seq = self.send_probe(io, peer, net, slot);
                io.set_timer(
                    self.cfg.probe_timeout,
                    token(KIND_TIMEOUT, peer, net, seq as u64),
                );
                // Links believed down are re-probed at a (configurably)
                // relaxed rate: the outage is already being routed
                // around, so only recovery detection is at stake.
                let down = self.table.link_at(slot).state() == LinkState::Down;
                let backoff = if down { self.cfg.down_probe_backoff } else { 1 };
                let interval = self.cfg.probe_interval.saturating_mul(backoff);
                io.set_timer(interval, token(KIND_PROBE, peer, net, 0));

                // Retry loop for persistently unreachable peers: while both
                // direct links are down, keep re-discovering (rate-limited)
                // so a newly viable gateway is eventually found. Hooked to
                // the net-A probe only, to fire once per cycle per peer.
                if net == NetId::A && self.table.peer_unreachable_direct(peer) {
                    self.start_discovery(io, peer);
                }
            }
            KIND_TIMEOUT => {
                self.metrics.timeouts += 1;
                self.probe_timed_out(io, peer, net, payload as u32);
            }
            KIND_OFFER_WINDOW => self.handle_offer_window(io, peer, payload),
            KIND_CYCLE => self.run_monitor_cycle(io),
            KIND_CYCLE_TIMEOUT => self.sweep_cycle_timeouts(io),
            _ => unreachable!("unknown timer kind {kind}"),
        }
    }

    /// An ICMP echo reply arrived from `from` on `net`.
    pub fn handle_echo_reply(
        &mut self,
        io: &mut impl DrsIo,
        from: NodeId,
        net: NetId,
        id: u32,
        seq: u32,
    ) {
        self.journal_input(io.now(), DaemonInput::EchoReply { from, net, id, seq });
        if id != ECHO_ID {
            return; // someone else's ping
        }
        let Some(slot) = self.table.slot(from, net) else {
            self.metrics.ignored_inputs += 1;
            return;
        };
        self.metrics.replies_received += 1;
        let now = io.now();
        let link = self.table.link_at(slot);
        // Round-trip of the monitor cycle's probe, measured against the
        // most recent request on this (peer, net) — probes never overlap
        // on a link because the timeout is armed under the interval.
        if let Some(sent) = link.last_probe.get() {
            io.probe_obs_mut()
                .probe_rtt
                .record(now.since(sent).as_nanos());
        }
        let transition = link.reply_received(now);
        // Flight: a good reply answers the pair's outstanding send and
        // resets the chain tail — future failure chains walk back to
        // *this* record as their last-good anchor.
        let rref = io.flight_record(
            TraceKind::ProbeRecv,
            Some(net),
            u64::from(from.0) << 32 | u64::from(seq),
            self.table.refs(slot).send,
        );
        if rref.is_some() {
            self.table.refs_mut(slot).chain = rref;
        }
        if transition == Transition::WentUp {
            self.handle_link_up(io, from, net, slot, rref);
        }
    }

    /// A DRS control message arrived from `from` on `net`.
    pub fn handle_control(&mut self, io: &mut impl DrsIo, from: NodeId, net: NetId, msg: &DrsMsg) {
        let msg = *msg;
        self.journal_input(io.now(), DaemonInput::Control { from, net, msg });
        let (target, req_id) = (msg.target(), msg.req_id());
        // The sender must be a monitored peer on a plane this cluster
        // has, the target a host of the cluster other than the sender (a
        // host cannot relay to itself).
        if self.table.slot(from, net).is_none() || target.idx() >= self.n || target == from {
            self.metrics.ignored_inputs += 1;
            return;
        }
        match msg {
            DrsMsg::RouteRequest { .. } => self.handle_route_request(io, from, net, target, req_id),
            DrsMsg::RouteOffer { .. } => self.handle_route_offer(io, from, net, target, req_id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The daemon's behavioural test suite runs on the DES kernel and
    // lives in `crates/sim/tests/daemon_protocol.rs` — inside this
    // crate's own test build, `drs_sim`'s `Protocol` impl targets the
    // *library* instance of `DrsDaemon`, not the test harness's copy, so
    // kernel-driven scenarios cannot compile here. Only backend-free
    // unit tests belong in this module.

    /// A daemon built from a struct literal that skipped the builders.
    fn daemon_with(cfg: DrsConfig) -> DrsDaemon {
        DrsDaemon::new(NodeId(0), 4, cfg)
    }

    #[test]
    #[should_panic(expected = "backoff multiplier must be at least 1")]
    fn zero_backoff_rejected_at_construction() {
        let _ = daemon_with(DrsConfig {
            down_probe_backoff: 0,
            ..DrsConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "probe interval must be positive")]
    fn zero_interval_rejected_at_construction() {
        let _ = daemon_with(DrsConfig {
            probe_interval: SimDuration::ZERO,
            ..DrsConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "probe timeout must be positive")]
    fn zero_timeout_rejected_at_construction() {
        let _ = daemon_with(DrsConfig {
            probe_timeout: SimDuration::ZERO,
            ..DrsConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "must exceed the probe timeout")]
    fn interval_not_above_timeout_rejected_at_construction() {
        let _ = daemon_with(DrsConfig {
            probe_timeout: SimDuration::from_secs(1),
            ..DrsConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "at least one miss")]
    fn zero_miss_threshold_rejected_at_construction() {
        let _ = daemon_with(DrsConfig {
            miss_threshold: 0,
            ..DrsConfig::default()
        });
    }

    #[test]
    fn token_roundtrip() {
        for kind in [KIND_PROBE, KIND_TIMEOUT, KIND_OFFER_WINDOW] {
            for peer in [0u32, 1, 4095, (1 << 24) - 1] {
                for net in [NetId::A, NetId::B, NetId(2), NetId(7)] {
                    for payload in [0u64, 1, 0xFF_FFFF] {
                        let t = token(kind, NodeId(peer), net, payload);
                        assert_eq!(untoken(t), (kind, NodeId(peer), net, payload));
                    }
                }
            }
        }
    }
}
