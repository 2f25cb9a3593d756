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
//! The daemon talks to the outside world only through
//! [`crate::io::DrsIo`]: the four entry points ([`DrsDaemon::handle_start`],
//! [`DrsDaemon::handle_timer`], [`DrsDaemon::handle_echo_reply`],
//! [`DrsDaemon::handle_control`]) each take `&mut impl DrsIo`, so the
//! identical state machine runs on the DES kernel, on real UDP sockets,
//! and against a recorded trace.

use drs_obs::flight::{EventRef, TraceKind};
use drs_obs::Span;

use crate::config::{DrsConfig, GatewayPolicy};
use crate::ids::{NetId, NodeId};
use crate::io::DrsIo;
use crate::journal::{DaemonInput, DaemonJournal};
use crate::messages::DrsMsg;
use crate::metrics::{DrsEventKind, DrsMetrics, ProbeRecord};
use crate::monitor::{LinkState, PeerTable, Transition};
use crate::routes::Route;
use crate::time::{SimDuration, SimTime};

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

#[derive(Debug, Clone)]
struct DiscoveryRound {
    req_id: u64,
    offers: Vec<(NodeId, NetId)>,
    decided: bool,
}

/// One host's DRS routing demon.
///
/// All per-peer and per-`(peer, net)` state lives in dense vectors
/// indexed by node id (and plane) — ids are small and sequential, so
/// dense indexing is both the fastest lookup and, unlike the former
/// `std::collections::HashMap`s, free of any SipHash seeding that could
/// leak into iteration order.
#[derive(Debug, Clone)]
pub struct DrsDaemon {
    id: NodeId,
    n: usize,
    cfg: DrsConfig,
    peers: PeerTable,
    next_seq: u32,
    next_req: u64,
    /// Active discovery round per target, indexed by [`NodeId::idx`].
    discovery: Vec<Option<DiscoveryRound>>,
    /// Last discovery start per target, indexed by [`NodeId::idx`].
    last_discovery: Vec<Option<SimTime>>,
    /// Counters and the timestamped event log.
    pub metrics: DrsMetrics,
    /// Input journal for trace replay, present when
    /// [`DrsConfig::record_journal`] is on. Recording never changes what
    /// the daemon does.
    journal: Option<DaemonJournal>,
    // Observability spans, all clocked on simulation time. Recording
    // into them never schedules events or draws randomness, so the
    // instrumented daemon is event-for-event identical to PR-2's.
    /// Open span per monitored `(peer, net)` pair ([`Self::pair_idx`]):
    /// the in-flight monitor cycle. Closed into `probe_gap`/`probe_rtt`.
    probe_spans: Vec<Option<Span>>,
    /// Last time each `(peer, net)` pair answered a probe — the baseline
    /// for failure-detection latency.
    last_ok: Vec<Option<SimTime>>,
    /// Open repair span per destination ([`NodeId::idx`]): failure
    /// observed → new route installed. Closed into `reroute_complete`.
    pending_reroute: Vec<Option<Span>>,
    /// Probes sent by the current batched monitor cycle, awaiting the
    /// cycle's single timeout sweep. Recycled between cycles: the batched
    /// probe path performs no steady-state heap allocation.
    cycle_probes: Vec<(NodeId, NetId, u32)>,
    /// Batched-mode down-link backoff: cycles left to skip per pair.
    probe_skip: Vec<u64>,
    // Flight-recorder identities (all `None` while the recorder is off;
    // recording never changes what the daemon *does*, only what it can
    // explain afterwards).
    /// Last `ProbeSend` record per `(peer, net)` pair.
    probe_send_ref: Vec<Option<EventRef>>,
    /// Causal-chain tail per pair: the previous probe send, or the last
    /// good reply — so a chain walks send → … → send → last-good-recv.
    probe_chain_ref: Vec<Option<EventRef>>,
    /// Open `FailoverDecision` per destination, consumed by the
    /// `RerouteComplete` that closes the repair span.
    pending_reroute_ref: Vec<Option<EventRef>>,
    /// Pinned `LinkDown` chain head per pair, released on link-up.
    down_ref: Vec<Option<EventRef>>,
}

impl DrsDaemon {
    /// A daemon for host `id` in an `n`-host cluster.
    ///
    /// The link table is sized for the paper's two planes here and
    /// re-sized to the backend's actual redundancy degree in
    /// [`Self::handle_start`], where the daemon first sees it.
    ///
    /// # Panics
    /// Panics if the cluster has fewer than two hosts or more than the
    /// 2²⁴ the timer-token encoding supports.
    #[must_use]
    pub fn new(id: NodeId, n: usize, cfg: DrsConfig) -> Self {
        assert!(n >= 2, "DRS monitors peers; a cluster needs two hosts");
        assert!(n < (1 << 24), "cluster size exceeds token encoding");
        DrsDaemon {
            id,
            n,
            cfg,
            peers: PeerTable::new(id, n, 2),
            next_seq: 0,
            next_req: 0,
            discovery: vec![None; n],
            last_discovery: vec![None; n],
            metrics: DrsMetrics::default(),
            journal: if cfg.record_journal {
                Some(DaemonJournal::default())
            } else {
                None
            },
            probe_spans: vec![None; n * 2],
            last_ok: vec![None; n * 2],
            pending_reroute: vec![None; n],
            cycle_probes: Vec::new(),
            probe_skip: vec![0; n * 2],
            probe_send_ref: vec![None; n * 2],
            probe_chain_ref: vec![None; n * 2],
            pending_reroute_ref: vec![None; n],
            down_ref: vec![None; n * 2],
        }
    }

    /// Dense index of a `(peer, net)` pair into the per-pair vectors.
    fn pair_idx(&self, peer: NodeId, net: NetId) -> usize {
        peer.idx() * self.peers.planes() as usize + net.idx()
    }

    /// The daemon's view of its links.
    #[must_use]
    pub fn peer_table(&self) -> &PeerTable {
        &self.peers
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
        self.next_seq = (self.next_seq + 1) & 0xFF_FFFF;
        self.next_seq
    }

    /// Transmits one monitor probe to `(peer, net)`: sequence allocation,
    /// pending-probe bookkeeping, probe-gap span rotation and the echo
    /// itself — everything except timeout arming, which differs between
    /// the per-pair and batched monitor drivers. Returns the ICMP seq.
    fn send_probe(&mut self, io: &mut impl DrsIo, peer: NodeId, net: NetId) -> u32 {
        let seq = self.alloc_seq();
        self.peers.probe_sent(peer, net, seq);
        self.metrics.probes_sent += 1;
        // One monitor-cycle span per (peer, net): opening the new one
        // closes the old one into the probe-gap histogram — the realized
        // sweep period, stagger and backoff included.
        let span = Span::begin(io.now().0);
        let idx = self.pair_idx(peer, net);
        if let Some(prev) = self.probe_spans[idx].replace(span) {
            let gap = SimDuration(prev.elapsed_ns(span.start_ns()));
            io.probe_obs_mut().probe_gap.record(gap.as_nanos());
        }
        if self.cfg.record_probe_log {
            self.metrics.probe_log.push(ProbeRecord {
                at: io.now(),
                peer,
                net,
                seq,
            });
        }
        // Flight: this send's cause is the pair's chain tail (the
        // previous send, or the last good reply), and the send ref rides
        // on the frame so kernel loss sites can blame it.
        let sref = io.flight_record(
            TraceKind::ProbeSend,
            Some(net),
            u64::from(peer.0) << 32 | u64::from(seq),
            self.probe_chain_ref[idx],
        );
        if sref.is_some() {
            self.probe_send_ref[idx] = sref;
            self.probe_chain_ref[idx] = sref;
        }
        io.send_echo_traced(net, peer, ECHO_ID, seq, sref);
        seq
    }

    /// One batched monitor cycle: fan out every due `(peer, net)` probe
    /// inline — peers in id order, planes in order within each peer,
    /// exactly the per-pair timers' firing order — then arm a single
    /// timeout sweep and the next cycle. Two queue entries per cycle per
    /// daemon, against `2·K·(N-1)` for the per-pair driver.
    fn run_monitor_cycle(&mut self, io: &mut impl DrsIo) {
        self.cycle_probes.clear();
        let planes = self.peers.planes();
        for p in 0..self.n as u32 {
            let peer = NodeId(p);
            if peer == self.id {
                continue;
            }
            for net in NetId::planes(planes) {
                let idx = self.pair_idx(peer, net);
                if self.probe_skip[idx] > 0 {
                    // Down-link backoff: the per-pair driver stretches the
                    // re-arm delay; the batched driver skips whole cycles.
                    self.probe_skip[idx] -= 1;
                    continue;
                }
                let seq = self.send_probe(io, peer, net);
                self.cycle_probes.push((peer, net, seq));
                if self.peers.state(peer, net) == LinkState::Down {
                    self.probe_skip[idx] = self.cfg.down_probe_backoff - 1;
                }
                // Same retry hook as the per-pair driver: once per cycle
                // per peer, keyed to an actually-sent plane-A probe.
                if net == NetId::A && self.peers.peer_unreachable_direct(peer) {
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

    /// The batched cycle's single timeout sweep, covering every probe the
    /// cycle sent in the same pair order. Sound because the config
    /// guarantees `probe_timeout < probe_interval`: the sweep always
    /// fires before the next fan-out reuses the buffer.
    fn sweep_cycle_timeouts(&mut self, io: &mut impl DrsIo) {
        let probes = std::mem::take(&mut self.cycle_probes);
        for &(peer, net, seq) in &probes {
            self.metrics.timeouts += 1;
            let transition = self
                .peers
                .probe_timed_out(peer, net, seq, self.cfg.miss_threshold);
            if transition == Transition::WentDown {
                let sweep = self.record_timeout_sweep(io, peer, net);
                self.handle_link_down(io, peer, net, sweep);
            }
        }
        self.cycle_probes = probes;
    }

    /// Flight: the sweep record that declared `(peer, net)` overdue,
    /// caused by the probe send it gave up on.
    fn record_timeout_sweep(
        &mut self,
        io: &mut impl DrsIo,
        peer: NodeId,
        net: NetId,
    ) -> Option<EventRef> {
        let cause = self.probe_send_ref[self.pair_idx(peer, net)];
        io.flight_record(TraceKind::TimeoutSweep, Some(net), u64::from(peer.0), cause)
    }

    /// The direct network this daemon would prefer for `peer` right now,
    /// given its link beliefs: the lowest-numbered plane whose link is up
    /// — primary first, then the next healthy plane in order.
    fn best_direct(&self, peer: NodeId) -> Option<NetId> {
        self.peers.first_up(peer)
    }

    fn install(&mut self, io: &mut impl DrsIo, dst: NodeId, route: Route) {
        if io.route(dst) == Some(route) {
            return;
        }
        io.set_route(dst, route);
        self.metrics.route_changes += 1;
        self.metrics
            .log(io.now(), DrsEventKind::RouteChanged { dst, route });
        // A repair span for this destination closes on the first actual
        // route change after the failure — if discovery had to wait for
        // the peer to recover, the recorded latency honestly covers the
        // whole outage.
        if let Some(span) = self.pending_reroute[dst.idx()].take() {
            let elapsed = SimDuration(span.elapsed_ns(io.now().0));
            io.probe_obs_mut()
                .reroute_complete
                .record(elapsed.as_nanos());
            // Flight: exactly one completion per closed repair span, so
            // these records mirror the reroute_complete histogram 1:1.
            io.flight_record(
                TraceKind::RerouteComplete,
                None,
                elapsed.as_nanos(),
                self.pending_reroute_ref[dst.idx()].take(),
            );
            // Session layer: exactly one notification per closed repair
            // span, so the fluid workload engine can cross-check its
            // stall/resume accounting against `reroute_complete` 1:1.
            io.notify_reroute(dst);
        }
    }

    /// Repairs the route to `dst` after its current path broke: redundant
    /// direct link first, gateway discovery second. `cause` is the
    /// link-down record that forced the repair.
    fn repair_route(&mut self, io: &mut impl DrsIo, dst: NodeId, cause: Option<EventRef>) {
        let now = io.now();
        let newly_opened = self.pending_reroute[dst.idx()].is_none();
        self.pending_reroute[dst.idx()].get_or_insert_with(|| Span::begin(now.0));
        let direct = self.best_direct(dst);
        if newly_opened {
            // Flight: one decision per repair span, at the instant it
            // opens — mode says which repair path the daemon committed to.
            let mode = u64::from(direct.is_none());
            self.pending_reroute_ref[dst.idx()] = io.flight_record(
                TraceKind::FailoverDecision,
                None,
                u64::from(dst.0) << 1 | mode,
                cause,
            );
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
        sweep: Option<EventRef>,
    ) {
        self.metrics.link_down_events += 1;
        self.metrics
            .log(io.now(), DrsEventKind::LinkDown { peer, net });
        // Failure-detection latency: last healthy reply → this event. A
        // link that never answered has no baseline and records nothing
        // (no samples, not a fake zero).
        let idx = self.pair_idx(peer, net);
        let mut detect_ns = u64::MAX;
        if let Some(ok) = self.last_ok[idx] {
            let detect = io.now().since(ok);
            detect_ns = detect.as_nanos();
            io.probe_obs_mut().failover_detect.record(detect.as_nanos());
        }
        // Flight: the down transition carries the detect latency and is
        // pinned as a live chain head, so its ancestry (losses, last good
        // reply) survives ring eviction until the link recovers.
        let down = io.flight_record(TraceKind::LinkDown, Some(net), detect_ns, sweep);
        if let Some(head) = down {
            if let Some(old) = self.down_ref[idx].replace(head) {
                io.flight_release(old);
            }
            io.flight_pin(head);
        }

        // The direct route to this peer may have died...
        if io.route(peer) == Some(Route::Direct(net)) {
            self.repair_route(io, peer, down);
        }
        // ...and so may any route relaying through this peer on this net.
        let broken: Vec<NodeId> = io
            .routes()
            .iter()
            .filter_map(|(dst, route)| match route {
                Route::Via { gateway, net: gnet } if gateway == peer && gnet == net => Some(dst),
                _ => None,
            })
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
        reply: Option<EventRef>,
    ) {
        self.metrics.link_up_events += 1;
        self.metrics
            .log(io.now(), DrsEventKind::LinkUp { peer, net });
        // Flight: the revival names the reply that proved the link, and
        // the failure chain it ends is unpinned — its records may now be
        // evicted like any others.
        io.flight_record(TraceKind::LinkUp, Some(net), u64::from(peer.0), reply);
        let idx = self.pair_idx(peer, net);
        if let Some(head) = self.down_ref[idx].take() {
            io.flight_release(head);
        }

        // Any running discovery for this peer is obsolete.
        if let Some(round) = self.discovery[peer.idx()].as_mut() {
            round.decided = true;
        }

        let current = io.route(peer);
        let best = self
            .best_direct(peer)
            .expect("a link just came up, so some direct net is up");
        let should_move = match current {
            None => true,
            Some(Route::Via { .. }) => true,
            Some(Route::Direct(cur)) => {
                cur != best
                    && (self.cfg.prefer_primary || self.peers.state(peer, cur) == LinkState::Down)
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
        if let Some(last) = self.last_discovery[target.idx()] {
            let round_active = self.discovery[target.idx()]
                .as_ref()
                .is_some_and(|r| !r.decided);
            if round_active || now.since(last) < self.cfg.discovery_backoff {
                return;
            }
        }
        self.last_discovery[target.idx()] = Some(now);
        self.next_req += 1;
        let req_id = self.next_req;
        self.discovery[target.idx()] = Some(DiscoveryRound {
            req_id,
            offers: Vec::new(),
            decided: false,
        });
        self.metrics.discoveries += 1;
        self.metrics
            .log(now, DrsEventKind::DiscoveryStarted { target });
        let msg = DrsMsg::RouteRequest { target, req_id };
        for net in NetId::planes(self.peers.planes()) {
            io.broadcast_control(net, msg);
        }
        // Arm the decision/failure-detection window.
        io.set_timer(
            self.cfg.offer_window,
            token(KIND_OFFER_WINDOW, target, NetId::A, req_id & 0xFF_FFFF),
        );
    }

    fn handle_offer_window(&mut self, io: &mut impl DrsIo, target: NodeId, req_low: u64) {
        let Some(round) = self.discovery[target.idx()].as_ref() else {
            return;
        };
        if round.decided || round.req_id & 0xFF_FFFF != req_low {
            return;
        }
        if round.offers.is_empty() {
            self.discovery[target.idx()]
                .as_mut()
                .expect("present")
                .decided = true;
            self.metrics
                .log(io.now(), DrsEventKind::DiscoveryFailed { target });
            return;
        }
        let pick = match self.cfg.gateway_policy {
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
        self.discovery[target.idx()]
            .as_mut()
            .expect("present")
            .decided = true;
        self.metrics.gateway_failovers += 1;
        self.install(
            io,
            target,
            Route::Via {
                gateway: pick.0,
                net: pick.1,
            },
        );
    }

    fn handle_route_request(
        &mut self,
        io: &mut impl DrsIo,
        from: NodeId,
        net: NetId,
        target: NodeId,
        req_id: u64,
    ) {
        if target == self.id || from == self.id {
            return; // cannot gateway to ourselves
        }
        // Offer only with a live *direct* route to the target: one-hop
        // relays cannot form loops.
        let usable = match io.route(target) {
            Some(Route::Direct(tnet)) => self.peers.state(target, tnet) == LinkState::Up,
            _ => false,
        };
        if !usable {
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
        let Some(round) = self.discovery[target.idx()].as_mut() else {
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
    // exactly these four methods; everything above is internal.

    /// Boot: size the per-pair state to the backend's plane count and arm
    /// the monitor timers.
    pub fn handle_start(&mut self, io: &mut impl DrsIo) {
        // First sight of the environment: size the link table (and the
        // dense per-pair state) to the cluster's actual redundancy degree.
        let planes = io.planes();
        self.journal_input(io.now(), DaemonInput::Start { planes });
        self.peers = PeerTable::new(self.id, self.n, planes);
        let pairs = self.n * planes as usize;
        self.probe_spans = vec![None; pairs];
        self.last_ok = vec![None; pairs];
        self.probe_skip = vec![0; pairs];
        self.probe_send_ref = vec![None; pairs];
        self.probe_chain_ref = vec![None; pairs];
        self.down_ref = vec![None; pairs];
        if self.cfg.batched_monitor {
            // One cycle event drives the whole sweep (stagger does not
            // apply: the point of batching is the single timer).
            io.set_timer(SimDuration::ZERO, token(KIND_CYCLE, NodeId(0), NetId::A, 0));
            return;
        }
        // Arm one repeating probe timer per (peer, net) pair, staggered
        // across the first cycle so the shared medium never sees a burst.
        let pair_count = u64::from(planes) * (self.n - 1) as u64;
        let peers: Vec<NodeId> = self.peers.peers().collect();
        let mut k = 0u64;
        for peer in peers {
            for net in NetId::planes(planes) {
                let offset = if self.cfg.stagger {
                    SimDuration(self.cfg.probe_interval.as_nanos() * k / pair_count)
                } else {
                    SimDuration::ZERO
                };
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
                let seq = self.send_probe(io, peer, net);
                io.set_timer(
                    self.cfg.probe_timeout,
                    token(KIND_TIMEOUT, peer, net, seq as u64),
                );
                // Links believed down are re-probed at a (configurably)
                // relaxed rate: the outage is already being routed
                // around, so only recovery detection is at stake.
                let interval = if self.peers.state(peer, net) == LinkState::Down {
                    self.cfg
                        .probe_interval
                        .saturating_mul(self.cfg.down_probe_backoff)
                } else {
                    self.cfg.probe_interval
                };
                io.set_timer(interval, token(KIND_PROBE, peer, net, 0));

                // Retry loop for persistently unreachable peers: while both
                // direct links are down, keep re-discovering (rate-limited)
                // so a newly viable gateway is eventually found. Hooked to
                // the net-A probe only, to fire once per cycle per peer.
                if net == NetId::A && self.peers.peer_unreachable_direct(peer) {
                    self.start_discovery(io, peer);
                }
            }
            KIND_TIMEOUT => {
                self.metrics.timeouts += 1;
                let transition =
                    self.peers
                        .probe_timed_out(peer, net, payload as u32, self.cfg.miss_threshold);
                if transition == Transition::WentDown {
                    let sweep = self.record_timeout_sweep(io, peer, net);
                    self.handle_link_down(io, peer, net, sweep);
                }
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
        self.metrics.replies_received += 1;
        let now = io.now();
        // Round-trip of the monitor cycle's probe, measured against the
        // most recent request on this (peer, net) — probes never overlap
        // on a link because the timeout is armed under the interval.
        let idx = self.pair_idx(from, net);
        if let Some(span) = self.probe_spans[idx].as_ref() {
            let rtt = SimDuration(span.elapsed_ns(now.0));
            io.probe_obs_mut().probe_rtt.record(rtt.as_nanos());
        }
        self.last_ok[idx] = Some(now);
        // Flight: a good reply answers the pair's outstanding send and
        // resets the chain tail — future failure chains walk back to
        // *this* record as their last-good anchor.
        let rref = io.flight_record(
            TraceKind::ProbeRecv,
            Some(net),
            u64::from(from.0) << 32 | u64::from(seq),
            self.probe_send_ref[idx],
        );
        if rref.is_some() {
            self.probe_chain_ref[idx] = rref;
        }
        if self.peers.reply_received(from, net, now) == Transition::WentUp {
            self.handle_link_up(io, from, net, rref);
        }
    }

    /// A DRS control message arrived from `from` on `net`.
    pub fn handle_control(&mut self, io: &mut impl DrsIo, from: NodeId, net: NetId, msg: &DrsMsg) {
        self.journal_input(
            io.now(),
            DaemonInput::Control {
                from,
                net,
                msg: *msg,
            },
        );
        match *msg {
            DrsMsg::RouteRequest { target, req_id } => {
                self.handle_route_request(io, from, net, target, req_id);
            }
            DrsMsg::RouteOffer { target, req_id } => {
                self.handle_route_offer(io, from, net, target, req_id);
            }
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
