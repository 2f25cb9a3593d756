//! The daemon's entry points never index with an id they were handed.
//!
//! In the simulator every id is in range by construction; over real
//! sockets anyone can put any `src`, plane or `target` in a datagram.
//! `live::recv_loop` drops those at the socket (its own unit test), and
//! this suite hands the same ids straight to `handle_echo_reply` /
//! `handle_control` through [`ReplayIo`]: each is an ignored input —
//! counted on `DrsMetrics::ignored_inputs`, no panic, no send, no route
//! or link-state change. CI also runs it with `--release`, where
//! `debug_assert!` is compiled out.

use drs_core::{
    DaemonInput, DaemonJournal, DrsConfig, DrsDaemon, DrsEventKind, DrsMsg, NetId, NodeId, Route,
    RouteTable, SimDuration, SimTime,
};
use drs_io::ReplayIo;
use drs_sim::{ClusterSpec, FaultPlan, SimComponent, World};

const N: usize = 4;
/// The ICMP id of the daemon's own probes (`drs_core::daemon::ECHO_ID`).
const ECHO_ID: u32 = 0x0D25;
const ME: NodeId = NodeId(0);
/// Out of range, far out of range, and the daemon itself.
const STRANGERS: [NodeId; 3] = [NodeId(N as u32), NodeId(u32::MAX), ME];

fn cfg() -> DrsConfig {
    DrsConfig::default()
        .probe_timeout(SimDuration::from_millis(50))
        .probe_interval(SimDuration::from_millis(200))
        .record_journal(true)
}

/// Node 0's journal from a DES run in which node 1 loses both NICs at
/// t = 1 s, so node 0 ends up broadcasting for a gateway nobody can be.
fn isolated_peer_journal() -> DaemonJournal {
    let mut w = World::new(ClusterSpec::new(N).seed(5), |id| {
        DrsDaemon::new(id, N, cfg())
    });
    let t0 = SimTime(1_000_000_000);
    w.schedule_faults(
        FaultPlan::new()
            .fail_at(t0, SimComponent::Nic(NodeId(1), NetId::A))
            .fail_at(t0, SimComponent::Nic(NodeId(1), NetId::B)),
    );
    w.run_for(SimDuration::from_secs(3));
    w.protocol(ME).journal().expect("journaling on").clone()
}

/// A booted daemon with nothing else in its history.
fn booted() -> (DrsDaemon, ReplayIo) {
    let mut d = DrsDaemon::new(ME, N, cfg());
    let mut io = ReplayIo::new(ME, N, &DaemonJournal::default());
    io.step(&mut d, SimTime(0), DaemonInput::Start { planes: 2 });
    (d, io)
}

/// Replays node 0's journal up to the instant its first discovery round
/// for node 1 opens (request id 1, undecided, the offer window pending).
fn mid_discovery() -> (DrsDaemon, ReplayIo, SimTime) {
    let journal = isolated_peer_journal();
    let mut d = DrsDaemon::new(ME, N, cfg());
    let mut io = ReplayIo::new(ME, N, &journal);
    for rec in &journal.records {
        io.step(&mut d, rec.at, rec.input);
        if d.metrics.discoveries == 1 {
            assert!(d.peer_table().peer_unreachable_direct(NodeId(1)));
            return (d, io, rec.at);
        }
    }
    panic!("node 0 never started a discovery for the isolated peer");
}

fn control(
    io: &mut ReplayIo,
    d: &mut DrsDaemon,
    at: SimTime,
    from: NodeId,
    net: NetId,
    msg: DrsMsg,
) {
    io.step(d, at, DaemonInput::Control { from, net, msg });
}

#[test]
fn echo_replies_from_nowhere_are_ignored() {
    let (mut d, mut io) = booted();
    let at = SimTime(1_000);
    let mut sent = 0;
    for from in STRANGERS {
        for net in [NetId::A, NetId::B] {
            let input = DaemonInput::EchoReply {
                from,
                net,
                id: ECHO_ID,
                seq: 1,
            };
            io.step(&mut d, at, input);
            sent += 1;
        }
    }
    // A real peer, on planes the cluster does not have.
    for net in [NetId(2), NetId(7), NetId(255)] {
        let input = DaemonInput::EchoReply {
            from: NodeId(1),
            net,
            id: ECHO_ID,
            seq: 1,
        };
        io.step(&mut d, at, input);
        sent += 1;
    }
    assert_eq!(d.metrics.ignored_inputs, sent);
    assert_eq!(d.metrics.replies_received, 0, "none counted as a reply");
    assert!(d.metrics.events.is_empty());
    assert_eq!(io.probe_obs().probe_rtt.count(), 0);
    assert_eq!(*io.route_table(), RouteTable::new_default(ME, N));
    // Someone else's ping stays what it was: not ours, not counted.
    let foreign = DaemonInput::EchoReply {
        from: NodeId(9),
        net: NetId::A,
        id: 7,
        seq: 1,
    };
    io.step(&mut d, at, foreign);
    assert_eq!(d.metrics.ignored_inputs, sent);
    // And a genuine reply still lands.
    let genuine = DaemonInput::EchoReply {
        from: NodeId(1),
        net: NetId::B,
        id: ECHO_ID,
        seq: 1,
    };
    io.step(&mut d, at, genuine);
    assert_eq!(d.metrics.replies_received, 1);
    assert_eq!(
        d.peer_table()
            .link(NodeId(1), NetId::B)
            .unwrap()
            .last_seen
            .get(),
        Some(at)
    );
}

#[test]
fn route_requests_from_nowhere_get_no_offer() {
    let (mut d, mut io) = booted();
    let at = SimTime(1_000);
    let ask = |target| DrsMsg::RouteRequest { target, req_id: 1 };
    let mut sent = 0;
    // A booted daemon would offer for any peer (optimistic links, default
    // direct routes) — so every offer below would go to a stranger.
    for from in STRANGERS {
        control(&mut io, &mut d, at, from, NetId::A, ask(NodeId(1)));
        sent += 1;
    }
    for target in [NodeId(N as u32), NodeId(u32::MAX)] {
        control(&mut io, &mut d, at, NodeId(2), NetId::A, ask(target));
        sent += 1;
    }
    control(&mut io, &mut d, at, NodeId(2), NetId(7), ask(NodeId(1)));
    control(&mut io, &mut d, at, NodeId(2), NetId::B, ask(NodeId(2)));
    sent += 2;
    assert_eq!(d.metrics.ignored_inputs, sent);
    assert_eq!((d.metrics.offers_sent, io.controls_sent), (0, 0));
    // A request for a route to this daemon is what a real broadcast
    // delivers: declined, but not an ignored input.
    control(&mut io, &mut d, at, NodeId(2), NetId::A, ask(ME));
    assert_eq!(d.metrics.ignored_inputs, sent);
    assert_eq!(io.controls_sent, 0);
    // The genuine article is answered.
    control(&mut io, &mut d, at, NodeId(2), NetId::A, ask(NodeId(1)));
    assert_eq!((d.metrics.offers_sent, io.controls_sent), (1, 1));
}

#[test]
fn route_offers_from_nowhere_install_nothing() {
    let (mut d, mut io, at) = mid_discovery();
    let before = io.route_table().clone();
    let changes = d.metrics.route_changes;
    // The open round is for node 1 with request id 1, first offer wins:
    // any of these that got through would install a route at once.
    let offer = |target| DrsMsg::RouteOffer { target, req_id: 1 };
    let mut sent = 0;
    for from in STRANGERS {
        control(&mut io, &mut d, at, from, NetId::A, offer(NodeId(1)));
        sent += 1;
    }
    for target in [NodeId(N as u32), NodeId(u32::MAX)] {
        control(&mut io, &mut d, at, NodeId(2), NetId::A, offer(target));
        sent += 1;
    }
    control(&mut io, &mut d, at, NodeId(2), NetId(7), offer(NodeId(1)));
    // The unreachable peer offering itself as its own gateway.
    control(&mut io, &mut d, at, NodeId(1), NetId::B, offer(NodeId(1)));
    sent += 2;
    assert_eq!(d.metrics.ignored_inputs, sent);
    // An offer of a route to ourselves matches no round we could have.
    control(&mut io, &mut d, at, NodeId(2), NetId::A, offer(ME));
    assert_eq!(d.metrics.ignored_inputs, sent);
    assert_eq!(d.metrics.route_changes, changes);
    assert_eq!(*io.route_table(), before);
    // The round they all aimed at was live: a genuine offer takes it.
    control(&mut io, &mut d, at, NodeId(2), NetId::B, offer(NodeId(1)));
    let via = Route::Via {
        gateway: NodeId(2),
        net: NetId::B,
    };
    assert_eq!(io.route_table().get(NodeId(1)), Some(via));
    assert!(matches!(
        d.metrics.events.last().map(|e| e.kind),
        Some(DrsEventKind::RouteChanged { dst: NodeId(1), .. })
    ));
}

#[test]
fn inputs_before_boot_are_ignored_too() {
    let mut d = DrsDaemon::new(ME, N, cfg());
    let mut io = ReplayIo::new(ME, N, &DaemonJournal::default());
    let reply = DaemonInput::EchoReply {
        from: NodeId(1),
        net: NetId::A,
        id: ECHO_ID,
        seq: 1,
    };
    io.step(&mut d, SimTime(0), reply);
    let msg = DrsMsg::RouteRequest {
        target: NodeId(2),
        req_id: 1,
    };
    control(&mut io, &mut d, SimTime(0), NodeId(1), NetId::A, msg);
    assert_eq!(d.metrics.ignored_inputs, 2);
    assert_eq!(d.peer_table().planes(), 0, "no table before boot");
    assert_eq!(io.controls_sent, 0);
}
