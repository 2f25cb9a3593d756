//! The live backend: real daemons on real UDP sockets over loopback.
//!
//! Each node gets **one UDP socket per plane** (the analogue of one NIC
//! per network), all bound to `127.0.0.1:0` — an ip-less single-machine
//! mode that needs no interface configuration or privileges. Per node:
//!
//! * one receive thread per plane does blocking `recv_from`, answers
//!   `EchoRequest` datagrams directly (the stack's ICMP auto-reply — the
//!   daemon is never involved, exactly like the DES kernel), and forwards
//!   everything else to the node's event loop;
//! * one event-loop thread owns the daemon and a [`LiveIo`], multiplexing
//!   a monotonic timer heap against the inbound channel — the live
//!   equivalent of the DES event queue, with `Instant` as the clock.
//!
//! A **plane failure** is injected at the socket layer: a shared
//! per-plane flag that makes every sender skip and every receiver drop
//! datagrams on that plane — the loopback analogue of a hub losing
//! power. Probes stop flowing, daemons time out, declare links down and
//! fail over, and their event logs (stamped in nanoseconds since the
//! cluster epoch) yield a *real* failover latency to compare against the
//! DES prediction (`drs-bench live`).
//!
//! Everything here is `std`: blocking sockets, threads, channels. In
//! sandboxes that forbid even loopback sockets, [`LiveCluster::bind`]
//! reports [`LiveOutcome::Skipped`] instead of failing, so tests and
//! smoke drivers degrade gracefully.

use std::collections::BinaryHeap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use drs_core::config::DrsConfig;
use drs_core::io::DrsIo;
use drs_core::messages::DrsMsg;
use drs_core::routes::{Route, RouteTable};
use drs_core::stats::ProbeObs;
use drs_core::time::{SimDuration, SimTime};
use drs_core::{DrsDaemon, NetId, NodeId};
use drs_obs::flight::EventRef;
use drs_obs::rng::SplitMix64;

use crate::wire::{self, Datagram, Payload, MAX_DATAGRAM};

/// Shape of a live loopback cluster.
#[derive(Debug, Clone, Copy)]
pub struct LiveClusterSpec {
    /// Number of nodes (threads), `>= 2`.
    pub n: usize,
    /// Number of planes (sockets per node), `>= 2`.
    pub planes: u8,
    /// Daemon configuration. Live runs want probe intervals in the tens
    /// of milliseconds so a smoke test converges in wall-clock seconds.
    pub cfg: DrsConfig,
}

/// What one live run produced.
#[derive(Debug)]
pub struct LiveReport {
    /// Per-node daemon state after shutdown (metrics, event log).
    pub daemons: Vec<DrsDaemon>,
    /// Per-node route table at shutdown.
    pub routes: Vec<RouteTable>,
    /// Per-node probe observations (RTTs, detection latencies).
    pub obs: Vec<ProbeObs>,
    /// Per-node count of datagrams dropped at the socket on a live plane:
    /// ones that do not decode (unknown kind, or not exactly their
    /// kind's size), ones that name another plane than the socket they
    /// arrived on, and ones that name a host outside the cluster (or the
    /// node itself) as sender, or a host outside it as a control target.
    pub rejected: Vec<u64>,
    /// Per-node count of socket errors that ended a plane's receive
    /// thread early (timeouts and interrupted calls are retried and not
    /// counted). Non-zero means that node went deaf on a plane for a
    /// reason other than the injected failure.
    pub recv_errors: Vec<u64>,
    /// Nanoseconds since cluster epoch at which the plane was killed
    /// (`None` when no failure was injected).
    pub fail_at: Option<SimTime>,
}

impl LiveReport {
    /// Failure-detection latency per node for `plane`: first `LinkDown`
    /// on that plane logged after the injection, minus the injection
    /// time. Nodes that never noticed report `None`.
    #[must_use]
    pub fn detection_latencies(&self, plane: NetId) -> Vec<Option<SimDuration>> {
        let Some(fail_at) = self.fail_at else {
            return vec![None; self.daemons.len()];
        };
        self.daemons
            .iter()
            .map(|d| {
                d.metrics
                    .first_after(fail_at, |k| {
                        matches!(k, drs_core::metrics::DrsEventKind::LinkDown { net, .. }
                            if *net == plane)
                    })
                    .map(|e| e.at - fail_at)
            })
            .collect()
    }
}

/// Result of attempting a live run: ran, or skipped because the
/// environment refused loopback sockets.
#[derive(Debug)]
pub enum LiveOutcome {
    /// The cluster ran; here is what happened.
    Ran(LiveReport),
    /// Sockets could not be bound (sandbox); reason attached.
    Skipped(String),
}

/// A bound-but-not-yet-running live cluster.
pub struct LiveCluster {
    spec: LiveClusterSpec,
    sockets: Vec<Vec<UdpSocket>>,
    addrs: Arc<Vec<Vec<SocketAddr>>>,
    plane_up: Arc<Vec<AtomicBool>>,
}

impl LiveCluster {
    /// Binds `n × planes` loopback sockets. Returns `Err` with the OS
    /// error string when the environment refuses (callers usually map
    /// that to [`LiveOutcome::Skipped`]).
    ///
    /// # Panics
    /// Panics on a degenerate spec (`n < 2` or `planes < 2`).
    pub fn bind(spec: LiveClusterSpec) -> Result<Self, String> {
        assert!(spec.n >= 2, "a cluster needs two nodes");
        assert!(spec.planes >= 2, "DRS needs redundant planes");
        let mut sockets = Vec::with_capacity(spec.n);
        let mut addrs = Vec::with_capacity(spec.n);
        for _ in 0..spec.n {
            let mut per_plane = Vec::with_capacity(spec.planes as usize);
            let mut a = Vec::with_capacity(spec.planes as usize);
            for _ in 0..spec.planes {
                let sock = UdpSocket::bind("127.0.0.1:0")
                    .map_err(|e| format!("loopback bind refused: {e}"))?;
                a.push(
                    sock.local_addr()
                        .map_err(|e| format!("local_addr failed: {e}"))?,
                );
                per_plane.push(sock);
            }
            sockets.push(per_plane);
            addrs.push(a);
        }
        let plane_up = (0..spec.planes).map(|_| AtomicBool::new(true)).collect();
        Ok(LiveCluster {
            spec,
            sockets,
            addrs: Arc::new(addrs),
            plane_up: Arc::new(plane_up),
        })
    }

    /// Runs the cluster: `warmup` of healthy probing, then (optionally)
    /// kill `fail_plane` at the socket layer, run `after` longer, stop,
    /// and collect every daemon.
    ///
    /// # Panics
    /// Panics if a node thread panicked.
    #[must_use]
    pub fn run(self, warmup: Duration, fail_plane: Option<NetId>, after: Duration) -> LiveReport {
        let epoch = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::with_capacity(self.spec.n);
        for (i, planes) in self.sockets.into_iter().enumerate() {
            let node = NodeId(i as u32);
            let spec = self.spec;
            let addrs = Arc::clone(&self.addrs);
            let plane_up = Arc::clone(&self.plane_up);
            let stop = Arc::clone(&stop);
            handles.push(thread::spawn(move || {
                run_node(node, spec, planes, addrs, plane_up, epoch, stop)
            }));
        }
        thread::sleep(warmup);
        let fail_at = fail_plane.map(|p| {
            self.plane_up[p.idx()].store(false, Ordering::SeqCst);
            SimTime(elapsed_ns(epoch))
        });
        thread::sleep(after);
        stop.store(true, Ordering::SeqCst);
        let mut daemons = Vec::new();
        let mut routes = Vec::new();
        let mut obs = Vec::new();
        let mut rejected = Vec::new();
        let mut recv_errors = Vec::new();
        for h in handles {
            let (d, r, o, counts) = h.join().expect("node thread panicked");
            daemons.push(d);
            routes.push(r);
            obs.push(o);
            rejected.push(counts.rejected);
            recv_errors.push(counts.errors);
        }
        LiveReport {
            daemons,
            routes,
            obs,
            rejected,
            recv_errors,
            fail_at,
        }
    }
}

fn elapsed_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// `DrsIo` over sockets and the wall clock, owned by one node's event
/// loop. Public so custom live drivers can be written outside this
/// module, though most callers want [`LiveCluster`].
pub struct LiveIo {
    node: NodeId,
    planes: u8,
    /// Send half of each plane socket (receive halves live in the
    /// per-plane receiver threads).
    sockets: Vec<UdpSocket>,
    addrs: Arc<Vec<Vec<SocketAddr>>>,
    plane_up: Arc<Vec<AtomicBool>>,
    /// Frozen at handler entry, per the `DrsIo` contract.
    now: SimTime,
    /// Monotonic timer heap: `(deadline ns, token)`, earliest first.
    timers: BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    routes: RouteTable,
    obs: ProbeObs,
    /// SplitMix64 state for `pick` — seeded per node; live draws need no
    /// cross-run reproducibility, only uniformity.
    rng: SplitMix64,
}

impl LiveIo {
    fn send(&mut self, net: NetId, dst: NodeId, payload: Payload) {
        if !self.plane_up[net.idx()].load(Ordering::Relaxed) {
            return; // the plane's hub is dead: nothing transmits
        }
        let mut buf = [0u8; MAX_DATAGRAM];
        let len = wire::encode(
            &Datagram {
                src: self.node,
                net,
                payload,
            },
            &mut buf,
        );
        // UDP: errors are silent loss, which is what the protocol is
        // built to survive.
        let _ = self.sockets[net.idx()].send_to(&buf[..len], self.addrs[dst.idx()][net.idx()]);
    }
}

impl DrsIo for LiveIo {
    fn now(&self) -> SimTime {
        self.now
    }

    fn planes(&self) -> u8 {
        self.planes
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.rng.next_u64() % n as u64) as usize
    }

    fn send_echo_traced(
        &mut self,
        net: NetId,
        dst: NodeId,
        id: u32,
        seq: u32,
        _flight: Option<EventRef>,
    ) {
        self.obs.probe_bytes += 74; // ICMP-on-ethernet wire size, as in the DES
        self.send(net, dst, Payload::EchoRequest { id, seq });
    }

    fn send_control(&mut self, net: NetId, dst: NodeId, msg: DrsMsg) {
        self.send(net, dst, Payload::Control(msg));
    }

    fn broadcast_control(&mut self, net: NetId, msg: DrsMsg) {
        // Loopback UDP has no broadcast domain per plane; fan out.
        for i in 0..self.addrs.len() {
            let dst = NodeId(i as u32);
            if dst != self.node {
                self.send(net, dst, Payload::Control(msg));
            }
        }
    }

    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let deadline = self.now.0.saturating_add(delay.as_nanos());
        self.timers.push(std::cmp::Reverse((deadline, token)));
    }

    fn set_route(&mut self, dst: NodeId, route: Route) {
        self.routes.set(dst, route);
    }

    fn routes(&self) -> &RouteTable {
        &self.routes
    }

    fn probe_obs_mut(&mut self) -> &mut ProbeObs {
        &mut self.obs
    }
}

/// One node: spawn per-plane receivers, boot the daemon, multiplex
/// timers against inbound datagrams until `stop`.
fn run_node(
    node: NodeId,
    spec: LiveClusterSpec,
    sockets: Vec<UdpSocket>,
    addrs: Arc<Vec<Vec<SocketAddr>>>,
    plane_up: Arc<Vec<AtomicBool>>,
    epoch: Instant,
    stop: Arc<AtomicBool>,
) -> (DrsDaemon, RouteTable, ProbeObs, RecvCounts) {
    let (tx, rx) = mpsc::channel::<(NodeId, NetId, Payload)>();
    let mut recv_handles = Vec::new();
    let mut send_halves = Vec::new();
    for (p, sock) in sockets.into_iter().enumerate() {
        let net = NetId(p as u8);
        send_halves.push(sock.try_clone().expect("socket clone"));
        let reply_sock = sock.try_clone().expect("socket clone");
        let tx = tx.clone();
        let addrs = Arc::clone(&addrs);
        let plane_up = Arc::clone(&plane_up);
        let stop = Arc::clone(&stop);
        recv_handles.push(thread::spawn(move || {
            recv_loop(node, net, &sock, &reply_sock, &addrs, &plane_up, &stop, &tx)
        }));
    }
    drop(tx);

    let mut io = LiveIo {
        node,
        planes: spec.planes,
        sockets: send_halves,
        addrs,
        plane_up,
        now: SimTime(elapsed_ns(epoch)),
        timers: BinaryHeap::new(),
        routes: RouteTable::new_default(node, spec.n),
        obs: ProbeObs::default(),
        rng: SplitMix64::new(0x5EED ^ (u64::from(node.0) << 32)),
    };
    let mut daemon = DrsDaemon::new(node, spec.n, spec.cfg);
    daemon.handle_start(&mut io);

    while !stop.load(Ordering::SeqCst) {
        // Fire everything due, then sleep until the next deadline (capped
        // so the stop flag is honoured promptly).
        let now_ns = elapsed_ns(epoch);
        while let Some(&std::cmp::Reverse((deadline, token))) = io.timers.peek() {
            if deadline > now_ns {
                break;
            }
            io.timers.pop();
            io.now = SimTime(elapsed_ns(epoch));
            daemon.handle_timer(&mut io, token);
        }
        let wait =
            io.timers
                .peek()
                .map_or(Duration::from_millis(5), |&std::cmp::Reverse((d, _))| {
                    Duration::from_nanos(d.saturating_sub(elapsed_ns(epoch)))
                        .min(Duration::from_millis(5))
                });
        match rx.recv_timeout(wait) {
            Ok((from, net, payload)) => {
                io.now = SimTime(elapsed_ns(epoch));
                match payload {
                    Payload::EchoReply { id, seq } => {
                        daemon.handle_echo_reply(&mut io, from, net, id, seq);
                    }
                    Payload::Control(msg) => daemon.handle_control(&mut io, from, net, &msg),
                    // Echo requests are answered by the receiver thread
                    // and never forwarded; tolerate one anyway.
                    Payload::EchoRequest { .. } => {}
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    let mut counts = RecvCounts::default();
    for h in recv_handles {
        let plane = h.join().expect("receiver thread panicked");
        counts.rejected += plane.rejected;
        counts.errors += plane.errors;
    }
    (daemon, io.routes, io.obs, counts)
}

/// What a receive thread (or, summed, a node) reports at shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RecvCounts {
    /// Datagrams dropped as undecodable, mis-planed, or for the ids
    /// they carried.
    rejected: u64,
    /// Socket errors that ended a receive thread.
    errors: u64,
}

/// Whether a failed `recv_from` is the socket saying "nothing yet, call
/// again" — the read timeout expiring under either of its names, or a
/// signal interrupting the call — rather than an error to count and stop
/// on.
fn recv_should_retry(kind: std::io::ErrorKind) -> bool {
    use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    matches!(kind, WouldBlock | TimedOut | Interrupted)
}

/// Per-plane receiver: drop datagrams on dead planes, answer echo
/// requests in the stack (never waking the daemon), forward the rest.
/// Exits on `stop`, a closed channel, or a hard socket error, returning
/// how many datagrams it rejected (see [`LiveReport::rejected`]) and
/// whether such an error is why it stopped.
#[allow(clippy::too_many_arguments)]
fn recv_loop(
    node: NodeId,
    net: NetId,
    sock: &UdpSocket,
    reply_sock: &UdpSocket,
    addrs: &[Vec<SocketAddr>],
    plane_up: &[AtomicBool],
    stop: &AtomicBool,
    tx: &mpsc::Sender<(NodeId, NetId, Payload)>,
) -> RecvCounts {
    let mut counts = RecvCounts::default();
    sock.set_read_timeout(Some(Duration::from_millis(20)))
        .expect("read timeout");
    // One byte more than the largest datagram: a longer one is cut to
    // this size by the read and so cannot decode.
    let mut buf = [0u8; MAX_DATAGRAM + 1];
    while !stop.load(Ordering::SeqCst) {
        let len = match sock.recv_from(&mut buf) {
            Ok((len, _)) => len,
            Err(e) if recv_should_retry(e.kind()) => continue,
            Err(_) => {
                counts.errors += 1;
                break;
            }
        };
        if !plane_up[net.idx()].load(Ordering::Relaxed) {
            continue; // dead plane: the wire eats everything
        }
        // Anyone can send to a bound socket, and these ids index `addrs`
        // below and the daemon's tables later: the datagram must decode,
        // name this socket's plane, and come from another host of the
        // cluster; a control target must be any host of it.
        let Some(d) = wire::decode(&buf[..len]).filter(|d| {
            let target_known = match d.payload {
                Payload::Control(msg) => msg.target().idx() < addrs.len(),
                Payload::EchoRequest { .. } | Payload::EchoReply { .. } => true,
            };
            d.net == net && d.src != node && d.src.idx() < addrs.len() && target_known
        }) else {
            counts.rejected += 1;
            continue;
        };
        match d.payload {
            Payload::EchoRequest { id, seq } => {
                // Stack-level auto-reply, same plane, daemon asleep —
                // mirrors the DES kernel's EchoRequest handling.
                let mut out = [0u8; MAX_DATAGRAM];
                let n = wire::encode(
                    &Datagram {
                        src: node,
                        net,
                        payload: Payload::EchoReply { id, seq },
                    },
                    &mut out,
                );
                let _ = reply_sock.send_to(&out[..n], addrs[d.src.idx()][net.idx()]);
            }
            other => {
                if tx.send((d.src, net, other)).is_err() {
                    break;
                }
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_timeouts_and_interrupts_are_retried() {
        use std::io::ErrorKind;
        for retried in [
            ErrorKind::Interrupted,
            ErrorKind::WouldBlock,
            ErrorKind::TimedOut,
        ] {
            assert!(recv_should_retry(retried), "{retried:?}");
        }
        for counted in [ErrorKind::ConnectionReset, ErrorKind::Other] {
            assert!(!recv_should_retry(counted), "{counted:?}");
        }
    }

    /// The id the daemon's probes carry (`drs_core::daemon`'s `ECHO_ID`):
    /// a hostile reply must carry it to get past the daemon's first check.
    const ECHO_ID: u32 = 0x0D25;

    /// Anyone can send to a bound socket. Every datagram kind, carrying
    /// every id that indexes past (or onto) the receiver's tables, is
    /// queued on node 0's sockets before the cluster starts, and so are
    /// malformed datagrams from a cluster host: a short one, a control
    /// message with a trailing byte (19 B), a 100 B probe, an unknown
    /// kind and a reply naming the other plane. The run must drop and
    /// count them all at the socket, and otherwise behave as if they had
    /// never arrived.
    #[test]
    fn stray_datagrams_are_dropped_and_counted_not_indexed_with() {
        let n = 3;
        let spec = LiveClusterSpec {
            n,
            planes: 2,
            cfg: DrsConfig::default()
                .probe_timeout(SimDuration::from_millis(25))
                .probe_interval(SimDuration::from_millis(50)),
        };
        let cluster = match LiveCluster::bind(spec) {
            Ok(c) => c,
            Err(reason) => {
                eprintln!("skipping hostile-datagram test: {reason}");
                return;
            }
        };
        let node = NodeId(0);
        let strangers = [NodeId(n as u32), NodeId(u32::MAX), node];
        let control = |target| {
            [
                Payload::Control(DrsMsg::RouteRequest { target, req_id: 1 }),
                Payload::Control(DrsMsg::RouteOffer { target, req_id: 1 }),
            ]
        };
        let mut hostile = Vec::new();
        for src in strangers {
            hostile.push((
                src,
                Payload::EchoRequest {
                    id: ECHO_ID,
                    seq: 1,
                },
            ));
            hostile.push((
                src,
                Payload::EchoReply {
                    id: ECHO_ID,
                    seq: 1,
                },
            ));
            hostile.extend(control(NodeId(1)).map(|p| (src, p)));
        }
        for target in [NodeId(n as u32), NodeId(u32::MAX)] {
            hostile.extend(control(target).map(|p| (NodeId(1), p)));
        }
        // A target of the receiver itself is not hostile — a broadcast
        // request for a route to it looks exactly so — and is let through
        // to the daemon, which has nothing to do for either message.
        let benign = control(node).map(|p| (NodeId(1), p));

        let bytes = |src, net, payload| {
            let mut buf = vec![0u8; MAX_DATAGRAM];
            let len = wire::encode(&Datagram { src, net, payload }, &mut buf);
            buf.truncate(len);
            buf
        };
        let reply = Payload::EchoReply {
            id: ECHO_ID,
            seq: 1,
        };
        let malformed = |net: NetId| {
            let mut short = bytes(NodeId(1), net, reply);
            short.pop();
            let mut trailing = bytes(NodeId(1), net, control(NodeId(2))[0]);
            trailing.push(0);
            let mut jumbo = bytes(
                NodeId(1),
                net,
                Payload::EchoRequest {
                    id: ECHO_ID,
                    seq: 1,
                },
            );
            jumbo.resize(100, 0);
            let misplaned = bytes(NodeId(1), NetId(1 - net.0), reply);
            [short, trailing, jumbo, vec![9; 14], misplaned]
        };

        let sender = UdpSocket::bind("127.0.0.1:0").expect("bound a moment ago");
        let mut malformed_sent = 0;
        for net in NetId::planes(2) {
            let well_formed = hostile.iter().chain(&benign);
            let datagrams = well_formed.map(|&(src, payload)| bytes(src, net, payload));
            let garbage = malformed(net);
            malformed_sent += garbage.len() as u64;
            for datagram in datagrams.chain(garbage) {
                sender
                    .send_to(&datagram, cluster.addrs[node.idx()][net.idx()])
                    .expect("loopback send");
            }
        }

        let report = cluster.run(Duration::from_millis(400), None, Duration::ZERO);
        assert_eq!(
            report.rejected,
            [2 * hostile.len() as u64 + malformed_sent, 0, 0],
            "every hostile datagram is counted, on the node it hit"
        );
        assert_eq!(report.recv_errors, [0, 0, 0], "no receiver died");
        for (i, d) in report.daemons.iter().enumerate() {
            assert_eq!(
                d.metrics.ignored_inputs, 0,
                "node {i}: the socket caught them"
            );
            assert!(d.metrics.replies_received > 0, "node {i}: receivers alive");
            assert_eq!(d.metrics.link_down_events, 0, "node {i}");
            assert_eq!(d.metrics.route_changes, 0, "node {i}");
            assert_eq!(d.peer_table().down_count(), 0, "node {i}");
            assert_eq!(
                report.routes[i],
                RouteTable::new_default(NodeId(i as u32), n)
            );
        }
    }
}
