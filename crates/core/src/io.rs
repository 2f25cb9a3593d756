//! The transport/timer boundary between the DRS daemon and the world.
//!
//! The daemon is a pure state machine: every handler takes
//! `&mut impl DrsIo` and the *same daemon bytes* run against any backend
//! that implements this trait. Three backends exist:
//!
//! * **DES** — `drs_sim` implements `DrsIo` for its `Ctx`, so the daemon
//!   runs inside the deterministic discrete-event kernel, `World`: one
//!   event loop on the calling thread.
//! * **Live UDP** — `drs_io::live` runs the daemon over real loopback
//!   sockets, one socket per plane, with wall-clock timers.
//! * **Replay** — `drs_io::replay` feeds a recorded input journal (see
//!   [`crate::journal`]) back through a fresh daemon and checks that its
//!   decisions byte-match the original run.
//!
//! # Determinism contract
//!
//! Handlers are re-entered only through the four daemon entry points
//! (`handle_start` / `handle_timer` / `handle_echo_reply` /
//! `handle_control`), and the daemon's state after a handler returns is a
//! pure function of its state before, the handler's arguments, and the
//! values the backend returned from [`DrsIo::now`] and [`DrsIo::pick`]
//! during the call. Each backend upholds its side as follows:
//!
//! * `now()` must be constant for the duration of one handler call
//!   (virtual time in the DES, the entry timestamp in the live backend,
//!   the journaled timestamp in replay) and non-decreasing across calls.
//! * `pick(n)` is the daemon's only source of randomness (used by the
//!   `GatewayPolicy::Random` offer choice). The DES backend draws from
//!   the per-host seeded stream — identical draws to the pre-trait
//!   daemon; the live backend draws from a locally seeded generator; the
//!   replay backend pops the journaled draw.
//! * `set_timer` may only fire *after* the handler returns; timers cannot
//!   be cancelled. Stale timers are the daemon's own problem — every
//!   token carries enough payload (probe seq, request id) for the daemon
//!   to recognize and ignore an out-of-date firing. This deliberate
//!   absence of `cancel_timer` keeps every backend's timer plumbing a
//!   plain monotonic queue.
//! * The `flight_*` hooks may drop records (ring eviction, recorder off —
//!   they return `None`) but must never influence control flow: the
//!   daemon behaves identically whether or not anything is recorded.
//! * Route reads ([`DrsIo::route`] / [`DrsIo::routes`]) must observe
//!   exactly the installs this daemon performed via [`DrsIo::set_route`]:
//!   the route table is per-host state no other writer touches.

use drs_obs::flight::{EventRef, TraceKind};

use crate::ids::{NetId, NodeId};
use crate::messages::DrsMsg;
use crate::routes::{Route, RouteTable};
use crate::stats::ProbeObs;
use crate::time::{SimDuration, SimTime};

/// Everything the DRS daemon asks of its environment: frames out, timers
/// armed, the clock, the kernel route table, and observability sinks.
///
/// See the [module docs](self) for the determinism contract each backend
/// must uphold.
pub trait DrsIo {
    /// The current time. Constant within one handler call.
    fn now(&self) -> SimTime;

    /// Number of redundant network planes (`K ≥ 2`).
    fn planes(&self) -> u8;

    /// Uniform draw from `0..n` — the daemon's only randomness source.
    ///
    /// # Panics
    /// Implementations may panic if `n == 0`; the daemon never asks.
    fn pick(&mut self, n: usize) -> usize;

    /// Sends an ICMP echo request to `dst` on `net`, tagged with the
    /// flight record that explains it (rides on the frame so loss sites
    /// can blame the send).
    fn send_echo_traced(
        &mut self,
        net: NetId,
        dst: NodeId,
        id: u32,
        seq: u32,
        flight: Option<EventRef>,
    );

    /// Sends a control message to one peer on `net`.
    fn send_control(&mut self, net: NetId, dst: NodeId, msg: DrsMsg);

    /// Broadcasts a control message to every host on `net`.
    fn broadcast_control(&mut self, net: NetId, msg: DrsMsg);

    /// Arms a one-shot timer `delay` from now carrying `token`. Timers
    /// cannot be cancelled — see the module docs.
    fn set_timer(&mut self, delay: SimDuration, token: u64);

    /// Installs (or replaces) the route to `dst`.
    fn set_route(&mut self, dst: NodeId, route: Route);

    /// The current route to `dst`, if any.
    fn route(&self, dst: NodeId) -> Option<Route>;

    /// The whole kernel route table of this host.
    fn routes(&self) -> &RouteTable;

    /// The probe-path observability block this daemon records into.
    fn probe_obs_mut(&mut self) -> &mut ProbeObs;

    /// Notifies the session layer that a failover repair completed: the
    /// daemon installed a working replacement route to `dst` and closed
    /// the repair span it had opened when the failure was first
    /// observed. Backends without a session layer ignore it (default
    /// no-op); the DES backend forwards it to the fluid workload engine,
    /// which uses it to resume stalled sessions' accounting and to
    /// cross-check its interruption SLOs against the daemon's
    /// `reroute_complete` histogram — the notification fires exactly
    /// once per recorded `reroute_complete` sample. Like the `flight_*`
    /// hooks, it must never influence daemon behavior.
    fn notify_reroute(&mut self, _dst: NodeId) {}

    /// Appends a causal flight record; `None` when nothing was recorded
    /// (recorder off). Must not affect behavior.
    fn flight_record(
        &mut self,
        kind: TraceKind,
        plane: Option<NetId>,
        arg: u64,
        cause: Option<EventRef>,
    ) -> Option<EventRef>;

    /// Pins a flight record against ring eviction.
    fn flight_pin(&mut self, r: EventRef);

    /// Releases a previously pinned flight record.
    fn flight_release(&mut self, r: EventRef);
}
