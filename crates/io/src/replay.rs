//! The trace-replay backend: re-drives a daemon from a recorded journal.
//!
//! A [`drs_core::journal::DaemonJournal`] captures everything the
//! [`DrsIo` determinism contract](drs_core::io) says a daemon run depends
//! on: the entry-point sequence with arrival times, and the `pick` draw
//! results. [`ReplayIo`] plays that back:
//!
//! * [`DrsIo::now`] returns the journaled timestamp of the record being
//!   replayed (constant within the handler call, monotone across calls —
//!   exactly the contract);
//! * [`DrsIo::pick`] pops the next journaled draw;
//! * [`DrsIo::set_timer`] is a no-op — timer *firings* are journal
//!   records, so arming them again would be double-driving;
//! * sends are counted but go nowhere (their effects come back as
//!   journaled inputs);
//! * routes and probe observations are local state, so the replayed
//!   daemon's decisions land somewhere comparable;
//! * flight hooks record nothing (`None`), which the contract requires
//!   to be behaviour-neutral.
//!
//! If the replayed daemon's metrics, event log, or route table differ
//! from the original run's, the daemon read state outside the trait —
//! that is the regression the golden suite exists to catch.

use drs_core::io::DrsIo;
use drs_core::journal::{DaemonInput, DaemonJournal};
use drs_core::messages::DrsMsg;
use drs_core::routes::{Route, RouteTable};
use drs_core::stats::ProbeObs;
use drs_core::time::{SimDuration, SimTime};
use drs_core::{DrsDaemon, NetId, NodeId};
use drs_obs::flight::EventRef;

/// `DrsIo` over a recorded journal. Build one with [`ReplayIo::new`],
/// then run the daemon through the whole journal with
/// [`replay_journal`] (or step records yourself for custom drivers).
#[derive(Debug)]
pub struct ReplayIo {
    picks: Vec<usize>,
    next_pick: usize,
    now: SimTime,
    planes: u8,
    routes: RouteTable,
    obs: ProbeObs,
    /// Frames the replayed daemon tried to send, by kind — useful for
    /// sanity checks; replay has no wire to put them on.
    pub echoes_sent: u64,
    /// Control messages (unicast + broadcast) the daemon tried to send.
    pub controls_sent: u64,
    /// Timer arms the daemon requested (ignored: firings are journaled).
    pub timers_armed: u64,
}

impl ReplayIo {
    /// A replay backend for `owner`'s daemon in an `n`-host cluster,
    /// starting from the deployed default route table (a direct primary
    /// route to every peer) — the same initial state a DES host boots
    /// with.
    #[must_use]
    pub fn new(owner: NodeId, n: usize, journal: &DaemonJournal) -> Self {
        ReplayIo {
            picks: journal.picks.clone(),
            next_pick: 0,
            now: SimTime(0),
            planes: 2,
            routes: RouteTable::new_default(owner, n),
            obs: ProbeObs::default(),
            echoes_sent: 0,
            controls_sent: 0,
            timers_armed: 0,
        }
    }

    /// Feeds one journal record into the daemon.
    pub fn step(&mut self, daemon: &mut DrsDaemon, at: SimTime, input: DaemonInput) {
        self.now = at;
        match input {
            DaemonInput::Start { planes } => {
                self.planes = planes;
                daemon.handle_start(self);
            }
            DaemonInput::Timer { token } => daemon.handle_timer(self, token),
            DaemonInput::EchoReply { from, net, id, seq } => {
                daemon.handle_echo_reply(self, from, net, id, seq);
            }
            DaemonInput::Control { from, net, msg } => {
                daemon.handle_control(self, from, net, &msg);
            }
        }
    }

    /// The replayed daemon's route table.
    #[must_use]
    pub fn route_table(&self) -> &RouteTable {
        &self.routes
    }

    /// The replayed daemon's probe observations.
    #[must_use]
    pub fn probe_obs(&self) -> &ProbeObs {
        &self.obs
    }

    /// Journaled draws not yet consumed (0 after a complete replay).
    #[must_use]
    pub fn picks_remaining(&self) -> usize {
        self.picks.len() - self.next_pick
    }
}

impl DrsIo for ReplayIo {
    fn now(&self) -> SimTime {
        self.now
    }

    fn planes(&self) -> u8 {
        self.planes
    }

    fn pick(&mut self, n: usize) -> usize {
        let i = self.picks.get(self.next_pick).copied().unwrap_or_else(|| {
            panic!(
                "replay exhausted journaled picks at draw {} — \
                 the daemon drew more randomness than the recorded run",
                self.next_pick
            )
        });
        self.next_pick += 1;
        assert!(i < n, "journaled pick {i} out of range 0..{n}");
        i
    }

    fn send_echo_traced(
        &mut self,
        _net: NetId,
        _dst: NodeId,
        _id: u32,
        _seq: u32,
        _flight: Option<EventRef>,
    ) {
        self.echoes_sent += 1;
        // Probe-byte accounting is backend work (the DES charges it in
        // `send_echo`), charged here at the deployed 74 B ICMP wire size
        // so a replayed `ProbeObs` compares equal to a default-spec run.
        self.obs.probe_bytes += 74;
    }

    fn send_control(&mut self, _net: NetId, _dst: NodeId, _msg: DrsMsg) {
        self.controls_sent += 1;
    }

    fn broadcast_control(&mut self, _net: NetId, _msg: DrsMsg) {
        self.controls_sent += 1;
    }

    fn set_timer(&mut self, _delay: SimDuration, _token: u64) {
        self.timers_armed += 1;
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

/// Replays a complete journal through a **fresh** daemon and returns the
/// backend for inspection. `daemon` must be constructed with the same
/// `(id, n, config)` as the recorded one; the journal supplies
/// everything else.
pub fn replay_journal(daemon: &mut DrsDaemon, journal: &DaemonJournal) -> ReplayIo {
    let mut io = ReplayIo::new(daemon.id(), daemon.n_nodes(), journal);
    for rec in &journal.records {
        io.step(daemon, rec.at, rec.input);
    }
    io
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_core::config::DrsConfig;
    use drs_core::journal::JournalRecord;

    fn journal_of(records: Vec<JournalRecord>) -> DaemonJournal {
        DaemonJournal {
            records,
            picks: Vec::new(),
        }
    }

    #[test]
    fn start_record_sizes_the_daemon_and_arms_nothing_real() {
        let n = 4;
        let mut d = DrsDaemon::new(NodeId(0), n, DrsConfig::default());
        let j = journal_of(vec![JournalRecord {
            at: SimTime(0),
            input: DaemonInput::Start { planes: 3 },
        }]);
        let io = replay_journal(&mut d, &j);
        assert_eq!(d.peer_table().planes(), 3);
        // Per-pair staggered timers: one per (peer, plane).
        assert_eq!(io.timers_armed, 3 * (n as u64 - 1));
        assert_eq!(io.echoes_sent, 0);
    }

    #[test]
    fn replay_time_follows_the_journal() {
        let n = 3;
        let mut d = DrsDaemon::new(NodeId(0), n, DrsConfig::default());
        let mut io = ReplayIo::new(NodeId(0), n, &DaemonJournal::default());
        io.step(&mut d, SimTime(7), DaemonInput::Start { planes: 2 });
        assert_eq!(DrsIo::now(&io), SimTime(7));
        io.step(
            &mut d,
            SimTime(19),
            DaemonInput::EchoReply {
                from: NodeId(1),
                net: NetId::A,
                id: 0,
                seq: 0,
            },
        );
        assert_eq!(DrsIo::now(&io), SimTime(19));
        // Foreign echo id: observed, counted nowhere, no sends triggered.
        assert_eq!(io.echoes_sent, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn corrupt_pick_is_rejected() {
        let mut io = ReplayIo::new(NodeId(0), 2, &DaemonJournal::default());
        io.picks = vec![5];
        let _ = io.pick(2);
    }
}
