//! Recorded daemon inputs for deterministic trace replay.
//!
//! The daemon is a pure state machine over the [`crate::io::DrsIo`]
//! boundary (see its determinism contract): its behaviour is fully
//! determined by the *inputs* it is handed (which handler fired, with
//! what arguments, at what time) plus the results of its
//! [`crate::io::DrsIo::pick`] draws. A [`DaemonJournal`] captures exactly
//! that — nothing more — so a fresh daemon driven through the journal by
//! the replay backend (`drs_io::replay`) must reproduce the original
//! run's metrics, event log, and route table byte-for-byte. Any
//! divergence means the daemon read state the trait does not declare,
//! which is precisely what the golden-replay suite exists to catch.
//!
//! Recording is enabled per daemon with
//! [`crate::config::DrsConfig::record_journal`] and costs one `Vec` push
//! per handler invocation; it is off by default.

use crate::ids::{NetId, NodeId};
use crate::messages::DrsMsg;
use crate::time::SimTime;

/// One daemon entry-point invocation, minus its timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaemonInput {
    /// `handle_start`: the daemon booted on a host with `planes` planes.
    Start {
        /// Plane count the backend reported at boot.
        planes: u8,
    },
    /// `handle_timer`: a previously armed timer fired.
    Timer {
        /// The opaque token the daemon armed the timer with.
        token: u64,
    },
    /// `handle_echo_reply`: an ICMP echo reply arrived.
    EchoReply {
        /// Replying peer.
        from: NodeId,
        /// Plane the reply arrived on.
        net: NetId,
        /// ICMP identifier.
        id: u32,
        /// ICMP sequence number.
        seq: u32,
    },
    /// `handle_control`: a DRS control message arrived.
    Control {
        /// Sending peer.
        from: NodeId,
        /// Plane the message arrived on.
        net: NetId,
        /// The message itself.
        msg: DrsMsg,
    },
}

/// One journal entry: an input and the time the backend reported for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalRecord {
    /// What `DrsIo::now()` returned throughout the handler call.
    pub at: SimTime,
    /// The entry point and its arguments.
    pub input: DaemonInput,
}

/// The complete recorded input history of one daemon.
///
/// `records` holds every entry-point invocation in arrival order;
/// `picks` holds the result of every [`crate::io::DrsIo::pick`] draw in
/// draw order (non-empty only under
/// [`crate::config::GatewayPolicy::Random`]). Together they are
/// sufficient to re-drive the daemon: replay walks `records` front to
/// back and hands back `picks` front to back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DaemonJournal {
    /// Entry-point invocations in arrival order.
    pub records: Vec<JournalRecord>,
    /// `pick` results in draw order.
    pub picks: Vec<usize>,
}

impl DaemonJournal {
    /// Appends one entry-point invocation.
    pub fn push(&mut self, at: SimTime, input: DaemonInput) {
        self.records.push(JournalRecord { at, input });
    }

    /// Appends one `pick` draw result.
    pub fn push_pick(&mut self, i: usize) {
        self.picks.push(i);
    }

    /// Number of recorded entry-point invocations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty() && self.picks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_accumulates_in_order() {
        let mut j = DaemonJournal::default();
        assert!(j.is_empty());
        j.push(SimTime(5), DaemonInput::Start { planes: 2 });
        j.push(SimTime(9), DaemonInput::Timer { token: 0xAB });
        j.push_pick(3);
        assert_eq!(j.len(), 2);
        assert!(!j.is_empty());
        assert_eq!(j.records[0].at, SimTime(5));
        assert_eq!(j.records[1].input, DaemonInput::Timer { token: 0xAB });
        assert_eq!(j.picks, vec![3]);
    }

    #[test]
    fn inputs_compare_structurally() {
        let a = DaemonInput::EchoReply {
            from: NodeId(3),
            net: NetId::A,
            id: 7,
            seq: 21,
        };
        let b = DaemonInput::Control {
            from: NodeId(3),
            net: NetId::A,
            msg: DrsMsg::RouteOffer {
                target: NodeId(1),
                req_id: 4,
            },
        };
        assert_ne!(a, b);
        assert_eq!(a, a);
    }
}
