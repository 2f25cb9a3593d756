//! Daemon-side observability: counters and a timestamped event log.
//!
//! The experiments measure DRS from the outside (did the application
//! notice?) *and* from the inside: when was a failure detected, when was
//! the route repaired, how often did repair need a gateway. The event log
//! records every state transition with its virtual timestamp so the
//! benches can compute detection and repair latencies against known fault
//! injection times.

use crate::ids::{NetId, NodeId};
use crate::routes::Route;
use crate::time::SimTime;

/// A state transition observed by one daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrsEventKind {
    /// A `(peer, net)` link was declared down.
    LinkDown {
        /// Peer whose link failed.
        peer: NodeId,
        /// Network on which it failed.
        net: NetId,
    },
    /// A `(peer, net)` link recovered.
    LinkUp {
        /// Peer whose link recovered.
        peer: NodeId,
        /// Network on which it recovered.
        net: NetId,
    },
    /// The kernel route to `dst` was changed.
    RouteChanged {
        /// Destination whose route changed.
        dst: NodeId,
        /// The newly installed route.
        route: Route,
    },
    /// A gateway discovery broadcast was sent for `target`.
    DiscoveryStarted {
        /// The unreachable peer.
        target: NodeId,
    },
    /// A discovery round ended with no usable offer.
    DiscoveryFailed {
        /// The peer that remained unreachable.
        target: NodeId,
    },
}

/// One timestamped daemon event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrsEvent {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub kind: DrsEventKind,
}

/// Aggregate counters plus the event log of one daemon.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrsMetrics {
    /// Probes transmitted.
    pub probes_sent: u64,
    /// Echo replies processed.
    pub replies_received: u64,
    /// Probe timeouts processed (stale ones included).
    pub timeouts: u64,
    /// Links declared down.
    pub link_down_events: u64,
    /// Links declared up again.
    pub link_up_events: u64,
    /// Route changes installed into the kernel.
    pub route_changes: u64,
    /// Failovers that used the redundant network directly.
    pub direct_failovers: u64,
    /// Failovers that installed a gateway route.
    pub gateway_failovers: u64,
    /// Reverts back to a direct route after recovery.
    pub reverts: u64,
    /// Discovery broadcasts sent.
    pub discoveries: u64,
    /// Gateway offers this daemon sent to others.
    pub offers_sent: u64,
    /// Echo replies and control messages dropped because they named a
    /// sender, plane or target outside this daemon's table — possible
    /// only off a real wire; the simulator's ids are always in range.
    pub ignored_inputs: u64,
    /// Timestamped transition log, kept sorted by timestamp ([`DrsMetrics::log`]).
    pub events: Vec<DrsEvent>,
}

impl DrsMetrics {
    /// Appends a timestamped event, keeping the log sorted by timestamp.
    ///
    /// The daemon logs in virtual-time order, so this is an O(1) push on
    /// the hot path; an out-of-order timestamp (a replayed or merged
    /// log) falls back to a sorted insert *after* existing events with
    /// the same timestamp, preserving arrival order among equals.
    pub fn log(&mut self, at: SimTime, kind: DrsEventKind) {
        let event = DrsEvent { at, kind };
        match self.events.last() {
            Some(last) if last.at > at => {
                let i = self.events.partition_point(|e| e.at <= at);
                self.events.insert(i, event);
            }
            _ => self.events.push(event),
        }
    }

    /// First event at or after `t0` matching `pred`, for latency
    /// measurements. Binary-searches to the first candidate timestamp
    /// (the log is sorted — see [`DrsMetrics::log`]), then scans only the
    /// tail, so dense logs stay cheap to query repeatedly.
    pub fn first_after(
        &self,
        t0: SimTime,
        mut pred: impl FnMut(&DrsEventKind) -> bool,
    ) -> Option<DrsEvent> {
        let start = self.events.partition_point(|e| e.at < t0);
        self.events[start..].iter().find(|e| pred(&e.kind)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_and_query() {
        let mut m = DrsMetrics::default();
        m.log(
            SimTime(10),
            DrsEventKind::LinkDown {
                peer: NodeId(1),
                net: NetId::A,
            },
        );
        m.log(
            SimTime(20),
            DrsEventKind::RouteChanged {
                dst: NodeId(1),
                route: Route::Direct(NetId::B),
            },
        );
        let hit = m
            .first_after(SimTime(0), |k| {
                matches!(k, DrsEventKind::RouteChanged { .. })
            })
            .unwrap();
        assert_eq!(hit.at, SimTime(20));
        assert!(m
            .first_after(SimTime(25), |k| matches!(
                k,
                DrsEventKind::RouteChanged { .. }
            ))
            .is_none());
    }

    fn discovery(target: u32) -> DrsEventKind {
        DrsEventKind::DiscoveryStarted {
            target: NodeId(target),
        }
    }

    #[test]
    fn out_of_order_insertion_keeps_the_log_sorted_and_queries_exact() {
        let mut m = DrsMetrics::default();
        for (t, target) in [
            (30u64, 30u32),
            (10, 10),
            (20, 20),
            (25, 25),
            (5, 5),
            (20, 21),
        ] {
            m.log(SimTime(t), discovery(target));
        }
        let times: Vec<u64> = m.events.iter().map(|e| e.at.0).collect();
        assert_eq!(times, [5, 10, 20, 20, 25, 30]);
        // Equal timestamps preserve arrival order: target 20 was logged
        // before target 21.
        let ats_20: Vec<u32> = m
            .events
            .iter()
            .filter(|e| e.at == SimTime(20))
            .map(|e| match e.kind {
                DrsEventKind::DiscoveryStarted { target } => target.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ats_20, [20, 21]);
        // Binary-searched queries agree with a linear scan at every cut.
        for t0 in 0..35u64 {
            let fast = m.first_after(SimTime(t0), |_| true);
            let slow = m.events.iter().find(|e| e.at >= SimTime(t0)).copied();
            assert_eq!(fast, slow, "t0={t0}");
        }
    }

    #[test]
    fn first_after_skips_earlier_matches() {
        let mut m = DrsMetrics::default();
        m.log(SimTime(1), discovery(1));
        m.log(SimTime(9), discovery(9));
        let hit = m.first_after(SimTime(2), |_| true).unwrap();
        assert_eq!(hit.at, SimTime(9));
    }
}
