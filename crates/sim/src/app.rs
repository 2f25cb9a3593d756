//! Application traffic: the server-to-server messages whose survival the
//! experiments measure, and the reliable transport that carries them.
//!
//! Workloads are pre-generated deterministic schedules of message sends
//! (when, from whom, to whom, how big). The voice-mail clusters the paper
//! describes exchanged modest request/response traffic between every pair
//! of servers; [`Workload::all_to_all`] models that, and
//! [`Workload::uniform_random`] gives a Poisson-like background load.
//!
//! One message is one flow carrying one payload segment, and one `Flow`
//! record in the core's flow table, indexed by its
//! [`FlowId`](drs_core::ids::FlowId). The sender retransmits on a
//! timeout with exponential backoff
//! ([`TransportConfig::rto_for_attempt`](crate::scenario::TransportConfig::rto_for_attempt))
//! and gives up after a configured retry budget — the TCP stand-in that
//! makes the paper's headline ("the new route is often found in the time
//! of a TCP retransmit, so server applications are unaware that a network
//! failure has occurred") measurable: if DRS repairs the route before the
//! first RTO fires, the retransmit succeeds invisibly; a reactive protocol
//! leaves the flow retrying until its own timeout machinery converges.
//! The timers, sends and acks are kernel behaviours (`world::kernel`).
//! The fluid session model ([`crate::workload`]) is a separate, coarser
//! fidelity and keeps no flow records.

use drs_obs::rng::Rng;

use drs_core::{NodeId, SimDuration, SimTime};

use crate::world::FlowOutcome;

/// One application message's transport state: the row of the flow table
/// for its [`FlowId`](drs_core::ids::FlowId).
#[derive(Clone, Copy)]
pub(crate) struct Flow {
    /// Sending host: the one that retransmits and that the ack reaches.
    pub(crate) src: NodeId,
    /// Final destination.
    pub(crate) dst: NodeId,
    /// Payload size in bytes.
    pub(crate) payload_bytes: u32,
    /// Transmission attempts so far: 0 until the send event fires.
    pub(crate) attempts: u32,
    /// When the send event fired (the latency epoch).
    pub(crate) first_sent: SimTime,
    /// How the flow ended; `None` while pending or outstanding.
    pub(crate) outcome: Option<FlowOutcome>,
}

impl Flow {
    /// A flow scheduled but not yet sent.
    pub(crate) fn new(src: NodeId, dst: NodeId, payload_bytes: u32) -> Self {
        Flow {
            src,
            dst,
            payload_bytes,
            attempts: 0,
            first_sent: SimTime::ZERO,
            outcome: None,
        }
    }

    /// Sent and awaiting its ack or its give-up.
    pub(crate) fn outstanding(&self) -> bool {
        self.attempts > 0 && self.outcome.is_none()
    }
}

/// One scheduled application message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppMessage {
    /// When the application hands the message to the transport.
    pub at: SimTime,
    /// Sending host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Payload size in bytes.
    pub payload_bytes: u32,
}

/// A deterministic schedule of application messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    messages: Vec<AppMessage>,
}

impl Workload {
    /// A steady stream between one pair: `count` messages every `interval`
    /// starting at `start`.
    #[must_use]
    pub fn periodic_pair(
        src: NodeId,
        dst: NodeId,
        start: SimTime,
        interval: SimDuration,
        count: usize,
        payload_bytes: u32,
    ) -> Self {
        assert_ne!(src, dst);
        let messages = (0..count)
            .map(|i| AppMessage {
                at: start + interval.saturating_mul(i as u64),
                src,
                dst,
                payload_bytes,
            })
            .collect();
        Workload { messages }
    }

    /// Every ordered pair exchanges one message per round: `rounds` rounds
    /// every `interval`, starting at `start`.
    #[must_use]
    pub fn all_to_all(
        n: usize,
        start: SimTime,
        interval: SimDuration,
        rounds: usize,
        payload_bytes: u32,
    ) -> Self {
        let mut messages = Vec::with_capacity(rounds * n * (n - 1));
        for round in 0..rounds {
            let at = start + interval.saturating_mul(round as u64);
            for s in 0..n {
                for d in 0..n {
                    if s != d {
                        messages.push(AppMessage {
                            at,
                            src: NodeId(s as u32),
                            dst: NodeId(d as u32),
                            payload_bytes,
                        });
                    }
                }
            }
        }
        Workload { messages }
    }

    /// Poisson-like background traffic: `count` messages with uniformly
    /// random send times in `[start, start + span)` and uniformly random
    /// distinct endpoint pairs.
    #[must_use]
    pub fn uniform_random(
        n: usize,
        start: SimTime,
        span: SimDuration,
        count: usize,
        payload_bytes: u32,
        rng: &mut Rng,
    ) -> Self {
        assert!(n >= 2, "need at least two hosts");
        assert!(span > SimDuration::ZERO, "need a positive span");
        let mut messages: Vec<AppMessage> = (0..count)
            .map(|_| {
                let src = rng.gen_range(0..n);
                let mut dst = rng.gen_range(0..n - 1);
                if dst >= src {
                    dst += 1;
                }
                AppMessage {
                    at: start + SimDuration(rng.gen_range(0..span.as_nanos())),
                    src: NodeId(src as u32),
                    dst: NodeId(dst as u32),
                    payload_bytes,
                }
            })
            .collect();
        messages.sort_by_key(|m| m.at);
        Workload { messages }
    }

    /// The scheduled messages.
    #[must_use]
    pub fn messages(&self) -> &[AppMessage] {
        &self.messages
    }

    /// Number of scheduled messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Whether the schedule is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_pair_spacing() {
        let w = Workload::periodic_pair(
            NodeId(0),
            NodeId(1),
            SimTime(1000),
            SimDuration::from_millis(10),
            3,
            256,
        );
        let at: Vec<u64> = w.messages().iter().map(|m| m.at.0).collect();
        assert_eq!(at, vec![1000, 10_001_000, 20_001_000]);
    }

    #[test]
    fn all_to_all_counts() {
        let w = Workload::all_to_all(4, SimTime::ZERO, SimDuration::from_secs(1), 2, 128);
        assert_eq!(w.len(), 2 * 4 * 3);
        assert!(w.messages().iter().all(|m| m.src != m.dst));
    }

    #[test]
    fn uniform_random_no_self_messages_and_sorted() {
        let mut rng = Rng::seed_from_u64(9);
        let w = Workload::uniform_random(
            5,
            SimTime::ZERO,
            SimDuration::from_secs(10),
            500,
            64,
            &mut rng,
        );
        assert_eq!(w.len(), 500);
        assert!(w.messages().iter().all(|m| m.src != m.dst));
        assert!(w.messages().windows(2).all(|p| p[0].at <= p[1].at));
        // Every node appears as a source eventually.
        let sources: std::collections::HashSet<_> = w.messages().iter().map(|m| m.src).collect();
        assert_eq!(sources.len(), 5);
    }

    #[test]
    fn uniform_random_deterministic_per_seed() {
        let gen = |seed| {
            let mut rng = Rng::seed_from_u64(seed);
            Workload::uniform_random(
                4,
                SimTime::ZERO,
                SimDuration::from_secs(1),
                50,
                64,
                &mut rng,
            )
        };
        assert_eq!(gen(1), gen(1));
        assert_ne!(gen(1), gen(2));
    }
}
