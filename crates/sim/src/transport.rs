//! Reliable-transport bookkeeping: the TCP stand-in.
//!
//! One application message is one flow carrying one payload segment. The
//! sender retransmits on a timeout with exponential backoff and gives up
//! after a configured retry budget — the behaviour that makes the paper's
//! headline observable ("the new route is often found in the time of a TCP
//! retransmit, so server applications are unaware that a network failure
//! has occurred") measurable: if DRS repairs the route before the first
//! RTO fires, the retransmit succeeds invisibly; a reactive protocol
//! leaves the flow retrying until its own timeout machinery converges.
//!
//! The retransmission *logic* (timer scheduling, resending) lives in the
//! simulator core, which owns the event queue; this module holds the state
//! and the pure timing calculations.

use std::collections::HashMap;

use drs_core::NodeId;

use crate::scenario::TransportConfig;
use drs_core::ids::FlowId;
use drs_core::{SimDuration, SimTime};

/// One in-flight (un-acknowledged) application message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutstandingSend {
    /// Final destination.
    pub dst: NodeId,
    /// Payload size in bytes.
    pub payload_bytes: u32,
    /// When the application first handed the message over (latency epoch).
    pub first_sent: SimTime,
    /// Transmission attempts so far (1 after the initial send).
    pub attempts: u32,
}

/// Per-host transport state: outstanding sends keyed by flow.
#[derive(Debug, Clone, Default)]
pub struct TransportState {
    outstanding: HashMap<FlowId, OutstandingSend>,
}

impl TransportState {
    /// Registers a new outstanding send.
    ///
    /// # Panics
    /// Panics if the flow is already outstanding (flow ids are unique).
    pub fn begin(&mut self, flow: FlowId, send: OutstandingSend) {
        let prev = self.outstanding.insert(flow, send);
        assert!(prev.is_none(), "duplicate flow {flow}");
    }

    /// Looks up an outstanding send.
    #[must_use]
    pub fn get(&self, flow: FlowId) -> Option<&OutstandingSend> {
        self.outstanding.get(&flow)
    }

    /// Mutable lookup (to bump attempt counters).
    pub fn get_mut(&mut self, flow: FlowId) -> Option<&mut OutstandingSend> {
        self.outstanding.get_mut(&flow)
    }

    /// Completes a flow (ack received or retry budget exhausted),
    /// returning its record if it was still outstanding.
    pub fn complete(&mut self, flow: FlowId) -> Option<OutstandingSend> {
        self.outstanding.remove(&flow)
    }

    /// Number of currently outstanding sends.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }
}

/// The retransmission timeout for a given attempt number (1-based), with
/// exponential backoff: `initial_rto × backoff^(attempt-1)`, saturating.
///
/// # Panics
/// Panics if `attempt` is zero.
#[must_use]
pub fn rto_for_attempt(config: &TransportConfig, attempt: u32) -> SimDuration {
    assert!(attempt >= 1, "attempts are 1-based");
    let factor = (config.backoff_factor as u64).saturating_pow(attempt - 1);
    config.initial_rto.saturating_mul(factor)
}

/// Worst-case time a flow can remain outstanding: the sum of all RTOs
/// through the final attempt. Experiments use this to size their drain
/// periods.
#[must_use]
pub fn max_flow_lifetime(config: &TransportConfig) -> SimDuration {
    let mut total = SimDuration::ZERO;
    for attempt in 1..=config.max_retries + 1 {
        total = total + rto_for_attempt(config, attempt);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TransportConfig {
        TransportConfig {
            initial_rto: SimDuration::from_secs(1),
            backoff_factor: 2,
            max_retries: 3,
        }
    }

    #[test]
    fn rto_backs_off_exponentially() {
        let c = cfg();
        assert_eq!(rto_for_attempt(&c, 1), SimDuration::from_secs(1));
        assert_eq!(rto_for_attempt(&c, 2), SimDuration::from_secs(2));
        assert_eq!(rto_for_attempt(&c, 3), SimDuration::from_secs(4));
    }

    #[test]
    fn lifetime_is_sum_of_rtos() {
        // attempts 1..=4: 1 + 2 + 4 + 8 = 15 s.
        assert_eq!(max_flow_lifetime(&cfg()), SimDuration::from_secs(15));
    }

    #[test]
    fn state_lifecycle() {
        let mut t = TransportState::default();
        let send = OutstandingSend {
            dst: NodeId(3),
            payload_bytes: 512,
            first_sent: SimTime(5),
            attempts: 1,
        };
        t.begin(FlowId(1), send);
        assert_eq!(t.in_flight(), 1);
        t.get_mut(FlowId(1)).unwrap().attempts += 1;
        assert_eq!(t.get(FlowId(1)).unwrap().attempts, 2);
        assert_eq!(t.complete(FlowId(1)).unwrap().dst, NodeId(3));
        assert_eq!(t.complete(FlowId(1)), None, "double completion is a no-op");
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate flow")]
    fn duplicate_flow_rejected() {
        let mut t = TransportState::default();
        let send = OutstandingSend {
            dst: NodeId(0),
            payload_bytes: 1,
            first_sent: SimTime(0),
            attempts: 1,
        };
        t.begin(FlowId(7), send);
        t.begin(FlowId(7), send);
    }

    #[test]
    fn huge_attempt_saturates() {
        let c = cfg();
        let d = rto_for_attempt(&c, 200);
        assert!(d > SimDuration::from_secs(1_000_000));
    }
}
