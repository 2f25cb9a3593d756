//! Measurement plumbing: per-host kernel counters and application-level
//! statistics. The protocol-facing piece — [`drs_core::ProbeObs`] —
//! lives in [`drs_core::stats`] so daemons can record observations
//! through any I/O backend.

use drs_obs::Histogram;

/// Per-host event counters maintained by the simulator core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostCounters {
    /// Echo requests this host answered.
    pub echo_answered: u64,
    /// Echo requests this host transmitted.
    pub echo_sent: u64,
    /// Control messages transmitted.
    pub control_sent: u64,
    /// Control messages received.
    pub control_received: u64,
    /// Data frames forwarded on behalf of other hosts (gateway work).
    pub forwarded: u64,
    /// Data frames dropped for lack of a route.
    pub dropped_no_route: u64,
    /// Data frames dropped because the TTL expired (would-be loop).
    pub dropped_ttl: u64,
    /// Frames that could not be transmitted because the local NIC was down.
    pub tx_nic_down: u64,
    /// Inbound frames lost to wire corruption (random frame loss or a
    /// degraded link on either end).
    pub rx_corrupt: u64,
}

/// Cluster-wide application-level statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AppStats {
    /// Application messages handed to the transport.
    pub sent: u64,
    /// Messages acknowledged end-to-end.
    pub delivered: u64,
    /// Retransmissions performed by the transport.
    pub retransmits: u64,
    /// Messages abandoned after the retry budget.
    pub gave_up: u64,
    /// Messages that failed instantly for lack of any route.
    pub no_route: u64,
    /// End-to-end latency of delivered messages (first send → ack), in
    /// nanoseconds.
    pub latency: Histogram,
}

impl AppStats {
    /// Delivered fraction of sent messages (1.0 when nothing was sent).
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        if self.sent == 0 {
            1.0
        } else {
            self.delivered as f64 / self.sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_ratio_edge_cases() {
        let mut s = AppStats::default();
        assert_eq!(s.delivery_ratio(), 1.0);
        s.sent = 4;
        s.delivered = 3;
        assert_eq!(s.delivery_ratio(), 0.75);
    }
}
