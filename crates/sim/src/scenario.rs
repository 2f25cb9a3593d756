//! Cluster scenario configuration.
//!
//! Defaults model the paper's deployment: a 100 Mb/s shared-medium network
//! pair, 74-byte ICMP echo frames (64-byte ICMP payload in an Ethernet
//! frame), and a TCP-like transport whose first retransmission fires after
//! one second.

use drs_core::SimDuration;

/// On-wire size of an ICMP echo request/reply frame (64-byte ICMP
/// payload in an Ethernet frame).
pub(crate) const ICMP_WIRE_BYTES: u32 = 74;
/// On-wire size of a routing-daemon control frame sent at the default
/// size.
pub(crate) const CONTROL_WIRE_BYTES: u32 = 96;
/// Per-frame header overhead added to application payloads; an ack is
/// this header alone.
pub(crate) const DATA_HEADER_BYTES: u32 = 58;
/// Initial TTL on data segments (routing-loop backstop).
pub(crate) const TTL: u8 = 8;

/// Reliable-transport tuning (the stand-in for TCP).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// First retransmission timeout.
    pub initial_rto: SimDuration,
    /// RTO multiplier per retry (TCP-style exponential backoff).
    pub backoff_factor: u32,
    /// Retransmissions before the transport gives up.
    pub max_retries: u32,
}

impl TransportConfig {
    /// The retransmission timeout for a given attempt number (1-based),
    /// with exponential backoff: `initial_rto × backoff^(attempt-1)`,
    /// saturating.
    ///
    /// # Panics
    /// Panics if `attempt` is zero.
    #[must_use]
    pub fn rto_for_attempt(&self, attempt: u32) -> SimDuration {
        assert!(attempt >= 1, "attempts are 1-based");
        let factor = (self.backoff_factor as u64).saturating_pow(attempt - 1);
        self.initial_rto.saturating_mul(factor)
    }

    /// Worst-case time a flow can remain outstanding: the sum of all RTOs
    /// through the final attempt. Experiments use this to size their
    /// drain periods.
    #[must_use]
    pub fn max_flow_lifetime(&self) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for attempt in 1..=self.max_retries + 1 {
            total = total + self.rto_for_attempt(attempt);
        }
        total
    }
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            initial_rto: SimDuration::from_secs(1),
            backoff_factor: 2,
            max_retries: 6,
        }
    }
}

/// Full description of a simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Number of server hosts.
    pub n: usize,
    /// Redundancy degree `K`: how many independent network planes (shared
    /// segments) every host is attached to. The paper's cluster is exactly
    /// 2 — the default — and the committed artifacts all run at 2; larger
    /// values open the "beyond the paper" K-plane family.
    pub planes: u8,
    /// Data rate of each shared segment, bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay across a segment.
    pub propagation: SimDuration,
    /// Transport tuning.
    pub transport: TransportConfig,
    /// Probability that any individual frame is corrupted on the wire
    /// (applied per receiver). Healthy switched LANs sit at ~0; flaky
    /// cabling — the kind of fault the deployment study logs — can reach
    /// percents. Corrupted frames still consume bandwidth.
    pub frame_loss_rate: f64,
    /// Master seed; all in-world randomness derives from it.
    pub seed: u64,
}

impl ClusterSpec {
    /// A paper-faithful cluster of `n` hosts: two 100 Mb/s segments, 5 µs
    /// propagation, 74-byte probes.
    ///
    /// # Panics
    /// Panics if `n < 2` (experiments need at least one pair).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "a cluster needs at least two hosts");
        ClusterSpec {
            n,
            planes: 2,
            bandwidth_bps: 100_000_000,
            propagation: SimDuration::from_micros(5),
            transport: TransportConfig::default(),
            frame_loss_rate: 0.0,
            seed: 0,
        }
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the redundancy degree `K` (number of network planes).
    ///
    /// # Panics
    /// Panics if `planes < 2` — with one plane there is nothing to fail
    /// over to, and the paper's model has no meaning.
    #[must_use]
    pub fn planes(mut self, planes: u8) -> Self {
        assert!(planes >= 2, "a redundant cluster needs at least two planes");
        self.planes = planes;
        self
    }

    /// Sets the segment data rate.
    #[must_use]
    pub fn bandwidth_bps(mut self, bps: u64) -> Self {
        assert!(bps > 0, "bandwidth must be positive");
        self.bandwidth_bps = bps;
        self
    }

    /// Sets the propagation delay.
    #[must_use]
    pub fn propagation(mut self, d: SimDuration) -> Self {
        self.propagation = d;
        self
    }

    /// Sets the transport tuning.
    #[must_use]
    pub fn transport(mut self, t: TransportConfig) -> Self {
        self.transport = t;
        self
    }

    /// Sets the per-receiver frame corruption probability.
    #[must_use]
    pub fn frame_loss_rate(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "loss rate must be in [0, 1)");
        self.frame_loss_rate = p;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_network() {
        let s = ClusterSpec::new(8);
        assert_eq!(s.planes, 2, "the paper's cluster is two backplanes");
        assert_eq!(s.bandwidth_bps, 100_000_000);
        assert_eq!(s.transport.initial_rto, SimDuration::from_secs(1));
    }

    fn transport() -> TransportConfig {
        TransportConfig {
            initial_rto: SimDuration::from_secs(1),
            backoff_factor: 2,
            max_retries: 3,
        }
    }

    #[test]
    fn rto_backs_off_exponentially() {
        let c = transport();
        assert_eq!(c.rto_for_attempt(1), SimDuration::from_secs(1));
        assert_eq!(c.rto_for_attempt(2), SimDuration::from_secs(2));
        assert_eq!(c.rto_for_attempt(3), SimDuration::from_secs(4));
    }

    #[test]
    fn lifetime_is_sum_of_rtos() {
        // attempts 1..=4: 1 + 2 + 4 + 8 = 15 s.
        assert_eq!(transport().max_flow_lifetime(), SimDuration::from_secs(15));
    }

    #[test]
    fn huge_attempt_saturates() {
        let d = transport().rto_for_attempt(200);
        assert!(d > SimDuration::from_secs(1_000_000));
    }

    #[test]
    fn builder_chains() {
        let s = ClusterSpec::new(4)
            .seed(9)
            .bandwidth_bps(10_000_000)
            .propagation(SimDuration::from_micros(1));
        assert_eq!(s.seed, 9);
        assert_eq!(s.bandwidth_bps, 10_000_000);
        assert_eq!(s.propagation, SimDuration::from_micros(1));
    }

    #[test]
    fn loss_rate_builder() {
        let s = ClusterSpec::new(3).frame_loss_rate(0.01);
        assert_eq!(s.frame_loss_rate, 0.01);
    }

    #[test]
    #[should_panic(expected = "loss rate must be in")]
    fn silly_loss_rate_rejected() {
        let _ = ClusterSpec::new(3).frame_loss_rate(1.0);
    }

    #[test]
    #[should_panic(expected = "at least two hosts")]
    fn tiny_cluster_rejected() {
        let _ = ClusterSpec::new(1);
    }

    #[test]
    fn planes_builder() {
        assert_eq!(ClusterSpec::new(4).planes(3).planes, 3);
    }

    #[test]
    #[should_panic(expected = "at least two planes")]
    fn single_plane_rejected() {
        let _ = ClusterSpec::new(4).planes(1);
    }
}
