//! Protocol-side measurement plumbing: the probe-path observability
//! block every [`crate::io::DrsIo`] backend owns.

use drs_obs::Histogram;

/// Per-daemon probe-path observability: the four histograms the unified
/// observability layer tracks for every routing daemon. The I/O backend
/// owns the storage (one [`ProbeObs`] per daemon, reachable through
/// [`crate::io::DrsIo::probe_obs_mut`]) so the protocol records into it
/// without depending on any particular backend, and harvesting merges
/// per-daemon histograms with the same exact, order-independent
/// arithmetic the histograms themselves guarantee. All four record
/// nanoseconds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeObs {
    /// Gap between consecutive probe transmissions to the same
    /// `(peer, net)` — the realized monitor cycle.
    pub probe_gap: Histogram,
    /// Probe round-trip time: echo request out → valid echo reply in.
    pub probe_rtt: Histogram,
    /// Failure-detection latency: last healthy reply on a link → the
    /// daemon declaring that link down.
    pub failover_detect: Histogram,
    /// Repair latency: failure observed → a changed route installed.
    pub reroute_complete: Histogram,
    /// Probe traffic this daemon originated, in on-wire bytes — echo
    /// requests only; echo auto-replies are accounted by the transport
    /// medium underneath. Together they are the measured side of the
    /// Figure 1 bandwidth budget.
    pub probe_bytes: u64,
}

impl ProbeObs {
    /// Merges another daemon's probe observations into this one.
    pub fn merge(&mut self, other: &ProbeObs) {
        self.probe_gap.merge(&other.probe_gap);
        self.probe_rtt.merge(&other.probe_rtt);
        self.failover_detect.merge(&other.failover_detect);
        self.reroute_complete.merge(&other.reroute_complete);
        self.probe_bytes += other.probe_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_obs_merge_combines_all_channels() {
        let mut a = ProbeObs::default();
        a.probe_rtt.record(40_000);
        a.probe_bytes = 74;
        let mut b = ProbeObs::default();
        b.probe_rtt.record(60_000);
        b.failover_detect.record(400_000_000);
        b.probe_bytes = 148;
        a.merge(&b);
        assert_eq!(a.probe_rtt.count(), 2);
        assert_eq!(a.failover_detect.count(), 1);
        assert_eq!(a.probe_gap.count(), 0);
        assert_eq!(a.probe_bytes, 222);
    }
}
