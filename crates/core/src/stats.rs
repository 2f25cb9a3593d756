//! Protocol-side measurement plumbing: latency histograms and the
//! probe-path observability block every [`crate::io::DrsIo`] backend owns.

use crate::time::SimDuration;

/// A log₂-bucketed latency histogram over nanosecond durations.
///
/// Bucket `i` covers durations `d` with `floor(log2(d)) == i` (bucket 0
/// additionally holds zero). 64 buckets cover the entire `u64` range, so
/// recording never saturates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; 64],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one duration.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        let bucket = if ns == 0 {
            0
        } else {
            63 - ns.leading_zeros() as usize
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded durations, or `None` if empty.
    #[must_use]
    pub fn mean(&self) -> Option<SimDuration> {
        if self.count == 0 {
            None
        } else {
            Some(SimDuration((self.sum_ns / self.count as u128) as u64))
        }
    }

    /// Smallest recorded duration, or `None` if empty.
    #[must_use]
    pub fn min(&self) -> Option<SimDuration> {
        (self.count > 0).then_some(SimDuration(self.min_ns))
    }

    /// Largest recorded duration, or `None` if empty.
    #[must_use]
    pub fn max(&self) -> Option<SimDuration> {
        (self.count > 0).then_some(SimDuration(self.max_ns))
    }

    /// Upper bound of the bucket containing the `q`-quantile (0 ≤ q ≤ 1),
    /// or `None` if empty. Log₂ buckets make this accurate to a factor of
    /// two — enough to distinguish "sub-second failover" from "three-minute
    /// timeout".
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile_upper_bound(&self, q: f64) -> Option<SimDuration> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let upper = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return Some(SimDuration(upper));
            }
        }
        Some(SimDuration(self.max_ns))
    }

    /// The raw per-bucket counts (64 log₂ buckets) — together with
    /// [`LatencyHistogram::count`], [`LatencyHistogram::sum_ns`] and the
    /// min/max these are the parts the observability layer rebuilds its
    /// own histograms from, exactly.
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Exact sum of all recorded durations, in nanoseconds.
    #[must_use]
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Per-daemon probe-path observability: the four histograms the unified
/// observability layer tracks for every routing daemon. The I/O backend
/// owns the storage (one [`ProbeObs`] per daemon, reachable through
/// [`crate::io::DrsIo::probe_obs_mut`]) so the protocol records into it
/// without depending on any particular backend, and harvesting merges
/// per-daemon histograms with the same exact, order-independent
/// arithmetic the histograms themselves guarantee.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeObs {
    /// Gap between consecutive probe transmissions to the same
    /// `(peer, net)` — the realized monitor cycle.
    pub probe_gap: LatencyHistogram,
    /// Probe round-trip time: echo request out → valid echo reply in.
    pub probe_rtt: LatencyHistogram,
    /// Failure-detection latency: last healthy reply on a link → the
    /// daemon declaring that link down.
    pub failover_detect: LatencyHistogram,
    /// Repair latency: failure observed → a changed route installed.
    pub reroute_complete: LatencyHistogram,
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
    fn histogram_basic_stats() {
        let mut h = LatencyHistogram::new();
        for ms in [1u64, 2, 3, 4] {
            h.record(SimDuration::from_millis(ms));
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), Some(SimDuration::from_micros(2500)));
        assert_eq!(h.min(), Some(SimDuration::from_millis(1)));
        assert_eq!(h.max(), Some(SimDuration::from_millis(4)));
    }

    #[test]
    fn empty_histogram_returns_none() {
        let h = LatencyHistogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.quantile_upper_bound(0.5), None);
    }

    #[test]
    fn zero_duration_recordable() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), Some(SimDuration::ZERO));
    }

    #[test]
    fn quantile_bounds_sample() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(SimDuration::from_millis(1));
        }
        h.record(SimDuration::from_secs(100));
        let median = h.quantile_upper_bound(0.5).unwrap();
        assert!(median < SimDuration::from_millis(3), "{median}");
        let p100 = h.quantile_upper_bound(1.0).unwrap();
        assert!(p100 >= SimDuration::from_secs(100));
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyHistogram::new();
        a.record(SimDuration::from_millis(1));
        let mut b = LatencyHistogram::new();
        b.record(SimDuration::from_secs(1));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), Some(SimDuration::from_secs(1)));
        assert_eq!(a.min(), Some(SimDuration::from_millis(1)));
    }

    #[test]
    fn probe_obs_merge_combines_all_channels() {
        let mut a = ProbeObs::default();
        a.probe_rtt.record(SimDuration::from_micros(40));
        a.probe_bytes = 74;
        let mut b = ProbeObs::default();
        b.probe_rtt.record(SimDuration::from_micros(60));
        b.failover_detect.record(SimDuration::from_millis(400));
        b.probe_bytes = 148;
        a.merge(&b);
        assert_eq!(a.probe_rtt.count(), 2);
        assert_eq!(a.failover_detect.count(), 1);
        assert_eq!(a.probe_gap.count(), 0);
        assert_eq!(a.probe_bytes, 222);
    }
}
