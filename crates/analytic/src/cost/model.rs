//! Closed-form probe-cost model.

use drs_core::SimDuration;

/// Analytic model of DRS probe traffic on one shared network segment.
///
/// Probing is per-plane: each host probes every peer on **each** of the
/// cluster's `K` networks, but each plane's probes ride on that plane's
/// own segment. The per-segment load — and therefore Figure 1's
/// response-time curves — is independent of `K`, so the model has no
/// plane count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeCostModel {
    /// Segment data rate in bits per second (paper: 100 Mb/s).
    pub bandwidth_bps: u64,
    /// On-wire bytes of one echo frame (paper-faithful default: 74).
    pub frame_bytes: u32,
    /// Consecutive missed probes before a link is declared down
    /// (multiplies the response time; 1 reproduces the paper's curves).
    pub miss_threshold: u32,
}

impl Default for ProbeCostModel {
    fn default() -> Self {
        ProbeCostModel {
            bandwidth_bps: 100_000_000,
            frame_bytes: 74,
            miss_threshold: 1,
        }
    }
}

impl ProbeCostModel {
    /// Echo frames one full probe sweep puts on **each** segment:
    /// every ordered host pair exchanges a request and a reply.
    #[must_use]
    pub fn frames_per_sweep(&self, n: u64) -> u64 {
        assert!(n >= 2, "need at least two hosts");
        2 * n * (n - 1)
    }

    /// Bytes one sweep puts on each segment.
    #[must_use]
    pub fn bytes_per_sweep(&self, n: u64) -> u64 {
        self.frames_per_sweep(n) * self.frame_bytes as u64
    }

    /// The shortest sweep period that keeps probe traffic within a
    /// bandwidth budget `beta` (fraction of the segment rate).
    ///
    /// # Panics
    /// Panics unless `0 < beta <= 1`.
    #[must_use]
    pub fn min_sweep_period(&self, n: u64, beta: f64) -> SimDuration {
        assert!(beta > 0.0 && beta <= 1.0, "budget must be in (0, 1]");
        let bits = self.bytes_per_sweep(n) as f64 * 8.0;
        SimDuration::from_secs_f64(bits / (beta * self.bandwidth_bps as f64))
    }

    /// Error-resolution (response) time at budget `beta`: the failure must
    /// be missed `miss_threshold` consecutive sweeps before it is declared
    /// — Figure 1's y-axis.
    #[must_use]
    pub fn response_time(&self, n: u64, beta: f64) -> SimDuration {
        self.min_sweep_period(n, beta)
            .saturating_mul(self.miss_threshold as u64)
    }

    /// Fraction of the segment consumed by probing at a given sweep
    /// period.
    #[must_use]
    pub fn utilization(&self, n: u64, period: SimDuration) -> f64 {
        assert!(period > SimDuration::ZERO);
        let bits = self.bytes_per_sweep(n) as f64 * 8.0;
        bits / (self.bandwidth_bps as f64 * period.as_secs_f64())
    }

    /// The largest cluster whose response time stays within `target` at
    /// budget `beta` — the paper's "ninety hosts are supported in less
    /// than 1 second with only 10 % of the bandwidth".
    #[must_use]
    pub fn max_nodes(&self, beta: f64, target: SimDuration) -> u64 {
        // response_time is increasing in n; walk up (the quadratic gives
        // n ~ sqrt(target·beta·B / 16L), small enough to scan).
        let mut n = 2;
        while self.response_time(n + 1, beta) <= target {
            n += 1;
        }
        if self.response_time(2, beta) > target {
            0
        } else {
            n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_anchor_ninety_hosts_under_a_second_at_ten_percent() {
        let m = ProbeCostModel::default();
        let t = m.response_time(90, 0.10);
        assert!(
            t < SimDuration::from_secs(1),
            "paper: 90 hosts < 1 s at 10 %, got {t}"
        );
        assert!(t > SimDuration::from_millis(900), "and only just: {t}");
        assert!(m.max_nodes(0.10, SimDuration::from_secs(1)) >= 90);
    }

    #[test]
    fn sweep_accounting() {
        let m = ProbeCostModel::default();
        assert_eq!(m.frames_per_sweep(2), 4); // 2 requests + 2 replies
        assert_eq!(m.frames_per_sweep(90), 16_020);
        assert_eq!(m.bytes_per_sweep(90), 16_020 * 74);
    }

    #[test]
    fn response_time_is_quadratic_in_n() {
        let m = ProbeCostModel::default();
        let t10 = m.response_time(10, 0.10).as_secs_f64();
        let t20 = m.response_time(20, 0.10).as_secs_f64();
        // N(N-1): 90 vs 380 -> ratio 4.22.
        assert!((t20 / t10 - 380.0 / 90.0).abs() < 1e-6);
    }

    #[test]
    fn response_time_inverse_in_budget() {
        let m = ProbeCostModel::default();
        let t5 = m.response_time(50, 0.05).as_secs_f64();
        let t25 = m.response_time(50, 0.25).as_secs_f64();
        assert!((t5 / t25 - 5.0).abs() < 1e-6);
    }

    #[test]
    fn miss_threshold_multiplies_response() {
        let base = ProbeCostModel::default();
        let strict = ProbeCostModel {
            miss_threshold: 3,
            ..base
        };
        assert_eq!(
            strict.response_time(30, 0.1).as_nanos(),
            3 * base.response_time(30, 0.1).as_nanos()
        );
    }

    #[test]
    fn utilization_inverts_period() {
        let m = ProbeCostModel::default();
        let period = m.min_sweep_period(40, 0.15);
        let u = m.utilization(40, period);
        assert!((u - 0.15).abs() < 1e-9, "{u}");
    }

    #[test]
    fn max_nodes_monotone_in_budget() {
        let m = ProbeCostModel::default();
        let target = SimDuration::from_secs(1);
        let caps: Vec<u64> = [0.05, 0.10, 0.15, 0.25]
            .iter()
            .map(|&b| m.max_nodes(b, target))
            .collect();
        assert!(caps.windows(2).all(|w| w[0] < w[1]), "{caps:?}");
    }

    #[test]
    fn max_nodes_zero_when_impossible() {
        let m = ProbeCostModel::default();
        assert_eq!(m.max_nodes(0.0001, SimDuration::from_micros(1)), 0);
    }

    #[test]
    #[should_panic(expected = "budget must be in")]
    fn silly_budget_rejected() {
        let m = ProbeCostModel::default();
        let _ = m.min_sweep_period(10, 1.5);
    }
}
