//! Log2-bucketed histograms with exact counts and quantile upper bounds.
//!
//! A [`Histogram`] records non-negative `u64` samples (the stack uses
//! nanosecond durations) into 64 power-of-two buckets while keeping the
//! exact `count`, `sum`, `min` and `max`. Quantiles are reported as
//! *upper bounds*: the bucket ceiling of the bucket holding the target
//! sample, tightened to the recorded maximum. Everything is integer
//! arithmetic over fixed-size state, so merging worker histograms is
//! exact, commutative and associative — the property the parallel
//! experiment harness relies on for byte-stable artifacts.

/// Number of power-of-two buckets; covers the full `u64` range.
pub const BUCKETS: usize = 64;

/// A mergeable log2 histogram of `u64` samples with exact summary stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[i]` counts samples `v` with `floor(log2(max(v,1))) == i`.
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Bucket index of a sample: `floor(log2(v))`, with 0 mapping to bucket 0.
#[must_use]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        63 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i`: `2^(i+1) - 1`.
#[must_use]
fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical samples in O(1) — the session-weighted
    /// entry point the fluid workload layer uses to charge one
    /// interruption interval to every session that lived through it.
    /// `record_n(v, n)` is exactly equivalent to `n` calls of
    /// `record(v)` (same buckets, count, sum, min, max), so weighted
    /// histograms stay merge-exact. `n = 0` is a no-op.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(v)] += n;
        self.count += n;
        self.sum += u128::from(v) * u128::from(n);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another histogram into this one. Exact: the result is
    /// identical to having recorded both sample streams into one
    /// histogram, in any order.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded samples.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample, `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact mean of the recorded samples, `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Upper bound on the `q`-quantile (`0.0 ..= 1.0`): the ceiling of
    /// the bucket containing the `ceil(q · count)`-th smallest sample,
    /// tightened to the recorded maximum. `None` when the histogram is
    /// empty — "no samples" is *not* the same as "0 ns", and callers must
    /// surface the difference (artifacts print `null`, tables print `—`).
    #[must_use]
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q * self.count as f64).ceil().max(1.0) as u64).min(self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Some(bucket_upper_bound(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// The fixed percentile report every artifact row carries.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            mean: self.mean(),
            min: self.min(),
            max: self.max(),
            p50: self.quantile_upper_bound(0.50),
            p90: self.quantile_upper_bound(0.90),
            p99: self.quantile_upper_bound(0.99),
            p999: self.quantile_upper_bound(0.999),
        }
    }
}

/// The standard summary of one histogram: exact count/mean/min/max and
/// the `p50/p90/p99/p999` quantile upper bounds. All optional fields are
/// `None` for an empty histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Exact mean, `None` when empty.
    pub mean: Option<f64>,
    /// Exact minimum, `None` when empty.
    pub min: Option<u64>,
    /// Exact maximum, `None` when empty.
    pub max: Option<u64>,
    /// Upper bound on the median.
    pub p50: Option<u64>,
    /// Upper bound on the 90th percentile.
    pub p90: Option<u64>,
    /// Upper bound on the 99th percentile.
    pub p99: Option<u64>,
    /// Upper bound on the 99.9th percentile.
    pub p999: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_n_equals_n_records() {
        let mut weighted = Histogram::new();
        let mut looped = Histogram::new();
        for (v, n) in [(0u64, 3u64), (7, 1), (1024, 5), (u64::MAX, 2)] {
            weighted.record_n(v, n);
            for _ in 0..n {
                looped.record(v);
            }
        }
        weighted.record_n(99, 0); // no-op
        assert_eq!(weighted, looped);
        assert_eq!(weighted.count(), 11);
    }

    #[test]
    fn empty_histogram_reports_none_everywhere() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile_upper_bound(q), None);
        }
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50, None);
    }

    #[test]
    fn zero_samples_are_distinct_from_no_samples() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.quantile_upper_bound(0.5), Some(0));
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(0));
        assert_eq!(h.mean(), Some(0.0));
    }

    #[test]
    fn exact_stats_track_samples() {
        let mut h = Histogram::new();
        for v in [3u64, 5, 1000, 7, 0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1015);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.mean(), Some(203.0));
    }

    #[test]
    fn quantile_bounds_bracket_the_true_quantiles() {
        let mut h = Histogram::new();
        let samples: Vec<u64> = (1..=1000).collect();
        for &v in &samples {
            h.record(v);
        }
        // The true q-quantile of 1..=1000 is ceil(q*1000); the bound must
        // be at least that and no more than its bucket ceiling.
        for (q, true_q) in [(0.5, 500u64), (0.9, 900), (0.99, 990), (0.999, 999)] {
            let bound = h.quantile_upper_bound(q).unwrap();
            assert!(bound >= true_q, "q={q}: bound {bound} < true {true_q}");
            assert!(bound <= bucket_upper_bound(bucket_index(true_q)));
        }
        // p100 is tightened to the exact max.
        assert_eq!(h.quantile_upper_bound(1.0), Some(1000));
    }

    #[test]
    fn bounds_are_tightened_to_the_max() {
        let mut h = Histogram::new();
        h.record(5);
        // Bucket ceiling for 5 is 7, but no sample exceeds 5.
        assert_eq!(h.quantile_upper_bound(0.5), Some(5));
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let samples: Vec<u64> = (0..200u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9) >> 7)
            .collect();
        let mut whole = Histogram::new();
        for &v in &samples {
            whole.record(v);
        }
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for (i, &v) in samples.iter().enumerate() {
            if i % 3 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        let mut lr = left.clone();
        lr.merge(&right);
        let mut rl = right.clone();
        rl.merge(&left);
        assert_eq!(lr, whole);
        assert_eq!(rl, whole);
    }

    #[test]
    fn merging_an_empty_histogram_is_identity() {
        let mut h = Histogram::new();
        h.record(17);
        let snapshot = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h, snapshot);
        let mut e = Histogram::new();
        e.merge(&snapshot);
        assert_eq!(e, snapshot);
    }

    #[test]
    fn extreme_samples_stay_exact() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), 2 * u128::from(u64::MAX));
        assert_eq!(h.quantile_upper_bound(1.0), Some(u64::MAX));
        assert_eq!(h.min(), Some(u64::MAX));
    }

    #[test]
    fn bucket_index_is_floor_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_upper_bound(0), 1);
        assert_eq!(bucket_upper_bound(1), 3);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
    }
}
