//! A named-metric registry: counters, gauges and histograms.
//!
//! One [`MetricsRegistry`] per worker, merged at the end — never shared
//! mutable state — is the concurrency model. All three metric families
//! merge with commutative, associative operations (sum for counters,
//! max for gauges, exact bucket-wise sum for histograms), and storage is
//! `BTreeMap`-keyed so iteration order — and therefore any serialized
//! report — is deterministic regardless of insertion or merge order.

use std::collections::BTreeMap;

use crate::hist::Histogram;

/// Named counters, gauges and histograms with deterministic merge.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `by` to the named counter (creating it at zero).
    pub fn inc(&mut self, name: &str, by: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += by;
        } else {
            self.counters.insert(name.to_string(), by);
        }
    }

    /// Current value of a counter (0 if never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Raises the named gauge to at least `v`. Gauges merge by `max` —
    /// the one gauge combinator that is order-independent across workers,
    /// which is why the registry models high-water marks rather than
    /// last-writer-wins instantaneous values.
    pub fn gauge_max(&mut self, name: &str, v: f64) {
        let g = self.gauges.entry(name.to_string()).or_insert(f64::MIN);
        if v > *g {
            *g = v;
        }
    }

    /// Current value of a gauge, `None` if never set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records one sample into the named histogram (creating it empty).
    pub fn record(&mut self, name: &str, sample: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(sample);
        } else {
            let mut h = Histogram::new();
            h.record(sample);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// The named histogram, if any sample was ever recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Folds another registry into this one. Commutative and associative
    /// metric-for-metric, so merging K worker registries yields the same
    /// result in any order — and equals having recorded everything into
    /// one registry.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            self.inc(name, *v);
        }
        for (name, v) in &other.gauges {
            self.gauge_max(name, *v);
        }
        for (name, h) in &other.histograms {
            if let Some(mine) = self.histograms.get_mut(name) {
                mine.merge(h);
            } else {
                self.histograms.insert(name.clone(), h.clone());
            }
        }
    }

    /// Counters in lexicographic name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Gauges in lexicographic name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Histograms in lexicographic name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = MetricsRegistry::new();
        assert_eq!(r.counter("probe_bytes"), 0);
        r.inc("probe_bytes", 74);
        r.inc("probe_bytes", 74);
        assert_eq!(r.counter("probe_bytes"), 148);
    }

    #[test]
    fn gauges_keep_the_high_water_mark() {
        let mut r = MetricsRegistry::new();
        assert_eq!(r.gauge("util"), None);
        r.gauge_max("util", 0.05);
        r.gauge_max("util", 0.03);
        assert_eq!(r.gauge("util"), Some(0.05));
        r.gauge_max("util", 0.25);
        assert_eq!(r.gauge("util"), Some(0.25));
    }

    #[test]
    fn histograms_record_and_report() {
        let mut r = MetricsRegistry::new();
        assert!(r.histogram("rtt").is_none());
        r.record("rtt", 100);
        r.record("rtt", 300);
        let h = r.histogram("rtt").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(300));
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = MetricsRegistry::new();
        a.inc("sent", 3);
        a.gauge_max("util", 0.1);
        a.record("rtt", 50);
        let mut b = MetricsRegistry::new();
        b.inc("sent", 4);
        b.inc("lost", 1);
        b.gauge_max("util", 0.2);
        b.record("rtt", 500);
        b.record("detect", 9);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("sent"), 7);
        assert_eq!(ab.counter("lost"), 1);
        assert_eq!(ab.gauge("util"), Some(0.2));
        assert_eq!(ab.histogram("rtt").unwrap().count(), 2);

        // Equal to recording everything into one registry.
        let mut whole = MetricsRegistry::new();
        whole.inc("sent", 7);
        whole.inc("lost", 1);
        whole.gauge_max("util", 0.1);
        whole.gauge_max("util", 0.2);
        whole.record("rtt", 50);
        whole.record("rtt", 500);
        whole.record("detect", 9);
        assert_eq!(ab, whole);
    }

    #[test]
    fn iteration_order_is_lexicographic() {
        let mut r = MetricsRegistry::new();
        r.inc("zeta", 1);
        r.inc("alpha", 1);
        r.inc("mid", 1);
        let names: Vec<&str> = r.counters().map(|(n, _)| n).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }
}
