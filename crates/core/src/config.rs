//! DRS daemon configuration.
//!
//! The probe cycle and miss threshold set the **detection latency /
//! bandwidth** trade-off that Figure 1 of the paper quantifies: every
//! `(peer, network)` pair is probed once per cycle, so shorter cycles
//! detect failures faster but consume more of the shared medium.

use crate::time::SimDuration;

/// How a requester chooses among gateway offers during route discovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GatewayPolicy {
    /// Install the first offer that arrives (fastest repair; the deployed
    /// behaviour).
    FirstOffer,
    /// Collect offers for a short window, then pick the lowest host id
    /// (deterministic tiebreak; concentrates relay load).
    LowestId,
    /// Collect offers for a short window, then pick uniformly at random
    /// (spreads relay load).
    Random,
}

/// Tunable parameters of one DRS daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrsConfig {
    /// Length of one full probe cycle: every monitored `(peer, net)` pair
    /// is probed once per cycle.
    pub probe_interval: SimDuration,
    /// How long to wait for an echo reply before counting a miss.
    pub probe_timeout: SimDuration,
    /// Consecutive misses before a link is declared down.
    pub miss_threshold: u32,
    /// Spread each cycle's probes evenly across the interval instead of
    /// bursting them all at the cycle boundary (reduces hub contention).
    pub stagger: bool,
    /// Prefer network A over B whenever both direct links are up (the
    /// deployed primary/secondary convention). When `false` the daemon
    /// keeps whichever live direct route it already has.
    pub prefer_primary: bool,
    /// Gateway selection policy for broadcast route discovery.
    pub gateway_policy: GatewayPolicy,
    /// How long to collect gateway offers before deciding (ignored by
    /// [`GatewayPolicy::FirstOffer`]).
    pub offer_window: SimDuration,
    /// Minimum spacing between discovery broadcasts for the same peer.
    pub discovery_backoff: SimDuration,
    /// Probe-interval multiplier for links currently believed **down**:
    /// 1 keeps full-rate probing (the deployed behaviour); larger values
    /// save bandwidth during long outages at the cost of proportionally
    /// slower *recovery* detection. Failure detection is unaffected (it
    /// happens while the link is still Up).
    pub down_probe_backoff: u64,
    /// Drive the whole monitor sweep from **one** per-daemon cycle timer
    /// that fans out every `(peer, net)` probe inline, instead of one
    /// repeating timer per pair. Cuts event-queue traffic per cycle from
    /// `O(K·N)` per daemon (`O(K·N²)` cluster-wide) to `O(1)` per daemon
    /// while sending the byte-identical probe sequence — provided
    /// `stagger` is off and `down_probe_backoff` is 1 (with backoff > 1
    /// the down-link re-probe times quantize to cycle boundaries, and
    /// batching ignores `stagger` entirely). Defaults to the legacy
    /// per-pair timers so existing artifacts stay byte-reproducible.
    pub batched_monitor: bool,
    /// Record every daemon input (start / timer / echo reply / control,
    /// with its arrival time) and every random gateway pick into a
    /// [`crate::journal::DaemonJournal`]. Off by default — the journal
    /// grows with the run — and exists so the replay backend can re-drive
    /// the daemon offline and byte-compare its decisions.
    pub record_journal: bool,
}

impl Default for DrsConfig {
    fn default() -> Self {
        DrsConfig {
            probe_interval: SimDuration::from_secs(1),
            probe_timeout: SimDuration::from_millis(200),
            miss_threshold: 2,
            stagger: true,
            prefer_primary: true,
            gateway_policy: GatewayPolicy::FirstOffer,
            offer_window: SimDuration::from_millis(10),
            discovery_backoff: SimDuration::from_secs(1),
            down_probe_backoff: 1,
            batched_monitor: false,
            record_journal: false,
        }
    }
}

impl DrsConfig {
    /// Sets the probe cycle length.
    ///
    /// # Panics
    /// Panics if the interval is zero or does not exceed the probe
    /// timeout (a cycle must outlive its own probes).
    #[must_use]
    pub fn probe_interval(mut self, d: SimDuration) -> Self {
        self.probe_interval = d;
        self.validate();
        self
    }

    /// Sets the per-probe reply timeout.
    ///
    /// # Panics
    /// Panics if the timeout is zero or not below the probe interval.
    #[must_use]
    pub fn probe_timeout(mut self, d: SimDuration) -> Self {
        self.probe_timeout = d;
        self.validate();
        self
    }

    /// Sets the consecutive-miss threshold.
    ///
    /// # Panics
    /// Panics if `k` is zero.
    #[must_use]
    pub fn miss_threshold(mut self, k: u32) -> Self {
        self.miss_threshold = k;
        self.validate();
        self
    }

    /// Enables or disables probe staggering.
    #[must_use]
    pub fn stagger(mut self, on: bool) -> Self {
        self.stagger = on;
        self
    }

    /// Sets the gateway selection policy.
    #[must_use]
    pub fn gateway_policy(mut self, p: GatewayPolicy) -> Self {
        self.gateway_policy = p;
        self
    }

    /// Enables or disables the primary-network preference.
    #[must_use]
    pub fn prefer_primary(mut self, on: bool) -> Self {
        self.prefer_primary = on;
        self
    }

    /// Sets the down-link probe backoff multiplier.
    ///
    /// # Panics
    /// Panics if `k` is zero.
    #[must_use]
    pub fn down_probe_backoff(mut self, k: u64) -> Self {
        self.down_probe_backoff = k;
        self.validate();
        self
    }

    /// Enables or disables the batched monitor cycle.
    #[must_use]
    pub fn batched_monitor(mut self, on: bool) -> Self {
        self.batched_monitor = on;
        self
    }

    /// Enables or disables input journalling for trace replay.
    #[must_use]
    pub fn record_journal(mut self, on: bool) -> Self {
        self.record_journal = on;
        self
    }

    /// Worst-case time from a fault occurring to the daemon declaring the
    /// link down: the fault can land just after a probe was answered, and
    /// then `miss_threshold` consecutive probes (one per cycle) must time
    /// out.
    #[must_use]
    pub fn worst_case_detection(&self) -> SimDuration {
        self.probe_interval
            .saturating_mul(self.miss_threshold as u64)
            + self.probe_timeout
    }

    /// Every rule the builders enforce, checked at once: the daemon runs
    /// it on the configuration it is handed, which a struct literal can
    /// build without a builder. A zero backoff would underflow the
    /// batched monitor's skip count, and a zero interval re-arm a down
    /// link's probe at the same instant forever.
    ///
    /// # Panics
    /// Panics naming the first rule `self` breaks.
    pub(crate) fn validate(&self) {
        assert!(
            self.probe_interval > SimDuration::ZERO,
            "probe interval must be positive"
        );
        assert!(
            self.probe_timeout > SimDuration::ZERO,
            "probe timeout must be positive"
        );
        assert!(
            self.probe_interval > self.probe_timeout,
            "probe interval ({}) must exceed the probe timeout ({})",
            self.probe_interval,
            self.probe_timeout
        );
        assert!(
            self.miss_threshold >= 1,
            "at least one miss is required to declare down"
        );
        assert!(
            self.down_probe_backoff >= 1,
            "backoff multiplier must be at least 1"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_coherent() {
        let c = DrsConfig::default();
        assert!(c.probe_interval > c.probe_timeout);
        assert!(c.miss_threshold >= 1);
        assert_eq!(
            c.worst_case_detection(),
            SimDuration::from_millis(2200),
            "2 cycles + timeout"
        );
    }

    #[test]
    fn builder_chains() {
        let c = DrsConfig::default()
            .probe_interval(SimDuration::from_millis(500))
            .probe_timeout(SimDuration::from_millis(50))
            .miss_threshold(3)
            .stagger(false)
            .prefer_primary(false)
            .gateway_policy(GatewayPolicy::Random);
        assert_eq!(c.probe_interval, SimDuration::from_millis(500));
        assert_eq!(c.miss_threshold, 3);
        assert!(!c.stagger);
        assert_eq!(c.gateway_policy, GatewayPolicy::Random);
    }

    #[test]
    fn down_probe_backoff_builder() {
        let c = DrsConfig::default().down_probe_backoff(8);
        assert_eq!(c.down_probe_backoff, 8);
    }

    #[test]
    #[should_panic(expected = "backoff multiplier")]
    fn zero_backoff_rejected() {
        let _ = DrsConfig::default().down_probe_backoff(0);
    }

    #[test]
    #[should_panic(expected = "must exceed the probe timeout")]
    fn interval_below_timeout_rejected() {
        let _ = DrsConfig::default().probe_interval(SimDuration::from_millis(100));
    }

    #[test]
    #[should_panic(expected = "at least one miss")]
    fn zero_threshold_rejected() {
        let _ = DrsConfig::default().miss_threshold(0);
    }
}
