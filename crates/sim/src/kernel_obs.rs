//! Ratios over the driver's deterministic counters — workload density,
//! wheel chunk-pool hit rate — each a pure function of one [`KernelStats`]
//! snapshot (no wall clock), so the kernel benchmark artifact and
//! `benchmark/` can report kernel health from `World::kernel_stats()`
//! directly.

use crate::world::KernelStats;
use crate::ShardStats;

/// Busiest shard's event count over the per-shard mean: 1.0 for the one
/// shard [`ShardStats`] reports. It stays only because `benchmark/`
/// reads it; ROADMAP item 7 deletes it with [`ShardStats`].
#[must_use]
pub fn shard_balance(ss: &ShardStats) -> f64 {
    let total: u64 = ss.events_per_shard.iter().sum();
    let max = ss.events_per_shard.iter().copied().max().unwrap_or(0);
    if total == 0 || ss.events_per_shard.is_empty() {
        return 1.0;
    }
    max as f64 * ss.events_per_shard.len() as f64 / total as f64
}

/// Events popped per second of *virtual* time — the kernel's workload
/// density, independent of host speed. Zero before any time has passed.
#[must_use]
pub fn events_per_virtual_sec(ks: &KernelStats) -> f64 {
    if ks.now_ns == 0 {
        return 0.0;
    }
    ks.wheel.pops as f64 * 1e9 / ks.now_ns as f64
}

/// Fraction of the wheel's slot-chunk takes served by its free list.
/// 1.0 means no chunk was allocated.
#[must_use]
pub fn pool_hit_rate(ks: &KernelStats) -> f64 {
    let total = ks.wheel.pool_hits + ks.wheel.pool_misses;
    if total == 0 {
        return 0.0;
    }
    ks.wheel.pool_hits as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ClusterSpec;
    use crate::World;
    use drs_core::config::DrsConfig;
    use drs_core::daemon::DrsDaemon;
    use drs_core::SimDuration;

    #[test]
    fn drs_run_produces_live_kernel_ratios() {
        let n = 12;
        let cfg = DrsConfig::default();
        let mut w = World::new(ClusterSpec::new(n).seed(9), |id| DrsDaemon::new(id, n, cfg));
        w.run_for(SimDuration::from_secs(5));
        let (ks, ss) = (w.kernel_stats(), w.shard_stats());
        assert_eq!(
            ks.wheel.pops + ks.queue_depth,
            ks.wheel.pushes,
            "every scheduled event is popped or still queued"
        );
        assert_eq!(ks.clamped_past, 0);
        let rate = events_per_virtual_sec(&ks);
        assert!(rate > 0.0, "5 virtual seconds of probing: {rate}");
        let hit = pool_hit_rate(&ks);
        assert!(
            hit > 0.9,
            "steady-state probing must recycle buffers: {hit}"
        );
        assert_eq!(ss.events_per_shard, [ks.wheel.pops]);
        assert_eq!(shard_balance(&ss), 1.0);
    }

    #[test]
    fn rates_are_pure_functions_of_the_snapshot() {
        let ks = KernelStats::default();
        assert_eq!(events_per_virtual_sec(&ks), 0.0);
        assert_eq!(pool_hit_rate(&ks), 0.0);
        assert_eq!(shard_balance(&ShardStats::default()), 1.0);
    }
}
