//! The DRS cluster scenario the simulator workloads share: the paper's
//! daemon timers, hub outages at seed-jittered instants, and one view
//! over the two kernel drivers (which share no trait in `drs-sim`).

use drs_core::{DrsConfig, DrsDaemon, Route};
use drs_harness::stream_seed;
use drs_sim::medium::MediumStats;
use drs_sim::world::KernelStats;
use drs_sim::{
    ClusterSpec, FaultPlan, NetId, NodeId, ShardedWorld, SimComponent, SimDuration, SimTime, World,
};

/// 50 ms timeout / 200 ms cycle: the compressed timers every committed
/// artifact uses. Per-pair staggered monitor unless `batched`.
#[must_use]
pub fn paper_cfg(batched: bool) -> DrsConfig {
    DrsConfig::default()
        .probe_timeout(SimDuration::from_millis(50))
        .probe_interval(SimDuration::from_millis(200))
        .batched_monitor(batched)
}

/// One hub outage `[fail, repair)` in virtual time.
#[derive(Debug, Clone, Copy)]
pub struct Outage {
    pub net: NetId,
    pub fail: SimTime,
    pub repair: SimTime,
}

/// Hub outages at the given virtual milliseconds plus a seed-derived
/// 1–999 ns offset. Callers pass multiples of half a probe cycle: probe
/// sends sit on the cycle grid (cycle start plus a stagger offset, and
/// half a cycle is itself such an offset), with replies and queued frames
/// following whole microseconds later, so the first microsecond after
/// such a boundary holds no transmission instant except the boundary
/// itself. A non-zero sub-µs offset therefore keeps hub toggles off
/// transmission instants — the one case where the serial and sharded
/// kernels order differently (the repo's `…_123` convention). The traced
/// run's cross-driver digest check would catch a collision.
#[must_use]
pub fn outages(seed: u64, windows_ms: &[(NetId, u64, u64)]) -> Vec<Outage> {
    windows_ms
        .iter()
        .enumerate()
        .map(|(i, &(net, fail_ms, repair_ms))| {
            let jitter = 1 + stream_seed(seed, i as u64) % 999;
            Outage {
                net,
                fail: SimTime(fail_ms * 1_000_000 + jitter),
                repair: SimTime(repair_ms * 1_000_000 + jitter),
            }
        })
        .collect()
}

#[must_use]
pub fn fault_plan(outages: &[Outage]) -> FaultPlan {
    outages.iter().fold(FaultPlan::new(), |plan, o| {
        plan.fail_at(o.fail, SimComponent::Hub(o.net))
            .repair_at(o.repair, SimComponent::Hub(o.net))
    })
}

/// What the checks and digests read from a finished cluster, on either
/// kernel driver.
pub trait Cluster {
    fn size(&self) -> usize;
    fn planes(&self) -> u8;
    fn daemon(&self, node: NodeId) -> &DrsDaemon;
    fn route(&self, node: NodeId, dst: NodeId) -> Option<Route>;
    fn medium_stats(&self, net: NetId) -> MediumStats;
    fn kernel(&self) -> KernelStats;
    fn advance_to(&mut self, until: SimTime);
}

macro_rules! impl_cluster {
    ($driver:ident) => {
        impl Cluster for $driver<DrsDaemon> {
            fn size(&self) -> usize {
                self.spec().n
            }
            fn planes(&self) -> u8 {
                self.spec().planes
            }
            fn daemon(&self, node: NodeId) -> &DrsDaemon {
                self.protocol(node)
            }
            fn route(&self, node: NodeId, dst: NodeId) -> Option<Route> {
                self.host(node).routes.get(dst)
            }
            fn medium_stats(&self, net: NetId) -> MediumStats {
                self.medium(net).stats.clone()
            }
            fn kernel(&self) -> KernelStats {
                self.kernel_stats()
            }
            fn advance_to(&mut self, until: SimTime) {
                self.run_until(until);
            }
        }
    };
}
impl_cluster!(World);
impl_cluster!(ShardedWorld);

/// Serial-driver cluster of `n` hosts, two planes, with the outages
/// scheduled.
#[must_use]
pub fn serial_cluster(n: usize, seed: u64, cfg: DrsConfig, plan: &[Outage]) -> World<DrsDaemon> {
    let mut w = World::new(ClusterSpec::new(n).seed(seed), |id| {
        DrsDaemon::new(id, n, cfg)
    });
    w.schedule_faults(fault_plan(plan));
    w
}

/// The same cluster on the sharded driver (one shard per ~16 hosts, as
/// `ShardedWorld::new` would choose) at an explicit thread count.
#[must_use]
pub fn sharded_cluster(
    n: usize,
    seed: u64,
    cfg: DrsConfig,
    plan: &[Outage],
    threads: usize,
) -> ShardedWorld<DrsDaemon> {
    let shards = (n / 16).clamp(1, 64);
    let mut w =
        ShardedWorld::with_topology(ClusterSpec::new(n).seed(seed), shards, threads, |id| {
            DrsDaemon::new(id, n, cfg)
        });
    w.schedule_faults(fault_plan(plan));
    w
}

/// Frames admitted onto the media, summed over planes.
#[must_use]
pub fn frames(c: &impl Cluster) -> u64 {
    NetId::planes(c.planes())
        .map(|net| c.medium_stats(net).frames)
        .sum()
}
