//! Deterministic event-kernel benchmark: queue-traffic and timer-wheel
//! operation counts for the probe-heavy monitor workload, per-pair
//! timers vs the batched monitor cycle, over the `(N, K)` grid.
//!
//! Everything here is an exact operation count from a seeded
//! packet-level run — no wall-clock timing, no sampling — so the
//! artifact (`drs-bench-kernel/v1`, committed as `BENCH_kernel.json`)
//! regenerates byte-for-byte on any machine. Wall-clock throughput of
//! the wheel is `benchmark/run.sh`'s `sim.wheel.replay_ns_per_op` and
//! `sim.wheel.burst_ns_per_op`, never committed here.
//!
//! The headline claim the artifact pins down: with per-pair timers the
//! monitor schedules `2·K·N·(N−1)` timer events per cycle cluster-wide
//! (a re-arm and a timeout per `(daemon, peer, plane)`), while the
//! batched monitor schedules `2·N` (one fan-out and one timeout sweep
//! per daemon) — O(K·N²) → O(N) queue traffic per monitor cycle.

use drs_core::{DrsConfig, DrsDaemon};
use drs_harness::coord_seed;
use drs_obs::{Fnv1a, ObsArtifact, Row, Section};
use drs_sim::scenario::ClusterSpec;
use drs_sim::world::{KernelStats, World};
use drs_sim::{NetId, NodeId, SimDuration};

use crate::BENCH_SEED;

/// Schema tag written into the kernel artifact. `v2` added the sharded
/// section (N up to 1024); `v3` dropped its worker-thread axis and named
/// it `sharded_scaling`; `v4` dropped its shard, epoch, stall and merge
/// counts with the multi-shard driver.
pub const KERNEL_SCHEMA: &str = "drs-bench-kernel/v4";

/// Cluster sizes measured — up to the paper's 90-node deployment.
pub const KERNEL_GRID_N: [usize; 3] = [16, 64, 90];

/// Redundancy plane counts measured.
pub const KERNEL_GRID_K: [u8; 2] = [2, 4];

/// Virtual run length per cell: ten monitor cycles of steady state.
pub const KERNEL_RUN: SimDuration = SimDuration::from_secs(2);

/// Cluster sizes for the scaling grid — one unstaggered burst each, the
/// sizes a ten-cycle cell cannot reach in reasonable artifact-regen time.
pub const SCALING_GRID_N: [usize; 2] = [256, 1024];

/// Plane counts for the scaling grid.
pub const SCALING_GRID_K: [u8; 2] = [2, 4];

/// Virtual run length per scaling cell: one unstaggered monitor burst
/// (`K·N·(N−1)` probes at t=0) plus its replies and timeout sweeps —
/// all inside 100 ms even at N=1024 — stopping short of the 1 s re-arm
/// so the window holds no idle tail.
pub const SCALING_RUN: SimDuration = SimDuration::from_millis(100);

/// One measured cell of the kernel grid.
#[derive(Debug, Clone)]
pub struct KernelCell {
    /// Cluster size.
    pub n: usize,
    /// Plane count.
    pub planes: u8,
    /// `true` for the batched monitor-cycle driver.
    pub batched: bool,
    /// Completed monitor cycles, derived from the probe count.
    pub cycles: u64,
    /// Cluster-wide probes sent over the run.
    pub probes_sent: u64,
    /// Frames admitted onto the media over the run, summed across
    /// planes — each admitted frame is exactly one arrival event in the
    /// queue, so this is the exact frame-event count (2 per answered
    /// probe, minus whatever is still on the wire at the end).
    pub frames: u64,
    /// Kernel counters at the end of the run.
    pub stats: KernelStats,
}

impl KernelCell {
    /// Row id shared by both sections, e.g. `n90_k2_batched`.
    #[must_use]
    pub fn id(&self) -> String {
        format!("n{}_k{}_{}", self.n, self.planes, mode_name(self.batched))
    }

    /// Timer events scheduled over the run: everything pushed into the
    /// queue that is not a frame arrival. This is the quantity the
    /// batched monitor collapses from O(K·N²) to O(N) per cycle.
    #[must_use]
    pub fn timer_events(&self) -> u64 {
        self.stats.wheel.pushes - self.frames
    }

    /// Timer events per completed monitor cycle.
    #[must_use]
    pub fn timer_events_per_cycle(&self) -> f64 {
        self.timer_events() as f64 / self.cycles as f64
    }
}

fn mode_name(batched: bool) -> &'static str {
    if batched {
        "batched"
    } else {
        "per_pair"
    }
}

/// The monitor configuration every cell runs: 200 ms cycle, 50 ms
/// timeout, no stagger — the probe-heavy steady state with both drivers
/// provably emitting the identical probe sequence.
#[must_use]
pub fn kernel_cfg(batched: bool) -> DrsConfig {
    DrsConfig::default()
        .probe_timeout(SimDuration::from_millis(50))
        .probe_interval(SimDuration::from_millis(200))
        .stagger(false)
        .batched_monitor(batched)
}

/// Runs one `(n, planes, driver)` cell: a healthy cluster for
/// [`KERNEL_RUN`] of virtual time, returning the exact operation counts.
///
/// # Panics
/// Panics if the run's probe count is not a whole number of monitor
/// cycles — on a healthy, unstaggered cluster every cycle sends exactly
/// `K·N·(N−1)` probes, so a remainder means the drivers diverged.
#[must_use]
pub fn run_cell(n: usize, planes: u8, batched: bool) -> KernelCell {
    let cfg = kernel_cfg(batched);
    let spec = ClusterSpec::new(n)
        .seed(coord_seed(BENCH_SEED, n as u64, u64::from(planes)))
        .planes(planes);
    let mut w = World::new(spec, |id| DrsDaemon::new(id, n, cfg));
    w.run_for(KERNEL_RUN);
    let probes_sent: u64 = (0..n)
        .map(|i| w.protocol(NodeId(i as u32)).metrics.probes_sent)
        .sum();
    let frames: u64 = NetId::planes(planes)
        .map(|net| w.medium(net).stats.frames)
        .sum();
    let per_cycle = (planes as u64) * (n as u64) * (n as u64 - 1);
    assert_eq!(
        probes_sent % per_cycle,
        0,
        "n={n} k={planes} {}: {probes_sent} probes is not a whole number \
         of {per_cycle}-probe cycles",
        mode_name(batched)
    );
    KernelCell {
        n,
        planes,
        batched,
        cycles: probes_sent / per_cycle,
        probes_sent,
        frames,
        stats: w.kernel_stats(),
    }
}

/// One measured cell of the scaling grid.
#[derive(Debug, Clone)]
pub struct ScalingCell {
    /// Cluster size.
    pub n: usize,
    /// Plane count.
    pub planes: u8,
    /// Events dispatched.
    pub events: u64,
    /// Cluster-wide probes sent.
    pub probes_sent: u64,
    /// Frames admitted across all planes.
    pub frames: u64,
    /// Past-time schedule clamps (zero on a healthy run).
    pub clamped_past: u64,
    /// Events per virtual second — the density the kernel sustains at
    /// this scale.
    pub events_per_virtual_sec: f64,
    /// FNV-1a digest of the end state (per-node DRS metrics +
    /// per-plane medium counters + kernel push/pop totals).
    pub digest: u64,
}

impl ScalingCell {
    /// Row id, e.g. `n1024_k4`.
    #[must_use]
    pub fn id(&self) -> String {
        format!("n{}_k{}", self.n, self.planes)
    }
}

/// The monitor configuration the scaling cells run: batched driver, one
/// cycle per virtual second, no stagger — a single synchronized
/// `K·N·(N−1)`-probe burst.
#[must_use]
pub fn scaling_cfg() -> DrsConfig {
    DrsConfig::default()
        .probe_timeout(SimDuration::from_millis(50))
        .probe_interval(SimDuration::from_secs(1))
        .stagger(false)
        .batched_monitor(true)
}

/// The cluster the scaling cells simulate: 25 Gb/s planes with the
/// default 5 µs propagation.
#[must_use]
pub fn scaling_spec(n: usize, planes: u8) -> ClusterSpec {
    ClusterSpec::new(n)
        .seed(coord_seed(BENCH_SEED, n as u64, u64::from(planes)))
        .planes(planes)
        .bandwidth_bps(25_000_000_000)
}

/// Runs one `(n, planes)` scaling cell and digests its end state.
#[must_use]
pub fn run_scaling_cell(n: usize, planes: u8) -> ScalingCell {
    let cfg = scaling_cfg();
    let mut w = World::new(scaling_spec(n, planes), |id| DrsDaemon::new(id, n, cfg));
    w.run_for(SCALING_RUN);

    let mut digest = Fnv1a::default();
    let mut probes_sent = 0u64;
    for i in 0..n {
        let m = &w.protocol(NodeId(i as u32)).metrics;
        probes_sent += m.probes_sent;
        for word in [
            m.probes_sent,
            m.replies_received,
            m.timeouts,
            m.link_down_events,
            m.link_up_events,
            m.route_changes,
        ] {
            digest.u64(word);
        }
    }
    let mut frames = 0u64;
    for net in NetId::planes(planes) {
        let s = &w.medium(net).stats;
        frames += s.frames;
        for word in [s.frames, s.bytes, s.probe_bytes, s.dropped_hub_down] {
            digest.u64(word);
        }
    }
    let ks = w.kernel_stats();
    digest.u64(ks.wheel.pushes);
    digest.u64(ks.wheel.pops);

    ScalingCell {
        n,
        planes,
        events: ks.wheel.pops,
        probes_sent,
        frames,
        clamped_past: ks.clamped_past,
        events_per_virtual_sec: drs_sim::kernel_obs::events_per_virtual_sec(&ks),
        digest: digest.finish(),
    }
}

/// Runs the scaling grid: every `(n, planes)`, in grid order.
#[must_use]
pub fn run_scaling_grid() -> Vec<ScalingCell> {
    let mut cells = Vec::new();
    for &n in &SCALING_GRID_N {
        for &planes in &SCALING_GRID_K {
            cells.push(run_scaling_cell(n, planes));
        }
    }
    cells
}

/// Builds the `sharded_scaling` section from measured scaling cells.
#[must_use]
pub fn scaling_section(cells: &[ScalingCell]) -> Section {
    let mut scaling = Section::new("sharded_scaling");
    for c in cells {
        scaling.push(
            Row::new(c.id())
                .count("n", c.n as u64)
                .count("planes", u64::from(c.planes))
                .count("events", c.events)
                .count("probes_sent", c.probes_sent)
                .count("frames", c.frames)
                .count("clamped_past", c.clamped_past)
                .real("events_per_virtual_sec", c.events_per_virtual_sec)
                .count("state_digest", c.digest),
        );
    }
    scaling
}

/// Runs the full grid: every `(n, planes)` cell under both drivers,
/// per-pair first, in grid order.
#[must_use]
pub fn run_grid() -> Vec<KernelCell> {
    let mut cells = Vec::new();
    for &n in &KERNEL_GRID_N {
        for &planes in &KERNEL_GRID_K {
            for batched in [false, true] {
                cells.push(run_cell(n, planes, batched));
            }
        }
    }
    cells
}

/// Builds the [`KERNEL_SCHEMA`] artifact from measured monitor and
/// scaling cells.
#[must_use]
pub fn kernel_artifact(cells: &[KernelCell], scaling: &[ScalingCell]) -> ObsArtifact {
    let mut artifact = ObsArtifact::new(BENCH_SEED);

    let mut traffic = Section::new("monitor_queue_traffic");
    for c in cells {
        traffic.push(
            Row::new(c.id())
                .count("n", c.n as u64)
                .count("planes", u64::from(c.planes))
                .text("driver", mode_name(c.batched))
                .count("cycles", c.cycles)
                .count("probes_sent", c.probes_sent)
                .count("events_scheduled", c.stats.wheel.pushes)
                .count("events_popped", c.stats.wheel.pops)
                .count("queue_depth_max", c.stats.wheel.max_depth)
                .count("frame_events", c.frames)
                .count("timer_events", c.timer_events())
                .real("timer_events_per_cycle", c.timer_events_per_cycle())
                .real(
                    "events_per_virtual_sec",
                    drs_sim::kernel_obs::events_per_virtual_sec(&c.stats),
                ),
        );
    }
    artifact.push(traffic);

    let mut wheel = Section::new("wheel_ops");
    for c in cells {
        let w = &c.stats.wheel;
        wheel.push(
            Row::new(c.id())
                .count("cascades", w.cascades)
                .count("slot_drains", w.slot_drains)
                .count("ready_inserts", w.ready_inserts)
                .count("overflow_pushes", w.overflow_pushes)
                .count("overflow_migrations", w.overflow_migrations)
                .count("pool_hits", w.pool_hits)
                .count("pool_misses", w.pool_misses)
                .real(
                    "pool_hit_rate",
                    drs_sim::kernel_obs::pool_hit_rate(&c.stats),
                )
                .count("clamped_past", c.stats.clamped_past),
        );
    }
    artifact.push(wheel);

    let mut reduction = Section::new("queue_traffic_reduction");
    for &n in &KERNEL_GRID_N {
        for &planes in &KERNEL_GRID_K {
            let find = |batched: bool| {
                cells
                    .iter()
                    .find(|c| c.n == n && c.planes == planes && c.batched == batched)
                    .expect("grid cell missing")
            };
            let per_pair = find(false);
            let batched = find(true);
            assert_eq!(
                per_pair.probes_sent, batched.probes_sent,
                "n={n} k={planes}: drivers sent different probe totals"
            );
            reduction.push(
                Row::new(format!("n{n}_k{planes}"))
                    .count("n", n as u64)
                    .count("planes", u64::from(planes))
                    .real(
                        "timer_per_cycle_per_pair",
                        per_pair.timer_events_per_cycle(),
                    )
                    .real("timer_per_cycle_batched", batched.timer_events_per_cycle())
                    .real(
                        "reduction_factor",
                        per_pair.timer_events_per_cycle() / batched.timer_events_per_cycle(),
                    ),
            );
        }
    }
    artifact.push(reduction);

    artifact.push(scaling_section(scaling));

    artifact
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_sim::SimTime;

    #[test]
    fn batched_queue_traffic_is_linear_in_n() {
        // Steady state: 2 timer events per daemon per cycle (fan-out +
        // timeout sweep), against 2·K·(N−1) per daemon for per-pair.
        let n = 16;
        let per_pair = run_cell(n, 2, false);
        let batched = run_cell(n, 2, true);
        assert_eq!(per_pair.probes_sent, batched.probes_sent);
        assert_eq!(per_pair.cycles, batched.cycles);
        let linear_bound = 4.0 * n as f64; // 2·N steady state, 2× slack
        assert!(
            batched.timer_events_per_cycle() <= linear_bound,
            "batched driver scheduled {} timer events/cycle at n={n}",
            batched.timer_events_per_cycle()
        );
        let quadratic_floor = (2 * 2 * n * (n - 1)) as f64 * 0.5;
        assert!(
            per_pair.timer_events_per_cycle() >= quadratic_floor,
            "per-pair driver scheduled only {} timer events/cycle at n={n}",
            per_pair.timer_events_per_cycle()
        );
    }

    /// One steady-state monitor cycle of a healthy cluster pops exactly
    /// 4·K·N(N−1) events with per-pair timers — a re-arm, a timeout, a
    /// request and a reply arrival per (daemon, peer, plane) — and
    /// 2N + 2·K·N(N−1) with the batched monitor: a fan-out and a sweep
    /// per daemon plus the same frames. At the paper's N = 90, K = 2 that
    /// is 64 080 and 32 220. The window runs mid-cycle to mid-cycle, so
    /// it holds one cycle's sends, replies and timeouts.
    #[test]
    fn one_steady_cycle_pops_the_closed_form_per_driver() {
        for (n, planes) in [(4usize, 2u8), (4, 3), (16, 2), (16, 3)] {
            let pairs = u64::from(planes) * (n * (n - 1)) as u64;
            for (batched, want) in [(false, 4 * pairs), (true, 2 * n as u64 + 2 * pairs)] {
                let cfg = kernel_cfg(batched);
                let spec = ClusterSpec::new(n).seed(7).planes(planes);
                let mut w = World::new(spec, |id| DrsDaemon::new(id, n, cfg));
                w.run_until(SimTime(1_100_000_000));
                let before = w.kernel_stats().wheel.pops;
                w.run_until(SimTime(1_300_000_000));
                let popped = w.kernel_stats().wheel.pops - before;
                assert_eq!(popped, want, "n={n} k={planes} batched={batched}");
            }
        }
    }

    #[test]
    fn healthy_cells_balance_and_stay_clamp_free() {
        for batched in [false, true] {
            let c = run_cell(8, 2, batched);
            assert_eq!(c.stats.clamped_past, 0);
            assert!(c.stats.wheel.pops <= c.stats.wheel.pushes);
            assert!(c.cycles >= 9, "only {} cycles in 2 s", c.cycles);
            assert_eq!(c.probes_sent, c.cycles * 2 * 8 * 7);
        }
    }

    #[test]
    fn artifact_shape_is_stable() {
        let cells = vec![run_cell(4, 2, false), run_cell(4, 2, true)];
        let artifact = kernel_artifact_small(&cells);
        let json = artifact.to_json_with_schema(KERNEL_SCHEMA);
        assert!(json.contains(&format!("\"schema\": \"{KERNEL_SCHEMA}\"")));
        assert!(json.contains("\"name\": \"monitor_queue_traffic\""));
        assert!(json.contains("\"name\": \"wheel_ops\""));
        assert!(json.contains("\"id\": \"n4_k2_per_pair\""));
        assert!(json.contains("\"id\": \"n4_k2_batched\""));
        assert_eq!(json, artifact.to_json_with_schema(KERNEL_SCHEMA));
    }

    #[test]
    fn scaling_cell_fires_its_burst_clamp_free() {
        let c = run_scaling_cell(32, 2);
        assert!(c.probes_sent > 0, "burst never fired");
        assert_eq!(c.clamped_past, 0);
        let sec = scaling_section(&[c]);
        assert_eq!(sec.rows.len(), 1);
        assert_eq!(sec.rows[0].id, "n32_k2");
    }

    // The reduction section of `kernel_artifact` iterates the full grid;
    // tests use this trimmed builder so they stay off the 90-node cells.
    fn kernel_artifact_small(cells: &[KernelCell]) -> ObsArtifact {
        let mut artifact = ObsArtifact::new(BENCH_SEED);
        let mut traffic = Section::new("monitor_queue_traffic");
        let mut wheel = Section::new("wheel_ops");
        for c in cells {
            traffic.push(Row::new(c.id()).count("timer_events", c.timer_events()));
            wheel.push(Row::new(c.id()).count("cascades", c.stats.wheel.cascades));
        }
        artifact.push(traffic);
        artifact.push(wheel);
        artifact
    }
}
