//! The committed causal-flight-recorder benchmark: deterministic trace
//! timelines, failover post-mortems, and their cross-check against the
//! daemon's latency histograms.
//!
//! Every cell runs the same single-fault scenario — hub A dies at 1 s and
//! recovers at 3 s — with the flight recorder on (its log is a function
//! of the seed alone, which is what lets the artifact into the repo).
//! The cell then rebuilds every failover's causal chain
//! ([`build_post_mortems`]) and proves, sample for sample:
//!
//! * **chains are complete** — every `cause` ref resolves inside the log
//!   (no orphans, nothing evicted out from under a live chain);
//! * **decomposition is exact** — the detect and reroute latencies
//!   recovered purely from chain *timestamps* equal the values the
//!   daemon recorded into the trace args;
//! * **flight == observability** — the histogram of `link_down` args
//!   equals `ProbeObs::failover_detect` bucket-for-bucket, and the
//!   histogram of `reroute_complete` args equals
//!   `ProbeObs::reroute_complete`.
//!
//! Nothing on this path draws a random number: worlds are seeded by
//! [`coord_seed`] coordinate mixing and the fault schedule is fixed, so
//! the committed `BENCH_flight.json` is byte-reproducible on any machine.

use drs_core::{DrsConfig, DrsDaemon, ProbeObs};
use drs_harness::coord_seed;
use drs_obs::causal::{build_post_mortems, PostMortemReport};
use drs_obs::flight::{to_perfetto, FlightLog, TraceKind};
use drs_obs::{Histogram, ObsArtifact, Row, Section};
use drs_sim::{ClusterSpec, FaultPlan, NetId, SimComponent, SimDuration, SimTime, World};

use crate::BENCH_SEED;

/// Schema tag written into every flight artifact. `v2` dropped the
/// multi-shard run's `shards`, `epoch`, `merge` and `stall` fields and
/// the one-vs-several-shards `serial_matches`.
pub const FLIGHT_SCHEMA: &str = "drs-bench-flight/v2";

/// Cluster sizes of the K = 2 single-fault matrix.
pub const FLIGHT_NS: [usize; 3] = [8, 16, 32];

/// Per-core flight ring capacity — large enough that no cell evicts
/// (every cell asserts `dropped == 0`, so chains stay complete).
pub const FLIGHT_CAPACITY: usize = 1 << 18;

/// Hub A fails here.
pub const FAULT_AT: SimTime = SimTime(1_000_000_000);

/// Hub A recovers here — exercising `link_up`, `repair` and chain-pin
/// release on a still-running world.
pub const REPAIR_AT: SimTime = SimTime(3_000_000_000);

/// Virtual span every cell runs.
pub const RUN_FOR: SimDuration = SimDuration(5_000_000_000);

/// One cell of the flight matrix.
#[derive(Debug, Clone)]
pub struct FlightCell {
    /// Artifact row label.
    pub label: &'static str,
    /// Cluster size.
    pub n: usize,
    /// Plane count K.
    pub planes: u8,
}

/// The committed matrix: the K = 2 sweep plus the topology zoo's K = 3
/// sibling (same geometry as `kplane(n=16,k=3)` in `BENCH_topology.json`).
#[must_use]
pub fn flight_cells() -> Vec<FlightCell> {
    vec![
        FlightCell {
            label: "n8_k2",
            n: 8,
            planes: 2,
        },
        FlightCell {
            label: "n16_k2",
            n: 16,
            planes: 2,
        },
        FlightCell {
            label: "n32_k2",
            n: 32,
            planes: 2,
        },
        FlightCell {
            label: "kplane(n=16,k=3)",
            n: 16,
            planes: 3,
        },
    ]
}

/// The cell's derived master seed — coordinate mixing, reproducible in
/// isolation.
#[must_use]
pub fn cell_seed(cell: &FlightCell) -> u64 {
    coord_seed(BENCH_SEED, cell.n as u64, u64::from(cell.planes))
}

/// One run's complete take on a cell.
#[derive(Debug, Clone)]
pub struct DriverRun {
    /// The flight log.
    pub log: FlightLog,
    /// Post-mortems built from that log.
    pub report: PostMortemReport,
    /// The daemons' merged probe observability — the cross-check target.
    pub obs: ProbeObs,
}

fn daemon_config() -> DrsConfig {
    // The compressed timers the e2e cross-check uses: each cell resolves
    // in seconds of virtual time without changing the failover story.
    DrsConfig::default()
        .probe_timeout(SimDuration::from_millis(50))
        .probe_interval(SimDuration::from_millis(200))
}

fn fault_plan() -> FaultPlan {
    FaultPlan::new()
        .fail_at(FAULT_AT, SimComponent::Hub(NetId::A))
        .repair_at(REPAIR_AT, SimComponent::Hub(NetId::A))
}

/// Runs one cell.
#[must_use]
pub fn run(cell: &FlightCell) -> DriverRun {
    let n = cell.n;
    let cfg = daemon_config();
    let spec = ClusterSpec::new(n)
        .planes(cell.planes)
        .seed(cell_seed(cell));
    let mut w = World::new(spec, |id| DrsDaemon::new(id, n, cfg));
    w.enable_flight(FLIGHT_CAPACITY);
    w.schedule_faults(fault_plan());
    w.run_for(RUN_FOR);
    let log = w.flight_log().expect("flight recorder enabled");
    DriverRun {
        report: build_post_mortems(&log),
        obs: w.merged_probe_obs(),
        log,
    }
}

/// Histogram of one record kind's `arg` values, skipping the `u64::MAX`
/// no-baseline sentinel — for `link_down` this is exactly the sample set
/// the daemon put into `failover_detect`, for `reroute_complete` the
/// `reroute_complete` samples.
#[must_use]
pub fn flight_histogram(log: &FlightLog, kind: TraceKind) -> Histogram {
    let mut h = Histogram::new();
    for r in &log.records {
        if r.kind == kind && r.arg != u64::MAX {
            h.record(r.arg);
        }
    }
    h
}

/// Chain-level statistics of one post-mortem report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainStats {
    /// Reroute completions — one chain each.
    pub failovers: u64,
    /// Chains whose walk reached a causeless root.
    pub complete: u64,
    /// Cause refs in the log that failed to resolve.
    pub orphan_refs: u64,
    /// Total hops across all chains.
    pub hops: u64,
    /// Kernel loss records attached to chain probes.
    pub losses: u64,
    /// Chains with a last-good-reply anchor (a detect sample exists).
    pub detect_chains: u64,
    /// Anchored chains whose timestamp-derived detect latency equals the
    /// daemon-recorded `link_down` arg exactly.
    pub matched_detect: u64,
    /// Chains whose timestamp-derived reroute latency equals the
    /// daemon-recorded `reroute_complete` arg exactly.
    pub matched_reroute: u64,
}

/// Folds a report into [`ChainStats`], comparing every chain's
/// timestamp-derived [`drs_obs::Decomposition`] against the daemon-side
/// args carried on the chain records themselves.
#[must_use]
pub fn chain_stats(report: &PostMortemReport) -> ChainStats {
    let mut s = ChainStats {
        failovers: report.failovers.len() as u64,
        complete: report.complete_count() as u64,
        orphan_refs: report.orphan_refs,
        hops: 0,
        losses: 0,
        detect_chains: 0,
        matched_detect: 0,
        matched_reroute: 0,
    };
    for pm in &report.failovers {
        s.hops += pm.len() as u64;
        s.losses += pm.losses.len() as u64;
        let d = pm.decompose();
        if d.reroute_ns == Some(pm.head().arg) {
            s.matched_reroute += 1;
        }
        if let Some(down) = pm.last(TraceKind::LinkDown) {
            if down.arg != u64::MAX {
                s.detect_chains += 1;
                if d.detect_ns == Some(down.arg) {
                    s.matched_detect += 1;
                }
            }
        }
    }
    s
}

/// Asserts one run's full invariant set for a cell and returns its
/// chain stats: nothing dropped, every cause sorting strictly below the
/// record citing it (a chain walk stops at one that does not), no
/// orphaned refs, every chain complete, every decomposition exact, and
/// the flight-derived histograms equal to the daemon's probe
/// observability bucket-for-bucket.
fn check_run(label: &str, run: &DriverRun) -> ChainStats {
    assert_eq!(
        run.log.dropped, 0,
        "{label}: flight ring evicted records; raise FLIGHT_CAPACITY"
    );
    for r in &run.log.records {
        if let Some(c) = r.cause {
            assert!(
                (c.time_ns, c.seq, c.sub) < r.sort_key(),
                "{label}: {r:?} cites {c:?}, which does not sort below it"
            );
        }
    }
    let s = chain_stats(&run.report);
    assert!(s.failovers > 0, "{label}: no failovers traced");
    assert_eq!(s.orphan_refs, 0, "{label}: orphaned cause refs");
    assert_eq!(s.complete, s.failovers, "{label}: incomplete causal chains");
    assert_eq!(
        s.matched_reroute, s.failovers,
        "{label}: chain timestamps disagree with reroute args"
    );
    assert_eq!(
        s.matched_detect, s.detect_chains,
        "{label}: chain timestamps disagree with detect args"
    );
    assert_eq!(
        flight_histogram(&run.log, TraceKind::LinkDown),
        run.obs.failover_detect,
        "{label}: link_down args != failover_detect histogram"
    );
    assert_eq!(
        flight_histogram(&run.log, TraceKind::RerouteComplete),
        run.obs.reroute_complete,
        "{label}: reroute args != reroute_complete histogram"
    );
    s
}

fn kind_count(log: &FlightLog, kind: TraceKind) -> u64 {
    log.records.iter().filter(|r| r.kind == kind).count() as u64
}

/// Builds the full flight artifact, asserting every cell's invariants
/// along the way.
#[must_use]
pub fn flight_bench_artifact() -> ObsArtifact {
    let mut artifact = ObsArtifact::new(BENCH_SEED);
    let mut cells_sec = Section::new("flight_cells");
    let mut chains_sec = Section::new("causal_chains");
    let mut decomp_sec = Section::new("latency_decomposition");

    for cell in flight_cells() {
        let cell_run = run(&cell);
        let s = check_run(cell.label, &cell_run);

        let k = |kind| kind_count(&cell_run.log, kind);
        cells_sec.push(
            Row::new(cell.label)
                .count("hosts", cell.n as u64)
                .count("planes", u64::from(cell.planes))
                .count("records", cell_run.log.records.len() as u64)
                .count("dropped", cell_run.log.dropped)
                .count("perfetto_bytes", to_perfetto(&cell_run.log).len() as u64)
                .count("probe_send", k(TraceKind::ProbeSend))
                .count("probe_recv", k(TraceKind::ProbeRecv))
                .count("probe_loss", k(TraceKind::ProbeLoss))
                .count("timeout_sweep", k(TraceKind::TimeoutSweep))
                .count("link_down", k(TraceKind::LinkDown))
                .count("link_up", k(TraceKind::LinkUp))
                .count("failover_decision", k(TraceKind::FailoverDecision))
                .count("reroute_complete", k(TraceKind::RerouteComplete))
                .count("fault", k(TraceKind::Fault))
                .count("repair", k(TraceKind::Repair)),
        );
        chains_sec.push(
            Row::new(cell.label)
                .count("failovers", s.failovers)
                .count("complete", s.complete)
                .count("orphan_refs", s.orphan_refs)
                .count("hops", s.hops)
                .count("losses", s.losses)
                .count("detect_chains", s.detect_chains)
                .count("matched_detect", s.matched_detect)
                .count("matched_reroute", s.matched_reroute),
        );
        decomp_sec.push(
            Row::new(format!("{}/detect", cell.label))
                .count("matches_probe_obs", 1)
                .hist(&cell_run.obs.failover_detect),
        );
        decomp_sec.push(
            Row::new(format!("{}/reroute", cell.label))
                .count("matches_probe_obs", 1)
                .hist(&cell_run.obs.reroute_complete),
        );
    }

    artifact.push(cells_sec);
    artifact.push(chains_sec);
    artifact.push(decomp_sec);
    artifact
}

/// The compact verdict `drs-bench repro` prints: every reconstructed failover
/// chain must be complete and its timestamp-only decomposition must
/// reproduce the daemon's histogram samples exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightVerdict {
    /// Failovers reconstructed.
    pub failovers: u64,
    /// Chains with a detect sample to match.
    pub detect_chains: u64,
    /// ...of which matched the daemon's recorded detect latency.
    pub matched_detect: u64,
    /// Chains matching the daemon's recorded reroute latency.
    pub matched_reroute: u64,
    /// Unresolvable cause refs (must be zero).
    pub orphan_refs: u64,
}

impl FlightVerdict {
    /// The 100 %-matched invariant, in one boolean.
    #[must_use]
    pub fn all_matched(&self) -> bool {
        self.failovers > 0
            && self.orphan_refs == 0
            && self.matched_reroute == self.failovers
            && self.matched_detect == self.detect_chains
    }
}

/// Runs the smallest matrix cell and folds it into the [`FlightVerdict`].
#[must_use]
pub fn flight_verdict() -> FlightVerdict {
    let cell = FlightCell {
        label: "verdict_n8_k2",
        n: 8,
        planes: 2,
    };
    let s = chain_stats(&run(&cell).report);
    FlightVerdict {
        failovers: s.failovers,
        detect_chains: s.detect_chains,
        matched_detect: s.matched_detect,
        matched_reroute: s.matched_reroute,
        orphan_refs: s.orphan_refs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FlightCell {
        FlightCell {
            label: "n8_k2",
            n: 8,
            planes: 2,
        }
    }

    #[test]
    fn small_cell_passes_every_check() {
        let s = check_run("n8_k2", &run(&small()));
        assert!(s.failovers > 0);
    }

    #[test]
    fn verdict_is_fully_matched() {
        let v = flight_verdict();
        assert!(v.all_matched(), "{v:?}");
    }

    #[test]
    fn cell_seeds_are_distinct() {
        let mut seeds: Vec<u64> = flight_cells().iter().map(cell_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), flight_cells().len());
    }
}
