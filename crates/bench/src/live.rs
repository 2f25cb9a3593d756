//! Smoke driver for the live UDP backend: boots real daemons on
//! loopback sockets, kills one plane at the socket layer, measures the
//! *wall-clock* failover latency, and prints it next to the DES
//! prediction for the identical configuration.
//!
//! Nothing here is committed as an artifact — wall-clock numbers are
//! machine-local by definition. The value of the driver is the
//! comparison itself: the same daemon bytes, driven once by the
//! deterministic kernel and once by real sockets, should detect the
//! failure inside the same analytic bound.
//!
//! In sandboxes that refuse loopback UDP the driver prints the skip
//! reason and reports success, so it is safe to wire into any CI lane.

use std::time::Duration;

use drs_core::{DrsConfig, DrsDaemon, NetId, NodeId, SimDuration, SimTime};
use drs_io::{LiveCluster, LiveClusterSpec};
use drs_sim::fault::{FaultPlan, SimComponent};
use drs_sim::scenario::ClusterSpec;
use drs_sim::world::World;

const N: usize = 4;

fn live_cfg() -> DrsConfig {
    // Tens-of-milliseconds cadence: fast enough that the live half
    // converges in about two wall-clock seconds, slow enough that thread
    // scheduling noise stays well inside one probe interval.
    DrsConfig::default()
        .probe_timeout(SimDuration::from_millis(25))
        .probe_interval(SimDuration::from_millis(50))
}

/// DES side: same cluster, same cfg, hub A dies; per-node detection
/// latency from each daemon's event log.
fn des_prediction(cfg: DrsConfig) -> Vec<SimDuration> {
    let t0 = SimTime(1_000_000_000);
    let spec = ClusterSpec::new(N).seed(7);
    let mut w = World::new(spec, move |id| DrsDaemon::new(id, N, cfg));
    w.schedule_faults(FaultPlan::new().fail_at(t0, SimComponent::Hub(NetId::A)));
    w.run_for(SimDuration::from_secs(4));
    (0..N as u32)
        .map(|i| {
            w.protocol(NodeId(i))
                .metrics
                .first_after(t0, |k| {
                    matches!(k, drs_core::DrsEventKind::LinkDown { net, .. } if *net == NetId::A)
                })
                .map(|e| e.at - t0)
                .expect("the DES always detects a dead hub")
        })
        .collect()
}

/// Runs the smoke (`drs-bench live`); `false` when the live half
/// disagreed with the DES prediction.
#[must_use]
pub fn run() -> bool {
    let cfg = live_cfg();
    println!("DRS live-cluster smoke: {N} nodes x 2 planes on loopback UDP");
    println!(
        "config: probe every {}, timeout {}, analytic worst-case detection {}",
        cfg.probe_interval,
        cfg.probe_timeout,
        cfg.worst_case_detection()
    );

    let des = des_prediction(cfg);
    println!("\nDES prediction (hub A fails at t=1s):");
    for (i, d) in des.iter().enumerate() {
        println!("  node {i}: detected in {d}");
    }

    let cluster = match LiveCluster::bind(LiveClusterSpec {
        n: N,
        planes: 2,
        cfg,
    }) {
        Ok(c) => c,
        Err(reason) => {
            println!("\nlive half skipped: {reason}");
            return true;
        }
    };
    println!("\nlive cluster bound ({} sockets); running...", N * 2);
    let report = cluster.run(
        Duration::from_millis(600),
        Some(NetId::A),
        Duration::from_millis(1500),
    );

    // Wall-clock slack over the analytic bound: one probe interval for
    // the in-flight probe plus generous thread-scheduling headroom.
    let bound = cfg.worst_case_detection() + cfg.probe_interval + SimDuration::from_millis(250);
    let mut ok = true;
    println!("\nreal failover latency (plane A killed at the socket layer):");
    for (i, lat) in report.detection_latencies(NetId::A).iter().enumerate() {
        match lat {
            Some(l) => {
                let verdict = if *l <= bound { "ok" } else { "SLOW" };
                println!("  node {i}: detected in {l}  [{verdict}, bound {bound}]");
                ok &= *l <= bound;
            }
            None => {
                println!("  node {i}: NEVER DETECTED");
                ok = false;
            }
        }
    }

    let moved = report
        .routes
        .iter()
        .flat_map(|r| r.iter())
        .filter(|(_, route)| !matches!(route, drs_core::Route::Direct(NetId::A)))
        .count();
    println!(
        "routes off the dead plane after convergence: {moved}/{}",
        N * (N - 1)
    );
    // Datagrams the sockets refused for the ids they carried, and socket
    // errors that ended a receive thread: both zero on a quiet loopback,
    // and a deaf receiver would otherwise pass for a plane failure.
    println!(
        "per node: rejected datagrams {:?}, receiver errors {:?}",
        report.rejected, report.recv_errors
    );
    ok &= moved == N * (N - 1) && report.recv_errors.iter().all(|&e| e == 0);

    if ok {
        println!("\nlive run agrees with the DES prediction");
    } else {
        println!("\nDISAGREEMENT between live run and DES prediction");
    }
    ok
}
