//! Loopback UDP agreement: the identical daemon bytes, run over real
//! sockets with wall-clock timers, must behave like the DES predicted.
//!
//! The full-failover test is `#[ignore]`d by default: it binds dozens of
//! sockets and sleeps wall-clock seconds, and sandboxed environments may
//! forbid even loopback UDP. Run it with `cargo test -p drs-io --
//! --ignored` on a real machine. The smoke test below it is cheap and
//! degrades to a skip when the environment refuses sockets.

use std::time::Duration;

use drs_core::{DrsConfig, NetId, NodeId, Route, SimDuration};
use drs_io::{LiveCluster, LiveClusterSpec};

fn live_cfg() -> DrsConfig {
    // Tens-of-milliseconds cadence so a run converges in wall-clock
    // seconds; the same cfg is handed to the DES for the prediction.
    DrsConfig::default()
        .probe_timeout(SimDuration::from_millis(25))
        .probe_interval(SimDuration::from_millis(50))
}

#[test]
fn live_cluster_binds_or_skips_gracefully() {
    let spec = LiveClusterSpec {
        n: 2,
        planes: 2,
        cfg: live_cfg(),
    };
    let cluster = match LiveCluster::bind(spec) {
        Ok(c) => c,
        Err(reason) => {
            // Sandboxed environment: the documented graceful degradation.
            assert!(!reason.is_empty());
            eprintln!("skipping live smoke: {reason}");
            return;
        }
    };
    let report = cluster.run(Duration::from_millis(400), None, Duration::ZERO);
    assert_eq!(report.fail_at, None);
    for (i, d) in report.daemons.iter().enumerate() {
        assert!(d.metrics.probes_sent > 0, "node {i} probed over real UDP");
        assert!(
            d.metrics.replies_received > 0,
            "node {i} heard real replies"
        );
        assert_eq!(
            d.metrics.link_down_events, 0,
            "node {i}: healthy loopback must not flap"
        );
    }
    // Nothing failed, so the deployed default routes survive untouched.
    assert_eq!(
        report.routes[0].get(NodeId(1)),
        Some(Route::Direct(NetId::A))
    );
}

#[test]
#[ignore = "binds real loopback sockets and sleeps wall-clock seconds; run with --ignored"]
fn live_failover_latency_agrees_with_des_prediction() {
    let cfg = live_cfg();
    let spec = LiveClusterSpec {
        n: 3,
        planes: 2,
        cfg,
    };
    let cluster = match LiveCluster::bind(spec) {
        Ok(c) => c,
        Err(reason) => {
            eprintln!("skipping live agreement test: {reason}");
            return;
        }
    };
    let report = cluster.run(
        Duration::from_millis(600),
        Some(NetId::A),
        Duration::from_millis(1500),
    );

    // The DES worst case: miss_threshold consecutive timeouts plus the
    // probe that was already in flight. Wall-clock scheduling (thread
    // wakeups, channel latency) buys a little slack on top.
    let bound = cfg.worst_case_detection() + cfg.probe_interval + SimDuration::from_millis(250);
    for (i, lat) in report.detection_latencies(NetId::A).iter().enumerate() {
        let lat = lat.unwrap_or_else(|| panic!("node {i} never detected the dead plane"));
        assert!(
            lat <= bound,
            "node {i}: real detection took {lat}, DES bound {bound}"
        );
    }
    // And the repair the DES predicts: every route lands on plane B.
    for (i, routes) in report.routes.iter().enumerate() {
        for (dst, route) in routes.iter() {
            assert_eq!(route, Route::Direct(NetId::B), "node {i} -> {dst}");
        }
    }
}
