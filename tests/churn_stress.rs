//! Long-horizon churn stress: DRS clusters under sustained random
//! failure/repair churn must stay correct (no loops, no lost bookkeeping,
//! high delivery) for many simulated minutes.

use drs::obs::rng::Rng;

use drs::core::{DrsConfig, DrsDaemon};
use drs::sim::app::Workload;
use drs::sim::fault::FaultPlan;
use drs::sim::{ClusterSpec, NodeId, SimDuration, SimTime, World};

fn churn_run(n: usize, seed: u64, minutes: u64) -> (f64, u64, u64) {
    let cfg = DrsConfig::default()
        .probe_timeout(SimDuration::from_millis(50))
        .probe_interval(SimDuration::from_millis(250));
    let spec = ClusterSpec::new(n).seed(seed);
    let mut w = World::new(spec, move |id| DrsDaemon::new(id, n, cfg));

    let horizon = SimDuration::from_secs(60 * minutes);
    let mut rng = Rng::seed_from_u64(seed);
    // A fault roughly every 10 s, repaired after 5 s: constant churn, but
    // rarely more than one or two concurrent failures.
    let plan = FaultPlan::poisson_process(
        horizon,
        SimDuration::from_secs(10),
        SimDuration::from_secs(5),
        n,
        2,
        &mut rng,
    );
    w.schedule_faults(plan);

    let wl = Workload::uniform_random(
        n,
        SimTime(1_000_000_000),
        horizon,
        (60 * minutes) as usize * 4, // ~4 messages/s cluster-wide
        256,
        &mut rng,
    );
    w.schedule_workload(&wl);

    w.run_for(horizon + SimDuration::from_secs(200));
    let stats = w.app_stats();
    let ttl_drops: u64 = (0..n as u32)
        .map(|i| w.host(NodeId(i)).counters.dropped_ttl)
        .sum();
    (stats.delivery_ratio(), stats.gave_up, ttl_drops)
}

#[test]
fn five_minutes_of_churn_stays_healthy() {
    let (ratio, gave_up, ttl_drops) = churn_run(8, 42, 5);
    // Single-component failures are always survivable and DRS repairs in
    // well under a transport lifetime; only unlucky overlapping failures
    // (both hubs / both NICs of an endpoint) can cost a message.
    assert!(ratio > 0.99, "delivery ratio {ratio}");
    assert!(gave_up <= 12, "gave up {gave_up}");
    assert_eq!(ttl_drops, 0, "no routing loops, ever");
}

#[test]
fn churn_outcome_is_seed_deterministic() {
    assert_eq!(churn_run(6, 7, 2), churn_run(6, 7, 2));
}

#[test]
#[ignore = "heavy: ~an hour of virtual time; run with --ignored"]
fn one_hour_of_churn() {
    let (ratio, _gave_up, ttl_drops) = churn_run(12, 1999, 60);
    assert!(ratio > 0.99, "delivery ratio {ratio}");
    assert_eq!(ttl_drops, 0);
}
