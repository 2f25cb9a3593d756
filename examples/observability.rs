//! Observability tour: watch DRS failover happen through the unified
//! metrics layer instead of print statements.
//!
//! Run: `cargo run --release --example observability`
//!
//! A DRS cluster loses its primary hub mid-run. Every host's probe-path
//! histograms (probe gap, probe RTT, failure-detection latency, reroute
//! latency) accumulate in sim-time as it happens; afterwards we merge
//! them — merge order never changes a single bucket — and read the story
//! off the percentiles. Probe bytes on the wire are checked against the
//! Figure 1 bandwidth budget, and a [`drs::obs::Span`] wraps the run in
//! sim-time, so everything printed here is exactly reproducible.

use drs::core::{DrsConfig, DrsDaemon};
use drs::cost::ProbeCostModel;
use drs::obs::{Histogram, MetricsRegistry, Span};
use drs::sim::fault::{FaultPlan, SimComponent};
use drs::sim::{ClusterSpec, NetId, SimDuration, SimTime, World};

fn print_hist(name: &str, h: &Histogram) {
    // The "no samples ≠ 0 ns" rule: empty histograms print a dash.
    let fmt =
        |ns: Option<u64>| ns.map_or_else(|| "—".to_string(), |ns| SimDuration(ns).to_string());
    println!(
        "  {name:<18} {:>6} samples  p50 ≤ {:>10}  p99 ≤ {:>10}  max {:>10}",
        h.count(),
        fmt(h.quantile_upper_bound(0.5)),
        fmt(h.quantile_upper_bound(0.99)),
        fmt(h.max()),
    );
}

fn main() {
    let n = 8;
    let cfg = DrsConfig::default()
        .probe_timeout(SimDuration::from_millis(100))
        .probe_interval(SimDuration::from_millis(500));
    let mut world = World::new(ClusterSpec::new(n).seed(7), |id| DrsDaemon::new(id, n, cfg));

    // A sim-time span over the whole incident: begin at t0, read at the end.
    let run_span = Span::begin(world.now().0);

    // Two quiet seconds, then the primary hub dies, then recovery.
    world.run_for(SimDuration::from_secs(2));
    world.schedule_faults(FaultPlan::new().fail_at(world.now(), SimComponent::Hub(NetId::A)));
    world.run_for(SimDuration::from_secs(4));

    println!("probe-path histograms, merged over all {n} hosts:");
    let obs = world.merged_probe_obs();
    print_hist("probe_gap", &obs.probe_gap);
    print_hist("probe_rtt", &obs.probe_rtt);
    print_hist("failover_detect", &obs.failover_detect);
    print_hist("reroute_complete", &obs.reroute_complete);

    // Probe overhead against the paper's Figure 1 budget model.
    let model = ProbeCostModel::default();
    let elapsed = SimTime(run_span.elapsed_ns(world.now().0));
    let budget_bytes = 0.15 * model.bandwidth_bps as f64 * elapsed.0 as f64 / 1e9 / 8.0;
    println!(
        "\nprobe traffic: {} bytes originated in {elapsed} (15% budget: {budget_bytes:.0} bytes)",
        obs.probe_bytes
    );
    assert!((obs.probe_bytes as f64) < budget_bytes, "within budget");

    // The same numbers flow into a MetricsRegistry — the mergeable,
    // deterministic store the bench artifacts are built from.
    let mut reg = MetricsRegistry::new();
    reg.inc("probe_bytes", obs.probe_bytes);
    for d in [NetId::A, NetId::B] {
        reg.inc("wire_probe_bytes", world.medium(d).stats.probe_bytes);
    }
    if let Some(d) = obs.failover_detect.max() {
        reg.record("failover_detect_ns", d);
    }
    println!("\nregistry counters:");
    for (name, v) in reg.counters() {
        println!("  {name:<18} {v}");
    }

    let detect = SimDuration(obs.failover_detect.max().expect("hub failure was detected"));
    println!("\nhub failure detected within {detect} — DRS saw everything, in sim-time.");
}
