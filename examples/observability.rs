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
//! Figure 1 bandwidth budget, and the run itself is timed in sim-time
//! ([`SimTime::since`]), so everything printed here is exactly
//! reproducible.

use drs::analytic::cost::ProbeCostModel;
use drs::core::{DrsConfig, DrsDaemon};
use drs::obs::Histogram;
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

    // The whole incident is timed in sim-time: note t0, read at the end.
    let t0: SimTime = world.now();

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
    let elapsed = world.now().since(t0);
    let budget_bytes = 0.15 * model.bandwidth_bps as f64 * elapsed.as_nanos() as f64 / 1e9 / 8.0;
    println!(
        "\nprobe traffic: {} bytes originated in {elapsed} (15% budget: {budget_bytes:.0} bytes)",
        obs.probe_bytes
    );
    assert!((obs.probe_bytes as f64) < budget_bytes, "within budget");

    // The segments carry the requests the daemons originated plus the
    // stacks' echo replies.
    let wire_bytes: u64 = [NetId::A, NetId::B]
        .iter()
        .map(|&net| world.medium(net).stats.probe_bytes)
        .sum();
    println!("  on the wire, replies included: {wire_bytes} bytes over both segments");

    let detect = SimDuration(obs.failover_detect.max().expect("hub failure was detected"));
    println!("\nhub failure detected within {detect} — DRS saw everything, in sim-time.");
}
