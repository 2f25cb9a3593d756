//! Second-by-second timeline of a DRS failover: network utilization,
//! daemon state transitions and route-table shape around a hub failure —
//! the "what actually happens" view behind the outage numbers.
//!
//! The run is a single-trial [`drs_harness::Experiment`]: the cluster
//! seed is the trial's derived seed, and the daemon's transition log
//! comes back as a structured harness event trace — the same vocabulary
//! the committed `BENCH_sim_survivability.json` rows use.

use drs_baselines::compare::drs_trace_event;
use drs_core::{DrsConfig, DrsDaemon};
use drs_harness::{Experiment, Metric, TraceEvent, TrialRecord};
use drs_sim::app::Workload;
use drs_sim::fault::{FaultPlan, SimComponent};
use drs_sim::scenario::ClusterSpec;
use drs_sim::world::World;
use drs_sim::{NetId, NodeId, SimDuration, SimTime};

use super::Check;
use crate::section;

/// One line of the per-second state table.
struct SecondRow {
    sec: u64,
    util_a: f64,
    util_b: f64,
    on_a: usize,
    on_b: usize,
    delivered: u64,
    rtx: u64,
}

/// Runs the timeline trial: returns the table, the structured event
/// trace, and the artifact row.
fn timeline_trial(seed: u64) -> (Vec<SecondRow>, Vec<TraceEvent>, TrialRecord) {
    let n = 8;
    let cfg = DrsConfig::default()
        .probe_timeout(SimDuration::from_millis(100))
        .probe_interval(SimDuration::from_millis(500));
    let spec = ClusterSpec::new(n).seed(seed);
    let mut w = World::new(spec, move |id| DrsDaemon::new(id, n, cfg));

    // Background all-to-all traffic, 2 rounds/second.
    let wl = Workload::all_to_all(
        n,
        SimTime(100_000_000),
        SimDuration::from_millis(500),
        30,
        512,
    );
    w.schedule_workload(&wl);

    let fault_at = SimTime(5_000_000_000);
    let repair_at = SimTime(10_000_000_000);
    w.schedule_faults(
        FaultPlan::new()
            .fail_at(fault_at, SimComponent::Hub(NetId::A))
            .repair_at(repair_at, SimComponent::Hub(NetId::A)),
    );

    let mut table = Vec::new();
    let mut last_delivered = 0;
    let mut last_rtx = 0;
    for sec in 0..15u64 {
        let snap_a = w.medium(NetId::A).stats;
        let snap_b = w.medium(NetId::B).stats;
        let t0 = w.now();
        w.run_until(SimTime((sec + 1) * 1_000_000_000));
        let t1 = w.now();
        let util_a = w.medium(NetId::A).utilization_since(&snap_a, t0, t1);
        let util_b = w.medium(NetId::B).utilization_since(&snap_b, t0, t1);
        let (mut on_a, mut on_b) = (0usize, 0usize);
        for i in 0..n as u32 {
            for (_, route) in w.host(NodeId(i)).routes.iter() {
                match route {
                    drs_sim::Route::Direct(NetId::A) => on_a += 1,
                    drs_sim::Route::Direct(NetId::B) => on_b += 1,
                    _ => {}
                }
            }
        }
        let s = w.app_stats();
        table.push(SecondRow {
            sec: sec + 1,
            util_a,
            util_b,
            on_a,
            on_b,
            delivered: s.delivered - last_delivered,
            rtx: s.retransmits - last_rtx,
        });
        last_delivered = s.delivered;
        last_rtx = s.retransmits;
    }

    // The observer node's transition log, in the harness vocabulary.
    let events: Vec<TraceEvent> = w
        .protocol(NodeId(0))
        .metrics
        .events
        .iter()
        .map(|e| drs_trace_event(e.at, &e.kind))
        .collect();

    let s = w.app_stats();
    let record = TrialRecord::new("hub_a_fail_and_repair", seed)
        .metric(Metric::count("sent", s.sent))
        .metric(Metric::count("delivered", s.delivered))
        .metric(Metric::count("retransmits", s.retransmits))
        .with_events(events.clone());
    (table, events, record)
}

pub(super) fn run() -> Vec<Check> {
    let exp = Experiment::replications("failover-timeline", 1, 1);
    let (table, events, record) = exp.run_serial(|ctx, ()| timeline_trial(ctx.seed)).remove(0);

    println!("timeline: 8-host DRS cluster; hub A fails at t=5s, repaired at t=10s");
    println!("(500 ms probe sweeps, 2-miss threshold; all-to-all traffic at 2 rounds/s)");
    section("per-second state");
    println!("  t     netA util   netB util   routes on A   routes on B   delivered   rtx");
    for r in &table {
        println!(
            "  {:>2}s   {:>8.5}   {:>8.5}   {:>11}   {:>11}   {:>9}   {:>3}",
            r.sec, r.util_a, r.util_b, r.on_a, r.on_b, r.delivered, r.rtx,
        );
    }

    section("daemon event log (node 0, harness trace vocabulary)");
    for e in &events {
        println!(
            "  {}  {:<17} {}",
            SimTime(e.at_ns),
            e.kind.label(),
            e.detail
        );
    }

    let (delivered, sent, rtx) =
        record
            .metrics
            .iter()
            .fold((0, 0, 0), |acc, m| match (m.name, m.value) {
                ("delivered", drs_harness::MetricValue::Count(c)) => (c, acc.1, acc.2),
                ("sent", drs_harness::MetricValue::Count(c)) => (acc.0, c, acc.2),
                ("retransmits", drs_harness::MetricValue::Count(c)) => (acc.0, acc.1, c),
                _ => acc,
            });
    println!();
    println!(
        "totals: {delivered}/{sent} delivered, {rtx} retransmits — the fault window is visible in"
    );
    println!("the utilization columns (traffic jumps from net A to net B and back).");
    Vec::new()
}
