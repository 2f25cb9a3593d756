//! Second-by-second timeline of a DRS failover: network utilization,
//! daemon state transitions and route-table shape around a hub failure —
//! the "what actually happens" view behind the outage numbers.
//!
//! One run: the cluster seed is [`stream_seed`]`(1, 0)`, trial 0's
//! seed under master seed 1, and the daemon's transition log comes back
//! as a structured harness event trace — the same vocabulary the
//! committed `BENCH_sim_survivability.json` rows use.

use drs_baselines::compare::drs_trace_event;
use drs_core::{DrsConfig, DrsDaemon};
use drs_harness::{stream_seed, TraceEvent};
use drs_sim::app::Workload;
use drs_sim::fault::{FaultPlan, SimComponent};
use drs_sim::scenario::ClusterSpec;
use drs_sim::stats::AppStats;
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
/// trace, and the cluster's application totals.
fn timeline_trial(seed: u64) -> (Vec<SecondRow>, Vec<TraceEvent>, AppStats) {
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

    (table, events, w.app_stats())
}

pub(super) fn run() -> Vec<Check> {
    let (table, events, totals) = timeline_trial(stream_seed(1, 0));

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

    println!();
    println!(
        "totals: {}/{} delivered, {} retransmits — the fault window is visible in",
        totals.delivered, totals.sent, totals.retransmits
    );
    println!("the utilization columns (traffic jumps from net A to net B and back).");
    Vec::new()
}
