//! Property tests of the DRS daemon's protocol invariants under
//! randomized fault scenarios: loop freedom, detection bounds, route
//! sanity and determinism.
//!
//! Each property is a loop over [`CASES`] seeded parameter draws (every
//! case runs whole simulated clusters, hence the small count); every
//! assertion prints the failing case, and `case_rng(index)` reruns it.

use drs_obs::rng::Rng;

use drs_core::{DrsConfig, DrsDaemon, DrsEventKind, LinkState};
use drs_obs::flight::TraceKind;
use drs_sim::fault::{FaultPlan, SimComponent};
use drs_sim::scenario::ClusterSpec;
use drs_sim::world::World;
use drs_sim::{NetId, NodeId, Route, SimDuration, SimTime};

fn cfg() -> DrsConfig {
    DrsConfig::default()
        .probe_timeout(SimDuration::from_millis(50))
        .probe_interval(SimDuration::from_millis(200))
}

/// Draws per property.
const CASES: u64 = 24;

fn case_rng(case: u64) -> Rng {
    Rng::seed_from_u64(0xC02E_0DAE ^ case)
}

/// Loop freedom: whatever combination of up to five simultaneous
/// component failures strikes, no forwarded frame ever dies of TTL
/// exhaustion — DRS's one-hop-gateway discipline cannot cycle.
#[test]
fn no_ttl_drops_under_random_faults() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let seed = rng.next_u64();
        let f = rng.gen_range(0usize..6);
        let ctx = format!("case {case}: seed={seed} f={f}");
        let n = 8;
        let spec = ClusterSpec::new(n).seed(seed);
        let mut w = World::new(spec, |id| DrsDaemon::new(id, n, cfg()));
        let mut rng = Rng::seed_from_u64(seed);
        let (plan, _) = FaultPlan::random_simultaneous(SimTime(1_000_000_000), n, 2, f, &mut rng);
        w.schedule_faults(plan);
        w.run_for(SimDuration::from_secs(4));
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                if s != d {
                    w.send_app(w.now(), NodeId(s), NodeId(d), 64);
                }
            }
        }
        w.run_for(SimDuration::from_secs(150));
        let ttl_drops: u64 = (0..n as u32)
            .map(|i| w.host(NodeId(i)).counters.dropped_ttl)
            .sum();
        assert_eq!(ttl_drops, 0, "{ctx}");
    }
}

/// Every surviving daemon detects a NIC failure within the
/// configured worst-case bound (plus scheduling slack), regardless of
/// when in the probe cycle the fault lands.
#[test]
fn detection_bound_holds_for_any_fault_phase() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let offset_ms = rng.gen_range(0u64..400);
        let ctx = format!("case {case}: offset_ms={offset_ms}");
        let n = 5;
        let c = cfg();
        let spec = ClusterSpec::new(n).seed(7);
        let mut w = World::new(spec, |id| DrsDaemon::new(id, n, c));
        let t0 = SimTime(2_000_000_000 + offset_ms * 1_000_000);
        w.schedule_faults(FaultPlan::new().fail_at(t0, SimComponent::Nic(NodeId(2), NetId::B)));
        w.run_for(SimDuration::from_secs(6));
        for i in (0..n as u32).filter(|&i| i != 2) {
            let det = w.protocol(NodeId(i)).metrics.first_after(t0, |k| {
                matches!(k, DrsEventKind::LinkDown { peer, net }
                    if *peer == NodeId(2) && *net == NetId::B)
            });
            let det = det.unwrap_or_else(|| panic!("daemon {i} missed the fault"));
            assert!(
                det.at - t0 <= c.worst_case_detection() + SimDuration::from_millis(50),
                "{ctx}: daemon {} took {}",
                i,
                det.at - t0
            );
        }
    }
}

/// Route-table sanity after convergence: every installed direct route
/// points at a link the daemon believes Up, and every Via route
/// points at a gateway link believed Up.
#[test]
fn routes_consistent_with_beliefs() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let seed = rng.next_u64();
        let f = rng.gen_range(0usize..5);
        let ctx = format!("case {case}: seed={seed} f={f}");
        let n = 7;
        let spec = ClusterSpec::new(n).seed(seed);
        let mut w = World::new(spec, |id| DrsDaemon::new(id, n, cfg()));
        let mut rng = Rng::seed_from_u64(seed);
        let (plan, _) = FaultPlan::random_simultaneous(SimTime(1_000_000_000), n, 2, f, &mut rng);
        w.schedule_faults(plan);
        w.run_for(SimDuration::from_secs(6));
        for i in 0..n as u32 {
            let node = NodeId(i);
            let daemon = w.protocol(node);
            // The simulator never hands a daemon an id outside its table.
            assert_eq!(daemon.metrics.ignored_inputs, 0, "{ctx}: n{i}");
            for (dst, route) in w.host(node).routes.iter() {
                match route {
                    Route::Direct(net) => {
                        // A Direct route on a Down-believed link is only
                        // legitimate when *no* alternative exists (the
                        // daemon keeps the last route rather than none).
                        if daemon.peer_table().state(dst, net) == Some(LinkState::Down) {
                            assert!(
                                daemon.peer_table().peer_unreachable_direct(dst),
                                "{ctx}: n{i}->{dst}: direct route on a down link with an alternative"
                            );
                        }
                    }
                    Route::Via { gateway, net } => {
                        assert!(gateway != dst && gateway != node, "{ctx}");
                        // Gateway link must be believed Up, unless the
                        // peer is wholly unreachable and this is a relic.
                        if daemon.peer_table().state(gateway, net) == Some(LinkState::Down) {
                            assert!(
                                daemon.peer_table().peer_unreachable_direct(dst),
                                "{ctx}: n{i}->{dst}: via {gateway} on a down link"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Full protocol determinism under randomized fault plans.
#[test]
fn deterministic_under_random_plans() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let seed = rng.next_u64();
        let ctx = format!("case {case}: seed={seed}");
        let run = || {
            let n = 6;
            let spec = ClusterSpec::new(n).seed(seed);
            let mut w = World::new(spec, |id| DrsDaemon::new(id, n, cfg()));
            let mut rng = Rng::seed_from_u64(seed);
            let plan = FaultPlan::poisson_process(
                SimDuration::from_secs(10),
                SimDuration::from_secs(2),
                SimDuration::from_secs(1),
                n,
                2,
                &mut rng,
            );
            w.schedule_faults(plan);
            w.run_for(SimDuration::from_secs(12));
            (0..n as u32)
                .map(|i| {
                    let m = &w.protocol(NodeId(i)).metrics;
                    (
                        m.probes_sent,
                        m.route_changes,
                        m.link_down_events,
                        m.link_up_events,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "{ctx}");
    }
}

/// The flight identities are selected by what the daemon observes: a
/// backend that never hands back a record costs a daemon nothing per
/// link, however eventful the run; one that records sizes the side
/// vector to the link table.
#[test]
fn flight_identities_exist_only_under_a_recorder() {
    let n = 5;
    let run = |record: bool| {
        let spec = ClusterSpec::new(n).seed(3).planes(3);
        let mut w = World::new(spec, |id| DrsDaemon::new(id, n, cfg()));
        if record {
            w.enable_flight(1 << 12);
        }
        w.schedule_faults(
            FaultPlan::new()
                .fail_at(SimTime(1_000_000_000), SimComponent::Hub(NetId::A))
                .repair_at(SimTime(2_000_000_000), SimComponent::Hub(NetId::A)),
        );
        w.run_for(SimDuration::from_secs(4));
        (0..n as u32)
            .map(|i| {
                let d = w.protocol(NodeId(i));
                assert!(d.metrics.link_down_events > 0 && d.metrics.link_up_events > 0);
                assert_eq!(d.peer_table().planes(), 3);
                d.peer_table().flight_slots()
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(false), vec![0; n]);
    assert_eq!(run(true), vec![n * 3; n]);
}

// ---------------------------------------------------------------------------
// Batched monitor cycle ≡ per-pair timers: with staggering off and no
// down-link backoff, one fanned-out cycle event must send the exact same
// probe sequence — per plane, per peer, same times, same ICMP seqs — as
// the legacy one-timer-per-pair monitor it replaces, and the cluster must
// converge to identical state.
// ---------------------------------------------------------------------------

/// One probe send as the flight recorder saw it: `(time_ns, plane,
/// peer << 32 | seq)`.
type ProbeSend = (u64, Option<u8>, u64);

/// The observable monitor state of one daemon at the end of a run.
type MonitorSnapshot = (
    Vec<ProbeSend>,
    (u64, u64, u64, u64, u64, u64),
    Vec<(NodeId, Route)>,
);

fn snapshot(w: &World<DrsDaemon>, n: usize) -> Vec<MonitorSnapshot> {
    let log = w.flight_log().expect("flight recording is on");
    assert_eq!(log.dropped, 0, "the ring held the whole run");
    (0..n as u32)
        .map(|i| {
            let node = NodeId(i);
            let m = &w.protocol(node).metrics;
            (
                log.records
                    .iter()
                    .filter(|r| r.kind == TraceKind::ProbeSend && r.host == i)
                    .map(|r| (r.time_ns, r.plane, r.arg))
                    .collect(),
                (
                    m.probes_sent,
                    m.replies_received,
                    m.timeouts,
                    m.link_down_events,
                    m.link_up_events,
                    m.route_changes,
                ),
                w.host(node).routes.iter().collect(),
            )
        })
        .collect()
}

/// Runs the same scenario twice — legacy per-pair timers vs the batched
/// cycle — and returns both end-state snapshots plus per-plane frame
/// counts (identical frame admission order ⇒ identical medium totals).
fn run_both_monitors(
    n: usize,
    planes: u8,
    plan: &FaultPlan,
    secs: u64,
) -> (
    Vec<MonitorSnapshot>,
    Vec<MonitorSnapshot>,
    Vec<u64>,
    Vec<u64>,
) {
    let run = |batched: bool| {
        let c = cfg().stagger(false).batched_monitor(batched);
        let spec = ClusterSpec::new(n).seed(11).planes(planes);
        let mut w = World::new(spec, |id| DrsDaemon::new(id, n, c));
        w.enable_flight(1 << 16);
        w.schedule_faults(plan.clone());
        w.run_for(SimDuration::from_secs(secs));
        let frames: Vec<u64> = (0..planes)
            .map(|p| w.medium(NetId(p)).stats.frames)
            .collect();
        (snapshot(&w, n), frames)
    };
    let (legacy, legacy_frames) = run(false);
    let (batched, batched_frames) = run(true);
    (legacy, batched, legacy_frames, batched_frames)
}

#[test]
fn batched_monitor_equivalent_on_healthy_three_plane_cluster() {
    let (legacy, batched, lf, bf) = run_both_monitors(6, 3, &FaultPlan::new(), 4);
    assert_eq!(legacy, batched);
    assert_eq!(lf, bf);
    // Sanity: the log really recorded a full-rate probe stream in
    // (peer-ascending, plane-inner) fan-out order.
    let log = &legacy[0].0;
    assert!(log.len() >= 5 * 3 * 4, "n-1 peers × K planes × ≥4 cycles");
    for cycle in log.chunks(5 * 3) {
        let order: Vec<(u64, Option<u8>)> = cycle.iter().map(|p| (p.2 >> 32, p.1)).collect();
        let mut expect = order.clone();
        expect.sort_unstable();
        assert_eq!(order, expect, "fan-out order is peer-major, plane-minor");
        assert!(
            cycle.iter().all(|p| p.0 == cycle[0].0),
            "burst at cycle start"
        );
    }
}

#[test]
fn batched_monitor_equivalent_through_hub_failure_and_repair() {
    let plan = FaultPlan::new()
        .fail_at(SimTime(1_000_000_000), SimComponent::Hub(NetId::A))
        .repair_at(SimTime(3_000_000_000), SimComponent::Hub(NetId::A));
    let (legacy, batched, lf, bf) = run_both_monitors(5, 2, &plan, 6);
    assert_eq!(legacy, batched);
    assert_eq!(lf, bf);
    // The scenario actually exercised the down/up paths.
    assert!(
        legacy.iter().all(|s| s.1 .3 > 0),
        "every daemon saw link-down"
    );
    assert!(
        legacy.iter().all(|s| s.1 .4 > 0),
        "every daemon saw link-up"
    );
}

/// Equivalence holds under arbitrary simultaneous component faults,
/// for any cluster size and redundancy degree the spec supports.
#[test]
fn batched_monitor_equivalent_under_random_faults() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let seed = rng.next_u64();
        let n = rng.gen_range(3usize..7);
        let planes = rng.gen_range(2u8..4);
        let f = rng.gen_range(0usize..5);
        let ctx = format!("case {case}: seed={seed} n={n} planes={planes} f={f}");
        let mut rng = Rng::seed_from_u64(seed);
        let (plan, _) =
            FaultPlan::random_simultaneous(SimTime(1_000_000_000), n, planes, f, &mut rng);
        let (legacy, batched, lf, bf) = run_both_monitors(n, planes, &plan, 5);
        assert_eq!(&legacy, &batched, "{ctx}");
        assert_eq!(lf, bf, "{ctx}");
        // The probe sequence is never empty: monitoring starts at t=0.
        assert!(legacy.iter().all(|s| !s.0.is_empty()), "{ctx}");
    }
}
