//! Cross-validation of the four independent survivability computations:
//! Equation 1's closed form, exhaustive enumeration, the Monte-Carlo
//! estimator, and the packet-level simulator running real DRS daemons.
//! They share nothing but the component model, so agreement pins each
//! one down.

use drs::obs::rng::Rng;

use drs::analytic::connectivity::{pair_connected_k, ClusterState, KPlane, Question, MAX_PLANES};
use drs::analytic::enumerate::{enumerate_pair_success, exhaustive_p_success};
use drs::analytic::exact::{component_count, p_success, success_count};
use drs::analytic::montecarlo::{sample_failures, MonteCarlo};
use drs::analytic::FailureModel;
use drs::core::{DrsConfig, DrsDaemon};
use drs::sim::fault::{index_to_component, FaultPlan};
use drs::sim::scenario::TransportConfig;
use drs::sim::world::FlowOutcome;
use drs::sim::{ClusterSpec, NodeId, SimDuration, SimTime, World};

#[test]
fn closed_form_equals_enumeration_everywhere_feasible() {
    for n in 2..=8u64 {
        for f in 0..=component_count(n).min(7) {
            let (succ, total) = enumerate_pair_success(n as usize, f as usize);
            assert_eq!(success_count(n, f), succ, "n={n} f={f}");
            let p = succ as f64 / total as f64;
            assert!((p_success(n, f) - p).abs() < 1e-12, "n={n} f={f}");
        }
    }
}

#[test]
fn monte_carlo_converges_to_closed_form() {
    for &(n, f) in &[(10usize, 2usize), (20, 4), (40, 6), (63, 10)] {
        let est = MonteCarlo::new(n, f, 7).estimate(500_000);
        let exact = p_success(n as u64, f as u64);
        assert!(
            (est.p_hat - exact).abs() < 6.0 * est.std_error.max(5e-5),
            "n={n} f={f}: {} vs {exact} (se {})",
            est.p_hat,
            est.std_error
        );
    }
}

#[test]
fn exhaustive_probability_matches_closed_form_smallest_cases() {
    assert!((exhaustive_p_success(2, 2) - p_success(2, 2)).abs() < 1e-12);
    assert!((exhaustive_p_success(3, 3) - p_success(3, 3)).abs() < 1e-12);
}

/// The decisive check: for random failure scenarios, message delivery on
/// the packet-level simulator (with DRS daemons doing real detection,
/// failover and gateway discovery) must match the combinatorial
/// predicate **trial by trial** — not just in aggregate.
#[test]
fn packet_simulation_agrees_with_predicate_per_trial() {
    let trials = 25u64;
    for &(n, f) in &[(6usize, 2usize), (8, 3), (10, 4)] {
        for t in 0..trials {
            let seed = 0xC05 ^ ((n as u64) << 32) ^ ((f as u64) << 16) ^ t;
            let mut rng = Rng::seed_from_u64(seed);
            let failures = sample_failures(2 * n + 2, f, &mut rng);
            let predicted = pair_connected_k(n, 2, &failures, 0, 1);

            let cfg = DrsConfig::default()
                .probe_timeout(SimDuration::from_millis(50))
                .probe_interval(SimDuration::from_millis(200));
            let transport = TransportConfig {
                initial_rto: SimDuration::from_millis(100),
                backoff_factor: 2,
                max_retries: 6,
            };
            let spec = ClusterSpec::new(n).seed(seed).transport(transport);
            let mut world = World::new(spec, |id| DrsDaemon::new(id, n, cfg));
            let mut plan = FaultPlan::new();
            for idx in failures.iter() {
                plan = plan.fail_at(SimTime(1_000_000_000), index_to_component(idx, n, 2));
            }
            world.schedule_faults(plan);
            world.run_for(SimDuration::from_secs(6));
            let flow = world.send_app(world.now(), NodeId(0), NodeId(1), 256);
            world.run_for(SimDuration::from_secs(20));
            let delivered = matches!(world.flow_outcome(flow), Some(FlowOutcome::Delivered(_)));
            assert_eq!(
                delivered,
                predicted,
                "n={n} f={f} trial={t}: failures {:?}",
                failures.iter().collect::<Vec<_>>()
            );
        }
    }
}

/// What failing dense index `idx` does to an analytic `n`-node,
/// `planes`-plane cluster, read back from the state the engines execute
/// on: `(None, p)` — backplane `p` went down — or `(Some(i), p)` — node
/// `i`'s NIC on plane `p` did. Panics unless exactly one liveness bit
/// cleared.
fn analytic_component(idx: usize, n: usize, planes: u8) -> (Option<usize>, usize) {
    let up = ClusterState::fully_up_k(n, planes);
    let mut st = up;
    st.fail_index(idx);
    // One word per plane: NICs in bits 0..n, the backplane in bit 127.
    let cleared: Vec<(usize, u128)> = (0..MAX_PLANES)
        .map(|p| (p, up.words[p] ^ st.words[p]))
        .filter(|&(_, diff)| diff != 0)
        .collect();
    match cleared.as_slice() {
        [(p, ClusterState::BACKPLANE)] => (None, *p),
        [(p, diff)] if diff.count_ones() == 1 && diff.trailing_zeros() < n as u32 => {
            (Some(diff.trailing_zeros() as usize), *p)
        }
        other => panic!("idx {idx} did not clear exactly one bit: {other:?}"),
    }
}

/// The component index layouts of `drs-analytic`, `drs-sim` and the
/// `drs-topology` graph layer are three implementations of the same
/// convention; they must never drift — including at the out-of-range
/// boundary, where all three must refuse rather than wrap.
#[test]
fn topology_component_layout_locks_all_three_layers() {
    use drs::sim::fault::{try_index_to_component, SimComponent};
    use drs::topology::{generators, TopoComponent};
    for (n, planes) in [(9usize, 2u8), (5, 3), (4, 4), (3, 8)] {
        let k = planes as usize;
        let topo = generators::kplane(n, k);
        let m = k * n + k;
        assert_eq!(topo.component_count(), m, "n={n} K={k}");
        for idx in 0..m {
            let g = topo.component(idx).expect("in range");
            let a = analytic_component(idx, n, planes);
            let s = try_index_to_component(idx, n, planes).expect("in range");
            match (g, a, s) {
                (TopoComponent::Switch(sw), (None, net), SimComponent::Hub(hub)) => {
                    assert_eq!(sw, net, "idx {idx}");
                    assert_eq!(sw, hub.idx(), "idx {idx}");
                }
                (TopoComponent::Link(l), (Some(node), net), SimComponent::Nic(snode, snet)) => {
                    assert_eq!(node, snode.0 as usize, "idx {idx}");
                    assert_eq!(net, snet.idx(), "idx {idx}");
                    // The graph link is that host's attachment to that
                    // plane's switch node.
                    let link = topo.links()[l];
                    assert_eq!(link.a, snode.0, "idx {idx}: host endpoint");
                    assert_eq!(
                        link.b as usize,
                        n + snet.idx(),
                        "idx {idx}: switch endpoint"
                    );
                }
                other => panic!("layout drift at idx {idx}: {other:?}"),
            }
        }
        // Boundary: one past the universe is None in the graph and the
        // simulator; the analytic model's universe ends there too, and
        // neither that index nor any further one wraps onto a real
        // component (or panics) — whatever K, including a full 8 planes.
        assert_eq!(topo.component(m), None, "n={n} K={k}");
        assert!(try_index_to_component(m, n, planes).is_none());
        assert_eq!(KPlane::new(n, planes, Question::Pair).universe(), m);
        let up = ClusterState::fully_up_k(n, planes);
        for idx in [m, m + 1, k + 8 * n, 255, 256, usize::MAX] {
            let mut st = up;
            st.fail_index(idx);
            assert_eq!(st, up, "fail n={n} K={k} idx={idx}");
            st.restore_index(idx);
            assert_eq!(st, up, "restore n={n} K={k} idx={idx}");
        }
    }
}

/// The component index layouts of `drs-analytic` and `drs-sim` are two
/// implementations of the same convention; they must never drift.
#[test]
fn component_index_conventions_agree() {
    use drs::sim::fault::SimComponent;
    let n = 9;
    for idx in 0..2 * n + 2 {
        let a = analytic_component(idx, n, 2);
        let s = index_to_component(idx, n, 2);
        match (a, s) {
            ((None, an), SimComponent::Hub(sn)) => {
                assert_eq!(an, sn.idx(), "idx {idx}");
            }
            ((Some(node), net), SimComponent::Nic(snode, snet)) => {
                assert_eq!(node, snode.0 as usize, "idx {idx}");
                assert_eq!(net, snet.idx(), "idx {idx}");
            }
            other => panic!("layout drift at idx {idx}: {other:?}"),
        }
    }
}
