//! Property tests over the cross-crate invariants: the connectivity
//! predicate's monotonicity, Equation 1's bounds, component index
//! conventions, and simulator determinism under random scenarios.
//!
//! Each property is a loop over [`CASES`] seeded parameter draws; every
//! assertion prints the failing case, and `case_rng(index)` reruns it.

use drs::obs::rng::Rng;

use drs::analytic::connectivity::{all_pairs_connected_k, pair_connected_k};
use drs::analytic::exact::{component_count, p_success};
use drs::analytic::montecarlo::sample_failures;
use drs::core::{DrsConfig, DrsDaemon, ProbeObs};
use drs::obs::Histogram;
use drs::sim::fault::{component_to_index, index_to_component, FaultPlan};
use drs::sim::{ClusterSpec, NodeId, SimDuration, SimTime, World};
use drs::topology::ComponentSet;

/// Draws per property.
const CASES: u64 = 256;

fn case_rng(case: u64) -> Rng {
    Rng::seed_from_u64(0x0D25_C0DE ^ case)
}

/// Removing a failure can never disconnect a connected pair
/// (the predicate is monotone in the failure set).
#[test]
fn predicate_is_monotone() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let n = rng.gen_range(2usize..20);
        let seed = rng.next_u64();
        let f = rng.gen_range(0usize..10);
        let ctx = format!("case {case}: n={n} seed={seed} f={f}");
        let m = 2 * n + 2;
        let f = f.min(m);
        let mut rng = Rng::seed_from_u64(seed);
        let failures = sample_failures(2 * n + 2, f, &mut rng);
        if !pair_connected_k(n, 2, &failures, 0, 1) {
            // adding any failure keeps it disconnected
            for add in 0..m {
                let mut worse = failures;
                worse.insert(add);
                assert!(
                    !pair_connected_k(n, 2, &worse, 0, 1),
                    "{ctx}: adding failure {add} reconnected the pair"
                );
            }
        } else {
            // removing any failure keeps it connected
            for del in failures.iter().collect::<Vec<_>>() {
                let mut better = failures;
                better.remove(del);
                assert!(
                    pair_connected_k(n, 2, &better, 0, 1),
                    "{ctx}: removing failure {del} disconnected the pair"
                );
            }
        }
    }
}

/// All-pairs connectivity implies every individual pair's connectivity.
#[test]
fn all_pairs_implies_each_pair() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let n = rng.gen_range(2usize..12);
        let seed = rng.next_u64();
        let f = rng.gen_range(0usize..8);
        let ctx = format!("case {case}: n={n} seed={seed} f={f}");
        let f = f.min(2 * n + 2);
        let mut rng = Rng::seed_from_u64(seed);
        let failures = sample_failures(2 * n + 2, f, &mut rng);
        if all_pairs_connected_k(n, 2, &failures) {
            for s in 0..n {
                for t in 0..n {
                    if s != t {
                        assert!(
                            pair_connected_k(n, 2, &failures, s, t),
                            "{ctx}: pair ({s},{t})"
                        );
                    }
                }
            }
        }
    }
}

/// The predicate is symmetric in the pair.
#[test]
fn predicate_is_symmetric() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let n = rng.gen_range(2usize..16);
        let seed = rng.next_u64();
        let f = rng.gen_range(0usize..10);
        let ctx = format!("case {case}: n={n} seed={seed} f={f}");
        let f = f.min(2 * n + 2);
        let mut rng = Rng::seed_from_u64(seed);
        let failures = sample_failures(2 * n + 2, f, &mut rng);
        let s = (seed as usize) % n;
        let mut t = (seed as usize / 7) % n;
        if t == s {
            t = (t + 1) % n;
        }
        assert_eq!(
            pair_connected_k(n, 2, &failures, s, t),
            pair_connected_k(n, 2, &failures, t, s),
            "{ctx}",
        );
    }
}

/// By node symmetry of the component model, relabelling the pair does
/// not change the *probability*; spot-check that the count over a
/// random failure set matches for pair (0,1) and a random pair when
/// the set is symmetrized trivially (pure sanity, cheap).
#[test]
fn equation1_bounds_and_edges() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let n = rng.gen_range(2u64..80);
        let f_raw = rng.gen_range(0u64..20);
        let ctx = format!("case {case}: n={n} f_raw={f_raw}");
        let f = f_raw.min(component_count(n));
        let p = p_success(n, f);
        assert!((0.0..=1.0).contains(&p), "{ctx}");
        if f == 0 || f == 1 {
            assert_eq!(p, 1.0, "{ctx}");
        }
        if f == component_count(n) {
            assert_eq!(p, 0.0, "{ctx}");
        }
        // More failures never help.
        if f < component_count(n) {
            assert!(p_success(n, f + 1) <= p + 1e-12, "{ctx}");
        }
    }
}

/// ComponentSet insert/remove/iter behave like a set of indices.
#[test]
fn failure_set_is_a_set() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let mut indices: Vec<_> = (0..rng.gen_range(0usize..40))
            .map(|_| rng.gen_range(0usize..256))
            .collect();
        let ctx = format!("case {case}: indices={indices:?}");
        let set = ComponentSet::from_indices(&indices);
        indices.sort_unstable();
        indices.dedup();
        assert_eq!(set.len(), indices.len(), "{ctx}");
        let got: Vec<usize> = set.iter().collect();
        assert_eq!(got, indices, "{ctx}");
    }
}

/// Component index mapping is a bijection shared by both crates.
#[test]
fn component_indexing_roundtrips() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let n = rng.gen_range(2usize..100);
        let idx_raw = rng.gen_range(0usize..202);
        let ctx = format!("case {case}: n={n} idx_raw={idx_raw}");
        let idx = idx_raw % (2 * n + 2);
        assert_eq!(
            component_to_index(index_to_component(idx, n, 2), n, 2),
            idx,
            "{ctx}"
        );
    }
}

/// The full simulator (DRS included) is deterministic: identical
/// seeds give identical statistics, bit for bit.
#[test]
fn simulator_is_deterministic() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let seed = rng.next_u64();
        let ctx = format!("case {case}: seed={seed}");
        let run = || {
            let n = 5;
            let cfg = DrsConfig::default()
                .probe_timeout(SimDuration::from_millis(50))
                .probe_interval(SimDuration::from_millis(250));
            let spec = ClusterSpec::new(n).seed(seed);
            let mut w = World::new(spec, |id| DrsDaemon::new(id, n, cfg));
            let mut rng = Rng::seed_from_u64(seed);
            let (plan, _) = FaultPlan::random_simultaneous(SimTime(500_000_000), n, 2, 3, &mut rng);
            w.schedule_faults(plan);
            w.send_app(SimTime(1_000_000_000), NodeId(0), NodeId(1), 128);
            w.run_for(SimDuration::from_secs(8));
            (
                w.app_stats().clone(),
                w.medium(drs::sim::NetId::A).stats,
                w.medium(drs::sim::NetId::B).stats,
                w.protocol(NodeId(0)).metrics.events.clone(),
            )
        };
        assert_eq!(run(), run(), "{ctx}");
    }
}

/// Deterministic Fisher–Yates permutation of `0..k` driven by `seed`.
fn permutation(k: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..k).collect();
    for i in (1..k).rev() {
        let j = rng.gen_range(0..i + 1);
        order.swap(i, j);
    }
    order
}

const MERGE_QUANTILES: [f64; 6] = [0.0, 0.5, 0.9, 0.99, 0.999, 1.0];

/// Merging K per-worker histograms — in any order — is exactly the
/// histogram of all samples recorded serially: same count, sum,
/// min, max, and every quantile bound — directly, and through the
/// per-daemon `ProbeObs` blocks the simulator harvests. This is what
/// makes the parallel and serial artifact paths byte-identical.
#[test]
fn histogram_merge_is_order_independent_and_exact() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let samples: Vec<_> = (0..rng.gen_range(1usize..200))
            .map(|_| rng.next_u64())
            .collect();
        let k = rng.gen_range(1usize..6);
        let seed = rng.next_u64();
        let ctx = format!("case {case}: samples={samples:?} k={k} seed={seed}");
        let k = k.min(samples.len());
        let mut whole = Histogram::new();
        let mut whole_obs = ProbeObs::default();
        let mut parts = vec![Histogram::new(); k];
        let mut parts_obs = vec![ProbeObs::default(); k];
        for (i, &s) in samples.iter().enumerate() {
            whole.record(s);
            whole_obs.probe_rtt.record(s);
            parts[i % k].record(s);
            parts_obs[i % k].probe_rtt.record(s);
        }
        let mut merged = Histogram::new();
        let mut merged_obs = ProbeObs::default();
        for idx in permutation(k, seed) {
            merged.merge(&parts[idx]);
            merged_obs.merge(&parts_obs[idx]);
        }
        assert_eq!(merged.count(), whole.count(), "{ctx}");
        assert_eq!(merged.sum(), whole.sum(), "{ctx}");
        assert_eq!(merged.min(), whole.min(), "{ctx}");
        assert_eq!(merged.max(), whole.max(), "{ctx}");
        assert_eq!(&merged, &whole, "{ctx}");
        assert_eq!(&merged_obs, &whole_obs, "{ctx}");
        for q in MERGE_QUANTILES {
            assert_eq!(
                merged.quantile_upper_bound(q),
                whole.quantile_upper_bound(q),
                "{ctx}: obs quantile {} diverged after merge",
                q
            );
            assert_eq!(
                merged_obs.probe_rtt.quantile_upper_bound(q),
                whole.quantile_upper_bound(q),
                "{ctx}: sim quantile {} diverged after merge",
                q
            );
        }
    }
}

/// Under any random 2-failure scenario, DRS keeps every *connected*
/// pair deliverable (heavier: fewer cases).
#[test]
fn drs_delivers_whatever_the_model_says_is_deliverable() {
    for case in 0..16 {
        let mut rng = case_rng(case);
        let seed = rng.next_u64();
        let ctx = format!("case {case}: seed={seed}");
        let n = 6;
        let mut rng = Rng::seed_from_u64(seed);
        let failures = sample_failures(2 * n + 2, 2, &mut rng);
        let cfg = DrsConfig::default()
            .probe_timeout(SimDuration::from_millis(50))
            .probe_interval(SimDuration::from_millis(200));
        let transport = drs::sim::scenario::TransportConfig {
            initial_rto: SimDuration::from_millis(100),
            backoff_factor: 2,
            max_retries: 6,
        };
        let spec = ClusterSpec::new(n).seed(seed).transport(transport);
        let mut w = World::new(spec, |id| DrsDaemon::new(id, n, cfg));
        let mut plan = FaultPlan::new();
        for idx in failures.iter() {
            plan = plan.fail_at(SimTime(1_000_000_000), index_to_component(idx, n, 2));
        }
        w.schedule_faults(plan);
        w.run_for(SimDuration::from_secs(5));
        let flow = w.send_app(w.now(), NodeId(0), NodeId(1), 64);
        w.run_for(SimDuration::from_secs(20));
        let delivered = matches!(
            w.flow_outcome(flow),
            Some(drs::sim::world::FlowOutcome::Delivered(_))
        );
        assert_eq!(delivered, pair_connected_k(n, 2, &failures, 0, 1), "{ctx}");
    }
}
