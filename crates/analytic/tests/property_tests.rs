//! Property tests for the survivability mathematics: combinatorial
//! identities, estimator sanity, and structural invariants that must hold
//! for *every* parameter choice, not just the paper's.
//!
//! Each property is a loop over [`CASES`] seeded parameter draws; every
//! assertion prints the failing case (index and drawn parameters), and
//! `case_rng(index)` reruns it exactly.

use drs_obs::rng::Rng;

use drs_analytic::allpairs::{all_pairs_success_count, p_all_pairs};
use drs_analytic::binom::{binom, binom_f64, ln_binom, shared_table};
use drs_analytic::connectivity::{pair_connected_state, ClusterState, KPlane, Question};
use drs_analytic::enumerate::{
    count, count_block, count_parallel, enumerate_all_pairs_success, enumerate_pair_success,
    enumerate_pair_success_k, unrank,
};
use drs_analytic::exact::{component_count, disconnect_count, p_success, success_count};
use drs_analytic::montecarlo::{sample_failures, MonteCarlo};
use drs_analytic::orbit::orbit_pair_success;
use drs_analytic::qmodel::{binomial_failure_weight, geometric_failure_weight};

/// Draws per property.
const CASES: u64 = 256;

fn case_rng(case: u64) -> Rng {
    Rng::seed_from_u64(0xA7A1_171C ^ case)
}

/// The paper's model: the pair question on a two-plane cluster.
fn pair(n: usize) -> KPlane {
    KPlane::new(n, 2, Question::Pair)
}

/// Pascal's identity: C(n,k) = C(n-1,k-1) + C(n-1,k).
#[test]
fn pascal_identity() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let n = rng.gen_range(1u64..120);
        let k = rng.gen_range(0u64..120);
        let ctx = format!("case {case}: n={n} k={k}");
        let k = k.min(n);
        let lhs = binom(n, k);
        if k == 0 {
            assert_eq!(lhs, Some(1), "{ctx}");
        } else if let (Some(l), Some(a), Some(b)) = (lhs, binom(n - 1, k - 1), binom(n - 1, k)) {
            assert_eq!(l, a + b, "{ctx}");
        }
    }
}

/// Symmetry: C(n,k) = C(n,n-k); log agrees with exact.
#[test]
fn binom_symmetry_and_log() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let n = rng.gen_range(0u64..100);
        let k = rng.gen_range(0u64..100);
        let ctx = format!("case {case}: n={n} k={k}");
        if k > n {
            assert_eq!(binom(n, k), Some(0), "{ctx}");
        }
        if k <= n {
            assert_eq!(binom(n, k), binom(n, n - k), "{ctx}");
            if let Some(exact) = binom(n, k) {
                if exact > 0 {
                    let rel = (ln_binom(n, k).exp() - exact as f64).abs() / exact as f64;
                    assert!(rel < 1e-9, "{ctx}: rel={rel}");
                }
            }
            assert!(
                (binom_f64(n, k) - binom(n, k).unwrap() as f64).abs() < 1.0,
                "{ctx}"
            );
        }
    }
}

/// success + disconnect counts always total C(2N+2, f).
#[test]
fn counts_partition_the_space() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let n = rng.gen_range(2u64..60);
        let f = rng.gen_range(0u64..14);
        let ctx = format!("case {case}: n={n} f={f}");
        let f = f.min(component_count(n));
        let total = binom(component_count(n), f).unwrap();
        assert_eq!(success_count(n, f) + disconnect_count(n, f), total, "{ctx}");
    }
}

/// All-pairs success is a subset of pair success, count-wise.
#[test]
fn all_pairs_count_within_pair_count() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let n = rng.gen_range(2u64..40);
        let f = rng.gen_range(0u64..10);
        let ctx = format!("case {case}: n={n} f={f}");
        let f = f.min(component_count(n));
        assert!(
            all_pairs_success_count(n, f) <= success_count(n, f),
            "{ctx}"
        );
        let p = p_all_pairs(n, f);
        assert!((0.0..=1.0).contains(&p), "{ctx}");
    }
}

/// Hand-rolled reference predicate (reachability over the explicit
/// bipartite host/hub graph) agrees with the optimized bitmask
/// implementation on random states.
#[test]
fn predicate_matches_reference_reachability() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let n = rng.gen_range(2usize..16);
        let bp_a = rng.gen_bool(0.5);
        let bp_b = rng.gen_bool(0.5);
        let nic_bits = rng.next_u64();
        let ctx = format!("case {case}: n={n} bp_a={bp_a} bp_b={bp_b} nic_bits={nic_bits}");
        let mut st = ClusterState::fully_up_k(n, 2);
        st.bp = u8::from(bp_a) | u8::from(bp_b) << 1;
        st.nic[0] = (nic_bits & 0xFFFF_FFFF) as u128 & ((1u128 << n) - 1);
        st.nic[1] = (nic_bits >> 32) as u128 & ((1u128 << n) - 1);

        // Reference: BFS over nodes + hub vertices.
        let reference = |s: usize, t: usize| -> bool {
            let on_a = |i: usize| bp_a && st.nic[0] >> i & 1 == 1;
            let on_b = |i: usize| bp_b && st.nic[1] >> i & 1 == 1;
            // vertices: 0..n nodes, n = hubA, n+1 = hubB
            let mut seen = vec![false; n + 2];
            let mut stack = vec![s];
            seen[s] = true;
            while let Some(v) = stack.pop() {
                if v == t {
                    return true;
                }
                if v < n {
                    if on_a(v) && !seen[n] {
                        seen[n] = true;
                        stack.push(n);
                    }
                    if on_b(v) && !seen[n + 1] {
                        seen[n + 1] = true;
                        stack.push(n + 1);
                    }
                } else {
                    #[allow(clippy::needless_range_loop)] // u is a node id, not a slice index
                    for u in 0..n {
                        let attached = if v == n { on_a(u) } else { on_b(u) };
                        if attached && !seen[u] {
                            seen[u] = true;
                            stack.push(u);
                        }
                    }
                }
            }
            false
        };
        for s in 0..n.min(4) {
            for t in 0..n.min(4) {
                if s != t {
                    assert_eq!(
                        pair_connected_state(&st, s, t),
                        reference(s, t),
                        "{ctx}: pair ({}, {})",
                        s,
                        t
                    );
                }
            }
        }
    }
}

/// Sampling draws exactly f distinct components, all in range.
#[test]
fn sampler_draws_valid_sets() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let n = rng.gen_range(2usize..64);
        let f = rng.gen_range(0usize..20);
        let seed = rng.next_u64();
        let ctx = format!("case {case}: n={n} f={f} seed={seed}");
        let m = 2 * n + 2;
        let f = f.min(m);
        let mut rng = Rng::seed_from_u64(seed);
        let set = sample_failures(m, f, &mut rng);
        assert_eq!(set.len(), f, "{ctx}");
        for idx in set.iter() {
            assert!(idx < m, "{ctx}");
        }
    }
}

/// The dense component layout is total and bijective: every index of the
/// `K·N + K` universe clears exactly one liveness bit of the state, no two
/// indices clear the same one, and together they clear them all.
#[test]
fn component_index_bijection() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let planes = rng.gen_range(2u8..4);
        let k = planes as usize;
        let n = rng.gen_range(1usize..256 / k);
        let ctx = format!("case {case}: n={n} planes={planes}");
        let bits = |st: &ClusterState| {
            st.bp.count_ones() + st.nic.iter().map(|w| w.count_ones()).sum::<u32>()
        };
        let mut st = ClusterState::fully_up_k(n, planes);
        for idx in 0..k * n + k {
            let before = st;
            st.fail_index(idx);
            assert_eq!(bits(&st) + 1, bits(&before), "{ctx}: idx={idx}");
            let mut back = st;
            back.restore_index(idx);
            assert_eq!(back, before, "{ctx}: idx={idx}");
        }
        assert_eq!(bits(&st), 0, "{ctx}");
    }
}

/// Estimates live in [0,1] and are deterministic in the seed.
#[test]
fn estimator_bounds_and_determinism() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let n = rng.gen_range(2usize..32);
        let f = rng.gen_range(0usize..8);
        let seed = rng.next_u64();
        let ctx = format!("case {case}: n={n} f={f} seed={seed}");
        let f = f.min(2 * n + 2);
        let mc = MonteCarlo::new(n, f, seed);
        let a = mc.estimate(2_000);
        assert!((0.0..=1.0).contains(&a.p_hat), "{ctx}");
        assert_eq!(a, mc.estimate(2_000), "{ctx}");
        assert!(a.successes <= a.iterations, "{ctx}");
    }
}

/// Failure-count weightings are genuine probability masses.
#[test]
fn weights_are_distributions() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let q = rng.gen_range(0.001f64..0.999);
        let m = rng.gen_range(1u64..40);
        let ctx = format!("case {case}: q={q} m={m}");
        let geo: f64 = (0..=m).map(|f| geometric_failure_weight(q, f, m)).sum();
        assert!((geo - 1.0).abs() < 1e-9, "{ctx}");
        let bin: f64 = (0..=m).map(|f| binomial_failure_weight(q, f, m)).sum();
        assert!((bin - 1.0).abs() < 1e-6, "{ctx}");
    }
}

/// P[S] is weakly decreasing in f for any fixed n.
#[test]
fn survivability_decreases_in_f() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let n = rng.gen_range(2u64..50);
        let ctx = format!("case {case}: n={n}");
        let mut prev = 1.0f64;
        for f in 0..=component_count(n).min(12) {
            let p = p_success(n, f);
            assert!(p <= prev + 1e-12, "{ctx}: f={f}: {p} > {prev}");
            prev = p;
        }
    }
}

/// Lexicographic rank of a strictly increasing `k`-subset of `{0, …, n-1}`
/// — [`unrank`]'s inverse, kept here as its oracle.
fn rank_of(n: usize, indices: &[usize]) -> u128 {
    let table = shared_table();
    let k = indices.len();
    let mut rank: u128 = 0;
    let mut prev: usize = 0; // first eligible element at this position
    for (i, &v) in indices.iter().enumerate() {
        assert!(v < n && v >= prev, "indices must be strictly increasing");
        for x in prev..v {
            rank += table
                .get((n - 1 - x) as u64, (k - 1 - i) as u64)
                .expect("rank overflows u128");
        }
        prev = v + 1;
    }
    rank
}

/// Combinadic unranking is the inverse of ranking for every rank in
/// range, and produces strictly increasing in-range indices.
#[test]
fn unrank_rank_roundtrip() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let m = rng.gen_range(1usize..22);
        let k = rng.gen_range(0usize..8);
        let salt = rng.next_u64();
        let ctx = format!("case {case}: m={m} k={k} salt={salt}");
        let k = k.min(m);
        let total = shared_table().get(m as u64, k as u64).unwrap();
        let rank = if total == 0 {
            0
        } else {
            u128::from(salt) % total
        };
        let subset = unrank(m, k, rank).expect("rank in range");
        assert_eq!(subset.len(), k, "{ctx}");
        for w in subset.windows(2) {
            assert!(w[0] < w[1], "{ctx}");
        }
        for &idx in &subset {
            assert!(idx < m, "{ctx}");
        }
        assert_eq!(rank_of(m, &subset), rank, "{ctx}");
        assert_eq!(unrank(m, k, total), None, "{ctx}");
    }
}

/// Splitting the subset walk into contiguous rank blocks visits every
/// subset exactly once: block counts sum to the sequential totals.
#[test]
fn block_split_partitions_counts() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let n = rng.gen_range(2u64..7);
        let f = rng.gen_range(0u64..6);
        let blocks = u128::from(rng.gen_range(1u64..7));
        let ctx = format!("case {case}: n={n} f={f} blocks={blocks}");
        let f = f.min(component_count(n));
        let total = shared_table().get(component_count(n), f).unwrap();
        let (seq_succ, seq_total) = enumerate_pair_success(n as usize, f as usize);
        let per = total.div_ceil(blocks.min(total.max(1)));
        let mut succ_sum = 0u128;
        let mut total_sum = 0u128;
        let mut start = 0u128;
        while start < total {
            let count = per.min(total - start);
            let (s, t) = count_block(pair(n as usize), f as usize, start, Some(count));
            assert_eq!(t, count, "{ctx}");
            succ_sum += s;
            total_sum += t;
            start += count;
        }
        assert_eq!(total_sum, seq_total, "{ctx}");
        assert_eq!(succ_sum, seq_succ, "{ctx}");
    }
}

/// Orbit counting, raw sequential enumeration, and block-parallel
/// enumeration agree count-for-count on random small cells.
#[test]
fn orbit_matches_enumeration() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let n = rng.gen_range(2u64..7);
        let f = rng.gen_range(0u64..7);
        let ctx = format!("case {case}: n={n} f={f}");
        let f = f.min(component_count(n));
        let seq = count(pair(n as usize), f as usize);
        let par = count_parallel(&pair(n as usize), f as usize);
        let orbit = orbit_pair_success(n, f).expect("no overflow at this size");
        assert_eq!(par, seq, "{ctx}");
        assert_eq!(orbit, seq, "{ctx}");
        assert_eq!(orbit.0, success_count(n, f), "{ctx}");
    }
}

/// The K-general engines specialized to two planes reproduce the
/// legacy two-network ground truth count-for-count: the symmetry-
/// reduced orbit counter (K = 2 closed form), the generalized walk,
/// and the all-pairs closed form all agree across the (N, f) grid.
#[test]
fn k_general_engines_at_two_planes_match_legacy_orbit() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let n = rng.gen_range(2u64..7);
        let f = rng.gen_range(0u64..8);
        let ctx = format!("case {case}: n={n} f={f}");
        let f = f.min(component_count(n));
        let general = enumerate_pair_success_k(n as usize, 2, f as usize);
        let orbit = orbit_pair_success(n, f).expect("no overflow at this size");
        assert_eq!(general, orbit, "{ctx}");
        let all = enumerate_all_pairs_success(n as usize, f as usize);
        assert_eq!(all.0, all_pairs_success_count(n, f), "{ctx}");
    }
}

/// A three-plane cluster with the same failure budget is never less
/// survivable than the paper's two-plane cluster, and its Monte-Carlo
/// estimator agrees with its exhaustive walk.
#[test]
fn three_plane_universe_is_consistent() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let n = rng.gen_range(2usize..5);
        let f = rng.gen_range(0usize..5);
        let seed = rng.next_u64();
        let ctx = format!("case {case}: n={n} f={f} seed={seed}");
        let (s3, t3) = enumerate_pair_success_k(n, 3, f);
        let (s2, t2) = enumerate_pair_success_k(n, 2, f);
        let (p3, p2) = (s3 as f64 / t3 as f64, s2 as f64 / t2 as f64);
        assert!(p3 >= p2 - 1e-12, "{ctx}: K=3 {p3} < K=2 {p2}");
        let est = MonteCarlo::new_k(n, 3, f, seed).estimate(4_000);
        assert!(
            (est.p_hat - p3).abs() < 6.0 * est.std_error.max(1e-3),
            "{ctx}"
        );
    }
}
