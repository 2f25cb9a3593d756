//! Counting engines over arbitrary [`Topology`] graphs.
//!
//! [`crate::enumerate`] and [`crate::montecarlo`] count over the K-plane
//! `K·N + K` component universe with the bitmask [`ClusterState`]
//! predicate. This module generalizes both to **any** topology from
//! [`drs_topology`]: the universe is the graph's switches-then-links
//! component ordering, and the predicate is a
//! [`Reachability`] policy evaluated by union-find over the live
//! subgraph — [`Reachability::Transitive`] for multi-hop fabrics
//! (Fat-Tree, BCube, DCell), [`Reachability::OneHostRelay`] for the DRS
//! protocol semantics.
//!
//! On the degenerate [`drs_topology::generators::kplane`] topology the
//! universe ordering is bit-compatible with the K-plane layout, so with
//! [`Reachability::OneHostRelay`] these engines reproduce
//! [`crate::enumerate::enumerate_pair_success_k`] count-for-count and
//! [`crate::montecarlo::MonteCarlo`] **draw-for-draw** (identical RNG
//! sequence) — the tests pin both.
//!
//! [`ClusterState`]: crate::connectivity::ClusterState

use drs_obs::rng::Rng;
use drs_topology::limits::validate_components;
use drs_topology::{ComponentSet, ReachEngine, Reachability, Topology};

use crate::binom::shared_table;
use crate::enumerate::{sum_blocks, Combinations};
use crate::montecarlo::{chunked_successes, MonteCarloEstimate};

/// Validates `topo`'s component universe against the shared 256-bit
/// failure-set capacity, panicking with the common [`drs_topology::limits`]
/// wording — every engine in this module rejects oversized universes with
/// the same error.
fn validate_universe(topo: &Topology) {
    if let Err(e) = validate_components(topo.component_count()) {
        panic!("{e}");
    }
}

/// Delta-update walk over the failure combinations
/// `[start_rank, start_rank + limit)` (or to exhaustion when `limit` is
/// `None`) of the topology's component universe, invoking `visit` with the
/// failed-component set for each. Returns the number of subsets visited.
fn walk_subsets(
    topo: &Topology,
    f: usize,
    start_rank: u128,
    limit: Option<u128>,
    visit: &mut dyn FnMut(&ComponentSet),
) -> u128 {
    validate_universe(topo);
    if limit == Some(0) {
        return 0;
    }
    let m = topo.component_count();
    let mut combos = Combinations::from_rank(m, f, start_rank);
    let Some(first) = combos.next_combination() else {
        return 0;
    };
    let mut failed = ComponentSet::from_indices(first);
    let mut cur = first.to_vec();
    let mut visited: u128 = 0;
    loop {
        visit(&failed);
        visited += 1;
        if limit == Some(visited) {
            break;
        }
        match combos.advance() {
            None => break,
            Some(pivot) => {
                // Only the suffix from `pivot` changed: clear the old
                // indices, set the new ones (the suffixes may overlap, so
                // clear everything first).
                for &old in &cur[pivot..] {
                    failed.remove(old);
                }
                for (slot, &new) in cur[pivot..].iter_mut().zip(&combos.current()[pivot..]) {
                    failed.insert(new);
                    *slot = new;
                }
            }
        }
    }
    visited
}

/// Counts, over all `f`-subsets of the topology's component universe, how
/// many leave hosts `s` and `t` connected under `policy`. Returns
/// `(successes, total)`.
///
/// Unlike the K-plane cluster, a general topology is not
/// component-transitive — different host pairs can have different counts —
/// so the pair is explicit.
///
/// # Panics
/// Panics if the universe exceeds the shared 256-component capacity, or on
/// an invalid pair (see [`ReachEngine::pair_connected`]).
#[must_use]
pub fn enumerate_pair_success_topo(
    topo: &Topology,
    f: usize,
    s: usize,
    t: usize,
    policy: Reachability,
) -> (u128, u128) {
    let mut eng = ReachEngine::new(topo);
    let mut success: u128 = 0;
    let total = walk_subsets(topo, f, 0, None, &mut |failed| {
        if eng.pair_connected(failed, s, t, policy) {
            success += 1;
        }
    });
    (success, total)
}

/// [`enumerate_pair_success_topo`] restricted to the contiguous block of
/// combinations `[start_rank, start_rank + count)` in lexicographic rank
/// order. Returns `(successes, visited)`; `visited < count` when the block
/// runs past the end of the space.
#[must_use]
pub fn enumerate_pair_success_topo_block(
    topo: &Topology,
    f: usize,
    s: usize,
    t: usize,
    policy: Reachability,
    start_rank: u128,
    count: u128,
) -> (u128, u128) {
    let mut eng = ReachEngine::new(topo);
    let mut success: u128 = 0;
    let visited = walk_subsets(topo, f, start_rank, Some(count), &mut |failed| {
        if eng.pair_connected(failed, s, t, policy) {
            success += 1;
        }
    });
    (success, visited)
}

/// [`enumerate_pair_success_topo`] fanned across [`drs_harness::par`]
/// workers: the rank space splits into contiguous blocks (a few per worker
/// thread) and each block delta-walks independently from its unranked
/// starting combination. Bit-identical counts to the sequential walk.
#[must_use]
pub fn enumerate_pair_success_topo_parallel(
    topo: &Topology,
    f: usize,
    s: usize,
    t: usize,
    policy: Reachability,
) -> (u128, u128) {
    validate_universe(topo);
    let m = topo.component_count();
    let total = shared_table()
        .get(m as u64, f as u64)
        .expect("combination count overflows u128");
    sum_blocks(total, |start, count| {
        enumerate_pair_success_topo_block(topo, f, s, t, policy, start, count)
    })
}

/// Counts failure subsets preserving connectivity between **every** host
/// pair under `policy`. Returns `(successes, total)`. Sequential only —
/// the all-pairs evaluation is `O(H²)` per subset, so keep the universe
/// small.
#[must_use]
pub fn enumerate_all_pairs_success_topo(
    topo: &Topology,
    f: usize,
    policy: Reachability,
) -> (u128, u128) {
    let mut eng = ReachEngine::new(topo);
    let hosts = topo.hosts();
    assert!(hosts >= 2, "need a pair of hosts");
    let mut success: u128 = 0;
    let total = walk_subsets(topo, f, 0, None, &mut |failed| {
        let all =
            (0..hosts).all(|s| (s + 1..hosts).all(|t| eng.pair_connected(failed, s, t, policy)));
        if all {
            success += 1;
        }
    });
    (success, total)
}

/// Draws `f` distinct failed components from the topology's universe by
/// rejection sampling — for equal universe sizes the draw sequence is
/// identical to [`crate::montecarlo::sample_failure_set_k`], so the
/// K-plane estimators agree bit-for-bit, not just statistically.
#[must_use]
pub fn sample_failure_components(m: usize, f: usize, rng: &mut Rng) -> ComponentSet {
    assert!(f <= m, "cannot fail {f} of {m} components");
    let mut drawn = ComponentSet::new();
    let mut remaining = f;
    while remaining > 0 {
        let idx = rng.gen_range(0..m);
        if !drawn.contains(idx) {
            drawn.insert(idx);
            remaining -= 1;
        }
    }
    drawn
}

/// Monte-Carlo estimator of pair survivability over an arbitrary topology
/// — the [`crate::montecarlo::MonteCarlo`] sibling for universes too large
/// to enumerate (e.g. Fat-Tree cells in the topology-zoo artifact).
#[derive(Debug, Clone)]
pub struct TopoMonteCarlo<'a> {
    topo: &'a Topology,
    f: usize,
    s: usize,
    t: usize,
    policy: Reachability,
    seed: u64,
}

impl<'a> TopoMonteCarlo<'a> {
    /// Creates an estimator for exactly `f` failed components out of the
    /// topology's universe, testing hosts `s`–`t` under `policy`.
    ///
    /// # Panics
    /// Panics if the universe exceeds the shared 256-component capacity,
    /// if `f` exceeds the universe, or if `(s, t)` is not a distinct host
    /// pair.
    #[must_use]
    pub fn new(
        topo: &'a Topology,
        f: usize,
        s: usize,
        t: usize,
        policy: Reachability,
        seed: u64,
    ) -> Self {
        validate_universe(topo);
        let m = topo.component_count();
        assert!(f <= m, "cannot fail {f} of {m} components");
        assert!(
            topo.is_host(s) && topo.is_host(t) && s != t,
            "({s},{t}) is not a distinct host pair"
        );
        TopoMonteCarlo {
            topo,
            f,
            s,
            t,
            policy,
            seed,
        }
    }

    /// Draws one random failure scenario and reports whether the pair
    /// survived it.
    #[must_use]
    pub fn sample_once(&self, eng: &mut ReachEngine<'a>, rng: &mut Rng) -> bool {
        let failed = sample_failure_components(self.topo.component_count(), self.f, rng);
        eng.pair_connected(&failed, self.s, self.t, self.policy)
    }

    /// Runs `iterations` sequential samples.
    #[must_use]
    pub fn estimate(&self, iterations: u64) -> MonteCarloEstimate {
        let mut eng = ReachEngine::new(self.topo);
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut successes = 0u64;
        for _ in 0..iterations {
            if self.sample_once(&mut eng, &mut rng) {
                successes += 1;
            }
        }
        MonteCarloEstimate::from_counts(successes, iterations)
    }

    /// Runs `iterations` samples split into parallel chunks, each
    /// with its own SplitMix64-derived RNG stream — deterministic for a
    /// given `(seed, iterations)` regardless of worker-thread scheduling,
    /// exactly like [`crate::montecarlo::MonteCarlo::estimate_parallel`].
    #[must_use]
    pub fn estimate_parallel(&self, iterations: u64) -> MonteCarloEstimate {
        let successes = chunked_successes(self.seed, iterations, 1 << 14, |rng, count| {
            let mut eng = ReachEngine::new(self.topo);
            (0..count)
                .filter(|_| self.sample_once(&mut eng, rng))
                .count() as u64
        });
        MonteCarloEstimate::from_counts(successes, iterations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binom::binom;
    use crate::enumerate::enumerate_pair_success_k;
    use crate::montecarlo::MonteCarlo;
    use crate::orbit::orbit_pair_success;
    use drs_topology::generators::{bcube, fat_tree, kplane};

    #[test]
    fn kplane_topology_reproduces_the_k_engine_counts() {
        // The degenerate topology + OneHostRelay IS the K-plane model:
        // identical universe ordering, identical predicate, identical
        // counts — across K, not just the paper's 2.
        for planes in 2u8..=4 {
            for n in 2..=4usize {
                let topo = kplane(n, planes as usize);
                for f in 0..=4usize {
                    assert_eq!(
                        enumerate_pair_success_topo(&topo, f, 0, 1, Reachability::OneHostRelay),
                        enumerate_pair_success_k(n, planes, f),
                        "K={planes} n={n} f={f}"
                    );
                }
            }
        }
    }

    #[test]
    fn kplane_topology_matches_the_orbit_closed_form() {
        let topo = kplane(6, 2);
        for f in 0..=6u64 {
            let (s, t) =
                enumerate_pair_success_topo(&topo, f as usize, 0, 1, Reachability::OneHostRelay);
            assert_eq!(Some((s, t)), orbit_pair_success(6, f), "f={f}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let topo = fat_tree(2);
        for f in 0..=3usize {
            for policy in [Reachability::Transitive, Reachability::OneHostRelay] {
                assert_eq!(
                    enumerate_pair_success_topo_parallel(&topo, f, 0, 1, policy),
                    enumerate_pair_success_topo(&topo, f, 0, 1, policy),
                    "f={f} policy={policy:?}"
                );
            }
        }
    }

    #[test]
    fn block_split_partitions_the_space() {
        let topo = kplane(4, 2);
        let f = 3;
        let full = enumerate_pair_success_topo(&topo, f, 0, 1, Reachability::Transitive);
        for block in [1u128, 7, 64] {
            let mut acc = (0u128, 0u128);
            let mut start = 0u128;
            loop {
                let (s, v) = enumerate_pair_success_topo_block(
                    &topo,
                    f,
                    0,
                    1,
                    Reachability::Transitive,
                    start,
                    block,
                );
                acc = (acc.0 + s, acc.1 + v);
                if v < block {
                    break;
                }
                start += block;
            }
            assert_eq!(acc, full, "block={block}");
        }
        assert_eq!(full.1, binom(10, 3).unwrap());
    }

    #[test]
    fn kplane_monte_carlo_is_draw_identical_to_the_k_estimator() {
        // Same universe size, same rejection sampler, same seed: the
        // topology estimator must reproduce the K-plane estimator's counts
        // exactly (not statistically).
        for (n, planes, f) in [(8usize, 2u8, 3usize), (5, 3, 4)] {
            let topo = kplane(n, planes as usize);
            let a = TopoMonteCarlo::new(&topo, f, 0, 1, Reachability::OneHostRelay, 42)
                .estimate(20_000);
            let b = MonteCarlo::new_k(n, planes, f, 42).estimate(20_000);
            assert_eq!(a, b, "n={n} K={planes} f={f}");
        }
    }

    #[test]
    fn parallel_estimate_is_deterministic_and_sane() {
        let topo = bcube(4, 1);
        let mc = TopoMonteCarlo::new(&topo, 3, 0, 15, Reachability::Transitive, 7);
        let a = mc.estimate_parallel(50_000);
        assert_eq!(a, mc.estimate_parallel(50_000));
        // Exhaustive cross-check: C(40, 3) = 9880 subsets.
        let (s, t) = enumerate_pair_success_topo(&topo, 3, 0, 15, Reachability::Transitive);
        let exact = s as f64 / t as f64;
        assert!(
            (a.p_hat - exact).abs() < 5.0 * a.std_error.max(1e-4),
            "{} vs {exact}",
            a.p_hat
        );
    }

    #[test]
    fn all_pairs_is_at_most_pair_success() {
        let topo = kplane(3, 2);
        for f in 0..=4usize {
            let (pair, total) =
                enumerate_pair_success_topo(&topo, f, 0, 1, Reachability::Transitive);
            let (all, total2) =
                enumerate_all_pairs_success_topo(&topo, f, Reachability::Transitive);
            assert_eq!(total, total2);
            assert!(all <= pair, "f={f}");
        }
    }

    #[test]
    fn fat_tree_pairs_are_not_interchangeable() {
        // Same-edge-switch hosts survive strictly more subsets than
        // cross-pod hosts: the per-pair generality is load-bearing.
        let topo = fat_tree(4);
        let f = 2;
        let (same_edge, _) = enumerate_pair_success_topo(&topo, f, 0, 1, Reachability::Transitive);
        let (cross_pod, _) =
            enumerate_pair_success_topo(&topo, f, 0, topo.hosts() - 1, Reachability::Transitive);
        assert!(
            same_edge > cross_pod,
            "{same_edge} should exceed {cross_pod}"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the 256-component index space")]
    fn oversized_universe_rejected_with_the_shared_error() {
        // Fat-Tree(8): 128 hosts, 80 switches, 384 links — 464 components.
        let topo = fat_tree(8);
        let _ = enumerate_pair_success_topo(&topo, 1, 0, 1, Reachability::Transitive);
    }
}
