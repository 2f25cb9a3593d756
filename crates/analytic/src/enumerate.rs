//! Exhaustive enumeration of failure combinations.
//!
//! For small universes it is feasible to walk **every** `f`-subset of the
//! components (the paper's `2N + 2`, `K·N + K` in general, or a graph's
//! switches and links) and evaluate the connectivity predicate directly.
//! This is the ground truth the closed form ([`crate::exact`]) and the
//! Monte-Carlo estimator ([`crate::montecarlo`]) are validated against.
//!
//! There is one walk. It drives any [`FailureModel`] — the bitmask
//! [`KPlane`] behind the `enumerate_*` entry points here, the graph-search
//! [`crate::topo::GraphModel`] behind the `*_topo` ones — so a K-plane
//! cluster and a fat-tree are counted by the same code and differ only in
//! the predicate. Two things make it fast enough to be useful well beyond
//! toy sizes:
//!
//! * **delta updates** — successive lexicographic combinations share a long
//!   prefix, so the walk restores/fails only the indices that changed
//!   instead of rebuilding the model and re-applying all `f` failures per
//!   subset (amortized `O(1)` index flips per step);
//! * **unranking** — [`unrank`] maps a lexicographic rank to its
//!   combination in `O(n)`, which lets [`count_parallel`] split the full
//!   walk into contiguous blocks and fan them across worker threads, each
//!   block delta-walking its own clone of the model.
//!
//! For the symmetry-reduced counter that replaces the walk entirely with
//! polynomially many weighted equivalence classes, see [`crate::orbit`].

use drs_harness::par;

use crate::binom::shared_table;
use crate::components::FailureModel;
use crate::connectivity::{KPlane, Question};

/// Cursor over the `k`-subsets of `0..n` in lexicographic order, stepped
/// in place (no per-item allocation).
struct Combinations {
    n: usize,
    k: usize,
    idx: Vec<usize>,
}

impl Combinations {
    /// A cursor on the combination of lexicographic rank `rank`, or `None`
    /// if `rank` is out of range (`rank ≥ C(n, k)`; every rank when
    /// `k > n`).
    fn from_rank(n: usize, k: usize, rank: u128) -> Option<Self> {
        unrank(n, k, rank).map(|idx| Combinations { n, k, idx })
    }

    /// The combination the cursor currently points at.
    fn current(&self) -> &[usize] {
        &self.idx
    }

    /// Steps to the lexicographic successor in place, returning the
    /// leftmost position whose index changed (every position to its right
    /// changed too), or `None` — leaving the cursor on the last
    /// combination — when there is no successor.
    fn advance(&mut self) -> Option<usize> {
        // Find the rightmost index that can still be bumped.
        let k = self.k;
        let i = (0..k).rev().find(|&i| self.idx[i] < self.n - (k - i))?;
        self.idx[i] += 1;
        for j in i + 1..k {
            self.idx[j] = self.idx[j - 1] + 1;
        }
        Some(i)
    }
}

/// The `k`-subset of `{0, …, n-1}` with lexicographic rank `rank`
/// (0-based), or `None` when `rank ≥ C(n, k)`.
///
/// Standard combinadic decoding against the shared binomial table: `O(n)`
/// table lookups, no allocation beyond the returned vector.
#[must_use]
pub fn unrank(n: usize, k: usize, rank: u128) -> Option<Vec<usize>> {
    let table = shared_table();
    if let Some(total) = table.get(n as u64, k as u64) {
        if rank >= total {
            return None;
        }
    }
    // When the total overflows u128 the bound check above is skipped, but
    // every representable rank is then in range: rank ≤ u128::MAX < total.
    let mut idx = Vec::with_capacity(k);
    let mut r = rank;
    let mut x = 0usize; // smallest element still eligible
    for i in 0..k {
        loop {
            // Unreachable for in-range ranks (and when `C(n, k)` overflows
            // `u128`, every `u128` rank is in range), but degrade to `None`
            // rather than a wrong subset if the walk ever runs past the
            // universe.
            if x >= n {
                return None;
            }
            // Combinations that put x at position i: C(n-1-x, k-1-i).
            match table.get((n - 1 - x) as u64, (k - 1 - i) as u64) {
                Some(c) if r >= c => {
                    r -= c;
                    x += 1;
                }
                // r < c, or c overflows u128 (astronomically many): pick x.
                _ => break,
            }
        }
        idx.push(x);
        x += 1;
    }
    Some(idx)
}

/// Delta-update walk of `model` over the `f`-subsets of its universe with
/// lexicographic ranks `[start_rank, start_rank + limit)` (to exhaustion
/// when `limit` is `None`), invoking `visit` with the model — exactly the
/// subset's components failed — and the subset's indices. `model` must
/// come in with nothing failed. Returns the number of subsets visited.
fn walk<M: FailureModel>(
    model: &mut M,
    f: usize,
    start_rank: u128,
    limit: Option<u128>,
    mut visit: impl FnMut(&mut M, &[usize]),
) -> u128 {
    if limit == Some(0) {
        return 0;
    }
    let Some(mut combos) = Combinations::from_rank(model.universe(), f, start_rank) else {
        return 0;
    };
    let mut cur = combos.current().to_vec();
    for &i in &cur {
        model.fail(i);
    }
    let mut visited: u128 = 0;
    loop {
        visit(model, &cur);
        visited += 1;
        if limit == Some(visited) {
            break;
        }
        let Some(pivot) = combos.advance() else {
            break;
        };
        // Only the suffix from `pivot` changed: restore the old indices,
        // fail the new ones (the two suffixes may overlap, so restore
        // everything first).
        for &old in &cur[pivot..] {
            model.restore(old);
        }
        for (slot, &new) in cur[pivot..].iter_mut().zip(&combos.current()[pivot..]) {
            model.fail(new);
            *slot = new;
        }
    }
    visited
}

/// Counts, over the `f`-subsets of `model`'s universe with lexicographic
/// ranks `[start_rank, start_rank + limit)` (all from `start_rank` on when
/// `limit` is `None`), how many leave the model's question holding.
/// Returns `(successes, visited)`; `visited` falls short of `limit` when
/// the block runs past the end of the space, and is 0 for `f` beyond the
/// universe.
#[must_use]
pub fn count_block<M: FailureModel>(
    mut model: M,
    f: usize,
    start_rank: u128,
    limit: Option<u128>,
) -> (u128, u128) {
    let mut success: u128 = 0;
    let visited = walk(&mut model, f, start_rank, limit, |model, _| {
        success += u128::from(model.holds());
    });
    (success, visited)
}

/// Counts over **all** `f`-subsets of `model`'s universe: `(successes,
/// total)` with `total = C(universe, f)` predicate evaluations and
/// amortized-`O(1)` model maintenance between them.
#[must_use]
pub fn count<M: FailureModel>(model: M, f: usize) -> (u128, u128) {
    count_block(model, f, 0, None)
}

/// [`count`] fanned across [`par`] workers: the rank space is split into
/// contiguous blocks (a few per worker thread) and each block delta-walks
/// a clone of `model` from its unranked starting combination.
/// Bit-identical counts to the sequential walk, in `~1/cores` the time for
/// block counts ≫ thread count.
///
/// # Panics
/// Panics if `C(universe, f)` overflows `u128`.
#[must_use]
pub fn count_parallel<M: FailureModel + Clone + Sync>(model: &M, f: usize) -> (u128, u128) {
    let total = shared_table()
        .get(model.universe() as u64, f as u64)
        .expect("combination count overflows u128");
    if total == 0 {
        return (0, 0);
    }
    // A few blocks per thread keeps the workers busy even though block walk
    // times vary slightly (later blocks have cheaper delta steps).
    let blocks = (par::workers() as u128 * 4).clamp(1, total);
    let block_len = total.div_ceil(blocks);
    let n_blocks = total.div_ceil(block_len) as usize;
    par::map(n_blocks, |b| {
        count_block(model.clone(), f, b as u128 * block_len, Some(block_len))
    })
    .into_iter()
    .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
}

/// Counts, over **all** `f`-subsets of the `2n + 2` components, how many
/// leave the pair `(0, 1)` connected. Returns `(successes, total)`.
/// Practical to `n ≈ 10`; [`count_parallel`] serves mid sizes and
/// [`crate::orbit::orbit_pair_success`] the full range.
#[must_use]
pub fn enumerate_pair_success(n: usize, f: usize) -> (u128, u128) {
    enumerate_pair_success_k(n, 2, f)
}

/// [`enumerate_pair_success`] for a `planes`-plane cluster: counts, over
/// all `f`-subsets of the `planes·n + planes` components, how many leave
/// the pair `(0, 1)` connected.
#[must_use]
pub fn enumerate_pair_success_k(n: usize, planes: u8, f: usize) -> (u128, u128) {
    count(KPlane::new(n, planes, Question::Pair), f)
}

/// Counts failure sets of the two-plane cluster preserving **all-pairs**
/// connectivity. Returns `(successes, total)`.
#[must_use]
pub fn enumerate_all_pairs_success(n: usize, f: usize) -> (u128, u128) {
    count(KPlane::new(n, 2, Question::AllPairs), f)
}

/// Exhaustive `P\[Success\]` for the pair model, as a float.
#[must_use]
pub fn exhaustive_p_success(n: usize, f: usize) -> f64 {
    let (s, t) = enumerate_pair_success(n, f);
    s as f64 / t as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binom::binom;
    use crate::topo::GraphModel;
    use drs_topology::generators::{fat_tree, kplane};
    use drs_topology::Reachability;

    /// A universe with no state and no question: what the walk visits is
    /// then exactly what [`Combinations`] yields.
    #[derive(Clone)]
    struct Universe(usize);

    impl FailureModel for Universe {
        fn universe(&self) -> usize {
            self.0
        }
        fn fail(&mut self, _: usize) {}
        fn restore(&mut self, _: usize) {}
        fn reset(&mut self) {}
        fn holds(&mut self) -> bool {
            true
        }
    }

    /// Every `k`-subset of `0..n` from rank `start` on, in walk order.
    fn subsets_from(n: usize, k: usize, start: u128) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        walk(&mut Universe(n), k, start, None, |_, ix| {
            out.push(ix.to_vec())
        });
        out
    }

    fn pair(n: usize, planes: u8) -> KPlane {
        KPlane::new(n, planes, Question::Pair)
    }

    #[test]
    fn combinations_count_matches_binomial() {
        for n in 0..=10usize {
            for k in 0..=n + 1 {
                let count = subsets_from(n, k, 0).len() as u128;
                assert_eq!(Some(count), binom(n as u64, k as u64), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn combinations_are_sorted_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for ix in subsets_from(6, 3, 0) {
            assert!(ix.windows(2).all(|w| w[0] < w[1]), "not strictly sorted");
            assert!(seen.insert(ix), "duplicate combination");
        }
        assert_eq!(seen.len(), 20);
    }

    #[test]
    fn zero_subset_is_the_empty_set() {
        assert_eq!(subsets_from(5, 0, 0), vec![Vec::<usize>::new()]);
    }

    #[test]
    fn unrank_matches_walk_order() {
        let (n, k) = (9, 4);
        let all = subsets_from(n, k, 0);
        for (rank, ix) in all.iter().enumerate() {
            let rank = rank as u128;
            assert_eq!(unrank(n, k, rank).as_ref(), Some(ix), "rank={rank}");
        }
        assert_eq!(Some(all.len() as u128), binom(n as u64, k as u64));
        assert_eq!(unrank(n, k, all.len() as u128), None, "one past the end");
    }

    #[test]
    fn unrank_edge_cases() {
        assert_eq!(unrank(5, 0, 0), Some(vec![]));
        assert_eq!(unrank(5, 0, 1), None);
        assert_eq!(unrank(5, 5, 0), Some(vec![0, 1, 2, 3, 4]));
        assert_eq!(unrank(5, 6, 0), None, "k > n has no combinations");
        assert_eq!(unrank(6, 2, 14), Some(vec![4, 5]), "last rank");
    }

    #[test]
    fn from_rank_resumes_mid_walk() {
        let (n, k) = (8, 3);
        assert_eq!(subsets_from(n, k, 40), subsets_from(n, k, 0)[40..]);
        assert!(
            subsets_from(n, k, 56).is_empty(),
            "C(8, 3) = 56 is out of range"
        );
    }

    /// Sums `count_block` over consecutive `block`-sized rank ranges until
    /// one comes back short.
    fn sum_of_blocks<M: FailureModel + Clone>(model: &M, f: usize, block: u128) -> (u128, u128) {
        let mut acc = (0u128, 0u128);
        let mut start = 0u128;
        loop {
            let (s, v) = count_block(model.clone(), f, start, Some(block));
            acc = (acc.0 + s, acc.1 + v);
            if v < block {
                return acc;
            }
            start += block;
        }
    }

    #[test]
    fn block_split_partitions_the_space() {
        // Odd-sized blocks must visit every subset exactly once: the
        // per-block (successes, visited) sums match the full walk — under
        // either model.
        let (n, f) = (5usize, 4usize);
        let full = enumerate_pair_success(n, f);
        assert_eq!(full.1, binom(12, 4).unwrap());
        for block in [1u128, 3, 7, 64, 1000] {
            assert_eq!(sum_of_blocks(&pair(n, 2), f, block), full, "block={block}");
        }
        let topo = kplane(4, 2);
        let graph = GraphModel::new(&topo, 0, 1, Reachability::Transitive);
        let full = count(graph.clone(), 3);
        assert_eq!(full.1, binom(10, 3).unwrap());
        for block in [1u128, 7, 64] {
            assert_eq!(sum_of_blocks(&graph, 3, block), full, "graph block={block}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        for n in 2..=6usize {
            for f in 0..=6usize {
                assert_eq!(
                    count_parallel(&pair(n, 2), f),
                    enumerate_pair_success(n, f),
                    "n={n} f={f}"
                );
            }
        }
    }

    #[test]
    fn extra_planes_never_hurt_survivability() {
        // With the same number of failures, a deeper redundancy layer can
        // only raise the success fraction.
        for n in 2..=4usize {
            for f in 1..=4usize {
                let mut prev = 0.0f64;
                for planes in 2u8..=4 {
                    let (s, t) = enumerate_pair_success_k(n, planes, f);
                    let p = s as f64 / t as f64;
                    assert!(p >= prev - 1e-12, "n={n} f={f} K={planes}: {p} < {prev}");
                    prev = p;
                }
            }
        }
    }

    #[test]
    fn three_plane_totals_are_binomials() {
        let (_, total) = enumerate_pair_success_k(4, 3, 2);
        assert_eq!(total, binom(15, 2).unwrap());
        let (s, t) = enumerate_pair_success_k(3, 3, 3);
        // All three backplanes down is a cut; totals still C(12, 3).
        assert_eq!(t, binom(12, 3).unwrap());
        assert!(s < t);
    }

    #[test]
    fn parallel_k_matches_sequential_k() {
        for planes in 2u8..=4 {
            for f in 0..=4usize {
                assert_eq!(
                    count_parallel(&pair(4, planes), f),
                    enumerate_pair_success_k(4, planes, f),
                    "K={planes} f={f}"
                );
            }
        }
    }

    /// At every step of the walk the delta-updated model must equal one
    /// rebuilt from the subset's index list, compared through `state`.
    fn assert_delta_matches_rebuild<M: FailureModel + Clone, S: PartialEq + std::fmt::Debug>(
        pristine: &M,
        f: usize,
        state: impl Fn(&M) -> S,
    ) {
        let visited = walk(&mut pristine.clone(), f, 0, None, |model, indices| {
            let mut rebuilt = pristine.clone();
            for &i in indices {
                rebuilt.fail(i);
            }
            assert_eq!(state(model), state(&rebuilt), "indices={indices:?}");
        });
        assert_eq!(Some(visited), binom(pristine.universe() as u64, f as u64));
    }

    #[test]
    fn delta_state_matches_rebuild() {
        let (n, f) = (4usize, 3usize);
        for planes in [2u8, 3] {
            assert_delta_matches_rebuild(&pair(n, planes), f, |m| m.state);
        }
        // Same invariant for the graph model's failed-component set.
        let topo = fat_tree(2);
        let graph = GraphModel::new(&topo, 0, 1, Reachability::Transitive);
        assert_delta_matches_rebuild(&graph, f, |m| m.failed);
    }

    #[test]
    fn totals_are_binomials() {
        let (_, total) = enumerate_pair_success(4, 3);
        assert_eq!(total, binom(10, 3).unwrap());
    }

    #[test]
    fn f_beyond_the_universe_counts_nothing() {
        // The sweep relies on this: an `f > 2N + 2` cell is (0, 0), serial
        // or parallel, not a panic.
        assert_eq!(enumerate_pair_success(2, 7), (0, 0));
        assert_eq!(count_parallel(&pair(2, 2), 7), (0, 0));
    }

    #[test]
    fn f2_disconnecting_sets_are_the_known_cuts() {
        // N=4: exactly the 7 two-cuts derived in exact.rs.
        let mut cuts = Vec::new();
        walk(&mut pair(4, 2), 2, 0, None, |model, indices| {
            if !model.holds() {
                cuts.push(indices.to_vec());
            }
        });
        assert_eq!(cuts.len(), 7);
        // Both backplanes, a backplane and an endpoint's opposite NIC (x4),
        // both NICs of an endpoint (x2).
        assert!(cuts.contains(&vec![0, 1]));
        assert!(cuts.contains(&vec![0, 2 + 4]) && cuts.contains(&vec![1, 2 + 1]));
        assert!(cuts.contains(&vec![2, 2 + 4]) && cuts.contains(&vec![3, 3 + 4]));
    }

    #[test]
    fn all_pairs_success_is_at_most_pair_success() {
        for n in 2..=5 {
            for f in 0..=5 {
                let (pair, total) = enumerate_pair_success(n, f);
                let (all, total2) = enumerate_all_pairs_success(n, f);
                assert_eq!(total, total2);
                assert!(all <= pair, "n={n} f={f}");
            }
        }
    }

    #[test]
    fn exhaustive_probability_bounds() {
        for n in 2..=5 {
            for f in 0..=4 {
                let p = exhaustive_p_success(n, f);
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }
}
