//! Exhaustive enumeration of failure combinations.
//!
//! For small clusters it is feasible to walk **every** `f`-subset of the
//! `K·N + K` components (the paper's `2N + 2` at `K = 2`) and evaluate
//! the connectivity predicate directly.
//! This is the ground truth the closed form ([`crate::exact`]) and the
//! Monte-Carlo estimator ([`crate::montecarlo`]) are validated against: the
//! three implementations share nothing but the component model, so
//! agreement is strong evidence each is correct.
//!
//! Two things make the walk fast enough to be useful well beyond toy sizes:
//!
//! * **delta updates** — successive lexicographic combinations share a long
//!   prefix, so the walker restores/fails only the indices that changed
//!   instead of rebuilding [`ClusterState::fully_up`] and re-applying all
//!   `f` failures per subset (amortized `O(1)` index flips per step);
//! * **unranking** — [`unrank`] maps a lexicographic rank to its
//!   combination in `O(n)`, which lets [`enumerate_pair_success_parallel`]
//!   split the full walk into contiguous blocks and fan them across
//!   worker threads, each block delta-walking independently.
//!
//! For the symmetry-reduced counter that replaces the walk entirely with
//! polynomially many weighted equivalence classes, see [`crate::orbit`].

use drs_harness::par;

use crate::binom::shared_table;
use crate::components::FailureSet;
use crate::connectivity::{all_pairs_connected_state, pair_connected_state, ClusterState};

/// Iterator over all `k`-subsets of `0..n` in lexicographic order, yielding
/// each as a slice of indices into an internal buffer (no per-item
/// allocation).
pub struct Combinations {
    n: usize,
    k: usize,
    idx: Vec<usize>,
    started: bool,
    done: bool,
}

impl Combinations {
    /// All `k`-subsets of `{0, 1, …, n-1}`.
    #[must_use]
    pub fn new(n: usize, k: usize) -> Self {
        Combinations {
            n,
            k,
            idx: (0..k).collect(),
            started: false,
            done: k > n,
        }
    }

    /// The combinations from lexicographic rank `rank` onward. Starts
    /// exhausted if `rank` is out of range (`rank ≥ C(n, k)`).
    #[must_use]
    pub fn from_rank(n: usize, k: usize, rank: u128) -> Self {
        match unrank(n, k, rank) {
            Some(idx) => Combinations {
                n,
                k,
                idx,
                started: false,
                done: false,
            },
            None => Combinations {
                n,
                k,
                idx: (0..k).collect(),
                started: false,
                done: true,
            },
        }
    }

    /// The combination the iterator currently points at.
    #[must_use]
    pub fn current(&self) -> &[usize] {
        &self.idx
    }

    /// Steps to the lexicographic successor in place, returning the
    /// leftmost position whose index changed (every position to its right
    /// changed too), or `None` when the walk is exhausted.
    pub fn advance(&mut self) -> Option<usize> {
        if self.done {
            return None;
        }
        // Find the rightmost index that can still be bumped.
        let k = self.k;
        let mut i = k;
        loop {
            if i == 0 {
                self.done = true;
                return None;
            }
            i -= 1;
            if self.idx[i] < self.n - (k - i) {
                break;
            }
        }
        self.idx[i] += 1;
        for j in i + 1..k {
            self.idx[j] = self.idx[j - 1] + 1;
        }
        Some(i)
    }

    /// Advances to the next combination, returning the current index slice,
    /// or `None` when exhausted. (A lending iterator by hand: the standard
    /// `Iterator` trait cannot return borrows of the iterator itself.)
    pub fn next_combination(&mut self) -> Option<&[usize]> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            return Some(&self.idx);
        }
        match self.advance() {
            Some(_) => Some(&self.idx),
            None => None,
        }
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

/// Lexicographic rank of a strictly increasing `k`-subset of `{0, …, n-1}`
/// — the inverse of [`unrank`].
///
/// # Panics
/// Panics if `indices` is not strictly increasing within range, or if the
/// rank overflows `u128`.
#[must_use]
pub fn rank_of(n: usize, indices: &[usize]) -> u128 {
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

/// Delta-update walk over the combinations `[start_rank, start_rank + limit)`
/// (or to exhaustion when `limit` is `None`) of the `planes·n + planes`
/// component universe, invoking `visit` with the cluster state and
/// failed-index slice for each. Returns the number of combinations visited.
fn walk_states(
    n: usize,
    planes: u8,
    f: usize,
    start_rank: u128,
    limit: Option<u128>,
    visit: &mut dyn FnMut(&ClusterState, &[usize]),
) -> u128 {
    assert!(n >= 2, "need a pair of nodes");
    if limit == Some(0) {
        return 0;
    }
    let m = planes as usize * n + planes as usize;
    let mut combos = Combinations::from_rank(m, f, start_rank);
    if combos.done {
        return 0;
    }
    let mut st = ClusterState::fully_up_k(n, planes);
    for &i in combos.current() {
        st.fail_index(i);
    }
    let mut cur = combos.current().to_vec();
    let mut visited: u128 = 0;
    loop {
        visit(&st, &cur);
        visited += 1;
        if limit == Some(visited) {
            break;
        }
        match combos.advance() {
            None => break,
            Some(pivot) => {
                // Only the suffix from `pivot` changed: restore the old
                // indices, fail the new ones (the two suffixes may overlap,
                // so restore everything first).
                for &old in &cur[pivot..] {
                    st.restore_index(old);
                }
                for (slot, &new) in cur[pivot..f].iter_mut().zip(&combos.current()[pivot..f]) {
                    st.fail_index(new);
                    *slot = new;
                }
            }
        }
    }
    visited
}

/// Counts, over **all** `f`-subsets of the `2n + 2` components, how many
/// leave the pair `(0, 1)` connected. Returns `(successes, total)`.
///
/// By symmetry of the component model, every pair has the same count, so
/// the fixed pair loses no generality.
///
/// Complexity is `C(2n+2, f)` predicate evaluations with amortized-`O(1)`
/// state maintenance between subsets. Practical to `n ≈ 10`; use
/// [`enumerate_pair_success_parallel`] for mid sizes and
/// [`crate::orbit::orbit_pair_success`] for the full range.
#[must_use]
pub fn enumerate_pair_success(n: usize, f: usize) -> (u128, u128) {
    enumerate_pair_success_k(n, 2, f)
}

/// [`enumerate_pair_success`] for a `planes`-plane cluster: counts, over
/// all `f`-subsets of the `planes·n + planes` components, how many leave
/// the pair `(0, 1)` connected.
#[must_use]
pub fn enumerate_pair_success_k(n: usize, planes: u8, f: usize) -> (u128, u128) {
    let mut success: u128 = 0;
    let total = walk_states(n, planes, f, 0, None, &mut |st, _| {
        if pair_connected_state(st, 0, 1) {
            success += 1;
        }
    });
    (success, total)
}

/// [`enumerate_pair_success`] restricted to the contiguous block of
/// combinations `[start_rank, start_rank + count)` in lexicographic rank
/// order. Returns `(successes, visited)`; `visited < count` when the block
/// runs past the end of the space.
#[must_use]
pub fn enumerate_pair_success_block(
    n: usize,
    f: usize,
    start_rank: u128,
    count: u128,
) -> (u128, u128) {
    enumerate_pair_success_block_k(n, 2, f, start_rank, count)
}

/// [`enumerate_pair_success_block`] for a `planes`-plane cluster.
#[must_use]
pub fn enumerate_pair_success_block_k(
    n: usize,
    planes: u8,
    f: usize,
    start_rank: u128,
    count: u128,
) -> (u128, u128) {
    let mut success: u128 = 0;
    let visited = walk_states(n, planes, f, start_rank, Some(count), &mut |st, _| {
        if pair_connected_state(st, 0, 1) {
            success += 1;
        }
    });
    (success, visited)
}

/// [`enumerate_pair_success`] fanned across [`par`] workers: the rank space is
/// split into contiguous blocks (a few per worker thread) and each block is
/// delta-walked independently from its unranked starting combination.
///
/// Bit-identical counts to the sequential walk, in `~1/cores` the time for
/// block counts ≫ thread count.
#[must_use]
pub fn enumerate_pair_success_parallel(n: usize, f: usize) -> (u128, u128) {
    enumerate_pair_success_parallel_k(n, 2, f)
}

/// [`enumerate_pair_success_parallel`] for a `planes`-plane cluster.
#[must_use]
pub fn enumerate_pair_success_parallel_k(n: usize, planes: u8, f: usize) -> (u128, u128) {
    assert!(n >= 2, "need a pair of nodes");
    let m = planes as usize * n + planes as usize;
    let total = shared_table()
        .get(m as u64, f as u64)
        .expect("combination count overflows u128");
    sum_blocks(total, |start, count| {
        enumerate_pair_success_block_k(n, planes, f, start, count)
    })
}

/// Splits the rank space `0..total` into contiguous blocks, evaluates
/// `block(start, count)` on [`par`] workers and sums the `(successes,
/// visited)` pairs.
pub(crate) fn sum_blocks(
    total: u128,
    block: impl Fn(u128, u128) -> (u128, u128) + Sync,
) -> (u128, u128) {
    if total == 0 {
        return (0, 0);
    }
    // A few blocks per thread keeps the workers busy even though block walk
    // times vary slightly (later blocks have cheaper delta steps).
    let blocks = (par::workers() as u128 * 4).clamp(1, total);
    let block_len = total.div_ceil(blocks);
    let n_blocks = total.div_ceil(block_len) as usize;
    par::map(n_blocks, |b| {
        let start = b as u128 * block_len;
        block(start, block_len.min(total - start))
    })
    .into_iter()
    .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
}

/// Counts failure sets preserving **all-pairs** connectivity. Returns
/// `(successes, total)`.
#[must_use]
pub fn enumerate_all_pairs_success(n: usize, f: usize) -> (u128, u128) {
    enumerate_all_pairs_success_k(n, 2, f)
}

/// [`enumerate_all_pairs_success`] for a `planes`-plane cluster.
#[must_use]
pub fn enumerate_all_pairs_success_k(n: usize, planes: u8, f: usize) -> (u128, u128) {
    let mut success: u128 = 0;
    let total = walk_states(n, planes, f, 0, None, &mut |st, _| {
        if all_pairs_connected_state(st) {
            success += 1;
        }
    });
    (success, total)
}

/// Exhaustive `P\[Success\]` for the pair model, as a float.
#[must_use]
pub fn exhaustive_p_success(n: usize, f: usize) -> f64 {
    let (s, t) = enumerate_pair_success(n, f);
    s as f64 / t as f64
}

/// Collects every disconnecting `f`-subset as a [`FailureSet`] (useful for
/// inspecting minimal cuts in tests and examples). Intended for tiny `n`.
#[must_use]
pub fn disconnecting_sets(n: usize, f: usize) -> Vec<FailureSet> {
    let mut out = Vec::new();
    walk_states(n, 2, f, 0, None, &mut |st, indices| {
        if !pair_connected_state(st, 0, 1) {
            out.push(FailureSet::from_indices(indices));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binom::binom;

    #[test]
    fn combinations_count_matches_binomial() {
        for n in 0..=10usize {
            for k in 0..=n + 1 {
                let mut c = Combinations::new(n, k);
                let mut count = 0u128;
                while c.next_combination().is_some() {
                    count += 1;
                }
                assert_eq!(Some(count), binom(n as u64, k as u64), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn combinations_are_sorted_and_unique() {
        let mut c = Combinations::new(6, 3);
        let mut seen = std::collections::HashSet::new();
        while let Some(ix) = c.next_combination() {
            assert!(ix.windows(2).all(|w| w[0] < w[1]), "not strictly sorted");
            assert!(seen.insert(ix.to_vec()), "duplicate combination");
        }
        assert_eq!(seen.len(), 20);
    }

    #[test]
    fn zero_subset_is_the_empty_set() {
        let mut c = Combinations::new(5, 0);
        assert_eq!(c.next_combination(), Some(&[][..]));
        assert_eq!(c.next_combination(), None);
    }

    #[test]
    fn unrank_matches_walk_order() {
        let (n, k) = (9, 4);
        let mut c = Combinations::new(n, k);
        let mut rank: u128 = 0;
        while let Some(ix) = c.next_combination() {
            assert_eq!(unrank(n, k, rank).as_deref(), Some(ix), "rank={rank}");
            assert_eq!(rank_of(n, ix), rank);
            rank += 1;
        }
        assert_eq!(Some(rank), binom(n as u64, k as u64));
        assert_eq!(unrank(n, k, rank), None, "one past the end");
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
        let mut full = Combinations::new(n, k);
        for _ in 0..40 {
            full.next_combination();
        }
        let mut resumed = Combinations::from_rank(n, k, 40);
        loop {
            let a = full.next_combination().map(<[usize]>::to_vec);
            let b = resumed.next_combination().map(<[usize]>::to_vec);
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn block_split_partitions_the_space() {
        // Odd-sized blocks must visit every subset exactly once: the
        // per-block (successes, visited) sums match the full walk.
        let (n, f) = (5usize, 4usize);
        let full = enumerate_pair_success(n, f);
        for block in [1u128, 3, 7, 64, 1000] {
            let mut acc = (0u128, 0u128);
            let mut start = 0u128;
            loop {
                let (s, v) = enumerate_pair_success_block(n, f, start, block);
                acc = (acc.0 + s, acc.1 + v);
                if v < block {
                    break;
                }
                start += block;
            }
            assert_eq!(acc, full, "block={block}");
        }
        assert_eq!(full.1, binom(12, 4).unwrap());
    }

    #[test]
    fn parallel_matches_sequential() {
        for n in 2..=6usize {
            for f in 0..=6usize {
                assert_eq!(
                    enumerate_pair_success_parallel(n, f),
                    enumerate_pair_success(n, f),
                    "n={n} f={f}"
                );
            }
        }
    }

    #[test]
    fn k_general_walk_matches_legacy_at_two_planes() {
        for n in 2..=5usize {
            for f in 0..=5usize {
                assert_eq!(
                    enumerate_pair_success_k(n, 2, f),
                    enumerate_pair_success(n, f),
                    "pair n={n} f={f}"
                );
                assert_eq!(
                    enumerate_all_pairs_success_k(n, 2, f),
                    enumerate_all_pairs_success(n, f),
                    "all-pairs n={n} f={f}"
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
                    enumerate_pair_success_parallel_k(4, planes, f),
                    enumerate_pair_success_k(4, planes, f),
                    "K={planes} f={f}"
                );
            }
        }
    }

    #[test]
    fn delta_state_matches_rebuild() {
        // The delta-updated state must equal a from-scratch rebuild at
        // every step of the walk.
        let (n, f) = (4usize, 3usize);
        walk_states(n, 2, f, 0, None, &mut |st, indices| {
            let rebuilt = ClusterState::from_failures(n, &FailureSet::from_indices(indices));
            assert_eq!(*st, rebuilt, "indices={indices:?}");
        });
        // Same invariant on a three-plane universe.
        walk_states(n, 3, f, 0, None, &mut |st, indices| {
            let rebuilt = ClusterState::from_failures_k(n, 3, &FailureSet::from_indices(indices));
            assert_eq!(*st, rebuilt, "K=3 indices={indices:?}");
        });
    }

    #[test]
    fn totals_are_binomials() {
        let (_, total) = enumerate_pair_success(4, 3);
        assert_eq!(total, binom(10, 3).unwrap());
    }

    #[test]
    fn f2_disconnecting_sets_are_the_known_cuts() {
        // N=4: exactly the 7 two-cuts derived in exact.rs.
        let cuts = disconnecting_sets(4, 2);
        assert_eq!(cuts.len(), 7);
        for cut in &cuts {
            assert_eq!(cut.len(), 2);
        }
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
