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
//! the predicate. Three things make it fast enough to be useful well beyond
//! toy sizes:
//!
//! * **delta updates** — successive lexicographic combinations share a long
//!   prefix, so the walk restores/fails only the indices that changed
//!   instead of rebuilding the model and re-applying all `f` failures per
//!   subset (2.6 index flips per subset on `C(34, 8)`, against 16);
//! * **the last-index sweep** — most successors differ only in the last
//!   index, so the walk runs that index to the end of the universe as
//!   restore-one / fail-one and enters the general successor step only
//!   when the run ends;
//! * **fan-out** — [`unrank`] maps a lexicographic rank to its combination
//!   in `O(n)`, which lets [`count_parallel`] split a walk into contiguous
//!   blocks and fan them across worker threads, each block delta-walking
//!   its own clone of the model. The `enumerate_*` entry points go through
//!   it, so a walk of a million subsets or more uses every core; smaller
//!   walks, and walks inside a worker, stay on their thread.
//!
//! For the symmetry-reduced counter that replaces the walk entirely with
//! polynomially many weighted equivalence classes, see [`crate::orbit`].

use drs_harness::par;

use crate::binom::shared_table;
use crate::components::FailureModel;
use crate::connectivity::{KPlane, Question};

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
///
/// Most lexicographic successors differ only in the last index, so the
/// walk sweeps that index to the end of the universe in place — one
/// `restore` and one `fail` per subset, no successor search — and steps
/// the general cursor only when a sweep runs out.
fn walk<M: FailureModel>(
    model: &mut M,
    f: usize,
    start_rank: u128,
    limit: Option<u128>,
    mut visit: impl FnMut(&mut M, &[usize]),
) -> u128 {
    let budget = limit.unwrap_or(u128::MAX);
    if budget == 0 {
        return 0;
    }
    let m = model.universe();
    let Some(mut idx) = unrank(m, f, start_rank) else {
        return 0;
    };
    let mut left = budget;
    if f == 0 {
        visit(model, &idx);
        return 1;
    }
    for &i in &idx {
        model.fail(i);
    }
    let last = f - 1;
    loop {
        // The run of subsets that differ from this one only in the last
        // index, cut short where the block ends.
        let run = (m - idx[last]).min(usize::try_from(left).unwrap_or(usize::MAX));
        visit(model, &idx);
        for _ in 1..run {
            model.restore(idx[last]);
            idx[last] += 1;
            model.fail(idx[last]);
            visit(model, &idx);
        }
        left -= run as u128;
        if left == 0 {
            break;
        }
        // The rightmost position that can still move; every position to
        // its right changes with it. Restore the old suffix before failing
        // the new one: the two may overlap.
        let Some(pivot) = (0..last).rev().find(|&i| idx[i] < m - (f - i)) else {
            break;
        };
        for &old in &idx[pivot..] {
            model.restore(old);
        }
        idx[pivot] += 1;
        for j in pivot + 1..f {
            idx[j] = idx[j - 1] + 1;
        }
        for &new in &idx[pivot..] {
            model.fail(new);
        }
    }
    budget - left
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

/// Below this many subsets [`count_parallel`] walks on the calling thread.
///
/// Measured on a 2-vCPU VM (release build, two-plane pair model): one
/// split costs ≈ 80 µs of thread start-up, so in isolation it pays from
/// ≈ 2¹⁴ subsets (a 0.3 ms walk) and saves ≈ 40 % of the wall time from
/// 2¹⁷ on. But the artifact pipeline counts many cells of up to 300 000
/// subsets each, and splitting those too cost `regen` ≈ 5 % in wall and
/// CPU time. At 2²⁰ a serial walk takes ≈ 18 ms, and a split saves 8 ms.
const PARALLEL_MIN_SUBSETS: u128 = 1 << 20;

/// [`count`] fanned across [`par`] workers: the rank space is split into
/// contiguous blocks (a few per worker thread) and each block delta-walks
/// a clone of `model` from its unranked starting combination.
/// Bit-identical counts to the sequential walk, in `~1/cores` the time for
/// block counts ≫ thread count. Below 2²⁰ subsets, and inside a [`par`]
/// worker, it is the sequential walk: there a split costs more than it
/// saves.
///
/// # Panics
/// Panics if `C(universe, f)` overflows `u128`.
#[must_use]
pub fn count_parallel<M: FailureModel + Clone + Sync>(model: &M, f: usize) -> (u128, u128) {
    count_on(par::workers(), model, f)
}

/// [`count_parallel`] on an explicit worker count, so tests can split the
/// walk on a one-CPU host.
fn count_on<M: FailureModel + Clone + Sync>(workers: usize, model: &M, f: usize) -> (u128, u128) {
    let total = shared_table()
        .get(model.universe() as u64, f as u64)
        .expect("combination count overflows u128");
    if workers <= 1 || total < PARALLEL_MIN_SUBSETS {
        return count(model.clone(), f);
    }
    // A few blocks per thread keeps the workers busy even though block walk
    // times vary slightly (later blocks have cheaper delta steps).
    let block_len = total.div_ceil(workers as u128 * 4);
    let n_blocks = total.div_ceil(block_len) as usize;
    par::map_on(workers, n_blocks, |b| {
        count_block(model.clone(), f, b as u128 * block_len, Some(block_len))
    })
    .into_iter()
    .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
}

/// Counts, over **all** `f`-subsets of the `2n + 2` components, how many
/// leave the pair `(0, 1)` connected. Returns `(successes, total)`.
/// Walks through [`count_parallel`], so the cost is `C(2n + 2, f)` subsets
/// spread over the cores; [`crate::orbit::orbit_pair_success`] answers
/// the same question in polynomial time at any size.
///
/// # Panics
/// Panics if `C(2n + 2, f)` overflows `u128`.
#[must_use]
pub fn enumerate_pair_success(n: usize, f: usize) -> (u128, u128) {
    enumerate_pair_success_k(n, 2, f)
}

/// [`enumerate_pair_success`] for a `planes`-plane cluster: counts, over
/// all `f`-subsets of the `planes·n + planes` components, how many leave
/// the pair `(0, 1)` connected.
///
/// # Panics
/// Panics if `C(planes·n + planes, f)` overflows `u128`.
#[must_use]
pub fn enumerate_pair_success_k(n: usize, planes: u8, f: usize) -> (u128, u128) {
    count_parallel(&KPlane::new(n, planes, Question::Pair), f)
}

/// Counts failure sets of the two-plane cluster preserving **all-pairs**
/// connectivity. Returns `(successes, total)`.
///
/// # Panics
/// Panics if `C(2n + 2, f)` overflows `u128`.
#[must_use]
pub fn enumerate_all_pairs_success(n: usize, f: usize) -> (u128, u128) {
    count_parallel(&KPlane::new(n, 2, Question::AllPairs), f)
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
    use std::cell::Cell;
    use std::collections::HashSet;
    use std::sync::{Condvar, Mutex};
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    /// A universe with no state and no question: what the walk visits is
    /// then exactly the lexicographic order of the `k`-subsets.
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

    #[test]
    fn a_limit_cuts_the_walk_order_at_any_rank() {
        // Most of these blocks start and end inside a last-index sweep.
        let (n, k) = (9, 4);
        let all = subsets_from(n, k, 0);
        for limit in [1usize, 3, 7, 64] {
            for start in 0..all.len() {
                let mut got = Vec::new();
                let visited = walk(
                    &mut Universe(n),
                    k,
                    start as u128,
                    Some(limit as u128),
                    |_, ix| got.push(ix.to_vec()),
                );
                let want = &all[start..all.len().min(start + limit)];
                assert_eq!(got, want, "start={start} limit={limit}");
                assert_eq!(visited, want.len() as u128);
            }
        }
    }

    /// Tallies what the walk asks of its model — predicate calls and index
    /// flips, in counters the test keeps — and checks at every `holds`
    /// that exactly `f` components are down.
    struct Tally<'c> {
        m: usize,
        f: usize,
        down: usize,
        holds: &'c Cell<u128>,
        flips: &'c Cell<u128>,
    }

    impl FailureModel for Tally<'_> {
        fn universe(&self) -> usize {
            self.m
        }
        fn fail(&mut self, _: usize) {
            self.down += 1;
            self.flips.set(self.flips.get() + 1);
        }
        fn restore(&mut self, _: usize) {
            self.down -= 1;
            self.flips.set(self.flips.get() + 1);
        }
        fn reset(&mut self) {
            self.down = 0;
        }
        fn holds(&mut self) -> bool {
            assert_eq!(self.down, self.f);
            self.holds.set(self.holds.get() + 1);
            true
        }
    }

    #[test]
    fn walk_cost_is_one_predicate_and_few_flips_per_subset() {
        // The mechanisms: delta updates (only the indices that changed are
        // flipped) and the last-index sweep (one restore and one fail per
        // step of the last position; 2(f − pivot) flips when a sweep runs
        // out and the cursor moves). On the benchmark's (34, 8) walk that
        // measured 47 071 630 flips for 18 156 204 subsets, 2.59 per
        // subset; rebuilding every subset would cost 2f = 16.
        let (holds, flips) = (Cell::new(0), Cell::new(0));
        let tally = |m, f| Tally {
            m,
            f,
            down: 0,
            holds: &holds,
            flips: &flips,
        };
        let total = binom(34, 8).unwrap();
        assert_eq!(count(tally(34, 8), 8), (total, total));
        assert_eq!(holds.get(), total);
        assert!(
            flips.get() * 100 <= total * 260,
            "{} flips for {total} subsets",
            flips.get()
        );
        // Blocks of every length end mid-sweep and still visit each subset
        // exactly once, with exactly `f` components down at each visit.
        let (m, f) = (12, 4);
        let total = binom(12, 4).unwrap();
        for limit in [1u128, 3, 7, 64] {
            holds.set(0);
            let mut start = 0;
            while count_block(tally(m, f), f, start, Some(limit)).1 == limit {
                start += limit;
            }
            assert_eq!(holds.get(), total, "limit={limit}");
        }
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
                    count(pair(n, 2), f),
                    "n={n} f={f}"
                );
            }
        }
    }

    /// Where the walked copies of a [`Traced`] model check in: each records
    /// its thread, and the first `size` wait until `size` have checked in,
    /// which only that many distinct threads can do (a minute at most, so
    /// a walk with fewer threads fails the test instead of hanging it).
    struct Gate {
        size: usize,
        threads: Mutex<Vec<ThreadId>>,
        all_in: Condvar,
    }

    impl Gate {
        fn check_in(&self) {
            let mut threads = self.threads.lock().unwrap();
            threads.push(thread::current().id());
            if threads.len() <= self.size {
                self.all_in.notify_all();
                let wait = Duration::from_secs(60);
                let _ = self
                    .all_in
                    .wait_timeout_while(threads, wait, |t| t.len() < self.size)
                    .unwrap();
            }
        }
    }

    /// A [`KPlane`] that checks in at its [`Gate`] when a copy of it
    /// starts to be walked.
    #[derive(Clone)]
    struct Traced<'a> {
        inner: KPlane,
        walked: bool,
        gate: &'a Gate,
    }

    impl FailureModel for Traced<'_> {
        fn universe(&self) -> usize {
            self.inner.universe()
        }
        fn fail(&mut self, idx: usize) {
            self.inner.fail(idx);
        }
        fn restore(&mut self, idx: usize) {
            self.inner.restore(idx);
        }
        fn reset(&mut self) {
            self.inner.reset();
        }
        fn holds(&mut self) -> bool {
            if !self.walked {
                self.walked = true;
                self.gate.check_in();
            }
            self.inner.holds()
        }
    }

    /// `C(34, 6) = 1 344 904` subsets: a walk above [`PARALLEL_MIN_SUBSETS`].
    const ABOVE_CUTOFF: (usize, usize) = (16, 6);

    /// Counts [`ABOVE_CUTOFF`] through `run` on a [`Traced`] model behind a
    /// gate of `size`. Returns the counts and the thread of every walked
    /// copy, in check-in order.
    fn traced(
        size: usize,
        run: impl FnOnce(&Traced<'_>, usize) -> (u128, u128),
    ) -> ((u128, u128), Vec<ThreadId>) {
        let (n, f) = ABOVE_CUTOFF;
        let gate = Gate {
            size,
            threads: Mutex::new(Vec::new()),
            all_in: Condvar::new(),
        };
        let model = Traced {
            inner: pair(n, 2),
            walked: false,
            gate: &gate,
        };
        let counts = run(&model, f);
        (counts, gate.threads.into_inner().unwrap())
    }

    #[test]
    fn a_walk_above_the_cutoff_splits_across_workers() {
        let (n, f) = ABOVE_CUTOFF;
        assert!(binom(2 * n as u64 + 2, f as u64).unwrap() >= PARALLEL_MIN_SUBSETS);
        let serial = count(pair(n, 2), f);
        let me = thread::current().id();
        for workers in [1usize, 2, 3] {
            let (counts, walked) = traced(workers, |model, f| count_on(workers, model, f));
            assert_eq!(counts, serial, "workers={workers}");
            if workers == 1 {
                assert_eq!(walked, [me], "one walk, inline");
            } else {
                // Four blocks per worker, none of them on the caller, and
                // the first `workers` met at the gate: one thread each.
                assert_eq!(walked.len(), 4 * workers, "workers={workers}");
                assert!(!walked.contains(&me));
                let first: HashSet<_> = walked[..workers].iter().collect();
                assert_eq!(first.len(), workers, "workers={workers}");
            }
        }
    }

    #[test]
    fn a_walk_inside_a_worker_stays_serial() {
        let (n, f) = ABOVE_CUTOFF;
        let serial = count(pair(n, 2), f);
        let runs = par::map_on(2, 2, |_| {
            let (counts, walked) = traced(1, |model, f| count_parallel(model, f));
            (counts, walked, thread::current().id())
        });
        for (counts, walked, worker) in runs {
            assert_eq!(counts, serial);
            assert_eq!(walked, [worker], "one walk, on the worker itself");
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
                    count(pair(4, planes), f),
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
