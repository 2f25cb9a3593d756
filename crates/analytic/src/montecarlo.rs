//! The paper's validation simulation: Monte-Carlo estimation of `P\[Success\]`.
//!
//! Each iteration draws `f` **distinct** components uniformly at random
//! from the universe (the paper's `2N + 2`), fails them, and tests whether
//! the model's question still holds — for the paper, whether the fixed
//! pair `(0, 1)` can still communicate (by symmetry any pair gives the
//! same distribution). The estimate is the success fraction. Figure 3 of
//! the paper shows the mean absolute deviation of this estimator from
//! Equation 1 shrinking as iterations grow; [`crate::convergence`]
//! reproduces that study.
//!
//! There is one sampler ([`sample_failures`]) and one loop, written
//! against [`FailureModel`]: [`MonteCarlo`] runs them over the bitmask
//! [`KPlane`] model, [`crate::topo::TopoMonteCarlo`] over the graph-search
//! model, and the draws depend only on the universe size — so on
//! equal universes the two estimators see the same failure sets and any
//! difference in their counts is a difference between the predicates.
//!
//! Determinism: every estimator takes an explicit seed, and a `(seed,
//! iterations)` pair names one estimate whatever the worker count. The
//! samples come in fixed blocks of 2¹⁷: block 0 draws from the generator
//! seeded with `seed` itself, block `b ≥ 1` from one seeded with
//! [`stream_seed`]`(seed, b)`, and the blocks fan out across [`par`]
//! workers, each on its own clone of the model, their successes summed in
//! block order. An estimate of at most 2¹⁷ iterations is one block, drawn
//! from `seed` alone on the calling thread.

use drs_harness::stream_seed;
use drs_obs::{par, rng::Rng};
use drs_topology::ComponentSet;

use crate::components::FailureModel;
use crate::connectivity::{KPlane, Question};

/// Result of a Monte-Carlo run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloEstimate {
    /// Number of iterations performed.
    pub iterations: u64,
    /// Iterations in which the model's question held (for the paper's
    /// estimator: the pair stayed connected).
    pub successes: u64,
    /// Point estimate `successes / iterations`.
    pub p_hat: f64,
    /// Binomial standard error `sqrt(p(1-p)/iters)` of the estimate.
    pub std_error: f64,
}

impl MonteCarloEstimate {
    pub(crate) fn from_counts(successes: u64, iterations: u64) -> Self {
        assert!(iterations > 0, "at least one iteration required");
        let p = successes as f64 / iterations as f64;
        MonteCarloEstimate {
            iterations,
            successes,
            p_hat: p,
            std_error: (p * (1.0 - p) / iterations as f64).sqrt(),
        }
    }
}

/// Samples per block of an estimate: each block has its own seeded stream
/// and is one unit of fan-out. On one thread of a 2-vCPU VM (release)
/// 2¹⁷ samples take ≈ 8 ms for the paper's model at `(63, 10)` and
/// ≈ 22 ms for the graph model on `fat_tree(4)`, far more than handing a
/// block to a worker costs; and every estimate of Figure 3 (at most 10⁵
/// iterations) is a single block, so its bytes do not depend on the split.
pub(crate) const BLOCK: u64 = 1 << 17;

/// Monte-Carlo estimator of how often a [`FailureModel`]'s question
/// survives exactly `f` uniformly drawn failures.
#[derive(Debug, Clone)]
pub struct Estimator<M> {
    model: M,
    f: usize,
    seed: u64,
}

/// The paper's estimator: pair survivability of an `(n, f)` K-plane
/// scenario under the bitmask predicate.
pub type MonteCarlo = Estimator<KPlane>;

impl MonteCarlo {
    /// Creates an estimator for `n` nodes, two network planes, and exactly
    /// `f` failed components.
    ///
    /// # Panics
    /// Panics if `n < 2`, `n` exceeds the bitset capacity, or `f > 2n + 2`.
    #[must_use]
    pub fn new(n: usize, f: usize, seed: u64) -> Self {
        MonteCarlo::new_k(n, 2, f, seed)
    }

    /// Creates an estimator for an `n`-node, `planes`-plane cluster with
    /// exactly `f` failed components out of `planes·n + planes`.
    ///
    /// # Panics
    /// Panics if `n < 2`, `planes` is out of range, or
    /// `f > planes·n + planes`.
    #[must_use]
    pub fn new_k(n: usize, planes: u8, f: usize, seed: u64) -> Self {
        Estimator::over(KPlane::new(n, planes, Question::Pair), f, seed)
    }
}

impl<M: FailureModel + Clone + Sync> Estimator<M> {
    /// An estimator for exactly `f` failures of `model`, which must come in
    /// with nothing failed.
    ///
    /// # Panics
    /// Panics if `f` exceeds the model's universe.
    pub(crate) fn over(model: M, f: usize, seed: u64) -> Self {
        let m = model.universe();
        assert!(f <= m, "cannot fail {f} of {m} components");
        Estimator { model, f, seed }
    }

    /// Runs `iterations` samples in blocks of 2¹⁷, fanned across
    /// [`par`] workers (see the module's determinism note): the result
    /// depends on the seed and `iterations` only. One block, and a call
    /// made inside a [`par`] worker, runs on the calling thread.
    ///
    /// # Panics
    /// Panics if `iterations` is 0.
    #[must_use]
    pub fn estimate(&self, iterations: u64) -> MonteCarloEstimate {
        self.estimate_on(par::workers(), iterations)
    }

    /// [`Estimator::estimate`] on an explicit worker count, so tests can
    /// split the blocks on a one-CPU host.
    fn estimate_on(&self, workers: usize, iterations: u64) -> MonteCarloEstimate {
        let blocks = usize::try_from(iterations.div_ceil(BLOCK)).expect("block count fits usize");
        let successes = par::map_on(workers, blocks, |b| {
            let b = b as u64;
            let seed = if b == 0 {
                self.seed
            } else {
                stream_seed(self.seed, b)
            };
            let count = BLOCK.min(iterations - b * BLOCK);
            self.successes(&mut Rng::seed_from_u64(seed), count)
        });
        MonteCarloEstimate::from_counts(successes.into_iter().sum(), iterations)
    }

    /// The Monte-Carlo loop: draws `count` failure scenarios from `rng`
    /// and counts those the model's question survives.
    fn successes(&self, rng: &mut Rng, count: u64) -> u64 {
        let mut model = self.model.clone();
        let m = model.universe();
        let mut successes = 0u64;
        for _ in 0..count {
            draw_failures(m, self.f, rng, |idx| model.fail(idx));
            successes += u64::from(model.holds());
            model.reset();
        }
        successes
    }
}

/// Draws `f` distinct components uniformly from a universe of `m` — every
/// `f`-subset equally likely — and returns them as a set (e.g. to inject
/// the same scenario into the packet-level simulator).
///
/// # Panics
/// Panics if `f > m` or `m` exceeds the 256-component bitset.
#[must_use]
pub fn sample_failures(m: usize, f: usize, rng: &mut Rng) -> ComponentSet {
    draw_failures(m, f, rng, |_| {})
}

/// The sampler behind [`sample_failures`] and the Monte-Carlo loop: hands
/// each component to `fail` as it is drawn. Rejection sampling against a
/// bitset — the expected number of redraws is small even in the worst
/// case (`f = m` costs `O(m log m)` draws), and no allocation is
/// performed.
#[inline]
fn draw_failures(m: usize, f: usize, rng: &mut Rng, mut fail: impl FnMut(usize)) -> ComponentSet {
    // No such subset exists beyond the universe, and the loop below would
    // never end.
    assert!(f <= m, "cannot fail {f} of {m} components");
    let mut drawn = ComponentSet::new();
    let mut remaining = f;
    while remaining > 0 {
        let idx = rng.gen_range(0..m);
        if !drawn.contains(idx) {
            drawn.insert(idx);
            fail(idx);
            remaining -= 1;
        }
    }
    drawn
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::p_success;

    #[test]
    fn estimate_close_to_equation_one() {
        // 200k iterations: estimator is within ~5 sigma of Equation 1.
        for &(n, f) in &[(8usize, 2usize), (16, 3), (32, 4), (10, 6)] {
            let mc = MonteCarlo::new(n, f, 42);
            let est = mc.estimate(200_000);
            let exact = p_success(n as u64, f as u64);
            assert!(
                (est.p_hat - exact).abs() < 5.0 * est.std_error.max(1e-4),
                "n={n} f={f}: {} vs {exact} (se {})",
                est.p_hat,
                est.std_error
            );
        }
    }

    #[test]
    fn one_block_estimates_draw_from_the_seed_alone() {
        // Counts from before the estimator split its samples into blocks:
        // an estimate of at most one block is unchanged by the split.
        let mc = MonteCarlo::new(63, 10, 42);
        assert_eq!(mc.estimate(BLOCK).successes, 126_452);
        assert_eq!(mc.estimate(100_000).successes, 96_487);
    }

    #[test]
    fn an_estimate_does_not_depend_on_the_worker_count() {
        // Three full blocks and a short fourth, on both models: block 0
        // from the seed, block b from `stream_seed(seed, b)`, summed.
        let topo = drs_topology::generators::fat_tree(4);
        let graph = crate::topo::TopoMonteCarlo::new(
            &topo,
            4,
            0,
            topo.hosts() - 1,
            drs_topology::Reachability::Transitive,
            7,
        );
        let iterations = 3 * BLOCK + 17;
        fn by_hand<M: FailureModel + Clone + Sync>(est: &Estimator<M>, iterations: u64) -> u64 {
            let block = |b: u64, count| {
                let seed = if b == 0 {
                    est.seed
                } else {
                    stream_seed(est.seed, b)
                };
                est.successes(&mut Rng::seed_from_u64(seed), count)
            };
            (0..3).map(|b| block(b, BLOCK)).sum::<u64>() + block(3, iterations - 3 * BLOCK)
        }
        fn check<M: FailureModel + Clone + Sync>(
            est: &Estimator<M>,
            iterations: u64,
            expected: u64,
        ) {
            let expected = MonteCarloEstimate::from_counts(expected, iterations);
            for workers in 1..=4 {
                assert_eq!(
                    est.estimate_on(workers, iterations),
                    expected,
                    "workers={workers}"
                );
            }
        }
        let kplane = MonteCarlo::new(12, 4, 5);
        check(&kplane, iterations, by_hand(&kplane, iterations));
        check(&graph, iterations, by_hand(&graph, iterations));
    }

    #[test]
    fn multi_block_estimates_stay_within_four_sigma_of_equation_one() {
        // Sixteen seeds, each four full blocks and one sample of a fifth:
        // a block stream correlated with its neighbours, or one drawn
        // twice, would pull the spread out of the binomial's.
        let (n, f) = (4usize, 3usize);
        let exact = p_success(n as u64, f as u64);
        let iterations = 4 * BLOCK + 1;
        let sigma = (exact * (1.0 - exact) / iterations as f64).sqrt();
        for seed in 0..16 {
            let est = MonteCarlo::new(n, f, seed).estimate(iterations);
            assert!(
                (est.p_hat - exact).abs() < 4.0 * sigma,
                "seed={seed}: {} vs {exact} (σ {sigma})",
                est.p_hat
            );
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mc = MonteCarlo::new(12, 3, 7);
        assert_eq!(mc.estimate(10_000), mc.estimate(10_000));
    }

    #[test]
    fn different_seeds_differ() {
        let a = MonteCarlo::new(12, 3, 1).estimate(10_000);
        let b = MonteCarlo::new(12, 3, 2).estimate(10_000);
        assert_ne!(a.successes, b.successes);
    }

    #[test]
    fn sampler_known_answers() {
        // The committed Monte-Carlo bytes are a function of this exact
        // draw sequence (`gen_range(0..m)`, reject if seen): the accepted
        // draws in order, and the generator state they leave behind — the
        // second case redraws until all ten components are hit.
        let cases: [(usize, u64, &[usize], u64); 2] = [
            (
                34,
                42,
                &[27, 10, 33, 23, 26, 19, 4, 20],
                0x352c_f3da_f095_ccc7,
            ),
            (
                10,
                7,
                &[0, 1, 7, 4, 9, 3, 6, 5, 8, 2],
                0xcd99_10de_6a7d_1f80,
            ),
        ];
        for (m, seed, draws, next) in cases {
            let mut rng = Rng::seed_from_u64(seed);
            let mut order = Vec::new();
            let set = draw_failures(m, draws.len(), &mut rng, |idx| order.push(idx));
            assert_eq!(order, draws, "m={m} seed={seed}");
            assert_eq!(set, ComponentSet::from_indices(draws));
            assert_eq!(rng.next_u64(), next, "m={m} seed={seed}: draws consumed");
            assert_eq!(
                sample_failures(m, draws.len(), &mut Rng::seed_from_u64(seed)),
                set
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot fail 5 of 4 components")]
    fn sampling_beyond_the_universe_panics() {
        let _ = sample_failures(4, 5, &mut Rng::seed_from_u64(1));
    }

    #[test]
    fn sample_draws_exactly_f_failures() {
        let mut rng = Rng::seed_from_u64(3);
        for f in 0..=10 {
            let set = sample_failures(18, f, &mut rng);
            assert_eq!(set.len(), f);
        }
    }

    #[test]
    fn sample_all_components_possible() {
        let mut rng = Rng::seed_from_u64(5);
        let set = sample_failures(10, 10, &mut rng);
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn extreme_f_gives_zero_success() {
        let mc = MonteCarlo::new(4, 10, 11);
        let est = mc.estimate(1_000);
        assert_eq!(est.successes, 0, "all components failed");
    }

    #[test]
    fn f_zero_always_succeeds() {
        let mc = MonteCarlo::new(4, 0, 11);
        let est = mc.estimate(1_000);
        assert_eq!(est.successes, 1_000);
    }

    #[test]
    #[should_panic(expected = "cannot fail 11 of 10 components")]
    fn more_failures_than_components_panics_instead_of_spinning() {
        let _ = MonteCarlo::new(4, 11, 1);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_panic_instead_of_estimating_nan() {
        let _ = MonteCarlo::new(4, 3, 1).estimate(0);
    }

    #[test]
    fn three_plane_estimate_matches_enumeration() {
        use crate::enumerate::enumerate_pair_success_k;
        let (n, planes, f) = (5usize, 3u8, 3usize);
        let (s, t) = enumerate_pair_success_k(n, planes, f);
        let exact = s as f64 / t as f64;
        let est = MonteCarlo::new_k(n, planes, f, 42).estimate(200_000);
        assert!(
            (est.p_hat - exact).abs() < 5.0 * est.std_error.max(1e-4),
            "{} vs {exact}",
            est.p_hat
        );
    }

    #[test]
    fn k_plane_sample_spans_whole_universe() {
        let mut rng = Rng::seed_from_u64(9);
        let m = 4 * 4 + 4;
        let set = sample_failures(m, m, &mut rng);
        assert_eq!(set.len(), m);
        assert_eq!(set.iter().last(), Some(m - 1));
    }

    #[test]
    fn std_error_shrinks_with_iterations() {
        let mc = MonteCarlo::new(8, 3, 42);
        let small = mc.estimate(1_000);
        let large = mc.estimate(100_000);
        assert!(large.std_error < small.std_error);
    }
}
