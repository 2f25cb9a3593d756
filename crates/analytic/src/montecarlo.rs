//! The paper's validation simulation: Monte-Carlo estimation of `P\[Success\]`.
//!
//! Each iteration draws `f` **distinct** components uniformly at random from
//! the `K·N + K` (the paper's `2N + 2`), fails them, and tests whether the
//! fixed pair `(0, 1)` can
//! still communicate (by symmetry any pair gives the same distribution).
//! The estimate is the success fraction. Figure 3 of the paper shows the
//! mean absolute deviation of this estimator from Equation 1 shrinking as
//! iterations grow; [`crate::convergence`] reproduces that study.
//!
//! Determinism: every estimator takes an explicit seed. The parallel path
//! derives one independent stream per chunk with SplitMix64-style
//! mixing, so results are reproducible regardless of thread scheduling.

use drs_harness::par;
use drs_obs::rng::{mix64, Rng, GOLDEN_GAMMA};

use crate::components::FailureSet;
use crate::connectivity::{pair_connected_state, ClusterState};

/// Result of a Monte-Carlo run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloEstimate {
    /// Number of iterations performed.
    pub iterations: u64,
    /// Iterations in which the pair stayed connected.
    pub successes: u64,
    /// Point estimate `successes / iterations`.
    pub p_hat: f64,
    /// Binomial standard error `sqrt(p(1-p)/iters)` of the estimate.
    pub std_error: f64,
}

impl MonteCarloEstimate {
    /// Wilson score interval at confidence level `z` standard normal
    /// quantiles (1.96 ≈ 95 %). Well-behaved even when `p_hat` sits at 0
    /// or 1, unlike the naive ±z·SE interval — relevant here because many
    /// (N, f) cells have success probabilities extremely close to 1.
    #[must_use]
    pub fn wilson_interval(&self, z: f64) -> (f64, f64) {
        assert!(z > 0.0, "z must be positive");
        let n = self.iterations as f64;
        let p = self.p_hat;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let centre = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        ((centre - half).max(0.0), (centre + half).min(1.0))
    }

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

/// Monte-Carlo estimator of pair survivability for an `(n, f)` scenario
/// (optionally with more than the paper's two network planes).
#[derive(Debug, Clone)]
pub struct MonteCarlo {
    n: usize,
    planes: u8,
    f: usize,
    seed: u64,
}

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
        assert!(n >= 2, "need a pair of nodes");
        let m = planes as usize * n + planes as usize;
        assert!(f <= m, "cannot fail {f} of {m} components");
        // Constructing a state validates the n/planes bounds too.
        let _ = ClusterState::fully_up_k(n, planes);
        MonteCarlo { n, planes, f, seed }
    }

    /// Draws one random failure scenario and reports whether the pair
    /// survived it.
    #[must_use]
    pub fn sample_once(&self, rng: &mut Rng) -> bool {
        let st = sample_failure_state_k(self.n, self.planes, self.f, rng);
        pair_connected_state(&st, 0, 1)
    }

    /// Runs `iterations` sequential samples.
    #[must_use]
    pub fn estimate(&self, iterations: u64) -> MonteCarloEstimate {
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut successes = 0u64;
        for _ in 0..iterations {
            if self.sample_once(&mut rng) {
                successes += 1;
            }
        }
        MonteCarloEstimate::from_counts(successes, iterations)
    }

    /// Runs `iterations` samples split into parallel chunks, each with
    /// its own derived RNG stream. Deterministic for a given `(seed,
    /// iterations)` regardless of the number of worker threads.
    #[must_use]
    pub fn estimate_parallel(&self, iterations: u64) -> MonteCarloEstimate {
        let successes = chunked_successes(self.seed, iterations, 1 << 14, |rng, count| {
            (0..count).filter(|_| self.sample_once(rng)).count() as u64
        });
        MonteCarloEstimate::from_counts(successes, iterations)
    }
}

/// Sums `successes(rng, count)` over `iterations` samples cut into
/// `chunk`-sized pieces fanned across [`par`] workers. Chunk `c` (the
/// short tail included) draws from its own [`mix_stream`]`(seed, c)`
/// generator, so the total is independent of the worker count.
pub(crate) fn chunked_successes(
    seed: u64,
    iterations: u64,
    chunk: u64,
    successes: impl Fn(&mut Rng, u64) -> u64 + Sync,
) -> u64 {
    let chunks = usize::try_from(iterations.div_ceil(chunk)).expect("chunk count fits usize");
    par::map(chunks, |c| {
        let c = c as u64;
        let mut rng = Rng::seed_from_u64(mix_stream(seed, c));
        successes(&mut rng, chunk.min(iterations - c * chunk))
    })
    .into_iter()
    .sum()
}

/// Draws `f` distinct failed components for an `n`-node cluster and returns
/// the resulting liveness state.
///
/// Uses rejection sampling against a bitset: with `f ≤ 2n + 2` components
/// the expected number of redraws is small even in the worst case (`f = m`
/// costs `O(m log m)` draws), and no allocation is performed.
#[must_use]
pub fn sample_failure_state(n: usize, f: usize, rng: &mut Rng) -> ClusterState {
    sample_failure_state_k(n, 2, f, rng)
}

/// [`sample_failure_state`] for a `planes`-plane cluster.
#[must_use]
pub fn sample_failure_state_k(n: usize, planes: u8, f: usize, rng: &mut Rng) -> ClusterState {
    let m = planes as usize * n + planes as usize;
    debug_assert!(f <= m);
    let mut st = ClusterState::fully_up_k(n, planes);
    let mut drawn = FailureSet::new();
    let mut remaining = f;
    while remaining > 0 {
        let idx = rng.gen_range(0..m);
        if !drawn.contains(idx) {
            drawn.insert(idx);
            st.fail_index(idx);
            remaining -= 1;
        }
    }
    st
}

/// Draws a random `f`-component failure set (indices form) for external use
/// (e.g. injecting the same scenario into the packet-level simulator).
#[must_use]
pub fn sample_failure_set(n: usize, f: usize, rng: &mut Rng) -> FailureSet {
    sample_failure_set_k(n, 2, f, rng)
}

/// [`sample_failure_set`] for a `planes`-plane cluster (indices in the
/// generalized `planes·n + planes` layout).
#[must_use]
pub fn sample_failure_set_k(n: usize, planes: u8, f: usize, rng: &mut Rng) -> FailureSet {
    let m = planes as usize * n + planes as usize;
    assert!(f <= m, "cannot fail {f} of {m} components");
    let mut drawn = FailureSet::new();
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

/// The seed of chunk `stream` under `seed`: [`mix64`] over `seed ^ stream·γ`.
#[must_use]
fn mix_stream(seed: u64, stream: u64) -> u64 {
    mix64(seed ^ stream.wrapping_mul(GOLDEN_GAMMA))
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
    fn mix_stream_equals_the_body_it_replaced() {
        fn reference(seed: u64, stream: u64) -> u64 {
            let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let mut corpus = Rng::seed_from_u64(0x57EA);
        for stream in 0..2_000u64 {
            let seed = corpus.next_u64();
            assert_eq!(mix_stream(seed, stream), reference(seed, stream));
            assert_eq!(mix_stream(seed, seed), reference(seed, seed));
        }
        assert_eq!(mix_stream(0, 0), reference(0, 0));
    }

    #[test]
    fn parallel_estimate_is_the_sum_of_its_chunk_streams() {
        // One full chunk plus a short tail, recomputed by hand from the
        // per-chunk generators: pins chunk size, stream indices and the
        // tail's stream, whatever the worker count.
        let mc = MonteCarlo::new(10, 3, 77);
        let iterations = (1u64 << 14) + 1_000;
        let by_hand: u64 = [(0u64, 1u64 << 14), (1, 1_000)]
            .into_iter()
            .map(|(c, count)| {
                let mut rng = Rng::seed_from_u64(mix_stream(77, c));
                (0..count).filter(|_| mc.sample_once(&mut rng)).count() as u64
            })
            .sum();
        assert_eq!(mc.estimate_parallel(iterations).successes, by_hand);
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
    fn parallel_matches_itself_and_is_sane() {
        let mc = MonteCarlo::new(16, 4, 99);
        let a = mc.estimate_parallel(100_000);
        let b = mc.estimate_parallel(100_000);
        assert_eq!(a, b, "parallel estimate must be deterministic");
        let exact = p_success(16, 4);
        assert!((a.p_hat - exact).abs() < 0.01);
    }

    #[test]
    fn sample_draws_exactly_f_failures() {
        let mut rng = Rng::seed_from_u64(3);
        for f in 0..=10 {
            let set = sample_failure_set(8, f, &mut rng);
            assert_eq!(set.len(), f);
        }
    }

    #[test]
    fn sample_all_components_possible() {
        let mut rng = Rng::seed_from_u64(5);
        let n = 4;
        let set = sample_failure_set(n, 2 * n + 2, &mut rng);
        assert_eq!(set.len(), 2 * n + 2);
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
    fn wilson_interval_covers_truth_and_handles_extremes() {
        // Coverage: exact value inside the 95% interval for a sane cell.
        let mc = MonteCarlo::new(16, 3, 4);
        let est = mc.estimate(50_000);
        let (lo, hi) = est.wilson_interval(1.96);
        let exact = p_success(16, 3);
        assert!(lo <= exact && exact <= hi, "[{lo}, {hi}] vs {exact}");
        assert!(lo < hi);
        // Degenerate all-success cell: interval stays inside [0,1] and
        // is not collapsed to a point (the naive ±z·SE would be).
        let all = MonteCarlo::new(4, 0, 1).estimate(100);
        let (lo1, hi1) = all.wilson_interval(1.96);
        assert!(hi1 > 1.0 - 1e-12, "{hi1}");
        assert!(lo1 > 0.9 && lo1 < 1.0);
    }

    #[test]
    fn two_plane_constructor_is_the_k_constructor() {
        // The K-general sampler at planes=2 draws from the same universe in
        // the same order: estimates are bit-identical, not just close.
        let legacy = MonteCarlo::new(12, 3, 7).estimate(20_000);
        let general = MonteCarlo::new_k(12, 2, 3, 7).estimate(20_000);
        assert_eq!(legacy, general);
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
        let (n, planes) = (4usize, 4u8);
        let m = planes as usize * n + planes as usize;
        let set = sample_failure_set_k(n, planes, m, &mut rng);
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
