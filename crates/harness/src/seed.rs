//! SplitMix64 seed derivation: one discipline for every experiment.
//!
//! Before this module existed each study derived per-replication seeds its
//! own way — `analytic::sweep` mixed cell coordinates through the SplitMix64
//! finalizer, while `trace::study` used
//! `seed.wrapping_add(i).wrapping_mul(0x9E37_79B9)`, whose outputs for
//! consecutive `i` differ by a single constant and therefore feed highly
//! correlated states into the generator. Everything now goes through
//! [`mix64`] (the finalizer in [`drs_obs::rng`]): grid-shaped experiments
//! derive with [`coord_seed`] (the exact function `analytic::sweep` has
//! always used, so committed artifacts are unchanged), and
//! replication-shaped experiments derive with [`stream_seed`].
//!
//! One derivation stays outside: `analytic::convergence`'s Figure 3 cells
//! seed `seed·γ + (n << 8) + f`, unmixed. `Rng::seed_from_u64` expands
//! each through SplitMix64, so the cells' streams start apart, and moving
//! the cells to [`coord_seed`] would move every sampled Figure 3 number
//! (`report fig3`, EXPERIMENTS.md's convergence table) for no gain in
//! what they show.

pub use drs_obs::rng::{mix64, GOLDEN_GAMMA};

/// Second mixing constant for the `f` coordinate in [`coord_seed`]; kept
/// byte-identical to the constant `analytic::sweep::cell_seed` shipped
/// with so the committed `BENCH_survivability.json` never moves.
pub const COORD_GAMMA: u64 = 0xD1B5_4A32_D192_ED03;

/// The seed for trial `index` of a replication-shaped experiment:
/// SplitMix64 over the counter `master + (index + 1)·γ`.
///
/// The `+ 1` keeps trial 0 from collapsing onto the raw master seed, so an
/// experiment's trials never share a stream with a sibling experiment that
/// seeds a generator directly from `master`.
#[must_use]
pub fn stream_seed(master: u64, index: u64) -> u64 {
    mix64(master.wrapping_add(index.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA)))
}

/// The seed for a coordinate-shaped `(a, b)` cell — byte-identical to
/// `analytic::sweep::cell_seed(master, n, f)`, which now delegates here.
#[must_use]
pub fn coord_seed(master: u64, a: u64, b: u64) -> u64 {
    mix64(
        master
            .wrapping_add(a.wrapping_mul(GOLDEN_GAMMA))
            .wrapping_add(b.wrapping_mul(COORD_GAMMA)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_a_bijection_on_a_sample() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)));
        }
    }

    #[test]
    fn stream_seeds_are_distinct_and_uncorrelated_looking() {
        let a = stream_seed(42, 0);
        let b = stream_seed(42, 1);
        assert_ne!(a, b);
        // The weak scheme this replaces produced consecutive seeds whose
        // difference was a fixed constant; the mixed stream must not.
        let d0 = stream_seed(42, 1).wrapping_sub(stream_seed(42, 0));
        let d1 = stream_seed(42, 2).wrapping_sub(stream_seed(42, 1));
        assert_ne!(d0, d1);
    }

    #[test]
    fn stream_differs_across_masters() {
        assert_ne!(stream_seed(1, 0), stream_seed(2, 0));
    }

    #[test]
    fn trial_zero_is_not_the_master() {
        assert_ne!(stream_seed(7, 0), 7);
        assert_ne!(stream_seed(7, 0), mix64(7));
    }

    #[test]
    fn coord_seed_matches_published_cell_seed_values() {
        // Reference values computed from the original
        // analytic::sweep::cell_seed body; these pin the committed
        // BENCH_survivability.json seeds.
        fn reference(master: u64, n: u64, f: u64) -> u64 {
            let mut z = master
                .wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(f.wrapping_mul(0xD1B5_4A32_D192_ED03));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        for (master, n, f) in [(42u64, 4u64, 2u64), (42, 64, 10), (7, 12, 3), (0, 0, 0)] {
            assert_eq!(coord_seed(master, n, f), reference(master, n, f));
        }
    }
}
