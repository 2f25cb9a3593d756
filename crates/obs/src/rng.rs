//! The repository's only randomness source: SplitMix64 and xoshiro256++.
//!
//! Figure 3 of the paper is a Monte-Carlo validation of Equation 1, so
//! the failure draws *are* the experiment; every sampled byte in the
//! tree is a function of this module and nothing outside it.
//!
//! * [`mix64`] — the SplitMix64 output finalizer, the one mixer every
//!   seed derivation goes through (`harness::seed`, per-cell and
//!   per-host streams, the workload streams).
//! * [`SplitMix64`] — the counter generator built on it: seed expansion
//!   for [`Rng`], the workload layer's per-host streams, the live
//!   backend's gateway pick.
//! * [`Rng`] — xoshiro256++ (Blackman & Vigna), state expanded from a
//!   `u64` seed by four SplitMix64 draws. Integer ranges use one
//!   widening multiply per draw (bias below `span / 2^64`); `f64` draws
//!   carry 53 uniform mantissa bits.

use std::ops::Range;

/// The golden-ratio increment of SplitMix64 (`2^64 / φ`).
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output finalizer: a bijective avalanche over `u64`.
///
/// Adjacent inputs produce statistically independent outputs, which is
/// what makes `master + i·γ` counter streams safe to seed an [`Rng`] from.
#[must_use]
pub fn mix64(z: u64) -> u64 {
    let mut z = z;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 (Steele, Lea & Flood): [`mix64`] over a `γ`-stepped counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream whose first draw is `mix64(state + γ)`.
    #[must_use]
    pub fn new(state: u64) -> Self {
        SplitMix64 { state }
    }

    /// The next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }
}

/// xoshiro256++ — the generator behind every Monte-Carlo draw, fault
/// plan and frame-loss coin in the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Expands `seed` into the 256-bit state with four [`SplitMix64`]
    /// draws, as the xoshiro authors recommend (never all-zero).
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Rng {
            s: std::array::from_fn(|_| sm.next_u64()),
        }
    }

    /// The next 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform draw in `[0, 1)` with 53 random mantissa bits.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A uniform draw from the half-open `range`, consuming one word.
    ///
    /// # Panics
    /// Panics if `range` is empty.
    pub fn gen_range<T: SampleRange>(&mut self, range: Range<T>) -> T {
        T::sample(range, self)
    }
}

/// Types [`Rng::gen_range`] can draw from a half-open range.
pub trait SampleRange: Sized {
    /// One draw from `range`.
    fn sample(range: Range<Self>, rng: &mut Rng) -> Self;
}

/// Maps a uniform `word` onto `[0, span)` by widening multiply.
fn scale(word: u64, span: u64) -> u64 {
    ((u128::from(word) * u128::from(span)) >> 64) as u64
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            #[inline]
            fn sample(range: Range<Self>, rng: &mut Rng) -> Self {
                assert!(range.start < range.end, "gen_range: empty range");
                let span = (range.end - range.start) as u64;
                range.start + scale(rng.next_u64(), span) as $t
            }
        }
    )*};
}
int_range!(u8, u32, u64, usize);

impl SampleRange for f64 {
    fn sample(range: Range<Self>, rng: &mut Rng) -> Self {
        assert!(range.start < range.end, "gen_range: empty range");
        let x = range.start + rng.gen_f64() * (range.end - range.start);
        // Rounding can land exactly on `end`; fold that onto `start`.
        if x < range.end {
            x
        } else {
            range.start
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_implementation() {
        // First outputs of Vigna's splitmix64.c seeded with 1234567.
        let mut sm = SplitMix64::new(1_234_567);
        let got: [u64; 5] = std::array::from_fn(|_| sm.next_u64());
        assert_eq!(
            got,
            [
                6_457_827_717_110_365_317,
                3_203_168_211_198_807_973,
                9_817_491_932_198_370_423,
                4_593_380_528_125_082_431,
                16_408_922_859_458_223_821,
            ]
        );
    }

    #[test]
    fn xoshiro256pp_matches_the_reference_implementation() {
        // First outputs of Blackman & Vigna's xoshiro256plusplus.c from
        // the state {1, 2, 3, 4}.
        let mut rng = Rng { s: [1, 2, 3, 4] };
        let got: [u64; 10] = std::array::from_fn(|_| rng.next_u64());
        assert_eq!(
            got,
            [
                41_943_041,
                58_720_359,
                3_588_806_011_781_223,
                3_591_011_842_654_386,
                9_228_616_714_210_784_205,
                9_973_669_472_204_895_162,
                14_011_001_112_246_962_877,
                12_406_186_145_184_390_807,
                15_849_039_046_786_891_736,
                10_450_023_813_501_588_000,
            ]
        );
    }

    #[test]
    fn seeding_expands_through_splitmix64() {
        let mut sm = SplitMix64::new(42);
        let s = std::array::from_fn(|_| sm.next_u64());
        assert_eq!(Rng::seed_from_u64(42), Rng { s });
        assert_ne!(
            Rng::seed_from_u64(0).s,
            [0; 4],
            "all-zero state is a fixed point"
        );
    }

    /// The body every hand-copied finalizer in the tree had before they
    /// were folded into [`mix64`].
    fn old_finalizer(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn mix64_and_splitmix64_equal_the_bodies_they_replaced() {
        // `harness::seed::mix64`, and the stepping generators of
        // `sim::workload::dist::Stream` and `io::live` (state += γ, then
        // finalize), on a seeded corpus plus the edge values.
        let mut corpus = SplitMix64::new(0xC0FFEE);
        for i in 0..10_000u64 {
            let z = match i {
                0 => 0,
                1 => u64::MAX,
                _ => corpus.next_u64(),
            };
            assert_eq!(mix64(z), old_finalizer(z), "z={z:#x}");
            let mut state = z;
            let mut sm = SplitMix64::new(z);
            for _ in 0..3 {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                assert_eq!(sm.next_u64(), old_finalizer(state), "seed={z:#x}");
            }
        }
    }

    #[test]
    fn integer_ranges_stay_inside_and_reach_both_ends() {
        let mut rng = Rng::seed_from_u64(7);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            let x = rng.gen_range(10usize..15);
            assert!((10..15).contains(&x), "{x}");
            seen[x - 10] = true;
            assert_eq!(rng.gen_range(3u8..4), 3, "span 1 has one value");
            assert!(rng.gen_range(0u64..u64::MAX) < u64::MAX);
            assert!(rng.gen_range(1u64..u64::MAX) >= 1);
        }
        assert_eq!(seen, [true; 5]);
    }

    #[test]
    fn extreme_words_map_to_the_range_ends() {
        // Word 0 lands on `start` and the largest word on `end - 1`,
        // never on `end`.
        for span in [1u64, 2, 3, 1 << 32, u64::MAX] {
            assert_eq!(scale(0, span), 0);
            assert_eq!(scale(u64::MAX, span), span - 1, "span={span}");
        }
    }

    #[test]
    fn f64_draws_lie_in_the_half_open_unit_interval() {
        let mut rng = Rng::seed_from_u64(11);
        for _ in 0..10_000 {
            let u = rng.gen_f64();
            assert!((0.0..1.0).contains(&u), "{u}");
            let x = rng.gen_range(f64::MIN_POSITIVE..1.0);
            assert!((f64::MIN_POSITIVE..1.0).contains(&x), "{x}");
            let y = rng.gen_range(-1e6..1e6);
            assert!((-1e6..1e6).contains(&y), "{y}");
        }
        // The largest 53-bit mantissa is still below 1.
        assert!(((u64::MAX >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < 1.0);
    }

    #[test]
    fn gen_bool_tracks_its_probability() {
        let mut rng = Rng::seed_from_u64(13);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.35)).count();
        // 4σ of Binomial(100000, 0.35) is ~600.
        assert!((34_400..35_600).contains(&hits), "{hits}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let _ = Rng::seed_from_u64(1).gen_range(5u32..5);
    }
}
