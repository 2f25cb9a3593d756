//! Offline stand-in for `rand` 0.8, covering exactly what the repository
//! calls: `SmallRng::seed_from_u64`, `gen_range` over half-open integer
//! and `f64` ranges, and `gen::<f64>()`.
//!
//! The generator is xoshiro256++ with SplitMix64 seed expansion, the same
//! algorithm `rand` 0.8 uses for `SmallRng` on 64-bit targets, but the
//! range-sampling arithmetic is simpler than rand's, so streams are
//! deterministic yet *not* bit-compatible with the real crate. Anything
//! compared against committed Monte-Carlo values must use a tolerance.

use std::ops::Range;

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub trait Rng {
    fn next_u64(&mut self) -> u64;

    fn gen_range<T: SampleRange>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample(range, self.next_u64())
    }

    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_bits(self.next_u64())
    }
}

/// Types `gen_range` can draw from a half-open range using one 64-bit word.
pub trait SampleRange: Sized {
    fn sample(range: Range<Self>, word: u64) -> Self;
}

/// Types `gen` can draw using one 64-bit word.
pub trait Standard {
    fn from_bits(word: u64) -> Self;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample(range: Range<Self>, word: u64) -> Self {
                assert!(range.start < range.end, "gen_range: empty range");
                let span = (range.end - range.start) as u64;
                // Widening multiply maps the word onto [0, span); the bias
                // is below span / 2^64.
                let offset = ((u128::from(word) * u128::from(span)) >> 64) as u64;
                range.start + offset as $t
            }
        }
    )*};
}
int_range!(u8, u16, u32, u64, usize);

/// 53 uniform mantissa bits in [0, 1).
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SampleRange for f64 {
    fn sample(range: Range<Self>, word: u64) -> Self {
        assert!(range.start < range.end, "gen_range: empty range");
        let x = range.start + unit_f64(word) * (range.end - range.start);
        if x < range.end {
            x
        } else {
            range.start
        }
    }
}

impl Standard for f64 {
    fn from_bits(word: u64) -> Self {
        unit_f64(word)
    }
}

impl Standard for u64 {
    fn from_bits(word: u64) -> Self {
        word
    }
}

pub mod rngs {
    use super::{Rng, SeedableRng};

    /// xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(mut state: u64) -> Self {
            let mut s = [0u64; 4];
            for word in &mut s {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word = z ^ (z >> 31);
            }
            Self { s }
        }
    }

    impl Rng for SmallRng {
        fn next_u64(&mut self) -> u64 {
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
    }
}
