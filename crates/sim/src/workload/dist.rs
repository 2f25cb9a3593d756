//! Deterministic, dependency-free samplers for the fluid session layer.
//!
//! The workload engine's whole value is that `BENCH_workload.json` is
//! byte-identical on every machine, so its
//! randomness must not depend on any external RNG crate *or* on the
//! platform's `libm` (whose `ln`/`exp` are not bit-specified). This
//! module therefore carries:
//!
//! * [`Stream`] — a [`SplitMix64`] generator, one independent stream per
//!   host, seeded from the scenario seed by [`stream_seed`];
//! * software [`ln`]/[`exp`] built from IEEE-754 add/mul/div only
//!   (atanh series and range-reduced Taylor) — every operation is
//!   exact-rounded and Rust never contracts to FMA, so results are
//!   bit-identical across architectures;
//! * the holding-time distributions of the paper's domain
//!   ([`HoldingDist`]): exponential, heavy-tailed Pareto, and lognormal
//!   (via an Irwin–Hall normal, no transcendentals beyond [`exp`]).
//!
//! Accuracy note: the series give ~1 ulp-level precision over the
//! sampler domain, but the contract here is *determinism*, not
//! faithfulness to libm — the samplers **define** the workload.

use drs_obs::rng::{mix64, SplitMix64, GOLDEN_GAMMA};

/// Domain-separation constant so workload streams never collide with the
/// kernel's per-host protocol RNG streams derived from the same seed.
const WORKLOAD_SALT: u64 = 0x5E55_1011_F10D_F10A;

/// Derives host `node`'s workload stream seed from the scenario seed.
///
/// A host's stream depends only on the seed and the host, so a host
/// draws the same sequence whatever the other hosts do.
#[must_use]
pub fn stream_seed(seed: u64, node: u32) -> u64 {
    mix64(
        seed ^ WORKLOAD_SALT
            .wrapping_add(u64::from(node).wrapping_add(1).wrapping_mul(GOLDEN_GAMMA)),
    )
}

/// A SplitMix64 stream: the session layer's only randomness source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream(SplitMix64);

impl Stream {
    /// A stream starting from `state`.
    #[must_use]
    pub fn new(state: u64) -> Self {
        Stream(SplitMix64::new(state))
    }

    /// Host `node`'s stream under scenario `seed` (see [`stream_seed`]).
    #[must_use]
    pub fn for_host(seed: u64, node: u32) -> Self {
        Stream::new(stream_seed(seed, node))
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// A uniform draw in `(0, 1]` — never 0, so `ln` is always defined.
    pub fn u01(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }

    /// Uniform draw from `0..n` via the 128-bit multiply reduction
    /// (bias < 2⁻⁶⁴, deterministic).
    ///
    /// # Panics
    /// Panics (in debug) if `n == 0`.
    pub fn pick(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// An exponential draw with the given mean, floored to whole
    /// nanoseconds and clamped to at least 1 ns.
    pub fn exp_ns(&mut self, mean_ns: u64) -> u64 {
        let v = -ln(self.u01()) * mean_ns as f64;
        clamp_ns(v)
    }

    /// A standard-normal draw via Irwin–Hall (sum of 12 uniforms − 6):
    /// no transcendentals, tails truncated at ±6σ — plenty for holding
    /// times, and exactly reproducible.
    pub fn normal(&mut self) -> f64 {
        let mut s = 0.0;
        for _ in 0..12 {
            s += self.u01();
        }
        s - 6.0
    }
}

/// Largest holding/gap the samplers emit: one virtual hour. Heavier
/// tails than this would only park events in the wheel's overflow heap.
pub const MAX_SAMPLE_NS: u64 = 3_600_000_000_000;

fn clamp_ns(v: f64) -> u64 {
    if v.is_nan() || v <= 1.0 {
        return 1;
    }
    if v >= MAX_SAMPLE_NS as f64 {
        return MAX_SAMPLE_NS;
    }
    v as u64
}

/// Natural log over positive finite normal `f64`s, from IEEE basics only.
///
/// Decomposes `x = m·2^e` with `m ∈ [√½, √2)` and sums the atanh series
/// `ln m = 2·(t + t³/3 + …)`, `t = (m−1)/(m+1)` (|t| < 0.172, sixteen
/// terms reach full precision).
#[must_use]
pub fn ln(x: f64) -> f64 {
    debug_assert!(x > 0.0 && x.is_finite(), "ln domain: {x}");
    use std::f64::consts::{LN_2 as LN2, SQRT_2 as SQRT2};
    let bits = x.to_bits();
    let mut e = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let mut m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | (1023u64 << 52));
    if m > SQRT2 {
        m *= 0.5;
        e += 1;
    }
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let mut term = t;
    let mut sum = 0.0;
    let mut k = 1.0;
    for _ in 0..16 {
        sum += term / k;
        term *= t2;
        k += 2.0;
    }
    2.0f64.mul_add(sum, 0.0) + e as f64 * LN2
}

/// `2^k` for `k` in the normal-exponent range, by bit assembly.
fn pow2(k: i64) -> f64 {
    debug_assert!((-1022..=1023).contains(&k), "pow2 range: {k}");
    f64::from_bits(((1023 + k) as u64) << 52)
}

/// Exponential over the sampler domain, from IEEE basics only.
///
/// Range-reduces `x = k·ln2 + r` (two-part ln 2 so `r` is exact to ~1
/// ulp), sums the Taylor series of `exp(r)` (|r| ≤ ln2/2, fourteen
/// terms), and scales by `2^k` via bit assembly. Inputs outside
/// ±700 saturate.
#[must_use]
pub fn exp(x: f64) -> f64 {
    debug_assert!(x.is_finite(), "exp domain: {x}");
    if x > 700.0 {
        return f64::MAX;
    }
    if x < -700.0 {
        return 0.0;
    }
    use std::f64::consts::LOG2_E;
    const LN2_HI: f64 = 6.931_471_803_691_238e-1;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
    let k = (x * LOG2_E + if x >= 0.0 { 0.5 } else { -0.5 }).trunc();
    let r = (x - k * LN2_HI) - k * LN2_LO;
    let mut term = 1.0;
    let mut sum = 1.0;
    for i in 1..=14 {
        term *= r / f64::from(i);
        sum += term;
    }
    sum * pow2(k as i64)
}

/// Session holding-time (and think-time) distributions.
///
/// Parameters that are conceptually real-valued are carried in milli
/// units (`alpha_milli`, `sigma_milli`) so specs stay `Eq`-comparable
/// and artifact row ids stay integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HoldingDist {
    /// Exponential with the given mean.
    Exponential {
        /// Mean holding time in nanoseconds.
        mean_ns: u64,
    },
    /// Pareto with scale `xm` and shape `alpha = alpha_milli / 1000`
    /// (heavy-tailed for `alpha ≤ 2000`; the paper's voice-mail talk
    /// times motivate `alpha ≈ 1100–1500`).
    Pareto {
        /// Scale (minimum) in nanoseconds.
        xm_ns: u64,
        /// Shape × 1000; must be ≥ 1 (α > 0).
        alpha_milli: u32,
    },
    /// Lognormal with the given median and `sigma = sigma_milli / 1000`.
    LogNormal {
        /// Median (`e^μ`) in nanoseconds.
        median_ns: u64,
        /// Shape × 1000.
        sigma_milli: u32,
    },
}

impl HoldingDist {
    /// Draws one holding time in nanoseconds, clamped to
    /// `1 ..= MAX_SAMPLE_NS`.
    pub fn sample(&self, s: &mut Stream) -> u64 {
        match *self {
            HoldingDist::Exponential { mean_ns } => s.exp_ns(mean_ns),
            HoldingDist::Pareto { xm_ns, alpha_milli } => {
                let alpha = f64::from(alpha_milli.max(1)) / 1000.0;
                let v = xm_ns as f64 * exp(-ln(s.u01()) / alpha);
                clamp_ns(v)
            }
            HoldingDist::LogNormal {
                median_ns,
                sigma_milli,
            } => {
                let sigma = f64::from(sigma_milli) / 1000.0;
                let v = median_ns as f64 * exp(sigma * s.normal());
                clamp_ns(v)
            }
        }
    }

    /// Approximate mean in nanoseconds — used only to pre-size timer
    /// pools and pick scenario windows, never in accounting.
    #[must_use]
    pub fn mean_ns_estimate(&self) -> u64 {
        match *self {
            HoldingDist::Exponential { mean_ns } => mean_ns,
            HoldingDist::Pareto { xm_ns, alpha_milli } => {
                if alpha_milli > 1000 {
                    // α/(α−1) · xm
                    let a = f64::from(alpha_milli) / 1000.0;
                    clamp_ns(xm_ns as f64 * (a / (a - 1.0)))
                } else {
                    // Infinite mean; any figure here is a sizing hint.
                    xm_ns.saturating_mul(16).min(MAX_SAMPLE_NS)
                }
            }
            HoldingDist::LogNormal {
                median_ns,
                sigma_milli,
            } => {
                let sigma = f64::from(sigma_milli) / 1000.0;
                clamp_ns(median_ns as f64 * exp(sigma * sigma * 0.5))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_and_its_seed_equal_the_bodies_they_replaced() {
        fn finalize(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let mut corpus = Stream::new(0xD157);
        for node in 0..2_000u32 {
            let seed = corpus.next_u64();
            let salted = 0x5E55_1011_F10D_F10Au64.wrapping_add(
                u64::from(node)
                    .wrapping_add(1)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            assert_eq!(stream_seed(seed, node), finalize(seed ^ salted));
            let mut state = seed;
            let mut s = Stream::new(seed);
            for _ in 0..3 {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                assert_eq!(s.next_u64(), finalize(state));
            }
        }
    }

    #[test]
    fn ln_and_exp_round_trip_to_high_precision() {
        for &x in &[1e-12, 3.7e-5, 0.1, 0.5, 1.0, 1.5, 2.0, 10.0, 6.02e8] {
            let rel = (exp(ln(x)) - x).abs() / x;
            assert!(rel < 1e-13, "round trip x={x}: rel err {rel}");
        }
        assert_eq!(ln(1.0), 0.0);
        assert!((exp(0.0) - 1.0).abs() < 1e-15);
        assert!((exp(1.0) - core::f64::consts::E).abs() < 1e-14);
        assert!((ln(core::f64::consts::E) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn streams_are_per_host_independent_and_reproducible() {
        let mut a1 = Stream::for_host(42, 3);
        let mut a2 = Stream::for_host(42, 3);
        let mut b = Stream::for_host(42, 4);
        let xs: Vec<u64> = (0..8).map(|_| a1.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| a2.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn u01_is_in_half_open_unit_interval() {
        let mut s = Stream::new(7);
        for _ in 0..10_000 {
            let u = s.u01();
            assert!(u > 0.0 && u <= 1.0);
        }
    }

    #[test]
    fn pick_is_in_range_and_covers() {
        let mut s = Stream::new(9);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[s.pick(5) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut s = Stream::new(11);
        let mean = 1_000_000u64;
        let n = 20_000u32;
        let sum: u128 = (0..n).map(|_| u128::from(s.exp_ns(mean))).sum();
        let got = (sum / u128::from(n)) as f64;
        assert!(
            (got - mean as f64).abs() / (mean as f64) < 0.03,
            "sample mean {got}"
        );
    }

    #[test]
    fn pareto_is_heavy_tailed_above_scale() {
        let d = HoldingDist::Pareto {
            xm_ns: 1_000_000,
            alpha_milli: 1200,
        };
        let mut s = Stream::new(13);
        let mut max = 0u64;
        for _ in 0..10_000 {
            let v = d.sample(&mut s);
            assert!(v >= 1_000_000);
            max = max.max(v);
        }
        assert!(max > 100_000_000, "no tail: max {max}");
    }

    #[test]
    fn lognormal_median_is_close() {
        let d = HoldingDist::LogNormal {
            median_ns: 5_000_000,
            sigma_milli: 800,
        };
        let mut s = Stream::new(17);
        let n = 10_001;
        let mut v: Vec<u64> = (0..n).map(|_| d.sample(&mut s)).collect();
        v.sort_unstable();
        let med = v[n / 2] as f64;
        assert!((med - 5e6).abs() / 5e6 < 0.05, "sample median {med}");
    }

    #[test]
    fn samples_respect_the_global_clamp() {
        let d = HoldingDist::Pareto {
            xm_ns: MAX_SAMPLE_NS,
            alpha_milli: 1,
        };
        let mut s = Stream::new(19);
        assert_eq!(d.sample(&mut s), MAX_SAMPLE_NS);
        assert_eq!(HoldingDist::Exponential { mean_ns: 0 }.sample(&mut s), 1);
    }
}
