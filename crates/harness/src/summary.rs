//! Descriptive statistics over per-trial measurements — well-defined on
//! the empty set.
//!
//! `trace::study::replicate_study` used to compute `mean = sum / n` and
//! fold `min` from `f64::INFINITY` directly; a study whose replications
//! all produced empty traces (possible with zeroed failure rates)
//! returned `NaN` mean/std and an infinite minimum. [`Summary::of`] is
//! the shared replacement: an empty sample yields all-zero statistics,
//! which serialize as honest `0.0`s instead of poisoning downstream
//! arithmetic.

/// Count, mean, sample standard deviation, and range of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean (`0.0` for an empty sample).
    pub mean: f64,
    /// Sample standard deviation, `n - 1` denominator (`0.0` for samples
    /// of size 0 or 1).
    pub std: f64,
    /// Smallest observation (`0.0` for an empty sample).
    pub min: f64,
    /// Largest observation (`0.0` for an empty sample).
    pub max: f64,
}

impl Summary {
    /// The all-zero summary of an empty sample.
    #[must_use]
    pub fn empty() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            std: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }

    /// Summarizes a sample. Never returns `NaN` or infinities for finite
    /// inputs: the empty sample maps to [`Summary::empty`].
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        let Some((&first, _)) = values.split_first() else {
            return Summary::empty();
        };
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0).max(1.0);
        let (min, max) = values
            .iter()
            .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        Summary {
            count: values.len(),
            mean,
            std: var.sqrt(),
            min,
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_is_all_zero_not_nan() {
        let s = Summary::of(&[]);
        assert_eq!(s, Summary::empty());
        assert!(s.mean == 0.0 && s.std == 0.0 && s.min == 0.0 && s.max == 0.0);
    }

    #[test]
    fn singleton_has_zero_std() {
        let s = Summary::of(&[0.25]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 0.25);
        assert_eq!(s.std, 0.0);
        assert_eq!((s.min, s.max), (0.25, 0.25));
    }

    #[test]
    fn known_sample_statistics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        // Sample variance of 1..4 is 5/3.
        assert!((s.std - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!((s.min, s.max), (1.0, 4.0));
    }

    #[test]
    fn matches_the_legacy_study_numerics_on_nonempty_samples() {
        // The formula replicate_study used before the port, applied to a
        // non-empty sample, must agree exactly — the 13% statistic's
        // numerics may not drift in the refactor.
        let values = [0.10, 0.13, 0.16, 0.12, 0.14];
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|f| (f - mean).powi(2)).sum::<f64>() / (n - 1.0).max(1.0);
        let s = Summary::of(&values);
        assert_eq!(s.mean, mean);
        assert_eq!(s.std, var.sqrt());
        assert_eq!(s.min, 0.10);
        assert_eq!(s.max, 0.16);
    }

    #[test]
    fn negative_values_are_handled() {
        let s = Summary::of(&[-2.0, 2.0]);
        assert_eq!(s.mean, 0.0);
        assert_eq!((s.min, s.max), (-2.0, 2.0));
    }
}
