//! Manual-clock span timers.
//!
//! A [`Span`] is just a remembered start instant in *some* nanosecond
//! clock — the caller injects the clock on both ends. The rule the whole
//! stack follows:
//!
//! * **in-world spans** are fed simulation time (`SimTime.0`), so their
//!   durations are deterministic and may flow into committed artifacts;
//! * **engine-profiling spans** are fed a monotonic wall clock
//!   (`std::time::Instant` deltas, see [`crate::profile::WallProfiler`])
//!   and must stay in non-committed, human-facing output only.
//!
//! Keeping the clock out of the type is what makes the rule enforceable:
//! a span cannot secretly read wall time, so any nondeterminism has to
//! arrive through an explicit `now` argument at the call site.

/// A started timer in a caller-supplied nanosecond clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    start_ns: u64,
}

impl Span {
    /// Starts a span at the caller's current clock reading.
    #[must_use]
    pub fn begin(now_ns: u64) -> Self {
        Span { start_ns: now_ns }
    }

    /// The clock reading the span started at.
    #[must_use]
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }

    /// Nanoseconds elapsed up to `now_ns` in the same clock. Saturates to
    /// zero if the caller hands a reading from before the start (a merged
    /// or replayed trace), rather than panicking mid-experiment.
    #[must_use]
    pub fn elapsed_ns(&self, now_ns: u64) -> u64 {
        now_ns.saturating_sub(self.start_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_a_plain_difference() {
        let s = Span::begin(1_000);
        assert_eq!(s.start_ns(), 1_000);
        assert_eq!(s.elapsed_ns(1_000), 0);
        assert_eq!(s.elapsed_ns(4_500), 3_500);
    }

    #[test]
    fn elapsed_saturates_on_clock_regression() {
        let s = Span::begin(1_000);
        assert_eq!(s.elapsed_ns(999), 0);
    }
}
