//! Virtual time: integer nanoseconds since simulation start.
//!
//! Integer time makes the simulator exactly deterministic (no accumulated
//! floating-point drift in event ordering) and cheap to compare in the
//! event queue's hot path.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in virtual time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

/// An `Option<SimTime>` in the 8 bytes of one instant: `u64::MAX` means
/// "never". `Option<SimTime>` spends 16 bytes on its tag, and the
/// daemon's per-link and per-peer tables hold millions of these.
///
/// The encoding gives up one instant: `SimTime(u64::MAX)` — 584 years of
/// virtual time — is stored as `SimTime(u64::MAX - 1)`, one nanosecond
/// earlier. Every other instant, `SimTime::ZERO` included, round-trips.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct OptTime(u64);

impl OptTime {
    /// No instant recorded.
    pub const NEVER: OptTime = OptTime(u64::MAX);

    /// The instant `t` (`SimTime(u64::MAX)` is stored one nanosecond
    /// earlier, see the type docs).
    #[must_use]
    pub const fn at(t: SimTime) -> Self {
        OptTime(if t.0 == u64::MAX { u64::MAX - 1 } else { t.0 })
    }

    /// The recorded instant, if any.
    #[must_use]
    pub const fn get(self) -> Option<SimTime> {
        if self.0 == u64::MAX {
            None
        } else {
            Some(SimTime(self.0))
        }
    }

    /// Records `t`, returning the instant it replaces.
    pub fn replace(&mut self, t: SimTime) -> Option<SimTime> {
        std::mem::replace(self, OptTime::at(t)).get()
    }

    /// Clears the record, returning the instant it held.
    pub fn take(&mut self) -> Option<SimTime> {
        std::mem::replace(self, OptTime::NEVER).get()
    }
}

impl Default for OptTime {
    fn default() -> Self {
        OptTime::NEVER
    }
}

impl fmt::Debug for OptTime {
    /// Prints as the `Option<SimTime>` it stands for.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.get(), f)
    }
}

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Seconds since simulation start, as a float (for reporting only).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating at zero.
    #[must_use]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From whole seconds, saturating at the representable maximum so an
    /// absurd scenario config cannot wrap virtual time in release builds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(1_000_000_000))
    }

    /// From milliseconds (saturating).
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000_000))
    }

    /// From microseconds (saturating).
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us.saturating_mul(1_000))
    }

    /// From nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// From fractional seconds, rounding to the nearest nanosecond.
    ///
    /// # Panics
    /// Panics on negative, NaN or out-of-range input.
    #[must_use]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0 && s < u64::MAX as f64 / 1e9,
            "invalid duration {s}"
        );
        SimDuration((s * 1e9).round() as u64)
    }

    /// The span in seconds as a float (for reporting only).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Integer nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Saturating multiplication by an integer factor.
    #[must_use]
    pub const fn saturating_mul(self, k: u64) -> Self {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Integer division by a count (e.g. spacing probes across a cycle).
    ///
    /// # Panics
    /// Panics if `k == 0`.
    #[must_use]
    pub const fn div(self, k: u64) -> Self {
        SimDuration(self.0 / k)
    }
}

// The additions saturate, like the constructors: a span that runs past
// the last representable instant ends there instead of wrapping into
// the past (which would fire a far-future timer at once in release
// builds). The subtractions keep their checked panics.
impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("time went backwards"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("negative duration"))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}µs", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1000));
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_secs(2);
        assert_eq!(t - SimTime::ZERO, SimDuration::from_secs(2));
        assert_eq!(t.since(SimTime(5_000_000_000)), SimDuration::ZERO);
        let mut u = t;
        u += SimDuration::from_secs(1);
        assert_eq!(u.as_secs_f64(), 3.0);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn strict_sub_panics_backwards() {
        let _ = SimTime(1) - SimTime(2);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000µs");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn div_and_mul() {
        assert_eq!(
            SimDuration::from_secs(1).div(4),
            SimDuration::from_millis(250)
        );
        assert_eq!(
            SimDuration::from_millis(250).saturating_mul(4),
            SimDuration::from_secs(1)
        );
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn rejects_negative_float() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn opt_time_round_trips_every_instant_but_the_last() {
        assert_eq!(OptTime::default().get(), None);
        // The first unstaggered probe leaves at t = 0: zero is an instant,
        // not "never".
        for t in [0, 1, 1_000_000_000, u64::MAX - 1] {
            assert_eq!(OptTime::at(SimTime(t)).get(), Some(SimTime(t)));
        }
        // The one instant given up lands one nanosecond early, never on
        // "never".
        assert_eq!(
            OptTime::at(SimTime(u64::MAX)).get(),
            Some(SimTime(u64::MAX - 1))
        );
        let mut slot = OptTime::NEVER;
        assert_eq!(slot.replace(SimTime::ZERO), None);
        assert_eq!(slot.replace(SimTime(7)), Some(SimTime::ZERO));
        assert_eq!(slot.take(), Some(SimTime(7)));
        assert_eq!(slot, OptTime::NEVER);
        assert_eq!(format!("{slot:?}"), "None");
        assert_eq!(std::mem::size_of::<OptTime>(), 8);
    }

    #[test]
    fn constructors_saturate_instead_of_wrapping() {
        assert_eq!(SimDuration::from_secs(u64::MAX), SimDuration(u64::MAX));
        assert_eq!(SimDuration::from_millis(u64::MAX), SimDuration(u64::MAX));
        assert_eq!(SimDuration::from_micros(u64::MAX), SimDuration(u64::MAX));
        // Just under the overflow edge still multiplies exactly.
        let edge = u64::MAX / 1_000_000_000;
        assert_eq!(
            SimDuration::from_secs(edge),
            SimDuration(edge * 1_000_000_000)
        );
    }

    #[test]
    fn additions_saturate_instead_of_wrapping() {
        let max = SimDuration(u64::MAX);
        assert_eq!(SimTime(1) + max, SimTime(u64::MAX));
        assert_eq!(SimTime(u64::MAX) + SimDuration(1), SimTime(u64::MAX));
        assert_eq!(SimDuration(2) + max, max);
        let mut t = SimTime(5);
        t += max;
        assert_eq!(t, SimTime(u64::MAX));
        // Up to the edge every addition is exact.
        assert_eq!(SimTime(1) + SimDuration(u64::MAX - 1), SimTime(u64::MAX));
        assert_eq!(SimDuration(1) + SimDuration(u64::MAX - 1), max);
        let mut u = SimTime(u64::MAX - 3);
        u += SimDuration(2);
        assert_eq!(u, SimTime(u64::MAX - 1));
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn duration_sub_still_panics_below_zero() {
        let _ = SimDuration(1) - SimDuration(2);
    }
}
