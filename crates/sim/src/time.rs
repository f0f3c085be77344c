//! Simulation clock types.
//!
//! [`SimTime`] is an instant (nanoseconds since simulation start) and
//! [`SimDuration`] a span between instants. Both are thin wrappers over
//! `u64` nanoseconds, giving exact arithmetic over the paper's 900-second
//! runs (9·10¹¹ ns) with room to spare, and avoiding the accumulation error
//! a floating-point clock would introduce into beacon schedules.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Nanoseconds per second, the base resolution of the simulation clock.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An instant on the simulation clock, in nanoseconds since time zero.
///
/// `SimTime` is totally ordered and hashable so it can key event maps.
/// Construct instants either absolutely (`SimTime::from_secs(20)`) or by
/// offsetting with a [`SimDuration`].
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Default)]
pub struct SimTime(u64);

/// A non-negative span of simulation time, in nanoseconds.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates an instant from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates an instant from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }

    /// Creates an instant from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime(secs_f64_to_nanos(s))
    }

    /// Creates an instant from fractional seconds, or `None` where
    /// [`SimTime::from_secs_f64`] would panic: for input that is not a
    /// finite, non-negative number of seconds the clock can represent.
    pub fn try_from_secs_f64(s: f64) -> Option<Self> {
        let ns = s * NANOS_PER_SEC as f64;
        (s.is_finite() && s >= 0.0 && ns <= u64::MAX as f64).then(|| SimTime(ns.round() as u64))
    }

    /// Raw nanoseconds since time zero.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier > self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(
            earlier <= self,
            "SimTime::since: earlier ({earlier}) is after self ({self})"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Checked addition of a duration; `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span; used as an "infinite" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a span from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Creates a span from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration(secs_f64_to_nanos(s))
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// `true` if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the span by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

fn secs_f64_to_nanos(s: f64) -> u64 {
    assert!(s.is_finite(), "time from non-finite seconds: {s}");
    assert!(s >= 0.0, "time from negative seconds: {s}");
    let ns = s * NANOS_PER_SEC as f64;
    assert!(ns <= u64::MAX as f64, "time overflow: {s} seconds does not fit the simulation clock");
    ns.round() as u64
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0 - d.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        self.0 += other.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, other: SimDuration) {
        self.0 -= other.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({:.9}s)", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({:.9}s)", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(SimTime::from_secs_f64(0.3), SimTime::from_millis(300));
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_secs(20) + SimDuration::from_millis(500);
        assert_eq!(t.as_nanos(), 20_500_000_000);
        assert_eq!(t - SimTime::from_secs(20), SimDuration::from_millis(500));
        assert_eq!(t - SimDuration::from_millis(500), SimTime::from_secs(20));
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(1));
    }

    #[test]
    fn secs_f64_roundtrip() {
        let t = SimTime::from_secs_f64(123.456_789);
        assert!((t.as_secs_f64() - 123.456_789).abs() < 1e-9);
    }

    #[test]
    fn try_from_secs_f64_refuses_what_from_secs_f64_panics_on() {
        assert_eq!(SimTime::try_from_secs_f64(0.3), Some(SimTime::from_secs_f64(0.3)));
        assert_eq!(SimTime::try_from_secs_f64(0.0), Some(SimTime::ZERO));
        for bad in [-1.0, -0.5, f64::NAN, f64::INFINITY, 1e20] {
            assert_eq!(SimTime::try_from_secs_f64(bad), None, "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_seconds_panic() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(300);
        assert_eq!(d * 3, SimDuration::from_millis(900));
        assert_eq!(d / 3, SimDuration::from_millis(100));
        assert_eq!(d.saturating_mul(u64::MAX), SimDuration::MAX);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::ZERO < SimTime::from_nanos(1));
        assert!(SimTime::from_secs(900) < SimTime::MAX);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
        assert_eq!(format!("{:?}", SimDuration::from_secs(2)), "SimDuration(2.000000000s)");
    }
}
