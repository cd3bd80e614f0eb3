//! Simulation time base.
//!
//! [`SimTime`] is an absolute instant and [`SimDuration`] a span, both in
//! integer picoseconds. Keeping the two distinct catches the classic
//! "added two timestamps" bug at compile time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds in one nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds in one microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds in one millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;

/// An absolute simulation instant, in picoseconds since simulation start.
///
/// ```
/// use sim_core::SimTime;
/// let t = SimTime::from_us(2);
/// assert_eq!(t.as_ns(), 2_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in picoseconds.
///
/// ```
/// use sim_core::SimDuration;
/// assert_eq!(SimDuration::from_ns(3) * 4, SimDuration::from_ns(12));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as an "infinity" sentinel for comparisons.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates an instant from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }

    /// Creates an instant from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }

    /// Creates an instant from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * PS_PER_MS)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds (truncating).
    pub const fn as_ns(self) -> u64 {
        self.0 / PS_PER_NS
    }

    /// Time as fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: earlier instant is after self"),
        )
    }

    /// Saturating version of [`SimTime::since`]: returns zero when
    /// `earlier` is after `self`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The maximum representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a span from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }

    /// Creates a span from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }

    /// Creates a span from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * PS_PER_MS)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds (truncating).
    pub const fn as_ns(self) -> u64 {
        self.0 / PS_PER_NS
    }

    /// Span as fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// True if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Ratio of `self` to `other` as `f64`; returns 0 when `other` is zero.
    pub fn ratio(self, other: SimDuration) -> f64 {
        if other.0 == 0 {
            0.0
        } else {
            self.0 as f64 / other.0 as f64
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_ns(7).as_ps(), 7_000);
        assert_eq!(SimTime::from_us(7).as_ns(), 7_000);
        assert_eq!(SimTime::from_ms(7).as_ps(), 7 * PS_PER_MS);
        assert_eq!(SimDuration::from_us(3).as_ns(), 3_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ns(100) + SimDuration::from_ns(50);
        assert_eq!(t.as_ns(), 150);
        assert_eq!(t.since(SimTime::from_ns(100)), SimDuration::from_ns(50));
        assert_eq!(SimDuration::from_ns(10) * 3, SimDuration::from_ns(30));
        assert_eq!(SimDuration::from_ns(30) / 3, SimDuration::from_ns(10));
    }

    #[test]
    #[should_panic(expected = "earlier instant is after self")]
    fn since_panics_when_reversed() {
        let _ = SimTime::from_ns(1).since(SimTime::from_ns(2));
    }

    #[test]
    fn saturating_since_clamps() {
        assert_eq!(
            SimTime::from_ns(1).saturating_since(SimTime::from_ns(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn ratio_handles_zero() {
        assert_eq!(SimDuration::from_ns(5).ratio(SimDuration::ZERO), 0.0);
        assert!((SimDuration::from_ns(5).ratio(SimDuration::from_ns(10)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_ns(1) < SimTime::from_ns(2));
        assert_eq!(format!("{}", SimTime::from_us(2)), "2.000us");
        assert_eq!(format!("{}", SimDuration::from_ns(1500)), "1.500us");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_ns).sum();
        assert_eq!(total, SimDuration::from_ns(10));
    }
}
