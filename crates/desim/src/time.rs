//! Simulation time.
//!
//! Time is kept in integer **picoseconds**. The two clock domains of the
//! paper (worker cores at 2 GHz → 500 ps period, Nexus++ at 500 MHz →
//! 2000 ps period) and the memory timings (12 ns per 128-byte chunk) are all
//! exact in picoseconds, so no rounding ever accumulates.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or duration of) simulated time, in picoseconds.
///
/// `SimTime` is used both as an absolute timestamp and as a duration; the
/// arithmetic is the same and the paper's model never needs a calendar.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);
    /// One second.
    pub const S: SimTime = SimTime(1_000_000_000_000);

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Construct from a floating-point number of nanoseconds (rounded to the
    /// nearest picosecond). Intended for workload generators that compute
    /// durations from FLOP counts; the simulator core never uses floats.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        debug_assert!(ns >= 0.0, "negative duration");
        SimTime((ns * 1_000.0).round() as u64)
    }

    /// Raw picoseconds.
    #[inline]
    pub const fn ps(self) -> u64 {
        self.0
    }

    /// Time as floating-point nanoseconds (for reporting only).
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Time as floating-point microseconds (for reporting only).
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Time as floating-point milliseconds (for reporting only).
    #[inline]
    pub(crate) fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction (useful for "time remaining" computations).
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.max(rhs.0))
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.min(rhs.0))
    }

    /// Multiply a duration by an integer count.
    #[inline]
    pub const fn times(self, n: u64) -> SimTime {
        SimTime(self.0 * n)
    }

    /// True if this is time zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "SimTime underflow: {self:?} - {rhs:?}");
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        debug_assert!(self.0 >= rhs.0, "SimTime underflow");
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Div<SimTime> for SimTime {
    /// Ratio of two times (e.g. makespan / makespan for speedups).
    type Output = f64;
    #[inline]
    fn div(self, rhs: SimTime) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for SimTime {
    /// Human-friendly rendering with an auto-selected unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0ps")
        } else if ps.is_multiple_of(1_000_000_000_000) {
            write!(f, "{}s", ps / 1_000_000_000_000)
        } else if ps >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if ps >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else if ps >= 1_000 {
            write!(f, "{:.3}ns", self.as_ns_f64())
        } else {
            write!(f, "{}ps", ps)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_units() {
        assert_eq!(SimTime::from_ns(12).ps(), 12_000);
        assert_eq!(SimTime::from_us(3).ps(), 3_000_000);
        assert_eq!(SimTime::from_ns(1).times(12), SimTime::from_ns(12));
        assert_eq!(SimTime::from_ns_f64(11.8).ps(), 11_800);
        assert_eq!(SimTime::from_ns_f64(0.5).ps(), 500);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(4);
        assert_eq!(a + b, SimTime::from_ns(14));
        assert_eq!(a - b, SimTime::from_ns(6));
        assert_eq!(a * 3, SimTime::from_ns(30));
        assert_eq!(a / 2, SimTime::from_ns(5));
        assert!((a / b - 2.5).abs() < 1e-12);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn sum_and_compare() {
        let total: SimTime = [
            SimTime::from_ns(1),
            SimTime::from_us(1),
            SimTime::from_ns(1),
        ]
        .into_iter()
        .sum();
        assert_eq!(total.ps(), 1_000 + 1_000_000 + 1_000);
        assert!(SimTime::from_ns(1) < SimTime::from_us(1));
    }

    #[test]
    fn display_units() {
        assert_eq!(SimTime::ZERO.to_string(), "0ps");
        assert_eq!(SimTime::from_ns(2).to_string(), "2.000ns");
        assert_eq!(SimTime::from_us(7).to_string(), "7.000us");
        assert_eq!(SimTime(500).to_string(), "500ps");
        assert_eq!(SimTime::S.to_string(), "1s");
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn sub_underflow_panics_in_debug() {
        let _ = SimTime::from_ns(1) - SimTime::from_ns(2);
    }
}
