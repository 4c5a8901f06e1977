//! Virtual time axis.
//!
//! The simulator measures everything in integer nanoseconds of *virtual*
//! time. Both [`SimTime`] (a point on the axis) and [`SimDuration`] (a
//! span) are thin wrappers over `u64` with saturating arithmetic, so a cost
//! model can never panic on overflow and time never runs backwards.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// `x.round() as u64`, bit for bit, without the out-of-line libm call
/// `f64::round` costs on baseline x86-64. Below 2^52 the truncation and
/// the fraction are exact, and from there up every `f64` is an integer;
/// NaN and negatives give 0 and overflow saturates, as the cast does.
pub(crate) fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    if x - t as f64 >= 0.5 {
        t.saturating_add(1)
    } else {
        t
    }
}

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// Negative or non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_finite() && s > 0.0 {
            SimDuration(round_to_u64(s * 1e9))
        } else {
            SimDuration(0)
        }
    }

    /// The duration in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Whether this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two durations.
    pub fn max(self, rhs: SimDuration) -> SimDuration {
        if self.0 >= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// The smaller of two durations.
    pub fn min(self, rhs: SimDuration) -> SimDuration {
        if self.0 <= rhs.0 {
            self
        } else {
            rhs
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs.max(1))
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// A point on the virtual time axis (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// The end of time; used for fault windows that never close.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time point from nanoseconds since the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`, saturating at zero.
    pub const fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.as_nanos()))
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
        self.since(rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration::from_nanos(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration::from_nanos(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_to_u64_edges_match_libm() {
        for x in [
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            -0.5,
            -1.5,
            4503599627370495.5, // 2^52 - 0.5, the last half
            4503599627370496.0,
            9007199254740993.0,
            18446744073709549568.0, // the last f64 below 2^64
            18446744073709551616.0,
            1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
        ] {
            assert_eq!(round_to_u64(x), x.round() as u64, "{x:e}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Any `f64` at all: subnormals, NaN payloads, both signs.
        #[test]
        fn round_to_u64_matches_libm_on_raw_bits(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            prop_assert_eq!(round_to_u64(x), x.round() as u64, "{:e}", x);
        }

        /// Around every rounding boundary: `k + 0.5`, its two
        /// neighbours, and `k` plus the largest `f64` below one half.
        #[test]
        fn round_to_u64_matches_libm_at_halves(k in 0u64..(1 << 52)) {
            let half = k as f64 + 0.5;
            for x in [
                half,
                f64::from_bits(half.to_bits() - 1),
                f64::from_bits(half.to_bits() + 1),
                k as f64 + 0.49999999999999994,
            ] {
                prop_assert_eq!(round_to_u64(x), x.round() as u64, "{:e}", x);
            }
        }
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimDuration::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimDuration::from_micros(4).as_nanos(), 4_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_nanos(), 500_000_000);
    }

    #[test]
    fn from_secs_f64_clamps_bad_input() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(f64::NEG_INFINITY),
            SimDuration::ZERO
        );
    }

    #[test]
    fn arithmetic_saturates() {
        let max = SimDuration::from_nanos(u64::MAX);
        assert_eq!(max + SimDuration::from_secs(1), max);
        assert_eq!(
            SimDuration::ZERO - SimDuration::from_secs(1),
            SimDuration::ZERO
        );
        assert_eq!(max * 2, max);
    }

    #[test]
    fn time_advances_and_measures() {
        let mut t = SimTime::ZERO;
        t += SimDuration::from_millis(10);
        let t2 = t + SimDuration::from_millis(5);
        assert_eq!(t2.since(t), SimDuration::from_millis(5));
        assert_eq!(t.since(t2), SimDuration::ZERO);
        assert_eq!(t2 - t, SimDuration::from_millis(5));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn division_never_panics() {
        assert_eq!(SimDuration::from_secs(10) / 0, SimDuration::from_secs(10));
        assert_eq!(SimDuration::from_secs(10) / 2, SimDuration::from_secs(5));
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }
}
