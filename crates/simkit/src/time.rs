//! Simulated time: instants and durations at microsecond resolution.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, measured in microseconds since the start of
/// the simulation.
///
/// `SimTime` is a monotone clock value: it can be compared, advanced by a
/// [`SimDuration`], and differenced into a [`SimDuration`], but two instants
/// cannot be added together.
///
/// # Example
///
/// ```
/// use simkit::{SimTime, SimDuration};
///
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + SimDuration::from_millis(50);
/// assert_eq!(t1 - t0, SimDuration::from_millis(50));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, measured in microseconds.
///
/// # Example
///
/// ```
/// use simkit::SimDuration;
///
/// let d = SimDuration::from_millis(16_000);
/// assert_eq!(d.as_secs_f64(), 16.0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// A time later than any reachable simulation instant; useful as an
    /// "infinity" sentinel for deadlines.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `micros` microseconds after the simulation start.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Returns the number of whole microseconds since simulation start.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the time since simulation start as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration elapsed since `earlier`, or [`SimDuration::ZERO`]
    /// if `earlier` is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of `self` and `other`.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of `self` and `other`.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration of `micros` microseconds.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration of `millis` milliseconds.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration of `secs` seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        SimDuration((secs * 1e6).round() as u64)
    }

    /// Returns the number of whole microseconds in this duration.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the number of whole milliseconds in this duration.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns this duration as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns `true` if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns the difference `self - other`, or zero when `other > self`.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by a non-negative float, rounding to the
    /// nearest microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "duration factor must be finite and non-negative, got {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// Returns the larger of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    /// Advances the instant by a duration.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the sum overflows `u64` microseconds;
    /// release builds saturate to [`SimTime::MAX`] (the "infinity"
    /// sentinel), which orders after every reachable instant.
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        debug_assert!(
            self.0.checked_add(rhs.0).is_some(),
            "simulated time overflowed u64 microseconds"
        );
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Returns the duration between two instants.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(
            self.0 >= rhs.0,
            "attempted to subtract a later SimTime ({rhs:?}) from an earlier one ({self:?})"
        );
        SimDuration(self.0.wrapping_sub(rhs.0))
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    /// Rewinds the instant by a duration.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the result would precede the simulation
    /// start; release builds saturate to [`SimTime::ZERO`].
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        debug_assert!(
            self.0.checked_sub(rhs.0).is_some(),
            "simulated time went negative"
        );
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    /// Adds two durations.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the sum overflows `u64` microseconds;
    /// release builds saturate to [`SimDuration::MAX`].
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(
            self.0.checked_add(rhs.0).is_some(),
            "simulated duration overflowed u64 microseconds"
        );
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// Subtracts two durations.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the result would be negative; release
    /// builds saturate to [`SimDuration::ZERO`]. Use
    /// [`SimDuration::saturating_sub`] when clamping is the intent.
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(
            self.0.checked_sub(rhs.0).is_some(),
            "simulated duration went negative"
        );
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    /// Scales the duration by an integer factor.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the product overflows `u64` microseconds;
    /// release builds saturate to [`SimDuration::MAX`].
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        debug_assert!(
            self.0.checked_mul(rhs).is_some(),
            "simulated duration overflowed u64 microseconds"
        );
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({})", format_micros(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_micros(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({})", format_micros(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_micros(self.0))
    }
}

/// Formats a microsecond count using the most natural unit.
fn format_micros(micros: u64) -> String {
    if micros == u64::MAX {
        "inf".to_owned()
    } else if micros >= 1_000_000 {
        format!("{:.3}s", micros as f64 / 1e6)
    } else if micros >= 1_000 {
        format!("{:.3}ms", micros as f64 / 1e3)
    } else {
        format!("{micros}us")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_micros(1_500);
        let d = SimDuration::from_millis(2);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimDuration::from_millis(7).as_micros(), 7_000);
        assert_eq!(SimDuration::from_micros(1_234).as_millis(), 1);
        assert!((SimDuration::from_secs_f64(0.25).as_secs_f64() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn saturating_ops() {
        let early = SimTime::from_micros(10);
        let late = SimTime::from_micros(30);
        assert_eq!(late.saturating_since(early).as_micros(), 20);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_micros(5).saturating_sub(SimDuration::from_micros(9)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_micros(10);
        assert_eq!(d.mul_f64(1.26).as_micros(), 13);
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_factor_panics() {
        let _ = SimDuration::from_micros(1).mul_f64(-1.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "went negative")]
    fn underflow_panics() {
        let _ = SimTime::from_micros(1) - SimDuration::from_micros(2);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn underflow_saturates_in_release() {
        assert_eq!(
            SimTime::from_micros(1) - SimDuration::from_micros(2),
            SimTime::ZERO
        );
        assert_eq!(
            SimDuration::from_micros(1) - SimDuration::from_micros(2),
            SimDuration::ZERO
        );
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(SimDuration::from_micros(17).to_string(), "17us");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_secs(16).to_string(), "16.000s");
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_micros(4);
        let b = SimTime::from_micros(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let da = SimDuration::from_micros(4);
        let db = SimDuration::from_micros(9);
        assert_eq!(da.max(db), db);
        assert_eq!(da.min(db), da);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total.as_micros(), 10);
    }
}
