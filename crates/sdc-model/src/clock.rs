//! Virtual time.
//!
//! The whole study runs on simulated time: testcase durations, occurrence
//! frequencies (errors per *virtual* minute), regular-test cadences (every
//! three months) and backoff durations are all expressed against this
//! clock, so experiments are deterministic and fast regardless of the
//! wall-clock cost of the simulation.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A span of virtual time with microsecond resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration {
    micros: u64,
}

impl Duration {
    /// The zero duration.
    pub const ZERO: Duration = Duration { micros: 0 };

    /// Builds a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Duration { micros }
    }

    /// Builds a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration { micros: ms * 1_000 }
    }

    /// Builds a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Duration {
            micros: secs * 1_000_000,
        }
    }

    /// Builds a duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        Duration {
            micros: mins * 60_000_000,
        }
    }

    /// Builds a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        Duration {
            micros: hours * 3_600_000_000,
        }
    }

    /// Builds a duration from whole days.
    pub const fn from_days(days: u64) -> Self {
        Duration {
            micros: days * 86_400_000_000,
        }
    }

    /// Builds a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration: {secs}");
        Duration {
            micros: (secs * 1e6).round() as u64,
        }
    }

    /// Microseconds in this duration.
    pub const fn as_micros(self) -> u64 {
        self.micros
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.micros as f64 / 1e6
    }

    /// Fractional minutes (the unit of occurrence frequency).
    pub fn as_mins_f64(self) -> f64 {
        self.micros as f64 / 60e6
    }

    /// Fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.micros as f64 / 3_600e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration {
            micros: self.micros.saturating_sub(rhs.micros),
        }
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration {
            micros: self.micros + rhs.micros,
        }
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.micros += rhs.micros;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration {
            micros: self.micros - rhs.micros,
        }
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration {
            micros: self.micros * rhs,
        }
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration {
            micros: self.micros / rhs,
        }
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s < 1.0 {
            write!(f, "{:.3}ms", s * 1e3)
        } else if s < 120.0 {
            write!(f, "{s:.3}s")
        } else if s < 7200.0 {
            write!(f, "{:.2}min", s / 60.0)
        } else {
            write!(f, "{:.2}h", s / 3600.0)
        }
    }
}

/// A monotonically advancing virtual clock.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    now: Duration,
}

impl VirtualClock {
    /// A clock starting at time zero.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// The current virtual time (as a duration since the epoch).
    pub fn now(&self) -> Duration {
        self.now
    }

    /// Advances the clock by `dt`.
    pub fn advance(&mut self, dt: Duration) {
        self.now += dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Duration::from_secs(60), Duration::from_mins(1));
        assert_eq!(Duration::from_mins(60), Duration::from_hours(1));
        assert_eq!(Duration::from_hours(24), Duration::from_days(1));
        assert_eq!(Duration::from_millis(1000), Duration::from_secs(1));
    }

    #[test]
    fn fractional_views() {
        let d = Duration::from_secs(90);
        assert!((d.as_mins_f64() - 1.5).abs() < 1e-12);
        assert!((d.as_secs_f64() - 90.0).abs() < 1e-12);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(Duration::from_secs_f64(0.5).as_micros(), 500_000);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn from_secs_f64_rejects_negative() {
        let _ = Duration::from_secs_f64(-1.0);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now(), Duration::ZERO);
        c.advance(Duration::from_secs(5));
        c.advance(Duration::from_secs(7));
        assert_eq!(c.now(), Duration::from_secs(12));
    }

    #[test]
    fn arithmetic() {
        let a = Duration::from_secs(10);
        let b = Duration::from_secs(3);
        assert_eq!(a - b, Duration::from_secs(7));
        assert_eq!(b * 4, Duration::from_secs(12));
        assert_eq!(a / 2, Duration::from_secs(5));
        assert_eq!(b.saturating_sub(a), Duration::ZERO);
    }

    #[test]
    fn display_scales() {
        assert_eq!(Duration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(Duration::from_secs(5).to_string(), "5.000s");
        assert_eq!(Duration::from_mins(10).to_string(), "10.00min");
        assert_eq!(Duration::from_hours(3).to_string(), "3.00h");
    }
}
