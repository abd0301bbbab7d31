//! A deterministic simulated clock.
//!
//! All protocol timers in the framework run on [`SimTime`] rather than wall
//! time: simulations must be reproducible, and the paper's traffic analysis
//! ("routing table updates appear once in 2 minutes") is about simulated
//! network time, not host time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, with millisecond resolution.
///
/// # Examples
///
/// ```
/// use taco_routing::SimTime;
///
/// let t = SimTime::from_secs(30);
/// assert_eq!(t + SimTime::from_millis(500), SimTime::from_millis(30_500));
/// assert_eq!(t.as_secs(), 30);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero — the start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time `ms` milliseconds after the start.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Creates a time `s` seconds after the start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1000)
    }

    /// Whole seconds since the start of the simulation.
    pub const fn as_secs(&self) -> u64 {
        self.0 / 1000
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    /// Saturating subtraction: times never go negative.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:03}s", self.0 / 1000, self.0 % 1000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2000));
        assert_eq!(SimTime::from_millis(2500).as_secs(), 2);
        assert_eq!(SimTime::ZERO, SimTime::from_millis(0));
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_millis(250);
        assert_eq!(a + b, SimTime::from_millis(1250));
        assert_eq!(a - b, SimTime::from_millis(750));
        assert_eq!(b - a, SimTime::ZERO); // saturates
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_millis(1250));
    }

    #[test]
    fn display_format() {
        assert_eq!(SimTime::from_millis(30_500).to_string(), "30.500s");
        assert_eq!(SimTime::ZERO.to_string(), "0.000s");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimTime::from_millis(999) < SimTime::from_secs(1));
    }
}
