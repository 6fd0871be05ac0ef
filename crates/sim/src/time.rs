//! Logical simulation time.
//!
//! The paper assumes a global clock that is *not* accessible to clients or
//! objects (§2). [`SimTime`] is that clock: the simulator and the experiment
//! drivers may consult it freely (e.g. to reproduce the "`rd1` is invoked only
//! after `wr1` completes (after `t1`)" constraints of Figure 1), but protocol
//! automata never see it — the [`crate::Context`] handed to automata exposes
//! no clock.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in logical simulation time, measured in abstract ticks.
///
/// Ticks have no physical meaning; only their order matters for the
/// asynchronous model. Latency models pick message delays in ticks.
///
/// # Examples
///
/// ```
/// use vrr_sim::SimTime;
///
/// let t = SimTime::ZERO + 10;
/// assert!(t > SimTime::ZERO);
/// assert_eq!(t.ticks(), 10);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The beginning of every run.
    pub const ZERO: SimTime = SimTime(0);

    /// A time later than any time a bounded run can reach; used as an
    /// "infinitely delayed" marker for messages that stay in transit forever.
    pub const NEVER: SimTime = SimTime(u64::MAX);

    /// Creates a time from a raw tick count.
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Returns the raw tick count.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Saturating addition of a tick duration.
    #[must_use]
    pub const fn saturating_add(self, d: u64) -> Self {
        SimTime(self.0.saturating_add(d))
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: u64) -> SimTime {
        SimTime(self.0.saturating_add(rhs))
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, rhs: u64) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;

    fn sub(self, rhs: SimTime) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == SimTime::NEVER {
            write!(f, "t=∞")
        } else {
            write!(f, "t={}", self.0)
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_follows_ticks() {
        assert!(SimTime::from_ticks(3) < SimTime::from_ticks(5));
        assert!(SimTime::NEVER > SimTime::from_ticks(u64::MAX - 1));
    }

    #[test]
    fn add_saturates_at_never() {
        assert_eq!(SimTime::NEVER + 10, SimTime::NEVER);
        assert_eq!(SimTime::from_ticks(1) + 2, SimTime::from_ticks(3));
    }

    #[test]
    fn sub_is_saturating_distance() {
        assert_eq!(SimTime::from_ticks(7) - SimTime::from_ticks(3), 4);
        assert_eq!(SimTime::from_ticks(3) - SimTime::from_ticks(7), 0);
    }

    #[test]
    fn debug_marks_never_as_infinity() {
        assert_eq!(format!("{:?}", SimTime::NEVER), "t=∞");
        assert_eq!(format!("{:?}", SimTime::from_ticks(42)), "t=42");
    }
}
