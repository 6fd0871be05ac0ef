//! The one clock of the thread runtime and the socket stack (see the crate
//! docs). Production code never advances it, and an advance wakes no one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vrr_core::Clock;

/// OS time plus an offset that [`WallClock::advance`] moves, shared by
/// every clone.
#[derive(Clone, Debug, Default)]
pub struct WallClock {
    /// Nanoseconds advanced so far; it publishes no other data.
    offset: Arc<AtomicU64>,
}

impl WallClock {
    /// OS time plus every advance so far.
    pub fn now(&self) -> Instant {
        Instant::now() + Duration::from_nanos(self.offset.load(Ordering::Relaxed))
    }

    /// Moves this clock and every clone of it `by` into the future.
    ///
    /// # Panics
    ///
    /// Panics if `by` is 2^64 ns (584 years) or more.
    pub fn advance(&self, by: Duration) {
        let by = u64::try_from(by.as_nanos()).expect("an advance below 584 years");
        self.offset.fetch_add(by, Ordering::Relaxed);
    }
}

impl Clock for WallClock {
    type Stamp = Instant;

    fn stamp(&self) -> Instant {
        self.now()
    }

    /// Microseconds from `stamp` to now.
    fn ticks_since(&self, stamp: Instant) -> u64 {
        let since = self.now().saturating_duration_since(stamp);
        u64::try_from(since.as_micros()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_advance_moves_now_and_ticks_since_of_every_clone() {
        const MINUTE: Duration = Duration::from_secs(60);
        let (clock, fresh) = (WallClock::default(), WallClock::default());
        let (clone, before) = (clock.clone(), Instant::now());
        let stamp = clone.stamp();
        clock.advance(MINUTE);
        assert!(clone.now() >= before + MINUTE && clone.now() <= Instant::now() + MINUTE);
        clone.advance(MINUTE);
        let ticks = clock.ticks_since(stamp);
        let real = u64::try_from(stamp.elapsed().as_micros()).expect("µs");
        assert!(
            (120_000_000..=120_000_000 + real).contains(&ticks),
            "{ticks}"
        );
        assert!(
            fresh.now() < before + MINUTE,
            "a new clock starts at OS time"
        );
    }
}
