//! Message latency models.
//!
//! The model is asynchronous: protocol correctness may not depend on delays.
//! Latency models exist to (a) diversify schedules across seeds when hunting
//! for interleaving bugs and (b) give wall-clock-shaped numbers in simulated
//! benchmarks.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::envelope::Envelope;

/// Chooses a delivery delay (in ticks) for each sent message.
pub trait LatencyModel<M>: Send {
    /// Delay for `env`, possibly drawn from `rng`.
    fn delay(&mut self, env: &Envelope<M>, rng: &mut SmallRng) -> u64;
}

/// Every message takes exactly `ticks`.
///
/// The synchronous baseline: useful for making round counts visible as time
/// (one round-trip = `2 * ticks`).
#[derive(Clone, Copy, Debug)]
pub struct Fixed {
    /// The constant per-message delay.
    pub ticks: u64,
}

impl Fixed {
    /// A fixed model with the conventional unit delay.
    pub const UNIT: Fixed = Fixed { ticks: 1 };
}

impl<M> LatencyModel<M> for Fixed {
    fn delay(&mut self, _env: &Envelope<M>, _rng: &mut SmallRng) -> u64 {
        self.ticks
    }
}

/// Delay drawn uniformly from `[min, max]`.
#[derive(Clone, Copy, Debug)]
pub struct Uniform {
    /// Minimum delay in ticks.
    pub min: u64,
    /// Maximum delay in ticks (inclusive).
    pub max: u64,
}

impl Uniform {
    /// Creates a uniform model.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn new(min: u64, max: u64) -> Self {
        assert!(min <= max, "uniform latency requires min <= max");
        Uniform { min, max }
    }
}

impl<M> LatencyModel<M> for Uniform {
    fn delay(&mut self, _env: &Envelope<M>, rng: &mut SmallRng) -> u64 {
        rng.gen_range(self.min..=self.max)
    }
}

/// Mostly-fast delays with a heavy tail: with probability `tail_prob` the
/// delay is drawn from `[base, base * tail_factor]`, otherwise it is `base`.
///
/// Approximates the "some replies are arbitrarily late" behaviour that the
/// asynchronous model allows and that quorum protocols must tolerate: the
/// slowest `t` objects are effectively outside every round's quorum.
#[derive(Clone, Copy, Debug)]
pub struct LongTail {
    /// Common-case delay.
    pub base: u64,
    /// Probability of a slow message, in `[0, 1]`.
    pub tail_prob: f64,
    /// Multiplier bounding the tail.
    pub tail_factor: u64,
}

impl LongTail {
    /// A long-tail model with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `tail_prob` is outside `[0, 1]`, `base == 0`, or
    /// `tail_factor == 0`.
    pub fn new(base: u64, tail_prob: f64, tail_factor: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&tail_prob),
            "tail_prob must be in [0,1]"
        );
        assert!(base > 0, "base delay must be positive");
        assert!(tail_factor > 0, "tail_factor must be positive");
        LongTail {
            base,
            tail_prob,
            tail_factor,
        }
    }
}

impl<M> LatencyModel<M> for LongTail {
    fn delay(&mut self, _env: &Envelope<M>, rng: &mut SmallRng) -> u64 {
        if rng.gen_bool(self.tail_prob) {
            rng.gen_range(self.base..=self.base.saturating_mul(self.tail_factor))
        } else {
            self.base
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;

    use super::*;
    use crate::envelope::MsgId;
    use crate::process::ProcessId;
    use crate::time::SimTime;

    fn env(to: usize) -> Envelope<u8> {
        Envelope {
            id: MsgId(0),
            from: ProcessId(0),
            to: ProcessId(to),
            msg: 0,
            sent_at: SimTime::ZERO,
        }
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn fixed_is_constant() {
        let mut m = Fixed { ticks: 5 };
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(LatencyModel::<u8>::delay(&mut m, &env(1), &mut r), 5);
        }
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut m = Uniform::new(2, 9);
        let mut r = rng();
        for _ in 0..100 {
            let d = LatencyModel::<u8>::delay(&mut m, &env(1), &mut r);
            assert!((2..=9).contains(&d), "delay {d} out of range");
        }
    }

    #[test]
    #[should_panic(expected = "min <= max")]
    fn uniform_rejects_inverted_range() {
        let _ = Uniform::new(9, 2);
    }

    #[test]
    fn long_tail_mostly_base() {
        let mut m = LongTail::new(3, 0.1, 10);
        let mut r = rng();
        let mut base_count = 0;
        for _ in 0..1000 {
            let d = LatencyModel::<u8>::delay(&mut m, &env(1), &mut r);
            assert!((3..=30).contains(&d));
            if d == 3 {
                base_count += 1;
            }
        }
        assert!(
            base_count > 800,
            "expected mostly base delays, got {base_count}"
        );
    }
}
