//! Operation schedules: who invokes what, when.
//!
//! Schedules are *intents*: a client invokes its next operation at the
//! planned time or as soon as its previous operation completes (clients are
//! well-formed, §2.2). Deterministic per seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vrr_sim::SimTime;

/// One planned operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlannedOp {
    /// The writer writes the given value.
    Write {
        /// The value to write (derived from the write's sequence number so
        /// checkers can cross-validate).
        value: u64,
    },
    /// Reader `reader` performs a READ.
    Read {
        /// The reader index.
        reader: usize,
    },
}

/// A client's worth of planned operations with target invocation times.
#[derive(Clone, Debug, Default)]
pub struct ClientPlan {
    /// `(not-before time, op)` pairs in program order.
    pub ops: Vec<(SimTime, PlannedOp)>,
}

/// A full schedule: one plan for the writer and one per reader.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// The writer's plan (only `Write` ops).
    pub writer: ClientPlan,
    /// Reader plans, indexed by reader (only `Read` ops).
    pub readers: Vec<ClientPlan>,
}

impl Schedule {
    /// Total number of planned operations.
    pub fn len(&self) -> usize {
        self.writer.ops.len() + self.readers.iter().map(|r| r.ops.len()).sum::<usize>()
    }

    /// Whether the schedule plans nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The conventional value written by write number `seq` (1-based):
    /// `seq * 10`. Keeping values derivable lets checkers validate
    /// seq/value consistency.
    pub fn value_of_write(seq: u64) -> u64 {
        seq * 10
    }
}

/// Parameters for random schedule generation.
#[derive(Clone, Copy, Debug)]
pub struct ScheduleParams {
    /// Number of writes.
    pub writes: u64,
    /// Number of reads per reader.
    pub reads_per_reader: u64,
    /// Number of readers.
    pub readers: usize,
    /// Mean gap between consecutive target invocation times of one client,
    /// in ticks. Small gaps produce heavy read/write concurrency.
    pub mean_gap: u64,
    /// RNG seed.
    pub seed: u64,
}

impl ScheduleParams {
    /// A light sequential workload: operations rarely overlap.
    pub fn sequential(writes: u64, reads_per_reader: u64, readers: usize, seed: u64) -> Self {
        ScheduleParams {
            writes,
            reads_per_reader,
            readers,
            mean_gap: 200,
            seed,
        }
    }

    /// A contended workload: reads race writes constantly.
    pub fn contended(writes: u64, reads_per_reader: u64, readers: usize, seed: u64) -> Self {
        ScheduleParams {
            writes,
            reads_per_reader,
            readers,
            mean_gap: 5,
            seed,
        }
    }
}

/// Generates a deterministic random schedule.
///
/// # Panics
///
/// Panics if `readers == 0`.
pub fn generate(params: ScheduleParams) -> Schedule {
    assert!(params.readers > 0, "need at least one reader");
    let mut rng = SmallRng::seed_from_u64(params.seed ^ 0xC0FFEE);
    let gap = params.mean_gap.max(1);

    let mut writer = ClientPlan::default();
    let mut at = SimTime::ZERO;
    for seq in 1..=params.writes {
        at += rng.gen_range(1..=2 * gap);
        writer.ops.push((
            at,
            PlannedOp::Write {
                value: Schedule::value_of_write(seq),
            },
        ));
    }

    let readers = (0..params.readers)
        .map(|reader| {
            let mut plan = ClientPlan::default();
            let mut at = SimTime::ZERO;
            for _ in 0..params.reads_per_reader {
                at += rng.gen_range(1..=2 * gap);
                plan.ops.push((at, PlannedOp::Read { reader }));
            }
            plan
        })
        .collect();

    Schedule { writer, readers }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let p = ScheduleParams::contended(5, 5, 2, 99);
        let a = generate(p);
        let b = generate(p);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.len(), 5 + 2 * 5);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(ScheduleParams::contended(5, 5, 2, 1));
        let b = generate(ScheduleParams::contended(5, 5, 2, 2));
        assert_ne!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn client_times_are_monotone() {
        let s = generate(ScheduleParams::sequential(10, 10, 3, 7));
        let monotone = |plan: &ClientPlan| plan.ops.windows(2).all(|w| w[0].0 < w[1].0);
        assert!(monotone(&s.writer));
        assert!(s.readers.iter().all(monotone));
    }

    #[test]
    fn write_values_follow_convention() {
        let s = generate(ScheduleParams::sequential(3, 0, 1, 7));
        let values: Vec<u64> = s
            .writer
            .ops
            .iter()
            .map(|(_, op)| match op {
                PlannedOp::Write { value } => *value,
                PlannedOp::Read { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(values, vec![10, 20, 30]);
    }
}
