//! The live driver: keyed drills against a running key-value store —
//! whatever hosts it — recorded through a [`vrr_checker::Recorder`].
//!
//! A [`Drill`] reaches the store through two closures, `write(key, value)`
//! and `read(key)`, so the same drill runs over an in-proc `StoreRouter`, a
//! router of `vrr-server` processes or a test's `HashMap`. Keys are
//! `0..keys`, one recorder register each, and write round `r` of `key`
//! writes [`value_of`]`(key, r)`: the read side recovers the write's
//! sequence number from the value alone, so a drill needs nothing of the
//! store but values (a `HashMap` has no protocol timestamps). A value no
//! round wrote ([`FORGED`]) decodes to a sequence number no write has,
//! which the checker reports as a phantom. The closures panic on an operation that
//! fails; the drills let that panic through.

use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use vrr_checker::Recorder;

/// The value write round `round` stores under `key` (`round < 1000`).
pub fn value_of(key: u64, round: u64) -> u64 {
    key * 1000 + round
}

/// What the drills' Byzantine objects forge: never written by any round, so
/// a read returning it fails the checker.
pub const FORGED: u64 = 0xBAD_F00D;

/// A store under drill. Drills record into [`Drill::rec`]; check it, or
/// take its histories, when they are done.
pub struct Drill<'a> {
    /// One register per key.
    pub rec: Recorder<u64>,
    keys: u64,
    /// Writes completed so far.
    written: AtomicU64,
    write: Box<dyn Fn(u64, u64) + Sync + 'a>,
    read: Box<dyn Fn(u64) -> Option<u64> + Sync + 'a>,
}

impl<'a> Drill<'a> {
    /// A drill over keys `0..keys` of the store behind `write` and `read`
    /// (`None`: the key has no value).
    pub fn new(
        keys: u64,
        write: impl Fn(u64, u64) + Sync + 'a,
        read: impl Fn(u64) -> Option<u64> + Sync + 'a,
    ) -> Self {
        Drill {
            rec: Recorder::new(keys as usize),
            keys,
            written: AtomicU64::new(0),
            write: Box::new(write),
            read: Box::new(read),
        }
    }

    fn write(&self, key: u64, round: u64) {
        let value = value_of(key, round);
        self.rec
            .write(key as usize, round, value, || (self.write)(key, value));
        self.written.fetch_add(1, Ordering::Release);
    }

    fn read(&self, key: u64, reader: usize) {
        self.rec.read(key as usize, reader, || {
            let value = (self.read)(key);
            (value.map_or(0, |v| v % 1000), value)
        });
    }

    /// Round 1: writes every key once, in key order.
    pub fn bind(&self) {
        (0..self.keys).for_each(|key| self.write(key, 1));
    }

    /// Two writers on disjoint key halves (each key keeps a single writer)
    /// and two readers sweeping the key space `passes` times, while
    /// `meanwhile` runs on the calling thread — the faults injected
    /// mid-storm.
    pub fn storm(&self, rounds: RangeInclusive<u64>, passes: u64, meanwhile: impl FnOnce()) {
        std::thread::scope(|scope| {
            for w in 0..2 {
                let rounds = rounds.clone();
                scope.spawn(move || {
                    for round in rounds {
                        (0..self.keys)
                            .filter(|key| key % 2 == w)
                            .for_each(|key| self.write(key, round));
                    }
                });
            }
            for reader in 0..2 {
                scope.spawn(move || {
                    for _ in 0..passes {
                        (0..self.keys).for_each(|key| self.read(key, reader));
                    }
                });
            }
            meanwhile();
        });
    }

    /// Waits until `n` of the drill's writes have completed — so a storm's
    /// `meanwhile` lands mid-storm — or 60 s have passed (a writer that
    /// panicked completes no more).
    pub fn await_writes(&self, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while self.written.load(Ordering::Acquire) < n && Instant::now() < deadline {
            std::thread::yield_now();
        }
    }

    /// Sequential rounds: write every key, call `between(round)`, read
    /// every key. Deterministic — the same store behaviour yields the same
    /// histories, tick for tick.
    pub fn schedule(&self, rounds: RangeInclusive<u64>, mut between: impl FnMut(u64)) {
        for round in rounds {
            (0..self.keys).for_each(|key| self.write(key, round));
            between(round);
            (0..self.keys).for_each(|key| self.read(key, 0));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
    use std::sync::Mutex;

    use vrr_checker::{check_regularity, ViolationKind};

    use super::*;

    /// A `HashMap` that swallows the writes to key 3 from round `lose_from`
    /// on. While `gated`, reads of key 3 wait until its writer has begun
    /// round 3 — so that, in a storm, each reader's second pass reads it
    /// strictly after the completed (and lost) round 2.
    struct Store {
        map: Mutex<HashMap<u64, u64>>,
        lose_from: u64,
        gated: AtomicBool,
    }

    fn losing_from(lose_from: u64, gated: bool) -> Store {
        Store {
            map: Mutex::default(),
            lose_from,
            gated: AtomicBool::new(gated),
        }
    }

    impl Store {
        fn drill(&self) -> Drill<'_> {
            let write = |key, value| {
                if value == value_of(3, 3) {
                    self.gated.store(false, SeqCst);
                }
                if key != 3 || value < value_of(3, self.lose_from) {
                    self.map.lock().unwrap().insert(key, value);
                }
            };
            Drill::new(6, write, |key| {
                while key == 3 && self.gated.load(SeqCst) {
                    std::thread::yield_now();
                }
                self.map.lock().unwrap().get(&key).copied()
            })
        }
    }

    #[test]
    fn every_drill_passes_on_an_honest_store() {
        let store = losing_from(1000, false);
        let drill = store.drill();
        drill.bind();
        // Half-way: the 6 binds and 9 of the storm's 18 writes.
        drill.storm(2..=4, 3, || drill.await_writes(15));
        drill.schedule(5..=6, |_| ());
        assert_eq!(drill.rec.check(check_regularity), Ok(()));
        // Writes: bind + 3 storm + 2 schedule rounds; reads: 2 x 3 storm +
        // 2 schedule sweeps.
        let histories = drill.rec.histories();
        let ops: Vec<usize> = histories.iter().map(|h| h.ops().len()).collect();
        assert_eq!(ops, [14; 6]);
    }

    #[test]
    fn every_drill_names_the_key_whose_write_was_lost() {
        let stale_at_key_3 = |drill: Drill| {
            let (key, violations) = drill.rec.check(check_regularity).expect_err("lost");
            assert_eq!(violations[0].kind, ViolationKind::RegularityStaleValue);
            assert_eq!(key, 3);
        };
        let store = losing_from(2, true);
        let drill = store.drill();
        drill.bind();
        drill.storm(2..=3, 2, || ());
        stale_at_key_3(drill);

        let store = losing_from(2, false);
        let drill = store.drill();
        drill.schedule(1..=2, |_| ());
        stale_at_key_3(drill);
    }
}
