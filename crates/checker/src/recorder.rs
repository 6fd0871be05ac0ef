//! [`Recorder`]: the §2.2 global clock for a run on threads and sockets.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::history::OpHistory;
use crate::report::{CheckResult, Violation, ViolationKind};

/// Records a live run on `n` independent registers (keys or slots) against
/// one shared logical clock, ticked once when an operation is invoked and
/// once when it responds. Real threads have no global clock to stamp a
/// history with; tick order — a total order consistent with real time — is
/// one: `op1` precedes `op2` in the recorded history exactly when `op1`
/// responded before `op2` was invoked. Shareable across threads; used from
/// one thread, it ticks deterministically (`0, 1, 2, …`).
#[derive(Debug)]
pub struct Recorder<V> {
    clock: AtomicU64,
    registers: Vec<Mutex<OpHistory<V>>>,
}

impl<V: Clone + Eq + fmt::Debug> Recorder<V> {
    /// A recorder for registers `0..n`, clock at 0.
    pub fn new(n: usize) -> Self {
        Recorder {
            clock: AtomicU64::new(0),
            registers: (0..n).map(|_| Mutex::new(OpHistory::new())).collect(),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst)
    }

    fn register(&self, register: usize) -> MutexGuard<'_, OpHistory<V>> {
        self.registers[register]
            .lock()
            .expect("no recording thread panics holding a register")
    }

    /// Runs `op` as write number `seq` (1-based, in the single writer's
    /// program order) of `value` to `register`, and returns what `op` did.
    pub fn write<R>(&self, register: usize, seq: u64, value: V, op: impl FnOnce() -> R) -> R {
        let invoked = self.tick();
        let out = op();
        let completed = Some(self.tick());
        self.register(register)
            .push_write(seq, value, invoked, completed);
        out
    }

    /// Runs `op` as a read of `register` by `reader`; `op` returns the
    /// `(seq, value)` it observed (`(0, None)` is the initial `⊥`). Reads
    /// recorded under one `reader` index must not overlap.
    pub fn read(&self, register: usize, reader: usize, op: impl FnOnce() -> (u64, Option<V>)) {
        let invoked = self.tick();
        let (seq, value) = op();
        let completed = Some(self.tick());
        self.register(register)
            .push_read(reader, seq, value, invoked, completed);
    }

    /// The recorded histories, register by register.
    pub fn histories(&self) -> Vec<OpHistory<V>> {
        (0..self.registers.len())
            .map(|r| self.register(r).clone())
            .collect()
    }

    /// Validates, then runs `checker` on, every register's history.
    ///
    /// # Errors
    ///
    /// The first offending register with its violations; a malformed
    /// history is a [`ViolationKind::MalformedHistory`].
    pub fn check(
        &self,
        checker: fn(&OpHistory<V>) -> CheckResult,
    ) -> Result<(), (usize, Vec<Violation>)> {
        let malformed = |detail| {
            let kind = ViolationKind::MalformedHistory;
            vec![Violation { kind, detail }]
        };
        for (r, history) in self.histories().iter().enumerate() {
            let valid = history.validate().map_err(malformed);
            valid.and_then(|()| checker(history)).map_err(|v| (r, v))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_regularity;

    fn kind_of(rec: &Recorder<u64>) -> Option<ViolationKind> {
        rec.check(check_regularity).err().map(|(_, v)| v[0].kind)
    }

    /// Tick order is the §2.2 order: an operation spans its call, so what
    /// runs inside the call is concurrent with it, what runs after is not.
    /// (Taking either invocation tick after the call fails the two
    /// `concurrent` cases.)
    #[test]
    fn ticks_are_sequential_and_reads_are_judged_by_tick_order() {
        let stale = Recorder::new(2);
        stale.write(1, 1, 10u64, || ());
        stale.write(1, 2, 20, || ());
        stale.read(1, 0, || (1, Some(10)));
        stale.read(0, 0, || (0, None));
        let ticks = |h: &OpHistory<u64>| -> Vec<_> {
            let spans = h.ops().iter().map(|op| (op.invoked_at, op.completed_at));
            spans.collect()
        };
        let histories = stale.histories();
        assert_eq!(ticks(&histories[0]), [(6, Some(7))]);
        assert_eq!(
            ticks(&histories[1]),
            [(0, Some(1)), (2, Some(3)), (4, Some(5))]
        );
        let (register, violations) = stale.check(check_regularity).expect_err("stale");
        assert_eq!(register, 1);
        assert_eq!(violations[0].kind, ViolationKind::RegularityStaleValue);

        let future = Recorder::new(1);
        future.write(0, 1, 10u64, || ());
        future.read(0, 0, || (2, Some(20)));
        future.write(0, 2, 20, || ());
        assert_eq!(kind_of(&future), Some(ViolationKind::RegularityFutureValue));

        let concurrent = Recorder::new(1);
        concurrent.write(0, 1, 10u64, || ());
        concurrent.read(0, 0, || {
            concurrent.write(0, 2, 20, || ());
            (1, Some(10)) // old value, but write 2 ran inside the read
        });
        concurrent.write(0, 3, 30, || {
            concurrent.read(0, 0, || (3, Some(30))); // new value, inside write 3
        });
        assert_eq!(kind_of(&concurrent), None);
    }

    #[test]
    fn four_threads_record_well_formed_histories() {
        let store = [AtomicU64::new(0), AtomicU64::new(0)];
        let (rec, store) = (&Recorder::new(2), &store);
        std::thread::scope(|scope| {
            for w in 0..2 {
                scope.spawn(move || {
                    for seq in 1..=200 {
                        rec.write(w, seq, seq, || store[w].store(seq, Ordering::SeqCst));
                    }
                });
                scope.spawn(move || {
                    for i in 0..400 {
                        rec.read(i % 2, w, || {
                            let seq = store[i % 2].load(Ordering::SeqCst);
                            (seq, (seq > 0).then_some(seq))
                        });
                    }
                });
            }
        });
        assert_eq!(rec.check(check_regularity), Ok(()));
        let ops: usize = rec.histories().iter().map(|h| h.ops().len()).sum();
        assert_eq!(ops, 2 * 200 + 2 * 400);
    }
}
