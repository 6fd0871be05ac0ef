//! A worker-pool host for `vrr` automata.
//!
//! The same deterministic automata that run under the simulator run here
//! with real message passing, every message delivered at once — the
//! substrate for wall-clock benchmarks and the networked examples. A
//! register group is a unit any thread may run, one at a time: the thread
//! that submits an operation runs the group's steps itself when the group
//! is idle, and a fixed pool of worker threads runs everything else (and is
//! the only thing that ever parks); see [`crate::executor`] internals for
//! placement, the run lock and the drain / run / flush mechanics.

use std::cell::Cell;
use std::fmt;
use std::sync::Arc;
use std::thread::Thread;
use std::time::Duration;

use parking_lot::Mutex;

use vrr_sim::{Automaton, ClientOp, Context, InvokeError, ProcessId};

use crate::clock::WallClock;
use crate::executor::{Executor, ExecutorStats};

/// How long an operation may take before the cluster is declared wedged.
/// Generous: operations take microseconds to milliseconds. The
/// blocking waits panic past it; a completion-driven caller (`vrr-net`'s
/// node) answers a typed error past it instead.
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// A running cluster of automata on a sharded worker pool.
///
/// Spawn processes with [`Cluster::spawn`], then reach them with
/// [`Cluster::submit`] — the one command that runs code against an
/// automaton; [`Cluster::try_invoke`] is a blocking one-shot submission.
/// Dropping the cluster shuts every worker down.
///
/// # Examples
///
/// ```
/// use vrr_runtime::Cluster;
/// use vrr_sim::{from_fn, Context, ProcessId};
///
/// let mut cluster: Cluster<u64> = Cluster::new();
/// let echo = cluster.spawn(from_fn(|from, n: u64, ctx: &mut Context<'_, u64>| {
///     ctx.send(from, n + 1);
/// }));
/// # let _ = echo;
/// ```
pub struct Cluster<M: Send + 'static> {
    executor: Executor<M>,
    clock: WallClock,
}

impl<M: Send + 'static> Cluster<M> {
    /// Creates a cluster with one worker per available CPU.
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_workers(workers)
    }

    /// Creates a cluster with an explicit worker-pool size (clamped to at
    /// least one).
    pub fn with_workers(workers: usize) -> Self {
        Cluster {
            executor: Executor::new(workers),
            clock: WallClock::default(),
        }
    }

    /// The clock every deadline and meter of the cluster, its register
    /// host and a `vrr-net` node over it reads.
    pub fn clock(&self) -> &WallClock {
        &self.clock
    }

    /// Spawns a process running `automaton`; returns its id. Ids are dense
    /// in spawn order; process `p`'s home is worker `p % workers` — or, on
    /// a cluster handed to [`crate::RegisterHost::spawn`], the worker of its
    /// register group (`(p / group span) % workers`): a group is run by one
    /// thread at a time, so its rounds never change threads. Processes find
    /// each other through the executor, so one spawned after others have
    /// started is reached like any other.
    pub fn spawn(&mut self, automaton: Box<dyn Automaton<M>>) -> ProcessId {
        self.executor.register(automaton)
    }

    /// Makes every run of `span` consecutive process ids — one register
    /// group — one unit of execution, homed on one worker. The cluster must
    /// be empty.
    pub(crate) fn set_group_span(&mut self, span: usize) {
        self.executor.set_group_span(span);
    }

    /// Number of spawned processes.
    pub fn len(&self) -> usize {
        self.executor.len()
    }

    /// Whether no process was spawned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the worker pool.
    pub fn workers(&self) -> usize {
        self.executor.worker_count()
    }

    /// Activity counters — sweeps and processed commands summed over every
    /// thread that ran a group, the workers' wakeups. An idle cluster must
    /// not accumulate wakeups.
    pub fn stats(&self) -> ExecutorStats {
        self.executor.stats()
    }

    /// Runs `f` on the automaton of `pid` and blocks for its result: a
    /// one-shot [`Cluster::submit`] whose first poll answers, so it waits
    /// behind `pid`'s operation in progress (an object runs none) and runs
    /// on the calling thread when `pid`'s group is idle. Never call it from
    /// a `done`. A mismatched `A` is [`InvokeError::WrongType`]; a crashed
    /// `pid`, or one poisoned by a panic in `f`, is [`InvokeError::Gone`].
    ///
    /// # Panics
    ///
    /// Panics if `pid` was never spawned or no outcome arrives within
    /// [`OP_TIMEOUT`].
    pub fn try_invoke<A: Automaton<M>, R: Send + 'static>(
        &self,
        pid: ProcessId,
        f: impl FnOnce(&mut A, &mut Context<'_, M>) -> R + Send + 'static,
    ) -> Result<R, InvokeError> {
        let (done, slot) = op_slot();
        self.submit(ClientOp::new(
            pid,
            move |a: &mut A, ctx| Cell::new(Some(f(a, ctx))),
            |_: &mut A, result| result.take(),
            done,
        ));
        slot.wait(&self.clock)
    }

    /// Submits `op` to its process and returns without waiting — the one
    /// command that runs code against an automaton, under the contract of
    /// [`vrr_sim::ClientOp`] (the simulator's `World::submit` takes the
    /// same value). Whoever runs the process's group runs `start` (its
    /// sends are delivered at once), `poll` and `done`.
    ///
    /// **Where `done` runs.** If the group is idle, the calling thread
    /// runs it — for a bounded number of passes, never waiting — so every
    /// round of a READ or WRITE and its `done` happen **on the calling
    /// thread, before `submit` returns**. Otherwise (the group is being run
    /// by someone else, a member lives on another node, or the caller is
    /// itself a `done`) a worker thread runs the rest and `done`. Either
    /// way `done` must neither block nor panic, and the caller must hold
    /// no lock across `submit` that `done` takes.
    ///
    /// A panic in `start` or `poll` poisons the process like a crash, and
    /// dropping the cluster completes what is left `Gone`.
    ///
    /// # Panics
    ///
    /// Panics if the process was never spawned; `done` is not called then.
    pub fn submit(&self, op: ClientOp<M>) {
        let pid = op.pid();
        if pid.index() >= self.len() {
            std::mem::forget(op); // dropped, it would complete `Gone`
            panic!("submit on unspawned {pid}");
        }
        self.executor.submit(op);
    }

    /// Crashes `pid` ([`vrr_sim::Process::crash`]).
    ///
    /// # Panics
    ///
    /// Panics if `pid` was never spawned.
    pub fn crash(&self, pid: ProcessId) {
        assert!(pid.index() < self.len(), "crash on unspawned {pid}");
        self.executor.crash(pid);
    }

    /// Injects a message from `from` to `to`, mailed to `to`'s worker
    /// (external stimulus, like the simulator's `send_external`). Injected
    /// messages to one process arrive in injection order, but are not
    /// ordered against messages the processes themselves have in flight on
    /// the same link.
    pub fn send_external(&self, from: ProcessId, to: ProcessId, msg: M) {
        self.executor.route(from, to, msg);
    }
}

/// Where a blocking caller's submission completes: the outcome, once the
/// completion from [`op_slot`] stores it, and the caller it unparks.
pub(crate) struct OpSlot<R> {
    outcome: Mutex<Option<Result<R, InvokeError>>>,
    caller: Thread,
}

/// A completion callback for [`Cluster::submit`] paired with the slot it
/// fills — the runtime's one blocking wait: every blocking read, write and
/// inspection waits here. The completion usually fires inside `submit`, on
/// the caller's own thread, so the caller finds the slot full and never
/// parks.
pub(crate) fn op_slot<R: Send + 'static>() -> (
    impl FnOnce(Result<R, InvokeError>) + Send + 'static,
    Arc<OpSlot<R>>,
) {
    let slot = Arc::new(OpSlot {
        outcome: Mutex::new(None),
        caller: std::thread::current(),
    });
    let filled = Arc::clone(&slot);
    let done = move |result| {
        *filled.outcome.lock() = Some(result);
        filled.caller.unpark();
    };
    (done, slot)
}

impl<R> OpSlot<R> {
    /// Blocks the caller for the submission's outcome.
    ///
    /// # Panics
    ///
    /// Panics if no outcome arrives within [`OP_TIMEOUT`] on `clock`, whose
    /// advance a parked caller sees when it next wakes — for an operation
    /// with at most `t` faulty objects that is a wait-freedom violation.
    pub(crate) fn wait(&self, clock: &WallClock) -> Result<R, InvokeError> {
        let mut deadline = None;
        loop {
            if let Some(outcome) = self.outcome.lock().take() {
                return outcome;
            }
            // The clock is read only by a caller that has to park.
            let deadline = *deadline.get_or_insert_with(|| clock.now() + OP_TIMEOUT);
            let left = deadline.saturating_duration_since(clock.now());
            assert!(
                !left.is_zero(),
                "operation must complete (wait-freedom): Timeout"
            );
            // Returns on `unpark`, at the deadline or spuriously: the slot
            // is looked at again either way.
            std::thread::park_timeout(left);
        }
    }
}

impl<M: Send + 'static> Default for Cluster<M> {
    /// [`Cluster::new`].
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Send + 'static> Drop for Cluster<M> {
    fn drop(&mut self) {
        self.executor.shutdown_and_join();
    }
}

impl<M: Send + 'static> fmt::Debug for Cluster<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.len())
            .field("workers", &self.workers())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::{sync_channel, Receiver};
    use std::time::Duration;

    use vrr_sim::from_fn;
    use vrr_sim::InvokeError::{Gone, WrongType};

    use super::*;

    /// Counts the values it receives.
    struct Counter {
        total: u64,
        seen: u32,
    }

    impl Automaton<u64> for Counter {
        fn on_message(&mut self, _from: ProcessId, msg: u64, _ctx: &mut Context<'_, u64>) {
            self.total += msg;
            self.seen += 1;
        }
    }

    /// The counter's total once it has seen `seen` values, awaited the way
    /// every operation is: a submitted op whose start does nothing and
    /// whose poll is the predicate.
    fn total_after(cluster: &Cluster<u64>, counter: ProcessId, seen: u32) -> Receiver<u64> {
        let (tx, rx) = sync_channel(1);
        cluster.submit(ClientOp::new(
            counter,
            |_c: &mut Counter, _ctx| (),
            move |c: &mut Counter, _| (c.seen >= seen).then_some(c.total),
            move |total| {
                let _ = tx.send(total.expect("the counter is alive"));
            },
        ));
        rx
    }

    fn seen(cluster: &Cluster<u64>, counter: ProcessId) -> u32 {
        let seen = cluster.try_invoke(counter, |c: &mut Counter, _ctx| c.seen);
        seen.expect("the counter is alive")
    }

    #[test]
    fn deliver_and_await() {
        let mut cluster: Cluster<u64> = Cluster::new();
        let counter = cluster.spawn(Box::new(Counter { total: 0, seen: 0 }));
        let doubler = cluster.spawn(from_fn(move |from, n: u64, ctx: &mut Context<'_, u64>| {
            ctx.send(from, n * 2);
        }));

        let done = total_after(&cluster, counter, 3);
        for i in 1..=3u64 {
            cluster.send_external(counter, doubler, i);
        }
        let total = done
            .recv_timeout(Duration::from_secs(5))
            .expect("the op completes");
        assert_eq!(total, 12, "2 + 4 + 6");
    }

    /// A client automaton driven purely by inspection.
    struct Pinger {
        target: ProcessId,
        sent: u32,
    }

    impl Automaton<u64> for Pinger {
        fn on_message(&mut self, _from: ProcessId, _msg: u64, _ctx: &mut Context<'_, u64>) {}
    }

    /// An inspection is a one-shot submission: on an idle group the
    /// calling thread runs it — its sends and what they complete included.
    #[test]
    fn an_inspection_of_an_idle_group_runs_on_the_calling_thread_and_sends() {
        let mut cluster: Cluster<u64> = Cluster::with_workers(1);
        let counter = cluster.spawn(Box::new(Counter { total: 0, seen: 0 }));
        let pinger = cluster.spawn(Box::new(Pinger {
            target: counter,
            sent: 0,
        }));
        settle::<Pinger>(&cluster, pinger);

        let done = total_after(&cluster, counter, 1);
        let sent = cluster.try_invoke(pinger, |p: &mut Pinger, ctx| {
            ctx.send(p.target, 41);
            p.sent += 1;
            (p.sent, std::thread::current().id())
        });
        assert_eq!(sent, Ok((1, std::thread::current().id())), "ran here");
        assert_eq!(done.try_recv(), Ok(41), "delivered before it returned");
    }

    #[test]
    fn crash_stops_processing() {
        let mut cluster: Cluster<u64> = Cluster::new();
        let counter = cluster.spawn(Box::new(Counter { total: 0, seen: 0 }));
        let forwarder = cluster.spawn(from_fn(move |_from, n: u64, ctx: &mut Context<'_, u64>| {
            ctx.send(counter, n);
        }));
        cluster.crash(forwarder);
        cluster.send_external(counter, forwarder, 5);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            seen(&cluster, counter),
            0,
            "a crashed process forwards nothing"
        );
    }

    /// A blocking wait — an inspection queued behind an operation that
    /// never completes — gives up at `OP_TIMEOUT` of the cluster's clock,
    /// seen at its next wake: no 30 s of real time.
    #[test]
    fn a_blocking_wait_times_out_on_the_clusters_clock() {
        let mut cluster: Cluster<u64> = Cluster::with_workers(1);
        let counter = cluster.spawn(Box::new(Counter { total: 0, seen: 0 }));
        let never = |_: &mut Counter, _: &()| None::<()>;
        cluster.submit(ClientOp::new(counter, |_: &mut Counter, _| (), never, drop));
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| cluster.try_invoke(counter, |c: &mut Counter, _| c.seen));
            // Until one advance lands after the waiter set its deadline.
            let gave_up = (0..500).any(|_| {
                cluster.clock().advance(OP_TIMEOUT);
                waiter.thread().unpark();
                std::thread::sleep(Duration::from_millis(10));
                waiter.is_finished()
            });
            assert!(gave_up, "still waiting after 5 s of real time");
            let panic = waiter.join().expect_err("the wait gives up");
            let timeout = "operation must complete (wait-freedom): Timeout";
            assert_eq!(panic.downcast_ref::<&str>(), Some(&timeout));
        });
    }

    #[test]
    fn panicking_invoke_poisons_only_its_process() {
        // Both processes share the one worker: a panic inside an invoke
        // must not kill the worker thread.
        let mut cluster: Cluster<u64> = Cluster::with_workers(1);
        let victim = cluster.spawn(Box::new(Counter { total: 0, seen: 0 }));
        let healthy = cluster.spawn(Box::new(Counter { total: 0, seen: 0 }));

        let blew_up = cluster.try_invoke(victim, |_c: &mut Counter, _ctx| panic!("invoke blew up"));
        assert_eq!(blew_up, Err::<(), _>(Gone(victim)));

        // The worker survived: its other process still delivers and
        // answers invokes; the poisoned one behaves like a crashed node.
        let done = total_after(&cluster, healthy, 1);
        cluster.send_external(healthy, healthy, 9);
        assert_eq!(done.recv_timeout(Duration::from_secs(5)).unwrap(), 9);
        assert_eq!(
            cluster.try_invoke(healthy, |c: &mut Counter, _ctx| c.seen),
            Ok(1)
        );
        assert_eq!(
            cluster.try_invoke(victim, |c: &mut Counter, _ctx| c.seen),
            Err(Gone(victim)),
            "poisoned process stays gone even for well-typed invokes"
        );
    }

    /// One type rule for every submission, inspection or operation: a
    /// mismatch runs nothing, completes with `WrongType` and poisons
    /// nothing; only a crash makes the process `Gone`.
    #[test]
    fn mistyped_invoke_is_reported_and_leaves_the_process_running() {
        let mut cluster: Cluster<u64> = Cluster::with_workers(1);
        let counter = cluster.spawn(Box::new(Counter { total: 0, seen: 0 }));
        let wrong_type = Err(WrongType {
            pid: counter,
            expected: std::any::type_name::<Pinger>(),
        });

        let ran = cluster.try_invoke(counter, |_p: &mut Pinger, _ctx| ());
        assert_eq!(ran, wrong_type, "the closure must not run on a Counter");
        let (tx, rx) = sync_channel(1);
        cluster.submit(ClientOp::new(
            counter,
            |_p: &mut Pinger, _ctx| unreachable!("started on a Counter"),
            |_p: &mut Pinger, ()| Some(()),
            move |result| {
                let _ = tx.send(result);
            },
        ));
        let completed = rx.recv_timeout(Duration::from_secs(5));
        assert_eq!(completed, Ok(wrong_type), "a mistyped operation");
        // Nothing was poisoned: the process answers to its real type and
        // still takes deliveries.
        assert_eq!(seen(&cluster, counter), 0);
        let done = total_after(&cluster, counter, 1);
        cluster.send_external(counter, counter, 9);
        assert_eq!(done.recv_timeout(Duration::from_secs(5)).unwrap(), 9);

        cluster.crash(counter);
        assert_eq!(
            cluster.try_invoke(counter, |c: &mut Counter, _ctx| c.seen),
            Err(Gone(counter)),
            "a crashed process answers every submission Gone"
        );
    }

    /// A client automaton whose operations take one self-addressed message
    /// to complete, and which — like the paper's reader and writer —
    /// refuses a second invocation while one is in progress.
    #[derive(Default)]
    struct OneAtATime {
        busy: Option<u64>,
        begun: Vec<u64>,
        finished: Vec<u64>,
    }

    impl OneAtATime {
        fn begin(&mut self, tag: u64, ctx: &mut Context<'_, u64>) -> u64 {
            assert!(self.busy.is_none(), "well-formed client: one op at a time");
            self.busy = Some(tag);
            self.begun.push(tag);
            ctx.send(ctx.me(), tag);
            tag
        }

        fn take_finished(&mut self, tag: u64) -> Option<u64> {
            let at = self.finished.iter().position(|&t| t == tag)?;
            Some(self.finished.remove(at))
        }
    }

    impl Automaton<u64> for OneAtATime {
        fn on_message(&mut self, _from: ProcessId, tag: u64, _ctx: &mut Context<'_, u64>) {
            if self.busy == Some(tag) {
                self.busy = None;
                self.finished.push(tag);
            }
        }
    }

    /// Submits one `OneAtATime` operation tagged `tag`.
    fn submit_tagged(
        cluster: &Cluster<u64>,
        pid: ProcessId,
        tag: u64,
        done: impl FnOnce(Result<u64, InvokeError>) + Send + 'static,
    ) {
        cluster.submit(tagged(pid, tag, tag, done));
    }

    /// The `OneAtATime` operation tagged `tag`, complete once the client
    /// finished `until` (`u64::MAX`: never).
    fn tagged(
        pid: ProcessId,
        tag: u64,
        until: u64,
        done: impl FnOnce(Result<u64, InvokeError>) + Send + 'static,
    ) -> ClientOp<u64> {
        ClientOp::new(
            pid,
            move |a: &mut OneAtATime, ctx| a.begin(tag, ctx),
            move |a: &mut OneAtATime, _| a.take_finished(until),
            done,
        )
    }

    /// Returns once `pid`'s unit is idle and its worker parked: an
    /// inspection, made after a pause long enough for the worker to finish
    /// whatever an earlier one scheduled, ran on this thread.
    fn settle<A: Automaton<u64>>(cluster: &Cluster<u64>, pid: ProcessId) {
        let me = std::thread::current().id();
        for _ in 0..500 {
            std::thread::sleep(Duration::from_millis(10));
            let ran_on = cluster.try_invoke(pid, |_a: &mut A, _ctx| std::thread::current().id());
            if ran_on == Ok(me) {
                return;
            }
        }
        panic!("{pid}'s unit never came to rest");
    }

    #[test]
    fn submitted_ops_run_in_submission_order_and_never_overlap() {
        use std::sync::{Arc, Mutex};
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 200;

        let mut cluster: Cluster<u64> = Cluster::with_workers(2);
        let client = cluster.spawn(Box::new(OneAtATime::default()));
        let cluster = Arc::new(cluster);
        let completed = Arc::new(Mutex::new(Vec::new()));
        let (all_done_tx, all_done_rx) = sync_channel(1);

        let start = Arc::new(std::sync::Barrier::new(THREADS as usize));
        let submitters: Vec<_> = (0..THREADS)
            .map(|t| {
                let (cluster, completed) = (cluster.clone(), completed.clone());
                let (start, all_done_tx) = (start.clone(), all_done_tx.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for seq in 0..PER_THREAD {
                        let (completed, all_done_tx) = (completed.clone(), all_done_tx.clone());
                        submit_tagged(&cluster, client, t * PER_THREAD + seq, move |result| {
                            let mut completed = completed.lock().unwrap();
                            completed.push(result.expect("an overlap would poison the client"));
                            if completed.len() as u64 == THREADS * PER_THREAD {
                                let _ = all_done_tx.send(());
                            }
                        });
                    }
                })
            })
            .collect();
        for s in submitters {
            s.join().unwrap();
        }
        all_done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("every submitted op completes");

        let completed = completed.lock().unwrap().clone();
        let begun = cluster.try_invoke(client, |a: &mut OneAtATime, _ctx| a.begun.clone());
        let begun = begun.expect("the client is alive");
        assert_eq!(completed, begun, "ops complete in the order they started");
        for t in 0..THREADS {
            let of_thread: Vec<u64> = begun
                .iter()
                .copied()
                .filter(|tag| tag / PER_THREAD == t)
                .collect();
            let submitted: Vec<u64> = (t * PER_THREAD..(t + 1) * PER_THREAD).collect();
            assert_eq!(
                of_thread, submitted,
                "thread {t}'s ops started out of order"
            );
        }
    }

    /// Counts how often a completion fires and with what.
    fn counting_done(
        fired: &std::sync::Arc<std::sync::Mutex<Vec<Result<u64, InvokeError>>>>,
    ) -> impl FnOnce(Result<u64, InvokeError>) + Send + 'static {
        let fired = fired.clone();
        // Runs on the worker, also from a drop: never panic in here.
        move |result| fired.lock().unwrap_or_else(|e| e.into_inner()).push(result)
    }

    #[test]
    fn done_fires_exactly_once_on_completion_crash_and_teardown() {
        use std::sync::{Arc, Mutex};
        let fired = Arc::new(Mutex::new(Vec::new()));
        let mut cluster: Cluster<u64> = Cluster::with_workers(1);
        let client = cluster.spawn(Box::new(OneAtATime::default()));
        let stuck = cluster.spawn(Box::new(OneAtATime::default()));

        // Completion.
        let (completed_tx, completed_rx) = sync_channel(1);
        let count = counting_done(&fired);
        submit_tagged(&cluster, client, 1, move |result| {
            count(result);
            let _ = completed_tx.send(());
        });
        completed_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("op 1 completes");
        // An op that never completes (its poll looks for a tag that never
        // finishes) goes active on `stuck`; a second one is deferred
        // behind it. An inspection of `client`, in the same unit, is a
        // barrier: the unit's mail is FIFO. (One of `stuck` would wait
        // behind the op that never completes.)
        let started = Arc::new(Mutex::new(Vec::new()));
        for tag in [2, 3] {
            let started = started.clone();
            cluster.submit(ClientOp::new(
                stuck,
                move |a: &mut OneAtATime, ctx| {
                    started.lock().unwrap().push(tag);
                    a.begin(tag, ctx)
                },
                |a: &mut OneAtATime, _| a.take_finished(u64::MAX),
                counting_done(&fired),
            ));
        }
        let _ = cluster.try_invoke(client, |_a: &mut OneAtATime, _ctx| ());
        let started = started.lock().unwrap().clone();
        assert_eq!(started, [2], "the second op is deferred, not started");
        assert_eq!(*fired.lock().unwrap(), vec![Ok(1)]);

        // Crash while active / while deferred: both hear Gone, once.
        cluster.crash(stuck);
        assert_eq!(
            cluster.try_invoke(stuck, |_a: &mut OneAtATime, _ctx| ()),
            Err(Gone(stuck)),
            "barrier: the crash was processed"
        );
        assert_eq!(
            *fired.lock().unwrap(),
            vec![Ok(1), Err(Gone(stuck)), Err(Gone(stuck))]
        );
        // A submit to the crashed process completes immediately.
        submit_tagged(&cluster, stuck, 4, counting_done(&fired));
        let _ = cluster.try_invoke(stuck, |_a: &mut OneAtATime, _ctx| ());
        assert_eq!(fired.lock().unwrap().len(), 4);
        assert_eq!(fired.lock().unwrap()[3], Err(Gone(stuck)));

        // Teardown with an op in flight: the drop completes it.
        cluster.submit(tagged(client, 5, u64::MAX, counting_done(&fired)));
        drop(cluster);
        let fired = fired.lock().unwrap();
        assert_eq!(fired.len(), 5, "each completion fired exactly once");
        assert_eq!(fired[4], Err(Gone(client)));
    }

    /// A push is followed by running it or by scheduling its unit, never
    /// neither. The window is "the holder made its last drain and has not
    /// released yet": two submitters that find each other holding the run
    /// lock, over and over, must lose nothing to it.
    #[test]
    fn two_threads_submitting_to_one_group_lose_no_completion() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let mut cluster: Cluster<u64> = Cluster::with_workers(2);
        let client = cluster.spawn(Box::new(OneAtATime::default()));
        let completed = Arc::new(AtomicU64::new(0));
        let start = std::sync::Barrier::new(2);
        let submitted: u64 = std::thread::scope(|scope| {
            let submitters: Vec<_> = (0..2u64)
                .map(|t| {
                    let (cluster, completed, start) = (&cluster, &completed, &start);
                    scope.spawn(move || {
                        start.wait();
                        let began = std::time::Instant::now();
                        let mut seq = 0u64;
                        while began.elapsed() < Duration::from_secs(2) {
                            let completed = completed.clone();
                            submit_tagged(cluster, client, t << 32 | seq, move |result| {
                                result.expect("an overlap would poison the client");
                                completed.fetch_add(1, Ordering::SeqCst);
                            });
                            seq += 1;
                        }
                        seq
                    })
                })
                .collect();
            submitters.into_iter().map(|s| s.join().unwrap()).sum()
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while completed.load(Ordering::SeqCst) < submitted {
            assert!(
                std::time::Instant::now() < deadline,
                "{} of {submitted} operations completed: a push was neither run nor scheduled",
                completed.load(Ordering::SeqCst)
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(completed.load(Ordering::SeqCst), submitted);
    }

    #[test]
    fn a_done_that_submits_to_its_own_group_neither_deadlocks_nor_overtakes() {
        use std::sync::{Arc, Mutex};
        // One worker, no span: the three processes are one unit.
        let mut cluster: Cluster<u64> = Cluster::with_workers(1);
        let client = cluster.spawn(Box::new(OneAtATime::default()));
        let kicker = cluster.spawn(Box::new(OneAtATime::default()));
        let cluster = Arc::new(cluster);
        settle::<OneAtATime>(&cluster, client);
        let completed = Arc::new(Mutex::new(Vec::new()));
        let record = |completed: &Arc<Mutex<Vec<_>>>| {
            let completed = completed.clone();
            move |result: Result<u64, InvokeError>| {
                let here = std::thread::current().id();
                completed.lock().unwrap().push((result.unwrap(), here));
            }
        };

        // Op 1 goes active and stays: nothing sends its tag yet. Its `done`
        // submits op 3 to the same process.
        let (again, record_1, record_3) = (cluster.clone(), record(&completed), record(&completed));
        cluster.submit(ClientOp::new(
            client,
            |a: &mut OneAtATime, _ctx| {
                a.busy = Some(1);
                a.begun.push(1);
                1
            },
            |a: &mut OneAtATime, &tag| a.take_finished(tag),
            move |result| {
                record_1(result);
                submit_tagged(&again, client, 3, record_3);
            },
        ));
        // Op 2 is deferred behind it.
        submit_tagged(&cluster, client, 2, record(&completed));
        // The kick is itself a submit, so op 1 completes — and its `done`
        // submits — on this thread, under the run lock this thread holds.
        let (tx, rx) = sync_channel(1);
        cluster.submit(ClientOp::new(
            kicker,
            move |_k: &mut OneAtATime, ctx| ctx.send(client, 1),
            |_k: &mut OneAtATime, ()| Some(()),
            move |_| {
                let _ = tx.send(());
            },
        ));
        rx.recv_timeout(Duration::from_secs(5))
            .expect("no deadlock");

        let begun = cluster.try_invoke(client, |a: &mut OneAtATime, _ctx| a.begun.clone());
        assert_eq!(begun, Ok(vec![1, 2, 3]), "op 3 overtook the deferred op 2");
        let completed = completed.lock().unwrap();
        let tags: Vec<u64> = completed.iter().map(|&(tag, _)| tag).collect();
        assert_eq!(tags, [1, 2, 3]);
        assert_eq!(
            completed[0].1,
            std::thread::current().id(),
            "op 1 completed inside the kicking submit"
        );
    }

    #[test]
    fn panic_inside_start_poisons_only_its_process() {
        use std::sync::{Arc, Mutex};
        let fired = Arc::new(Mutex::new(Vec::new()));
        // One worker: the victim and the healthy process share it.
        let mut cluster: Cluster<u64> = Cluster::with_workers(1);
        let victim = cluster.spawn(Box::new(OneAtATime::default()));
        let healthy = cluster.spawn(Box::new(OneAtATime::default()));

        cluster.submit(ClientOp::new(
            victim,
            |_a: &mut OneAtATime, _ctx| -> u64 { panic!("start blew up") },
            |a: &mut OneAtATime, &tag| a.take_finished(tag),
            counting_done(&fired),
        ));
        // Deferred behind nothing — it arrives after the poisoning.
        submit_tagged(&cluster, victim, 7, counting_done(&fired));
        let (done, waiter) = sync_channel(1);
        submit_tagged(&cluster, healthy, 8, move |result| {
            let _ = done.send(result);
        });
        assert_eq!(
            waiter.recv_timeout(Duration::from_secs(5)).unwrap(),
            Ok(8),
            "the worker survived and its other process keeps running"
        );
        assert_eq!(
            *fired.lock().unwrap(),
            vec![Err(Gone(victim)), Err(Gone(victim))]
        );
    }

    /// One step of a script both hosts run.
    enum Cmd {
        Submit(ClientOp<u64>),
        Crash(ProcessId),
        Send(ProcessId, ProcessId, u64),
        /// Until the host has taken every step it has work for.
        Settle,
    }

    /// The simulator and the cluster step processes through the one
    /// `vrr_sim::Process`, so one script gives both the same outcomes.
    #[test]
    fn the_simulator_and_the_cluster_run_one_script_alike() {
        use std::sync::{Arc, Mutex};
        use vrr_sim::World;
        let (counter, client) = (ProcessId(0), ProcessId(1));
        let automata = || -> [Box<dyn Automaton<u64>>; 2] {
            let counter = Counter { total: 0, seen: 0 };
            [Box::new(counter), Box::new(OneAtATime::default())]
        };
        let script = |log| {
            let op = |pid, tag, until| Cmd::Submit(tagged(pid, tag, until, counting_done(log)));
            vec![
                op(counter, 0, 0), // a `Counter` is no `OneAtATime`
                Cmd::Settle,
                op(client, 1, 1),
                op(client, 2, u64::MAX),
                op(client, 3, 3),
                Cmd::Settle,
                Cmd::Crash(client), // the second in flight, the third queued
                Cmd::Settle,
                Cmd::Send(counter, client, 4),
                op(client, 5, 5),
                Cmd::Settle,
            ]
        };
        let (sim, threads) = (Arc::new(Mutex::new(Vec::new())), Arc::default());
        let mut world = World::new(1);
        assert_eq!(automata().map(|a| world.spawn(a)), [counter, client]);
        world.start();
        for cmd in script(&sim) {
            match cmd {
                Cmd::Submit(op) => world.submit(op),
                Cmd::Crash(pid) => world.crash(pid),
                Cmd::Send(from, to, n) => world.send_external(from, to, n),
                Cmd::Settle => _ = world.run_until_idle(100).expect_drained(),
            }
        }
        let mut cluster = Cluster::with_workers(1);
        assert_eq!(automata().map(|a| cluster.spawn(a)), [counter, client]);
        for cmd in script(&threads) {
            match cmd {
                Cmd::Submit(op) => cluster.submit(op),
                Cmd::Crash(pid) => cluster.crash(pid),
                Cmd::Send(from, to, n) => cluster.send_external(from, to, n),
                Cmd::Settle => settle::<Counter>(&cluster, counter),
            }
        }
        let expected = std::any::type_name::<OneAtATime>();
        let mistyped = Err(WrongType {
            pid: counter,
            expected,
        });
        let gone = Err(Gone(client));
        assert_eq!(*sim.lock().unwrap(), [mistyped, Ok(1), gone, gone, gone]);
        assert_eq!(*threads.lock().unwrap(), *sim.lock().unwrap());
    }

    #[test]
    #[should_panic(expected = "submit on unspawned")]
    fn submit_on_unspawned_pid_panics() {
        let mut cluster: Cluster<u64> = Cluster::new();
        let _ = cluster.spawn(Box::new(Counter { total: 0, seen: 0 }));
        let _ = total_after(&cluster, ProcessId(99), 0);
    }

    #[test]
    fn single_worker_pool_hosts_many_processes() {
        let mut cluster: Cluster<u64> = Cluster::with_workers(1);
        let counter = cluster.spawn(Box::new(Counter { total: 0, seen: 0 }));
        let echoes: Vec<ProcessId> = (0..32)
            .map(|_| {
                cluster.spawn(from_fn(move |from, n: u64, ctx: &mut Context<'_, u64>| {
                    ctx.send(from, n);
                }))
            })
            .collect();
        let done = total_after(&cluster, counter, 32);
        for (i, e) in echoes.iter().enumerate() {
            cluster.send_external(counter, *e, i as u64);
        }
        let total = done
            .recv_timeout(Duration::from_secs(5))
            .expect("the op completes");
        assert_eq!(total, (0..32).sum::<u64>());
    }

    #[test]
    fn an_endless_co_located_ping_pong_starves_nothing() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        for workers in [1, 2] {
            let bounces = Arc::new(AtomicU64::new(0));
            let mut cluster: Cluster<u64> = Cluster::with_workers(workers);
            // Raw placement is `pid % workers`: pids 0, `workers` and
            // `2 * workers` all live on worker 0.
            let pids: Vec<ProcessId> = (0..2 * workers)
                .map(|_| {
                    let bounces = bounces.clone();
                    cluster.spawn(from_fn(move |from, n: u64, ctx: &mut Context<'_, u64>| {
                        bounces.fetch_add(1, Ordering::Relaxed);
                        ctx.send(from, n);
                    }))
                })
                .collect();
            let third = cluster.spawn(Box::new(Counter { total: 0, seen: 0 }));
            let (a, b) = (pids[0], pids[workers]);
            cluster.send_external(a, b, 0);

            let (finished, watchdog) = sync_channel(1);
            let drill = std::thread::spawn(move || {
                let started = std::time::Instant::now();
                while bounces.load(Ordering::Relaxed) < 1_000 {
                    assert!(started.elapsed() < Duration::from_secs(5), "no ping-pong");
                    std::thread::yield_now();
                }
                // An inspection gets in ...
                assert_eq!(seen(&cluster, third), 0);
                // ... a crash takes effect (two barriers: one bounce may
                // still be on its way to the survivor) ...
                cluster.crash(a);
                let settle = || (0..2).for_each(|_| assert_eq!(seen(&cluster, third), 0));
                settle();
                let stopped_at = bounces.load(Ordering::Relaxed);
                settle();
                assert_eq!(bounces.load(Ordering::Relaxed), stopped_at);
                // ... and shutdown is observed with the queue still busy.
                cluster.send_external(b, b, 0);
                drop(cluster);
                let _ = finished.send(());
            });
            watchdog
                .recv_timeout(Duration::from_secs(5))
                .expect("the local run queue starved the mailbox or shutdown");
            drill.join().unwrap();
        }
    }

    /// Help is bounded: the ping-pong shares a unit with the process the
    /// submits land on, so a submitter that gets the run lock inherits an
    /// endless local queue — and must hand it back.
    #[test]
    fn a_submit_landing_on_an_endless_ping_pong_returns_and_the_worker_takes_the_rest() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let bounces = Arc::new(AtomicU64::new(0));
        let mut cluster: Cluster<u64> = Cluster::with_workers(1);
        let [a, b] = [(); 2].map(|()| {
            let bounces = bounces.clone();
            cluster.spawn(from_fn(move |from, n: u64, ctx: &mut Context<'_, u64>| {
                bounces.fetch_add(1, Ordering::Relaxed);
                ctx.send(from, n);
            }))
        });
        let client = cluster.spawn(Box::new(OneAtATime::default()));
        cluster.send_external(a, b, 0);

        let (finished, watchdog) = sync_channel(1);
        let drill = std::thread::spawn(move || {
            for tag in 0..200 {
                let before = bounces.load(Ordering::Relaxed);
                let (tx, rx) = sync_channel(1);
                submit_tagged(&cluster, client, tag, move |result| {
                    let _ = tx.send(result);
                });
                // Whoever ran it — this thread for its bounded passes, or
                // the worker between two of its own — the op completes and
                // the ping-pong goes on.
                assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(Ok(tag)));
                while bounces.load(Ordering::Relaxed) == before {
                    std::thread::yield_now();
                }
            }
            drop(cluster);
            let _ = finished.send(());
        });
        watchdog
            .recv_timeout(Duration::from_secs(10))
            .expect("a submit was kept by the ping-pong, or starved it");
        drill.join().unwrap();
    }

    /// Remembers what it received, in order.
    struct Log(Vec<u64>);

    impl Automaton<u64> for Log {
        fn on_message(&mut self, _from: ProcessId, msg: u64, _ctx: &mut Context<'_, u64>) {
            self.0.push(msg);
        }
    }

    #[test]
    fn links_are_fifo_on_the_local_queue_and_across_workers() {
        let mut cluster: Cluster<u64> = Cluster::with_workers(2);
        // `pid % 2`: the sender shares worker 0 with `near`; `far` is on
        // worker 1. A burst of ten per step, the next step by self-send.
        let (far, near) = (ProcessId(1), ProcessId(2));
        let sender = cluster.spawn(from_fn(move |_from, n: u64, ctx: &mut Context<'_, u64>| {
            for v in n..n + 10 {
                ctx.send(far, v);
                ctx.send(near, v);
            }
            if n + 10 <= 1_000 {
                ctx.send(ctx.me(), n + 10);
            }
        }));
        for expected in [far, near] {
            assert_eq!(cluster.spawn(Box::new(Log(Vec::new()))), expected);
        }
        cluster.send_external(sender, sender, 1);
        for log in [far, near] {
            let (tx, rx) = sync_channel(1);
            cluster.submit(ClientOp::new(
                log,
                |_l: &mut Log, _ctx| (),
                |l: &mut Log, _| (l.0.len() >= 1_000).then(|| l.0.clone()),
                move |got| {
                    let _ = tx.send(got);
                },
            ));
            let got = rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
            assert!(got.into_iter().eq(1..=1_000), "{log} saw a reordered link");
        }
    }
}
