//! A worker-pool host for `vrr` automata.
//!
//! The same deterministic automata that run under the simulator run here
//! with real (optionally delayed) message passing — the substrate for
//! wall-clock benchmarks and the networked examples. A register group is a
//! unit any thread may run, one at a time: the thread that submits an
//! operation runs the group's steps itself when the group is idle, and a
//! fixed pool of worker threads runs everything else (and is the only thing
//! that ever parks); see [`crate::executor`] internals for placement, the
//! run lock and the drain / run / flush mechanics.

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use vrr_sim::{Automaton, Context, ProcessId};

use crate::executor::{ClientOp, Executor, ExecutorStats};
use crate::link::LinkPolicy;

/// How long an operation may take before the cluster is declared wedged.
/// Generous: operations take milliseconds even under delay policies. The
/// blocking waits panic past it; a completion-driven caller (`vrr-net`'s
/// node) answers a typed error past it instead.
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// Why a [`Cluster::submit`] completion carries no outcome — the one error
/// type of every completion, and of [`Cluster::try_invoke`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InvokeError {
    /// The process can no longer run anything: it was crashed (fault
    /// injection), poisoned by a panic, or the cluster is shutting down.
    Gone(ProcessId),
    /// The process is alive, but its automaton is not the type the
    /// submission takes. Nothing ran and the process carries on — which is
    /// what lets inspection ask every process of a group and skip the
    /// Byzantine substitutes and relay stand-ins among them.
    WrongType {
        /// The process asked.
        pid: ProcessId,
        /// The automaton type the submission takes.
        expected: &'static str,
    },
}

impl fmt::Display for InvokeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvokeError::Gone(pid) => write!(f, "process {pid} is crashed or gone"),
            InvokeError::WrongType { pid, expected } => {
                write!(f, "process {pid} is not a {expected}")
            }
        }
    }
}

impl std::error::Error for InvokeError {}

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
/// use vrr_runtime::{Cluster, NoDelay};
/// use vrr_sim::{from_fn, Context, ProcessId};
///
/// let mut cluster: Cluster<u64> = Cluster::new(Box::new(NoDelay));
/// let echo = cluster.spawn(from_fn(|from, n: u64, ctx: &mut Context<'_, u64>| {
///     ctx.send(from, n + 1);
/// }));
/// # let _ = echo;
/// ```
pub struct Cluster<M: Send + 'static> {
    executor: Executor<M>,
}

impl<M: Send + 'static> Cluster<M> {
    /// Creates a cluster whose links obey `policy`, with one worker per
    /// available CPU.
    pub fn new(policy: Box<dyn LinkPolicy<M>>) -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_workers(policy, workers)
    }

    /// Creates a cluster with an explicit worker-pool size (clamped to at
    /// least one).
    pub fn with_workers(policy: Box<dyn LinkPolicy<M>>, workers: usize) -> Self {
        Cluster {
            executor: Executor::new(policy, workers),
        }
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
        self.submit(
            pid,
            move |a: &mut A, ctx| Cell::new(Some(f(a, ctx))),
            |_: &mut A, result| result.take(),
            done,
        );
        slot.wait()
    }

    /// Submits one client operation on `pid` and returns without waiting —
    /// the completion-driven primitive every blocking read/write is a shim
    /// over, and the one command that runs code against an automaton. One
    /// mailed command carries the whole operation: whoever runs `pid`'s
    /// group runs `start` (the invocation event, e.g. `invoke_read`; its
    /// sends go through the link policy), calls `poll` with what `start`
    /// returned after each later step of the automaton, and hands the first
    /// `Some(r)` to `done` (the response event). An inspection is an
    /// operation whose first poll answers.
    ///
    /// **Where `done` runs.** If `pid`'s group is idle, the calling thread
    /// runs it — for a bounded number of passes, never waiting — so on an
    /// immediate link every round of a READ or WRITE and its `done` happen
    /// **on the calling thread, before `submit` returns**. Otherwise (the
    /// group is being run by someone else, the link policy delays a
    /// message, a member lives on another node, or the caller is itself a
    /// `done`) a worker thread runs the rest and `done`. Either way `done`
    /// must neither block nor panic, and the caller must hold no lock
    /// across `submit` that `done` takes.
    ///
    /// A process runs one operation at a time: an operation submitted
    /// while another is in progress starts when every operation submitted
    /// before it has completed, so the model's well-formedness (§2.2, "a
    /// client invokes one operation at a time") holds whatever the
    /// callers do. `done` fires exactly once. Before `start` runs, the
    /// automaton's type is checked: if it is not an `A`, nothing runs,
    /// `done` receives [`InvokeError::WrongType`] and the process carries
    /// on. `done` receives [`InvokeError::Gone`] if `pid` is crashed, gets
    /// crashed or poisoned (a panic in `start` or `poll`) before the
    /// operation completes, or the cluster is dropped first.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was never spawned.
    pub fn submit<A, I, R>(
        &self,
        pid: ProcessId,
        start: impl FnOnce(&mut A, &mut Context<'_, M>) -> I + Send + 'static,
        poll: impl FnMut(&mut A, &I) -> Option<R> + Send + 'static,
        done: impl FnOnce(Result<R, InvokeError>) + Send + 'static,
    ) where
        A: Automaton<M>,
        I: Send + 'static,
        R: 'static,
    {
        assert!(pid.index() < self.len(), "submit on unspawned {pid}");
        let op = Submitted {
            pid,
            start: Some(start),
            id: None,
            poll,
            done: Some(done),
            _automaton: PhantomData::<fn(&mut A) -> R>,
        };
        self.executor.submit(pid, Box::new(op));
    }

    /// Crashes `pid`: it stops processing deliveries and operations — the
    /// one in progress and those deferred behind it complete with
    /// [`InvokeError::Gone`].
    ///
    /// # Panics
    ///
    /// Panics if `pid` was never spawned.
    pub fn crash(&self, pid: ProcessId) {
        assert!(pid.index() < self.len(), "crash on unspawned {pid}");
        self.executor.crash(pid);
    }

    /// Injects a message from `from` to `to` through the link policy
    /// (external stimulus, like the simulator's `send_external`). Injected
    /// messages to one process arrive in injection order, but are not
    /// ordered against messages the processes themselves have in flight on
    /// the same link.
    pub fn send_external(&self, from: ProcessId, to: ProcessId, msg: M) {
        self.executor.route(from, to, msg);
    }
}

/// The typed state of one [`Cluster::submit`] call behind the mailbox's
/// `dyn ClientOp`.
struct Submitted<A, I, R, S, P, D: FnOnce(Result<R, InvokeError>)> {
    pid: ProcessId,
    start: Option<S>,
    /// What `start` returned (the invocation id `poll` looks up); `None`
    /// after a start that found the wrong automaton and completed.
    id: Option<I>,
    poll: P,
    /// Taken by whichever of `start`, `poll` and `drop` fires it.
    done: Option<D>,
    _automaton: PhantomData<fn(&mut A) -> R>,
}

impl<A, I, R, S, P, D: FnOnce(Result<R, InvokeError>)> Submitted<A, I, R, S, P, D> {
    fn complete(&mut self, result: Result<R, InvokeError>) {
        if let Some(done) = self.done.take() {
            done(result);
        }
    }
}

impl<M, A, I, R, S, P, D> ClientOp<M> for Submitted<A, I, R, S, P, D>
where
    A: 'static,
    I: Send,
    S: FnOnce(&mut A, &mut Context<'_, M>) -> I + Send,
    P: FnMut(&mut A, &I) -> Option<R> + Send,
    D: FnOnce(Result<R, InvokeError>) + Send,
{
    fn start(&mut self, automaton: &mut dyn Any, ctx: &mut Context<'_, M>) {
        let start = self.start.take().expect("an operation starts once");
        match automaton.downcast_mut::<A>() {
            Some(a) => self.id = Some(start(a, ctx)),
            None => self.complete(Err(InvokeError::WrongType {
                pid: self.pid,
                expected: std::any::type_name::<A>(),
            })),
        }
    }

    fn poll(&mut self, automaton: &mut dyn Any) -> bool {
        let Some(id) = self.id.as_ref() else {
            return true; // completed by `start`
        };
        let a = automaton.downcast_mut::<A>().expect("started on an A");
        match (self.poll)(a, id) {
            Some(r) => {
                self.complete(Ok(r));
                true
            }
            None => false,
        }
    }
}

impl<A, I, R, S, P, D: FnOnce(Result<R, InvokeError>)> Drop for Submitted<A, I, R, S, P, D> {
    /// Dropped before completing — the process crashed, was poisoned, or
    /// the cluster is going away: the caller hears `Gone`.
    fn drop(&mut self) {
        self.complete(Err(InvokeError::Gone(self.pid)));
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
    /// Panics if no outcome arrives within [`OP_TIMEOUT`] — for an
    /// operation with at most `t` faulty objects that is a wait-freedom
    /// violation.
    pub(crate) fn wait(&self) -> Result<R, InvokeError> {
        let mut deadline = None;
        loop {
            if let Some(outcome) = self.outcome.lock().take() {
                return outcome;
            }
            // The clock is read only by a caller that has to park.
            let deadline = *deadline.get_or_insert_with(|| Instant::now() + OP_TIMEOUT);
            let left = deadline.saturating_duration_since(Instant::now());
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

    use super::InvokeError::{Gone, WrongType};
    use super::*;
    use crate::link::{FixedDelay, NoDelay};

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
        cluster.submit(
            counter,
            |_c: &mut Counter, _ctx| (),
            move |c: &mut Counter, _| (c.seen >= seen).then_some(c.total),
            move |total| {
                let _ = tx.send(total.expect("the counter is alive"));
            },
        );
        rx
    }

    fn seen(cluster: &Cluster<u64>, counter: ProcessId) -> u32 {
        let seen = cluster.try_invoke(counter, |c: &mut Counter, _ctx| c.seen);
        seen.expect("the counter is alive")
    }

    #[test]
    fn deliver_and_await() {
        let mut cluster: Cluster<u64> = Cluster::new(Box::new(NoDelay));
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
        let mut cluster: Cluster<u64> = Cluster::with_workers(Box::new(NoDelay), 1);
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
        let mut cluster: Cluster<u64> = Cluster::new(Box::new(NoDelay));
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

    #[test]
    fn panicking_invoke_poisons_only_its_process() {
        // Both processes share the one worker: a panic inside an invoke
        // must not kill the worker thread.
        let mut cluster: Cluster<u64> = Cluster::with_workers(Box::new(NoDelay), 1);
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
        let mut cluster: Cluster<u64> = Cluster::with_workers(Box::new(NoDelay), 1);
        let counter = cluster.spawn(Box::new(Counter { total: 0, seen: 0 }));
        let wrong_type = Err(WrongType {
            pid: counter,
            expected: std::any::type_name::<Pinger>(),
        });

        let ran = cluster.try_invoke(counter, |_p: &mut Pinger, _ctx| ());
        assert_eq!(ran, wrong_type, "the closure must not run on a Counter");
        let (tx, rx) = sync_channel(1);
        cluster.submit(
            counter,
            |_p: &mut Pinger, _ctx| unreachable!("started on a Counter"),
            |_p: &mut Pinger, ()| Some(()),
            move |result| {
                let _ = tx.send(result);
            },
        );
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
        cluster.submit(
            pid,
            move |a: &mut OneAtATime, ctx| a.begin(tag, ctx),
            |a: &mut OneAtATime, &tag| a.take_finished(tag),
            done,
        );
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

        let mut cluster: Cluster<u64> = Cluster::with_workers(Box::new(NoDelay), 2);
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
        let mut cluster: Cluster<u64> = Cluster::with_workers(Box::new(NoDelay), 1);
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
            cluster.submit(
                stuck,
                move |a: &mut OneAtATime, ctx| {
                    started.lock().unwrap().push(tag);
                    a.begin(tag, ctx)
                },
                |a: &mut OneAtATime, _| a.take_finished(u64::MAX),
                counting_done(&fired),
            );
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
        cluster.submit(
            client,
            |a: &mut OneAtATime, ctx| a.begin(5, ctx),
            |a: &mut OneAtATime, _| a.take_finished(u64::MAX),
            counting_done(&fired),
        );
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
        let mut cluster: Cluster<u64> = Cluster::with_workers(Box::new(NoDelay), 2);
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
        let mut cluster: Cluster<u64> = Cluster::with_workers(Box::new(NoDelay), 1);
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
        cluster.submit(
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
        );
        // Op 2 is deferred behind it.
        submit_tagged(&cluster, client, 2, record(&completed));
        // The kick is itself a submit, so op 1 completes — and its `done`
        // submits — on this thread, under the run lock this thread holds.
        let (tx, rx) = sync_channel(1);
        cluster.submit(
            kicker,
            move |_k: &mut OneAtATime, ctx| ctx.send(client, 1),
            |_k: &mut OneAtATime, ()| Some(()),
            move |_| {
                let _ = tx.send(());
            },
        );
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
        let mut cluster: Cluster<u64> = Cluster::with_workers(Box::new(NoDelay), 1);
        let victim = cluster.spawn(Box::new(OneAtATime::default()));
        let healthy = cluster.spawn(Box::new(OneAtATime::default()));

        cluster.submit(
            victim,
            |_a: &mut OneAtATime, _ctx| -> u64 { panic!("start blew up") },
            |a: &mut OneAtATime, &tag| a.take_finished(tag),
            counting_done(&fired),
        );
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

    #[test]
    #[should_panic(expected = "submit on unspawned")]
    fn submit_on_unspawned_pid_panics() {
        let mut cluster: Cluster<u64> = Cluster::new(Box::new(NoDelay));
        let _ = cluster.spawn(Box::new(Counter { total: 0, seen: 0 }));
        let _ = total_after(&cluster, ProcessId(99), 0);
    }

    #[test]
    fn single_worker_pool_hosts_many_processes() {
        let mut cluster: Cluster<u64> = Cluster::with_workers(Box::new(NoDelay), 1);
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
            let mut cluster: Cluster<u64> = Cluster::with_workers(Box::new(NoDelay), workers);
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
        let mut cluster: Cluster<u64> = Cluster::with_workers(Box::new(NoDelay), 1);
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
        let mut cluster: Cluster<u64> = Cluster::with_workers(Box::new(NoDelay), 2);
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
            cluster.submit(
                log,
                |_l: &mut Log, _ctx| (),
                |l: &mut Log, _| (l.0.len() >= 1_000).then(|| l.0.clone()),
                move |got| {
                    let _ = tx.send(got);
                },
            );
            let got = rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
            assert!(got.into_iter().eq(1..=1_000), "{log} saw a reordered link");
        }
    }

    #[test]
    fn delayed_links_deliver_after_delay() {
        let mut cluster: Cluster<u64> =
            Cluster::new(Box::new(FixedDelay(Duration::from_millis(30))));
        let counter = cluster.spawn(Box::new(Counter { total: 0, seen: 0 }));
        cluster.send_external(counter, counter, 7);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(seen(&cluster, counter), 0, "not yet due");
        let rx = total_after(&cluster, counter, 1);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(2)).unwrap(),
            7,
            "delivered after the delay"
        );
    }

    /// The worker is not the only thread that parks timers: a delayed send
    /// made by a helping submitter must re-arm the worker's wait, which was
    /// without deadline until then.
    #[test]
    fn a_delay_produced_on_a_helping_thread_rearms_the_workers_timed_wait() {
        let delay = Duration::from_millis(30);
        let mut cluster: Cluster<u64> = Cluster::with_workers(Box::new(FixedDelay(delay)), 1);
        let client = cluster.spawn(Box::new(OneAtATime::default()));
        // The worker is parked, without a deadline: no timer exists yet.
        settle::<OneAtATime>(&cluster, client);

        let (tx, rx) = sync_channel(1);
        let asked = std::time::Instant::now();
        cluster.submit(
            client,
            // Started here, by the submitter: its self-send is the timer.
            |a: &mut OneAtATime, ctx| (a.begin(1, ctx), std::thread::current().id()),
            |a: &mut OneAtATime, &(tag, started_on)| a.take_finished(tag).map(|_| started_on),
            move |started_on| {
                let worker = std::thread::current().name().map(str::to_owned);
                let _ = tx.send((started_on, worker));
            },
        );
        let (started_on, completed_on) = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the worker slept through a timer a submitter set");
        assert!(asked.elapsed() >= delay, "the delay was served");
        assert_eq!(started_on, Ok(std::thread::current().id()));
        assert_eq!(completed_on.as_deref(), Some("vrr-worker-0"));
    }

    #[test]
    fn dropping_policy_loses_messages() {
        use crate::link::{LinkAction, LinkPolicy};
        struct DropAll;
        impl LinkPolicy<u64> for DropAll {
            fn action(&self, _: ProcessId, _: ProcessId, _: &u64) -> LinkAction {
                LinkAction::Drop
            }
        }
        let mut cluster: Cluster<u64> = Cluster::new(Box::new(DropAll));
        let counter = cluster.spawn(Box::new(Counter { total: 0, seen: 0 }));
        cluster.send_external(counter, counter, 1);
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(seen(&cluster, counter), 0);
    }
}
