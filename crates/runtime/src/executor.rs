//! The worker-pool executor behind [`crate::Cluster`].
//!
//! **The unit of execution** is a [`Unit`]: the automata of one register
//! group — `span` consecutive process ids, as [`crate::RegisterHost::spawn`]
//! declares them — with their mail, their local run queue and their buffers.
//! (A raw [`crate::Cluster`] declares no span and has one unit per worker,
//! holding every process of `pid % workers`.) A unit is not tied to a
//! thread. It has a *run lock*, and whoever holds it carries the unit's
//! steps: in the asynchronous model the automata are written against, a
//! process is a sequence of atomic steps and who executes a step is the
//! scheduler's business.
//!
//! **Two runners.** Each unit has a home worker ([`Placement`]: groups are
//! dealt round-robin over the pool), a thread of a fixed pool — default
//! [`std::thread::available_parallelism`] — that runs the units scheduled on
//! it and parks when there are none. It is the fallback runner and the only
//! thread that ever waits. The other runner is the thread that calls
//! [`crate::Cluster::submit`]: it puts the operation in the unit's mail and,
//! if the run lock is free (`try_lock`, never a wait), runs the unit itself,
//! so every round of a READ and its completion happen before `submit`
//! returns — no thread hand-off in, none out. If the lock is taken, or work
//! is left after [`PASSES`] passes, the unit is scheduled on its worker.
//! Crashes, external sends and cross-unit messages always go to the worker.
//!
//! **A pass** ([`Pool::pass`], the one function both runners call) is
//! *drain → run → flush*. The drain swaps the unit's mail out under the run
//! lock — mail is never taken otherwise — and counts as a *sweep* if it
//! found any. The run applies the mail in arrival order, then the local run
//! queue as it stood, each command to its [`vrr_sim::Process`] under
//! `catch_unwind`. The flush delivers every send at once: it appends it to
//! the local run queue when the destination is in this unit — no lock, no
//! condvar — and otherwise hands it to the destination's worker, one lock
//! acquisition and one notification per worker. Every delivery between a given pair of
//! processes takes exactly one of the two paths, which keeps links FIFO.
//!
//! **No lost work:** a push into a unit's mail is always followed, by the
//! pusher, by running the unit or by scheduling it. A pusher that finds the
//! run lock taken cannot know whether the holder will drain again, so it
//! schedules; the worker then blocks on the run lock for at most the
//! holder's bounded passes.
//!
//! **Fairness:** the mail is drained on every pass, a pass runs only the
//! local deliveries queued before it began, and a runner gives a unit up
//! after [`PASSES`] passes, so an endless in-unit ping-pong cannot starve a
//! crash, a submitted operation, another unit or shutdown — nor keep a
//! submitter. A worker parks only when no unit of its is scheduled, with
//! no deadline: an idle pool makes zero wakeups.
//!
//! External stimuli ([`crate::Cluster::send_external`], submits, crashes)
//! always enter through the mail, so they are ordered among themselves per
//! process but **not** against the in-unit deliveries a runner has queued
//! locally.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;

use vrr_core::sharded::Sharded;
use vrr_sim::{Automaton, ClientOp, Process, ProcessId};

/// Commands queued in a unit's mail.
pub(crate) enum NodeCmd<M> {
    /// Install the process (taken out by the runner, so `register` never
    /// waits for a run lock) and run its `Init` step. Always the first
    /// command a process gets.
    Start(Option<Process<M>>),
    /// A message crossing a link.
    Deliver {
        /// Sender.
        from: ProcessId,
        /// Payload.
        msg: M,
    },
    /// Run a client operation to completion: start it now if the process
    /// is idle, else after the operations submitted before it.
    Op(ClientOp<M>),
    /// Stop processing: deliveries are skipped, operations answer `Gone`.
    Crash,
}

/// How many passes a runner gives a unit before handing what is left to the
/// unit's worker. A two-round operation completes in five (start, two
/// object steps, two client steps), so a submitter finishes what it started
/// with room to spare, and nothing — an endless ping-pong, a burst of other
/// threads' operations — holds it for longer.
const PASSES: usize = 16;

thread_local! {
    /// Whether this thread is running a unit: always on a worker, inside
    /// `submit` on a helping thread. A `submit` made from there (a `done`
    /// that starts the next operation) goes to the mail and the worker, so
    /// help neither nests nor re-enters the run lock its thread holds.
    static RUNNING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Where processes live: `span` consecutive pids (one register group) share
/// a worker, groups go round-robin over the pool, a worker indexes its
/// processes densely in registration order and cuts that order into units
/// of `unit_len`. A declared span makes every group a unit; none (span 1,
/// `pid % workers`) leaves the worker's processes in one unit without end.
#[derive(Clone, Copy)]
struct Placement {
    workers: usize,
    span: usize,
    unit_len: usize,
}

/// A process's place in the pool: its worker, its unit among that worker's
/// units, its position in the unit.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Addr {
    worker: usize,
    unit: usize,
    at: usize,
}

impl Placement {
    fn locate(self, pid: ProcessId) -> Addr {
        let (group, position) = (pid.index() / self.span, pid.index() % self.span);
        let local = group / self.workers * self.span + position;
        Addr {
            worker: group % self.workers,
            unit: local / self.unit_len,
            at: local % self.unit_len,
        }
    }
}

/// A command that reaches a unit through its worker's schedule — a message
/// that left its sender's unit, a crash — for `to`'s mail.
struct Routed<M> {
    to: Addr,
    cmd: NodeCmd<M>,
}

/// An in-unit delivery: `(position of the destination, sender, payload)`.
type LocalDelivery<M> = (usize, ProcessId, M);

/// The unit of execution (see the module docs): what any thread may run,
/// one thread at a time.
struct Unit<M> {
    place: Placement,
    /// Where the unit is: its home worker, its index among that worker's
    /// units (and position 0).
    home: Addr,
    /// `(position, command)` in arrival order. Pushed by any thread, taken
    /// only by the holder of `run`.
    mail: Mutex<VecDeque<(usize, NodeCmd<M>)>>,
    /// The run lock, and what it guards.
    run: Mutex<Run<M>>,
}

/// The run-locked half of a unit.
struct Run<M> {
    /// Position → process; only the runner ever touches them.
    procs: Vec<Option<Process<M>>>,
    /// The local run queue: what the last flush queued for the next pass.
    local: Vec<LocalDelivery<M>>,
    // Reusable buffers, empty between passes.
    batch: VecDeque<(usize, NodeCmd<M>)>,
    running: Vec<LocalDelivery<M>>,
    step_outbox: Vec<(ProcessId, M)>,
    outbox: Vec<(ProcessId, ProcessId, M)>,
    away: Vec<Routed<M>>,
}

fn relock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

impl<M> Unit<M> {
    fn new(place: Placement, home: Addr) -> Self {
        Unit {
            place,
            home,
            mail: Mutex::new(VecDeque::new()),
            run: Mutex::new(Run {
                procs: Vec::new(),
                local: Vec::new(),
                batch: VecDeque::new(),
                running: Vec::new(),
                step_outbox: Vec::new(),
                outbox: Vec::new(),
                away: Vec::new(),
            }),
        }
    }
}

/// The lock-guarded half of a worker: which of its units have work.
struct Schedule<M> {
    /// The worker's units, by index.
    units: Vec<Arc<Unit<M>>>,
    /// Units with mail or local work left, in first-arrival order.
    ready: Vec<usize>,
    /// Whether a unit is already listed in `ready`.
    queued: Vec<bool>,
    shutdown: bool,
}

struct Worker<M> {
    q: Mutex<Schedule<M>>,
    cv: Condvar,
    /// Returns from `wait`, productive or not.
    wakeups: AtomicU64,
}

impl<M> Schedule<M> {
    /// Lists `unit` as ready. The caller must notify the worker's condvar
    /// after releasing the lock.
    fn mark(&mut self, unit: usize) {
        if !self.queued[unit] {
            self.queued[unit] = true;
            self.ready.push(unit);
        }
    }

    /// Mails a command to one of the worker's units and lists the unit as
    /// ready (same notification duty as [`Schedule::mark`]). What is
    /// addressed to a unit never created — a process id nobody registered —
    /// is dropped.
    fn accept(&mut self, Routed { to, cmd }: Routed<M>) {
        if let Some(unit) = self.units.get(to.unit) {
            relock(&unit.mail).push_back((to.at, cmd));
            self.mark(to.unit);
        }
    }
}

/// Counters describing executor activity, summed over every thread that
/// ran a register group — the workers and the submitters that ran an idle
/// group themselves.
///
/// Obtained from [`crate::Cluster::stats`]; the interesting property is the
/// *deltas*: an idle cluster must not accumulate `wakeups`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Drains of a group's mail that found at least one command, whichever
    /// thread made them.
    pub sweeps: u64,
    /// Times any worker woke from its condvar.
    pub wakeups: u64,
    /// Total commands processed (deliveries, operations — inspections
    /// included — and crashes), whichever thread ran them.
    pub commands: u64,
}

/// What the runners share: the workers' schedules and the activity
/// counters (one shard per thread).
struct Pool<M> {
    workers: Vec<Worker<M>>,
    counts: Sharded<Counts>,
}

/// One thread's share of [`ExecutorStats`]' `sweeps` and `commands`.
#[derive(Default)]
struct Counts {
    sweeps: AtomicU64,
    commands: AtomicU64,
}

pub(crate) struct Executor<M: Send + 'static> {
    pool: Arc<Pool<M>>,
    /// `units[worker][unit]`: what each worker's schedule lists too, here
    /// for `submit` to reach a unit without touching its worker.
    units: Vec<Vec<Arc<Unit<M>>>>,
    threads: Vec<JoinHandle<()>>,
    /// Process ids are dense in registration order; `place` maps them to
    /// units.
    place: Placement,
    next_pid: usize,
}

impl<M: Send + 'static> Executor<M> {
    pub(crate) fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let pool = Arc::new(Pool {
            workers: (0..workers)
                .map(|_| Worker {
                    q: Mutex::new(Schedule {
                        units: Vec::new(),
                        ready: Vec::new(),
                        queued: Vec::new(),
                        shutdown: false,
                    }),
                    cv: Condvar::new(),
                    wakeups: AtomicU64::new(0),
                })
                .collect(),
            counts: Sharded::new(Counts::default),
        });
        let threads = (0..workers)
            .map(|w| {
                let pool = pool.clone();
                std::thread::Builder::new()
                    .name(format!("vrr-worker-{w}"))
                    .spawn(move || worker_main(w, &pool))
                    .expect("spawn worker thread")
            })
            .collect();
        Executor {
            pool,
            units: vec![Vec::new(); workers],
            threads,
            place: Placement {
                workers,
                span: 1,
                unit_len: usize::MAX,
            },
            next_pid: 0,
        }
    }

    pub(crate) fn worker_count(&self) -> usize {
        self.units.len()
    }

    pub(crate) fn len(&self) -> usize {
        self.next_pid
    }

    /// Declares that every run of `span` consecutive pids is one group: one
    /// unit, placed on one worker. Only an empty executor can be re-placed.
    pub(crate) fn set_group_span(&mut self, span: usize) {
        assert!(
            self.next_pid == 0 && span > 0,
            "placement is fixed once a process exists"
        );
        (self.place.span, self.place.unit_len) = (span, span);
    }

    /// Registers a process: allocates the next dense id, creates its unit
    /// if it opens one and mails the `Start` command.
    pub(crate) fn register(&mut self, automaton: Box<dyn Automaton<M>>) -> ProcessId {
        let pid = ProcessId(self.next_pid);
        self.next_pid += 1;
        let to = self.place.locate(pid);
        let worker = &self.pool.workers[to.worker];
        {
            let mut q = relock(&worker.q);
            if to.unit == q.units.len() {
                let unit = Arc::new(Unit::new(self.place, Addr { at: 0, ..to }));
                self.units[to.worker].push(unit.clone());
                q.units.push(unit);
                q.queued.push(false);
            }
            debug_assert!(to.unit < q.units.len(), "dense registration order");
            let cmd = NodeCmd::Start(Some(Process::new(pid, automaton)));
            q.accept(Routed { to, cmd });
        }
        worker.cv.notify_one();
        pid
    }

    /// Mails a crash to `pid`, for its worker.
    pub(crate) fn crash(&self, pid: ProcessId) {
        let (to, cmd) = (self.place.locate(pid), NodeCmd::Crash);
        self.pool.hand(Routed { to, cmd });
    }

    /// Mails `op` to its process and, if the process's unit is idle, runs
    /// the unit on this thread; a busy unit (or a caller that is itself
    /// running one) is left to the worker.
    pub(crate) fn submit(&self, op: ClientOp<M>) {
        let to = self.place.locate(op.pid());
        let unit = &self.units[to.worker][to.unit];
        relock(&unit.mail).push_back((to.at, NodeCmd::Op(op)));
        let idle = match (!RUNNING.get()).then(|| unit.run.try_lock()) {
            Some(Ok(run)) => Some(run),
            Some(Err(TryLockError::Poisoned(e))) => Some(e.into_inner()),
            Some(Err(TryLockError::WouldBlock)) | None => None,
        };
        match idle {
            Some(mut run) => {
                RUNNING.set(true);
                self.pool.run_unit(unit, &mut run);
                RUNNING.set(false);
            }
            None => self.pool.schedule(unit),
        }
    }

    /// Mails one message to `to` through its worker (external stimulus; the
    /// runners batch their own sends in [`Pool::flush`]). It enters through
    /// `to`'s mail whatever `from` is, so it is not ordered against what
    /// `to`'s runner has queued locally.
    pub(crate) fn route(&self, from: ProcessId, to: ProcessId, msg: M) {
        let (to, cmd) = (self.place.locate(to), NodeCmd::Deliver { from, msg });
        self.pool.hand(Routed { to, cmd });
    }

    pub(crate) fn stats(&self) -> ExecutorStats {
        let mut s = ExecutorStats::default();
        for worker in &self.pool.workers {
            s.wakeups += worker.wakeups.load(Ordering::Relaxed);
        }
        for counts in self.pool.counts.all() {
            s.sweeps += counts.sweeps.load(Ordering::Relaxed);
            s.commands += counts.commands.load(Ordering::Relaxed);
        }
        s
    }

    pub(crate) fn shutdown_and_join(&mut self) {
        for worker in &self.pool.workers {
            relock(&worker.q).shutdown = true;
            worker.cv.notify_all();
        }
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

/// One worker: runs the units scheduled on it, parking when there are none.
fn worker_main<M: Send + 'static>(me: usize, pool: &Pool<M>) {
    RUNNING.set(true);
    let worker = &pool.workers[me];
    let mut ready: Vec<Arc<Unit<M>>> = Vec::new();
    loop {
        {
            let mut guard = relock(&worker.q);
            loop {
                let q = &mut *guard;
                if q.shutdown {
                    return;
                }
                if !q.ready.is_empty() {
                    for unit in q.ready.drain(..) {
                        q.queued[unit] = false;
                        ready.push(q.units[unit].clone());
                    }
                    break;
                }
                // Idle: park until notified, with no deadline — no polling.
                guard = worker.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
                worker.wakeups.fetch_add(1, Ordering::Relaxed);
            }
        }
        // The one place a thread waits for a run lock: a helping submitter
        // holds it for a bounded number of passes.
        for unit in ready.drain(..) {
            pool.run_unit(&unit, &mut relock(&unit.run));
        }
    }
}

impl<M: Send + 'static> Pool<M> {
    /// Lists `unit` as ready on its worker and wakes it.
    fn schedule(&self, unit: &Unit<M>) {
        let worker = &self.workers[unit.home.worker];
        relock(&worker.q).mark(unit.home.unit);
        worker.cv.notify_one();
    }

    /// Hands one command to its unit's worker and wakes it.
    fn hand(&self, routed: Routed<M>) {
        let worker = &self.workers[routed.to.worker];
        relock(&worker.q).accept(routed);
        worker.cv.notify_one();
    }

    /// Runs `unit` until it has nothing left to do, for at most [`PASSES`]
    /// passes; what is left then is its worker's.
    fn run_unit(&self, unit: &Unit<M>, run: &mut Run<M>) {
        for _ in 0..PASSES {
            if !self.pass(unit, run) {
                return;
            }
        }
        self.schedule(unit);
    }

    /// One *drain → run → flush* pass over `unit`, by the holder of its run
    /// lock. Returns whether the pass left local deliveries for the next.
    fn pass(&self, unit: &Unit<M>, run: &mut Run<M>) -> bool {
        // --- Drain: the mail changes hands wholesale. --------------------
        std::mem::swap(&mut *relock(&unit.mail), &mut run.batch);
        let counts = self.counts.mine();
        if !run.batch.is_empty() {
            counts.sweeps.fetch_add(1, Ordering::Relaxed);
        }

        // --- Run: the mail first (a `Start` precedes the local deliveries
        // its process was sent), then the local run queue as it stood —
        // what this pass's flush adds waits for the next drain. No lock but
        // the run lock held.
        std::mem::swap(&mut run.local, &mut run.running);
        let Run {
            procs,
            batch,
            running,
            step_outbox,
            outbox,
            ..
        } = run;
        let local_cmds = running
            .drain(..)
            .map(|(at, from, msg)| (at, NodeCmd::Deliver { from, msg }));
        let mut commands = 0u64;
        for (at, mut cmd) in batch.drain(..).chain(local_cmds) {
            commands += 1;
            if let NodeCmd::Start(process) = &mut cmd {
                if procs.len() <= at {
                    procs.resize_with(at + 1, || None);
                }
                procs[at] = process.take();
            }
            // What is addressed to a position where nothing was registered
            // is dropped (an operation completes `Gone`).
            let Some(process) = procs.get_mut(at).and_then(Option::as_mut) else {
                continue;
            };
            let pid = process.pid();
            // A panic in automaton or operation code must not take the
            // runner down: on a worker every other unit would silently
            // freeze, on a submitter it would unwind into the caller.
            // Contain it to the offending process: poison it like a crash
            // (deliveries skipped, operations answer `Gone`).
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match cmd {
                NodeCmd::Start(_) => process.start(step_outbox),
                NodeCmd::Deliver { from, msg } => _ = process.deliver(from, msg, step_outbox),
                NodeCmd::Op(op) => process.submit(op, step_outbox),
                NodeCmd::Crash => process.crash(),
            }));
            if caught.is_err() {
                eprintln!("vrr-runtime: process {pid} panicked; poisoning it");
                step_outbox.clear();
                process.crash();
                continue;
            }
            outbox.extend(step_outbox.drain(..).map(|(to, msg)| (pid, to, msg)));
        }
        counts.commands.fetch_add(commands, Ordering::Relaxed);

        // --- Flush: the accumulated outbox, batched per destination. -----
        if !run.outbox.is_empty() {
            self.flush(unit, run);
        }
        !run.local.is_empty()
    }

    /// Delivers a pass's sends: one to a process of `unit` goes straight
    /// onto its local run queue, the rest cost one lock acquisition + one
    /// notification per worker that gets them.
    fn flush(&self, unit: &Unit<M>, run: &mut Run<M>) {
        for (from, to, msg) in run.outbox.drain(..) {
            let to = unit.place.locate(to);
            if (Addr { at: 0, ..to }) == unit.home {
                run.local.push((to.at, from, msg));
            } else {
                let cmd = NodeCmd::Deliver { from, msg };
                run.away.push(Routed { to, cmd });
            }
        }
        // Stable, so a link's messages stay in order. Every destination
        // worker is notified, the unit's own included: the runner may be a
        // helping thread, and then that worker may be parked.
        run.away.sort_by_key(|routed| routed.to.worker);
        let mut away = run.away.drain(..).peekable();
        while let Some(first) = away.next() {
            let to = first.to.worker;
            let worker = &self.workers[to];
            {
                let mut q = relock(&worker.q);
                q.accept(first);
                while let Some(next) = away.next_if(|routed| routed.to.worker == to) {
                    q.accept(next);
                }
            }
            worker.cv.notify_one();
        }
    }
}
