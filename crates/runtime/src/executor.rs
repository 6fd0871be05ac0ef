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
//! Crashes, external sends, cross-unit messages and due timers always go
//! to the worker.
//!
//! **A pass** ([`Pool::pass`], the one function both runners call) is
//! *drain → run → flush*. The drain swaps the unit's mail out under the run
//! lock — mail is never taken otherwise — and counts as a *sweep* if it
//! found any. The run applies the mail in arrival order, then the local run
//! queue as it stood, each command under `catch_unwind`. The flush puts
//! every send through the link policy and, per message ruled `Deliver`:
//! appends it to the local run queue when the destination is in this unit —
//! no lock, no condvar — and otherwise hands it to the destination's worker,
//! one lock acquisition and one notification per worker. Every immediate
//! delivery between a given pair of processes takes exactly one of the two
//! paths, which keeps links FIFO. Delayed messages live in the destination
//! worker's timer heap and are mailed when due.
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
//! submitter. A worker parks only when no unit of its is scheduled —
//! indefinitely, or until the next timer deadline: an idle pool makes zero
//! wakeups.
//!
//! External stimuli ([`crate::Cluster::send_external`], submits, crashes)
//! always enter through the mail, so they are ordered among themselves per
//! process but **not** against the in-unit deliveries a runner has queued
//! locally.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;
use std::time::Instant;

use vrr_sim::{Automaton, Context, ProcessId};

use crate::link::{LinkAction, LinkPolicy};
use crate::sharded::Sharded;

/// One client operation on one automaton, type-erased for the mail
/// (built by [`crate::Cluster::submit`]). The implementor owns the
/// completion callback and fires it exactly once: from `poll` with the
/// outcome or a type mismatch, or from its `Drop` with `Gone` when the
/// process is crashed, poisoned or torn down before the operation completes.
pub(crate) trait ClientOp<M>: Send {
    /// Invokes the operation on the automaton (the paper's invocation
    /// event); its sends go through `ctx`. An automaton of the wrong type
    /// runs nothing: the operation completes there and then.
    fn start(&mut self, automaton: &mut dyn Any, ctx: &mut Context<'_, M>);
    /// Checks for the outcome; on completion fires the callback (the
    /// response event) and returns `true`.
    fn poll(&mut self, automaton: &mut dyn Any) -> bool;
}

/// Commands queued in a unit's mail.
pub(crate) enum NodeCmd<M> {
    /// Install the automaton and run its `Init` step. Always the first
    /// command a process gets (pushed by `register`).
    Start(Box<dyn Automaton<M>>),
    /// A message crossing a link.
    Deliver {
        /// Sender.
        from: ProcessId,
        /// Payload.
        msg: M,
    },
    /// Run a client operation to completion: start it now if the process
    /// is idle, else after the operations submitted before it.
    Op(Box<dyn ClientOp<M>>),
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

    /// Inverse of [`Placement::locate`].
    fn pid(self, addr: Addr) -> ProcessId {
        let local = addr.unit * self.unit_len + addr.at;
        let group = local / self.span * self.workers + addr.worker;
        ProcessId(group * self.span + local % self.span)
    }
}

/// A command that reaches a unit through its worker — a message that left
/// its sender's unit, a crash: for `to`'s mail now, or for the
/// worker's timer heap until `due`.
struct Routed<M> {
    to: Addr,
    due: Option<Instant>,
    cmd: NodeCmd<M>,
}

/// An in-unit delivery the link policy ruled immediate: `(position of the
/// destination, sender, payload)`.
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
    cells: Vec<Option<Cell<M>>>,
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
                cells: Vec::new(),
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

/// The lock-guarded half of a worker: which of its units have work, and the
/// timer heap.
struct Schedule<M> {
    /// The worker's units, by index.
    units: Vec<Arc<Unit<M>>>,
    /// Units with mail or local work left, in first-arrival order.
    ready: Vec<usize>,
    /// Whether a unit is already listed in `ready`.
    queued: Vec<bool>,
    /// Delayed deliveries destined for this worker's units, by due time —
    /// and, so equal deadlines deliver in schedule order, by arrival.
    timers: BTreeMap<(Instant, u64), (Addr, NodeCmd<M>)>,
    timer_seq: u64,
    shutdown: bool,
}

struct Worker<M> {
    q: Mutex<Schedule<M>>,
    cv: Condvar,
    /// Returns from `wait`/`wait_timeout`, productive or not.
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

    /// Takes a command for one of the worker's units: mailed now — the
    /// unit listed as ready — or parked in the timer heap until due (same
    /// notification duty). What is addressed to a unit never created — a
    /// process id nobody registered — is dropped.
    fn accept(&mut self, Routed { to, due, cmd }: Routed<M>) {
        if let Some(due) = due {
            self.timers.insert((due, self.timer_seq), (to, cmd));
            self.timer_seq += 1;
        } else if let Some(unit) = self.units.get(to.unit) {
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
    /// Times any worker woke from its condvar (including timer deadlines).
    pub wakeups: u64,
    /// Total commands processed (deliveries, operations — inspections
    /// included — and crashes), whichever thread ran them.
    pub commands: u64,
}

/// Runner-local state of one registered process.
struct Cell<M> {
    automaton: Box<dyn Automaton<M>>,
    /// The one client operation in progress — §2.2 well-formedness ("a
    /// client invokes one operation at a time") is enforced here, where
    /// the automaton lives, not by locks around every caller.
    active: Option<Box<dyn ClientOp<M>>>,
    /// Operations submitted while `active` was busy, in arrival order.
    deferred: VecDeque<Box<dyn ClientOp<M>>>,
    crashed: bool,
}

impl<M> Cell<M> {
    /// Stops processing: the active and deferred operations are dropped,
    /// which completes each of them with `Gone`.
    fn crash(&mut self) {
        self.crashed = true;
        self.active = None;
        self.deferred.clear();
    }
}

/// What the runners share: the workers' schedules, the link policy (asked
/// without a lock) and the activity counters (one shard per thread).
struct Pool<M> {
    workers: Vec<Worker<M>>,
    policy: Box<dyn LinkPolicy<M>>,
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
    pub(crate) fn new(policy: Box<dyn LinkPolicy<M>>, workers: usize) -> Self {
        let workers = workers.max(1);
        let pool = Arc::new(Pool {
            workers: (0..workers)
                .map(|_| Worker {
                    q: Mutex::new(Schedule {
                        units: Vec::new(),
                        ready: Vec::new(),
                        queued: Vec::new(),
                        timers: BTreeMap::new(),
                        timer_seq: 0,
                        shutdown: false,
                    }),
                    cv: Condvar::new(),
                    wakeups: AtomicU64::new(0),
                })
                .collect(),
            policy,
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
            let (due, cmd) = (None, NodeCmd::Start(automaton));
            q.accept(Routed { to, due, cmd });
        }
        worker.cv.notify_one();
        pid
    }

    /// Mails a crash to `pid`, for its worker.
    pub(crate) fn crash(&self, pid: ProcessId) {
        let (to, due, cmd) = (self.place.locate(pid), None, NodeCmd::Crash);
        self.pool.hand(Routed { to, due, cmd });
    }

    /// Mails `op` to `pid` and, if `pid`'s unit is idle, runs the unit on
    /// this thread; a busy unit (or a caller that is itself running one) is
    /// left to the worker.
    pub(crate) fn submit(&self, pid: ProcessId, op: Box<dyn ClientOp<M>>) {
        let to = self.place.locate(pid);
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

    /// Routes one message through the link policy (external stimulus; the
    /// runners batch their own sends in [`Pool::flush`]). It enters through
    /// `to`'s mail whatever `from` is, so it is not ordered against what
    /// `to`'s runner has queued locally.
    pub(crate) fn route(&self, from: ProcessId, to: ProcessId, msg: M) {
        let action = self.pool.policy.action(from, to, &msg);
        let due = match action {
            LinkAction::Deliver => None,
            LinkAction::DeliverAfter(d) => Some(Instant::now() + d),
            LinkAction::Drop => return,
        };
        let (to, cmd) = (self.place.locate(to), NodeCmd::Deliver { from, msg });
        self.pool.hand(Routed { to, due, cmd });
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
                // Mail due timers to their units (the clock is read only if
                // there is a timer).
                while let Some(timer) = q.timers.first_entry() {
                    if timer.key().0 > Instant::now() {
                        break;
                    }
                    let (to, cmd) = timer.remove();
                    q.accept(Routed { to, due: None, cmd });
                }
                if !q.ready.is_empty() {
                    for unit in q.ready.drain(..) {
                        q.queued[unit] = false;
                        ready.push(q.units[unit].clone());
                    }
                    break;
                }
                // Idle: park until notified — or until the next timer is
                // due, if any. No deadline means no polling at all.
                guard = match q.timers.keys().next().map(|&(due, _)| due) {
                    None => worker.cv.wait(guard).unwrap_or_else(|e| e.into_inner()),
                    Some(due) => {
                        let timeout = due.saturating_duration_since(Instant::now());
                        let (guard, _) = worker
                            .cv
                            .wait_timeout(guard, timeout)
                            .unwrap_or_else(|e| e.into_inner());
                        guard
                    }
                };
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
            cells,
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
        for (at, cmd) in batch.drain(..).chain(local_cmds) {
            let pid = unit.place.pid(Addr { at, ..unit.home });
            commands += 1;
            // A panic in automaton or operation code must not take the
            // runner down: on a worker every other unit would silently
            // freeze, on a submitter it would unwind into the caller.
            // Contain it to the offending process: poison it like a crash
            // (deliveries skipped, operations answer `Gone`).
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                step(pid, at, cells, cmd, step_outbox);
            }));
            if caught.is_err() {
                eprintln!("vrr-runtime: process {pid} panicked; poisoning it");
                step_outbox.clear();
                if let Some(Some(cell)) = cells.get_mut(at) {
                    cell.crash();
                }
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

    /// Routes a pass's sends: one policy pass — an immediate delivery to a
    /// process of `unit` goes straight onto its local run queue — then one
    /// lock acquisition + one notification per worker that gets the rest.
    fn flush(&self, unit: &Unit<M>, run: &mut Run<M>) {
        for (from, to, msg) in run.outbox.drain(..) {
            let action = self.policy.action(from, to, &msg);
            let to = unit.place.locate(to);
            let due = match action {
                LinkAction::Deliver if (Addr { at: 0, ..to }) == unit.home => {
                    run.local.push((to.at, from, msg));
                    continue;
                }
                LinkAction::Deliver => None,
                LinkAction::DeliverAfter(d) => Some(Instant::now() + d),
                LinkAction::Drop => continue,
            };
            let cmd = NodeCmd::Deliver { from, msg };
            run.away.push(Routed { to, due, cmd });
        }
        // Stable, so a link's messages stay in order. Every destination
        // worker is notified, the unit's own included: the runner may be a
        // helping thread, and then that worker's wait must be re-armed.
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

/// The process at position `at`, unless nothing was started there or it is
/// crashed: whatever is addressed to such a position is dropped.
fn live<M>(cells: &mut [Option<Cell<M>>], at: usize) -> Option<&mut Cell<M>> {
    cells.get_mut(at)?.as_mut().filter(|cell| !cell.crashed)
}

/// Applies one command to the process at position `at` of its unit (global
/// id `pid`).
fn step<M: Send + 'static>(
    pid: ProcessId,
    at: usize,
    cells: &mut Vec<Option<Cell<M>>>,
    cmd: NodeCmd<M>,
    outbox: &mut Vec<(ProcessId, M)>,
) {
    match cmd {
        NodeCmd::Start(mut automaton) => {
            // The paper's Init step.
            {
                let mut ctx = Context::new(pid, outbox);
                automaton.on_start(&mut ctx);
            }
            if cells.len() <= at {
                cells.resize_with(at + 1, || None);
            }
            cells[at] = Some(Cell {
                automaton,
                active: None,
                deferred: VecDeque::new(),
                crashed: false,
            });
        }
        NodeCmd::Deliver { from, msg } => {
            let Some(cell) = live(cells, at) else {
                return;
            };
            {
                let mut ctx = Context::new(pid, outbox);
                cell.automaton.on_message(from, msg, &mut ctx);
            }
            after_step(pid, cell, outbox);
        }
        NodeCmd::Op(op) => {
            let Some(cell) = live(cells, at) else {
                return; // dropping the operation completes it with `Gone`
            };
            cell.deferred.push_back(op);
            if cell.active.is_none() {
                after_step(pid, cell, outbox);
            }
        }
        NodeCmd::Crash => {
            if let Some(cell) = live(cells, at) {
                cell.crash();
            }
        }
    }
}

/// Runs after every step of a process: polls the active operation and
/// starts deferred ones as the process becomes idle.
fn after_step<M>(pid: ProcessId, cell: &mut Cell<M>, outbox: &mut Vec<(ProcessId, M)>) {
    loop {
        if let Some(op) = cell.active.as_mut() {
            if !op.poll(&mut *cell.automaton) {
                break;
            }
            cell.active = None;
        }
        // The operation sits in `active` while it starts, so a panic in
        // `start` leaves it where the poisoning path finds and fails it.
        cell.active = cell.deferred.pop_front();
        let Some(op) = cell.active.as_mut() else {
            break;
        };
        let mut ctx = Context::new(pid, outbox);
        op.start(&mut *cell.automaton, &mut ctx);
    }
}
