//! The sharded worker-pool executor behind [`crate::Cluster`].
//!
//! Instead of one OS thread per automaton plus a router thread moving one
//! message per channel op (the seed design), a fixed pool of workers —
//! default [`std::thread::available_parallelism`] — each owns a *shard* of
//! process mailboxes.
//!
//! **Placement is group-affine** ([`Placement`], the one pid ↔ (worker,
//! local index) mapping): consecutive runs of `span` process ids — one
//! register group, as [`crate::RegisterHost::spawn`] declares it — live on
//! one worker, and groups are dealt round-robin over the pool. A raw
//! [`crate::Cluster`] has span 1, i.e. `pid % workers`. A READ's two rounds
//! are therefore same-thread traffic; the only cross-thread events of an
//! operation are its submission and its completion, and parallelism comes
//! from many groups over many workers.
//!
//! A worker iteration is *drain → run → flush*. The drain takes the shard
//! lock **once** and steals every non-empty mailbox wholesale (a *sweep*,
//! if it found any). The run processes those batches, then the worker's
//! **local run queue**, lock-free. The flush puts every send through the
//! link policy and, per message ruled `Deliver`: appends it to the local
//! run queue when the destination lives on this worker — no lock, no
//! condvar — and otherwise batches it into the destination shard's mailbox
//! with one lock acquisition and one notification per shard. Every
//! immediate delivery between a given pair of processes takes exactly one
//! of the two paths, which keeps links FIFO. Delayed messages live in a
//! per-shard timer heap and are promoted into mailboxes when due.
//!
//! **Fairness:** the mailbox is drained on every iteration, and an
//! iteration runs only the local deliveries queued before it began, so an
//! endless co-located ping-pong cannot starve a crash, an invoke, a newly
//! submitted operation or shutdown. A worker parks only when its mailbox
//! **and** its local queue are empty — indefinitely, or until the next
//! timer deadline: an idle pool makes zero wakeups.
//!
//! External stimuli ([`crate::Cluster::send_external`], invokes, submits,
//! crashes) always enter through the mailbox, so they are ordered among
//! themselves per process but **not** against the co-located deliveries a
//! worker has queued locally.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use vrr_sim::{Automaton, Context, ProcessId};

use crate::link::{LinkAction, LinkPolicy};

/// A closure run against the concrete automaton inside its worker.
pub(crate) type InvokeFn<M> = Box<dyn FnOnce(&mut dyn Any, &mut Context<'_, M>) + Send>;

/// One client operation on one automaton, type-erased for the mailbox
/// (built by [`crate::Cluster::submit`]). The implementor owns the
/// completion callback and fires it exactly once: from `poll` with the
/// outcome, or from its `Drop` with `NodeGone` when the process is crashed,
/// poisoned or torn down before the operation completes.
pub(crate) trait ClientOp<M>: Send {
    /// Invokes the operation on the automaton (the paper's invocation
    /// event); its sends go through `ctx`.
    fn start(&mut self, automaton: &mut dyn Any, ctx: &mut Context<'_, M>);
    /// Checks for the outcome; on completion fires the callback (the
    /// response event) and returns `true`.
    fn poll(&mut self, automaton: &mut dyn Any) -> bool;
}

/// Commands queued in a process mailbox.
pub(crate) enum NodeCmd<M> {
    /// Install the automaton and run its `Init` step. Always the first
    /// command in a mailbox (pushed by `register`).
    Start(Box<dyn Automaton<M>>),
    /// A message crossing a link.
    Deliver {
        /// Sender.
        from: ProcessId,
        /// Payload.
        msg: M,
    },
    /// Run a closure against the automaton.
    Invoke(InvokeFn<M>),
    /// Run a client operation to completion: start it now if the process
    /// is idle, else after the operations submitted before it.
    Op(Box<dyn ClientOp<M>>),
    /// Stop processing: deliveries are skipped, invokes and operations
    /// answer `NodeGone`.
    Crash,
}

/// A delayed message parked in a shard's timer wheel.
struct Timer<M> {
    due: Instant,
    seq: u64,
    from: ProcessId,
    to: ProcessId,
    msg: M,
}

impl<M> PartialEq for Timer<M> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<M> Eq for Timer<M> {}
impl<M> PartialOrd for Timer<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Timer<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// Where processes live: `span` consecutive pids (one register group) share
/// a worker, groups go round-robin over the pool, and a worker indexes its
/// processes densely in registration order. Span 1 is `pid % workers`.
#[derive(Clone, Copy)]
struct Placement {
    workers: usize,
    span: usize,
}

impl Placement {
    /// The worker owning `pid` and `pid`'s index among that worker's
    /// processes.
    fn locate(self, pid: ProcessId) -> (usize, usize) {
        let (group, position) = (pid.index() / self.span, pid.index() % self.span);
        (
            group % self.workers,
            group / self.workers * self.span + position,
        )
    }

    /// Inverse of [`Placement::locate`].
    fn pid(self, worker: usize, local: usize) -> ProcessId {
        let group = local / self.span * self.workers + worker;
        ProcessId(group * self.span + local % self.span)
    }
}

/// The lock-guarded half of a shard: mailboxes and the timer wheel.
struct ShardQueue<M> {
    /// The pool's placement, read by the worker under the lock it takes
    /// anyway (so a span declared before the first spawn is seen by every
    /// command that follows it).
    place: Placement,
    /// Local index ([`Placement::locate`]) → pending commands.
    mailboxes: Vec<VecDeque<NodeCmd<M>>>,
    /// Local indices with non-empty mailboxes, in first-arrival order.
    ready: Vec<usize>,
    /// Whether a local index is already listed in `ready`.
    queued: Vec<bool>,
    /// Delayed deliveries destined for this shard, min-heap by due time.
    timers: BinaryHeap<Reverse<Timer<M>>>,
    /// Tie-breaker so equal deadlines deliver in schedule order.
    timer_seq: u64,
    shutdown: bool,
}

struct Shard<M> {
    q: Mutex<ShardQueue<M>>,
    cv: Condvar,
    /// Sweeps that processed at least one command batch.
    sweeps: AtomicU64,
    /// Returns from `wait`/`wait_timeout`, productive or not.
    wakeups: AtomicU64,
    /// Commands processed (deliveries, invokes, operations, crashes).
    commands: AtomicU64,
}

impl<M> Shard<M> {
    fn new(place: Placement) -> Self {
        Shard {
            q: Mutex::new(ShardQueue {
                place,
                mailboxes: Vec::new(),
                ready: Vec::new(),
                queued: Vec::new(),
                timers: BinaryHeap::new(),
                timer_seq: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            sweeps: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            commands: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ShardQueue<M>> {
        self.q.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<M> ShardQueue<M> {
    /// Appends `cmd` to local mailbox `local`, marking it ready. The caller
    /// must notify the shard's condvar after releasing the lock.
    fn push(&mut self, local: usize, cmd: NodeCmd<M>) {
        if local >= self.mailboxes.len() {
            // Message to a process id this shard never registered: the old
            // router dropped those on the floor too.
            return;
        }
        self.mailboxes[local].push_back(cmd);
        if !self.queued[local] {
            self.queued[local] = true;
            self.ready.push(local);
        }
    }

    /// Parks a delayed delivery in the timer heap until `due`. The caller
    /// must notify the shard's condvar after releasing the lock.
    fn park(&mut self, due: Instant, from: ProcessId, to: ProcessId, msg: M) {
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.timers.push(Reverse(Timer {
            due,
            seq,
            from,
            to,
            msg,
        }));
    }
}

/// Counters describing executor activity, summed over all workers.
///
/// Obtained from [`crate::Cluster::stats`]; the interesting property is the
/// *deltas*: an idle cluster must not accumulate `wakeups`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Worker sweeps that processed at least one batch of commands.
    pub sweeps: u64,
    /// Times any worker woke from its condvar (including timer deadlines).
    pub wakeups: u64,
    /// Total commands processed (deliveries, invokes, operations,
    /// crashes).
    pub commands: u64,
}

/// Worker-local state of one registered process.
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
    /// which completes each of them with `NodeGone`.
    fn crash(&mut self) {
        self.crashed = true;
        self.active = None;
        self.deferred.clear();
    }
}

pub(crate) struct Executor<M: Send + 'static> {
    shards: Vec<Arc<Shard<M>>>,
    policy: Arc<Mutex<Box<dyn LinkPolicy<M>>>>,
    workers: Vec<JoinHandle<()>>,
    /// Process ids are dense in registration order; `place` maps them to
    /// shards.
    place: Placement,
    next_pid: usize,
}

impl<M: Send + 'static> Executor<M> {
    pub(crate) fn new(policy: Box<dyn LinkPolicy<M>>, workers: usize) -> Self {
        let workers = workers.max(1);
        let place = Placement { workers, span: 1 };
        let shards: Vec<Arc<Shard<M>>> =
            (0..workers).map(|_| Arc::new(Shard::new(place))).collect();
        let policy = Arc::new(Mutex::new(policy));
        let handles = (0..workers)
            .map(|w| {
                let shards = shards.clone();
                let policy = policy.clone();
                std::thread::Builder::new()
                    .name(format!("vrr-worker-{w}"))
                    .spawn(move || worker_main(w, shards, policy))
                    .expect("spawn worker thread")
            })
            .collect();
        Executor {
            shards,
            policy,
            workers: handles,
            place,
            next_pid: 0,
        }
    }

    pub(crate) fn worker_count(&self) -> usize {
        self.shards.len()
    }

    pub(crate) fn len(&self) -> usize {
        self.next_pid
    }

    /// Declares that every run of `span` consecutive pids is one group, to
    /// be placed on one worker. Only an empty executor can be re-placed.
    pub(crate) fn set_group_span(&mut self, span: usize) {
        assert!(
            self.next_pid == 0 && span > 0,
            "placement is fixed once a process exists"
        );
        self.place.span = span;
        for shard in &self.shards {
            shard.lock().place = self.place;
        }
    }

    /// Registers a process: allocates the next dense id, creates its
    /// mailbox in the owning shard and queues the `Start` command.
    pub(crate) fn register(&mut self, automaton: Box<dyn Automaton<M>>) -> ProcessId {
        let pid = ProcessId(self.next_pid);
        self.next_pid += 1;
        let (worker, local) = self.place.locate(pid);
        let shard = &self.shards[worker];
        {
            let mut q = shard.lock();
            debug_assert_eq!(q.mailboxes.len(), local, "dense registration order");
            q.mailboxes.push(VecDeque::new());
            q.queued.push(false);
            q.push(local, NodeCmd::Start(automaton));
        }
        shard.cv.notify_one();
        pid
    }

    /// Queues a control command (invoke/operation/crash) for `pid`.
    pub(crate) fn enqueue(&self, pid: ProcessId, cmd: NodeCmd<M>) {
        let (worker, local) = self.place.locate(pid);
        let shard = &self.shards[worker];
        shard.lock().push(local, cmd);
        shard.cv.notify_one();
    }

    /// Routes one message through the link policy (external stimulus; the
    /// workers batch their own sends in [`flush_outbox`]). It enters through
    /// `to`'s mailbox whatever `from` is, so it is not ordered against what
    /// `to`'s worker has queued locally.
    pub(crate) fn route(&self, from: ProcessId, to: ProcessId, msg: M) {
        let action = self
            .policy
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .action(from, to, &msg);
        let (worker, local) = self.place.locate(to);
        let shard = &self.shards[worker];
        match action {
            LinkAction::Deliver => shard.lock().push(local, NodeCmd::Deliver { from, msg }),
            LinkAction::DeliverAfter(d) => {
                shard.lock().park(Instant::now() + d, from, to, msg);
            }
            LinkAction::Drop => return,
        }
        shard.cv.notify_one();
    }

    pub(crate) fn stats(&self) -> ExecutorStats {
        let mut s = ExecutorStats::default();
        for shard in &self.shards {
            s.sweeps += shard.sweeps.load(Ordering::Relaxed);
            s.wakeups += shard.wakeups.load(Ordering::Relaxed);
            s.commands += shard.commands.load(Ordering::Relaxed);
        }
        s
    }

    pub(crate) fn shutdown_and_join(&mut self) {
        for shard in &self.shards {
            shard.lock().shutdown = true;
            shard.cv.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// A delivery the link policy ruled immediate and co-located: `(local index
/// of the destination, sender, payload)`.
type LocalDelivery<M> = (usize, ProcessId, M);

/// One worker: drain the mailbox → run → flush, parking when idle.
fn worker_main<M: Send + 'static>(
    me: usize,
    shards: Vec<Arc<Shard<M>>>,
    policy: Arc<Mutex<Box<dyn LinkPolicy<M>>>>,
) {
    let shard = shards[me].clone();
    // Worker-local automata; only this thread ever touches them.
    let mut cells: Vec<Option<Cell<M>>> = Vec::new();
    // Reusable buffers.
    let mut batch: Vec<(usize, VecDeque<NodeCmd<M>>)> = Vec::new();
    let mut step_outbox: Vec<(ProcessId, M)> = Vec::new();
    let mut outbox: Vec<(ProcessId, ProcessId, M)> = Vec::new();
    let mut buckets: Vec<Vec<Routed<M>>> = shards.iter().map(|_| Vec::new()).collect();
    // The local run queue: `running` is this iteration's share of it,
    // `local` what the flush queues for the next one.
    let mut local: Vec<LocalDelivery<M>> = Vec::new();
    let mut running: Vec<LocalDelivery<M>> = Vec::new();

    loop {
        // --- Drain: one lock acquisition collects all mailbox work. ------
        let (place, registered) = {
            let mut q = shard.lock();
            loop {
                if q.shutdown {
                    return;
                }
                // Promote due timers into their target mailboxes (the clock
                // is read only if there is a timer).
                while q
                    .timers
                    .peek()
                    .is_some_and(|Reverse(t)| t.due <= Instant::now())
                {
                    let Reverse(t) = q.timers.pop().expect("peeked");
                    let (_, to) = q.place.locate(t.to);
                    q.push(
                        to,
                        NodeCmd::Deliver {
                            from: t.from,
                            msg: t.msg,
                        },
                    );
                }
                if !q.ready.is_empty() {
                    for at in std::mem::take(&mut q.ready) {
                        q.queued[at] = false;
                        batch.push((at, std::mem::take(&mut q.mailboxes[at])));
                    }
                    shard.sweeps.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                if !local.is_empty() {
                    break;
                }
                // Idle: park until notified — or until the next timer is
                // due, if any. No deadline means no polling at all.
                match q.timers.peek().map(|Reverse(t)| t.due) {
                    None => {
                        q = shard.cv.wait(q).unwrap_or_else(|e| e.into_inner());
                    }
                    Some(due) => {
                        let timeout = due.saturating_duration_since(Instant::now());
                        let (guard, _) = shard
                            .cv
                            .wait_timeout(q, timeout)
                            .unwrap_or_else(|e| e.into_inner());
                        q = guard;
                    }
                }
                shard.wakeups.fetch_add(1, Ordering::Relaxed);
            }
            (q.place, q.mailboxes.len())
        };

        // --- Run: the drained mailboxes first (a `Start` precedes the
        // local deliveries its process was sent), then the local run queue
        // as it stood — what this iteration's flush adds waits for the next
        // drain. Like a mailbox, the queue drops what is addressed to a
        // process never registered. No lock held.
        std::mem::swap(&mut local, &mut running);
        if cells.len() < registered {
            cells.resize_with(registered, || None);
        }
        let mailbox_cmds = batch
            .drain(..)
            .flat_map(|(at, cmds)| cmds.into_iter().map(move |cmd| (at, cmd)));
        let local_cmds = running
            .drain(..)
            .filter(|&(at, ..)| at < registered)
            .map(|(at, from, msg)| (at, NodeCmd::Deliver { from, msg }));
        let mut commands = 0u64;
        for (at, cmd) in mailbox_cmds.chain(local_cmds) {
            let from = place.pid(me, at);
            commands += 1;
            // A panic in automaton/invoke/operation code must not kill
            // the worker: every other process on this shard would
            // silently freeze and pending invokes would block forever.
            // Contain it to the offending process: poison it like a
            // crash (deliveries skipped, invokes and operations answer
            // NodeGone).
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                step(from, at, &mut cells, cmd, &mut step_outbox);
            }));
            if caught.is_err() {
                eprintln!("vrr-worker-{me}: process {from} panicked; poisoning it");
                step_outbox.clear();
                if let Some(cell) = cells[at].as_mut() {
                    cell.crash();
                }
                continue;
            }
            outbox.extend(step_outbox.drain(..).map(|(to, msg)| (from, to, msg)));
        }
        shard.commands.fetch_add(commands, Ordering::Relaxed);

        // --- Flush: the accumulated outbox, batched per destination. -----
        if !outbox.is_empty() {
            flush_outbox(
                me,
                place,
                &mut outbox,
                &mut local,
                &mut buckets,
                &shards,
                &policy,
            );
        }
    }
}

/// Applies one command to the process at `local` (global id `pid`).
fn step<M: Send + 'static>(
    pid: ProcessId,
    local: usize,
    cells: &mut [Option<Cell<M>>],
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
            cells[local] = Some(Cell {
                automaton,
                active: None,
                deferred: VecDeque::new(),
                crashed: false,
            });
        }
        NodeCmd::Deliver { from, msg } => {
            let Some(cell) = cells[local].as_mut() else {
                return;
            };
            if cell.crashed {
                return;
            }
            {
                let mut ctx = Context::new(pid, outbox);
                cell.automaton.on_message(from, msg, &mut ctx);
            }
            after_step(pid, cell, outbox);
        }
        NodeCmd::Invoke(f) => {
            let Some(cell) = cells[local].as_mut() else {
                return;
            };
            if cell.crashed {
                return; // reply channel drops; the caller sees NodeGone
            }
            {
                let mut ctx = Context::new(pid, outbox);
                let any: &mut dyn Any = &mut *cell.automaton;
                f(any, &mut ctx);
            }
            after_step(pid, cell, outbox);
        }
        NodeCmd::Op(op) => {
            let Some(cell) = cells[local].as_mut() else {
                return;
            };
            if cell.crashed {
                return; // dropping the operation completes it with NodeGone
            }
            cell.deferred.push_back(op);
            if cell.active.is_none() {
                after_step(pid, cell, outbox);
            }
        }
        NodeCmd::Crash => {
            if let Some(cell) = cells[local].as_mut() {
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

/// Destination-shard bucket entry: an immediate or delayed delivery.
enum Routed<M> {
    Now {
        from: ProcessId,
        /// Local index of the destination in its shard.
        at: usize,
        msg: M,
    },
    Later {
        due: Instant,
        from: ProcessId,
        to: ProcessId,
        msg: M,
    },
}

/// Routes an iteration's sends: one policy pass — an immediate delivery to
/// a process of worker `me` goes straight onto its `local` run queue — then
/// one lock acquisition + one notification per other destination shard.
fn flush_outbox<M: Send + 'static>(
    me: usize,
    place: Placement,
    outbox: &mut Vec<(ProcessId, ProcessId, M)>,
    local: &mut Vec<LocalDelivery<M>>,
    buckets: &mut [Vec<Routed<M>>],
    shards: &[Arc<Shard<M>>],
    policy: &Mutex<Box<dyn LinkPolicy<M>>>,
) {
    // Decide every message's fate under one policy lock.
    let mut left_the_worker = false;
    {
        let mut policy = policy.lock().unwrap_or_else(|e| e.into_inner());
        for (from, to, msg) in outbox.drain(..) {
            let (worker, at) = place.locate(to);
            let routed = match policy.action(from, to, &msg) {
                LinkAction::Deliver if worker == me => {
                    local.push((at, from, msg));
                    continue;
                }
                LinkAction::Deliver => Routed::Now { from, at, msg },
                LinkAction::DeliverAfter(d) => Routed::Later {
                    due: Instant::now() + d,
                    from,
                    to,
                    msg,
                },
                LinkAction::Drop => continue,
            };
            buckets[worker].push(routed);
            left_the_worker = true;
        }
    }
    if !left_the_worker {
        return;
    }
    for (s, bucket) in buckets.iter_mut().enumerate() {
        if bucket.is_empty() {
            continue;
        }
        {
            let mut q = shards[s].lock();
            for routed in bucket.drain(..) {
                match routed {
                    Routed::Now { from, at, msg } => q.push(at, NodeCmd::Deliver { from, msg }),
                    Routed::Later { due, from, to, msg } => q.park(due, from, to, msg),
                }
            }
        }
        // This worker is the only waiter on its own condvar, and it is
        // about to drain: a delayed self-delivery needs no notification.
        if s != me {
            shards[s].cv.notify_one();
        }
    }
}
