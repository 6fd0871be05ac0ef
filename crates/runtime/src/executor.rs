//! The sharded worker-pool executor behind [`crate::Cluster`].
//!
//! Instead of one OS thread per automaton plus a router thread moving one
//! message per channel op (the seed design), a fixed pool of workers —
//! default [`std::thread::available_parallelism`] — each owns a *shard* of
//! process mailboxes (`pid % workers`). A worker sweep takes the shard
//! lock **once**, steals every non-empty mailbox in the shard wholesale,
//! processes the batches lock-free, then flushes the accumulated outbox
//! with one lock acquisition per destination shard. Delayed messages (the
//! old router's heap) live in a per-shard timer wheel: an idle shard parks
//! on its condvar indefinitely — zero wakeups until new work or the next
//! timer deadline, where the seed router polled every 50 ms.

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

/// The lock-guarded half of a shard: mailboxes and the timer wheel.
struct ShardQueue<M> {
    /// Local index (`pid / workers`) → pending commands.
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
    fn new() -> Self {
        Shard {
            q: Mutex::new(ShardQueue {
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
    /// Process ids are dense in registration order; `pid % shards.len()`
    /// names the owning shard, `pid / shards.len()` the local index.
    next_pid: usize,
}

impl<M: Send + 'static> Executor<M> {
    pub(crate) fn new(policy: Box<dyn LinkPolicy<M>>, workers: usize) -> Self {
        let workers = workers.max(1);
        let shards: Vec<Arc<Shard<M>>> = (0..workers).map(|_| Arc::new(Shard::new())).collect();
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
            next_pid: 0,
        }
    }

    pub(crate) fn worker_count(&self) -> usize {
        self.shards.len()
    }

    pub(crate) fn len(&self) -> usize {
        self.next_pid
    }

    /// Registers a process: allocates the next dense id, creates its
    /// mailbox in the owning shard and queues the `Start` command.
    pub(crate) fn register(&mut self, automaton: Box<dyn Automaton<M>>) -> ProcessId {
        let pid = ProcessId(self.next_pid);
        self.next_pid += 1;
        let shard = &self.shards[pid.index() % self.shards.len()];
        let local = pid.index() / self.shards.len();
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
        let shard = &self.shards[pid.index() % self.shards.len()];
        {
            let mut q = shard.lock();
            q.push(pid.index() / self.shards.len(), cmd);
        }
        shard.cv.notify_one();
    }

    /// Routes one message through the link policy (external stimulus; the
    /// workers batch their own sends in [`flush_outbox`]).
    pub(crate) fn route(&self, from: ProcessId, to: ProcessId, msg: M) {
        let action = self
            .policy
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .action(from, to, &msg);
        let shard = &self.shards[to.index() % self.shards.len()];
        match action {
            LinkAction::Deliver => {
                {
                    let mut q = shard.lock();
                    q.push(
                        to.index() / self.shards.len(),
                        NodeCmd::Deliver { from, msg },
                    );
                }
                shard.cv.notify_one();
            }
            LinkAction::DeliverAfter(d) => {
                {
                    let mut q = shard.lock();
                    let seq = q.timer_seq;
                    q.timer_seq += 1;
                    q.timers.push(Reverse(Timer {
                        due: Instant::now() + d,
                        seq,
                        from,
                        to,
                        msg,
                    }));
                }
                shard.cv.notify_one();
            }
            LinkAction::Drop => {}
        }
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

/// One worker: sweep → process batches → flush, parking when idle.
fn worker_main<M: Send + 'static>(
    me: usize,
    shards: Vec<Arc<Shard<M>>>,
    policy: Arc<Mutex<Box<dyn LinkPolicy<M>>>>,
) {
    let shard = shards[me].clone();
    let nshards = shards.len();
    // Worker-local automata; only this thread ever touches them.
    let mut cells: Vec<Option<Cell<M>>> = Vec::new();
    // Reusable sweep buffers.
    let mut batch: Vec<(usize, VecDeque<NodeCmd<M>>)> = Vec::new();
    let mut step_outbox: Vec<(ProcessId, M)> = Vec::new();
    let mut outbox: Vec<(ProcessId, ProcessId, M)> = Vec::new();

    loop {
        // --- Sweep: one lock acquisition collects all pending work. ------
        {
            let mut q = shard.lock();
            loop {
                if q.shutdown {
                    return;
                }
                // Promote due timers into their target mailboxes.
                let now = Instant::now();
                while q.timers.peek().is_some_and(|Reverse(t)| t.due <= now) {
                    let Reverse(t) = q.timers.pop().expect("peeked");
                    q.push(
                        t.to.index() / nshards,
                        NodeCmd::Deliver {
                            from: t.from,
                            msg: t.msg,
                        },
                    );
                }
                if !q.ready.is_empty() {
                    for local in std::mem::take(&mut q.ready) {
                        q.queued[local] = false;
                        batch.push((local, std::mem::take(&mut q.mailboxes[local])));
                    }
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
        }
        shard.sweeps.fetch_add(1, Ordering::Relaxed);

        // --- Process: run every drained mailbox without any lock held. ---
        let mut commands = 0u64;
        for (local, cmds) in batch.drain(..) {
            if local >= cells.len() {
                cells.resize_with(local + 1, || None);
            }
            let from = ProcessId(local * nshards + me);
            for cmd in cmds {
                commands += 1;
                // A panic in automaton/invoke/operation code must not kill
                // the worker: every other process on this shard would
                // silently freeze and pending invokes would block forever.
                // Contain it to the offending process: poison it like a
                // crash (deliveries skipped, invokes and operations answer
                // NodeGone).
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    step(from, local, &mut cells, cmd, &mut step_outbox);
                }));
                if caught.is_err() {
                    eprintln!("vrr-worker-{me}: process {from} panicked; poisoning it");
                    step_outbox.clear();
                    if let Some(cell) = cells[local].as_mut() {
                        cell.crash();
                    }
                    continue;
                }
                outbox.extend(step_outbox.drain(..).map(|(to, msg)| (from, to, msg)));
            }
        }
        shard.commands.fetch_add(commands, Ordering::Relaxed);

        // --- Flush: the accumulated outbox, batched per destination. -----
        if !outbox.is_empty() {
            flush_outbox(&mut outbox, &shards, &policy);
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
        to: ProcessId,
        msg: M,
    },
    Later {
        due: Instant,
        from: ProcessId,
        to: ProcessId,
        msg: M,
    },
}

/// Routes a whole sweep's sends: one policy pass, then one lock
/// acquisition + one notification per destination shard.
fn flush_outbox<M: Send + 'static>(
    outbox: &mut Vec<(ProcessId, ProcessId, M)>,
    shards: &[Arc<Shard<M>>],
    policy: &Arc<Mutex<Box<dyn LinkPolicy<M>>>>,
) {
    let nshards = shards.len();
    // Decide every message's fate under one policy lock.
    let mut buckets: Vec<Vec<Routed<M>>> = (0..nshards).map(|_| Vec::new()).collect();
    {
        let mut policy = policy.lock().unwrap_or_else(|e| e.into_inner());
        for (from, to, msg) in outbox.drain(..) {
            match policy.action(from, to, &msg) {
                LinkAction::Deliver => {
                    buckets[to.index() % nshards].push(Routed::Now { from, to, msg });
                }
                LinkAction::DeliverAfter(d) => {
                    buckets[to.index() % nshards].push(Routed::Later {
                        due: Instant::now() + d,
                        from,
                        to,
                        msg,
                    });
                }
                LinkAction::Drop => {}
            }
        }
    }
    for (s, bucket) in buckets.into_iter().enumerate() {
        if bucket.is_empty() {
            continue;
        }
        {
            let mut q = shards[s].lock();
            for routed in bucket {
                match routed {
                    Routed::Now { from, to, msg } => {
                        q.push(to.index() / nshards, NodeCmd::Deliver { from, msg });
                    }
                    Routed::Later { due, from, to, msg } => {
                        let seq = q.timer_seq;
                        q.timer_seq += 1;
                        q.timers.push(Reverse(Timer {
                            due,
                            seq,
                            from,
                            to,
                            msg,
                        }));
                    }
                }
            }
        }
        shards[s].cv.notify_one();
    }
}
