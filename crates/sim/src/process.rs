//! Processes, automata and the execution context.
//!
//! The paper's model (§2.1) describes a distributed algorithm as "a collection
//! of deterministic automata, where `A_p` is the automaton assigned to process
//! `p`". A step atomically consumes received messages, updates local state and
//! emits output messages. [`Automaton`] is that notion; [`Context`] is the
//! paper's `mset_{p,*}` output interface; [`Process`] takes the steps.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;

use crate::op::ClientOp;

/// Identifies a process (client or base object) within a [`crate::World`].
///
/// Ids are dense indexes assigned in spawn order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub usize);

impl ProcessId {
    /// Returns the raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The liveness status of a process in a run.
///
/// Mirrors the paper's process taxonomy (§2.1): a non-malicious process is
/// *correct* if it keeps taking steps, *crash-faulty* once it stops, and
/// *malicious* processes may act arbitrarily (they are modelled by swapping in
/// an adversarial [`Automaton`], so the simulator still schedules them as
/// `Alive`; [`ProcessStatus::Byzantine`] only marks them for accounting).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProcessStatus {
    /// Takes steps normally.
    Alive,
    /// Has crashed: takes no further steps; messages to it are discarded.
    Crashed,
    /// Runs an adversarial automaton. Scheduled like `Alive`.
    Byzantine,
}

impl ProcessStatus {
    /// Whether the simulator still delivers events to this process.
    pub fn takes_steps(self) -> bool {
        !matches!(self, ProcessStatus::Crashed)
    }
}

/// Messages that can travel through the simulated network.
///
/// `wire_size` lets experiments account for bandwidth (the §5.1 optimization
/// is about shrinking `READk_ACK` messages): the world adds it to
/// [`NetStats`](crate::NetStats)' byte counts for every message sent and
/// delivered. A message with a real encoding returns that encoding's
/// length, so the simulator counts the bytes a socket would carry.
pub trait SimMessage: Clone + fmt::Debug + Send + 'static {
    /// Serialized size in bytes.
    fn wire_size(&self) -> usize;
}

macro_rules! impl_sim_message_for_copy {
    ($($ty:ty),* $(,)?) => {
        $(impl SimMessage for $ty {
            fn wire_size(&self) -> usize {
                std::mem::size_of::<$ty>()
            }
        })*
    };
}

impl_sim_message_for_copy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, ());

/// The interface through which an automaton interacts with the world during
/// one atomic step.
///
/// Deliberately *excludes* the global clock: the paper's processes "have an
/// asynchronous perception of their environment" (§2), so automata must not
/// branch on simulation time.
pub struct Context<'a, M> {
    me: ProcessId,
    outbox: &'a mut Vec<(ProcessId, M)>,
}

impl<M> fmt::Debug for Context<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("me", &self.me)
            .field("pending", &self.outbox.len())
            .finish()
    }
}

impl<'a, M> Context<'a, M> {
    /// Creates a context writing sends into `outbox`.
    ///
    /// Outside the simulator this is how alternative hosts (the thread
    /// runtime, unit tests driving an automaton by hand) provide automata
    /// with a send interface.
    pub fn new(me: ProcessId, outbox: &'a mut Vec<(ProcessId, M)>) -> Self {
        Context { me, outbox }
    }

    /// The identity of the process taking this step.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Queues `msg` for sending to `to`.
    ///
    /// Delivery time (or interception) is decided by the world's latency
    /// model and adversary once the step completes.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Queues `msg` for sending to every process in `targets`.
    pub fn broadcast<I>(&mut self, targets: I, msg: M)
    where
        I: IntoIterator<Item = ProcessId>,
        M: Clone,
    {
        for to in targets {
            self.outbox.push((to, msg.clone()));
        }
    }
}

/// A deterministic process automaton (the paper's `A_p`).
///
/// Implementations must be deterministic functions of their state and inputs:
/// all correctness experiments rely on replayable runs. `Any` is a supertrait
/// so drivers can downcast to the concrete automaton type: a [`ClientOp`]
/// runs against it, and [`crate::World::inspect`] reads its state. Its
/// steps are taken by a [`Process`] only.
pub trait Automaton<M>: Any + Send {
    /// Called once when the world starts (the paper's `Init` step).
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Called for every delivered message.
    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Context<'_, M>);

    /// A short human-readable label for traces.
    fn label(&self) -> &'static str {
        "automaton"
    }
}

/// One process of a run — its automaton, the client operations submitted
/// to it (the first is in progress) and its status — and the one code that
/// steps an automaton, in [`crate::World`] and on the thread runtime alike:
/// a host only picks the process that takes the next step and carries the
/// sends the step leaves in `outbox`.
///
/// After every step the operation in progress is polled, and the next
/// starts once it completed (§2.2: "a client invokes one operation at a
/// time"). An operation stays queued while it runs, so one that panics is
/// failed by the host's [`Process::crash`].
pub struct Process<M> {
    pid: ProcessId,
    automaton: Box<dyn Automaton<M>>,
    ops: VecDeque<ClientOp<M>>,
    status: ProcessStatus,
}

impl<M> fmt::Debug for Process<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (pid, status, ops) = (self.pid, self.status, self.ops.len());
        write!(f, "{pid:?} {status:?}, {ops} ops")
    }
}

impl<M: 'static> Process<M> {
    /// The process `pid`, alive; it takes no step before [`Process::start`].
    pub fn new(pid: ProcessId, automaton: Box<dyn Automaton<M>>) -> Self {
        Process {
            pid,
            automaton,
            ops: VecDeque::new(),
            status: ProcessStatus::Alive,
        }
    }

    /// Its id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Its status.
    pub fn status(&self) -> ProcessStatus {
        self.status
    }

    /// Its automaton, if that is an `A`.
    pub fn automaton<A: Automaton<M>>(&self) -> Option<&A> {
        (&*self.automaton as &dyn Any).downcast_ref()
    }

    /// The paper's `Init` step, unless the process is crashed.
    pub fn start(&mut self, outbox: &mut Vec<(ProcessId, M)>) {
        if self.status.takes_steps() {
            self.automaton.on_start(&mut Context::new(self.pid, outbox));
            self.poll(outbox);
        }
    }

    /// The step that consumes `msg` from `from`; `false` if the process is
    /// crashed and drops it.
    pub fn deliver(&mut self, from: ProcessId, msg: M, outbox: &mut Vec<(ProcessId, M)>) -> bool {
        let alive = self.status.takes_steps();
        if alive {
            let mut ctx = Context::new(self.pid, outbox);
            self.automaton.on_message(from, msg, &mut ctx);
            self.poll(outbox);
        }
        alive
    }

    /// Queues `op` behind the operations submitted before it, starting it
    /// if the process is idle; a crashed process drops it, which completes
    /// it with [`crate::InvokeError::Gone`].
    pub fn submit(&mut self, op: ClientOp<M>, outbox: &mut Vec<(ProcessId, M)>) {
        debug_assert_eq!(op.pid(), self.pid, "an operation of another process");
        if self.status.takes_steps() {
            self.ops.push_back(op);
            if self.ops.len() == 1 {
                self.poll(outbox);
            }
        }
    }

    /// Stops the process; its operations complete with
    /// [`crate::InvokeError::Gone`].
    pub fn crash(&mut self) {
        self.status = ProcessStatus::Crashed;
        self.ops.clear();
    }

    /// Substitutes a Byzantine automaton; the operations submitted to the
    /// old one complete with [`crate::InvokeError::Gone`].
    pub fn replace(&mut self, automaton: Box<dyn Automaton<M>>) {
        (self.automaton, self.status) = (automaton, ProcessStatus::Byzantine);
        self.ops.clear();
    }

    fn poll(&mut self, outbox: &mut Vec<(ProcessId, M)>) {
        while let Some(op) = self.ops.front_mut() {
            if !op.advance(&mut *self.automaton, &mut Context::new(self.pid, outbox)) {
                break;
            }
            self.ops.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Ping(u32);

    impl SimMessage for Ping {
        fn wire_size(&self) -> usize {
            4
        }
    }

    #[test]
    fn context_collects_sends_in_order() {
        let mut out = Vec::new();
        let mut ctx = Context::new(ProcessId(7), &mut out);
        assert_eq!(ctx.me(), ProcessId(7));
        ctx.send(ProcessId(1), Ping(10));
        ctx.broadcast([ProcessId(2), ProcessId(3)], Ping(20));
        assert_eq!(
            out,
            vec![
                (ProcessId(1), Ping(10)),
                (ProcessId(2), Ping(20)),
                (ProcessId(3), Ping(20)),
            ]
        );
    }

    #[test]
    fn status_steps() {
        assert!(ProcessStatus::Alive.takes_steps());
        assert!(ProcessStatus::Byzantine.takes_steps());
        assert!(!ProcessStatus::Crashed.takes_steps());
    }

    #[test]
    fn process_id_formats_compactly() {
        assert_eq!(format!("{:?}", ProcessId(3)), "p3");
        assert_eq!(ProcessId(3).index(), 3);
    }
}
