//! Processes, automata and the execution context.
//!
//! The paper's model (§2.1) describes a distributed algorithm as "a collection
//! of deterministic automata, where `A_p` is the automaton assigned to process
//! `p`". A step atomically consumes received messages, updates local state and
//! emits output messages. [`Automaton`] is that notion; [`Context`] is the
//! paper's `mset_{p,*}` output interface.

use std::any::Any;
use std::fmt;

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

impl SimMessage for String {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

impl SimMessage for &'static str {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

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

    /// Number of messages queued so far in this step.
    pub fn pending(&self) -> usize {
        self.outbox.len()
    }
}

/// A deterministic process automaton (the paper's `A_p`).
///
/// Implementations must be deterministic functions of their state and inputs:
/// all correctness experiments rely on replayable runs. `Any` is a supertrait
/// so drivers can downcast to the concrete automaton type: an operation runs
/// through [`crate::World::submit`] (or the thread runtime's
/// `Cluster::submit`), and [`crate::World::inspect`] reads state.
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
        assert_eq!(ctx.pending(), 3);
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
