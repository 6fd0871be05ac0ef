//! Client operations, as the simulator and the thread runtime both run
//! them: [`ClientOp`] and a process's [`OpQueue`].

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;

use crate::process::{Automaton, Context, ProcessId};

/// Why a submitted operation's completion carries no outcome.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InvokeError {
    /// The process can no longer run anything: it was crashed (fault
    /// injection), replaced by a Byzantine automaton, poisoned by a panic,
    /// or its host is shutting down.
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

/// One submitted client operation on one automaton, type-erased for a
/// process's queue — the one way a driver runs code against an automaton,
/// in the simulator ([`crate::World::submit`]) and on the thread runtime
/// (`vrr_runtime::Cluster::submit`) alike, under one contract:
///
/// - `start` is the invocation event (e.g. `invoke_read`); `poll` is called
///   with what it returned after each later step of the process, and its
///   first `Some(r)` goes to `done`, the response event, fired exactly once;
/// - a process runs one operation at a time, in submission order
///   ([`OpQueue`]), so the model's well-formedness (§2.2, "a client invokes
///   one operation at a time") holds whatever the drivers do;
/// - an automaton of another type runs nothing: `done` receives
///   [`InvokeError::WrongType`] and the process carries on;
/// - an operation dropped before it completed — its process crashed, was
///   replaced or poisoned, or its host went away — completes with
///   [`InvokeError::Gone`].
pub struct ClientOp<M>(Box<Advance<M>>);

/// Starts the operation on its first call, polls it on every call; `true`
/// once it completed.
type Advance<M> = dyn FnMut(&mut dyn Any, &mut Context<'_, M>) -> bool + Send;

impl<M> fmt::Debug for ClientOp<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ClientOp")
    }
}

impl<M: 'static> ClientOp<M> {
    /// The operation `start` / `poll` / `done` on the automaton of `pid`.
    pub fn new<A, I, R>(
        pid: ProcessId,
        start: impl FnOnce(&mut A, &mut Context<'_, M>) -> I + Send + 'static,
        mut poll: impl FnMut(&mut A, &I) -> Option<R> + Send + 'static,
        done: impl FnOnce(Result<R, InvokeError>) + Send + 'static,
    ) -> Self
    where
        A: Automaton<M>,
        I: Send + 'static,
        R: 'static,
    {
        let mut done = Completion(pid, Some(done), PhantomData);
        let (mut start, mut id) = (Some(start), None);
        ClientOp(Box::new(move |automaton, ctx| {
            let Some(a) = automaton.downcast_mut::<A>() else {
                let expected = std::any::type_name::<A>();
                return done.fire(Err(InvokeError::WrongType { pid, expected }));
            };
            if let Some(start) = start.take() {
                id = Some(start(a, ctx));
            }
            match id.as_ref().and_then(|id| poll(a, id)) {
                Some(r) => done.fire(Ok(r)),
                None => false,
            }
        }))
    }
}

/// A completion callback that, dropped unfired, fires `Gone`.
struct Completion<R, D: FnOnce(Result<R, InvokeError>)>(ProcessId, Option<D>, PhantomData<fn(R)>);

impl<R, D: FnOnce(Result<R, InvokeError>)> Completion<R, D> {
    fn fire(&mut self, result: Result<R, InvokeError>) -> bool {
        if let Some(done) = self.1.take() {
            done(result);
        }
        true
    }
}

impl<R, D: FnOnce(Result<R, InvokeError>)> Drop for Completion<R, D> {
    fn drop(&mut self) {
        self.fire(Err(InvokeError::Gone(self.0)));
    }
}

/// A process's client operations in submission order; the first is the one
/// in progress. Its host calls [`OpQueue::push`] for a submission,
/// [`OpQueue::after_step`] after every step of the automaton and
/// [`OpQueue::clear`] when the process stops.
#[derive(Debug)]
pub struct OpQueue<M>(VecDeque<ClientOp<M>>);

impl<M> Default for OpQueue<M> {
    fn default() -> Self {
        OpQueue(VecDeque::new())
    }
}

impl<M> OpQueue<M> {
    /// Queues `op` behind the operations submitted before it and starts it
    /// at once if the process `pid` is idle; the sends of its start go to
    /// `outbox`.
    pub fn push(
        &mut self,
        op: ClientOp<M>,
        pid: ProcessId,
        automaton: &mut dyn Automaton<M>,
        outbox: &mut Vec<(ProcessId, M)>,
    ) {
        self.0.push_back(op);
        if self.0.len() == 1 {
            self.after_step(pid, automaton, outbox);
        }
    }

    /// Runs after every step of the process `pid`: polls the operation in
    /// progress and starts the next as the process becomes idle. An
    /// operation stays queued while it runs, so a panic in it leaves it
    /// where [`OpQueue::clear`] finds and fails it.
    pub fn after_step(
        &mut self,
        pid: ProcessId,
        automaton: &mut dyn Automaton<M>,
        outbox: &mut Vec<(ProcessId, M)>,
    ) {
        while let Some(op) = self.0.front_mut() {
            if !(op.0)(&mut *automaton, &mut Context::new(pid, outbox)) {
                break;
            }
            self.0.pop_front();
        }
    }

    /// Drops every operation, which completes each with
    /// [`InvokeError::Gone`].
    pub fn clear(&mut self) {
        self.0.clear();
    }
}
