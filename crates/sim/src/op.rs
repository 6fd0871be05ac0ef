//! Client operations, as the simulator and the thread runtime both run
//! them: [`ClientOp`], queued and stepped by a [`crate::Process`].

use std::any::Any;
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

/// One client operation on the automaton of one process — the one way a
/// driver runs code against an automaton: a value either host takes (the
/// simulator's [`crate::World::submit`], the thread runtime's
/// `vrr_runtime::Cluster::submit`), run by its [`crate::Process`] under one
/// contract:
///
/// - `start` is the invocation event (e.g. `invoke_read`); `poll` is called
///   with what it returned after each later step of the process, and its
///   first `Some(r)` goes to `done`, the response event, fired exactly once;
/// - a process runs one operation at a time, in submission order, so §2.2's
///   well-formedness holds whatever the drivers do;
/// - an automaton of another type runs nothing: `done` receives
///   [`InvokeError::WrongType`] and the process carries on;
/// - an operation dropped before it completed — its process crashed, was
///   replaced or poisoned, or its host went away — completes with
///   [`InvokeError::Gone`].
pub struct ClientOp<M> {
    pid: ProcessId,
    advance: Box<Advance<M>>,
}

/// Starts the operation on its first call, polls it on every call; `true`
/// once it completed.
type Advance<M> = dyn FnMut(&mut dyn Any, &mut Context<'_, M>) -> bool + Send;

impl<M> fmt::Debug for ClientOp<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ClientOp").field(&self.pid).finish()
    }
}

impl<M: 'static> ClientOp<M> {
    /// The process the operation runs on.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Starts the operation on its first call and polls it on every call;
    /// `true` once it completed.
    pub(crate) fn advance(&mut self, automaton: &mut dyn Any, ctx: &mut Context<'_, M>) -> bool {
        (self.advance)(automaton, ctx)
    }

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
        let advance = Box::new(move |automaton: &mut dyn Any, ctx: &mut Context<'_, M>| {
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
        });
        ClientOp { pid, advance }
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
