//! Generic Byzantine building blocks.
//!
//! The paper lets malicious processes "perform arbitrary actions" (§2.1).
//! Concretely useful attacks are compositions of a few primitives: staying
//! silent, rewriting outgoing messages of an otherwise honest automaton, or
//! running a fully scripted behaviour. Protocol-specific forgers (e.g. the
//! `σ1`/`σ2` state forgers of Figure 1) are built from these in `vrr-core`
//! and `vrr-lowerbound`.

use std::marker::PhantomData;

use crate::process::{Automaton, Context, ProcessId, SimMessage};

/// An automaton defined by a closure over `(from, msg, ctx)`.
struct FnAutomaton<M, F> {
    f: F,
    _marker: PhantomData<fn(M)>,
}

impl<M, F> Automaton<M> for FnAutomaton<M, F>
where
    M: SimMessage,
    F: FnMut(ProcessId, M, &mut Context<'_, M>) + Send + 'static,
{
    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Context<'_, M>) {
        (self.f)(from, msg, ctx);
    }

    fn label(&self) -> &'static str {
        "fn"
    }
}

/// Boxes a closure over `(from, msg, ctx)` as an automaton: the workhorse
/// for tests and scripted attackers.
///
/// # Examples
///
/// ```
/// use vrr_sim::{from_fn, Context};
///
/// // An object that echoes every message back to its sender.
/// let echo = from_fn(|from, msg: u32, ctx: &mut Context<'_, u32>| {
///     ctx.send(from, msg);
/// });
/// # let _ = echo;
/// ```
pub fn from_fn<M, F>(f: F) -> Box<dyn Automaton<M>>
where
    M: SimMessage,
    F: FnMut(ProcessId, M, &mut Context<'_, M>) + Send + 'static,
{
    Box::new(FnAutomaton {
        f,
        _marker: PhantomData,
    })
}

/// A process that receives everything and says nothing.
///
/// Models the simplest Byzantine behaviour (indistinguishable from a crash to
/// the rest of the system) and is also how the paper models "objects that do
/// not reply" in round definitions (§2.3).
#[derive(Clone, Copy, Debug, Default)]
pub struct Mute;

impl<M: SimMessage> Automaton<M> for Mute {
    fn on_message(&mut self, _from: ProcessId, _msg: M, _ctx: &mut Context<'_, M>) {}

    fn label(&self) -> &'static str {
        "mute"
    }
}

/// Rewrites one outgoing `(to, msg)` into the messages actually sent.
type TamperFn<M> = Box<dyn FnMut(ProcessId, M) -> Vec<(ProcessId, M)> + Send>;

/// Wraps an honest automaton and rewrites its *outgoing* messages.
///
/// The tamper function receives each `(to, msg)` the inner automaton wanted
/// to send and returns the messages actually sent — it may modify, drop,
/// redirect or multiply them. Incoming messages reach the inner automaton
/// unmodified, so its state stays plausible: this models a malicious object
/// that tracks the protocol but lies on the wire.
pub struct Tamper<M, A> {
    inner: A,
    tamper: TamperFn<M>,
}

impl<M, A: std::fmt::Debug> std::fmt::Debug for Tamper<M, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tamper")
            .field("inner", &self.inner)
            .finish_non_exhaustive()
    }
}

impl<M: SimMessage, A: Automaton<M>> Tamper<M, A> {
    /// Wraps `inner`, filtering every outgoing message through `tamper`.
    pub fn new(
        inner: A,
        tamper: impl FnMut(ProcessId, M) -> Vec<(ProcessId, M)> + Send + 'static,
    ) -> Self {
        Tamper {
            inner,
            tamper: Box::new(tamper),
        }
    }

    /// Wraps `inner`, passing every outgoing message through `rewrite` on
    /// its way to the same destination — one message out per message in,
    /// the shape of every catalogue attacker in `vrr-core` and
    /// `vrr-baselines`: an object that tracks the protocol honestly and
    /// lies in its replies.
    pub fn rewriting(inner: A, mut rewrite: impl FnMut(M) -> M + Send + 'static) -> Self {
        Self::new(inner, move |to, msg| vec![(to, rewrite(msg))])
    }

    /// The wrapped automaton.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    fn run_inner(&mut self, ctx: &mut Context<'_, M>, f: impl FnOnce(&mut A, &mut Context<'_, M>)) {
        let mut staged = Vec::new();
        {
            let mut inner_ctx = Context::new(ctx.me(), &mut staged);
            f(&mut self.inner, &mut inner_ctx);
        }
        for (to, msg) in staged {
            for (to2, msg2) in (self.tamper)(to, msg) {
                ctx.send(to2, msg2);
            }
        }
    }
}

impl<M: SimMessage, A: Automaton<M>> Automaton<M> for Tamper<M, A> {
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        self.run_inner(ctx, |inner, ictx| inner.on_start(ictx));
    }

    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Context<'_, M>) {
        self.run_inner(ctx, |inner, ictx| inner.on_message(from, msg, ictx));
    }

    fn label(&self) -> &'static str {
        "tamper"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[derive(Clone, Debug, PartialEq)]
    struct N(u64);

    impl SimMessage for N {
        fn wire_size(&self) -> usize {
            8
        }
    }

    struct Collect(Vec<u64>);

    impl Automaton<N> for Collect {
        fn on_message(&mut self, _from: ProcessId, msg: N, _ctx: &mut Context<'_, N>) {
            self.0.push(msg.0);
        }
    }

    /// Honest behaviour used inside tamper tests: add 1 and reply.
    struct Inc;

    impl Automaton<N> for Inc {
        fn on_message(&mut self, from: ProcessId, msg: N, ctx: &mut Context<'_, N>) {
            ctx.send(from, N(msg.0 + 1));
        }
    }

    #[test]
    fn mute_never_replies() {
        let mut w: World<N> = World::new(0);
        let sink = w.spawn_named("sink", Box::new(Collect(Vec::new())));
        let mute = w.spawn_named("mute", Box::new(Mute));
        w.start();
        w.send_external(sink, mute, N(1));
        w.run_until_idle(100).expect_drained();
        assert_eq!(w.net_stats().delivered, 1);
        w.inspect(sink, |c: &Collect| assert!(c.0.is_empty()));
    }

    #[test]
    fn tamper_rewrites_replies() {
        let mut w: World<N> = World::new(0);
        let sink = w.spawn_named("sink", Box::new(Collect(Vec::new())));
        let liar = w.spawn_named(
            "liar",
            Box::new(Tamper::rewriting(Inc, |msg: N| N(msg.0 * 100))),
        );
        w.start();
        w.send_external(sink, liar, N(1));
        w.run_until_idle(100).expect_drained();
        // Honest Inc would reply 2; the tamper layer scales it to 200.
        w.inspect(sink, |c: &Collect| assert_eq!(c.0, vec![200]));
    }

    #[test]
    fn tamper_can_suppress_and_multiply() {
        let mut w: World<N> = World::new(0);
        let sink = w.spawn_named("sink", Box::new(Collect(Vec::new())));
        let liar = w.spawn_named(
            "liar",
            Box::new(Tamper::new(Inc, |to, msg: N| {
                if msg.0.is_multiple_of(2) {
                    vec![] // suppress even replies
                } else {
                    vec![(to, msg.clone()), (to, msg)] // duplicate odd ones
                }
            })),
        );
        w.start();
        w.send_external(sink, liar, N(1)); // reply 2 -> suppressed
        w.send_external(sink, liar, N(2)); // reply 3 -> duplicated
        w.run_until_idle(100).expect_drained();
        w.inspect(sink, |c: &Collect| assert_eq!(c.0, vec![3, 3]));
    }

    #[test]
    fn from_fn_runs_closure() {
        let mut w: World<N> = World::new(0);
        let sink = w.spawn_named("sink", Box::new(Collect(Vec::new())));
        let doubler = w.spawn_named(
            "doubler",
            from_fn(|from, msg: N, ctx: &mut Context<'_, N>| {
                ctx.send(from, N(msg.0 * 2));
            }),
        );
        w.start();
        w.send_external(sink, doubler, N(21));
        w.run_until_idle(100).expect_drained();
        w.inspect(sink, |c: &Collect| assert_eq!(c.0, vec![42]));
    }
}
