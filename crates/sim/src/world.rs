//! The simulation engine: a deterministic event loop over asynchronous
//! message passing with crash and Byzantine faults.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::adversary::{Action, Adversary};
use crate::envelope::{Envelope, MsgId};
use crate::latency::{Fixed, LatencyModel};
use crate::process::{Automaton, Context, ProcessId, ProcessStatus, SimMessage};
use crate::time::SimTime;
use crate::trace::{NetStats, Trace, TraceEventKind};

/// The outcome of driving a world until no events remain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Quiescence {
    /// Events processed by this call.
    pub steps: u64,
    /// `true` if the event queue drained; `false` if the step limit was hit.
    pub drained: bool,
    /// Messages still held in transit by the adversary.
    pub held: usize,
}

impl Quiescence {
    /// Panics with a diagnostic if the run did not drain.
    ///
    /// # Panics
    ///
    /// Panics if the step limit was reached before quiescence — in these
    /// protocols that means an automaton is generating unbounded traffic.
    pub fn expect_drained(self) -> Self {
        assert!(
            self.drained,
            "world did not reach quiescence within the step limit ({} steps, {} held)",
            self.steps, self.held
        );
        self
    }
}

#[derive(Debug)]
enum QueuedKind<M> {
    Start(ProcessId),
    Deliver(Envelope<M>),
    Crash(ProcessId),
}

struct Queued<M> {
    at: SimTime,
    seq: u64,
    kind: QueuedKind<M>,
}

impl<M> PartialEq for Queued<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Queued<M> {}
impl<M> PartialOrd for Queued<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Queued<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

struct Proc<M> {
    automaton: Box<dyn Automaton<M>>,
    status: ProcessStatus,
    name: String,
}

/// A deterministic simulated distributed system.
///
/// Spawn automata, optionally install adversary rules, call [`World::start`],
/// then drive the run with [`World::step`], [`World::run_until_time`] or
/// [`World::run_to_quiescence`]. Two worlds built identically with the same
/// seed produce identical runs.
///
/// # Examples
///
/// ```
/// use vrr_sim::{World, Automaton, Context, ProcessId, SimMessage, from_fn};
///
/// #[derive(Clone, Debug)]
/// struct Ping;
/// impl SimMessage for Ping {
///     fn wire_size(&self) -> usize { 1 }
/// }
///
/// let mut world: World<Ping> = World::new(42);
/// let echo = world.spawn_named("echo", from_fn(|from, _msg: Ping, ctx| {
///     ctx.send(from, Ping);
/// }));
/// let sink = world.spawn_named("sink", from_fn(|_, _msg: Ping, _ctx| {}));
/// world.start();
/// world.send_external(sink, echo, Ping);
/// world.run_to_quiescence(1_000).expect_drained();
/// assert_eq!(world.stats().delivered, 2); // ping + echo
/// ```
pub struct World<M: SimMessage> {
    procs: Vec<Proc<M>>,
    queue: BinaryHeap<Reverse<Queued<M>>>,
    held: Vec<Envelope<M>>,
    adversary: Adversary<M>,
    latency: Box<dyn LatencyModel<M>>,
    rng: SmallRng,
    now: SimTime,
    seq: u64,
    next_msg_id: u64,
    started: bool,
    trace: Trace<M>,
    stats: NetStats,
}

impl<M: SimMessage> World<M> {
    /// Creates an empty world with unit-latency links and the given RNG seed.
    pub fn new(seed: u64) -> Self {
        World {
            procs: Vec::new(),
            queue: BinaryHeap::new(),
            held: Vec::new(),
            adversary: Adversary::new(),
            latency: Box::new(Fixed::UNIT),
            rng: SmallRng::seed_from_u64(seed),
            now: SimTime::ZERO,
            seq: 0,
            next_msg_id: 0,
            started: false,
            trace: Trace::default(),
            stats: NetStats::default(),
        }
    }

    /// Replaces the latency model (default: [`Fixed::UNIT`]).
    pub fn set_latency(&mut self, model: impl LatencyModel<M> + 'static) {
        self.latency = Box::new(model);
    }

    /// The scheduling adversary.
    pub fn adversary_mut(&mut self) -> &mut Adversary<M> {
        &mut self.adversary
    }

    /// The run trace (disabled by default; see [`Trace::enable`]).
    pub fn trace_mut(&mut self) -> &mut Trace<M> {
        &mut self.trace
    }

    /// The run trace, read-only.
    pub fn trace(&self) -> &Trace<M> {
        &self.trace
    }

    /// Network counters for the run so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The time of the next queued event, if any.
    ///
    /// Held messages do not count: they re-enter the queue only on release.
    /// Schedulers layered over the world (e.g. [`crate::Scenario`]) use this
    /// to interleave their own timed actions with the event loop.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(q)| q.at)
    }

    /// Number of spawned processes.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// Whether no processes were spawned.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// Adds a process running `automaton`; returns its id.
    pub fn spawn(&mut self, automaton: Box<dyn Automaton<M>>) -> ProcessId {
        let label = automaton.label().to_owned();
        self.spawn_named(label, automaton)
    }

    /// Adds a named process (names appear in panics and debugging output).
    pub fn spawn_named(
        &mut self,
        name: impl Into<String>,
        automaton: Box<dyn Automaton<M>>,
    ) -> ProcessId {
        let id = ProcessId(self.procs.len());
        self.procs.push(Proc {
            automaton,
            status: ProcessStatus::Alive,
            name: name.into(),
        });
        if self.started {
            // Late spawns still get their Init step.
            self.push_event(self.now, QueuedKind::Start(id));
        }
        id
    }

    /// Schedules every process's `on_start` (the paper's `Init` state step).
    ///
    /// Idempotent; must be called before driving the run.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.procs.len() {
            self.push_event(self.now, QueuedKind::Start(ProcessId(i)));
        }
    }

    /// The status of `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not spawned in this world.
    pub fn status(&self, pid: ProcessId) -> ProcessStatus {
        self.procs[pid.index()].status
    }

    /// Crashes `pid` immediately: it takes no further steps and messages
    /// addressed to it become dead letters.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not spawned in this world.
    pub fn crash(&mut self, pid: ProcessId) {
        self.procs[pid.index()].status = ProcessStatus::Crashed;
        self.trace.push(self.now, TraceEventKind::Crashed(pid));
    }

    /// Schedules a crash of `pid` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or `pid` was not spawned.
    pub fn schedule_crash(&mut self, pid: ProcessId, at: SimTime) {
        assert!(at >= self.now, "cannot schedule a crash in the past");
        assert!(pid.index() < self.procs.len(), "unknown process {pid:?}");
        self.push_event(at, QueuedKind::Crash(pid));
    }

    /// Replaces `pid`'s automaton with a malicious one and marks it Byzantine.
    ///
    /// The paper's malicious processes "can perform arbitrary actions"; here
    /// arbitrary behaviour is whatever `automaton` computes, including
    /// forging any message content.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not spawned in this world.
    pub fn set_byzantine(&mut self, pid: ProcessId, automaton: Box<dyn Automaton<M>>) {
        let proc = &mut self.procs[pid.index()];
        proc.automaton = automaton;
        proc.status = ProcessStatus::Byzantine;
        self.trace
            .push(self.now, TraceEventKind::TurnedByzantine(pid));
    }

    /// Runs `f` against the concrete automaton of `pid`, with a [`Context`]
    /// whose sends enter the network when `f` returns.
    ///
    /// This is how drivers invoke operations on client automata.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is unknown, crashed, or its automaton is not an `A`.
    pub fn with_automaton_mut<A: Automaton<M>, R>(
        &mut self,
        pid: ProcessId,
        f: impl FnOnce(&mut A, &mut Context<'_, M>) -> R,
    ) -> R {
        assert!(
            self.procs[pid.index()].status.takes_steps(),
            "process {pid:?} ({}) has crashed",
            self.procs[pid.index()].name
        );
        let mut outbox = Vec::new();
        let result = {
            let proc = &mut self.procs[pid.index()];
            let automaton: &mut dyn Any = &mut *proc.automaton;
            let automaton = automaton.downcast_mut::<A>().unwrap_or_else(|| {
                panic!(
                    "process {pid:?} ({}) is not a {}",
                    pid.0,
                    std::any::type_name::<A>()
                )
            });
            let mut ctx = Context::new(pid, &mut outbox);
            f(automaton, &mut ctx)
        };
        self.flush_outbox(pid, outbox);
        result
    }

    /// Read-only access to the concrete automaton of `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is unknown or its automaton is not an `A`.
    pub fn inspect<A: Automaton<M>, R>(&self, pid: ProcessId, f: impl FnOnce(&A) -> R) -> R {
        let proc = &self.procs[pid.index()];
        let automaton: &dyn Any = &*proc.automaton;
        let automaton = automaton.downcast_ref::<A>().unwrap_or_else(|| {
            panic!(
                "process {pid:?} ({}) is not a {}",
                pid.0,
                std::any::type_name::<A>()
            )
        });
        f(automaton)
    }

    /// Like [`World::inspect`], but returns `None` when the automaton of
    /// `pid` is not an `A` (e.g. it was replaced by a Byzantine automaton)
    /// instead of panicking.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not spawned in this world.
    pub fn try_inspect<A: Automaton<M>, R>(
        &self,
        pid: ProcessId,
        f: impl FnOnce(&A) -> R,
    ) -> Option<R> {
        let proc = &self.procs[pid.index()];
        let automaton: &dyn Any = &*proc.automaton;
        automaton.downcast_ref::<A>().map(f)
    }

    /// Injects a message from outside the system (e.g. a test fixture acting
    /// as a client that is not itself simulated).
    pub fn send_external(&mut self, from: ProcessId, to: ProcessId, msg: M) {
        self.flush_outbox(from, vec![(to, msg)]);
    }

    /// Envelopes currently held in transit by the adversary.
    pub fn held(&self) -> &[Envelope<M>] {
        &self.held
    }

    /// Releases held messages matching `pred` back into the network.
    ///
    /// Released messages are scheduled directly with the latency model and
    /// are *not* re-examined by the adversary (otherwise a standing hold rule
    /// would capture them again). Returns the number released.
    pub fn release_held(&mut self, mut pred: impl FnMut(&Envelope<M>) -> bool) -> usize {
        let mut kept = Vec::with_capacity(self.held.len());
        let mut released = 0;
        for env in std::mem::take(&mut self.held) {
            if pred(&env) {
                released += 1;
                self.stats.released += 1;
                let delay = self.latency.delay(&env, &mut self.rng);
                let at = self.now + delay;
                self.trace
                    .push(self.now, TraceEventKind::Released(env.clone()));
                self.push_event(at, QueuedKind::Deliver(env));
            } else {
                kept.push(env);
            }
        }
        self.held = kept;
        released
    }

    /// Releases every held message.
    pub fn release_all(&mut self) -> usize {
        self.release_held(|_| true)
    }

    /// Processes the next event, if any. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(queued)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(queued.at >= self.now, "time went backwards");
        self.now = queued.at;
        match queued.kind {
            QueuedKind::Start(pid) => {
                if self.procs[pid.index()].status.takes_steps() {
                    let mut outbox = Vec::new();
                    {
                        let mut ctx = Context::new(pid, &mut outbox);
                        self.procs[pid.index()].automaton.on_start(&mut ctx);
                    }
                    self.flush_outbox(pid, outbox);
                }
            }
            QueuedKind::Crash(pid) => {
                self.crash(pid);
            }
            QueuedKind::Deliver(env) => {
                let to = env.to;
                if !self.procs[to.index()].status.takes_steps() {
                    self.stats.dead_letters += 1;
                    self.trace.push(self.now, TraceEventKind::DeadLetter(env));
                } else {
                    self.stats.delivered += 1;
                    self.stats.bytes_delivered += env.msg.wire_size() as u64;
                    self.trace
                        .push(self.now, TraceEventKind::Delivered(env.clone()));
                    let mut outbox = Vec::new();
                    {
                        let mut ctx = Context::new(to, &mut outbox);
                        self.procs[to.index()]
                            .automaton
                            .on_message(env.from, env.msg, &mut ctx);
                    }
                    self.flush_outbox(to, outbox);
                }
            }
        }
        true
    }

    /// Processes every event scheduled at or before `t`, then advances the
    /// clock to `t`. Returns the number of events processed.
    pub fn run_until_time(&mut self, t: SimTime) -> u64 {
        let mut steps = 0;
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.at > t {
                break;
            }
            self.step();
            steps += 1;
        }
        if self.now < t {
            self.now = t;
        }
        steps
    }

    /// Drives the run until the queue drains or `limit` events have been
    /// processed.
    pub fn run_to_quiescence(&mut self, limit: u64) -> Quiescence {
        let mut steps = 0;
        while steps < limit {
            if !self.step() {
                return Quiescence {
                    steps,
                    drained: true,
                    held: self.held.len(),
                };
            }
            steps += 1;
        }
        let drained = self.queue.is_empty();
        Quiescence {
            steps,
            drained,
            held: self.held.len(),
        }
    }

    /// Drives the run until `pred` holds (checked after every event), the
    /// queue drains, or `limit` events have been processed. Returns whether
    /// `pred` held.
    pub fn run_until(&mut self, mut pred: impl FnMut(&World<M>) -> bool, limit: u64) -> bool {
        if pred(self) {
            return true;
        }
        let mut steps = 0;
        while steps < limit && self.step() {
            steps += 1;
            if pred(self) {
                return true;
            }
        }
        false
    }

    fn push_event(&mut self, at: SimTime, kind: QueuedKind<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Queued { at, seq, kind }));
    }

    fn flush_outbox(&mut self, from: ProcessId, outbox: Vec<(ProcessId, M)>) {
        for (to, msg) in outbox {
            assert!(
                to.index() < self.procs.len(),
                "send to unknown process {to:?}"
            );
            let env = Envelope {
                id: MsgId(self.next_msg_id),
                from,
                to,
                msg,
                sent_at: self.now,
            };
            self.next_msg_id += 1;
            self.stats.sent += 1;
            self.stats.bytes_sent += env.msg.wire_size() as u64;
            self.trace.push(self.now, TraceEventKind::Sent(env.clone()));
            match self.adversary.decide(&env) {
                Action::Deliver => {
                    let delay = self.latency.delay(&env, &mut self.rng);
                    let at = self.now + delay;
                    self.push_event(at, QueuedKind::Deliver(env));
                }
                Action::DeliverAfter(extra) => {
                    let delay = self.latency.delay(&env, &mut self.rng) + extra;
                    let at = self.now + delay;
                    self.push_event(at, QueuedKind::Deliver(env));
                }
                Action::Hold => {
                    self.stats.held += 1;
                    self.trace.push(self.now, TraceEventKind::Held(env.clone()));
                    self.held.push(env);
                }
                Action::Drop => {
                    self.stats.dropped += 1;
                    self.trace.push(self.now, TraceEventKind::Dropped(env));
                }
            }
        }
    }
}

impl<M: SimMessage> std::fmt::Debug for World<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("procs", &self.procs.len())
            .field("queued", &self.queue.len())
            .field("held", &self.held.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byzantine::from_fn;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    impl SimMessage for Msg {
        fn wire_size(&self) -> usize {
            4
        }
    }

    /// A process that answers Ping(n) with Pong(n + 1).
    fn ponger() -> Box<dyn Automaton<Msg>> {
        from_fn(|from, msg, ctx: &mut Context<'_, Msg>| {
            if let Msg::Ping(n) = msg {
                ctx.send(from, Msg::Pong(n + 1));
            }
        })
    }

    /// A process that records received pongs.
    struct PongSink {
        got: Vec<u32>,
    }

    impl Automaton<Msg> for PongSink {
        fn on_message(&mut self, _from: ProcessId, msg: Msg, _ctx: &mut Context<'_, Msg>) {
            if let Msg::Pong(n) = msg {
                self.got.push(n);
            }
        }
    }

    fn two_proc_world(seed: u64) -> (World<Msg>, ProcessId, ProcessId) {
        let mut w = World::new(seed);
        let sink = w.spawn_named("sink", Box::new(PongSink { got: Vec::new() }));
        let pong = w.spawn_named("ponger", ponger());
        w.start();
        (w, sink, pong)
    }

    #[test]
    fn round_trip_delivery() {
        let (mut w, sink, pong) = two_proc_world(1);
        w.send_external(sink, pong, Msg::Ping(7));
        w.run_to_quiescence(100).expect_drained();
        w.inspect(sink, |s: &PongSink| assert_eq!(s.got, vec![8]));
        assert_eq!(w.stats().sent, 2);
        assert_eq!(w.stats().delivered, 2);
        assert_eq!(w.stats().bytes_delivered, 8);
    }

    #[test]
    fn crash_discards_deliveries() {
        let (mut w, sink, pong) = two_proc_world(1);
        w.crash(pong);
        w.send_external(sink, pong, Msg::Ping(7));
        let q = w.run_to_quiescence(100).expect_drained();
        assert_eq!(q.held, 0);
        assert_eq!(w.stats().dead_letters, 1);
        w.inspect(sink, |s: &PongSink| assert!(s.got.is_empty()));
    }

    #[test]
    fn scheduled_crash_takes_effect_at_time() {
        let (mut w, sink, pong) = two_proc_world(1);
        w.schedule_crash(pong, SimTime::from_ticks(10));
        // Sent at t=0, delivered at t=1 (< 10): processed.
        w.send_external(sink, pong, Msg::Ping(1));
        w.run_until_time(SimTime::from_ticks(20));
        assert_eq!(w.status(pong), ProcessStatus::Crashed);
        // Sent after the crash: dead letter.
        w.send_external(sink, pong, Msg::Ping(2));
        w.run_to_quiescence(100).expect_drained();
        w.inspect(sink, |s: &PongSink| assert_eq!(s.got, vec![2]));
        assert_eq!(w.stats().dead_letters, 1);
    }

    #[test]
    fn hold_and_release_models_in_transit() {
        let (mut w, sink, pong) = two_proc_world(1);
        w.adversary_mut().hold_link(sink, pong);
        w.send_external(sink, pong, Msg::Ping(1));
        w.run_to_quiescence(100).expect_drained();
        assert_eq!(w.held().len(), 1);
        w.inspect(sink, |s: &PongSink| assert!(s.got.is_empty()));
        // Release: delivered without adversary re-interception.
        assert_eq!(w.release_all(), 1);
        w.run_to_quiescence(100).expect_drained();
        w.inspect(sink, |s: &PongSink| assert_eq!(s.got, vec![2]));
    }

    #[test]
    fn byzantine_replacement_lies() {
        let (mut w, sink, pong) = two_proc_world(1);
        w.set_byzantine(
            pong,
            from_fn(|from, _msg, ctx: &mut Context<'_, Msg>| {
                ctx.send(from, Msg::Pong(999));
            }),
        );
        assert_eq!(w.status(pong), ProcessStatus::Byzantine);
        w.send_external(sink, pong, Msg::Ping(1));
        w.run_to_quiescence(100).expect_drained();
        w.inspect(sink, |s: &PongSink| assert_eq!(s.got, vec![999]));
    }

    #[test]
    fn determinism_same_seed_same_run() {
        let run = |seed: u64| {
            let (mut w, sink, pong) = two_proc_world(seed);
            w.set_latency(crate::latency::Uniform::new(1, 10));
            for i in 0..20 {
                w.send_external(sink, pong, Msg::Ping(i));
            }
            w.run_to_quiescence(1_000).expect_drained();
            w.inspect(sink, |s: &PongSink| s.got.clone())
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn run_until_predicate_stops_early() {
        let (mut w, sink, pong) = two_proc_world(1);
        for i in 0..5 {
            w.send_external(sink, pong, Msg::Ping(i));
        }
        let hit = w.run_until(|w| w.inspect(sink, |s: &PongSink| s.got.len() >= 2), 1_000);
        assert!(hit);
        w.inspect(sink, |s: &PongSink| assert_eq!(s.got.len(), 2));
    }

    #[test]
    fn run_until_time_advances_clock_without_events() {
        let mut w: World<Msg> = World::new(1);
        w.start();
        w.run_until_time(SimTime::from_ticks(50));
        assert_eq!(w.now(), SimTime::from_ticks(50));
    }

    #[test]
    #[should_panic(expected = "has crashed")]
    fn with_automaton_mut_rejects_crashed() {
        let (mut w, sink, _pong) = two_proc_world(1);
        w.crash(sink);
        w.with_automaton_mut(sink, |_s: &mut PongSink, _ctx| {});
    }

    #[test]
    fn late_spawn_gets_started() {
        let mut w: World<Msg> = World::new(1);
        w.start();
        let sink = w.spawn_named("sink", Box::new(PongSink { got: Vec::new() }));
        let pong = w.spawn_named("ponger", ponger());
        w.send_external(sink, pong, Msg::Ping(0));
        w.run_to_quiescence(100).expect_drained();
        w.inspect(sink, |s: &PongSink| assert_eq!(s.got, vec![1]));
    }
}
