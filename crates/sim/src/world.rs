//! The simulation engine: a deterministic event loop over asynchronous
//! message passing with crash and Byzantine faults, scripted partitions and
//! heals, and seeded reordering links — one world, one clock, one queue.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::adversary::{Action, Adversary, RuleId};
use crate::envelope::{Envelope, MsgId};
use crate::latency::{Fixed, LatencyModel};
use crate::process::{Automaton, Context, ProcessId, ProcessStatus, SimMessage};
use crate::time::SimTime;
use crate::trace::{FaultStats, NetStats, Trace, TraceEventKind};

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
    Partition(Vec<Vec<ProcessId>>),
    Heal,
}

struct Queued<M> {
    at: SimTime,
    seq: u64,
    kind: QueuedKind<M>,
}

impl<M> Queued<M> {
    /// Time, then scripted partitions and heals after every message, start
    /// and crash event of the same tick, then insertion order.
    fn key(&self) -> (SimTime, bool, u64) {
        let scripted = matches!(self.kind, QueuedKind::Partition(_) | QueuedKind::Heal);
        (self.at, scripted, self.seq)
    }
}

impl<M> PartialEq for Queued<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        self.key().cmp(&other.key())
    }
}

struct Proc<M> {
    automaton: Box<dyn Automaton<M>>,
    status: ProcessStatus,
    name: String,
}

/// Whether `env` crosses an island boundary of `islands`. Processes listed
/// in no group share one implicit "rest" island.
fn crosses<M>(islands: &[Vec<ProcessId>], env: &Envelope<M>) -> bool {
    let island_of = |pid| islands.iter().position(|g| g.contains(&pid));
    island_of(env.from) != island_of(env.to)
}

fn wrong_type<A>(pid: ProcessId, name: &str) -> ! {
    panic!(
        "process {pid:?} ({name}) is not a {}",
        std::any::type_name::<A>()
    )
}

/// A deterministic simulated distributed system.
///
/// Spawn automata, script faults ([`World::partition`], [`World::heal_at`],
/// [`World::crash_at`], [`World::reorder`], adversary rules), call
/// [`World::start`], then drive the run with [`World::step`],
/// [`World::run_until_time`], [`World::run_until`] or
/// [`World::run_until_idle`]. Two worlds built identically with the same
/// seed produce identical runs.
///
/// Every timed action sits on the one event queue beside the messages. At a
/// tie, every delivery, start and crash of a tick runs before a partition or
/// heal scripted for that tick, so a message sent while handling a tick-`T`
/// delivery still crosses a cut scheduled for `T`. [`World::fault_stats`]
/// counts faults when they are *applied*, whoever asked: a crash scheduled
/// past the end of the run is not counted.
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
/// world.run_until_idle(1_000).expect_drained();
/// assert_eq!(world.net_stats().delivered, 2); // ping + echo
/// ```
pub struct World<M: SimMessage> {
    procs: Vec<Proc<M>>,
    queue: BinaryHeap<Reverse<Queued<M>>>,
    held: Vec<Envelope<M>>,
    adversary: Adversary<M>,
    /// The islands of the partition in force. Consulted before the
    /// adversary's rules: no rule can carry a message across a cut.
    partition: Option<Vec<Vec<ProcessId>>>,
    latency: Box<dyn LatencyModel<M>>,
    seed: u64,
    reorder_links: u64,
    rng: SmallRng,
    now: SimTime,
    seq: u64,
    next_msg_id: u64,
    started: bool,
    trace: Trace<M>,
    stats: NetStats,
    faults: FaultStats,
}

impl<M: SimMessage> World<M> {
    /// Creates an empty world with unit-latency links and the given RNG seed.
    pub fn new(seed: u64) -> Self {
        World {
            procs: Vec::new(),
            queue: BinaryHeap::new(),
            held: Vec::new(),
            adversary: Adversary::new(),
            partition: None,
            latency: Box::new(Fixed::UNIT),
            seed,
            reorder_links: 0,
            rng: SmallRng::seed_from_u64(seed),
            now: SimTime::ZERO,
            seq: 0,
            next_msg_id: 0,
            started: false,
            trace: Trace::default(),
            stats: NetStats::default(),
            faults: FaultStats::default(),
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
    pub fn net_stats(&self) -> NetStats {
        self.stats
    }

    /// Counters for the faults applied so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
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
        self.faults.crashes += 1;
        self.trace.push(self.now, TraceEventKind::Crashed(pid));
    }

    /// Schedules a crash of `pid` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or `pid` was not spawned.
    pub fn crash_at(&mut self, pid: ProcessId, at: SimTime) {
        assert!(pid.index() < self.procs.len(), "unknown process {pid:?}");
        self.schedule(at, QueuedKind::Crash(pid));
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
        self.faults.byzantine += 1;
        self.trace
            .push(self.now, TraceEventKind::TurnedByzantine(pid));
    }

    /// Partitions the network into islands, immediately.
    ///
    /// Each group in `groups` is one island; processes not listed share one
    /// implicit "rest" island (so `partition(vec![g])` cuts `g` off from
    /// everything else). Messages crossing island boundaries are held in
    /// transit — the paper's "remain in transit" asynchrony — whatever the
    /// adversary's rules say, until a heal releases them. Applying a new
    /// partition first releases what the old one captured.
    pub fn partition(&mut self, groups: Vec<Vec<ProcessId>>) {
        self.release_partition();
        self.partition = Some(groups);
        self.faults.partitions += 1;
    }

    /// Schedules a [`World::partition`] for time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn partition_at(&mut self, at: SimTime, groups: Vec<Vec<ProcessId>>) {
        self.schedule(at, QueuedKind::Partition(groups));
    }

    /// Heals the current partition immediately, releasing every held
    /// message that crossed its island boundaries. A no-op if no partition
    /// is in force.
    pub fn heal_now(&mut self) {
        if self.release_partition() {
            self.faults.heals += 1;
        }
    }

    /// Schedules a heal of the partition in force at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn heal_at(&mut self, at: SimTime) {
        self.schedule(at, QueuedKind::Heal);
    }

    /// Lifts the partition without counting a heal (a replacement heals
    /// implicitly). Returns whether one was in force.
    fn release_partition(&mut self) -> bool {
        let Some(islands) = self.partition.take() else {
            return false;
        };
        self.release_held(|e| crosses(&islands, e));
        true
    }

    /// Makes the directed link `from → to` reorder messages: each message
    /// is delayed by a random 1–4 extra ticks with probability `p`, so later
    /// sends can overtake earlier ones. Each link draws from its own RNG,
    /// derived from the world seed, so runs stay deterministic per seed.
    pub fn reorder(&mut self, from: ProcessId, to: ProcessId, p: f64) -> RuleId {
        let n = self.reorder_links;
        self.reorder_links += 1;
        let stream = n.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut rng = SmallRng::seed_from_u64(self.seed ^ stream);
        self.adversary
            .install(format!("reorder {from:?}→{to:?} p={p}"), move |e| {
                (e.on_link(from, to) && rng.gen_bool(p))
                    .then(|| Action::DeliverAfter(rng.gen_range(1u64..=4)))
            })
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
            let automaton = automaton
                .downcast_mut::<A>()
                .unwrap_or_else(|| wrong_type::<A>(pid, &proc.name));
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
        let automaton = automaton
            .downcast_ref::<A>()
            .unwrap_or_else(|| wrong_type::<A>(pid, &proc.name));
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
            QueuedKind::Crash(pid) => self.crash(pid),
            QueuedKind::Partition(groups) => self.partition(groups),
            QueuedKind::Heal => self.heal_now(),
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

    /// Processes every event scheduled at or before `t` — messages and
    /// scripted faults alike — then advances the clock to `t`. Returns the
    /// number of events processed.
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

    /// Advances the clock by `ticks`: [`World::run_until_time`], relative.
    pub fn fast_forward(&mut self, ticks: u64) -> u64 {
        self.run_until_time(self.now + ticks)
    }

    /// Drives the run until the queue drains — every message delivered or
    /// held, every scripted fault applied — or `limit` events have been
    /// processed.
    pub fn run_until_idle(&mut self, limit: u64) -> Quiescence {
        let mut steps = 0;
        while steps < limit && self.step() {
            steps += 1;
        }
        Quiescence {
            steps,
            drained: self.queue.is_empty(),
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

    /// Queues a scripted fault for time `at`.
    fn schedule(&mut self, at: SimTime, kind: QueuedKind<M>) {
        assert!(at >= self.now, "cannot script an event in the past");
        self.push_event(at, kind);
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
            let action = match &self.partition {
                Some(islands) if crosses(islands, &env) => Action::Hold,
                _ => self.adversary.decide(&env),
            };
            match action {
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
            .field("faults", &self.faults)
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
        w.run_until_idle(100).expect_drained();
        w.inspect(sink, |s: &PongSink| assert_eq!(s.got, vec![8]));
        assert_eq!(w.net_stats().sent, 2);
        assert_eq!(w.net_stats().delivered, 2);
        assert_eq!(w.net_stats().bytes_delivered, 8);
    }

    #[test]
    fn crash_discards_deliveries() {
        let (mut w, sink, pong) = two_proc_world(1);
        w.crash(pong);
        w.send_external(sink, pong, Msg::Ping(7));
        let q = w.run_until_idle(100).expect_drained();
        assert_eq!(q.held, 0);
        assert_eq!(w.net_stats().dead_letters, 1);
        w.inspect(sink, |s: &PongSink| assert!(s.got.is_empty()));
    }

    #[test]
    fn scheduled_crash_takes_effect_at_time() {
        let (mut w, sink, pong) = two_proc_world(1);
        w.crash_at(pong, SimTime::from_ticks(10));
        // Sent at t=0, delivered at t=1 (< 10): processed.
        w.send_external(sink, pong, Msg::Ping(1));
        w.run_until_time(SimTime::from_ticks(20));
        assert_eq!(w.status(pong), ProcessStatus::Crashed);
        // Sent after the crash: dead letter.
        w.send_external(sink, pong, Msg::Ping(2));
        w.run_until_idle(100).expect_drained();
        w.inspect(sink, |s: &PongSink| assert_eq!(s.got, vec![2]));
        assert_eq!(w.net_stats().dead_letters, 1);
    }

    #[test]
    fn hold_and_release_models_in_transit() {
        let (mut w, sink, pong) = two_proc_world(1);
        w.adversary_mut().hold_link(sink, pong);
        w.send_external(sink, pong, Msg::Ping(1));
        w.run_until_idle(100).expect_drained();
        assert_eq!(w.held().len(), 1);
        w.inspect(sink, |s: &PongSink| assert!(s.got.is_empty()));
        // Release: delivered without adversary re-interception.
        assert_eq!(w.release_all(), 1);
        w.run_until_idle(100).expect_drained();
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
        w.run_until_idle(100).expect_drained();
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
            w.run_until_idle(1_000).expect_drained();
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
    #[should_panic(expected = "(echo)")]
    fn a_mistyped_inspect_names_the_process() {
        let mut w: World<Msg> = World::new(1);
        let echo = w.spawn_named("echo", ponger());
        w.inspect(echo, |_: &PongSink| {});
    }

    #[test]
    #[should_panic(expected = "(echo)")]
    fn a_mistyped_with_automaton_mut_names_the_process() {
        let mut w: World<Msg> = World::new(1);
        let echo = w.spawn_named("echo", ponger());
        w.with_automaton_mut(echo, |_: &mut PongSink, _ctx| {});
    }

    #[test]
    fn late_spawn_gets_started() {
        let mut w: World<Msg> = World::new(1);
        w.start();
        let sink = w.spawn_named("sink", Box::new(PongSink { got: Vec::new() }));
        let pong = w.spawn_named("ponger", ponger());
        w.send_external(sink, pong, Msg::Ping(0));
        w.run_until_idle(100).expect_drained();
        w.inspect(sink, |s: &PongSink| assert_eq!(s.got, vec![1]));
    }

    // ---- the fault script: partitions, heals, reordering, counters ----------

    /// A started world of `N` sinks, which record the `Pong`s sent to them
    /// and never reply.
    fn sinks<const N: usize>(seed: u64) -> (World<Msg>, [ProcessId; N]) {
        let mut w = World::new(seed);
        let pids = std::array::from_fn(|_| w.spawn(Box::new(PongSink { got: Vec::new() })));
        w.start();
        (w, pids)
    }

    fn got(w: &World<Msg>, pid: ProcessId) -> Vec<u32> {
        w.inspect(pid, |s: &PongSink| s.got.clone())
    }

    #[test]
    fn partition_holds_and_heal_releases() {
        let (mut w, [a, b]) = sinks(1);
        w.partition(vec![vec![a], vec![b]]);
        w.heal_at(SimTime::from_ticks(10));
        w.send_external(a, b, Msg::Pong(7));
        w.run_until_idle(100);
        assert_eq!(got(&w, b), vec![7]);
        assert!(w.now() >= SimTime::from_ticks(10));
        assert_eq!(w.fault_stats().partitions, 1);
        assert_eq!(w.fault_stats().heals, 1);
    }

    #[test]
    fn unlisted_processes_form_the_rest_island() {
        let (mut w, [a, b, c]) = sinks(1);
        w.partition(vec![vec![a]]);
        // b and c are both in the implicit rest island: connected.
        w.send_external(b, c, Msg::Pong(1));
        // a is cut off from b.
        w.send_external(b, a, Msg::Pong(2));
        w.run_until_idle(100);
        assert_eq!(got(&w, c), vec![1]);
        assert_eq!(got(&w, a), Vec::<u32>::new());
        assert_eq!(w.held().len(), 1);
    }

    #[test]
    fn new_partition_replaces_and_heals_the_old() {
        let (mut w, [a, b]) = sinks(1);
        w.partition(vec![vec![a], vec![b]]);
        w.send_external(a, b, Msg::Pong(3));
        w.run_until_idle(100);
        assert_eq!(w.held().len(), 1);
        // Replacing the partition releases what the old one captured.
        w.partition(vec![vec![a, b]]);
        w.run_until_idle(100);
        assert_eq!(got(&w, b), vec![3]);
        // Replacement is not counted as an explicit heal.
        assert_eq!(w.fault_stats().heals, 0);
        assert_eq!(w.fault_stats().partitions, 2);
    }

    #[test]
    fn scripted_partition_fires_at_its_time() {
        let (mut w, [a, b]) = sinks(1);
        w.partition_at(SimTime::from_ticks(5), vec![vec![a], vec![b]]);
        w.fast_forward(4);
        w.send_external(a, b, Msg::Pong(1)); // before the cut
        w.fast_forward(10);
        w.send_external(a, b, Msg::Pong(2)); // after the cut
        w.run_until_idle(100);
        assert_eq!(got(&w, b), vec![1]);
        assert_eq!(w.held().len(), 1);
    }

    #[test]
    fn partition_outranks_rules_installed_before_it() {
        let (mut w, [a, b]) = sinks(1);
        w.reorder(a, b, 1.0); // claims every a → b message: first rule wins
        w.partition(vec![vec![a], vec![b]]);
        for i in 0..10 {
            w.send_external(a, b, Msg::Pong(i));
        }
        w.run_until_idle(100);
        assert_eq!((w.net_stats().held, w.net_stats().delivered), (10, 0));

        // After the heal the link is the reorder rule's again: at p = 1 a
        // fresh send takes at least one extra tick, the released ten do not.
        w.heal_now();
        w.send_external(a, b, Msg::Pong(99));
        w.fast_forward(1);
        assert_eq!(got(&w, b), (0..10).collect::<Vec<u32>>());
        w.run_until_idle(100);
        assert_eq!(got(&w, b).last(), Some(&99));
    }

    #[test]
    fn clearing_the_rules_leaves_the_partition_in_force() {
        let (mut w, [a, b]) = sinks(1);
        w.partition(vec![vec![a], vec![b]]);
        w.adversary_mut().clear();
        w.send_external(a, b, Msg::Pong(1));
        w.run_until_idle(100);
        assert_eq!((w.held().len(), got(&w, b)), (1, vec![]));
    }

    #[test]
    fn at_a_tie_messages_and_crashes_run_before_partitions_and_heals() {
        let (mut w, sink, pong) = two_proc_world(1);
        // Scripted first, for the tick the ping is due at: it fires last.
        w.partition_at(SimTime::from_ticks(1), vec![vec![sink], vec![pong]]);
        w.send_external(sink, pong, Msg::Ping(1));
        w.run_until_idle(100);
        // The ping was delivered, and its reply — sent within tick 1, before
        // the cut applied — crossed; the next send on the link does not.
        assert_eq!(got(&w, sink), vec![2]);
        w.send_external(sink, pong, Msg::Ping(5));
        assert_eq!(w.held().len(), 1);

        // A heal scripted before a crash for the same tick still runs after.
        w.trace_mut().enable();
        w.heal_at(SimTime::from_ticks(9));
        w.crash_at(pong, SimTime::from_ticks(9));
        w.run_until_idle(100);
        let kinds: Vec<_> = w.trace().events().iter().map(|e| &e.kind).collect();
        use TraceEventKind::{Crashed, DeadLetter, Released};
        assert!(
            matches!(kinds[..], [Crashed(_), Released(_), DeadLetter(_)]),
            "{kinds:?}"
        );
    }

    #[test]
    fn reorder_delays_but_loses_nothing() {
        let (mut w, [a, b]) = sinks(3);
        w.reorder(a, b, 0.7);
        for i in 0..40 {
            w.send_external(a, b, Msg::Pong(i));
            w.fast_forward(1);
        }
        w.run_until_idle(1_000);
        let delivered = got(&w, b);
        assert_eq!(delivered.len(), 40, "reordering must not lose messages");
        let mut sorted = delivered.clone();
        sorted.sort_unstable();
        assert_ne!(delivered, sorted, "some pair should arrive out of order");
    }

    #[test]
    fn crash_and_byzantine_are_counted() {
        let (mut w, [a, b]) = sinks(1);
        w.crash_at(a, SimTime::from_ticks(5));
        w.set_byzantine(b, Box::new(crate::Mute));
        assert_eq!(w.fault_stats().crashes, 0, "counted when applied");
        w.fast_forward(10);
        assert_eq!(w.fault_stats().crashes, 1);
        assert_eq!(w.fault_stats().byzantine, 1);
        assert_eq!(w.status(a), ProcessStatus::Crashed);
    }

    #[test]
    fn run_until_sees_scripted_events() {
        let (mut w, [a, b]) = sinks(1);
        w.partition(vec![vec![a], vec![b]]);
        w.heal_at(SimTime::from_ticks(20));
        w.send_external(a, b, Msg::Pong(5));
        let hit = w.run_until(|w| !got(w, b).is_empty(), 1_000);
        assert!(hit, "run_until must fire the scripted heal on the way");
    }
}
