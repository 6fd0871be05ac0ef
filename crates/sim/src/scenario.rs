//! A seeded, declarative scenario builder over [`World`].
//!
//! Tests and experiments used to hand-wire every fault: install an adversary
//! rule here, schedule a crash there, remember to release held messages at
//! the right moment. [`Scenario`] packages the recurring shapes — network
//! partitions with later heals, lossy or reordering links, timed crashes,
//! Byzantine replacement — behind one chainable builder that compiles down
//! to the existing [`World`] / [`crate::Adversary`] / [`crate::LatencyModel`]
//! primitives:
//!
//! ```
//! use vrr_sim::{from_fn, Scenario, SimTime};
//!
//! #[derive(Clone, Debug)]
//! struct Ping;
//! impl vrr_sim::SimMessage for Ping {
//!     fn wire_size(&self) -> usize { 1 }
//! }
//!
//! let mut sc: Scenario<Ping> = Scenario::seed(42);
//! let a = sc.spawn_named("a", from_fn(|from, _m: Ping, ctx| ctx.send(from, Ping)));
//! let b = sc.spawn_named("b", from_fn(|_, _m: Ping, _ctx| {}));
//! sc.start()
//!     .partition(vec![vec![a], vec![b]])
//!     .heal_at(SimTime::from_ticks(10))
//!     .crash(b, SimTime::from_ticks(50));
//! sc.world_mut().send_external(b, a, Ping);
//! sc.run_until_idle(1_000);
//! assert!(sc.now() >= SimTime::from_ticks(10)); // the heal fired
//! ```
//!
//! Everything is deterministic: the same seed and the same builder calls
//! produce byte-identical runs, including the probabilistic [`drop_rate`]
//! and [`reorder`] links (each derives its own RNG from the scenario seed).
//!
//! [`drop_rate`]: Scenario::drop_rate
//! [`reorder`]: Scenario::reorder

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::adversary::{Action, RuleId};
use crate::latency::LatencyModel;
use crate::process::{Automaton, ProcessId, SimMessage};
use crate::time::SimTime;
use crate::trace::NetStats;
use crate::world::{Quiescence, World};

/// Counters for the scripted faults a scenario injected so far.
///
/// These complement [`NetStats`] (which counts messages): a metrics layer
/// can export both to make a run's fault script observable next to its
/// traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScenarioStats {
    /// Partitions applied (scripted or immediate).
    pub partitions: u64,
    /// Heals applied.
    pub heals: u64,
    /// Crashes scheduled or applied through the scenario.
    pub crashes: u64,
    /// Processes turned Byzantine through the scenario.
    pub byzantine: u64,
    /// Probabilistic drop rules installed.
    pub drop_rules: u64,
    /// Probabilistic reorder rules installed.
    pub reorder_rules: u64,
}

/// A scripted action waiting for its time on the scenario timeline.
#[derive(Debug)]
enum ScriptedEvent {
    Partition(Vec<Vec<ProcessId>>),
    Heal,
}

/// The currently applied partition: its adversary rule plus the island
/// assignment (needed again at heal time to release exactly the messages
/// the partition captured).
#[derive(Debug)]
struct PartitionState {
    rule: RuleId,
    islands: Vec<Vec<ProcessId>>,
}

/// Which island a process belongs to under `islands`; processes not listed
/// in any group share one implicit "rest" island, so `partition(vec![g])`
/// cuts `g` off from everything else.
fn island_of(islands: &[Vec<ProcessId>], pid: ProcessId) -> usize {
    islands
        .iter()
        .position(|g| g.contains(&pid))
        .unwrap_or(usize::MAX)
}

/// A seeded, declarative fault-scenario builder over a [`World`].
///
/// Immediate actions ([`partition`], [`byzantine`], [`drop_rate`],
/// [`reorder`]) take effect as soon as they are called; timed actions
/// ([`heal_at`], [`partition_at`], [`crash`]) go onto an internal timeline
/// and fire while the scenario is driven with [`step`], [`fast_forward`],
/// [`run_until`] or [`run_until_idle`]. Driving the inner [`World`]
/// directly bypasses the timeline, so prefer the scenario's own drivers
/// once timed actions are scripted.
///
/// [`partition`]: Scenario::partition
/// [`byzantine`]: Scenario::byzantine
/// [`drop_rate`]: Scenario::drop_rate
/// [`reorder`]: Scenario::reorder
/// [`heal_at`]: Scenario::heal_at
/// [`partition_at`]: Scenario::partition_at
/// [`crash`]: Scenario::crash
/// [`step`]: Scenario::step
/// [`fast_forward`]: Scenario::fast_forward
/// [`run_until`]: Scenario::run_until
/// [`run_until_idle`]: Scenario::run_until_idle
#[derive(Debug)]
pub struct Scenario<M: SimMessage> {
    world: World<M>,
    seed: u64,
    rule_seq: u64,
    /// Scripted events in (time, insertion) order. Small; scanned linearly.
    timeline: Vec<(SimTime, u64, ScriptedEvent)>,
    timeline_seq: u64,
    partition: Option<PartitionState>,
    stats: ScenarioStats,
}

impl<M: SimMessage> Scenario<M> {
    /// A fresh scenario whose world (and every probabilistic link rule
    /// derived later) is seeded from `seed`.
    pub fn seed(seed: u64) -> Self {
        Scenario {
            world: World::new(seed),
            seed,
            rule_seq: 0,
            timeline: Vec::new(),
            timeline_seq: 0,
            partition: None,
            stats: ScenarioStats::default(),
        }
    }

    /// Replaces the latency model of the underlying world.
    pub fn latency(&mut self, model: impl LatencyModel<M> + 'static) -> &mut Self {
        self.world.set_latency(model);
        self
    }

    /// The underlying world, read-only.
    pub fn world(&self) -> &World<M> {
        &self.world
    }

    /// The underlying world. Driving it directly bypasses the scenario
    /// timeline; use the scenario's own drivers when timed actions are
    /// scripted.
    pub fn world_mut(&mut self) -> &mut World<M> {
        &mut self.world
    }

    /// Spawns a process into the world (see [`World::spawn`]).
    pub fn spawn(&mut self, automaton: Box<dyn Automaton<M>>) -> ProcessId {
        self.world.spawn(automaton)
    }

    /// Spawns a named process into the world (see [`World::spawn_named`]).
    pub fn spawn_named(
        &mut self,
        name: impl Into<String>,
        automaton: Box<dyn Automaton<M>>,
    ) -> ProcessId {
        self.world.spawn_named(name, automaton)
    }

    /// Schedules every process's start step (see [`World::start`]).
    pub fn start(&mut self) -> &mut Self {
        self.world.start();
        self
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// Network counters of the underlying world.
    pub fn net_stats(&self) -> NetStats {
        self.world.stats()
    }

    /// Counters for the faults this scenario injected.
    pub fn stats(&self) -> ScenarioStats {
        self.stats
    }

    // ---- fault script --------------------------------------------------

    /// Partitions the network into islands, immediately.
    ///
    /// Each group in `groups` is one island; processes not listed share one
    /// implicit "rest" island (so `partition(vec![g])` cuts `g` off from
    /// everything else). Messages crossing island boundaries are held in
    /// transit — the paper's "remain in transit" asynchrony — until a heal
    /// releases them. Applying a new partition first heals the old one.
    pub fn partition(&mut self, groups: Vec<Vec<ProcessId>>) -> &mut Self {
        self.apply_partition(groups);
        self
    }

    /// Schedules a [`Scenario::partition`] for time `at`.
    pub fn partition_at(&mut self, at: SimTime, groups: Vec<Vec<ProcessId>>) -> &mut Self {
        self.push_scripted(at, ScriptedEvent::Partition(groups));
        self
    }

    /// Heals the current partition immediately: removes its rule and
    /// releases every held message that crossed its island boundaries.
    /// A no-op if no partition is applied.
    pub fn heal_now(&mut self) -> &mut Self {
        self.apply_heal();
        self
    }

    /// Schedules a heal of the partition in force at time `at`.
    pub fn heal_at(&mut self, at: SimTime) -> &mut Self {
        self.push_scripted(at, ScriptedEvent::Heal);
        self
    }

    /// Makes the directed link `from → to` lossy: each message is dropped
    /// with probability `p`, deterministically per scenario seed.
    ///
    /// Dropping is only sound against crashed processes or in experiments
    /// that model lossy behaviour deliberately — the paper assumes reliable
    /// channels between correct processes (see [`Action::Drop`]).
    pub fn drop_rate(&mut self, from: ProcessId, to: ProcessId, p: f64) -> &mut Self {
        let mut rng = self.derive_rng();
        self.stats.drop_rules += 1;
        self.world
            .adversary_mut()
            .install(format!("drop {from:?}→{to:?} p={p}"), move |e| {
                (e.on_link(from, to) && rng.gen_bool(p)).then_some(Action::Drop)
            });
        self
    }

    /// Makes the directed link `from → to` reorder messages: each message
    /// is delayed by a random 1–4 extra ticks with probability `p`, so later
    /// sends can overtake earlier ones. Deterministic per scenario seed.
    pub fn reorder(&mut self, from: ProcessId, to: ProcessId, p: f64) -> &mut Self {
        let mut rng = self.derive_rng();
        self.stats.reorder_rules += 1;
        self.world
            .adversary_mut()
            .install(format!("reorder {from:?}→{to:?} p={p}"), move |e| {
                (e.on_link(from, to) && rng.gen_bool(p))
                    .then(|| Action::DeliverAfter(rng.gen_range(1u64..=4)))
            });
        self
    }

    /// Schedules a crash of `pid` at time `at` (see [`World::schedule_crash`]).
    pub fn crash(&mut self, pid: ProcessId, at: SimTime) -> &mut Self {
        self.stats.crashes += 1;
        self.world.schedule_crash(pid, at);
        self
    }

    /// Crashes `pid` immediately (see [`World::crash`]).
    pub fn crash_now(&mut self, pid: ProcessId) -> &mut Self {
        self.stats.crashes += 1;
        self.world.crash(pid);
        self
    }

    /// Replaces `pid`'s automaton with a malicious one, immediately
    /// (see [`World::set_byzantine`]).
    pub fn byzantine(&mut self, pid: ProcessId, automaton: Box<dyn Automaton<M>>) -> &mut Self {
        self.stats.byzantine += 1;
        self.world.set_byzantine(pid, automaton);
        self
    }

    /// Holds every message on the directed link `from → to` (see
    /// [`crate::Adversary::hold_link`]). Returns the rule handle.
    pub fn hold_link(&mut self, from: ProcessId, to: ProcessId) -> RuleId {
        self.world.adversary_mut().hold_link(from, to)
    }

    /// Removes an adversary rule (see [`crate::Adversary::remove`]).
    pub fn remove_rule(&mut self, id: RuleId) -> bool {
        self.world.adversary_mut().remove(id)
    }

    /// Releases every held message (see [`World::release_all`]).
    pub fn release_all(&mut self) -> usize {
        self.world.release_all()
    }

    // ---- drivers ---------------------------------------------------------

    /// Processes the next pending event — a world event or a scripted
    /// scenario action, whichever is earlier (ties: world first). Returns
    /// `false` when neither remains.
    pub fn step(&mut self) -> bool {
        match (self.next_scripted_at(), self.world.next_event_at()) {
            (Some(st), wt) if wt.is_none_or(|w| st <= w) => {
                // World events at exactly `st` run first, then the script.
                self.world.run_until_time(st);
                self.fire_due();
                true
            }
            (_, Some(_)) => self.world.step(),
            (Some(_), None) => unreachable!("guard above covers this arm"),
            (None, None) => false,
        }
    }

    /// Advances simulation time by `ticks`, processing every world event
    /// and scripted action due on the way.
    pub fn fast_forward(&mut self, ticks: u64) -> &mut Self {
        let target = self.world.now() + ticks;
        loop {
            let next = match (self.next_scripted_at(), self.world.next_event_at()) {
                (Some(s), Some(w)) => Some(s.min(w)),
                (s, w) => s.or(w),
            };
            match next {
                Some(t) if t <= target => {
                    self.step();
                }
                _ => break,
            }
        }
        self.world.run_until_time(target);
        self
    }

    /// Drives the run until `pred` holds (checked after every step), all
    /// events and scripted actions drain, or `limit` steps were processed.
    /// Returns whether `pred` held.
    pub fn run_until(&mut self, mut pred: impl FnMut(&World<M>) -> bool, limit: u64) -> bool {
        if pred(&self.world) {
            return true;
        }
        let mut steps = 0;
        while steps < limit && self.step() {
            steps += 1;
            if pred(&self.world) {
                return true;
            }
        }
        false
    }

    /// Drives the run until every world event and scripted action drains,
    /// or `limit` steps were processed.
    pub fn run_until_idle(&mut self, limit: u64) -> Quiescence {
        let mut steps = 0;
        while steps < limit {
            if !self.step() {
                return Quiescence {
                    steps,
                    drained: true,
                    held: self.world.held().len(),
                };
            }
            steps += 1;
        }
        Quiescence {
            steps,
            drained: self.world.next_event_at().is_none() && self.timeline.is_empty(),
            held: self.world.held().len(),
        }
    }

    // ---- internals -------------------------------------------------------

    /// A fresh RNG for one probabilistic rule, derived from the scenario
    /// seed and a per-rule counter so rules are independent streams.
    fn derive_rng(&mut self) -> SmallRng {
        let n = self.rule_seq;
        self.rule_seq += 1;
        SmallRng::seed_from_u64(self.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    fn push_scripted(&mut self, at: SimTime, event: ScriptedEvent) {
        assert!(at >= self.world.now(), "cannot script an event in the past");
        let seq = self.timeline_seq;
        self.timeline_seq += 1;
        self.timeline.push((at, seq, event));
    }

    fn next_scripted_at(&self) -> Option<SimTime> {
        self.timeline.iter().map(|&(at, _, _)| at).min()
    }

    /// Applies every scripted event due at or before the current time, in
    /// (time, insertion) order.
    fn fire_due(&mut self) {
        loop {
            let now = self.world.now();
            let due = self
                .timeline
                .iter()
                .enumerate()
                .filter(|(_, &(at, _, _))| at <= now)
                .min_by_key(|(_, &(at, seq, _))| (at, seq))
                .map(|(i, _)| i);
            let Some(i) = due else { break };
            let (_, _, event) = self.timeline.remove(i);
            match event {
                ScriptedEvent::Partition(groups) => self.apply_partition(groups),
                ScriptedEvent::Heal => self.apply_heal(),
            }
        }
    }

    fn apply_partition(&mut self, groups: Vec<Vec<ProcessId>>) {
        self.apply_heal_quietly();
        let islands = groups.clone();
        let rule = self
            .world
            .adversary_mut()
            .install("scenario partition", move |e| {
                (island_of(&islands, e.from) != island_of(&islands, e.to)).then_some(Action::Hold)
            });
        self.partition = Some(PartitionState {
            rule,
            islands: groups,
        });
        self.stats.partitions += 1;
    }

    fn apply_heal(&mut self) {
        if self.apply_heal_quietly() {
            self.stats.heals += 1;
        }
    }

    /// Removes the partition rule and releases what it captured, without
    /// counting a heal (partition replacement heals implicitly).
    fn apply_heal_quietly(&mut self) -> bool {
        let Some(state) = self.partition.take() else {
            return false;
        };
        self.world.adversary_mut().remove(state.rule);
        let islands = state.islands;
        self.world
            .release_held(|e| island_of(&islands, e.from) != island_of(&islands, e.to));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byzantine::from_fn;
    use crate::process::Context;

    #[derive(Clone, Debug, PartialEq)]
    struct Ping(u32);

    impl SimMessage for Ping {
        fn wire_size(&self) -> usize {
            4
        }
    }

    /// A process that records what it receives.
    struct Sink {
        got: Vec<u32>,
    }

    impl Automaton<Ping> for Sink {
        fn on_message(&mut self, _from: ProcessId, msg: Ping, _ctx: &mut Context<'_, Ping>) {
            self.got.push(msg.0);
        }
    }

    fn sink() -> Box<dyn Automaton<Ping>> {
        Box::new(Sink { got: Vec::new() })
    }

    fn got(sc: &Scenario<Ping>, pid: ProcessId) -> Vec<u32> {
        sc.world().inspect(pid, |s: &Sink| s.got.clone())
    }

    #[test]
    fn partition_holds_and_heal_releases() {
        let mut sc: Scenario<Ping> = Scenario::seed(1);
        let a = sc.spawn_named("a", sink());
        let b = sc.spawn_named("b", sink());
        sc.start();
        sc.partition(vec![vec![a], vec![b]])
            .heal_at(SimTime::from_ticks(10));
        sc.world_mut().send_external(a, b, Ping(7));
        sc.run_until_idle(100);
        assert_eq!(got(&sc, b), vec![7]);
        assert!(sc.now() >= SimTime::from_ticks(10));
        assert_eq!(sc.stats().partitions, 1);
        assert_eq!(sc.stats().heals, 1);
    }

    #[test]
    fn unlisted_processes_form_the_rest_island() {
        let mut sc: Scenario<Ping> = Scenario::seed(1);
        let a = sc.spawn_named("a", sink());
        let b = sc.spawn_named("b", sink());
        let c = sc.spawn_named("c", sink());
        sc.start();
        sc.partition(vec![vec![a]]);
        // b and c are both in the implicit rest island: connected.
        sc.world_mut().send_external(b, c, Ping(1));
        // a is cut off from b.
        sc.world_mut().send_external(b, a, Ping(2));
        sc.run_until_idle(100);
        assert_eq!(got(&sc, c), vec![1]);
        assert_eq!(got(&sc, a), Vec::<u32>::new());
        assert_eq!(sc.world().held().len(), 1);
    }

    #[test]
    fn new_partition_replaces_and_heals_the_old() {
        let mut sc: Scenario<Ping> = Scenario::seed(1);
        let a = sc.spawn_named("a", sink());
        let b = sc.spawn_named("b", sink());
        sc.start();
        sc.partition(vec![vec![a], vec![b]]);
        sc.world_mut().send_external(a, b, Ping(3));
        sc.run_until_idle(100);
        assert_eq!(sc.world().held().len(), 1);
        // Replacing the partition releases what the old one captured.
        sc.partition(vec![vec![a, b]]);
        sc.run_until_idle(100);
        assert_eq!(got(&sc, b), vec![3]);
        // Replacement is not counted as an explicit heal.
        assert_eq!(sc.stats().heals, 0);
        assert_eq!(sc.stats().partitions, 2);
    }

    #[test]
    fn scripted_partition_fires_at_its_time() {
        let mut sc: Scenario<Ping> = Scenario::seed(1);
        let a = sc.spawn_named("a", sink());
        let b = sc.spawn_named("b", sink());
        sc.start();
        sc.partition_at(SimTime::from_ticks(5), vec![vec![a], vec![b]]);
        sc.fast_forward(4);
        sc.world_mut().send_external(a, b, Ping(1)); // before the cut
        sc.fast_forward(10);
        sc.world_mut().send_external(a, b, Ping(2)); // after the cut
        sc.run_until_idle(100);
        assert_eq!(got(&sc, b), vec![1]);
        assert_eq!(sc.world().held().len(), 1);
    }

    #[test]
    fn drop_rate_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut sc: Scenario<Ping> = Scenario::seed(seed);
            let a = sc.spawn_named("a", sink());
            let b = sc.spawn_named("b", sink());
            sc.start();
            sc.drop_rate(a, b, 0.5);
            for i in 0..50 {
                sc.world_mut().send_external(a, b, Ping(i));
            }
            sc.run_until_idle(1_000);
            got(&sc, b)
        };
        assert_eq!(run(9), run(9));
        let delivered = run(9);
        assert!(!delivered.is_empty() && delivered.len() < 50);
    }

    #[test]
    fn reorder_delays_but_loses_nothing() {
        let mut sc: Scenario<Ping> = Scenario::seed(3);
        let a = sc.spawn_named("a", sink());
        let b = sc.spawn_named("b", sink());
        sc.start();
        sc.reorder(a, b, 0.7);
        for i in 0..40 {
            sc.world_mut().send_external(a, b, Ping(i));
            sc.fast_forward(1);
        }
        sc.run_until_idle(1_000);
        let delivered = got(&sc, b);
        assert_eq!(delivered.len(), 40, "reordering must not lose messages");
        let mut sorted = delivered.clone();
        sorted.sort_unstable();
        assert_ne!(delivered, sorted, "some pair should arrive out of order");
    }

    #[test]
    fn crash_and_byzantine_are_counted() {
        let mut sc: Scenario<Ping> = Scenario::seed(1);
        let a = sc.spawn_named("a", sink());
        let b = sc.spawn_named("b", sink());
        sc.start();
        sc.crash(a, SimTime::from_ticks(5));
        sc.byzantine(b, from_fn(|from, _m: Ping, ctx| ctx.send(from, Ping(999))));
        sc.fast_forward(10);
        assert_eq!(sc.stats().crashes, 1);
        assert_eq!(sc.stats().byzantine, 1);
        assert_eq!(sc.world().status(a), crate::process::ProcessStatus::Crashed);
    }

    #[test]
    fn run_until_sees_scripted_events() {
        let mut sc: Scenario<Ping> = Scenario::seed(1);
        let a = sc.spawn_named("a", sink());
        let b = sc.spawn_named("b", sink());
        sc.start();
        sc.partition(vec![vec![a], vec![b]])
            .heal_at(SimTime::from_ticks(20));
        sc.world_mut().send_external(a, b, Ping(5));
        let hit = sc.run_until(|w| w.inspect(b, |s: &Sink| !s.got.is_empty()), 1_000);
        assert!(hit, "run_until must fire the scripted heal on the way");
    }
}
