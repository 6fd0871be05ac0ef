//! A storage-aware scenario harness: one deployed register protocol under a
//! scripted fault scenario, with every operation metered.
//!
//! [`StorageScenario`] is the one register host, [`Registers`], over a
//! seeded [`vrr_sim::World`] (messages and the fault script — partitions,
//! heals, reordering links, timed crashes — on one event queue). It adds
//! only what a simulated world adds: the fault script by object index,
//! [`Op`] handles, driving the world until an operation completes, the
//! completion count, and the world's network and fault gauges in its
//! metrics snapshot. Everything else — the clock, the latency model, link
//! rules, heals, the drivers — is the world's own API, reached through
//! [`StorageScenario::world`] / [`StorageScenario::world_mut`].
//!
//! It is the one way an operation enters a simulated world: the metered
//! [`Registers::write_op`] / [`Registers::read_op`] value the thread
//! runtime submits too, given to [`World::submit`]. Its `done` fills the
//! handle's slot within the step that completed it, and the meter records
//! its rounds and latency (sim ticks from invocation to completion) and a
//! READ's fast-path hit or fallback then, under the canonical `vrr_*`
//! names, however late a driver polls. `start_*` submit and return the
//! handle, [`Op::poll`] returns the report once it landed, and
//! [`StorageScenario::write`] / [`StorageScenario::read`] are the blocking
//! shims over them. Schedule runners (`vrr-workload`'s `SimCase`) keep
//! several handles in flight and look at them when
//! [`StorageScenario::completions`] moves; tests say what they mean:
//!
//! ```
//! use vrr_core::{ProtocolKind, StorageConfig, StorageScenario};
//! use vrr_core::attackers::AttackerKind;
//!
//! let cfg = StorageConfig::optimal(1, 1, 2); // S = 4: t = 1, b = 1
//! let mut sc = StorageScenario::deploy(ProtocolKind::RegularOptimized, cfg, 42);
//! sc.attack_object(0, AttackerKind::Inflator, 0xBAD_u64);
//! sc.write(7);
//! assert_eq!(sc.read(0).value, Some(7)); // the liar cannot win
//!
//! let snapshot = sc.metrics_snapshot();
//! assert!(snapshot.to_prometheus().contains("vrr_reader_rounds_count 1"));
//! ```
//!
//! The thread runtime's `StorageCluster::metrics_snapshot()` comes from the
//! same meter and inspection, so assertions and dashboards carry over
//! between the simulator and the thread runtime.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use vrr_sim::{Automaton, InvokeError, ProcessId, SimClock, SimTime, World};

use crate::attackers::AttackerKind;
use crate::config::StorageConfig;
use crate::group::Deployment;
use crate::harness::{RegisterProtocol, Registers};
use crate::metrics::{self, names, Registry};
use crate::reader::ReadReport;
use crate::types::Value;
use crate::writer::WriteReport;

/// World events a blocking [`StorageScenario::write`] / [`read`] drives
/// before giving up — generous for any single operation in these protocols.
///
/// [`read`]: StorageScenario::read
const BLOCKING_STEP_LIMIT: u64 = 200_000;

/// Where a submitted operation's completion lands: its `done` fills it.
type Slot<R> = Arc<Mutex<Option<Result<R, InvokeError>>>>;

const SLOT_LOCK: &str = "an op's slot is held only to fill or clone it";

/// An operation in flight, from [`StorageScenario::start_write`] or
/// [`StorageScenario::start_read`]: the slot its `done` fills.
#[derive(Debug)]
pub struct Op<R> {
    slot: Slot<R>,
    invoked_at: SimTime,
}

/// A WRITE in flight.
pub type WriteOp = Op<WriteReport>;

/// A READ in flight.
pub type ReadOp<V> = Op<ReadReport<V>>;

impl<R: Clone> Op<R> {
    /// When the operation was invoked.
    pub fn invoked_at(&self) -> SimTime {
        self.invoked_at
    }

    /// The report once the operation completed, `None` while it is in
    /// flight.
    ///
    /// # Panics
    ///
    /// Panics if the operation failed: its client was crashed first.
    pub fn poll(&self) -> Option<R> {
        let outcome = self.slot.lock().expect(SLOT_LOCK).clone()?;
        Some(outcome.unwrap_or_else(|e| panic!("operation failed: {e}")))
    }
}

/// A deployed register protocol under a scripted, seeded fault scenario.
///
/// See the module-level docs above for the layering and the operations.
/// All fault-script methods chain (`&mut self -> &mut Self`); the blocking
/// [`StorageScenario::write`] and [`StorageScenario::read`] fire the
/// scripted events that come due on the way. A client runs one operation
/// at a time: one started on a busy client waits for those started before
/// it.
pub struct StorageScenario<V: Value, P: RegisterProtocol<V>> {
    registers: Registers<V, P, SimClock>,
    world: World<P::Msg>,
    /// Completions landed so far, bumped by every operation's `done`.
    completions: Arc<AtomicU64>,
}

impl<V: Value, P: RegisterProtocol<V>> StorageScenario<V, P> {
    /// Deploys `protocol` at sizing `cfg` into a fresh world seeded with
    /// `seed`, and starts it.
    pub fn deploy(protocol: P, cfg: StorageConfig, seed: u64) -> Self {
        let mut world = World::new(seed);
        let registers = Registers::spawn(protocol, cfg, 1, world.clock(), |_, role, automaton| {
            world.spawn_named(role.to_string(), automaton)
        });
        world.start();
        StorageScenario {
            registers,
            world,
            completions: Arc::default(),
        }
    }

    // ---- topology accessors ----------------------------------------------

    /// The deployment (object/writer/reader process ids).
    pub fn dep(&self) -> &Deployment {
        &self.registers.groups()[0]
    }

    /// Process id of base object `idx`.
    pub fn object(&self, idx: usize) -> ProcessId {
        self.dep().objects[idx]
    }

    /// Process id of reader `j`.
    pub fn reader(&self, j: usize) -> ProcessId {
        self.dep().readers[j]
    }

    /// Process id of the writer.
    pub fn writer(&self) -> ProcessId {
        self.dep().writer
    }

    /// The world, read-only: its clock, counters, trace and automata.
    pub fn world(&self) -> &World<P::Msg> {
        &self.world
    }

    /// The world: latency model, link rules, heals, and the drivers
    /// (scripted faults sit on its one queue, so driving it fires them).
    pub fn world_mut(&mut self) -> &mut World<P::Msg> {
        &mut self.world
    }

    /// An alias of [`StorageScenario::world_mut`], kept only because
    /// `benchmark/src/counts.rs` names it; it goes with the next
    /// benchmark-only change.
    pub fn scenario_mut(&mut self) -> &mut World<P::Msg> {
        &mut self.world
    }

    // ---- fault script ------------------------------------------------------

    /// Partitions the given base objects away from everything else,
    /// immediately (see [`World::partition`]).
    pub fn partition_objects(&mut self, idxs: &[usize]) -> &mut Self {
        let group = idxs.iter().map(|&i| self.object(i)).collect();
        self.world.partition(vec![group]);
        self
    }

    /// Schedules a partition of the given base objects for time `at`.
    pub fn partition_objects_at(&mut self, at: SimTime, idxs: &[usize]) -> &mut Self {
        let group = idxs.iter().map(|&i| self.object(i)).collect();
        self.world.partition_at(at, vec![group]);
        self
    }

    /// Crashes base object `idx` immediately.
    pub fn crash_object(&mut self, idx: usize) -> &mut Self {
        self.world.crash(self.object(idx));
        self
    }

    /// Schedules a crash of base object `idx` at time `at`.
    pub fn crash_object_at(&mut self, idx: usize, at: SimTime) -> &mut Self {
        self.world.crash_at(self.object(idx), at);
        self
    }

    /// Crashes reader `j` immediately (a reader that stops participating —
    /// the case reader-ack GC's cap exists for).
    pub fn crash_reader(&mut self, j: usize) -> &mut Self {
        self.world.crash(self.reader(j));
        self
    }

    /// Replaces base object `idx` with an arbitrary Byzantine automaton.
    pub fn byzantine_object(
        &mut self,
        idx: usize,
        automaton: Box<dyn Automaton<P::Msg>>,
    ) -> &mut Self {
        self.world.set_byzantine(self.object(idx), automaton);
        self
    }

    /// Replaces base object `idx` with attacker `kind` from the catalogue,
    /// forging `forged` where the attack needs a fake value.
    ///
    /// # Panics
    ///
    /// Panics if the protocol has no attacker catalogue
    /// (see [`RegisterProtocol::corruptor`]).
    pub fn attack_object(&mut self, idx: usize, kind: AttackerKind, forged: V) -> &mut Self {
        let protocol = self.registers.protocol();
        let automaton = protocol
            .corruptor(kind, self.registers.config(), forged)
            .unwrap_or_else(|| panic!("{} has no attacker catalogue", protocol.name()));
        self.byzantine_object(idx, automaton)
    }

    // ---- operations -------------------------------------------------------

    /// Submits `WRITE(value)` at the writer without driving the world.
    pub fn start_write(&mut self, value: V) -> WriteOp {
        let (op, done) = self.invoked_now();
        self.world.submit(self.registers.write_op(0, value, done));
        op
    }

    /// Submits `READ()` at reader `j` without driving the world.
    pub fn start_read(&mut self, j: usize) -> ReadOp<V> {
        let (op, done) = self.invoked_now();
        self.world.submit(self.registers.read_op(0, j, done));
        op
    }

    /// A handle for an operation invoked now, and the `done` that fills
    /// its slot and counts the completion.
    fn invoked_now<R: Send + 'static>(
        &self,
    ) -> (Op<R>, impl FnOnce(Result<R, InvokeError>) + Send + 'static) {
        let slot = Slot::default();
        let (filled, count) = (Arc::clone(&slot), Arc::clone(&self.completions));
        let done = move |outcome| {
            *filled.lock().expect(SLOT_LOCK) = Some(outcome);
            count.fetch_add(1, Ordering::Relaxed);
        };
        let invoked_at = self.world.now();
        (Op { slot, invoked_at }, done)
    }

    /// How many operations started here have completed so far — a
    /// driver with several in flight polls them when this moves.
    pub fn completions(&self) -> u64 {
        self.completions.load(Ordering::Relaxed)
    }

    /// Starts `WRITE(value)` and drives the world until it completes.
    ///
    /// # Panics
    ///
    /// Panics if the write does not complete within 200 000 world events
    /// — a wait-freedom violation unless the fault script cut the writer off
    /// from a quorum.
    pub fn write(&mut self, value: V) -> WriteReport {
        let op = self.start_write(value);
        self.drive_until(&op, "WRITE")
    }

    /// Starts `READ()` at reader `j` and drives the world until it
    /// completes.
    ///
    /// # Panics
    ///
    /// Panics if the read does not complete within 200 000 world events
    /// (see [`StorageScenario::write`]).
    pub fn read(&mut self, j: usize) -> ReadReport<V> {
        let op = self.start_read(j);
        self.drive_until(&op, "READ")
    }

    /// Drives the world until the `what` operation `op` has completed, and
    /// returns its report.
    fn drive_until<R: Clone>(&mut self, op: &Op<R>, what: &str) -> R {
        let landed = |_: &World<P::Msg>| op.slot.lock().expect(SLOT_LOCK).is_some();
        let done = self.world.run_until(landed, BLOCKING_STEP_LIMIT);
        assert!(done, "{what} failed to complete (wait-freedom violation?)");
        op.poll().expect("just completed")
    }

    // ---- observability -------------------------------------------------------

    /// `(object index, stored history length)` of every live object that
    /// keeps a history, in object order — [`Registers::inspect`], the
    /// thread host's inspection too: Byzantine-replaced and crashed objects
    /// are skipped, and a protocol whose objects keep no history (safe
    /// storage, the baselines) reports an empty list. Every inspection
    /// completes within its submission: an object runs no operation.
    pub fn history_lens(&mut self) -> Vec<(usize, usize)> {
        let (found, lens) = std::sync::mpsc::channel();
        let world = &mut self.world;
        let done = move |mut lens: Vec<_>| _ = found.send(lens.remove(0));
        self.registers.inspect(0..1, |op| world.submit(op), done);
        lens.recv()
            .expect("an inspection completes within its submission")
    }

    /// The largest stored history across this deployment's honest, live
    /// objects (0 if the protocol keeps no histories).
    pub fn max_history_len(&mut self) -> usize {
        self.history_lens()
            .into_iter()
            .map(|(_, len)| len)
            .max()
            .unwrap_or(0)
    }

    /// One deterministic snapshot of everything observable about this run:
    /// operation rounds/latency histograms and fast-path counters, network
    /// counters, the fault script and per-object history lengths — all
    /// under the canonical `vrr_*` names ([`metrics::names`]).
    pub fn metrics_snapshot(&mut self) -> Registry {
        let mut reg = self.registers.op_metrics();
        metrics::record_net_stats(&mut reg, &self.world.net_stats());
        metrics::record_scenario_stats(&mut reg, &self.world.fault_stats());
        reg.gauge_set(names::SCENARIO_TIME, &[], self.world.now().ticks());
        let held = self.world.held().len() as u64;
        reg.gauge_set(names::SCENARIO_HELD_MSGS, &[], held);
        metrics::record_history_lens(&mut reg, None, None, &self.history_lens());
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::ProtocolKind;
    use crate::types::Timestamp;

    fn reader_rounds_count(sc: &mut StorageScenario<u64, ProtocolKind>) -> u64 {
        let snap = sc.metrics_snapshot();
        snap.histogram(names::READER_ROUNDS, &[])
            .map_or(0, |h| h.count())
    }

    #[test]
    fn deploy_write_read_records_metrics() {
        let cfg = StorageConfig::optimal(1, 1, 2);
        let mut sc = StorageScenario::deploy(ProtocolKind::RegularOptimized, cfg, 7);
        let w = sc.write(11u64);
        assert_eq!((w.ts, w.rounds), (Timestamp(1), 2));
        sc.write(22u64);
        let r = sc.read(0);
        assert_eq!((r.value, r.rounds), (Some(22), 1));
        let snap = sc.metrics_snapshot();
        assert_eq!(
            snap.histogram(names::WRITER_ROUNDS, &[]).unwrap().count(),
            2
        );
        assert_eq!(
            snap.histogram(names::READER_ROUNDS, &[]).unwrap().count(),
            1
        );
        assert!(snap.histogram(names::READ_LATENCY, &[]).unwrap().sum() > 0);
        assert!(snap.counter(names::NET_SENT, &[]) > 0);
        // The quiet read returned on round 1: one hit, no fallback.
        assert_eq!(snap.counter(names::READER_FAST_HITS, &[]), 1);
        assert_eq!(snap.counter(names::READER_FAST_FALLBACKS, &[]), 0);
        assert_eq!(snap.gauge_values(names::OBJECT_HISTORY_LEN).len(), cfg.s);
    }

    #[test]
    fn attack_object_uses_the_protocol_catalogue() {
        let cfg = StorageConfig::optimal(1, 1, 1);
        let mut sc = StorageScenario::deploy(ProtocolKind::Safe, cfg, 3);
        sc.attack_object(1, AttackerKind::Inflator, 0xBAD_u64);
        sc.write(5u64);
        assert_eq!(sc.read(0).value, Some(5));
        let snap = sc.metrics_snapshot();
        assert_eq!(snap.counter(names::SCENARIO_BYZANTINE, &[]), 1);
        // Safe storage keeps no histories: no object reports one.
        assert!(sc.history_lens().is_empty());
    }

    #[test]
    fn partition_blocks_and_heal_unblocks_a_read() {
        // Fast sizing S = 5 (t = b = 1): a read needs S - t = 4 replies, so
        // partitioning two objects away stalls it until the heal fires.
        let cfg = StorageConfig::fast(1, 1, 1);
        let mut sc = StorageScenario::deploy(ProtocolKind::RegularOptimized, cfg, 9);
        sc.write(1u64);
        sc.partition_objects(&[0, 1]);
        sc.world_mut().heal_at(SimTime::from_ticks(500));
        let r = sc.read(0);
        assert_eq!(r.value, Some(1));
        assert!(
            sc.world().now() >= SimTime::from_ticks(500),
            "the read must have waited for the heal"
        );
        let snap = sc.metrics_snapshot();
        assert_eq!(snap.counter(names::SCENARIO_PARTITIONS, &[]), 1);
        assert_eq!(snap.counter(names::SCENARIO_HEALS, &[]), 1);
    }

    #[test]
    fn fast_path_hits_are_exported() {
        let cfg = StorageConfig::fast(1, 1, 1);
        let mut sc = StorageScenario::deploy(ProtocolKind::RegularOptimized, cfg, 5);
        sc.write(4u64);
        let r = sc.read(0);
        assert!(r.fast, "quiet read at fast sizing must take one round");
        let snap = sc.metrics_snapshot();
        assert_eq!(snap.counter(names::READER_FAST_HITS, &[]), 1);
        assert_eq!(snap.counter(names::READER_FAST_FALLBACKS, &[]), 0);
        assert_eq!(
            snap.histogram(names::READER_ROUNDS, &[])
                .unwrap()
                .cumulative_le(1),
            1
        );
    }

    #[test]
    fn a_read_is_metered_once_at_completion_however_late_it_is_polled() {
        // S = 4: with two objects partitioned away the read cannot gather
        // S - t = 3 replies.
        let cfg = StorageConfig::optimal(1, 1, 1);
        let mut sc = StorageScenario::deploy(ProtocolKind::RegularOptimized, cfg, 7);
        sc.write(1u64);
        sc.partition_objects(&[0, 1]);
        let op = sc.start_read(0);
        sc.world_mut().run_until_idle(100_000);
        assert!(op.poll().is_none(), "no quorum, no report");
        assert_eq!(reader_rounds_count(&mut sc), 0, "a pending read");

        sc.world_mut().heal_now();
        while sc.completions() < 2 {
            assert!(sc.world_mut().step(), "the read completes");
        }
        let completed = sc.world().now();
        // The driver looks only much later, and twice.
        sc.world_mut().run_until_idle(100_000);
        sc.world_mut().fast_forward(1_000);
        assert_eq!(op.poll().unwrap().value, Some(1));
        assert_eq!(op.poll().unwrap().value, Some(1));
        let snap = sc.metrics_snapshot();
        let latency = snap.histogram(names::READ_LATENCY, &[]).unwrap();
        let metered = (latency.count(), latency.sum());
        assert_eq!(metered, (1, completed - op.invoked_at()));
        assert_eq!(reader_rounds_count(&mut sc), 1);
    }

    #[test]
    fn a_write_and_a_read_in_flight_together_both_complete() {
        // S = 6 (t = 2, b = 1) with the whole fault budget spent: one
        // crashed object and one mute Byzantine one.
        let cfg = StorageConfig::optimal(2, 1, 2);
        let mut sc = StorageScenario::deploy(ProtocolKind::Regular, cfg, 7);
        assert_eq!(sc.read(1).value, None, "a fresh register reads ⊥");
        sc.crash_object(0)
            .byzantine_object(3, Box::new(vrr_sim::Mute));

        let w = sc.start_write(5u64);
        let r = sc.start_read(0);
        sc.world_mut().run_until_idle(100_000);
        assert_eq!(w.poll().unwrap().rounds, 2);
        let concurrent = r.poll().unwrap().value;
        assert!(concurrent.is_none() || concurrent == Some(5));
        assert_eq!(sc.read(0).value, Some(5));
    }

    #[test]
    #[should_panic(expected = "READ failed to complete (wait-freedom violation?)")]
    fn a_blocking_read_on_a_cut_off_reader_panics() {
        let cfg = StorageConfig::fast(1, 1, 1);
        let mut sc = StorageScenario::<u64, _>::deploy(ProtocolKind::RegularOptimized, cfg, 9);
        sc.partition_objects(&[0, 1]);
        sc.read(0);
    }
}
