//! A storage-aware scenario harness: one deployed register protocol under a
//! scripted fault scenario, with every operation metered.
//!
//! [`StorageScenario`] glues two layers together — a seeded
//! [`vrr_sim::World`] (messages and the fault script — partitions, heals,
//! reordering links, timed crashes — on one event queue) and a deployed
//! [`RegisterProtocol`] (objects, writer, readers) — and meters every
//! operation's rounds and latency (and each READ's fast-path hit or
//! fallback) in a [`metrics::Registry`] under the canonical `vrr_*` names.
//! It adds what only the deployment knows: which process is object `i`,
//! how to start an operation, what an attacker of this protocol looks like.
//! Everything else — the clock, the latency model, link rules, heals, the
//! drivers — is the world's own API, reached through
//! [`StorageScenario::world`] / [`StorageScenario::world_mut`].
//!
//! It is the one way an operation enters a simulated world, as the same
//! [`RegisterProtocol::write_op`] / [`RegisterProtocol::read_op`] value
//! the thread runtime submits, given to [`World::submit`]; its `done` fills
//! the handle's completion slot within the step that completed it.
//! `start_*` submit and return the handle, `poll_*` return the report once
//! it landed (recording its rounds and latency exactly once), and
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
//! The same snapshot shape — identical metric names — is produced by
//! `vrr-runtime`'s `StorageCluster::metrics_snapshot()`, so assertions and
//! dashboards carry over between the simulator and the thread runtime.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use vrr_sim::{Automaton, InvokeError, ProcessId, SimTime, World};

use crate::attackers::AttackerKind;
use crate::config::StorageConfig;
use crate::group::Deployment;
use crate::harness::RegisterProtocol;
use crate::metrics::{self, names, FastPathStats, Registry};
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

/// An operation in flight, from [`StorageScenario::start_write`] or
/// [`StorageScenario::start_read`]: the slot its `done` fills.
#[derive(Debug)]
pub struct Op<R> {
    slot: Slot<R>,
    invoked_at: SimTime,
    recorded: bool,
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

    /// The report once it landed, and whether this is its first poll;
    /// panics if the operation failed (its client was crashed).
    fn landed(&mut self) -> Option<(R, bool)> {
        let outcome = self.slot.lock().unwrap().clone()?;
        let report = outcome.unwrap_or_else(|e| panic!("operation failed: {e}"));
        Some((report, !std::mem::replace(&mut self.recorded, true)))
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
#[derive(Debug)]
pub struct StorageScenario<V: Value, P: RegisterProtocol<V>> {
    protocol: P,
    world: World<P::Msg>,
    dep: Deployment,
    ops: Registry,
    fast: FastPathStats,
    /// Completions landed so far, bumped by every operation's `done`.
    completions: Arc<AtomicU64>,
    _marker: PhantomData<V>,
}

impl<V: Value, P: RegisterProtocol<V>> StorageScenario<V, P> {
    /// Deploys `protocol` at sizing `cfg` into a fresh world seeded with
    /// `seed`, and starts it.
    pub fn deploy(protocol: P, cfg: StorageConfig, seed: u64) -> Self {
        let mut world = World::new(seed);
        let dep = protocol.deploy(cfg, &mut world);
        world.start();
        StorageScenario {
            protocol,
            world,
            dep,
            ops: Registry::new(),
            fast: FastPathStats::default(),
            completions: Arc::default(),
            _marker: PhantomData,
        }
    }

    // ---- topology accessors ----------------------------------------------

    /// The deployment (object/writer/reader process ids).
    pub fn dep(&self) -> &Deployment {
        &self.dep
    }

    /// Process id of base object `idx`.
    pub fn object(&self, idx: usize) -> ProcessId {
        self.dep.objects[idx]
    }

    /// Process id of reader `j`.
    pub fn reader(&self, j: usize) -> ProcessId {
        self.dep.readers[j]
    }

    /// Process id of the writer.
    pub fn writer(&self) -> ProcessId {
        self.dep.writer
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
        let group = idxs.iter().map(|&i| self.dep.objects[i]).collect();
        self.world.partition(vec![group]);
        self
    }

    /// Schedules a partition of the given base objects for time `at`.
    pub fn partition_objects_at(&mut self, at: SimTime, idxs: &[usize]) -> &mut Self {
        let group = idxs.iter().map(|&i| self.dep.objects[i]).collect();
        self.world.partition_at(at, vec![group]);
        self
    }

    /// Crashes base object `idx` immediately.
    pub fn crash_object(&mut self, idx: usize) -> &mut Self {
        self.world.crash(self.dep.objects[idx]);
        self
    }

    /// Schedules a crash of base object `idx` at time `at`.
    pub fn crash_object_at(&mut self, idx: usize, at: SimTime) -> &mut Self {
        self.world.crash_at(self.dep.objects[idx], at);
        self
    }

    /// Crashes reader `j` immediately (a reader that stops participating —
    /// the case reader-ack GC's cap exists for).
    pub fn crash_reader(&mut self, j: usize) -> &mut Self {
        self.world.crash(self.dep.readers[j]);
        self
    }

    /// Replaces base object `idx` with an arbitrary Byzantine automaton.
    pub fn byzantine_object(
        &mut self,
        idx: usize,
        automaton: Box<dyn Automaton<P::Msg>>,
    ) -> &mut Self {
        self.world.set_byzantine(self.dep.objects[idx], automaton);
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
        let automaton = self
            .protocol
            .corruptor(kind, self.dep.cfg, forged)
            .unwrap_or_else(|| panic!("{} has no attacker catalogue", self.protocol.name()));
        self.byzantine_object(idx, automaton)
    }

    // ---- operations -------------------------------------------------------

    /// Submits `WRITE(value)` at the writer without driving the world.
    pub fn start_write(&mut self, value: V) -> WriteOp {
        let (op, done) = self.invoked_now();
        self.world
            .submit(self.protocol.write_op(&self.dep, value, done));
        op
    }

    /// The WRITE's report once it completed, `None` while it is in flight.
    /// The first completed poll records its rounds and latency (invocation
    /// to now); later polls return the report again and record nothing.
    /// Panics if the writer was crashed before the WRITE completed.
    pub fn poll_write(&mut self, op: &mut WriteOp) -> Option<WriteReport> {
        let (report, first) = op.landed()?;
        if first {
            let names = (names::WRITER_ROUNDS, names::WRITE_LATENCY);
            self.observe_completion(names, report.rounds, op.invoked_at);
        }
        Some(report)
    }

    /// Submits `READ()` at reader `j` without driving the world.
    pub fn start_read(&mut self, j: usize) -> ReadOp<V> {
        let (op, done) = self.invoked_now();
        self.world.submit(self.protocol.read_op(&self.dep, j, done));
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
            *filled.lock().unwrap() = Some(outcome);
            count.fetch_add(1, Ordering::Relaxed);
        };
        let invoked_at = self.world.now();
        let op = Op {
            slot,
            invoked_at,
            recorded: false,
        };
        (op, done)
    }

    /// The READ's report once it completed, `None` while it is in flight;
    /// records exactly once, like [`StorageScenario::poll_write`], and
    /// counts the READ as a fast-path hit or fallback. Panics if the reader
    /// was crashed before the READ completed.
    pub fn poll_read(&mut self, op: &mut ReadOp<V>) -> Option<ReadReport<V>> {
        let (report, first) = op.landed()?;
        if first {
            let names = (names::READER_ROUNDS, names::READ_LATENCY);
            self.observe_completion(names, report.rounds, op.invoked_at);
            self.fast.count(&report);
        }
        Some(report)
    }

    /// How many operations started here have completed so far — a
    /// driver with several in flight polls them when this moves.
    pub fn completions(&self) -> u64 {
        self.completions.load(Ordering::Relaxed)
    }

    /// Records an operation completing now under the `(rounds, latency)`
    /// histogram names.
    fn observe_completion(
        &mut self,
        names: (&'static str, &'static str),
        rounds: u32,
        invoked_at: SimTime,
    ) {
        let latency = self.world.now().ticks() - invoked_at.ticks();
        self.ops.observe(names.0, &[], u64::from(rounds));
        self.ops.observe(names.1, &[], latency);
    }

    /// Starts `WRITE(value)` and drives the world until it completes.
    ///
    /// # Panics
    ///
    /// Panics if the write does not complete within 200 000 world events
    /// — a wait-freedom violation unless the fault script cut the writer off
    /// from a quorum.
    pub fn write(&mut self, value: V) -> WriteReport {
        let mut op = self.start_write(value);
        self.drive_until(&op.slot, "WRITE");
        self.poll_write(&mut op).expect("just completed")
    }

    /// Starts `READ()` at reader `j` and drives the world until it
    /// completes.
    ///
    /// # Panics
    ///
    /// Panics if the read does not complete within 200 000 world events
    /// (see [`StorageScenario::write`]).
    pub fn read(&mut self, j: usize) -> ReadReport<V> {
        let mut op = self.start_read(j);
        self.drive_until(&op.slot, "READ");
        self.poll_read(&mut op).expect("just completed")
    }

    /// Drives the world until the `what` operation completing into `slot`
    /// has completed.
    fn drive_until<R>(&mut self, slot: &Slot<R>, what: &str) {
        let landed = |_: &World<P::Msg>| slot.lock().unwrap().is_some();
        let done = self.world.run_until(landed, BLOCKING_STEP_LIMIT);
        assert!(done, "{what} failed to complete (wait-freedom violation?)");
    }

    // ---- observability -------------------------------------------------------

    /// Per-object stored history lengths, if the protocol keeps histories
    /// (Byzantine-replaced and crashed objects are skipped).
    pub fn history_lens(&self) -> Option<Vec<usize>> {
        let lens = self.indexed_history_lens()?;
        Some(lens.into_iter().map(|(_, len)| len).collect())
    }

    fn indexed_history_lens(&self) -> Option<Vec<(usize, usize)>> {
        self.protocol.history_lens(&self.dep, &self.world)
    }

    /// The largest stored history across this deployment's honest objects
    /// (0 if the protocol keeps no histories).
    pub fn max_history_len(&self) -> usize {
        self.history_lens()
            .map(|lens| lens.into_iter().max().unwrap_or(0))
            .unwrap_or(0)
    }

    /// One deterministic snapshot of everything observable about this run:
    /// operation rounds/latency histograms, network counters, the fault
    /// script, fast-path counters and per-object history lengths — all
    /// under the canonical `vrr_*` names ([`metrics::names`]).
    pub fn metrics_snapshot(&self) -> Registry {
        let mut reg = self.ops.clone();
        metrics::record_net_stats(&mut reg, &self.world.net_stats());
        metrics::record_scenario_stats(&mut reg, &self.world.fault_stats());
        reg.gauge_set(names::SCENARIO_TIME, &[], self.world.now().ticks());
        reg.gauge_set(
            names::SCENARIO_HELD_MSGS,
            &[],
            self.world.held().len() as u64,
        );
        metrics::record_fast_path(&mut reg, &self.fast);
        if let Some(lens) = self.indexed_history_lens() {
            metrics::record_history_lens(&mut reg, None, None, &lens);
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::ProtocolKind;
    use crate::regular::RegularObject;
    use crate::types::Timestamp;

    fn reader_rounds_count(sc: &StorageScenario<u64, ProtocolKind>) -> u64 {
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
        // Safe storage keeps no histories.
        assert!(sc.history_lens().is_none());
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
    fn a_cut_off_read_polls_none_then_records_exactly_once() {
        // Fast sizing S = 5: with two objects partitioned away the read
        // cannot gather S - t = 4 replies.
        let cfg = StorageConfig::fast(1, 1, 1);
        let mut sc = StorageScenario::deploy(ProtocolKind::RegularOptimized, cfg, 9);
        sc.write(1u64);
        sc.partition_objects(&[0, 1]);
        let mut op = sc.start_read(0);
        sc.world_mut().run_until_idle(100_000);
        assert!(sc.poll_read(&mut op).is_none(), "no quorum, no report");
        assert_eq!(
            reader_rounds_count(&sc),
            0,
            "a pending read records nothing"
        );

        sc.world_mut().heal_now();
        sc.world_mut().run_until_idle(100_000);
        assert_eq!(sc.poll_read(&mut op).unwrap().value, Some(1));
        assert_eq!(reader_rounds_count(&sc), 1);
        assert_eq!(sc.poll_read(&mut op).unwrap().value, Some(1));
        assert_eq!(reader_rounds_count(&sc), 1, "a second poll records nothing");
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

        let mut w = sc.start_write(5u64);
        let mut r = sc.start_read(0);
        sc.world_mut().run_until_idle(100_000);
        assert_eq!(sc.poll_write(&mut w).unwrap().rounds, 2);
        let concurrent = sc.poll_read(&mut r).unwrap().value;
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

    #[test]
    fn history_len_gauges_are_labelled_by_object_index() {
        let cfg = StorageConfig::optimal(1, 1, 1); // S = 4
        let mut sc = StorageScenario::deploy(ProtocolKind::RegularOptimized, cfg, 3);
        for k in 1..=3u64 {
            sc.write(k);
        }
        sc.attack_object(0, AttackerKind::Truncator, 0xBAD_u64);
        sc.write(4);
        assert_eq!(sc.read(0).value, Some(4));

        let snap = sc.metrics_snapshot();
        let gauge = |i: usize| snap.gauge(names::OBJECT_HISTORY_LEN, &[("object", &i.to_string())]);
        assert_eq!(gauge(0), None, "the liar's history is not reported");
        for i in 1..cfg.s {
            let len = sc
                .world()
                .inspect(sc.object(i), |o: &RegularObject<u64>| o.history().len());
            assert_eq!(gauge(i), Some(len as u64), "object {i}");
        }
    }
}
