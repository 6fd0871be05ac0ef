//! The client API for the paper's storage protocols on the thread runtime:
//! [`submit_read`] / [`submit_write`] start an operation and complete it
//! through a callback; [`StorageCluster`] deploys a register group and
//! `write`s/`read`s it synchronously — a channel wait over the same calls —
//! from test or benchmark code.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver};
use parking_lot::Mutex;

use vrr_sim::{Automaton, ProcessId};

use vrr_core::metrics::{self, names, MetricsSink, Registry};
use vrr_core::regular::{RegularObject, RegularReader};
use vrr_core::safe::SafeReader;
use vrr_core::{
    spawn_group, Deployment, FastPathStats, GroupRole, Msg, ProtocolKind, ProtocolSpec, ReadReport,
    StorageConfig, Value, WriteReport, Writer,
};

use crate::cluster::{Cluster, NodeGone};
use crate::executor::ExecutorStats;
use crate::link::LinkPolicy;

/// How long an operation may take before the cluster is declared wedged.
/// Generous: operations take milliseconds even under delay policies. The
/// blocking shims panic past it ([`OpWaiter::wait`]); a completion-driven
/// host (`vrr-net`'s node) answers a typed error past it instead.
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// Submits `WRITE(value)` at `writer` and returns immediately; `done`
/// fires on the worker thread with the report, or with [`NodeGone`] if the
/// writer is crashed (see [`Cluster::submit`] for the full contract).
///
/// `writer` must host a [`Writer`] automaton spawned on `cluster` (e.g. by
/// [`vrr_core::spawn_group`]).
pub fn submit_write<V: Value>(
    cluster: &Cluster<Msg<V>>,
    writer: ProcessId,
    value: V,
    done: impl FnOnce(Result<WriteReport, NodeGone>) + Send + 'static,
) {
    cluster.submit(
        writer,
        move |w: &mut Writer<V>, ctx| w.invoke_write(value, ctx),
        |w: &mut Writer<V>, &id| w.take_outcome(id),
        done,
    );
}

/// Submits `READ()` at `reader` and returns immediately; `done` fires on
/// the worker thread with the report, or with [`NodeGone`] if the reader is
/// crashed (see [`Cluster::submit`] for the full contract).
///
/// `reader` must host the reader automaton matching `kind` (e.g. spawned
/// by [`vrr_core::spawn_group`]).
pub fn submit_read<V: Value>(
    cluster: &Cluster<Msg<V>>,
    kind: ProtocolKind,
    reader: ProcessId,
    done: impl FnOnce(Result<ReadReport<V>, NodeGone>) + Send + 'static,
) {
    match kind {
        ProtocolKind::Safe => cluster.submit(
            reader,
            |r: &mut SafeReader<V>, ctx| r.invoke_read(ctx),
            |r: &mut SafeReader<V>, &id| r.take_outcome(id),
            done,
        ),
        ProtocolKind::Regular | ProtocolKind::RegularOptimized => cluster.submit(
            reader,
            |r: &mut RegularReader<V>, ctx| r.invoke_read(ctx),
            |r: &mut RegularReader<V>, &id| r.take_outcome(id),
            done,
        ),
    }
}

/// The waiting half of [`op_channel`]: where a blocking caller parks until
/// its operation's completion fires.
pub struct OpWaiter<R>(Receiver<Result<R, NodeGone>>);

/// A completion callback for [`submit_read`] / [`submit_write`] /
/// [`Cluster::submit`] paired with the [`OpWaiter`] it wakes — how every
/// blocking read and write in the workspace waits.
pub fn op_channel<R: Send + 'static>() -> (
    impl FnOnce(Result<R, NodeGone>) + Send + 'static,
    OpWaiter<R>,
) {
    let (tx, rx) = bounded(1);
    (
        move |result| {
            let _ = tx.send(result);
        },
        OpWaiter(rx),
    )
}

impl<R> OpWaiter<R> {
    /// Blocks for the operation's outcome.
    ///
    /// # Panics
    ///
    /// Panics if the operation does not complete within [`OP_TIMEOUT`] —
    /// with at most `t` faulty objects that is a wait-freedom violation —
    /// or its client process is crashed or gone.
    pub fn wait(self) -> R {
        self.0
            .recv_timeout(OP_TIMEOUT)
            .expect("operation must complete (wait-freedom)")
            .unwrap_or_else(|gone| panic!("operation failed: {gone}"))
    }
}

/// Spawns one register group onto `cluster` through the canonical
/// routine, consulting `factory` for Byzantine *object* substitutions only
/// (the deploy hook of [`StorageCluster`] and [`crate::ShardedStore`]).
/// Returns the group and the object indices `factory` substituted —
/// skipped by [`history_lens`] (a downcast mismatch inside an invoke would
/// poison the process: inspecting a Byzantine object must not turn it into
/// a crashed one).
pub(crate) fn spawn_register_group<V: Value>(
    cluster: &mut Cluster<Msg<V>>,
    cfg: StorageConfig,
    spec: ProtocolSpec,
    mut factory: impl FnMut(usize) -> Option<Box<dyn Automaton<Msg<V>>>>,
) -> (Deployment, Vec<usize>) {
    let mut byzantine = Vec::new();
    let group = spawn_group(
        cfg,
        spec,
        |_role, automaton| cluster.spawn(automaton),
        |role, _objects| match role {
            GroupRole::Object(i) => {
                let substituted = factory(i);
                if substituted.is_some() {
                    byzantine.push(i);
                }
                substituted
            }
            GroupRole::Writer | GroupRole::Reader(_) => None,
        },
    );
    (group, byzantine)
}

/// Sum of the fast-path counters of every live reader in `readers`, shared
/// by [`StorageCluster::fast_path_stats`] and
/// [`crate::ShardedStore::fast_path_stats`]; a crashed reader is skipped.
pub(crate) fn fast_path_stats<V: Value>(
    cluster: &Cluster<Msg<V>>,
    kind: ProtocolKind,
    readers: &[ProcessId],
) -> FastPathStats {
    let mut total = FastPathStats::default();
    for &pid in readers {
        let stats = match kind {
            ProtocolKind::Safe => {
                cluster.try_invoke(pid, |r: &mut SafeReader<V>, _ctx| r.fast_stats())
            }
            ProtocolKind::Regular | ProtocolKind::RegularOptimized => {
                cluster.try_invoke(pid, |r: &mut RegularReader<V>, _ctx| r.fast_stats())
            }
        };
        if let Ok(s) = stats {
            total.hits += s.hits;
            total.fallbacks += s.fallbacks;
        }
    }
    total
}

/// The one history inspection, behind [`StorageCluster::history_lens`],
/// [`crate::ShardedStore::history_lens`] and both metrics snapshots:
/// `(object index, history length)` of every honest live regular object in
/// `objects`. Objects the deploy factory substituted (`byzantine`) and
/// crashed ones are skipped — a liar's "history" is meaningless — and the
/// history-less safe protocol has nothing to report.
pub(crate) fn history_lens<V: Value>(
    cluster: &Cluster<Msg<V>>,
    kind: ProtocolKind,
    objects: &[ProcessId],
    byzantine: &[usize],
) -> Vec<(usize, usize)> {
    if kind == ProtocolKind::Safe {
        return Vec::new();
    }
    objects
        .iter()
        .enumerate()
        .filter(|(i, _)| !byzantine.contains(i))
        .filter_map(|(i, &pid)| {
            let len = cluster.try_invoke(pid, |o: &mut RegularObject<V>, _ctx| o.history().len());
            len.ok().map(|len| (i, len))
        })
        .collect()
}

/// The client-side operation metrics of one deployment — rounds and
/// latency histograms of its completed READs and WRITEs under the canonical
/// `vrr_*` names — shared by every host that starts operations
/// ([`StorageCluster`], [`crate::ShardedStore`], `vrr-net`'s node). Clones
/// share one registry, so in-flight completions record into it.
///
/// On the runtime, latency ticks are wall-clock **microseconds**, measured
/// from the call that wraps the completion to the completion firing on its
/// worker thread (the simulator records sim ticks under the same names; the
/// unit is the harness's to define).
#[derive(Clone, Default)]
pub struct OpMeter(Arc<Mutex<Registry>>);

impl OpMeter {
    /// Starts the clock of a WRITE: the returned completion records the
    /// report (a [`NodeGone`] records nothing), then calls `done`.
    pub fn write(
        &self,
        done: impl FnOnce(Result<WriteReport, NodeGone>) + Send + 'static,
    ) -> impl FnOnce(Result<WriteReport, NodeGone>) + Send + 'static {
        let (rounds, latency) = (names::WRITER_ROUNDS, names::WRITE_LATENCY);
        self.timed(rounds, latency, |report| report.rounds, done)
    }

    /// Starts the clock of a READ; as [`OpMeter::write`].
    pub fn read<V: 'static>(
        &self,
        done: impl FnOnce(Result<ReadReport<V>, NodeGone>) + Send + 'static,
    ) -> impl FnOnce(Result<ReadReport<V>, NodeGone>) + Send + 'static {
        let (rounds, latency) = (names::READER_ROUNDS, names::READ_LATENCY);
        self.timed(rounds, latency, |report| report.rounds, done)
    }

    fn timed<R: 'static>(
        &self,
        rounds_name: &'static str,
        latency_name: &'static str,
        rounds: fn(&R) -> u32,
        done: impl FnOnce(Result<R, NodeGone>) + Send + 'static,
    ) -> impl FnOnce(Result<R, NodeGone>) + Send + 'static {
        let ops = self.0.clone();
        let started = Instant::now();
        move |result| {
            if let Ok(report) = &result {
                let us = started.elapsed().as_micros() as u64;
                let mut ops = ops.lock();
                ops.observe(rounds_name, &[], u64::from(rounds(report)));
                ops.observe(latency_name, &[], us);
            }
            done(result);
        }
    }

    /// The histograms so far, plus the worker-pool activity counters
    /// `executor` under their canonical `vrr_executor_*` names.
    pub fn snapshot(&self, executor: ExecutorStats) -> Registry {
        let mut reg = self.0.lock().clone();
        reg.counter_add(names::EXECUTOR_SWEEPS, &[], executor.sweeps);
        reg.counter_add(names::EXECUTOR_WAKEUPS, &[], executor.wakeups);
        reg.counter_add(names::EXECUTOR_COMMANDS, &[], executor.commands);
        reg
    }
}

/// A storage deployment on OS threads with a blocking client API.
///
/// # Examples
///
/// ```
/// use vrr_runtime::{StorageCluster, ProtocolKind, NoDelay};
/// use vrr_core::StorageConfig;
///
/// let cfg = StorageConfig::optimal(1, 1, 1);
/// let storage: StorageCluster<u64> =
///     StorageCluster::deploy(cfg, ProtocolKind::Safe, Box::new(NoDelay));
/// storage.write(7);
/// assert_eq!(storage.read(0).value, Some(7));
/// ```
pub struct StorageCluster<V: Value> {
    cluster: Cluster<Msg<V>>,
    kind: ProtocolKind,
    group: Deployment,
    /// Object indices the deploy factory substituted.
    byzantine: Vec<usize>,
    /// Client-side operation metrics, folded into
    /// [`StorageCluster::metrics_snapshot`].
    ops: OpMeter,
}

impl<V: Value> StorageCluster<V> {
    /// Deploys `cfg.s` object processes, one writer and `cfg.readers`
    /// readers running `spec` on a worker pool whose links obey `policy`.
    /// A bare [`ProtocolKind`] is the paper-faithful spec; a
    /// [`ProtocolSpec`] additionally carries history retention
    /// (`ProtocolKind::RegularOptimized` with
    /// `HistoryRetention::reader_ack(cfg.readers)` is the bounded-memory
    /// production configuration) and reader tuning (e.g. an unreachable
    /// `fast_threshold` to measure the pure fallback path; over-provision
    /// with [`StorageConfig::fast`] to make the default fast path fire).
    pub fn deploy(
        cfg: StorageConfig,
        spec: impl Into<ProtocolSpec>,
        policy: Box<dyn LinkPolicy<Msg<V>>>,
    ) -> Self {
        Self::deploy_with_objects(cfg, spec, policy, |_i| None)
    }

    /// Like [`StorageCluster::deploy`], but `factory` may substitute the
    /// automaton of any object index — the hook for deploying Byzantine
    /// objects (e.g. from [`vrr_core::attackers`]) on the thread runtime.
    /// Returning `None` deploys the honest object for the protocol.
    pub fn deploy_with_objects(
        cfg: StorageConfig,
        spec: impl Into<ProtocolSpec>,
        policy: Box<dyn LinkPolicy<Msg<V>>>,
        factory: impl FnMut(usize) -> Option<Box<dyn Automaton<Msg<V>>>>,
    ) -> Self {
        let spec = spec.into();
        let mut cluster: Cluster<Msg<V>> = Cluster::new(policy);
        let (group, byzantine) = spawn_register_group(&mut cluster, cfg, spec, factory);
        cluster.seal();
        StorageCluster {
            cluster,
            kind: spec.kind(),
            group,
            byzantine,
            ops: OpMeter::default(),
        }
    }

    /// The deployment sizing.
    pub fn config(&self) -> StorageConfig {
        self.group.cfg
    }

    /// The protocol variant.
    pub fn kind(&self) -> ProtocolKind {
        self.kind
    }

    /// The object process ids (for fault injection).
    pub fn objects(&self) -> &[ProcessId] {
        &self.group.objects
    }

    /// Blocking `WRITE(value)`.
    ///
    /// # Panics
    ///
    /// Panics if the write does not complete within the operation timeout —
    /// with at most `t` injected faults that is a wait-freedom violation.
    pub fn write(&self, value: V) -> WriteReport {
        let (done, waiter) = op_channel();
        let writer = self.group.writer;
        submit_write(&self.cluster, writer, value, self.ops.write(done));
        waiter.wait()
    }

    /// Blocking `READ()` at reader `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range or the read does not complete within
    /// the operation timeout.
    pub fn read(&self, j: usize) -> ReadReport<V> {
        let (done, waiter) = op_channel();
        let reader = self.group.readers[j];
        submit_read(&self.cluster, self.kind, reader, self.ops.read(done));
        waiter.wait()
    }

    /// Crashes object `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn crash_object(&self, idx: usize) {
        self.cluster.crash(self.group.objects[idx]);
    }

    /// The current history length of every honest, live regular object,
    /// in object order — the memory-bound observable of the reader-ack GC
    /// experiments. Byzantine-substituted and crashed objects are skipped;
    /// a `ProtocolKind::Safe` deployment (no histories) reports nothing.
    pub fn history_lens(&self) -> Vec<usize> {
        let lens = self.indexed_history_lens();
        lens.into_iter().map(|(_, len)| len).collect()
    }

    fn indexed_history_lens(&self) -> Vec<(usize, usize)> {
        let (objects, byzantine) = (&self.group.objects, &self.byzantine);
        history_lens(&self.cluster, self.kind, objects, byzantine)
    }

    /// Sum of the one-round fast-path counters over all live readers: how many
    /// reads finished in round 1 (`hits`) vs. fell back to the two-round
    /// protocol (`fallbacks`). Both stay zero at optimal resilience, where
    /// Proposition 1 keeps the fast path disarmed.
    pub fn fast_path_stats(&self) -> FastPathStats {
        fast_path_stats(&self.cluster, self.kind, &self.group.readers)
    }

    /// One deterministic-shape snapshot of everything observable about
    /// this deployment, under the same canonical `vrr_*` names
    /// ([`vrr_core::metrics::names`]) the simulator harness exports:
    /// operation rounds/latency histograms (latency ticks are wall-clock
    /// microseconds here), worker-pool activity counters, fast-path
    /// counters and per-object history-length gauges (crashed or
    /// Byzantine-substituted objects are skipped; the safe protocol keeps
    /// no histories). Encode with
    /// [`vrr_core::metrics::Registry::to_prometheus`].
    pub fn metrics_snapshot(&self) -> Registry {
        let mut reg = self.ops.snapshot(self.cluster.stats());
        metrics::record_fast_path(&mut reg, &self.fast_path_stats());
        metrics::record_history_lens(&mut reg, None, &self.indexed_history_lens());
        reg
    }

    /// Access to the underlying cluster (fault injection, raw sends).
    pub fn cluster(&self) -> &Cluster<Msg<V>> {
        &self.cluster
    }
}

impl<V: Value> std::fmt::Debug for StorageCluster<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageCluster")
            .field("kind", &self.kind)
            .field("cfg", &self.group.cfg)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use vrr_core::regular::HistoryRetention;
    use vrr_core::ReaderTuning;

    use super::*;
    use crate::link::{FixedDelay, NoDelay};

    #[test]
    fn safe_storage_round_trip_on_threads() {
        let cfg = StorageConfig::optimal(1, 1, 2);
        let storage: StorageCluster<u64> =
            StorageCluster::deploy(cfg, ProtocolKind::Safe, Box::new(NoDelay));
        let w = storage.write(42);
        assert_eq!(w.rounds, 2);
        for j in 0..2 {
            let r = storage.read(j);
            assert_eq!(r.value, Some(42));
            assert_eq!(r.rounds, 2);
        }
    }

    #[test]
    fn regular_storage_with_link_delay() {
        let cfg = StorageConfig::optimal(1, 1, 1);
        let storage: StorageCluster<u64> = StorageCluster::deploy(
            cfg,
            ProtocolKind::Regular,
            Box::new(FixedDelay(Duration::from_millis(1))),
        );
        for k in 1..=3u64 {
            storage.write(k * 10);
            assert_eq!(storage.read(0).value, Some(k * 10));
        }
    }

    #[test]
    fn optimized_regular_on_threads() {
        let cfg = StorageConfig::optimal(1, 1, 1);
        let storage: StorageCluster<u64> =
            StorageCluster::deploy(cfg, ProtocolKind::RegularOptimized, Box::new(NoDelay));
        storage.write(5);
        assert_eq!(storage.read(0).value, Some(5));
        storage.write(6);
        assert_eq!(storage.read(0).value, Some(6));
    }

    #[test]
    fn reader_ack_gc_bounds_history_on_threads() {
        let cfg = StorageConfig::optimal(1, 1, 1);
        let storage: StorageCluster<u64> = StorageCluster::deploy(
            cfg,
            ProtocolSpec::from(ProtocolKind::RegularOptimized)
                .with_retention(HistoryRetention::reader_ack(1)),
            Box::new(NoDelay),
        );
        for k in 1..=100u64 {
            storage.write(k);
            assert_eq!(storage.read(0).value, Some(k));
        }
        // Acks ride on the READ broadcasts, which are flushed before the
        // inspection command is enqueued: every object has truncated down
        // to the concurrency window by now.
        for len in storage.history_lens() {
            assert!(len <= 5, "history len {len} not bounded after 100 writes");
        }
    }

    #[test]
    fn keep_all_history_grows_on_threads() {
        // The paper-faithful default really does grow — the control for
        // the GC test above.
        let cfg = StorageConfig::optimal(1, 1, 1);
        let storage: StorageCluster<u64> =
            StorageCluster::deploy(cfg, ProtocolKind::RegularOptimized, Box::new(NoDelay));
        for k in 1..=30u64 {
            storage.write(k);
            assert_eq!(storage.read(0).value, Some(k));
        }
        assert!(storage.history_lens().into_iter().all(|len| len == 31));
    }

    #[test]
    fn over_provisioned_reads_complete_in_one_round() {
        // S = 2t + 2b + 1 = 5 arms the fast path: fault-free reads finish
        // in round 1 for both protocol families.
        let cfg = StorageConfig::fast(1, 1, 1);
        for kind in [
            ProtocolKind::Safe,
            ProtocolKind::Regular,
            ProtocolKind::RegularOptimized,
        ] {
            let storage: StorageCluster<u64> = StorageCluster::deploy(cfg, kind, Box::new(NoDelay));
            for k in 1..=3u64 {
                storage.write(k);
                let r = storage.read(0);
                assert_eq!(r.value, Some(k), "{kind:?}");
                assert_eq!(r.rounds, 1, "{kind:?}");
                assert!(r.fast, "{kind:?}");
            }
            let stats = storage.fast_path_stats();
            assert_eq!(stats.hits, 3, "{kind:?}");
            assert_eq!(stats.fallbacks, 0, "{kind:?}");
        }
    }

    #[test]
    fn fast_path_stays_disarmed_at_optimal_resilience() {
        let cfg = StorageConfig::optimal(1, 1, 1); // S = 2t + 2b: Prop. 1
        let storage: StorageCluster<u64> =
            StorageCluster::deploy(cfg, ProtocolKind::RegularOptimized, Box::new(NoDelay));
        storage.write(7);
        let r = storage.read(0);
        assert_eq!(r.value, Some(7));
        assert_eq!(r.rounds, 2);
        assert!(!r.fast);
        assert_eq!(storage.fast_path_stats(), FastPathStats::default());
    }

    #[test]
    fn unreachable_threshold_forces_the_fallback_path() {
        // The deterministic fallback-forcing deployment used by the
        // `read/fast-fallback` bench: over-provisioned sizing, but a
        // threshold no quorum can meet, so every read arms the fast path
        // and then completes through the two-round protocol.
        let cfg = StorageConfig::fast(1, 1, 1);
        let storage: StorageCluster<u64> = StorageCluster::deploy(
            cfg,
            ProtocolSpec::Regular {
                optimized: true,
                retention: HistoryRetention::KeepAll,
                tuning: ReaderTuning {
                    fast_threshold: Some(usize::MAX),
                    ..ReaderTuning::default()
                },
            },
            Box::new(NoDelay),
        );
        for k in 1..=4u64 {
            storage.write(k);
            let r = storage.read(0);
            assert_eq!(r.value, Some(k));
            assert_eq!(r.rounds, 2);
            assert!(!r.fast);
        }
        let stats = storage.fast_path_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.fallbacks, 4);
    }

    #[test]
    fn metrics_snapshot_reflects_operations() {
        use vrr_core::metrics::names;

        let cfg = StorageConfig::fast(1, 1, 2);
        let storage: StorageCluster<u64> = StorageCluster::deploy(
            cfg,
            ProtocolSpec::from(ProtocolKind::RegularOptimized)
                .with_retention(HistoryRetention::reader_ack(2)),
            Box::new(NoDelay),
        );
        for k in 1..=4u64 {
            storage.write(k);
            storage.read(0);
            storage.read(1);
        }
        let snap = storage.metrics_snapshot();
        assert_eq!(
            snap.histogram(names::WRITER_ROUNDS, &[]).unwrap().count(),
            4
        );
        assert_eq!(
            snap.histogram(names::READER_ROUNDS, &[]).unwrap().count(),
            8
        );
        assert_eq!(snap.histogram(names::READ_LATENCY, &[]).unwrap().count(), 8);
        let hits = snap.counter(names::READER_FAST_HITS, &[]);
        let fallbacks = snap.counter(names::READER_FAST_FALLBACKS, &[]);
        assert_eq!(hits + fallbacks, 8, "every read hit or fell back");
        assert!(snap.counter(names::EXECUTOR_COMMANDS, &[]) > 0);
        let lens = snap.gauge_values(names::OBJECT_HISTORY_LEN);
        assert_eq!(lens.len(), cfg.s, "one history gauge per honest object");
        // The snapshot speaks the same text format as the sim harness.
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE vrr_writer_rounds histogram"));
        assert!(text.contains("vrr_object_history_len{object=\"0\"}"));
    }

    #[test]
    fn snapshot_tolerates_crashed_and_byzantine_objects() {
        use vrr_core::attackers::AttackerKind;
        use vrr_core::metrics::names;

        let cfg = StorageConfig::fast(1, 1, 1);
        let storage: StorageCluster<u64> = StorageCluster::deploy_with_objects(
            cfg,
            ProtocolKind::RegularOptimized,
            Box::new(NoDelay),
            |i| (i == 0).then(|| AttackerKind::Inflator.build_regular(cfg, 0xBAD)),
        );
        storage.write(1);
        assert_eq!(storage.read(0).value, Some(1));
        storage.crash_object(2);
        let snap = storage.metrics_snapshot();
        // 5 objects - 1 Byzantine - 1 crashed = 3 inspectable histories,
        // each labelled with the index of the object it was read from.
        assert_eq!(snap.gauge_values(names::OBJECT_HISTORY_LEN).len(), 3);
        for (i, &pid) in storage.objects().iter().enumerate() {
            let gauge = snap.gauge(names::OBJECT_HISTORY_LEN, &[("object", &i.to_string())]);
            if i == 0 || i == 2 {
                assert_eq!(gauge, None, "object {i} is not inspectable");
                continue;
            }
            let len = storage
                .cluster()
                .invoke(pid, |o: &mut RegularObject<u64>, _ctx| o.history().len());
            assert_eq!(gauge, Some(len as u64), "object {i}");
        }
    }

    /// Drains every message a finished READ may still have in flight, then
    /// returns the counters. Two no-op invokes per object: the first is
    /// queued behind the READ messages the object already holds, the second
    /// runs in a later sweep — after the sweep that answered them flushed
    /// its replies — and the invoke on the reader queues behind those.
    /// Always the same number of commands, so differences stay exact. (A
    /// worker publishes a sweep's command count after the sweep, i.e. after
    /// the last invoke already returned: wait for the counter to stand.)
    fn settled_stats(storage: &StorageCluster<u64>) -> ExecutorStats {
        let cluster = storage.cluster();
        for _ in 0..2 {
            for &object in storage.objects() {
                cluster.invoke(object, |_o: &mut RegularObject<u64>, _ctx| ());
            }
        }
        cluster.invoke(
            storage.group.readers[0],
            |_r: &mut RegularReader<u64>, _ctx| (),
        );
        let mut last = cluster.stats();
        loop {
            std::thread::sleep(Duration::from_millis(10));
            let now = cluster.stats();
            if now == last {
                return now;
            }
            last = now;
        }
    }

    #[test]
    fn concurrent_reads_at_one_reader_queue_instead_of_poisoning_it() {
        // Two callers sharing reader 0: the automaton admits one READ at a
        // time, so the executor must serialize them — a second bare
        // `invoke_read` would trip the reader's well-formedness assertion
        // and poison it for good.
        let cfg = StorageConfig::optimal(1, 1, 1);
        let storage: StorageCluster<u64> =
            StorageCluster::deploy(cfg, ProtocolKind::RegularOptimized, Box::new(NoDelay));
        storage.write(9);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..500 {
                        assert_eq!(storage.read(0).value, Some(9));
                    }
                });
            }
        });
        assert_eq!(storage.read(0).value, Some(9), "the reader is still alive");
    }

    #[test]
    fn client_automata_retain_no_outcomes() {
        // One cloned value per READ ever served is a leak in a long-running
        // server: the runtime takes each outcome as it reports it.
        for kind in [ProtocolKind::Safe, ProtocolKind::RegularOptimized] {
            let cfg = StorageConfig::optimal(1, 1, 1);
            let storage: StorageCluster<u64> = StorageCluster::deploy(cfg, kind, Box::new(NoDelay));
            for k in 0..5_000u64 {
                storage.write(k);
                assert_eq!(storage.read(0).value, Some(k));
            }
            let cluster = storage.cluster();
            let written = cluster.invoke(storage.group.writer, |w: &mut Writer<u64>, _ctx| {
                w.retained_outcomes()
            });
            let reader = storage.group.readers[0];
            let read = match kind {
                ProtocolKind::Safe => cluster.invoke(reader, |r: &mut SafeReader<u64>, _ctx| {
                    r.retained_outcomes()
                }),
                _ => cluster.invoke(reader, |r: &mut RegularReader<u64>, _ctx| {
                    r.retained_outcomes()
                }),
            };
            assert_eq!((written, read), (0, 0), "{kind:?} after 10 000 operations");
        }
    }

    #[test]
    fn a_submitted_read_costs_one_command_plus_its_deliveries() {
        let cfg = StorageConfig::optimal(1, 1, 1); // S = 4
        let storage: StorageCluster<u64> =
            StorageCluster::deploy(cfg, ProtocolKind::RegularOptimized, Box::new(NoDelay));
        storage.write(1);

        let before = settled_stats(&storage);
        assert_eq!(storage.read(0).value, Some(1));
        let after = settled_stats(&storage);
        // What `settled_stats` itself enqueues: two invokes per object, one
        // on the reader.
        let settling = 2 * cfg.s as u64 + 1;
        assert_eq!(
            after.commands - before.commands - settling,
            1 + 2 * 2 * cfg.s as u64,
            "one operation command, then 2 rounds x (S READk + S ACK) deliveries"
        );

        // And once the operation is done the pool parks: no polling.
        std::thread::sleep(Duration::from_millis(300));
        let idle = storage.cluster().stats();
        assert!(
            idle.wakeups - after.wakeups <= 2,
            "an idle cluster must not poll: {after:?} -> {idle:?}"
        );
        assert_eq!(idle.sweeps, after.sweeps, "and must not sweep");
    }

    #[test]
    fn survives_t_object_crashes() {
        let cfg = StorageConfig::optimal(2, 1, 1); // S = 6, t = 2
        let storage: StorageCluster<u64> =
            StorageCluster::deploy(cfg, ProtocolKind::Safe, Box::new(NoDelay));
        storage.crash_object(0);
        storage.crash_object(4);
        storage.write(9);
        assert_eq!(storage.read(0).value, Some(9));
    }
}
