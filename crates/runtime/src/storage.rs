//! A blocking client API for the paper's storage protocols on the thread
//! runtime: deploy a cluster of base-object threads, then `write`/`read`
//! synchronously from test or benchmark code.

use std::time::{Duration, Instant};

use parking_lot::Mutex;

use vrr_sim::{Automaton, ProcessId};

use vrr_core::metrics::{self, MetricsSink, Registry};
use vrr_core::regular::{RegularObject, RegularReader};
use vrr_core::safe::SafeReader;
use vrr_core::{
    spawn_group, Deployment, FastPathStats, GroupRole, Msg, ProtocolKind, ProtocolSpec, ReadReport,
    StorageConfig, Value, WriteReport, Writer,
};

use crate::cluster::Cluster;
use crate::executor::ExecutorStats;
use crate::link::LinkPolicy;

/// How long a blocking operation may take before the cluster is declared
/// wedged. Generous: operations take milliseconds even under delay
/// policies.
const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// Blocking `WRITE(value)` against `writer`, shared by [`StorageCluster`],
/// [`crate::ShardedStore`] and external hosts (`vrr-net` servers): invoke
/// the write, then await its outcome via a watcher.
///
/// `writer` must host a [`Writer`] automaton spawned on `cluster` (e.g. by
/// [`vrr_core::spawn_group`]).
///
/// # Panics
///
/// Panics if the write does not complete within the operation timeout —
/// with at most `t` faulty objects that is a wait-freedom violation.
pub fn blocking_write<V: Value>(
    cluster: &Cluster<Msg<V>>,
    writer: ProcessId,
    value: V,
) -> WriteReport {
    let id = cluster.invoke(writer, move |w: &mut Writer<V>, ctx| {
        w.invoke_write(value, ctx)
    });
    let rx = cluster.watch(writer, move |w: &Writer<V>| {
        w.outcome(id).map(|o| WriteReport {
            ts: o.ts,
            rounds: o.rounds,
        })
    });
    rx.recv_timeout(OP_TIMEOUT)
        .expect("WRITE must complete (wait-freedom)")
}

/// Blocking `READ()` against `reader`, shared by [`StorageCluster`],
/// [`crate::ShardedStore`] and external hosts (`vrr-net` servers).
///
/// `reader` must host the reader automaton matching `kind` (e.g. spawned
/// by [`vrr_core::spawn_group`]).
///
/// # Panics
///
/// Panics if the read does not complete within the operation timeout.
pub fn blocking_read<V: Value>(
    cluster: &Cluster<Msg<V>>,
    kind: ProtocolKind,
    reader: ProcessId,
) -> ReadReport<V> {
    match kind {
        ProtocolKind::Safe => {
            let id = cluster.invoke(reader, |r: &mut SafeReader<V>, ctx| r.invoke_read(ctx));
            let rx = cluster.watch(reader, move |r: &SafeReader<V>| {
                r.outcome(id).map(|o| ReadReport {
                    value: o.value.clone(),
                    ts: o.ts,
                    rounds: o.rounds,
                    fast: o.fast,
                })
            });
            rx.recv_timeout(OP_TIMEOUT)
                .expect("READ must complete (wait-freedom)")
        }
        ProtocolKind::Regular | ProtocolKind::RegularOptimized => {
            let id = cluster.invoke(reader, |r: &mut RegularReader<V>, ctx| r.invoke_read(ctx));
            let rx = cluster.watch(reader, move |r: &RegularReader<V>| {
                r.outcome(id).map(|o| ReadReport {
                    value: o.value.clone(),
                    ts: o.ts,
                    rounds: o.rounds,
                    fast: o.fast,
                })
            });
            rx.recv_timeout(OP_TIMEOUT)
                .expect("READ must complete (wait-freedom)")
        }
    }
}

/// Spawns one register group onto `cluster` through the canonical
/// routine, consulting `factory` for Byzantine *object* substitutions only
/// (the deploy hook of [`StorageCluster`] and [`crate::ShardedStore`]).
/// Returns the group and the object indices `factory` substituted —
/// skipped by the tolerant history inspection below (a downcast mismatch
/// inside an invoke would poison the process).
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

/// History length of every regular object in `objects`, shared by
/// [`StorageCluster::history_lens`] and [`crate::ShardedStore::history_lens`].
///
/// # Panics
///
/// Panics if `kind` is `ProtocolKind::Safe` (safe objects keep no
/// history) or an inspected object is not a live honest
/// [`RegularObject`] (crashed or Byzantine-substituted).
pub(crate) fn history_lens<V: Value>(
    cluster: &Cluster<Msg<V>>,
    kind: ProtocolKind,
    objects: &[ProcessId],
) -> Vec<usize> {
    assert!(kind != ProtocolKind::Safe, "safe objects keep no history");
    objects
        .iter()
        .map(|&pid| cluster.invoke(pid, |o: &mut RegularObject<V>, _ctx| o.history().len()))
        .collect()
}

/// Sum of the fast-path counters of every reader in `readers`, shared by
/// [`StorageCluster::fast_path_stats`] and
/// [`crate::ShardedStore::fast_path_stats`].
pub(crate) fn fast_path_stats<V: Value>(
    cluster: &Cluster<Msg<V>>,
    kind: ProtocolKind,
    readers: &[ProcessId],
) -> FastPathStats {
    let mut total = FastPathStats::default();
    for &pid in readers {
        let s = match kind {
            ProtocolKind::Safe => cluster.invoke(pid, |r: &mut SafeReader<V>, _ctx| r.fast_stats()),
            ProtocolKind::Regular | ProtocolKind::RegularOptimized => {
                cluster.invoke(pid, |r: &mut RegularReader<V>, _ctx| r.fast_stats())
            }
        };
        total.hits += s.hits;
        total.fallbacks += s.fallbacks;
    }
    total
}

/// Like [`history_lens`], but for metrics snapshots: skips
/// Byzantine-substituted and crashed objects instead of panicking, and
/// returns nothing for the history-less safe protocol.
pub(crate) fn try_history_lens<V: Value>(
    cluster: &Cluster<Msg<V>>,
    kind: ProtocolKind,
    objects: &[ProcessId],
    byzantine: &[usize],
) -> Vec<usize> {
    if kind == ProtocolKind::Safe {
        return Vec::new();
    }
    objects
        .iter()
        .enumerate()
        .filter(|(i, _)| !byzantine.contains(i))
        .filter_map(|(_, &pid)| {
            cluster
                .try_invoke(pid, |o: &mut RegularObject<V>, _ctx| o.history().len())
                .ok()
        })
        .collect()
}

/// Exports the worker-pool activity counters under their canonical
/// `vrr_executor_*` names.
pub(crate) fn record_executor_stats(sink: &mut dyn MetricsSink, stats: &ExecutorStats) {
    sink.counter_add(metrics::names::EXECUTOR_SWEEPS, &[], stats.sweeps);
    sink.counter_add(metrics::names::EXECUTOR_WAKEUPS, &[], stats.wakeups);
    sink.counter_add(metrics::names::EXECUTOR_COMMANDS, &[], stats.commands);
}

/// Records one completed write into `ops`. On the runtime, latency ticks
/// are wall-clock **microseconds** (the simulator records sim ticks under
/// the same name; the unit is the harness's to define).
pub(crate) fn record_write(ops: &Mutex<Registry>, rounds: u32, started: Instant) {
    let us = started.elapsed().as_micros() as u64;
    let mut ops = ops.lock();
    ops.observe(metrics::names::WRITER_ROUNDS, &[], u64::from(rounds));
    ops.observe(metrics::names::WRITE_LATENCY, &[], us);
}

/// Records one completed read into `ops` (microsecond latency ticks, see
/// [`record_write`]).
pub(crate) fn record_read(ops: &Mutex<Registry>, rounds: u32, started: Instant) {
    let us = started.elapsed().as_micros() as u64;
    let mut ops = ops.lock();
    ops.observe(metrics::names::READER_ROUNDS, &[], u64::from(rounds));
    ops.observe(metrics::names::READ_LATENCY, &[], us);
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
    /// Client-side operation metrics (rounds and latency histograms),
    /// folded into [`StorageCluster::metrics_snapshot`].
    ops: Mutex<Registry>,
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
            ops: Mutex::new(Registry::new()),
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
        let started = Instant::now();
        let report = blocking_write(&self.cluster, self.group.writer, value);
        record_write(&self.ops, report.rounds, started);
        report
    }

    /// Blocking `READ()` at reader `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range or the read does not complete within
    /// the operation timeout.
    pub fn read(&self, j: usize) -> ReadReport<V> {
        let started = Instant::now();
        let report = blocking_read(&self.cluster, self.kind, self.group.readers[j]);
        record_read(&self.ops, report.rounds, started);
        report
    }

    /// Crashes object `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn crash_object(&self, idx: usize) {
        self.cluster.crash(self.group.objects[idx]);
    }

    /// The current history length of every (honest, live) regular object —
    /// the memory-bound observable of the reader-ack GC experiments.
    ///
    /// # Panics
    ///
    /// Panics if the deployment is `ProtocolKind::Safe` (safe objects keep
    /// no history) or an inspected object is not a live honest
    /// [`RegularObject`] (crashed or Byzantine-substituted).
    pub fn history_lens(&self) -> Vec<usize> {
        history_lens(&self.cluster, self.kind, &self.group.objects)
    }

    /// Sum of the one-round fast-path counters over all readers: how many
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
        let mut reg = self.ops.lock().clone();
        record_executor_stats(&mut reg, &self.cluster.stats());
        metrics::record_fast_path(&mut reg, &self.fast_path_stats());
        if self.kind != ProtocolKind::Safe {
            let lens = try_history_lens(
                &self.cluster,
                self.kind,
                &self.group.objects,
                &self.byzantine,
            );
            metrics::record_history_lens(&mut reg, None, &lens);
        }
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

    use vrr_core::regular::{HistoryRetention, RegularTuning};

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
                tuning: RegularTuning {
                    fast_threshold: Some(usize::MAX),
                    ..RegularTuning::default()
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
            |i| (i == 4).then(|| AttackerKind::Inflator.build_regular(cfg, 0xBAD)),
        );
        storage.write(1);
        assert_eq!(storage.read(0).value, Some(1));
        storage.crash_object(0);
        let snap = storage.metrics_snapshot();
        // 5 objects - 1 Byzantine - 1 crashed = 3 inspectable histories.
        assert_eq!(snap.gauge_values(names::OBJECT_HISTORY_LEN).len(), 3);
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
