//! [`StorageCluster`]: the paper's single register on the thread runtime —
//! slot 0 of a one-slot [`RegisterHost`] with a blocking client API, for
//! test and benchmark code.

use vrr_sim::{Automaton, ProcessId};

use vrr_core::metrics::{self, Registry};
use vrr_core::{
    GroupRole, Msg, ProtocolKind, ProtocolSpec, ReadReport, StorageConfig, Value, WriteReport,
};

use crate::cluster::Cluster;
use crate::host::RegisterHost;
use crate::link::LinkPolicy;

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
    host: RegisterHost<V>,
}

impl<V: Value> StorageCluster<V> {
    /// Deploys `cfg.s` object processes, one writer and `cfg.readers`
    /// readers running `spec` on a worker pool whose links obey `policy`.
    /// A bare [`ProtocolKind`] is the paper-faithful spec; a
    /// [`ProtocolSpec`] additionally carries history retention
    /// (`ProtocolKind::RegularOptimized` with
    /// `HistoryRetention::reader_ack()` is the bounded-memory
    /// production configuration) and reader tuning. Over-provision with
    /// [`StorageConfig::fast`] to make the one-round fast path fire.
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
        mut factory: impl FnMut(usize) -> Option<Box<dyn Automaton<Msg<V>>>>,
    ) -> Self {
        let host =
            RegisterHost::spawn(
                Cluster::new(policy),
                cfg,
                spec.into(),
                1,
                |_slot, role| match role {
                    GroupRole::Object(i) => factory(i),
                    GroupRole::Writer | GroupRole::Reader(_) => None,
                },
            );
        StorageCluster { host }
    }

    /// The deployment sizing.
    pub fn config(&self) -> StorageConfig {
        self.host.config()
    }

    /// The protocol variant.
    pub fn kind(&self) -> ProtocolKind {
        self.host.kind()
    }

    /// The object process ids (for fault injection).
    pub fn objects(&self) -> &[ProcessId] {
        &self.host.groups()[0].objects
    }

    /// Blocking `WRITE(value)`.
    ///
    /// # Panics
    ///
    /// Panics if the write does not complete within the operation timeout —
    /// with at most `t` injected faults that is a wait-freedom violation.
    pub fn write(&self, value: V) -> WriteReport {
        self.host.write(0, value)
    }

    /// Blocking `READ()` at reader `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range or the read does not complete within
    /// the operation timeout.
    pub fn read(&self, j: usize) -> ReadReport<V> {
        self.host.read(0, j)
    }

    /// Crashes object `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn crash_object(&self, idx: usize) {
        self.host.crash_object(0, idx);
    }

    /// One deterministic-shape snapshot of everything observable about
    /// this deployment, under the same canonical `vrr_*` names
    /// ([`vrr_core::metrics::names`]) the simulator harness exports:
    /// operation rounds/latency histograms (latency ticks are wall-clock
    /// microseconds here), worker-pool activity counters, fast-path
    /// counters and per-object history-length gauges labelled `{object}`
    /// only — there is one register (crashed or Byzantine-substituted
    /// objects are skipped; the safe protocol keeps no histories). Encode
    /// with [`vrr_core::metrics::Registry::to_prometheus`].
    pub fn metrics_snapshot(&self) -> Registry {
        let mut reg = self.host.op_metrics();
        metrics::record_history_lens(&mut reg, None, None, &self.host.history_lens(0));
        reg
    }

    /// Access to the underlying cluster (fault injection, raw sends).
    pub fn cluster(&self) -> &Cluster<Msg<V>> {
        self.host.cluster()
    }
}

impl<V: Value> std::fmt::Debug for StorageCluster<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageCluster")
            .field("kind", &self.kind())
            .field("cfg", &self.config())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use vrr_checker::{check_atomicity, Recorder};
    use vrr_core::attackers::AttackerKind;
    use vrr_core::metrics::names;
    use vrr_core::regular::{RegularObject, RegularReader};
    use vrr_core::safe::SafeReader;
    use vrr_core::Writer;

    use super::*;
    use crate::executor::ExecutorStats;
    use crate::link::NoDelay;

    #[test]
    fn optimized_regular_on_threads() {
        let cfg = StorageConfig::optimal(1, 1, 1);
        let storage: StorageCluster<u64> =
            StorageCluster::deploy(cfg, ProtocolKind::RegularOptimized, Box::new(NoDelay));
        storage.write(5);
        assert_eq!(storage.read(0).value, Some(5));
        storage.write(6);
        assert_eq!(storage.read(0).value, Some(6));
        // One register: its history gauges carry no shard label.
        let text = storage.metrics_snapshot().to_prometheus();
        assert!(text.contains("vrr_object_history_len{object=\"0\"} 3"));
    }

    #[test]
    fn at_optimal_resilience_only_the_figures_reader_sends_read2() {
        let cfg = StorageConfig::optimal(1, 1, 1); // S = 2t + 2b: Prop. 1
        let kind = ProtocolKind::RegularOptimized;
        let figures = ProtocolSpec::figures(kind);
        for (spec, rounds) in [(kind.into(), 1), (figures, 2)] {
            let storage: StorageCluster<u64> = StorageCluster::deploy(cfg, spec, Box::new(NoDelay));
            storage.write(7);
            let r = storage.read(0);
            assert_eq!(r.value, Some(7));
            assert_eq!((r.rounds, r.fast), (rounds, rounds == 1), "{spec:?}");
            let snap = storage.metrics_snapshot();
            let hits = snap.counter(names::READER_FAST_HITS, &[]);
            let fallbacks = snap.counter(names::READER_FAST_FALLBACKS, &[]);
            let want = if rounds == 1 { (1, 0) } else { (0, 1) };
            assert_eq!((hits, fallbacks), want, "{spec:?}");
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
            storage.host.groups()[0].readers[0],
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

    /// Atomic reads exist on threads because the write-back is a phase of
    /// the one reader the host already dispatches to: no code here knows
    /// about it.
    #[test]
    fn atomic_reads_on_threads_are_atomic_and_take_three_rounds() {
        let cfg = StorageConfig::optimal(2, 1, 2); // S = 6: one liar, one crash
        let storage: StorageCluster<u64> = StorageCluster::deploy_with_objects(
            cfg,
            ProtocolKind::Atomic,
            Box::new(NoDelay),
            |i| (i == 0).then(|| AttackerKind::Inflator.build_regular(cfg, 0xBAD)),
        );
        storage.crash_object(1);
        let rec = Recorder::new(1);
        let write = |seq: u64| rec.write(0, seq, seq * 10, || storage.write(seq * 10));
        write(1); // no read finds ⊥, which needs no write-back
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for seq in 2..=100 {
                    write(seq);
                }
            });
            for j in 0..cfg.readers {
                let (rec, storage) = (&rec, &storage);
                scope.spawn(move || {
                    for _ in 0..100 {
                        rec.read(0, j, || {
                            let report = storage.read(j);
                            assert_eq!(report.rounds, 3, "{report:?}");
                            (report.ts.0, report.value)
                        });
                    }
                });
            }
        });
        rec.check(check_atomicity).expect("atomic on threads");
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
            let written = cluster.invoke(
                storage.host.groups()[0].writer,
                |w: &mut Writer<u64>, _ctx| w.retained_outcomes(),
            );
            let reader = storage.host.groups()[0].readers[0];
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
            1 + 2 * cfg.s as u64,
            "one operation command, then one round of S READ1 + S ACK deliveries"
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
}
