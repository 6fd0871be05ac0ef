//! The one host of register groups on the thread runtime.
//!
//! A [`RegisterHost`] owns a worker-pool [`Cluster`], `slots` register
//! groups spawned on it through [`vrr_core::spawn_group`], and the meter of
//! the operations it starts. Everything that deploys the paper's register
//! on threads is a view of it: [`crate::StorageCluster`] is slot 0 of a
//! one-slot host, [`crate::ShardedStore`] a key index over a
//! `capacity`-slot host, and `vrr-net`'s node a host whose members placed
//! in other OS processes are relay stand-ins.
//!
//! Operations are completion-driven ([`RegisterHost::write_with`] /
//! [`RegisterHost::read_with`]: one [`Cluster::submit`] command each); the
//! blocking [`RegisterHost::write`] / [`RegisterHost::read`] wait on a
//! one-shot slot for the same completion. Inspection is submissions too,
//! one per object, gathered by completion, and follows one rule, the
//! simulator's: ask every process, skip what is gone or is not the automaton
//! asked for — so crashed processes, Byzantine substitutes and relays are
//! looked past, never poisoned.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use vrr_sim::Automaton;

use vrr_core::metrics::{self, names, FastPathStats, Histogram, Registry};
use vrr_core::regular::{RegularObject, RegularReader};
use vrr_core::safe::SafeReader;
use vrr_core::{
    group_span, spawn_group, Deployment, GroupRole, Msg, ProtocolKind, ProtocolSpec, ReadReport,
    StorageConfig, Value, WriteReport, Writer,
};

use crate::cluster::{op_slot, Cluster, InvokeError};
use crate::sharded::{Padded, Sharded};

/// Rounds and latency histograms of one kind of operation (the host's
/// READs, or its WRITEs) under their canonical `vrr_*` names, resolved once,
/// and the READs' fast-path counters: a completion records into them
/// directly and [`RegisterHost::op_metrics`] folds them into a [`Registry`].
///
/// One record per shard ([`Sharded`]): an operation records into the shard of
/// the thread that started it, wherever its completion fires, holding it by
/// that shard's own `Arc` — so two callers write neither the same histogram
/// nor the same reference count.
///
/// Latency ticks are wall-clock **microseconds**, measured from the call
/// that wraps the completion to the completion firing, wherever
/// [`Cluster::submit`] runs it (the simulator records sim ticks under the
/// same names; the unit is the harness's to define).
struct OpMeter {
    /// The names of [`Recorded::rounds`] and [`Recorded::latency`].
    names: [&'static str; 2],
    /// One [`Recorded`] per shard.
    recorded: Sharded<Arc<Padded<Mutex<Recorded>>>>,
}

/// What one shard of an [`OpMeter`] recorded.
struct Recorded {
    rounds: Histogram,
    latency: Histogram,
    /// [`FastPathStats::count`] of every READ report (a hit per READ that
    /// sent no READ2, a fallback per other READ); zero for WRITEs.
    fast: FastPathStats,
}

impl OpMeter {
    fn new(rounds_name: &'static str, latency_name: &'static str) -> Self {
        OpMeter {
            names: [rounds_name, latency_name],
            recorded: Sharded::new(|| {
                Arc::new(Padded(Mutex::new(Recorded {
                    rounds: Histogram::named(rounds_name),
                    latency: Histogram::named(latency_name),
                    fast: FastPathStats::default(),
                })))
            }),
        }
    }

    /// Starts the clock of an operation: the returned completion records
    /// its latency and lets `record` read the report (an [`InvokeError`]
    /// records nothing), then calls `done`.
    fn timed<R: 'static>(
        &self,
        record: impl FnOnce(&R, &mut Recorded) + Send + 'static,
        done: impl FnOnce(Result<R, InvokeError>) + Send + 'static,
    ) -> impl FnOnce(Result<R, InvokeError>) + Send + 'static {
        let recorded = Arc::clone(self.recorded.mine());
        let started = Instant::now();
        move |result| {
            if let Ok(report) = &result {
                let us = started.elapsed().as_micros() as u64;
                let mut recorded = recorded.0.lock();
                recorded.latency.observe(us);
                record(report, &mut recorded);
            }
            done(result);
        }
    }

    fn fold_into(&self, reg: &mut Registry) {
        for shard in self.recorded.all() {
            let recorded = shard.0.lock();
            reg.observe_all(self.names[0], &[], &recorded.rounds);
            reg.observe_all(self.names[1], &[], &recorded.latency);
            metrics::record_fast_path(reg, &recorded.fast);
        }
    }
}

/// `slots` register groups — each `cfg.s` objects, one writer and
/// `cfg.readers` readers — on one worker-pool cluster, addressed by slot.
///
/// # Examples
///
/// ```
/// use vrr_core::StorageConfig;
/// use vrr_runtime::{Cluster, NoDelay, ProtocolKind, RegisterHost};
///
/// let cfg = StorageConfig::optimal(1, 1, 1);
/// let host: RegisterHost<u64> = RegisterHost::spawn(
///     Cluster::new(Box::new(NoDelay)),
///     cfg,
///     ProtocolKind::RegularOptimized.into(),
///     2,
///     |_slot, _role| None,
/// );
/// host.write(1, 7);
/// assert_eq!(host.read(1, 0).value, Some(7));
/// assert_eq!(host.read(0, 0).value, None);
/// ```
pub struct RegisterHost<V: Value> {
    cluster: Cluster<Msg<V>>,
    cfg: StorageConfig,
    kind: ProtocolKind,
    groups: Vec<Deployment>,
    writes: OpMeter,
    reads: OpMeter,
}

impl<V: Value> RegisterHost<V> {
    /// Spawns `slots` register groups running `spec` onto the (empty)
    /// `cluster`, slot by slot in the canonical member order — so the
    /// member at position `p` of slot `s` gets process id
    /// `s * group_span(cfg) + p` on every host started from the same
    /// arguments.
    ///
    /// `substitute(slot, role)` may replace the automaton of any member:
    /// a Byzantine object, a relay for a member living in another OS
    /// process. Returning `None` deploys the honest automaton `spec` calls
    /// for.
    ///
    /// Each group is one unit of execution, run by one thread at a time —
    /// the thread that starts an operation on it when it is idle, else its
    /// home worker (slot `s` on worker `s % workers`) — so the rounds of an
    /// operation are same-thread traffic and parallelism is across slots.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` already holds a process: the pid arithmetic
    /// above — which relays and the placement rely on — would be off.
    pub fn spawn(
        mut cluster: Cluster<Msg<V>>,
        cfg: StorageConfig,
        spec: ProtocolSpec,
        slots: usize,
        mut substitute: impl FnMut(usize, GroupRole) -> Option<Box<dyn Automaton<Msg<V>>>>,
    ) -> Self {
        assert!(
            cluster.is_empty(),
            "RegisterHost::spawn needs an empty cluster: slot s must start at pid s * group_span"
        );
        cluster.set_group_span(group_span(cfg));
        let groups = (0..slots)
            .map(|slot| {
                spawn_group(
                    cfg,
                    spec,
                    |_role, automaton| cluster.spawn(automaton),
                    |role, _objects| substitute(slot, role),
                )
            })
            .collect();
        RegisterHost {
            cluster,
            cfg,
            kind: spec.kind(),
            groups,
            writes: OpMeter::new(names::WRITER_ROUNDS, names::WRITE_LATENCY),
            reads: OpMeter::new(names::READER_ROUNDS, names::READ_LATENCY),
        }
    }

    /// The sizing of every group.
    pub fn config(&self) -> StorageConfig {
        self.cfg
    }

    /// The protocol variant.
    pub fn kind(&self) -> ProtocolKind {
        self.kind
    }

    /// The process ids of every group, slot by slot.
    pub fn groups(&self) -> &[Deployment] {
        &self.groups
    }

    /// The underlying cluster (fault injection, raw sends, stats).
    pub fn cluster(&self) -> &Cluster<Msg<V>> {
        &self.cluster
    }

    /// Starts `WRITE(value)` on slot `slot` and returns without waiting;
    /// `done` fires with the report, or with [`InvokeError::Gone`] if the
    /// slot's writer is crashed — on this thread before the call returns if the
    /// slot is idle, else on a worker (see [`Cluster::submit`] for the full
    /// contract: hold no lock across this call that `done` takes).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn write_with(
        &self,
        slot: usize,
        value: V,
        done: impl FnOnce(Result<WriteReport, InvokeError>) + Send + 'static,
    ) {
        self.cluster.submit(
            self.groups[slot].writer,
            move |w: &mut Writer<V>, ctx| w.invoke_write(value, ctx),
            |w: &mut Writer<V>, &id| w.take_outcome(id),
            self.writes.timed(
                |report: &WriteReport, rec: &mut Recorded| {
                    rec.rounds.observe(u64::from(report.rounds));
                },
                done,
            ),
        );
    }

    /// Starts `READ()` at reader `j` of slot `slot` and returns without
    /// waiting; `done` fires with the report, or with [`InvokeError::Gone`]
    /// if that reader is crashed — where [`Cluster::submit`] says: on this thread
    /// if the slot is idle.
    ///
    /// # Panics
    ///
    /// Panics if `slot` or `j` is out of range.
    pub fn read_with(
        &self,
        slot: usize,
        j: usize,
        done: impl FnOnce(Result<ReadReport<V>, InvokeError>) + Send + 'static,
    ) {
        let reader = self.groups[slot].readers[j];
        let done = self.reads.timed(
            move |report: &ReadReport<V>, rec: &mut Recorded| {
                rec.rounds.observe(u64::from(report.rounds));
                rec.fast.count(report);
            },
            done,
        );
        match self.kind {
            ProtocolKind::Safe => self.cluster.submit(
                reader,
                |r: &mut SafeReader<V>, ctx| r.invoke_read(ctx),
                |r: &mut SafeReader<V>, &id| r.take_outcome(id),
                done,
            ),
            ProtocolKind::Regular | ProtocolKind::RegularOptimized | ProtocolKind::Atomic => {
                self.cluster.submit(
                    reader,
                    |r: &mut RegularReader<V>, ctx| r.invoke_read(ctx),
                    |r: &mut RegularReader<V>, &id| r.take_outcome(id),
                    done,
                )
            }
        }
    }

    /// Blocking `WRITE(value)` on slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range, the writer is crashed, or the
    /// write does not complete within [`crate::OP_TIMEOUT`] — with at most
    /// `t` faulty objects that is a wait-freedom violation.
    pub fn write(&self, slot: usize, value: V) -> WriteReport {
        let (done, pending) = op_slot();
        self.write_with(slot, value, done);
        pending
            .wait()
            .unwrap_or_else(|e| panic!("operation failed: {e}"))
    }

    /// Blocking `READ()` at reader `j` of slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` or `j` is out of range, the reader is crashed, or
    /// the read does not complete within [`crate::OP_TIMEOUT`].
    pub fn read(&self, slot: usize, j: usize) -> ReadReport<V> {
        let (done, pending) = op_slot();
        self.read_with(slot, j, done);
        pending
            .wait()
            .unwrap_or_else(|e| panic!("operation failed: {e}"))
    }

    /// Crashes object `i` of slot `slot` (fault injection).
    ///
    /// # Panics
    ///
    /// Panics if `slot` or `i` is out of range.
    pub fn crash_object(&self, slot: usize, i: usize) {
        self.cluster.crash(self.groups[slot].objects[i]);
    }

    /// `(object index, history length)` of every live [`RegularObject`] in
    /// slot `slot`, in object order — the memory-bound observable of the
    /// reader-ack GC experiments. Whatever else sits at an object's pid is
    /// skipped: a crashed process, a Byzantine substitute (a liar's
    /// "history" is meaningless), a relay, a history-less safe object.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn history_lens(&self, slot: usize) -> Vec<(usize, usize)> {
        let (done, pending) = op_slot();
        self.history_lens_with(slot..slot + 1, move |mut lens| done(Ok(lens.remove(0))));
        pending.wait().expect("a fan-in completes with its pieces")
    }

    /// [`RegisterHost::history_lens`] of every slot in `slots`, by
    /// completion: one submission per object — answered by the object, or
    /// skipped as `WrongType` or `Gone` — and `done` once the last has
    /// completed, by whichever thread lets go of the fan-in last. An object
    /// runs no operation, so no inspection waits behind one.
    fn history_lens_with(
        &self,
        slots: Range<usize>,
        done: impl FnOnce(Vec<Vec<(usize, usize)>>) + Send + 'static,
    ) {
        let groups = &self.groups[slots];
        let fan_in = Arc::new(FanIn {
            found: Mutex::new(vec![None; groups.len() * self.cfg.s]),
            s: self.cfg.s,
            done: Mutex::new(Some(done)),
        });
        if self.kind == ProtocolKind::Safe {
            return; // no object keeps a history: `done` gets empty slots
        }
        for (at, &pid) in groups.iter().flat_map(|g| &g.objects).enumerate() {
            let fan_in = Arc::clone(&fan_in);
            self.cluster.submit(
                pid,
                |o: &mut RegularObject<V>, _ctx| o.history().len(),
                |_: &mut RegularObject<V>, &len| Some(len),
                move |len: Result<usize, InvokeError>| fan_in.found.lock()[at] = len.ok(),
            );
        }
    }

    /// The rounds/latency histograms of the operations this host completed
    /// so far and its READs' fast-path counters (hits, the READs that
    /// returned on round 1, and fallbacks, every other READ:
    /// [`FastPathStats::count`]), plus
    /// its worker pool's activity counters under their canonical
    /// `vrr_executor_*` names.
    pub fn op_metrics(&self) -> Registry {
        let executor = self.cluster.stats();
        let mut reg = Registry::new();
        self.writes.fold_into(&mut reg);
        self.reads.fold_into(&mut reg);
        reg.counter_add(names::EXECUTOR_SWEEPS, &[], executor.sweeps);
        reg.counter_add(names::EXECUTOR_WAKEUPS, &[], executor.wakeups);
        reg.counter_add(names::EXECUTOR_COMMANDS, &[], executor.commands);
        reg
    }

    /// One snapshot of everything observable about the host, under the
    /// same canonical `vrr_*` names ([`vrr_core::metrics::names`]) the
    /// simulator harness exports: [`RegisterHost::op_metrics`] and one
    /// history-length gauge per inspectable object labelled
    /// `{object, shard}` with its own index and slot — and
    /// `cluster="<cluster>"` when given, so the snapshots of a router's
    /// clusters merge without colliding. Encode with
    /// [`vrr_core::metrics::Registry::to_prometheus`].
    pub fn metrics_snapshot_labelled(&self, cluster: Option<usize>) -> Registry {
        let (done, pending) = op_slot();
        self.metrics_snapshot_with(cluster, move |reg| done(Ok(reg)));
        pending.wait().expect("a fan-in completes with its pieces")
    }

    /// [`RegisterHost::metrics_snapshot_labelled`] by completion: the
    /// operation half is taken now, the history gauges are added as the
    /// objects' inspections complete, and `done` gets the registry from
    /// the last of them — on this thread, before the call returns, if every
    /// group is idle. `done` must neither block nor panic.
    pub fn metrics_snapshot_with(
        &self,
        cluster: Option<usize>,
        done: impl FnOnce(Registry) + Send + 'static,
    ) {
        let mut reg = self.op_metrics();
        self.history_lens_with(0..self.groups.len(), move |lens| {
            for (slot, lens) in lens.iter().enumerate() {
                metrics::record_history_lens(&mut reg, cluster, Some(slot), lens);
            }
            done(reg);
        });
    }
}

/// What the inspections of [`RegisterHost::history_lens_with`] found,
/// object by object, slot after slot; dropped by the last of them, which
/// hands `done` the lengths found, slot by slot.
struct FanIn<D: FnOnce(Vec<Vec<(usize, usize)>>)> {
    found: Mutex<Vec<Option<usize>>>,
    /// Objects per slot.
    s: usize,
    done: Mutex<Option<D>>,
}

impl<D: FnOnce(Vec<Vec<(usize, usize)>>)> Drop for FanIn<D> {
    fn drop(&mut self) {
        let found = self.found.get_mut().chunks(self.s).map(|slot| {
            let slot = slot.iter().enumerate();
            slot.filter_map(|(i, len)| Some((i, (*len)?))).collect()
        });
        if let Some(done) = self.done.get_mut().take() {
            done(found.collect());
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::sync_channel;
    use std::time::Duration;

    use vrr_core::attackers::AttackerKind;
    use vrr_core::regular::HistoryRetention;

    use vrr_core::Timestamp;
    use vrr_sim::{Context, ProcessId};

    use super::*;
    use crate::link::{LinkAction, LinkPolicy, NoDelay};
    use crate::OP_TIMEOUT;

    fn host_with(
        cfg: StorageConfig,
        spec: impl Into<ProtocolSpec>,
        slots: usize,
        substitute: impl FnMut(usize, GroupRole) -> Option<Box<dyn Automaton<Msg<u64>>>>,
    ) -> RegisterHost<u64> {
        let cluster = Cluster::new(Box::new(NoDelay));
        RegisterHost::spawn(cluster, cfg, spec.into(), slots, substitute)
    }

    fn honest(
        cfg: StorageConfig,
        spec: impl Into<ProtocolSpec>,
        slots: usize,
    ) -> RegisterHost<u64> {
        host_with(cfg, spec, slots, |_slot, _role| None)
    }

    /// One honest `RegularOptimized` group at `optimal(1, 1, 1)` on `cluster`.
    fn one_honest_slot_on(cluster: Cluster<Msg<u64>>) -> RegisterHost<u64> {
        let cfg = StorageConfig::optimal(1, 1, 1);
        let kind = ProtocolKind::RegularOptimized;
        RegisterHost::spawn(cluster, cfg, kind.into(), 1, |_, _| None)
    }

    #[test]
    fn slots_are_independent_registers_in_canonical_pid_order() {
        let cfg = StorageConfig::optimal(1, 1, 2);
        let host = honest(cfg, ProtocolKind::Safe, 3);
        let span = vrr_core::group_span(cfg);
        for (slot, group) in host.groups().iter().enumerate() {
            assert_eq!(group.objects[0].index(), slot * span);
            assert_eq!(group.readers[1].index(), slot * span + span - 1);
        }
        host.write(0, 10);
        host.write(2, 30);
        assert_eq!(host.read(0, 1).value, Some(10));
        assert_eq!(host.read(1, 0).value, None, "slot 1 was never written");
        assert_eq!(host.read(2, 0).value, Some(30));
    }

    /// Stands in for a member and counts what reaches it.
    struct Spy(u32);

    impl Automaton<Msg<u64>> for Spy {
        fn on_message(
            &mut self,
            _: vrr_sim::ProcessId,
            _: Msg<u64>,
            _: &mut Context<'_, Msg<u64>>,
        ) {
            self.0 += 1;
        }
    }

    #[test]
    #[should_panic(expected = "needs an empty cluster")]
    fn spawn_refuses_a_cluster_that_already_holds_a_process() {
        let mut cluster = Cluster::new(Box::new(NoDelay));
        cluster.spawn(Box::new(Spy(0)));
        let cfg = StorageConfig::optimal(1, 1, 1);
        RegisterHost::<u64>::spawn(cluster, cfg, ProtocolKind::Safe.into(), 1, |_, _| None);
    }

    #[test]
    fn a_message_to_a_never_registered_pid_reaches_no_process() {
        let cfg = StorageConfig::optimal(1, 1, 1);
        let cluster = Cluster::with_workers(Box::new(NoDelay), 3);
        let spies = |_slot, _role| Some(Box::new(Spy(0)) as Box<dyn Automaton<Msg<u64>>>);
        let host = RegisterHost::<u64>::spawn(cluster, cfg, ProtocolKind::Safe.into(), 4, spies);
        let (cluster, len) = (host.cluster(), host.cluster().len());
        let strays = [len, len + group_span(cfg), usize::MAX / 2].map(ProcessId);
        let msg = || Msg::WAck { ts: Timestamp(1) };
        // From inside every group's runner (local queue and cross-worker
        // flush) and from outside.
        for pid in (0..len).map(ProcessId) {
            let sent = cluster.try_invoke(pid, move |_: &mut Spy, ctx| {
                strays.iter().for_each(|&to| ctx.send(to, msg()));
            });
            assert_eq!(sent, Ok(()));
        }
        strays
            .iter()
            .for_each(|&to| cluster.send_external(ProcessId(0), to, msg()));
        // Two passes: the second is queued behind whatever the flushes that
        // followed the first could have delivered.
        let seen: Vec<_> = (0..2 * len)
            .map(|p| cluster.try_invoke(ProcessId(p % len), |spy: &mut Spy, _ctx| spy.0))
            .collect();
        assert_eq!(seen, vec![Ok(0); 2 * len]);
    }

    /// The worker thread `pid` lives on, or `None` if its automaton is not
    /// an honest member of a regular group. A submission may run on the
    /// calling thread, so the probe completes at the first step after its
    /// start: the delivery of a message no member acts on, which only the
    /// group's worker makes.
    fn worker_of(host: &RegisterHost<u64>, pid: ProcessId) -> Option<String> {
        fn probe<A: Automaton<Msg<u64>>>(
            cluster: &Cluster<Msg<u64>>,
            pid: ProcessId,
        ) -> Result<Option<String>, InvokeError> {
            let (tx, rx) = sync_channel(1);
            let mut polls = 0;
            cluster.submit(
                pid,
                |_: &mut A, _ctx| (),
                move |_: &mut A, ()| {
                    polls += 1;
                    (polls > 1).then(|| std::thread::current().name().map(str::to_owned))
                },
                move |found| {
                    let _ = tx.send(found);
                },
            );
            cluster.send_external(pid, pid, Msg::WAck { ts: Timestamp(0) });
            rx.recv_timeout(OP_TIMEOUT).expect("the probe completes")
        }
        let cluster = host.cluster();
        probe::<RegularObject<u64>>(cluster, pid)
            .or_else(|_| probe::<Writer<u64>>(cluster, pid))
            .or_else(|_| probe::<RegularReader<u64>>(cluster, pid))
            .ok()
            .flatten()
    }

    #[test]
    fn a_group_lives_on_one_worker_and_groups_cover_the_pool() {
        for cfg in [
            StorageConfig::optimal(1, 1, 2),
            StorageConfig::optimal(2, 1, 2),
        ] {
            let cluster = Cluster::with_workers(Box::new(NoDelay), 4);
            let kind = ProtocolKind::RegularOptimized;
            let host = RegisterHost::spawn(cluster, cfg, kind.into(), 8, |slot, role| {
                (slot == 5 && role == GroupRole::Object(1))
                    .then(|| AttackerKind::Inflator.build_regular(cfg, 0xBAD))
            });
            let mut used = std::collections::BTreeSet::new();
            for (slot, group) in host.groups().iter().enumerate() {
                let members = group
                    .objects
                    .iter()
                    .chain([&group.writer])
                    .chain(&group.readers);
                let mut workers: Vec<String> =
                    members.filter_map(|&pid| worker_of(&host, pid)).collect();
                let honest = group_span(cfg) - usize::from(slot == 5);
                assert_eq!(workers.len(), honest, "slot {slot}: the liar is skipped");
                workers.dedup();
                assert_eq!(workers, [format!("vrr-worker-{}", slot % 4)], "slot {slot}");
                used.extend(workers);
            }
            assert_eq!(
                used.len(),
                4,
                "span {}: every worker hosts groups",
                group_span(cfg)
            );
        }
    }

    #[test]
    fn a_read_on_an_idle_host_wakes_one_worker() {
        let cluster = Cluster::with_workers(Box::new(NoDelay), 4);
        let host = one_honest_slot_on(cluster);
        host.write(0, 1);
        let before = host.cluster().stats();
        for _ in 0..200 {
            assert_eq!(host.read(0, 0).value, Some(1));
        }
        let after = host.cluster().stats();
        // One hand-off in (the submit), none per round: the group's own
        // traffic never leaves its worker.
        let (wakeups, sweeps) = (after.wakeups - before.wakeups, after.sweeps - before.sweeps);
        assert!(wakeups <= 300 && sweeps <= 400, "{before:?} -> {after:?}");
    }

    /// `reads` READs at reader 0 of `slot`, one at a time; returns how many
    /// of their completions ran on the calling thread.
    fn reads_completed_here(host: &RegisterHost<u64>, slot: usize, reads: usize) -> usize {
        let me = std::thread::current().id();
        let (tx, rx) = sync_channel(1);
        let here = (0..reads).filter(|_| {
            let tx = tx.clone();
            host.read_with(slot, 0, move |report| {
                assert_eq!(report.expect("the reader is alive").value, Some(1));
                let _ = tx.send(std::thread::current().id());
            });
            rx.recv_timeout(OP_TIMEOUT).expect("wait-freedom") == me
        });
        here.count()
    }

    /// Returns once `slot`'s group is idle and its worker parked: a probe
    /// READ, after a pause long enough for the worker to finish whatever an
    /// earlier probe scheduled, completed on this thread.
    fn settle(host: &RegisterHost<u64>, slot: usize) {
        let settled = (0..500).any(|_| {
            std::thread::sleep(Duration::from_millis(10));
            reads_completed_here(host, slot, 1) == 1
        });
        assert!(settled, "slot {slot} never came to rest");
    }

    #[test]
    fn a_read_on_an_idle_host_wakes_no_worker() {
        let cluster = Cluster::with_workers(Box::new(NoDelay), 4);
        let host = one_honest_slot_on(cluster);
        host.write(0, 1);
        settle(&host, 0);
        let before = host.cluster().stats();
        // No hand-off in, none out: the submitter runs the group, so both
        // rounds and the completion happen inside `read_with`.
        assert_eq!(reads_completed_here(&host, 0, 200), 200);
        let after = host.cluster().stats();
        assert!(
            after.wakeups - before.wakeups <= 10,
            "{before:?} -> {after:?}"
        );
    }

    #[test]
    fn two_submitters_on_slots_sharing_a_worker_complete_their_own_reads() {
        // Two workers: slots 0 and 2 share worker 0. The run lock is the
        // group's, not the worker's, so the two submitters never meet.
        let cfg = StorageConfig::optimal(1, 1, 1);
        let cluster = Cluster::with_workers(Box::new(NoDelay), 2);
        let kind = ProtocolKind::RegularOptimized;
        let host = RegisterHost::spawn(cluster, cfg, kind.into(), 3, |_, _| None);
        for slot in [0, 2] {
            host.write(slot, 1);
            settle(&host, slot);
        }
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for slot in [0, 2] {
                let (host, start) = (&host, &start);
                scope.spawn(move || {
                    start.wait();
                    assert_eq!(
                        reads_completed_here(host, slot, 2_000),
                        2_000,
                        "slot {slot}"
                    );
                });
            }
        });
    }

    /// Cuts one process off: everything to and from it is dropped.
    struct Isolate(ProcessId);

    impl LinkPolicy<Msg<u64>> for Isolate {
        fn action(&self, from: ProcessId, to: ProcessId, _: &Msg<u64>) -> LinkAction {
            if from == self.0 || to == self.0 {
                LinkAction::Drop
            } else {
                LinkAction::Deliver
            }
        }
    }

    #[test]
    fn the_link_policy_rules_links_inside_a_worker() {
        // The whole group shares one worker; object 0 (pid 0) is still as
        // unreachable as the policy says: the register absorbs it as its
        // one crash, and nothing is ever written to it.
        // (That a `FixedDelay` is served in full on the same links is
        // `link_delay_slows_but_does_not_break` in tests/runtime_threads.rs.)
        let host = one_honest_slot_on(Cluster::new(Box::new(Isolate(ProcessId(0)))));
        for k in 1..=20u64 {
            host.write(0, k);
            let r = host.read(0, 0);
            assert_eq!((r.value, r.rounds), (Some(k), 1));
        }
        let lens = host.history_lens(0);
        assert_eq!(lens, [(0, 1), (1, 21), (2, 21), (3, 21)]);
    }

    #[test]
    fn reader_ack_gc_bounds_history_per_slot() {
        let cfg = StorageConfig::optimal(1, 1, 1);
        let spec = ProtocolSpec::from(ProtocolKind::RegularOptimized)
            .with_retention(HistoryRetention::reader_ack());
        let host = honest(cfg, spec, 2);
        let (hot, cold) = (0, 1);
        for k in 1..=100u64 {
            host.write(hot, k);
            assert_eq!(host.read(hot, 0).value, Some(k));
            if k % 10 == 0 {
                host.write(cold, k);
                assert_eq!(host.read(cold, 0).value, Some(k));
            }
        }
        // Acks ride on the READ broadcasts, which are flushed before the
        // inspection command is enqueued: every object has truncated down
        // to the concurrency window by now.
        for slot in [hot, cold] {
            let lens = host.history_lens(slot);
            assert_eq!(lens.len(), cfg.s);
            for (i, len) in lens {
                assert!(
                    len <= 5,
                    "slot {slot} object {i}: history len {len} unbounded"
                );
            }
        }
        // The control: the paper-faithful default really does grow.
        let keep_all = honest(cfg, ProtocolKind::RegularOptimized, 1);
        for k in 1..=30u64 {
            keep_all.write(0, k);
            assert_eq!(keep_all.read(0, 0).value, Some(k));
        }
        let lens = keep_all.history_lens(0);
        assert!(lens.into_iter().all(|(_, len)| len == 31));
    }

    #[test]
    fn over_provisioned_sizing_reads_in_one_round() {
        // S = 2t + 2b + 1 = 5 arms the fast path: fault-free reads finish
        // in round 1 for both protocol families, on every slot.
        let cfg = StorageConfig::fast(1, 1, 1);
        for kind in [
            ProtocolKind::Safe,
            ProtocolKind::Regular,
            ProtocolKind::RegularOptimized,
        ] {
            let host = honest(cfg, kind, 2);
            for k in 1..=3u64 {
                for slot in 0..2 {
                    host.write(slot, k + slot as u64);
                    let r = host.read(slot, 0);
                    assert_eq!(r.value, Some(k + slot as u64), "{kind:?}");
                    assert_eq!(r.rounds, 1, "{kind:?}");
                    assert!(r.fast, "{kind:?}");
                }
            }
            let snap = host.op_metrics();
            let hits = snap.counter(names::READER_FAST_HITS, &[]);
            assert_eq!(hits, 6, "{kind:?}: summed over both slots");
            assert_eq!(
                snap.counter(names::READER_FAST_FALLBACKS, &[]),
                0,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn a_slot_survives_t_crashes_and_its_neighbour_none() {
        let cfg = StorageConfig::optimal(2, 1, 1); // S = 6, t = 2
        let host = honest(cfg, ProtocolKind::Safe, 2);
        host.write(0, 1);
        host.write(1, 2);
        host.crash_object(0, 0);
        host.crash_object(0, 3);
        host.write(0, 10);
        assert_eq!(host.read(0, 0).value, Some(10));
        assert_eq!(host.read(1, 0).value, Some(2));
    }

    #[test]
    fn metrics_snapshot_carries_every_family_and_labels_histories_by_slot() {
        let cfg = StorageConfig::fast(1, 1, 2);
        let spec = ProtocolSpec::from(ProtocolKind::RegularOptimized)
            .with_retention(HistoryRetention::reader_ack());
        let host = honest(cfg, spec, 2);
        for k in 1..=4u64 {
            host.write(0, k);
            host.read(0, 0);
            host.read(0, 1);
        }
        host.write(1, 9);
        let snap = host.metrics_snapshot_labelled(None);
        let count = |name| snap.histogram(name, &[]).unwrap().count();
        assert_eq!(count(names::WRITER_ROUNDS), 5);
        assert_eq!(count(names::WRITE_LATENCY), 5);
        assert_eq!(count(names::READER_ROUNDS), 8);
        assert_eq!(count(names::READ_LATENCY), 8);
        let hits = snap.counter(names::READER_FAST_HITS, &[]);
        let fallbacks = snap.counter(names::READER_FAST_FALLBACKS, &[]);
        assert_eq!(hits + fallbacks, 8, "every read hit or fell back");
        assert!(snap.counter(names::EXECUTOR_COMMANDS, &[]) > 0);
        // One gauge per object per slot, distinguished by the shard label.
        let lens = snap.gauge_values(names::OBJECT_HISTORY_LEN);
        assert_eq!(lens.len(), 2 * cfg.s);
        // The snapshot speaks the same text format as the sim harness.
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE vrr_writer_rounds histogram"));
        assert!(text.contains("vrr_object_history_len{object=\"0\",shard=\"1\"}"));
        let text = host.metrics_snapshot_labelled(Some(3)).to_prometheus();
        assert!(text.contains("vrr_object_history_len{cluster=\"3\",object=\"0\",shard=\"1\"}"));
        // The operation half alone: what a node merges next to a hosted
        // store's snapshot without colliding on its history gauges.
        let ops = host.op_metrics();
        assert_eq!(ops.histogram(names::READER_ROUNDS, &[]).unwrap().count(), 8);
        assert!(ops.gauge_values(names::OBJECT_HISTORY_LEN).is_empty());
    }

    #[test]
    fn inspection_skips_crashed_and_byzantine_objects_and_labels_the_rest_by_own_index() {
        let cfg = StorageConfig::fast(1, 1, 1);
        let liar_slot = 1;
        let host = host_with(cfg, ProtocolKind::RegularOptimized, 2, |slot, role| {
            (slot == liar_slot && role == GroupRole::Object(0))
                .then(|| AttackerKind::Inflator.build_regular(cfg, 0xBAD))
        });
        for slot in 0..2 {
            host.write(slot, 1);
            assert_eq!(host.read(slot, 0).value, Some(1));
        }
        host.crash_object(liar_slot, 2);

        let indices = |slot| -> Vec<usize> {
            let lens = host.history_lens(slot);
            lens.into_iter().map(|(i, _)| i).collect()
        };
        assert_eq!(indices(0), [0, 1, 2, 3, 4]);
        assert_eq!(
            indices(liar_slot),
            [1, 3, 4],
            "the liar and the crash are skipped"
        );

        // 5 objects - 1 Byzantine - 1 crashed = 3 inspectable histories in
        // the liar's slot, each labelled with the index of the object it
        // was read from.
        let snap = host.metrics_snapshot_labelled(None);
        assert_eq!(snap.gauge_values(names::OBJECT_HISTORY_LEN).len(), 5 + 3);
        for (i, &pid) in host.groups()[liar_slot].objects.iter().enumerate() {
            let labels = [("object", &*i.to_string()), ("shard", "1")];
            let gauge = snap.gauge(names::OBJECT_HISTORY_LEN, &labels);
            if i == 0 || i == 2 {
                assert_eq!(gauge, None, "object {i} is not inspectable");
                continue;
            }
            let len = host
                .cluster()
                .try_invoke(pid, |o: &mut RegularObject<u64>, _ctx| o.history().len())
                .expect("an honest live object");
            assert_eq!(gauge, Some(len as u64), "object {i}");
        }
        // Looked past, not poisoned: the slot still absorbs the liar as a
        // *Byzantine* fault next to the crash.
        host.write(liar_slot, 2);
        assert_eq!(host.read(liar_slot, 0).value, Some(2));
    }
}
