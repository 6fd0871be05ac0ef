//! What a register protocol is, and the one host of it: the
//! [`RegisterProtocol`] trait, its one impl in this crate for everything
//! that names a [`ProtocolSpec`] — a [`ProtocolKind`] (safe, regular, §5.1,
//! atomic) or a spec with its own retention and tuning — and [`Registers`],
//! the register groups a host runs.
//!
//! Nothing here drives a host. An operation is one [`ClientOp`] value whose
//! `done` receives the report ([`ReadReport`], [`WriteReport`]);
//! [`Registers`] hands it out metered, and either host submits it
//! unchanged: [`crate::StorageScenario`] is [`Registers`] over a simulated
//! world — so it runs the four kinds here and the ABD / masking-quorum /
//! passive-reader baselines of `vrr-baselines` — and `vrr-runtime`'s
//! `RegisterHost` is [`Registers`] over a thread cluster.

use std::marker::PhantomData;
use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};

use vrr_sim::{Automaton, ClientOp, InvokeError, ProcessId, SimClock, SimMessage, SimTime};

use crate::attackers::AttackerKind;
use crate::config::StorageConfig;
use crate::group::{spawn_group, Deployment, GroupRole, ProtocolKind, ProtocolSpec};
use crate::metrics::{names, Histogram, Registry};
use crate::msg::Msg;
use crate::reader::ReadReport;
use crate::regular::{RegularObject, RegularReader};
use crate::safe::SafeReader;
use crate::sharded::{Padded, Sharded};
use crate::types::Value;
use crate::writer::{WriteReport, Writer};

/// A register protocol: how to deploy it and what its operations are.
///
/// What a run observes of its operations comes from their reports:
/// [`Registers`] meters each one's rounds, latency and — for a READ — its
/// fast-path hit or fallback, so an implementation exposes no counters of
/// its own.
pub trait RegisterProtocol<V: Value> {
    /// The wire message type of this protocol.
    type Msg: SimMessage;

    /// Short display name (`"safe"`, `"abd"`, …).
    fn name(&self) -> &'static str;

    /// Spawns objects, the writer and readers in the canonical order
    /// ([`GroupRole`]), each handed to `spawn` — the host's way of bringing
    /// an automaton to life — which returns the id it got.
    fn deploy(
        &self,
        cfg: StorageConfig,
        spawn: impl FnMut(GroupRole, Box<dyn Automaton<Self::Msg>>) -> ProcessId,
    ) -> Deployment;

    /// `WRITE(value)` at the writer of `dep`; `done` receives the report
    /// when the WRITE completes.
    fn write_op(
        &self,
        dep: &Deployment,
        value: V,
        done: impl FnOnce(Result<WriteReport, InvokeError>) + Send + 'static,
    ) -> ClientOp<Self::Msg>;

    /// `READ()` at reader `reader` of `dep`; `done` receives the report
    /// when the READ completes.
    fn read_op(
        &self,
        dep: &Deployment,
        reader: usize,
        done: impl FnOnce(Result<ReadReport<V>, InvokeError>) + Send + 'static,
    ) -> ClientOp<Self::Msg>;

    /// The inspection of the stored history length of the object at
    /// `object`, or `None` for protocols whose objects keep no history
    /// (safe storage, the baselines). `done` receives the length, or the
    /// [`InvokeError`] of an object that is gone or is not the automaton
    /// asked for (a Byzantine substitute, a relay).
    fn history_len_op(
        &self,
        object: ProcessId,
        done: impl FnOnce(Result<usize, InvokeError>) + Send + 'static,
    ) -> Option<ClientOp<Self::Msg>> {
        let _ = (object, done);
        None
    }

    /// An attacker automaton from the catalogue, speaking this protocol's
    /// wire format and forging `forged` where the attack calls for a fake
    /// value. `None` for protocols without a catalogue entry.
    fn corruptor(
        &self,
        kind: AttackerKind,
        cfg: StorageConfig,
        forged: V,
    ) -> Option<Box<dyn Automaton<Self::Msg>>> {
        let _ = (kind, cfg, forged);
        None
    }
}

/// A host's clock as the op meter reads it: sim ticks in a simulated world
/// ([`SimClock`]), wall-clock microseconds on threads.
pub trait Clock: Clone + Send + Sync + 'static {
    /// A point in time.
    type Stamp: Copy + Send + 'static;

    /// Now.
    fn stamp(&self) -> Self::Stamp;

    /// Ticks from `stamp` to now.
    fn ticks_since(&self, stamp: Self::Stamp) -> u64;
}

impl Clock for SimClock {
    type Stamp = SimTime;

    fn stamp(&self) -> SimTime {
        self.now()
    }

    fn ticks_since(&self, stamp: SimTime) -> u64 {
        self.now() - stamp
    }
}

/// The histograms of the op meter, by their canonical `vrr_*` names: a
/// WRITE's rounds and latency, then a READ's.
const HISTOGRAMS: [&str; 4] = [
    names::WRITER_ROUNDS,
    names::WRITE_LATENCY,
    names::READER_ROUNDS,
    names::READ_LATENCY,
];

const METER_LOCK: &str = "the op meter holds no lock across a panic";

/// What one shard of the op meter recorded.
struct Recorded {
    /// One histogram per name of [`HISTOGRAMS`].
    histograms: [Histogram; 4],
    /// READs that sent READ2 or wrote back, and READs that returned on
    /// round 1: fallbacks and hits, counted by [`ReadReport::fast`].
    fast: [u64; 2],
}

impl Recorded {
    /// One operation whose rounds histogram is `at`: 0 for a WRITE, 2 for
    /// a READ.
    fn observe(&mut self, at: usize, rounds: u32, latency: u64) {
        self.histograms[at].observe(u64::from(rounds));
        self.histograms[at + 1].observe(latency);
    }
}

/// One shard of the op meter: what it recorded, and its own handle on the
/// host's clock, cloned once so that no operation clones a shared one.
struct MeterShard<C> {
    clock: C,
    recorded: Mutex<Recorded>,
}

/// The register groups a host runs — `slots` deployments of one protocol
/// at one sizing — with the meter of their operations and the inspection
/// of their histories, written once for a simulated world and a thread
/// cluster alike: a host submits what [`Registers::write_op`],
/// [`Registers::read_op`] and [`Registers::inspect`] hand out, unchanged.
/// The meter reads the host's [`Clock`] when an operation completes, however
/// late its driver looks at it.
pub struct Registers<V: Value, P: RegisterProtocol<V>, C: Clock> {
    protocol: P,
    cfg: StorageConfig,
    groups: Vec<Deployment>,
    /// The op meter: one [`MeterShard`] per shard. An operation reads the
    /// clock of, and records into, the shard of the thread that built it,
    /// held by that shard's own `Arc`, so two callers share neither a
    /// histogram nor a reference count.
    meter: Sharded<Arc<Padded<MeterShard<C>>>>,
    _marker: PhantomData<fn() -> V>,
}

impl<V: Value, P: RegisterProtocol<V>, C: Clock> Registers<V, P, C> {
    /// Deploys `slots` groups of `protocol` at sizing `cfg`, slot by slot,
    /// through `spawn(slot, role, automaton)`; operations are metered on
    /// `clock`.
    pub fn spawn(
        protocol: P,
        cfg: StorageConfig,
        slots: usize,
        clock: C,
        mut spawn: impl FnMut(usize, GroupRole, Box<dyn Automaton<P::Msg>>) -> ProcessId,
    ) -> Self {
        let groups = (0..slots)
            .map(|slot| protocol.deploy(cfg, |role, automaton| spawn(slot, role, automaton)))
            .collect();
        Registers {
            protocol,
            cfg,
            groups,
            meter: Sharded::new(|| {
                let recorded = Recorded {
                    histograms: HISTOGRAMS.map(Histogram::named),
                    fast: [0; 2],
                };
                Arc::new(Padded(MeterShard {
                    clock: clock.clone(),
                    recorded: Mutex::new(recorded),
                }))
            }),
            _marker: PhantomData,
        }
    }

    /// The protocol every group runs.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The sizing of every group.
    pub fn config(&self) -> StorageConfig {
        self.cfg
    }

    /// The process ids of every group, slot by slot.
    pub fn groups(&self) -> &[Deployment] {
        &self.groups
    }

    /// `WRITE(value)` on slot `slot`; its completion meters the WRITE, then
    /// calls `done`. Panics if `slot` is out of range.
    pub fn write_op(
        &self,
        slot: usize,
        value: V,
        done: impl FnOnce(Result<WriteReport, InvokeError>) + Send + 'static,
    ) -> ClientOp<P::Msg> {
        let done = self.metered(
            |report: &WriteReport, latency, rec: &mut Recorded| {
                rec.observe(0, report.rounds, latency);
            },
            done,
        );
        self.protocol.write_op(&self.groups[slot], value, done)
    }

    /// `READ()` at reader `j` of slot `slot`; its completion meters the
    /// READ, a fast-path hit or fallback included, then calls `done`.
    /// Panics if `slot` or `j` is out of range.
    pub fn read_op(
        &self,
        slot: usize,
        j: usize,
        done: impl FnOnce(Result<ReadReport<V>, InvokeError>) + Send + 'static,
    ) -> ClientOp<P::Msg> {
        let done = self.metered(
            |report: &ReadReport<V>, latency, rec: &mut Recorded| {
                rec.observe(2, report.rounds, latency);
                rec.fast[usize::from(report.fast)] += 1;
            },
            done,
        );
        self.protocol.read_op(&self.groups[slot], j, done)
    }

    /// Stamps an operation invoked now: its completion lets `record` read
    /// the report and its latency on the host's clock (an [`InvokeError`]
    /// records nothing), then calls `done`.
    fn metered<R: 'static>(
        &self,
        record: impl FnOnce(&R, u64, &mut Recorded) + Send + 'static,
        done: impl FnOnce(Result<R, InvokeError>) + Send + 'static,
    ) -> impl FnOnce(Result<R, InvokeError>) + Send + 'static {
        let shard = self.meter.mine();
        let invoked = shard.0.clock.stamp();
        let shard = Arc::clone(shard);
        move |result| {
            if let Ok(report) = &result {
                let latency = shard.0.clock.ticks_since(invoked);
                let mut recorded = shard.0.recorded.lock().expect(METER_LOCK);
                record(report, latency, &mut recorded);
            }
            done(result);
        }
    }

    /// The history inspection of the slots in `slots`, by completion: one
    /// [`RegisterProtocol::history_len_op`] per object goes to `submit`, and
    /// once the last has completed `done` gets `(object index, history
    /// length)` per slot, in object order. What is gone or is not the
    /// automaton asked for — a crashed process, a Byzantine substitute, a
    /// relay — is skipped; a protocol whose objects keep no history reports
    /// an empty list. An object runs no operation, so no inspection waits.
    pub fn inspect(
        &self,
        slots: Range<usize>,
        mut submit: impl FnMut(ClientOp<P::Msg>),
        done: impl FnOnce(Vec<Vec<(usize, usize)>>) + Send + 'static,
    ) {
        let groups = &self.groups[slots];
        let fan_in = Arc::new(FanIn {
            found: Mutex::new(vec![None; groups.len() * self.cfg.s]),
            s: self.cfg.s,
            done: Mutex::new(Some(done)),
        });
        for (at, &pid) in groups.iter().flat_map(|g| &g.objects).enumerate() {
            let fan_in = Arc::clone(&fan_in);
            let found = move |len: Result<usize, InvokeError>| {
                let mut found = fan_in.found.lock().expect("held only to fill a piece");
                found[at] = len.ok();
            };
            if let Some(op) = self.protocol.history_len_op(pid, found) {
                submit(op);
            }
        }
    }

    /// The rounds and latency histograms of the operations completed so
    /// far and the READs' fast-path hits and fallbacks.
    pub fn op_metrics(&self) -> Registry {
        let mut reg = Registry::new();
        for shard in self.meter.all() {
            let recorded = shard.0.recorded.lock().expect(METER_LOCK);
            for (name, histogram) in HISTOGRAMS.into_iter().zip(&recorded.histograms) {
                reg.observe_all(name, &[], histogram);
            }
            reg.counter_add(names::READER_FAST_FALLBACKS, &[], recorded.fast[0]);
            reg.counter_add(names::READER_FAST_HITS, &[], recorded.fast[1]);
        }
        reg
    }
}

/// What the inspections of [`Registers::inspect`] found, object by object;
/// the last of them to let go hands `done` the lengths, slot by slot.
struct FanIn<D: FnOnce(Vec<Vec<(usize, usize)>>)> {
    found: Mutex<Vec<Option<usize>>>,
    /// Objects per slot.
    s: usize,
    done: Mutex<Option<D>>,
}

impl<D: FnOnce(Vec<Vec<(usize, usize)>>)> Drop for FanIn<D> {
    fn drop(&mut self) {
        let found = self.found.get_mut().unwrap_or_else(PoisonError::into_inner);
        let found = found.chunks(self.s).map(|slot| {
            let slot = slot.iter().enumerate();
            slot.filter_map(|(i, len)| Some((i, (*len)?))).collect()
        });
        let done = self.done.get_mut().unwrap_or_else(PoisonError::into_inner);
        if let Some(done) = done.take() {
            done(found.collect());
        }
    }
}

/// **Shim, to be deleted by ROADMAP item 8.** `benchmark/src/counts.rs`
/// names `RegularProtocol::optimized()` and system PRs may not edit
/// `benchmark/`; everything else says [`ProtocolKind::RegularOptimized`].
pub struct RegularProtocol;

impl RegularProtocol {
    /// [`ProtocolKind::RegularOptimized`].
    pub fn optimized() -> ProtocolKind {
        ProtocolKind::RegularOptimized
    }
}

/// Everything that names a [`ProtocolSpec`] is a simulated register
/// protocol: the spec itself (mutation experiments deploy one with a
/// deliberately broken tuning, and the consistency checkers must catch
/// the resulting violations — validating that green experiment results are
/// meaningful) and a bare [`ProtocolKind`].
impl<V: Value, P: Copy + Into<ProtocolSpec>> RegisterProtocol<V> for P {
    type Msg = Msg<V>;

    fn name(&self) -> &'static str {
        (*self).into().name()
    }

    fn deploy(
        &self,
        cfg: StorageConfig,
        spawn: impl FnMut(GroupRole, Box<dyn Automaton<Msg<V>>>) -> ProcessId,
    ) -> Deployment {
        spawn_group(cfg, (*self).into(), spawn)
    }

    fn write_op(
        &self,
        dep: &Deployment,
        value: V,
        done: impl FnOnce(Result<WriteReport, InvokeError>) + Send + 'static,
    ) -> ClientOp<Msg<V>> {
        ClientOp::new(
            dep.writer,
            move |w: &mut Writer<V>, ctx| w.invoke_write(value, ctx),
            |w: &mut Writer<V>, _| w.take_outcome(),
            done,
        )
    }

    fn read_op(
        &self,
        dep: &Deployment,
        reader: usize,
        done: impl FnOnce(Result<ReadReport<V>, InvokeError>) + Send + 'static,
    ) -> ClientOp<Msg<V>> {
        let pid = dep.readers[reader];
        match (*self).into() {
            ProtocolSpec::Safe(_) => ClientOp::new(
                pid,
                |r: &mut SafeReader<V>, ctx| r.invoke_read(ctx),
                |r: &mut SafeReader<V>, _| r.take_outcome(),
                done,
            ),
            ProtocolSpec::Regular { .. } => ClientOp::new(
                pid,
                |r: &mut RegularReader<V>, ctx| r.invoke_read(ctx),
                |r: &mut RegularReader<V>, _| r.take_outcome(),
                done,
            ),
        }
    }

    fn history_len_op(
        &self,
        object: ProcessId,
        done: impl FnOnce(Result<usize, InvokeError>) + Send + 'static,
    ) -> Option<ClientOp<Msg<V>>> {
        let ProtocolSpec::Regular { .. } = (*self).into() else {
            return None;
        };
        Some(ClientOp::new(
            object,
            |o: &mut RegularObject<V>, _ctx| o.history().len(),
            |_: &mut RegularObject<V>, &len| Some(len),
            done,
        ))
    }

    fn corruptor(
        &self,
        kind: AttackerKind,
        cfg: StorageConfig,
        forged: V,
    ) -> Option<Box<dyn Automaton<Msg<V>>>> {
        Some((*self).into().attacker(kind, cfg, forged))
    }
}
