//! What a simulated register protocol is: the [`RegisterProtocol`] trait
//! and its one impl in this crate, for everything that names a
//! [`ProtocolSpec`] — a [`ProtocolKind`] (safe, regular, §5.1, atomic) or a
//! spec with its own retention and tuning. (The two operation reports are
//! what the automata themselves produce: [`ReadReport`], [`WriteReport`].)
//!
//! Nothing here drives a world. Operations enter a simulation through
//! [`crate::StorageScenario`] only, which is written once against the trait
//! and so runs any implementation: the four kinds here and the ABD /
//! masking-quorum / passive-reader baselines in `vrr-baselines`.

use vrr_sim::{Automaton, SimMessage, World};

use crate::attackers::AttackerKind;
use crate::config::StorageConfig;
use crate::group::{spawn_group, Deployment, ProtocolKind, ProtocolSpec};
use crate::msg::Msg;
use crate::reader::{ReadId, ReadReport};
use crate::regular::{RegularObject, RegularReader};
use crate::safe::SafeReader;
use crate::types::Value;
use crate::writer::{WriteId, WriteReport, Writer};

/// A simulated register protocol: how to deploy it and drive operations.
///
/// What a run observes of its operations comes from their reports:
/// [`crate::StorageScenario`] meters each one's rounds, latency and — for a
/// READ — its fast-path hit or fallback, so an implementation exposes no
/// counters of its own.
pub trait RegisterProtocol<V: Value> {
    /// The wire message type of this protocol.
    type Msg: SimMessage;

    /// Short display name (`"safe"`, `"abd"`, …).
    fn name(&self) -> &'static str;

    /// Spawns objects, the writer, and readers into `world`.
    fn deploy(&self, cfg: StorageConfig, world: &mut World<Self::Msg>) -> Deployment;

    /// Invokes `WRITE(value)`; returns an opaque op token.
    fn invoke_write(&self, dep: &Deployment, world: &mut World<Self::Msg>, value: V) -> u64;

    /// The write report, once the op with token `op` completed.
    fn write_outcome(
        &self,
        dep: &Deployment,
        world: &World<Self::Msg>,
        op: u64,
    ) -> Option<WriteReport>;

    /// Invokes `READ()` at reader `reader`; returns an opaque op token.
    fn invoke_read(&self, dep: &Deployment, world: &mut World<Self::Msg>, reader: usize) -> u64;

    /// The read report, once the op with token `op` completed.
    fn read_outcome(
        &self,
        dep: &Deployment,
        world: &World<Self::Msg>,
        reader: usize,
        op: u64,
    ) -> Option<ReadReport<V>>;

    /// `(object index, stored history length)` per object, or `None` for
    /// protocols whose objects keep no history (e.g. safe storage). Objects
    /// whose automaton was replaced (Byzantine) or crashed are skipped — a
    /// liar's "history" is meaningless — which is why the index travels
    /// with the length.
    fn history_lens(
        &self,
        dep: &Deployment,
        world: &World<Self::Msg>,
    ) -> Option<Vec<(usize, usize)>> {
        let _ = (dep, world);
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

    fn deploy(&self, cfg: StorageConfig, world: &mut World<Msg<V>>) -> Deployment {
        spawn_group(
            cfg,
            (*self).into(),
            |role, automaton| world.spawn_named(role.to_string(), automaton),
            |_role, _objects| None,
        )
    }

    fn invoke_write(&self, dep: &Deployment, world: &mut World<Msg<V>>, value: V) -> u64 {
        world.with_automaton_mut(dep.writer, |w: &mut Writer<V>, ctx| {
            w.invoke_write(value, ctx).0
        })
    }

    fn write_outcome(
        &self,
        dep: &Deployment,
        world: &World<Msg<V>>,
        op: u64,
    ) -> Option<WriteReport> {
        world.inspect(dep.writer, |w: &Writer<V>| w.outcome(WriteId(op)).copied())
    }

    fn invoke_read(&self, dep: &Deployment, world: &mut World<Msg<V>>, reader: usize) -> u64 {
        let pid = dep.readers[reader];
        match (*self).into() {
            ProtocolSpec::Safe(_) => {
                world.with_automaton_mut(pid, |r: &mut SafeReader<V>, ctx| r.invoke_read(ctx).0)
            }
            ProtocolSpec::Regular { .. } => {
                world.with_automaton_mut(pid, |r: &mut RegularReader<V>, ctx| r.invoke_read(ctx).0)
            }
        }
    }

    fn read_outcome(
        &self,
        dep: &Deployment,
        world: &World<Msg<V>>,
        reader: usize,
        op: u64,
    ) -> Option<ReadReport<V>> {
        let (pid, id) = (dep.readers[reader], ReadId(op));
        match (*self).into() {
            ProtocolSpec::Safe(_) => world.inspect(pid, |r: &SafeReader<V>| r.outcome(id).cloned()),
            ProtocolSpec::Regular { .. } => {
                world.inspect(pid, |r: &RegularReader<V>| r.outcome(id).cloned())
            }
        }
    }

    fn history_lens(&self, dep: &Deployment, world: &World<Msg<V>>) -> Option<Vec<(usize, usize)>> {
        match (*self).into() {
            ProtocolSpec::Safe(_) => None,
            ProtocolSpec::Regular { .. } => Some(
                dep.objects
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &pid)| {
                        let len = world.try_inspect(pid, |o: &RegularObject<V>| o.history().len());
                        len.map(|len| (i, len))
                    })
                    .collect(),
            ),
        }
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
