//! What a register protocol is: the [`RegisterProtocol`] trait and its one
//! impl in this crate, for everything that names a [`ProtocolSpec`] — a
//! [`ProtocolKind`] (safe, regular, §5.1, atomic) or a spec with its own
//! retention and tuning.
//!
//! Nothing here drives a host. An operation is one [`ClientOp`] value whose
//! `done` receives the report ([`ReadReport`], [`WriteReport`]), and either
//! host submits it: [`crate::StorageScenario`] to a [`World`] — written once
//! against the trait, so it runs the four kinds here and the ABD /
//! masking-quorum / passive-reader baselines of `vrr-baselines` — and
//! `vrr-runtime`'s `RegisterHost` to a thread cluster.

use vrr_sim::{Automaton, ClientOp, InvokeError, SimMessage, World};

use crate::attackers::AttackerKind;
use crate::config::StorageConfig;
use crate::group::{spawn_group, Deployment, ProtocolKind, ProtocolSpec};
use crate::msg::Msg;
use crate::reader::ReadReport;
use crate::regular::{RegularObject, RegularReader};
use crate::safe::SafeReader;
use crate::types::Value;
use crate::writer::{WriteReport, Writer};

/// A register protocol: how to deploy it and what its operations are.
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
