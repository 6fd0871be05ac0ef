//! Extension: SWMR **atomic** storage via read write-back (three-round
//! reads).
//!
//! The paper deliberately targets safe/regular semantics — that is where
//! the 2-round optimality story lives — and cites atomic storage as a
//! different trade-off space (§1: one-round atomic reads need
//! `R(t+b) + 2t + b` objects \[7\], or luck \[8, 9\]). This module adds the
//! natural upgrade at optimal resilience: a reader that, before returning
//! the tuple it selected, **writes it back** to a quorum, exactly like the
//! ABD write-back but over the paper's candidate machinery. The write-back
//! plants the returned tuple at `≥ t + 1` non-malicious objects, so every
//! later read finds it as a never-eliminable candidate and returns it or
//! something newer — no new/old inversion, hence atomicity for the SWMR
//! register.
//!
//! Cost: one extra round-trip (3-round reads), which is the point — it
//! quantifies what the paper's regular semantics buys: reads return in 2
//! rounds *because* they are allowed to invert under concurrency.

use std::collections::{BTreeSet, HashMap};

use vrr_sim::{Automaton, Context, ProcessId, World};

use crate::config::StorageConfig;
use crate::group::{spawn_group, Deployment, GroupRole, ProtocolKind};
use crate::harness::RegisterProtocol;
use crate::msg::Msg;
use crate::reader::{ReadId, ReadReport};
use crate::regular::RegularReader;
use crate::types::{Timestamp, TsVal, Value, WTuple};
use crate::writer::WriteReport;

#[derive(Clone, Debug)]
enum AtomicPhase<V> {
    /// Delegating to the inner regular read.
    Reading { inner_id: ReadId },
    /// Writing the chosen tuple back; waiting for a quorum of `W` acks.
    WriteBack {
        chosen: WTuple<V>,
        acks: BTreeSet<usize>,
        /// Rounds the inner regular read took (2, or 1 on its fast path).
        base_rounds: u32,
    },
}

/// A reader providing atomic (linearizable) semantics: the §5 regular read
/// plus a write-back round (extension; see the module docs).
#[derive(Clone, Debug)]
pub struct AtomicReader<V: Value> {
    cfg: StorageConfig,
    objects: Vec<ProcessId>,
    object_index: HashMap<ProcessId, usize>,
    inner: RegularReader<V>,
    op: Option<(ReadId, AtomicPhase<V>)>,
    outcomes: HashMap<ReadId, ReadReport<V>>,
    next_id: u64,
}

impl<V: Value> AtomicReader<V> {
    /// An atomic reader with index `j` for the given deployment.
    ///
    /// # Panics
    ///
    /// Panics if `objects.len() != cfg.s` or `j >= cfg.readers`.
    pub fn new(cfg: StorageConfig, j: usize, objects: Vec<ProcessId>) -> Self {
        let object_index = objects.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        AtomicReader {
            cfg,
            objects: objects.clone(),
            object_index,
            inner: RegularReader::new(cfg, j, objects),
            op: None,
            outcomes: HashMap::new(),
            next_id: 0,
        }
    }

    /// Starts an atomic READ.
    ///
    /// # Panics
    ///
    /// Panics if a READ is already in progress.
    pub fn invoke_read(&mut self, ctx: &mut Context<'_, Msg<V>>) -> ReadId {
        assert!(self.op.is_none(), "well-formed reader: one READ at a time");
        let id = ReadId(self.next_id);
        self.next_id += 1;
        let inner_id = self.inner.invoke_read(ctx);
        self.op = Some((id, AtomicPhase::Reading { inner_id }));
        id
    }

    /// The outcome of read `id`, if complete.
    pub fn outcome(&self, id: ReadId) -> Option<&ReadReport<V>> {
        self.outcomes.get(&id)
    }

    /// Whether no READ is in progress.
    pub fn is_idle(&self) -> bool {
        self.op.is_none()
    }

    fn maybe_start_write_back(&mut self, ctx: &mut Context<'_, Msg<V>>) {
        let Some((id, AtomicPhase::Reading { inner_id })) = &self.op else {
            return;
        };
        let (id, inner_id) = (*id, *inner_id);
        let Some(inner_outcome) = self.inner.outcome(inner_id).cloned() else {
            return;
        };

        if inner_outcome.ts == Timestamp::ZERO {
            // Nothing written yet: ⊥ needs no write-back (it is the initial
            // state of every correct object already).
            self.outcomes.insert(id, inner_outcome);
            self.op = None;
            return;
        }
        // Reconstruct the chosen tuple and write it back. The matrix is not
        // needed for atomicity (only the pair is); an empty matrix keeps
        // the message small and is monotone-compatible at the objects.
        let chosen = WTuple::new(
            TsVal {
                ts: inner_outcome.ts,
                value: inner_outcome.value.clone(),
            },
            crate::types::TsrMatrix::empty(),
        );
        let msg = Msg::W {
            ts: chosen.ts(),
            pw: chosen.tsval.clone(),
            w: chosen.clone(),
        };
        ctx.broadcast(self.objects.iter().copied(), msg);
        self.op = Some((
            id,
            AtomicPhase::WriteBack {
                chosen,
                acks: BTreeSet::new(),
                base_rounds: inner_outcome.rounds,
            },
        ));
    }
}

impl<V: Value> Automaton<Msg<V>> for AtomicReader<V> {
    fn on_message(&mut self, from: ProcessId, msg: Msg<V>, ctx: &mut Context<'_, Msg<V>>) {
        match (&mut self.op, &msg) {
            (
                Some((
                    id,
                    AtomicPhase::WriteBack {
                        chosen,
                        acks,
                        base_rounds,
                    },
                )),
                Msg::WAck { ts },
            ) if *ts == chosen.ts() => {
                let Some(&obj) = self.object_index.get(&from) else {
                    return;
                };
                acks.insert(obj);
                if acks.len() >= self.cfg.quorum() {
                    let (id, chosen) = (*id, chosen.clone());
                    let rounds = *base_rounds + 1; // regular rounds + write-back
                    self.outcomes.insert(
                        id,
                        ReadReport {
                            value: chosen.tsval.value.clone(),
                            ts: chosen.ts(),
                            rounds,
                            fast: false,
                        },
                    );
                    self.op = None;
                }
            }
            _ => {
                // Everything else feeds the inner regular reader.
                self.inner.on_message(from, msg, ctx);
                self.maybe_start_write_back(ctx);
            }
        }
    }

    fn label(&self) -> &'static str {
        "atomic-reader"
    }
}

/// The atomic extension as a [`RegisterProtocol`]: the §5 regular storage
/// with [`AtomicReader`]s (writes unchanged, reads 3 rounds).
#[derive(Clone, Copy, Debug, Default)]
pub struct AtomicProtocol;

impl<V: Value> RegisterProtocol<V> for AtomicProtocol {
    type Msg = Msg<V>;

    fn name(&self) -> &'static str {
        "atomic-ext"
    }

    fn deploy(&self, cfg: StorageConfig, world: &mut World<Msg<V>>) -> Deployment {
        spawn_group(
            cfg,
            ProtocolKind::Regular.into(),
            |role, automaton| world.spawn_named(role.to_string(), automaton),
            |role, objects| match role {
                GroupRole::Reader(j) => {
                    Some(Box::new(AtomicReader::<V>::new(cfg, j, objects.to_vec())))
                }
                GroupRole::Object(_) | GroupRole::Writer => None,
            },
        )
    }

    fn invoke_write(&self, dep: &Deployment, world: &mut World<Msg<V>>, value: V) -> u64 {
        RegisterProtocol::<V>::invoke_write(&ProtocolKind::Regular, dep, world, value)
    }

    fn write_outcome(
        &self,
        dep: &Deployment,
        world: &World<Msg<V>>,
        op: u64,
    ) -> Option<WriteReport> {
        RegisterProtocol::<V>::write_outcome(&ProtocolKind::Regular, dep, world, op)
    }

    fn invoke_read(&self, dep: &Deployment, world: &mut World<Msg<V>>, reader: usize) -> u64 {
        world.with_automaton_mut(dep.readers[reader], |r: &mut AtomicReader<V>, ctx| {
            r.invoke_read(ctx).0
        })
    }

    fn read_outcome(
        &self,
        dep: &Deployment,
        world: &World<Msg<V>>,
        reader: usize,
        op: u64,
    ) -> Option<ReadReport<V>> {
        world.inspect(dep.readers[reader], |r: &AtomicReader<V>| {
            r.outcome(ReadId(op)).cloned()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attackers::AttackerKind;
    use crate::scenario::StorageScenario;

    #[test]
    fn atomic_reads_cost_three_rounds() {
        let cfg = StorageConfig::optimal(1, 1, 2);
        let mut sc = StorageScenario::deploy(AtomicProtocol, cfg, 6);
        sc.write(42u64);
        let r = sc.read(0);
        assert_eq!(r.value, Some(42));
        assert_eq!(r.rounds, 3, "regular's 2 rounds + write-back");
    }

    #[test]
    fn bottom_reads_skip_the_write_back() {
        let cfg = StorageConfig::optimal(1, 1, 1);
        let mut sc = StorageScenario::<u64, _>::deploy(AtomicProtocol, cfg, 6);
        let r = sc.read(0);
        assert_eq!(r.value, None);
        assert_eq!(r.rounds, 2, "nothing to write back");
    }

    #[test]
    fn atomic_reader_tolerates_byzantine_objects() {
        let cfg = StorageConfig::optimal(2, 2, 1);
        let mut sc = StorageScenario::deploy(AtomicProtocol, cfg, 6);
        for i in 0..cfg.b {
            sc.byzantine_object(i, AttackerKind::Inflator.build_regular(cfg, 0xBAD));
        }
        sc.write(7u64);
        assert_eq!(sc.read(0).value, Some(7));
    }

    /// The deterministic inversion scenario that the regular protocol
    /// admits (tests/consistency.rs) cannot happen here: after the first
    /// read returns the in-flight value, the write-back has planted it on
    /// a quorum, and the second read finds it whatever its quorum is.
    #[test]
    fn write_back_prevents_the_new_old_inversion() {
        let cfg = StorageConfig::optimal(1, 1, 2); // S = 4
        let mut sc = StorageScenario::deploy(AtomicProtocol, cfg, 4);
        sc.write(10u64);

        // Write 2: PW reaches everyone, W only object 0 (held for the rest).
        let mut w2 = sc.start_write(20u64);
        let (writer, o1, o2, o3) = (sc.writer(), sc.object(1), sc.object(2), sc.object(3));
        sc.world_mut()
            .adversary_mut()
            .install("hold W to 1..3", move |e| {
                (e.from == writer
                    && matches!(
                        e.msg,
                        Msg::W {
                            ts: Timestamp(2),
                            ..
                        }
                    )
                    && (e.to == o1 || e.to == o2 || e.to == o3))
                    .then_some(vrr_sim::Action::Hold)
            });
        sc.world_mut().run_until_idle(100_000);
        assert!(
            sc.poll_write(&mut w2).is_none(),
            "write 2 must be in flight"
        );

        // Read 1 (reader 0): quorum {0,1,2}; sees the in-flight 20 and
        // WRITES IT BACK before returning.
        let (from, to) = (sc.reader(0), sc.object(3));
        sc.world_mut().adversary_mut().hold_link(from, to);
        let r1 = sc.read(0);
        assert_eq!(r1.value, Some(20));
        assert_eq!(r1.rounds, 3);

        // Read 2 (reader 1): quorum {1,2,3} — object 0 unreachable. In the
        // regular protocol this read returned 10; here the write-back has
        // already planted 20 on the quorum.
        let (from, to) = (sc.reader(1), sc.object(0));
        sc.world_mut().adversary_mut().hold_link(from, to);
        let r2 = sc.read(1);
        assert_eq!(r2.value, Some(20), "no new/old inversion with write-back");
    }
}
