//! The ABD baseline: crash-only SWMR storage [ABD95].
//!
//! The ancestor the paper cites for the `b = 0` case: `S = 2t + 1` objects,
//! one-round writes, one-round reads for regular semantics, and an optional
//! write-back phase for atomic semantics. No Byzantine tolerance — a single
//! lying object can defeat it, which the baseline tests demonstrate.

use std::collections::{BTreeSet, HashMap};

use vrr_sim::{Automaton, Context, ProcessId, World};

use vrr_core::{
    Deployment, ReadReport, RegisterProtocol, StorageConfig, Timestamp, TsVal, Value, WriteReport,
};

use crate::lite::{LiteMsg, LiteObject};

/// The ABD writer: one-round timestamped broadcast.
#[derive(Clone, Debug)]
pub struct AbdWriter<V> {
    cfg: StorageConfig,
    objects: Vec<ProcessId>,
    object_index: HashMap<ProcessId, usize>,
    ts: Timestamp,
    in_flight: Option<(u64, BTreeSet<usize>)>,
    outcomes: HashMap<u64, WriteReport>,
    next_op: u64,
    _marker: std::marker::PhantomData<V>,
}

impl<V: Value> AbdWriter<V> {
    /// A writer for the given deployment.
    ///
    /// # Panics
    ///
    /// Panics if `objects.len() != cfg.s`.
    pub fn new(cfg: StorageConfig, objects: Vec<ProcessId>) -> Self {
        assert_eq!(objects.len(), cfg.s);
        let object_index = objects.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        AbdWriter {
            cfg,
            objects,
            object_index,
            ts: Timestamp::ZERO,
            in_flight: None,
            outcomes: HashMap::new(),
            next_op: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// Starts `WRITE(value)`.
    ///
    /// # Panics
    ///
    /// Panics if a write is already in flight.
    pub fn invoke_write(&mut self, value: V, ctx: &mut Context<'_, LiteMsg<V>>) -> u64 {
        assert!(self.in_flight.is_none(), "one WRITE at a time");
        let op = self.next_op;
        self.next_op += 1;
        self.ts = self.ts.next();
        let pair = TsVal::new(self.ts, value);
        ctx.broadcast(self.objects.iter().copied(), LiteMsg::Write { pair });
        self.in_flight = Some((op, BTreeSet::new()));
        op
    }

    /// The report for write `op`, if complete.
    pub fn outcome(&self, op: u64) -> Option<&WriteReport> {
        self.outcomes.get(&op)
    }
}

impl<V: Value> Automaton<LiteMsg<V>> for AbdWriter<V> {
    fn on_message(&mut self, from: ProcessId, msg: LiteMsg<V>, _ctx: &mut Context<'_, LiteMsg<V>>) {
        let Some(&obj) = self.object_index.get(&from) else {
            return;
        };
        let LiteMsg::WriteAck { ts } = msg else {
            return;
        };
        if ts != self.ts {
            return;
        }
        let Some((op, ref mut acks)) = self.in_flight else {
            return;
        };
        acks.insert(obj);
        if acks.len() >= self.cfg.quorum() {
            self.outcomes.insert(
                op,
                WriteReport {
                    ts: self.ts,
                    rounds: 1,
                },
            );
            self.in_flight = None;
        }
    }

    fn label(&self) -> &'static str {
        "abd-writer"
    }
}

#[derive(Clone, Debug)]
enum ReadPhase<V> {
    Collect {
        acks: BTreeSet<usize>,
        best: TsVal<V>,
    },
    WriteBack {
        acks: BTreeSet<usize>,
        best: TsVal<V>,
    },
}

/// The ABD reader.
///
/// Regular mode: one round, return the highest timestamped pair among
/// `S − t` replies. Atomic mode: write the chosen pair back to a quorum
/// before returning (two rounds), which rules out new/old inversions.
#[derive(Clone, Debug)]
pub struct AbdReader<V> {
    cfg: StorageConfig,
    objects: Vec<ProcessId>,
    object_index: HashMap<ProcessId, usize>,
    atomic: bool,
    nonce: u64,
    op: Option<(u64, ReadPhase<V>)>,
    outcomes: HashMap<u64, ReadReport<V>>,
    next_op: u64,
}

impl<V: Value> AbdReader<V> {
    /// A reader; `atomic` enables the write-back phase.
    ///
    /// # Panics
    ///
    /// Panics if `objects.len() != cfg.s`.
    pub fn new(cfg: StorageConfig, objects: Vec<ProcessId>, atomic: bool) -> Self {
        assert_eq!(objects.len(), cfg.s);
        let object_index = objects.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        AbdReader {
            cfg,
            objects,
            object_index,
            atomic,
            nonce: 0,
            op: None,
            outcomes: HashMap::new(),
            next_op: 0,
        }
    }

    /// Starts a READ.
    ///
    /// # Panics
    ///
    /// Panics if a read is already in flight.
    pub fn invoke_read(&mut self, ctx: &mut Context<'_, LiteMsg<V>>) -> u64 {
        assert!(self.op.is_none(), "one READ at a time");
        let op = self.next_op;
        self.next_op += 1;
        self.nonce += 1;
        ctx.broadcast(
            self.objects.iter().copied(),
            LiteMsg::Read { nonce: self.nonce },
        );
        self.op = Some((
            op,
            ReadPhase::Collect {
                acks: BTreeSet::new(),
                best: TsVal::bottom(),
            },
        ));
        op
    }

    /// The report for read `op`, if complete.
    pub fn outcome(&self, op: u64) -> Option<&ReadReport<V>> {
        self.outcomes.get(&op)
    }

    fn finish(&mut self, op: u64, best: TsVal<V>, rounds: u32) {
        self.outcomes.insert(
            op,
            ReadReport {
                value: best.value,
                ts: best.ts,
                rounds,
                fast: rounds == 1,
            },
        );
        self.op = None;
    }
}

enum Step<V> {
    Wait,
    Finish { best: TsVal<V>, rounds: u32 },
    WriteBack { best: TsVal<V> },
}

impl<V: Value> Automaton<LiteMsg<V>> for AbdReader<V> {
    fn on_message(&mut self, from: ProcessId, msg: LiteMsg<V>, ctx: &mut Context<'_, LiteMsg<V>>) {
        let Some(&obj) = self.object_index.get(&from) else {
            return;
        };
        let quorum = self.cfg.quorum();
        let nonce_now = self.nonce;
        let atomic = self.atomic;

        let Some((op, phase)) = self.op.as_mut() else {
            return;
        };
        let op = *op;
        let step = match (phase, msg) {
            (ReadPhase::Collect { acks, best }, LiteMsg::ReadAck { nonce, w, .. }) => {
                if nonce != nonce_now || !acks.insert(obj) {
                    return;
                }
                if w.ts > best.ts {
                    *best = w;
                }
                if acks.len() < quorum {
                    Step::Wait
                } else if atomic && best.ts > Timestamp::ZERO {
                    Step::WriteBack { best: best.clone() }
                } else {
                    Step::Finish {
                        best: best.clone(),
                        rounds: 1,
                    }
                }
            }
            (ReadPhase::WriteBack { acks, best }, LiteMsg::WriteAck { ts }) => {
                if ts != best.ts || !acks.insert(obj) {
                    return;
                }
                if acks.len() < quorum {
                    Step::Wait
                } else {
                    Step::Finish {
                        best: best.clone(),
                        rounds: 2,
                    }
                }
            }
            _ => return,
        };

        match step {
            Step::Wait => {}
            Step::Finish { best, rounds } => self.finish(op, best, rounds),
            Step::WriteBack { best } => {
                ctx.broadcast(
                    self.objects.iter().copied(),
                    LiteMsg::Write { pair: best.clone() },
                );
                self.op = Some((
                    op,
                    ReadPhase::WriteBack {
                        acks: BTreeSet::new(),
                        best,
                    },
                ));
            }
        }
    }

    fn label(&self) -> &'static str {
        "abd-reader"
    }
}

/// ABD as a [`RegisterProtocol`]; `cfg.b` is ignored (crash-only baseline).
#[derive(Clone, Copy, Debug, Default)]
pub struct AbdProtocol {
    /// Enable the write-back phase (atomic semantics, 2-round reads).
    pub atomic: bool,
}

impl<V: Value> RegisterProtocol<V> for AbdProtocol {
    type Msg = LiteMsg<V>;

    fn name(&self) -> &'static str {
        if self.atomic {
            "abd-atomic"
        } else {
            "abd"
        }
    }

    fn deploy(&self, cfg: StorageConfig, world: &mut World<LiteMsg<V>>) -> Deployment {
        let objects: Vec<ProcessId> = (0..cfg.s)
            .map(|i| world.spawn_named(format!("s{i}"), Box::new(LiteObject::<V>::new())))
            .collect();
        let writer = world.spawn_named(
            "writer",
            Box::new(AbdWriter::<V>::new(cfg, objects.clone())),
        );
        let atomic = self.atomic;
        let readers: Vec<ProcessId> = (0..cfg.readers)
            .map(|j| {
                world.spawn_named(
                    format!("r{j}"),
                    Box::new(AbdReader::<V>::new(cfg, objects.clone(), atomic)),
                )
            })
            .collect();
        Deployment {
            cfg,
            objects,
            writer,
            readers,
        }
    }

    fn invoke_write(&self, dep: &Deployment, world: &mut World<LiteMsg<V>>, value: V) -> u64 {
        world.with_automaton_mut(dep.writer, |w: &mut AbdWriter<V>, ctx| {
            w.invoke_write(value, ctx)
        })
    }

    fn write_outcome(
        &self,
        dep: &Deployment,
        world: &World<LiteMsg<V>>,
        op: u64,
    ) -> Option<WriteReport> {
        world.inspect(dep.writer, |w: &AbdWriter<V>| w.outcome(op).copied())
    }

    fn invoke_read(&self, dep: &Deployment, world: &mut World<LiteMsg<V>>, reader: usize) -> u64 {
        world.with_automaton_mut(dep.readers[reader], |r: &mut AbdReader<V>, ctx| {
            r.invoke_read(ctx)
        })
    }

    fn read_outcome(
        &self,
        dep: &Deployment,
        world: &World<LiteMsg<V>>,
        reader: usize,
        op: u64,
    ) -> Option<ReadReport<V>> {
        world.inspect(dep.readers[reader], |r: &AbdReader<V>| {
            r.outcome(op).cloned()
        })
    }
}

#[cfg(test)]
mod tests {
    use vrr_core::StorageScenario;
    use vrr_sim::Tamper;

    use super::*;

    fn deploy(atomic: bool) -> StorageScenario<u64, AbdProtocol> {
        let cfg = StorageConfig::crash_only(1, 2); // S = 3
        StorageScenario::deploy(AbdProtocol { atomic }, cfg, 5)
    }

    #[test]
    fn abd_regular_round_counts() {
        let mut sc = deploy(false);
        let wr = sc.write(42);
        assert_eq!(wr.rounds, 1, "ABD writes are one round");
        let rd = sc.read(0);
        assert_eq!(rd.value, Some(42));
        assert_eq!(rd.rounds, 1, "ABD regular reads are one round");
    }

    #[test]
    fn abd_atomic_uses_write_back() {
        let mut sc = deploy(true);
        sc.write(42);
        let rd = sc.read(0);
        assert_eq!(rd.value, Some(42));
        assert_eq!(rd.rounds, 2, "atomic reads add the write-back round");
    }

    #[test]
    fn abd_atomic_read_of_bottom_is_one_round() {
        let rd = deploy(true).read(0);
        assert_eq!(rd.value, None);
        assert_eq!(rd.rounds, 1, "nothing to write back");
    }

    #[test]
    fn abd_tolerates_crashes() {
        let mut sc = deploy(false);
        sc.crash_object(1);
        sc.write(7);
        assert_eq!(sc.read(0).value, Some(7));
    }

    #[test]
    fn abd_is_defenseless_against_byzantine() {
        // Sanity check of the baseline's stated limitation: one inflating
        // liar makes the reader return a phantom value.
        let mut sc = deploy(false);
        sc.byzantine_object(
            0,
            Box::new(Tamper::new(LiteObject::<u64>::new(), |to, msg| {
                let msg = match msg {
                    LiteMsg::ReadAck { nonce, pw, .. } => LiteMsg::ReadAck {
                        nonce,
                        pw,
                        w: TsVal::new(Timestamp(u64::MAX / 2), 666),
                    },
                    other => other,
                };
                vec![(to, msg)]
            })),
        );
        sc.write(7);
        assert_eq!(
            sc.read(0).value,
            Some(666),
            "ABD believes the liar — by design it may not"
        );
    }
}
