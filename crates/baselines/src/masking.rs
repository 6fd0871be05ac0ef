//! The masking-quorum fast-read baseline: one-round reads with
//! `S ≥ 2t + 2b + 1` objects.
//!
//! The regime the paper's introduction contrasts with ([MR98]-style masking
//! quorums; see also [1]'s result that one write round suffices above
//! `2t + 2b` objects): buy `b` extra objects beyond optimal resilience and
//! both operations become single-round. A read returns the highest
//! timestamped pair reported identically by at least `b + 1` objects —
//! every completed write is corroborated that strongly in any `S − t`
//! quorum, and no fabricated pair can be.
//!
//! Our lower-bound harness (`vrr-lowerbound`) shows this *same decision
//! rule* violates safety at `S = 2t + 2b`: this baseline sits exactly on
//! the tightness boundary of Proposition 1.

use std::collections::{BTreeMap, HashMap};

use vrr_sim::{Automaton, Context, ProcessId, World};

use vrr_core::{
    Deployment, ReadReport, RegisterProtocol, StorageConfig, Timestamp, TsVal, Value, WriteReport,
};

use crate::lite::{LiteMsg, LiteObject};

/// Sizing helper: the smallest object count at which fast reads are
/// possible, `2t + 2b + 1`.
pub fn masking_object_count(t: usize, b: usize) -> usize {
    2 * t + 2 * b + 1
}

/// The masking-quorum writer: a single timestamped broadcast round.
#[derive(Clone, Debug)]
pub struct MaskingWriter<V> {
    cfg: StorageConfig,
    objects: Vec<ProcessId>,
    object_index: HashMap<ProcessId, usize>,
    ts: Timestamp,
    in_flight: Option<(u64, std::collections::BTreeSet<usize>)>,
    outcomes: HashMap<u64, WriteReport>,
    next_op: u64,
    _marker: std::marker::PhantomData<V>,
}

impl<V: Value> MaskingWriter<V> {
    /// A writer for the given deployment.
    ///
    /// # Panics
    ///
    /// Panics if `objects.len() != cfg.s` or `cfg.s < 2t + 2b + 1` (below
    /// that, one-round operations are unsound — Proposition 1).
    pub fn new(cfg: StorageConfig, objects: Vec<ProcessId>) -> Self {
        assert_eq!(objects.len(), cfg.s);
        assert!(
            cfg.s >= masking_object_count(cfg.t, cfg.b),
            "masking fast reads need S >= 2t + 2b + 1"
        );
        let object_index = objects.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        MaskingWriter {
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
        self.in_flight = Some((op, std::collections::BTreeSet::new()));
        op
    }

    /// The report for write `op`, if complete.
    pub fn outcome(&self, op: u64) -> Option<&WriteReport> {
        self.outcomes.get(&op)
    }
}

impl<V: Value> Automaton<LiteMsg<V>> for MaskingWriter<V> {
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
        "masking-writer"
    }
}

/// The masking-quorum fast reader: one round, `b + 1`-corroboration rule.
#[derive(Clone, Debug)]
pub struct MaskingReader<V> {
    cfg: StorageConfig,
    objects: Vec<ProcessId>,
    object_index: HashMap<ProcessId, usize>,
    nonce: u64,
    /// In-flight op: (op id, per-object reported pair).
    op: Option<(u64, BTreeMap<usize, TsVal<V>>)>,
    outcomes: HashMap<u64, ReadReport<V>>,
    next_op: u64,
}

impl<V: Value> MaskingReader<V> {
    /// A reader for the given deployment.
    ///
    /// # Panics
    ///
    /// Panics if `objects.len() != cfg.s`.
    pub fn new(cfg: StorageConfig, objects: Vec<ProcessId>) -> Self {
        assert_eq!(objects.len(), cfg.s);
        let object_index = objects.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        MaskingReader {
            cfg,
            objects,
            object_index,
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
        self.op = Some((op, BTreeMap::new()));
        op
    }

    /// The report for read `op`, if complete.
    pub fn outcome(&self, op: u64) -> Option<&ReadReport<V>> {
        self.outcomes.get(&op)
    }

    /// The decision rule: the highest pair reported by ≥ b + 1 objects.
    /// Exposed for the lower-bound harness, which replays it on adversarial
    /// reply multisets.
    pub fn decide(replies: &BTreeMap<usize, TsVal<V>>, b: usize) -> Option<TsVal<V>> {
        let mut counts: BTreeMap<&TsVal<V>, usize> = BTreeMap::new();
        for pair in replies.values() {
            *counts.entry(pair).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .filter(|(_, n)| *n > b)
            .map(|(pair, _)| pair)
            .max_by_key(|pair| pair.ts)
            .cloned()
    }
}

impl<V: Value> Automaton<LiteMsg<V>> for MaskingReader<V> {
    fn on_message(&mut self, from: ProcessId, msg: LiteMsg<V>, _ctx: &mut Context<'_, LiteMsg<V>>) {
        let Some(&obj) = self.object_index.get(&from) else {
            return;
        };
        let LiteMsg::ReadAck { nonce, w, .. } = msg else {
            return;
        };
        if nonce != self.nonce {
            return;
        }
        let quorum = self.cfg.quorum();
        let b = self.cfg.b;
        let Some((op, ref mut replies)) = self.op else {
            return;
        };
        replies.entry(obj).or_insert(w);
        if replies.len() >= quorum {
            if let Some(best) = Self::decide(replies, b) {
                self.outcomes.insert(
                    op,
                    ReadReport {
                        value: best.value,
                        ts: best.ts,
                        rounds: 1,
                        fast: true,
                    },
                );
                self.op = None;
            }
            // No corroborated pair yet: keep collecting replies of the same
            // round (still one round-trip; §2.3's "at latest when the client
            // receives replies from S − t correct objects" applies to
            // termination, not to the exact count consumed).
        }
    }

    fn label(&self) -> &'static str {
        "masking-reader"
    }
}

/// Masking-quorum fast storage as a [`RegisterProtocol`].
///
/// Deploy with `cfg.s ≥ 2t + 2b + 1` (e.g. via
/// [`StorageConfig::with_objects`] and [`masking_object_count`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct MaskingProtocol;

impl<V: Value> RegisterProtocol<V> for MaskingProtocol {
    type Msg = LiteMsg<V>;

    fn name(&self) -> &'static str {
        "masking-fast"
    }

    fn deploy(&self, cfg: StorageConfig, world: &mut World<LiteMsg<V>>) -> Deployment {
        let objects: Vec<ProcessId> = (0..cfg.s)
            .map(|i| world.spawn_named(format!("s{i}"), Box::new(LiteObject::<V>::new())))
            .collect();
        let writer = world.spawn_named(
            "writer",
            Box::new(MaskingWriter::<V>::new(cfg, objects.clone())),
        );
        let readers: Vec<ProcessId> = (0..cfg.readers)
            .map(|j| {
                world.spawn_named(
                    format!("r{j}"),
                    Box::new(MaskingReader::<V>::new(cfg, objects.clone())),
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
        world.with_automaton_mut(dep.writer, |w: &mut MaskingWriter<V>, ctx| {
            w.invoke_write(value, ctx)
        })
    }

    fn write_outcome(
        &self,
        dep: &Deployment,
        world: &World<LiteMsg<V>>,
        op: u64,
    ) -> Option<WriteReport> {
        world.inspect(dep.writer, |w: &MaskingWriter<V>| w.outcome(op).copied())
    }

    fn invoke_read(&self, dep: &Deployment, world: &mut World<LiteMsg<V>>, reader: usize) -> u64 {
        world.with_automaton_mut(dep.readers[reader], |r: &mut MaskingReader<V>, ctx| {
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
        world.inspect(dep.readers[reader], |r: &MaskingReader<V>| {
            r.outcome(op).cloned()
        })
    }
}

#[cfg(test)]
mod tests {
    use vrr_core::StorageScenario;
    use vrr_sim::Tamper;

    use super::*;

    fn deploy(t: usize, b: usize) -> StorageScenario<u64, MaskingProtocol> {
        let cfg = StorageConfig::with_objects(masking_object_count(t, b), t, b, 1);
        StorageScenario::deploy(MaskingProtocol, cfg, 9)
    }

    fn inflator() -> Box<dyn Automaton<LiteMsg<u64>>> {
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
        }))
    }

    #[test]
    fn both_operations_are_single_round() {
        let mut sc = deploy(1, 1); // S = 5
        let wr = sc.write(42);
        assert_eq!(wr.rounds, 1);
        let rd = sc.read(0);
        assert_eq!(rd.value, Some(42));
        assert_eq!(rd.rounds, 1, "fast read above 2t + 2b objects");
    }

    #[test]
    fn fresh_read_returns_bottom() {
        assert_eq!(deploy(1, 1).read(0).value, None);
    }

    #[test]
    fn b_inflators_cannot_forge_a_value() {
        let mut sc = deploy(2, 2); // S = 9, b = 2
        sc.byzantine_object(0, inflator());
        sc.byzantine_object(4, inflator());
        sc.write(7);
        let rd = sc.read(0);
        assert_eq!(rd.value, Some(7), "b liars < b+1 corroboration");
        assert_eq!(rd.rounds, 1);
    }

    #[test]
    fn survives_t_crashes() {
        let mut sc = deploy(2, 1); // S = 7
        sc.crash_object(1).crash_object(5);
        sc.write(3);
        assert_eq!(sc.read(0).value, Some(3));
    }

    #[test]
    #[should_panic(expected = "S >= 2t + 2b + 1")]
    fn rejects_deployment_below_fast_threshold() {
        let cfg = StorageConfig::optimal(1, 1, 1); // S = 4 = 2t + 2b
        let _ = MaskingWriter::<u64>::new(cfg, (0..4).map(ProcessId).collect());
    }

    #[test]
    fn decide_rule_requires_corroboration() {
        let mut replies: BTreeMap<usize, TsVal<u64>> = BTreeMap::new();
        replies.insert(0, TsVal::new(Timestamp(5), 50));
        replies.insert(1, TsVal::new(Timestamp(5), 50));
        replies.insert(2, TsVal::new(Timestamp(9), 90)); // lone liar
        assert_eq!(
            MaskingReader::decide(&replies, 1),
            Some(TsVal::new(Timestamp(5), 50))
        );
        assert_eq!(MaskingReader::<u64>::decide(&BTreeMap::new(), 1), None);
    }
}
