//! The passive-reader baseline: optimal resilience, readers never modify
//! object state, reads take up to `b + 1` rounds.
//!
//! This is the regime of [ACKM04] that the paper's introduction cites — "for
//! any safe storage, when readers do not modify the state of the base
//! objects, the optimal read complexity with less than 2t + 2b base objects
//! is b + 1 rounds" — and whose `b + 1` conjecture for general safe storage
//! the paper refutes with its 2-round active-reader algorithm.
//!
//! ## Protocol
//!
//! Writes are two-phase (pre-write to `pw`, then write to `w`), as required
//! at `S ≤ 2t + 2b` by [1]'s write lower bound. A read proceeds in rounds;
//! each round sends a fresh nonce to all objects and waits for `S − t`
//! replies. Evidence accumulates across rounds:
//!
//! * a *claim* is a `w`-field pair reported by some object;
//! * a claim is **confirmed** once `b + 1` distinct objects support it
//!   (matching `pw` or `w`);
//! * at each round end, the highest unsuspected claim is examined: if
//!   confirmed, it is returned; if it has already survived a full round
//!   without confirmation, its believers are lying — the claim is
//!   *suspected* and skipped; if it is fresh this round, a new round
//!   starts (the challenge round).
//!
//! Each Byzantine object can mint at most one top fake per round before its
//! claim is suspected, so at most `b` extra rounds occur: **worst case
//! `b + 1` rounds**, and one round when nobody lies.
//!
//! ## Soundness caveat (why the paper's protocol exists)
//!
//! Suspecting an unconfirmed claim is sound when every correct object
//! eventually applies every write — true in these experiments, where the
//! writer broadcasts to all and channels are reliable. Under unrestricted
//! asynchrony a single correct holder of the latest value can be starved
//! out of every quorum, and a passive reader fundamentally cannot tell it
//! from a liar — which is exactly why reads that *write* (the paper's §4
//! novelty) beat passive reads to 2 rounds.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use vrr_sim::{Automaton, Context, ProcessId, World};

use vrr_core::{
    Deployment, ReadReport, RegisterProtocol, StorageConfig, Timestamp, TsVal, Value, WriteReport,
};

use crate::lite::{LiteMsg, LiteObject};

/// The passive baseline's two-phase writer (pre-write, then write).
#[derive(Clone, Debug)]
pub struct PassiveWriter<V> {
    cfg: StorageConfig,
    objects: Vec<ProcessId>,
    object_index: HashMap<ProcessId, usize>,
    ts: Timestamp,
    phase: PassiveWritePhase<V>,
    outcomes: HashMap<u64, WriteReport>,
    next_op: u64,
}

#[derive(Clone, Debug)]
enum PassiveWritePhase<V> {
    Idle,
    Pre {
        op: u64,
        pair: TsVal<V>,
        acks: BTreeSet<usize>,
    },
    Commit {
        op: u64,
        acks: BTreeSet<usize>,
    },
}

impl<V: Value> PassiveWriter<V> {
    /// A writer for the given deployment.
    ///
    /// # Panics
    ///
    /// Panics if `objects.len() != cfg.s`.
    pub fn new(cfg: StorageConfig, objects: Vec<ProcessId>) -> Self {
        assert_eq!(objects.len(), cfg.s);
        let object_index = objects.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        PassiveWriter {
            cfg,
            objects,
            object_index,
            ts: Timestamp::ZERO,
            phase: PassiveWritePhase::Idle,
            outcomes: HashMap::new(),
            next_op: 0,
        }
    }

    /// Starts `WRITE(value)` (pre-write phase).
    ///
    /// # Panics
    ///
    /// Panics if a write is already in flight.
    pub fn invoke_write(&mut self, value: V, ctx: &mut Context<'_, LiteMsg<V>>) -> u64 {
        assert!(
            matches!(self.phase, PassiveWritePhase::Idle),
            "one WRITE at a time"
        );
        let op = self.next_op;
        self.next_op += 1;
        self.ts = self.ts.next();
        let pair = TsVal::new(self.ts, value);
        ctx.broadcast(
            self.objects.iter().copied(),
            LiteMsg::PreWrite { pair: pair.clone() },
        );
        self.phase = PassiveWritePhase::Pre {
            op,
            pair,
            acks: BTreeSet::new(),
        };
        op
    }

    /// The report for write `op`, if complete.
    pub fn outcome(&self, op: u64) -> Option<&WriteReport> {
        self.outcomes.get(&op)
    }
}

impl<V: Value> Automaton<LiteMsg<V>> for PassiveWriter<V> {
    fn on_message(&mut self, from: ProcessId, msg: LiteMsg<V>, ctx: &mut Context<'_, LiteMsg<V>>) {
        let Some(&obj) = self.object_index.get(&from) else {
            return;
        };
        let quorum = self.cfg.quorum();
        match (&mut self.phase, msg) {
            (PassiveWritePhase::Pre { op, pair, acks }, LiteMsg::PreWriteAck { ts })
                if ts == self.ts =>
            {
                acks.insert(obj);
                if acks.len() >= quorum {
                    let (op, pair) = (*op, pair.clone());
                    ctx.broadcast(self.objects.iter().copied(), LiteMsg::Write { pair });
                    self.phase = PassiveWritePhase::Commit {
                        op,
                        acks: BTreeSet::new(),
                    };
                }
            }
            (PassiveWritePhase::Commit { op, acks }, LiteMsg::WriteAck { ts }) if ts == self.ts => {
                acks.insert(obj);
                if acks.len() >= quorum {
                    let op = *op;
                    self.outcomes.insert(
                        op,
                        WriteReport {
                            ts: self.ts,
                            rounds: 2,
                        },
                    );
                    self.phase = PassiveWritePhase::Idle;
                }
            }
            _ => {}
        }
    }

    fn label(&self) -> &'static str {
        "passive-writer"
    }
}

#[derive(Clone, Debug)]
struct ClaimInfo {
    /// Objects supporting the claim (matching `pw` or `w`).
    support: BTreeSet<usize>,
    /// Round the claim was first reported in (1-based).
    first_round: u32,
}

#[derive(Clone, Debug)]
struct PassiveReadOp<V> {
    op: u64,
    round: u32,
    this_round: BTreeSet<usize>,
    claims: BTreeMap<TsVal<V>, ClaimInfo>,
    suspected: BTreeSet<TsVal<V>>,
    /// Objects caught lying: equivocators (different `w` claims across
    /// rounds of one read) and backers of challenge-failed claims. Their
    /// support no longer counts.
    blacklist: BTreeSet<usize>,
    /// Each object's last `w` claim, for equivocation detection.
    last_claim: BTreeMap<usize, TsVal<V>>,
}

/// The passive reader: round-based, never writes to objects.
#[derive(Clone, Debug)]
pub struct PassiveReader<V> {
    cfg: StorageConfig,
    objects: Vec<ProcessId>,
    object_index: HashMap<ProcessId, usize>,
    nonce: u64,
    op: Option<PassiveReadOp<V>>,
    outcomes: HashMap<u64, ReadReport<V>>,
    next_op: u64,
}

impl<V: Value> PassiveReader<V> {
    /// A reader for the given deployment.
    ///
    /// # Panics
    ///
    /// Panics if `objects.len() != cfg.s`.
    pub fn new(cfg: StorageConfig, objects: Vec<ProcessId>) -> Self {
        assert_eq!(objects.len(), cfg.s);
        let object_index = objects.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        PassiveReader {
            cfg,
            objects,
            object_index,
            nonce: 0,
            op: None,
            outcomes: HashMap::new(),
            next_op: 0,
        }
    }

    /// Starts a READ (round 1).
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
        self.op = Some(PassiveReadOp {
            op,
            round: 1,
            this_round: BTreeSet::new(),
            claims: BTreeMap::new(),
            suspected: BTreeSet::new(),
            blacklist: BTreeSet::new(),
            last_claim: BTreeMap::new(),
        });
        op
    }

    /// The report for read `op`, if complete.
    pub fn outcome(&self, op: u64) -> Option<&ReadReport<V>> {
        self.outcomes.get(&op)
    }

    /// Evaluate the end-of-round rule. Returns `Some(pair, rounds)` to
    /// finish, or `None` to open another round (suspects and the blacklist
    /// are updated in place).
    fn evaluate(op: &mut PassiveReadOp<V>, b1: usize) -> Option<(TsVal<V>, u32)> {
        loop {
            let top = op
                .claims
                .iter()
                .filter(|(pair, info)| {
                    !op.suspected.contains(pair)
                        && info.support.iter().any(|o| !op.blacklist.contains(o))
                })
                .max_by(|a, b| a.0.ts.cmp(&b.0.ts))
                .map(|(pair, info)| {
                    let live: BTreeSet<usize> = info
                        .support
                        .iter()
                        .copied()
                        .filter(|o| !op.blacklist.contains(o))
                        .collect();
                    (pair.clone(), live, info.first_round)
                });
            let Some((pair, live_support, first_round)) = top else {
                // Every claim is dead. Unreachable when the read is isolated
                // from writes (the latest written pair always confirms);
                // under concurrency safe semantics permit anything, so
                // return the best-supported claim (or ⊥).
                let fallback = op
                    .claims
                    .iter()
                    .max_by_key(|(pair, info)| (info.support.len(), pair.ts))
                    .map(|(pair, _)| pair.clone())
                    .unwrap_or_else(TsVal::bottom);
                return Some((fallback, op.round));
            };
            if live_support.len() >= b1 {
                return Some((pair, op.round));
            }
            if first_round < op.round {
                // Survived a full challenge round without corroboration:
                // only liars back it. Suspect it and stop believing its
                // backers.
                op.suspected.insert(pair);
                op.blacklist.extend(live_support);
                continue;
            }
            // Fresh unconfirmed top claim: challenge it next round.
            return None;
        }
    }
}

impl<V: Value> Automaton<LiteMsg<V>> for PassiveReader<V> {
    fn on_message(&mut self, from: ProcessId, msg: LiteMsg<V>, ctx: &mut Context<'_, LiteMsg<V>>) {
        let Some(&obj) = self.object_index.get(&from) else {
            return;
        };
        let LiteMsg::ReadAck { nonce, pw, w } = msg else {
            return;
        };
        if nonce != self.nonce {
            return;
        }
        let quorum = self.cfg.quorum();
        let b1 = self.cfg.b_plus_1();

        let Some(op) = self.op.as_mut() else { return };
        if !op.this_round.insert(obj) {
            return;
        }
        let round = op.round;
        // Equivocation check: a correct object's w claim never changes
        // within an isolated read (and under concurrency misjudging is
        // allowed), so a changed claim proves the object faulty.
        match op.last_claim.get(&obj) {
            Some(prev) if *prev != w => {
                op.blacklist.insert(obj);
            }
            _ => {
                op.last_claim.insert(obj, w.clone());
            }
        }
        // The w pair is a claim; both fields are support.
        op.claims
            .entry(w.clone())
            .or_insert_with(|| ClaimInfo {
                support: BTreeSet::new(),
                first_round: round,
            })
            .support
            .insert(obj);
        if pw != w {
            op.claims
                .entry(pw)
                .or_insert_with(|| ClaimInfo {
                    support: BTreeSet::new(),
                    first_round: round,
                })
                .support
                .insert(obj);
        }

        if op.this_round.len() < quorum {
            return;
        }
        match Self::evaluate(op, b1) {
            Some((pair, rounds)) => {
                let opid = op.op;
                self.outcomes.insert(
                    opid,
                    ReadReport {
                        value: pair.value,
                        ts: pair.ts,
                        rounds,
                        fast: rounds == 1,
                    },
                );
                self.op = None;
            }
            None => {
                // Open the next round.
                op.round += 1;
                op.this_round.clear();
                self.nonce += 1;
                ctx.broadcast(
                    self.objects.iter().copied(),
                    LiteMsg::Read { nonce: self.nonce },
                );
            }
        }
    }

    fn label(&self) -> &'static str {
        "passive-reader"
    }
}

/// The passive baseline as a [`RegisterProtocol`] (deploy at
/// `S = 2t + b + 1`).
#[derive(Clone, Copy, Debug, Default)]
pub struct PassiveProtocol;

impl<V: Value> RegisterProtocol<V> for PassiveProtocol {
    type Msg = LiteMsg<V>;

    fn name(&self) -> &'static str {
        "passive-b+1"
    }

    fn deploy(&self, cfg: StorageConfig, world: &mut World<LiteMsg<V>>) -> Deployment {
        let objects: Vec<ProcessId> = (0..cfg.s)
            .map(|i| world.spawn_named(format!("s{i}"), Box::new(LiteObject::<V>::new())))
            .collect();
        let writer = world.spawn_named(
            "writer",
            Box::new(PassiveWriter::<V>::new(cfg, objects.clone())),
        );
        let readers: Vec<ProcessId> = (0..cfg.readers)
            .map(|j| {
                world.spawn_named(
                    format!("r{j}"),
                    Box::new(PassiveReader::<V>::new(cfg, objects.clone())),
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
        world.with_automaton_mut(dep.writer, |w: &mut PassiveWriter<V>, ctx| {
            w.invoke_write(value, ctx)
        })
    }

    fn write_outcome(
        &self,
        dep: &Deployment,
        world: &World<LiteMsg<V>>,
        op: u64,
    ) -> Option<WriteReport> {
        world.inspect(dep.writer, |w: &PassiveWriter<V>| w.outcome(op).copied())
    }

    fn invoke_read(&self, dep: &Deployment, world: &mut World<LiteMsg<V>>, reader: usize) -> u64 {
        world.with_automaton_mut(dep.readers[reader], |r: &mut PassiveReader<V>, ctx| {
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
        world.inspect(dep.readers[reader], |r: &PassiveReader<V>| {
            r.outcome(op).cloned()
        })
    }
}

#[cfg(test)]
mod tests {
    use vrr_core::StorageScenario;

    use super::*;
    use crate::attackers::serial_forger;

    fn deploy(t: usize, b: usize) -> StorageScenario<u64, PassiveProtocol> {
        StorageScenario::deploy(PassiveProtocol, StorageConfig::optimal(t, b, 1), 13)
    }

    #[test]
    fn failure_free_read_is_one_round() {
        let mut sc = deploy(1, 1);
        let wr = sc.write(42);
        assert_eq!(
            wr.rounds, 2,
            "passive writes are two-phase at optimal resilience"
        );
        let rd = sc.read(0);
        assert_eq!(rd.value, Some(42));
        assert_eq!(rd.rounds, 1, "no liars: first round confirms");
    }

    #[test]
    fn fresh_read_returns_bottom_in_one_round() {
        let rd = deploy(2, 1).read(0);
        assert_eq!(rd.value, None);
        assert_eq!(rd.rounds, 1);
    }

    #[test]
    fn serial_forgers_force_b_plus_1_rounds() {
        for b in 1..=3usize {
            let t = b;
            let mut sc = deploy(t, b);
            // Forger ranked r starts lying at nonce r (= read round r for
            // the single read below).
            for rank in 1..=b {
                sc.byzantine_object(rank - 1, serial_forger(rank as u64, 900 + rank as u64));
            }
            sc.write(7);
            let rd = sc.read(0);
            assert_eq!(rd.value, Some(7), "b={b}: forgers must not win");
            assert_eq!(
                rd.rounds,
                (b + 1) as u32,
                "b={b}: serial forgery forces exactly b+1 rounds"
            );
        }
    }

    #[test]
    fn simultaneous_forgers_cost_only_one_extra_round() {
        let b = 3;
        let mut sc = deploy(b, b);
        for rank in 1..=b {
            // All start lying from round 1.
            sc.byzantine_object(rank - 1, serial_forger(1, 900 + rank as u64));
        }
        sc.write(7);
        let rd = sc.read(0);
        assert_eq!(rd.value, Some(7));
        assert_eq!(rd.rounds, 2, "all fakes challenged in parallel");
    }

    #[test]
    fn crashes_do_not_add_rounds() {
        let mut sc = deploy(2, 1); // S = 6
        sc.crash_object(0).crash_object(5);
        sc.write(3);
        let rd = sc.read(0);
        assert_eq!(rd.value, Some(3));
        assert_eq!(rd.rounds, 1);
    }
}
