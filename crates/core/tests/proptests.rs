//! Property tests on the core data structures, the conflict-free subset
//! solver, the incremental reader against the figures recomputed from
//! scratch, and end-to-end regularity under random history-GC schedules.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use vrr_core::reader::{Evidence, ReadId, Reader};
use vrr_core::regular::{HistoryRetention, RegularObject, RegularReader};
use vrr_core::safe::{SafeObject, SafeReader};
use vrr_core::wire::{decode_exact, Wire};
use vrr_core::{
    conflict_free_of_size, HistEntry, History, Msg, ProtocolKind, ProtocolSpec, ReadReport,
    ReadRound, ReaderTuning, StorageConfig, StorageScenario, Timestamp, TsVal, TsrMatrix, WTuple,
};
use vrr_sim::{Automaton, Context, ProcessId};

// ---------------------------------------------------------------------------
// History, against a `BTreeMap` model
// ---------------------------------------------------------------------------

/// One step against a history and its model. Timestamps count down from one
/// above the newest entry, where every protocol step lands: `back` 0
/// appends, 1 replaces the newest entry (a `W` after its `PW`), 2 is a
/// `PW`'s `ts − 1` backfill, and more reaches past the tail probes — a
/// write-back below `ts_i` — into the binary search.
#[derive(Clone, Debug)]
enum HistOp {
    Insert { back: u64, v: u64, with_w: bool },
    Get { back: u64 },
    Suffix { back: u64 },
    RetainFrom { back: u64 },
}

fn hist_op() -> impl Strategy<Value = HistOp> {
    (0u8..10, 0u64..24, any::<u64>(), any::<bool>()).prop_map(
        |(kind, back, v, with_w)| match kind {
            0..=5 => HistOp::Insert { back, v, with_w },
            6 => HistOp::Get { back },
            7 | 8 => HistOp::Suffix { back },
            _ => HistOp::RetainFrom { back },
        },
    )
}

type Model = BTreeMap<Timestamp, HistEntry<u64>>;

/// The history holds exactly the model's entries, in its order.
fn matches(h: &History<u64>, model: &Model) -> bool {
    h.len() == model.len()
        && h.iter().eq(model.iter().map(|(ts, e)| (*ts, e)))
        && h.max_ts() == model.keys().next_back().copied()
}

proptest! {
    #[test]
    fn history_behaves_like_an_ordered_map(
        ops in proptest::collection::vec(hist_op(), 0..120),
    ) {
        let mut h = History::initial();
        let mut model: Model = h.iter().map(|(ts, e)| (ts, e.clone())).collect();
        for op in &ops {
            let top = model.keys().next_back().map_or(0, |ts| ts.0 + 1);
            let at = |back: u64| Timestamp(top.saturating_sub(back));
            match *op {
                HistOp::Insert { back, v, with_w } => {
                    let pw = TsVal::new(at(back), v);
                    let w = with_w.then(|| WTuple::new(pw.clone(), TsrMatrix::empty()));
                    let (had, size) = (model.contains_key(&at(back)), h.wire_size());
                    h.insert(at(back), HistEntry { pw: pw.clone(), w: w.clone() });
                    model.insert(at(back), HistEntry { pw, w });
                    prop_assert!(had || h.wire_size() > size, "a new entry grows the wire size");
                }
                HistOp::Get { back } => prop_assert_eq!(h.get(at(back)), model.get(&at(back))),
                HistOp::Suffix { back } => {
                    let want = model.range(at(back)..).map(|(k, e)| (*k, e.clone())).collect();
                    prop_assert!(matches(&h.suffix(at(back)), &want), "suffix from {:?}", at(back));
                }
                HistOp::RetainFrom { back } => {
                    h.retain_from(at(back));
                    let cut = at(back).min(Timestamp(top - 1)); // never the newest entry
                    model.retain(|ts, _| *ts >= cut);
                }
            }
            prop_assert!(matches(&h, &model), "after {:?}", op);
            let decoded: History<u64> = decode_exact(&h.to_wire_vec()).expect("round trip");
            prop_assert!(decoded == h, "the wire round trip changed the history");
        }
    }
}

// ---------------------------------------------------------------------------
// Conflict-free subsets
// ---------------------------------------------------------------------------

/// The size of a maximum conflict-free subset of `0..n`, by the solver.
fn largest(n: usize, conflict: impl Fn(usize, usize) -> bool) -> usize {
    let fits = |need| conflict_free_of_size(0..n, &conflict, need);
    (0..=n).rev().find(|&need| fits(need)).unwrap_or(0)
}

proptest! {
    #[test]
    fn the_solver_finds_the_largest_conflict_free_subset(
        n in 1usize..12,
        edges in proptest::collection::vec((0usize..12, 0usize..12), 0..40),
    ) {
        let conflict = |i: usize, k: usize| edges.iter().any(|&(a, b)| a % n == i && b % n == k);
        // Brute force over every subset: an ordered pair in either direction,
        // or a member with itself, rules a subset out.
        let clash: Vec<u32> = (0..n)
            .map(|i| (0..n).filter(|&k| conflict(i, k) || conflict(k, i)).fold(0, |m, k| m | 1 << k))
            .collect();
        let brute = (0u32..1 << n)
            .filter(|&set| (0..n).all(|i| set & 1 << i == 0 || clash[i] & set == 0))
            .map(u32::count_ones)
            .max()
            .unwrap_or(0);
        prop_assert_eq!(largest(n, conflict), brute as usize);
    }

    #[test]
    fn adding_conflicts_never_grows_the_maximum(
        n in 2usize..12,
        edges in proptest::collection::vec((0usize..12, 0usize..12), 1..25),
    ) {
        let all = |i: usize, k: usize| edges.iter().any(|&(a, b)| a % n == i && b % n == k);
        let fewer = |i: usize, k: usize| {
            edges[..edges.len() - 1].iter().any(|&(a, b)| a % n == i && b % n == k)
        };
        prop_assert!(largest(n, all) <= largest(n, fewer));
    }
}

// ---------------------------------------------------------------------------
// Object monotonicity under arbitrary message sequences (Lemma 1's base).
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum ObjStimulus {
    Pw {
        ts: u64,
        v: u64,
    },
    W {
        ts: u64,
        v: u64,
    },
    Read {
        round: bool,
        reader: usize,
        tsr: u64,
        ack: u64,
    },
}

fn obj_stimulus() -> impl Strategy<Value = ObjStimulus> {
    prop_oneof![
        (1u64..50, any::<u64>()).prop_map(|(ts, v)| ObjStimulus::Pw { ts, v }),
        (1u64..50, any::<u64>()).prop_map(|(ts, v)| ObjStimulus::W { ts, v }),
        (any::<bool>(), 0usize..3, 1u64..50, 0u64..50).prop_map(|(round, reader, tsr, ack)| {
            ObjStimulus::Read {
                round,
                reader,
                tsr,
                ack,
            }
        }),
    ]
}

fn to_msg(s: &ObjStimulus) -> Msg<u64> {
    match *s {
        ObjStimulus::Pw { ts, v } => Msg::Pw {
            ts: Timestamp(ts),
            pw: TsVal::new(Timestamp(ts), v),
            w: WTuple::initial(),
        },
        ObjStimulus::W { ts, v } => {
            let tsval = TsVal::new(Timestamp(ts), v);
            Msg::W {
                ts: Timestamp(ts),
                pw: tsval.clone(),
                w: WTuple::new(tsval, TsrMatrix::empty()),
            }
        }
        ObjStimulus::Read {
            round,
            reader,
            tsr,
            ack,
        } => Msg::Read {
            round: if round { ReadRound::R2 } else { ReadRound::R1 },
            reader,
            tsr,
            since: None,
            ack: Timestamp(ack),
        },
    }
}

proptest! {
    #[test]
    fn safe_object_state_is_monotone(
        stimuli in proptest::collection::vec(obj_stimulus(), 0..60),
    ) {
        let mut obj: SafeObject<u64> = SafeObject::new();
        let mut out = Vec::new();
        let mut last_ts = Timestamp::ZERO;
        let mut last_tsr = [0u64; 3];
        for s in &stimuli {
            {
                let mut ctx = Context::new(ProcessId(0), &mut out);
                obj.on_message(ProcessId(9), to_msg(s), &mut ctx);
            }
            out.clear();
            prop_assert!(obj.ts() >= last_ts, "object timestamp regressed");
            last_ts = obj.ts();
            for (j, last) in last_tsr.iter_mut().enumerate() {
                prop_assert!(obj.tsr(j) >= *last, "reader timestamp regressed");
                *last = obj.tsr(j);
            }
            // The pw/w fields always carry ts ≤ the object's ts.
            prop_assert!(obj.pw().ts <= obj.ts());
            prop_assert!(obj.w().ts() <= obj.ts());
        }
    }

    #[test]
    fn regular_object_history_only_grows_under_keepall(
        stimuli in proptest::collection::vec(obj_stimulus(), 0..60),
    ) {
        let mut obj: RegularObject<u64> = RegularObject::new();
        let mut out = Vec::new();
        let mut last_len = obj.history().len();
        for s in &stimuli {
            {
                let mut ctx = Context::new(ProcessId(0), &mut out);
                obj.on_message(ProcessId(9), to_msg(s), &mut ctx);
            }
            out.clear();
            prop_assert!(obj.history().len() >= last_len, "history shrank under KeepAll");
            last_len = obj.history().len();
            prop_assert!(obj.history().get(Timestamp::ZERO).is_some(), "entry 0 must persist");
        }
    }
}

// ---------------------------------------------------------------------------
// The incremental reader against Figures 4 and 6 recomputed from scratch:
// after every delivery, a reference that keeps the stored replies and counts
// every predicate afresh over all of them — the figures' counts over
// `Resp1 ∪ Resp2` and `conflict(i, k)` as written — must have sent the same
// messages, hold as many live candidates and have reported the same outcome.
// ---------------------------------------------------------------------------

/// What a reader remembers between READs, restated for the reference.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Dialect {
    Safe,
    Regular,
    Optimized,
}

type Sent = Vec<(ProcessId, Msg<u64>)>;

/// Reader 0 of Figure 4 / Figure 6, recounting everything after every reply.
struct Reference<E: Evidence<u64>> {
    cfg: StorageConfig,
    tuning: ReaderTuning,
    dialect: Dialect,
    tsr: u64,
    /// The READ in progress: its `tsrFR` and whether it reached round 2.
    op: Option<(u64, bool)>,
    replies: [Vec<Option<E::Reply>>; 2],
    candidates: BTreeSet<WTuple<u64>>,
    eliminated: BTreeSet<WTuple<u64>>,
    cache: TsVal<u64>,
    acked: Timestamp,
    outcomes: Vec<Option<ReadReport<u64>>>,
}

impl<E: Evidence<u64>> Reference<E> {
    fn new(cfg: StorageConfig, tuning: ReaderTuning, dialect: Dialect) -> Self {
        Reference {
            cfg,
            tuning,
            dialect,
            tsr: 0,
            op: None,
            replies: [Vec::new(), Vec::new()],
            candidates: BTreeSet::new(),
            eliminated: BTreeSet::new(),
            cache: TsVal::bottom(),
            acked: Timestamp::ZERO,
            outcomes: Vec::new(),
        }
    }

    fn send(&self, round: ReadRound) -> Sent {
        let (since, ack) = match self.dialect {
            Dialect::Safe => (None, Timestamp::ZERO),
            Dialect::Regular => (None, self.acked),
            Dialect::Optimized => (Some(self.cache.ts), self.acked),
        };
        let (reader, tsr) = (0, self.tsr);
        let msg = Msg::Read {
            round,
            reader,
            tsr,
            since,
            ack,
        };
        (0..self.cfg.s)
            .map(|i| (ProcessId(i), msg.clone()))
            .collect()
    }

    fn invoke(&mut self) -> Sent {
        self.tsr += 1;
        self.op = Some((self.tsr, false));
        self.replies = [vec![None; self.cfg.s], vec![None; self.cfg.s]];
        self.candidates.clear();
        self.eliminated.clear();
        self.outcomes.push(None);
        self.send(ReadRound::R1)
    }

    /// Objects with a reply, in either round, satisfying `pred`.
    fn objects_where(&self, pred: impl Fn(&E::Reply) -> bool) -> usize {
        let holds = |reply: &Option<E::Reply>| reply.as_ref().is_some_and(&pred);
        let [first, second] = &self.replies;
        first
            .iter()
            .zip(second)
            .filter(|(one, two)| holds(one) || holds(two))
            .count()
    }

    /// `conflict(i, k)` for reader 0.
    fn conflict(&self, tsr_fr: u64, i: usize, k: usize) -> bool {
        let accuses = |c: &WTuple<u64>| c.tsrarray.get(i, 0).is_some_and(|t| t > tsr_fr);
        let reply = self.replies[0][k].as_ref();
        reply.is_some_and(|r| E::nominated(r).any(|c| self.candidates.contains(c) && accuses(c)))
    }

    fn highest(&self, ok: impl Fn(&WTuple<u64>) -> bool) -> Option<WTuple<u64>> {
        let high = self.candidates.iter().map(WTuple::ts).max()?;
        self.candidates
            .iter()
            .filter(|c| c.ts() == high)
            .find(|c| ok(c))
            .cloned()
    }

    fn deliver(&mut self, obj: usize, msg: Msg<u64>) -> Sent {
        let (Some((round, tsr, reply)), Some((tsr_fr, round2))) = (E::open(msg), self.op) else {
            return Vec::new();
        };
        let (rnd, expected) = match round {
            ReadRound::R1 => (0, tsr_fr),
            ReadRound::R2 if round2 => (1, tsr_fr + 1),
            ReadRound::R2 => return Vec::new(),
        };
        if obj >= self.cfg.s || tsr != expected || self.replies[rnd][obj].is_some() {
            return Vec::new();
        }
        if rnd == 0 {
            for w in E::nominated(&reply).filter(|w| !self.eliminated.contains(w)) {
                self.candidates.insert(w.clone());
            }
        }
        self.replies[rnd][obj] = Some(reply);
        let threshold = self
            .tuning
            .elim_threshold
            .unwrap_or(self.cfg.t_plus_b_plus_1());
        let contradicted = |c: &WTuple<u64>| self.objects_where(|r| E::contradicts(r, c));
        let (doomed, _): (BTreeSet<_>, BTreeSet<_>) = self
            .candidates
            .iter()
            .cloned()
            .partition(|c| contradicted(c) >= threshold);
        self.candidates.retain(|c| !doomed.contains(c));
        self.eliminated.extend(doomed);
        let sent = self.try_advance(tsr_fr);
        self.try_finish();
        sent
    }

    fn try_advance(&mut self, tsr_fr: u64) -> Sent {
        let quorum = self.cfg.quorum();
        let members: Vec<usize> = (0..self.cfg.s)
            .filter(|&i| self.replies[0][i].is_some())
            .collect();
        let conflict = |i, k| self.conflict(tsr_fr, i, k);
        if self.op != Some((tsr_fr, false))
            || members.len() < quorum
            || self.tuning.conflict_check && !conflict_free_of_size(members, conflict, quorum)
        {
            return Vec::new();
        }
        // The round-1 return: always armed, or (the figures' reader) only
        // where one-round reads are guaranteed.
        if !self.tuning.figures || self.cfg.guarantees_one_round_reads() {
            let need = self.tuning.safe_threshold.unwrap_or(self.cfg.b_plus_1());
            let exact = |c: &WTuple<u64>| {
                self.replies[0]
                    .iter()
                    .flatten()
                    .filter(|r| E::confirms(r, c))
                    .count()
            };
            if let Some(c) = self.highest(|c| exact(c) >= need) {
                self.complete(c, 1, true);
                return Vec::new();
            }
        }
        self.tsr += 1;
        self.op = Some((tsr_fr, true));
        if self.tuning.skip_round2 {
            return Vec::new();
        }
        self.send(ReadRound::R2)
    }

    fn try_finish(&mut self) {
        if !self.op.is_some_and(|(_, round2)| round2) {
            return;
        }
        let rounds = if self.tuning.skip_round2 { 1 } else { 2 };
        if self.candidates.is_empty() {
            let empty = match self.dialect {
                Dialect::Safe => Some(TsVal::bottom()),
                Dialect::Regular => None,
                Dialect::Optimized => Some(self.cache.clone()),
            };
            return empty
                .into_iter()
                .for_each(|tsval| self.report(tsval, rounds, false));
        }
        let needed = self.tuning.safe_threshold.unwrap_or(self.cfg.b_plus_1());
        if let Some(c) = self.highest(|c| self.objects_where(|r| E::supports(r, c)) >= needed) {
            self.complete(c, rounds, false);
        }
    }

    fn complete(&mut self, c: WTuple<u64>, rounds: u32, fast: bool) {
        self.acked = self.acked.max(c.ts());
        if self.dialect == Dialect::Optimized {
            self.cache = c.tsval.clone();
        }
        self.report(c.tsval, rounds, fast);
    }

    fn report(&mut self, tsval: TsVal<u64>, rounds: u32, fast: bool) {
        self.op = None;
        let (value, ts) = (tsval.value, tsval.ts);
        *self.outcomes.last_mut().expect("a READ was invoked") = Some(ReadReport {
            value,
            ts,
            rounds,
            fast,
        });
    }
}

/// One object's `READk_ACK`, before it is dressed in a dialect: writes
/// `1..=ts` complete (a regular object reports them from `from` on), and
/// then either write `ts + 1` in flight (its `pw` only) if `flag`, or the
/// script's forgery `pick` — a regular object files it `shift` above its
/// own timestamp — with a `pw` that agrees with it only if `flag`.
#[derive(Clone, Debug)]
struct Content {
    ts: u64,
    from: u64,
    flag: bool,
    forged: Option<(usize, u64)>,
}

/// `None` invokes a READ (if none is in progress); `Some` delivers an ACK
/// from process `from % (S + 1)` (`S` is no object) in round 2 if
/// `round2`, echoing the current round's `tsr` (`echo` 0–5), a stale one
/// (6) or one ahead (7).
type Step = Option<(usize, bool, u8, Content)>;

fn step() -> impl Strategy<Value = Step> {
    let forged =
        (0u8..4, 0usize..3, 0u64..3).prop_map(|(k, pick, shift)| (k == 0).then_some((pick, shift)));
    let content =
        (0u64..5, 0u64..5, any::<bool>(), forged).prop_map(|(ts, from, flag, forged)| Content {
            ts,
            from,
            flag,
            forged,
        });
    (0u8..12, 0usize..64, 0u8..8, 0u8..8, content).prop_map(|(kind, from, round, echo, content)| {
        (kind > 0).then_some((from, round < 3, echo, content))
    })
}

/// A forged tuple: any timestamp, the honest value or not, and a matrix
/// whose rows may name any object (some beyond `S`), either reader, and
/// reader timestamps beyond `tsrFR` — accusing anyone, the forger included.
fn forgery() -> impl Strategy<Value = WTuple<u64>> {
    let rows = proptest::collection::vec((0usize..9, 0usize..2, 0u64..8), 0..4);
    (0u64..7, 0usize..3, rows).prop_map(|(ts, v, rows)| {
        let mut matrix = TsrMatrix::empty();
        for (i, j, tsr) in rows {
            matrix.set_row(i, BTreeMap::from([(j, tsr)]));
        }
        WTuple::new(TsVal::new(Timestamp(ts), [10 * ts, 666, 7][v]), matrix)
    })
}

/// Write `k` as the writer made it: value `10k`, a matrix that accuses no
/// one (every reader timestamp it records is below any `tsrFR`).
fn honest_tuple(k: u64) -> WTuple<u64> {
    let mut matrix = TsrMatrix::empty();
    matrix.set_row((k % 3) as usize, BTreeMap::from([(0, 0)]));
    let honest = WTuple::new(TsVal::new(Timestamp(k), 10 * k), matrix);
    if k == 0 {
        WTuple::initial()
    } else {
        honest
    }
}

fn ack(
    dialect: Dialect,
    round: ReadRound,
    tsr: u64,
    c: &Content,
    pool: &[WTuple<u64>],
) -> Msg<u64> {
    let honest = honest_tuple(c.ts);
    let next = TsVal::new(Timestamp(c.ts + 1), 10 * (c.ts + 1));
    let forged = c.forged.map(|(pick, shift)| (pool[pick].clone(), shift));
    if dialect == Dialect::Safe {
        let (pw, w) = match forged {
            Some((w, _)) => (
                if c.flag {
                    w.tsval.clone()
                } else {
                    honest.tsval
                },
                w,
            ),
            None => (if c.flag { next } else { honest.tsval.clone() }, honest),
        };
        return Msg::ReadAckSafe { round, tsr, pw, w };
    }
    let mut history = History::empty();
    for w in (c.from.min(c.ts)..=c.ts).map(honest_tuple) {
        history.insert(
            w.ts(),
            HistEntry {
                pw: w.tsval.clone(),
                w: Some(w),
            },
        );
    }
    match forged {
        Some((w, shift)) => {
            let at = Timestamp(w.ts().0 + shift);
            let pw = if c.flag {
                w.tsval.clone()
            } else {
                TsVal::new(at, 5)
            };
            history.insert(at, HistEntry { pw, w: Some(w) });
        }
        None if c.flag => history.insert(next.ts, HistEntry { pw: next, w: None }),
        None => {}
    }
    Msg::ReadAckRegular {
        round,
        tsr,
        history,
    }
}

/// Runs `script` through `real` and the reference side by side.
fn differential<E: Evidence<u64>>(
    mut real: Reader<u64, E>,
    mut reference: Reference<E>,
    pool: &[WTuple<u64>],
    script: &[Step],
) {
    let s = reference.cfg.s;
    for (n, step) in script.iter().enumerate() {
        let mut sent = Vec::new();
        let mut ctx = Context::new(ProcessId(99), &mut sent);
        let expected = match step {
            None if real.is_idle() => {
                real.invoke_read(&mut ctx);
                reference.invoke()
            }
            None => continue,
            Some((from, round2, echo, content)) => {
                let round = if *round2 {
                    ReadRound::R2
                } else {
                    ReadRound::R1
                };
                let tsr =
                    reference.op.map_or(reference.tsr, |(tsr_fr, _)| tsr_fr) + u64::from(*round2);
                let tsr =
                    [tsr, tsr.saturating_sub(2), tsr + 1][usize::from(*echo).saturating_sub(5)];
                let msg = ack(reference.dialect, round, tsr, content, pool);
                real.on_message(ProcessId(from % (s + 1)), msg.clone(), &mut ctx);
                reference.deliver(from % (s + 1), msg)
            }
        };
        let live = reference.candidates.len() * usize::from(reference.op.is_some());
        prop_assert_eq!(sent, expected, "sent, at step {} ({:?})", n, step);
        prop_assert_eq!(
            real.candidate_count(),
            live,
            "candidate_count, at step {}",
            n
        );
        prop_assert_eq!(
            real.is_idle(),
            reference.op.is_none(),
            "idle, at step {}",
            n
        );
        for (read, want) in reference.outcomes.iter().enumerate() {
            let got = real.outcome(ReadId(read as u64));
            prop_assert_eq!(
                got,
                want.as_ref(),
                "outcome of read {}, at step {}",
                read,
                n
            );
        }
    }
}

/// Both readers — the default (even `pick`) and the figures' (odd) — each
/// with one of four mutations, or none.
fn tuning(pick: u8) -> ReaderTuning {
    let mut tuning = ReaderTuning {
        figures: pick % 2 == 1,
        ..ReaderTuning::default()
    };
    match pick / 2 {
        0 => tuning.skip_round2 = true,
        1 => tuning.elim_threshold = Some(2),
        2 => tuning.safe_threshold = Some(1),
        3 => tuning.conflict_check = false,
        _ => {}
    }
    tuning
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn the_incremental_reader_agrees_with_the_figures_recounted(
        sizing in 0usize..5,
        dialect in 0u8..3,
        tune in 0u8..24,
        pool in proptest::collection::vec(forgery(), 3..4),
        script in proptest::collection::vec(step(), 1..60),
    ) {
        // S = 4 (optimal), 5 (fast), 6 (optimal), 7 (fast, and optimal at b = 2).
        let (t, b, fast) = [(1, 1, false), (1, 1, true), (2, 1, false), (2, 1, true), (2, 2, false)][sizing];
        let cfg = if fast { StorageConfig::fast(t, b, 1) } else { StorageConfig::optimal(t, b, 1) };
        let objects: Vec<ProcessId> = (0..cfg.s).map(ProcessId).collect();
        let tuning = tuning(tune);
        let script: Vec<Step> = std::iter::once(None).chain(script).collect();
        let optimized = dialect == 2;
        match dialect {
            0 => differential(
                SafeReader::with_tuning(cfg, 0, objects, tuning),
                Reference::new(cfg, tuning, Dialect::Safe),
                &pool,
                &script,
            ),
            _ => differential(
                RegularReader::with_tuning(cfg, 0, objects, optimized, false, tuning),
                Reference::new(cfg, tuning, [Dialect::Regular, Dialect::Optimized][usize::from(optimized)]),
                &pool,
                &script,
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// End-to-end regularity under random truncation schedules: whatever the GC
// parameters and the interleaving of writes and reads, every read returns
// the latest completed write (the sequential harness leaves no concurrency,
// so regularity degenerates to exactly that), and once every reader has
// acked, object histories shrink to the concurrency window.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum GcOp {
    Write,
    Read(usize),
}

fn gc_ops() -> impl Strategy<Value = Vec<GcOp>> {
    proptest::collection::vec(
        prop_oneof![Just(GcOp::Write), (0usize..2).prop_map(GcOp::Read),],
        1..30,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn reads_stay_regular_under_random_truncation_schedules(
        seed in 0u64..1 << 48,
        cap in proptest::option::of(2usize..8),
        optimized in any::<bool>(),
        ops in gc_ops(),
    ) {
        let retention = HistoryRetention::ReaderAck { cap };
        let kind = if optimized {
            ProtocolKind::RegularOptimized
        } else {
            ProtocolKind::Regular
        };
        let protocol = ProtocolSpec::from(kind).with_retention(retention);
        let cfg = StorageConfig::optimal(1, 1, 2); // S = 4, R = 2
        let mut sc = StorageScenario::deploy(protocol, cfg, seed);

        let mut written: u64 = 0;
        for op in &ops {
            match op {
                GcOp::Write => {
                    written += 1;
                    sc.write(written);
                }
                GcOp::Read(j) => {
                    let rep = sc.read(*j);
                    // Sequential harness: the read is concurrent with
                    // nothing, so regularity demands exactly the latest
                    // completed write (or ⊥ before the first write).
                    let expect = (written > 0).then_some(written);
                    prop_assert_eq!(
                        rep.value, expect,
                        "GC broke regularity (cap {:?}, optimized {})",
                        cap, optimized
                    );
                    // Round 1 proves a quiet read's answer: GC must not
                    // cost it a second round.
                    prop_assert_eq!(rep.rounds, 1, "GC must not cost rounds");
                }
            }
        }

        // Drive both readers until their acks reach the final write, then
        // check the histories collapsed to the window (two reads each: the
        // first advances acked, the second advertises it to the objects).
        for _ in 0..2 {
            for j in 0..2 {
                let rep = sc.read(j);
                let expect = (written > 0).then_some(written);
                prop_assert_eq!(rep.value, expect);
            }
        }
        // Deliver any READ broadcasts still in flight to the slowest
        // object before inspecting histories.
        sc.world_mut().run_until_idle(200_000);
        // The floor entry and the one below it.
        let bound = 2.min(cap.unwrap_or(usize::MAX));
        for len in sc.history_lens().expect("regular objects keep histories") {
            prop_assert!(
                len <= bound,
                "history len {} exceeds bound {} after full acks (cap {:?})",
                len, bound, cap
            );
        }
    }
}
