//! The safe-storage reader (Figure 4).
//!
//! The paper's key novelty: in *both* rounds the reader writes control data
//! (a fresh timestamp `tsr'_j`) into the objects and reads their `pw`/`w`
//! fields back. The two writes arm the `conflict` predicate — a Byzantine
//! object that forges a candidate "from the future" must claim some object
//! `s_i` reported a reader timestamp higher than the reader has issued,
//! which either exposes the forger (conflict with `s_i` in round 1) or
//! forces `s_i`'s round-2 reply to corroborate the candidate.
//!
//! A READ always takes exactly two round-trips: the optimal worst case
//! proved by Proposition 1, achieved by Proposition 2.

use std::collections::{BTreeSet, HashMap};

use vrr_sim::{Automaton, Context, ProcessId};

use crate::config::StorageConfig;
use crate::mis::conflict_free_of_size;
use crate::msg::{Msg, ReadRound};
use crate::types::{Timestamp, TsVal, Value, WTuple};

/// Identifies one READ invocation on a [`SafeReader`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ReadId(pub u64);

/// Ablation knobs for the safe reader.
///
/// The defaults are the paper's Figure 4 plus the sound one-round fast
/// path (which self-disables wherever Proposition 1 applies, so the
/// default *behaves* exactly like Figure 4 at `S ≤ 2t + 2b`). Each other
/// knob removes or weakens one load-bearing mechanism; the mutation
/// experiments (E-T1) show the consistency checkers catch the resulting
/// violations, and the ablation benches quantify what each mechanism
/// costs. **Never deviate from [`SafeTuning::default`] in production
/// use.**
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SafeTuning {
    /// Supporters required by `safe(c)`; `None` = the paper's `b + 1`.
    pub safe_threshold: Option<usize>,
    /// Contradictors required to eliminate a candidate; `None` = the
    /// paper's `t + b + 1`.
    pub elim_threshold: Option<usize>,
    /// Run the round-1 `conflict(i, k)` filter (Figure 4 line 11).
    pub conflict_check: bool,
    /// Skip the second round *unconditionally* and decide on round-1
    /// evidence with the unchanged Figure 4 rules — the **unsound**
    /// one-round *mutant* that Proposition 1 convicts (the lower-bound
    /// demo). Not to be confused with [`SafeTuning::fast_path`], which is
    /// the sound fast path: it only fires above the Proposition 1
    /// boundary, demands [`StorageConfig::fast_read_quorum`] exact
    /// confirmations, and otherwise falls back to the full second round.
    pub skip_round2: bool,
    /// Attempt the sound one-round fast path when the sizing permits it
    /// (`S ≥ 2t + 2b + 1`); at or below the boundary this knob is inert.
    /// Default `true`.
    pub fast_path: bool,
    /// Confirmations the fast path demands; `None` = the derived
    /// [`StorageConfig::fast_read_quorum`]. Raising it is sound (more
    /// fallbacks, e.g. `Some(usize::MAX)` benches the pure-fallback
    /// cost); lowering it below the derived count re-opens the
    /// Proposition 1 trap — mutation experiments only.
    pub fast_threshold: Option<usize>,
}

impl Default for SafeTuning {
    fn default() -> Self {
        SafeTuning {
            safe_threshold: None,
            elim_threshold: None,
            conflict_check: true,
            skip_round2: false,
            fast_path: true,
            fast_threshold: None,
        }
    }
}

/// Cumulative one-round fast-path counters of a reader.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FastPathStats {
    /// Reads that completed in one round via the fast path.
    pub hits: u64,
    /// Reads that were *eligible* (sizing above the Proposition 1
    /// boundary, fast path enabled) but lacked the confirmation strength
    /// at the moment the round-1 quorum closed, and fell back to the full
    /// two-round protocol.
    pub fallbacks: u64,
}

/// The result of a completed READ.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadOutcome<V> {
    /// The returned value; `None` is the initial value `⊥` (`v0`).
    pub value: Option<V>,
    /// The timestamp associated with the returned value.
    pub ts: Timestamp,
    /// Communication round-trips used.
    pub rounds: u32,
    /// Completed via the sound one-round fast path (`rounds == 1` without
    /// any soundness caveat; the unsound `skip_round2` mutant reports
    /// `rounds == 1` with `fast == false`).
    pub fast: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Round1,
    Round2,
}

#[derive(Clone, Debug)]
struct ReadOp<V> {
    id: ReadId,
    /// `tsrFR`: the reader timestamp of the first round (Figure 4 line 9).
    tsr_fr: u64,
    phase: Phase,
    /// Objects whose ACK was accepted, per round (first ACK per object
    /// counts; equivocating repeats are ignored).
    answered: [BTreeSet<usize>; 2],
    /// `Resp1`: objects that answered round 1 (Figure 4 line 5).
    resp_first: BTreeSet<usize>,
    /// `w` tuples reported per object across both rounds (backs `RW`).
    reported_w: HashMap<usize, BTreeSet<WTuple<V>>>,
    /// `w` tuples reported per object in round 1 (backs `FirstRW`).
    first_reported_w: HashMap<usize, BTreeSet<WTuple<V>>>,
    /// `pw` pairs reported per object across both rounds (backs `RPW`).
    reported_pw: HashMap<usize, BTreeSet<TsVal<V>>>,
    /// The candidate set `C`.
    candidates: BTreeSet<WTuple<V>>,
    /// Tuples removed from `C` by lines 27–28; removal is permanent because
    /// `RespondedWO` only grows.
    eliminated: BTreeSet<WTuple<V>>,
}

/// The reader automaton `r_j` of the safe protocol (Figure 4).
///
/// Drive with [`SafeReader::invoke_read`]; poll [`SafeReader::outcome`].
#[derive(Clone, Debug)]
pub struct SafeReader<V> {
    cfg: StorageConfig,
    objects: Vec<ProcessId>,
    object_index: HashMap<ProcessId, usize>,
    /// This reader's index `j`.
    j: usize,
    /// `tsr'_j`: strictly increases on every round of every READ.
    tsr: u64,
    tuning: SafeTuning,
    op: Option<ReadOp<V>>,
    outcomes: HashMap<ReadId, ReadOutcome<V>>,
    next_id: u64,
    fast_stats: FastPathStats,
}

impl<V: Value> SafeReader<V> {
    /// A reader with index `j` for the given deployment.
    ///
    /// # Panics
    ///
    /// Panics if `objects.len() != cfg.s` or `j >= cfg.readers`.
    pub fn new(cfg: StorageConfig, j: usize, objects: Vec<ProcessId>) -> Self {
        Self::with_tuning(cfg, j, objects, SafeTuning::default())
    }

    /// A reader with explicit ablation knobs (see [`SafeTuning`]); for
    /// mutation experiments and ablation benches only.
    ///
    /// # Panics
    ///
    /// Panics if `objects.len() != cfg.s` or `j >= cfg.readers`.
    pub fn with_tuning(
        cfg: StorageConfig,
        j: usize,
        objects: Vec<ProcessId>,
        tuning: SafeTuning,
    ) -> Self {
        assert_eq!(objects.len(), cfg.s, "reader must know all S objects");
        assert!(j < cfg.readers, "reader index out of range");
        let object_index = objects.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        SafeReader {
            cfg,
            objects,
            object_index,
            j,
            tsr: 0,
            tuning,
            op: None,
            outcomes: HashMap::new(),
            next_id: 0,
            fast_stats: FastPathStats::default(),
        }
    }

    /// Starts a READ (Figure 4 lines 7–10). Returns the invocation id.
    ///
    /// # Panics
    ///
    /// Panics if a READ by this reader is already in progress (§2.2:
    /// well-formed clients).
    pub fn invoke_read(&mut self, ctx: &mut Context<'_, Msg<V>>) -> ReadId {
        assert!(self.op.is_none(), "well-formed reader: one READ at a time");
        let id = ReadId(self.next_id);
        self.next_id += 1;

        self.tsr += 1; // line 9: tsrFR := tsr'_j := tsr'_j + 1
        let tsr_fr = self.tsr;
        self.op = Some(ReadOp {
            id,
            tsr_fr,
            phase: Phase::Round1,
            answered: [BTreeSet::new(), BTreeSet::new()],
            resp_first: BTreeSet::new(),
            reported_w: HashMap::new(),
            first_reported_w: HashMap::new(),
            reported_pw: HashMap::new(),
            candidates: BTreeSet::new(),
            eliminated: BTreeSet::new(),
        });
        let msg = Msg::Read {
            round: ReadRound::R1,
            reader: self.j,
            tsr: tsr_fr,
            since: None,
            // The safe object keeps no history, so there is nothing to GC.
            ack: Timestamp::ZERO,
        };
        ctx.broadcast(self.objects.iter().copied(), msg); // line 10
        id
    }

    /// The outcome of read `id`, if complete.
    pub fn outcome(&self, id: ReadId) -> Option<&ReadOutcome<V>> {
        self.outcomes.get(&id)
    }

    /// Removes and returns the outcome of read `id`, if complete — what a
    /// long-running host polls with, so outcomes (one cloned value each)
    /// do not accumulate. `outcome` leaves them in place for the simulator
    /// harness, which inspects them after the run.
    pub fn take_outcome(&mut self, id: ReadId) -> Option<ReadOutcome<V>> {
        self.outcomes.remove(&id)
    }

    /// Completed outcomes not yet taken.
    pub fn retained_outcomes(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether no READ is in progress.
    pub fn is_idle(&self) -> bool {
        self.op.is_none()
    }

    /// The reader's index `j`.
    pub fn index(&self) -> usize {
        self.j
    }

    /// Live candidates (`C`), for harness introspection.
    pub fn candidate_count(&self) -> usize {
        self.op.as_ref().map_or(0, |op| op.candidates.len())
    }

    /// Cumulative fast-path hit/fallback counters.
    pub fn fast_stats(&self) -> FastPathStats {
        self.fast_stats
    }

    // ---- Figure 4 predicate implementations --------------------------------

    /// `RespondedWO(c)` (line 2): objects that reported some `w` tuple
    /// different from `c` in either round.
    fn responded_wo(op: &ReadOp<V>, c: &WTuple<V>) -> usize {
        op.reported_w
            .values()
            .filter(|set| set.iter().any(|c2| c2 != c))
            .count()
    }

    /// The per-object support test behind `safe(c)` (line 3): the object
    /// reported `c` (or `c.tsval` in `pw`), or anything with a strictly
    /// higher timestamp.
    fn supports(op: &ReadOp<V>, c: &WTuple<V>, obj: usize) -> bool {
        let ts = c.ts();
        let in_w = op
            .reported_w
            .get(&obj)
            .is_some_and(|set| set.iter().any(|c2| c2 == c || c2.ts() > ts));
        if in_w {
            return true;
        }
        op.reported_pw
            .get(&obj)
            .is_some_and(|set| set.iter().any(|p| *p == c.tsval || p.ts > ts))
    }

    /// `safe(c)` (line 3): at least `b + 1` supporting objects (or the
    /// ablation override).
    fn is_safe(&self, op: &ReadOp<V>, c: &WTuple<V>) -> bool {
        let support = op
            .reported_w
            .keys()
            .chain(op.reported_pw.keys())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .filter(|&&obj| Self::supports(op, c, obj))
            .count();
        support >= self.tuning.safe_threshold.unwrap_or(self.cfg.b_plus_1())
    }

    /// `conflict(i, k)` (line 1): `k` reported, in round 1, a live candidate
    /// claiming object `i` gave the writer a reader timestamp beyond
    /// `tsrFR`.
    fn conflict(op: &ReadOp<V>, j: usize, i: usize, k: usize) -> bool {
        let Some(firsts) = op.first_reported_w.get(&k) else {
            return false;
        };
        firsts.iter().any(|c| {
            op.candidates.contains(c)
                && c.tsrarray
                    .get(i, j)
                    .is_some_and(|reported| reported > op.tsr_fr)
        })
    }

    /// Lines 27–28: drop candidates contradicted by `t + b + 1` objects
    /// (or the ablation override).
    fn recheck_eliminations(&mut self) {
        let threshold = self
            .tuning
            .elim_threshold
            .unwrap_or(self.cfg.t_plus_b_plus_1());
        let Some(op) = self.op.as_mut() else { return };
        let doomed: Vec<WTuple<V>> = op
            .candidates
            .iter()
            .filter(|c| Self::responded_wo(op, c) >= threshold)
            .cloned()
            .collect();
        for c in doomed {
            op.candidates.remove(&c);
            op.eliminated.insert(c);
        }
    }

    /// Line 11: advance to round 2 once a conflict-free quorum answered.
    fn try_advance(&mut self, ctx: &mut Context<'_, Msg<V>>) {
        let Some(op) = self.op.as_ref() else { return };
        if op.phase != Phase::Round1 {
            return;
        }
        let members: Vec<usize> = op.resp_first.iter().copied().collect();
        if members.len() < self.cfg.quorum() {
            return;
        }
        let j = self.j;
        let ok = !self.tuning.conflict_check
            || conflict_free_of_size(
                &members,
                |i, k| Self::conflict(op, j, i, k),
                self.cfg.quorum(),
            )
            .is_some();
        if !ok {
            return;
        }
        // Fast path (extension; the converse of Proposition 1): with
        // S ≥ 2t + 2b + 1 objects, a sufficiently strong exact
        // confirmation of the highest candidate already decides the read
        // here, and the second round is skipped *soundly*. Checked exactly
        // once, at the moment the conflict-free round-1 quorum closes —
        // on failure the read proceeds to round 2 below, reusing every
        // reply already collected (no restart).
        if self.try_fast_finish() {
            return;
        }
        // Lines 12–13: inc(tsr'_j); send READ2 to all objects.
        self.tsr += 1;
        let tsr = self.tsr;
        let skip_round2 = self.tuning.skip_round2;
        let op = self.op.as_mut().expect("checked above");
        debug_assert_eq!(tsr, op.tsr_fr + 1);
        op.phase = Phase::Round2;
        if !skip_round2 {
            let msg = Msg::Read {
                round: ReadRound::R2,
                reader: j,
                tsr,
                since: None,
                ack: Timestamp::ZERO,
            };
            ctx.broadcast(self.objects.iter().copied(), msg);
        }
        // Under skip_round2 (fast-read mutant) the decision runs on
        // round-1 evidence alone.
    }

    /// The sound one-round fast path: complete now iff the highest live
    /// candidate has [`StorageConfig::fast_read_quorum`] *exact* round-1
    /// confirmations. Returns whether the read completed.
    ///
    /// Soundness: `need = S − 2t` exact confirmations contain at least
    /// `need − b ≥ b + 1` correct objects (for `S ≥ 2t + 2b + 1`), so the
    /// candidate was genuinely written — a forgery musters at most `b`.
    /// And any completed write `w_k` is held by ≥ `S − t − b` correct
    /// objects, of which ≥ `S − 2t − b ≥ b + 1 ≥ 1` sit in this round-1
    /// quorum and cannot be out-shouted by eliminations (elimination needs
    /// `t + b + 1` dissenters; at most `t + b` objects lack `w_k`), so the
    /// highest candidate's timestamp is at least `k`: the returned value
    /// is never older than the last completed write. Only *exact* round-1
    /// reports count — the `pw`-or-higher leniency of `safe(c)` is for
    /// round 2, where the conflict machinery backs it up.
    fn try_fast_finish(&mut self) -> bool {
        if !self.tuning.fast_path {
            return false;
        }
        let Some(need) = self
            .tuning
            .fast_threshold
            .or_else(|| self.cfg.fast_read_quorum())
        else {
            return false; // Proposition 1 territory: refuse to engage.
        };
        let Some(op) = self.op.as_ref() else {
            return false;
        };
        debug_assert_eq!(op.phase, Phase::Round1);
        let Some(high) = op.candidates.iter().map(WTuple::ts).max() else {
            self.fast_stats.fallbacks += 1;
            return false;
        };
        let confirmed = op
            .candidates
            .iter()
            .filter(|c| c.ts() == high) // highCand(c) only, as in line 14
            .find(|c| {
                let exact = op
                    .resp_first
                    .iter()
                    .filter(|&&i| {
                        op.first_reported_w
                            .get(&i)
                            .is_some_and(|set| set.contains(*c))
                            || op
                                .reported_pw
                                .get(&i)
                                .is_some_and(|set| set.contains(&c.tsval))
                    })
                    .count();
                exact >= need
            });
        match confirmed.cloned() {
            Some(cret) => {
                let id = op.id;
                self.outcomes.insert(
                    id,
                    ReadOutcome {
                        value: cret.tsval.value.clone(),
                        ts: cret.ts(),
                        rounds: 1,
                        fast: true,
                    },
                );
                self.op = None;
                self.fast_stats.hits += 1;
                true
            }
            None => {
                self.fast_stats.fallbacks += 1;
                false
            }
        }
    }

    /// Line 14: complete once the highest live candidate is safe, or `C`
    /// drained (return `v0`).
    fn try_finish(&mut self) {
        let Some(op) = self.op.as_ref() else { return };
        if op.phase != Phase::Round2 {
            return;
        }
        let rounds = if self.tuning.skip_round2 { 1 } else { 2 };
        if op.candidates.is_empty() {
            // Lines 15–16: return the default value v0 = ⊥.
            let id = op.id;
            self.outcomes.insert(
                id,
                ReadOutcome {
                    value: None,
                    ts: Timestamp::ZERO,
                    rounds,
                    fast: false,
                },
            );
            self.op = None;
            return;
        }
        let high = op
            .candidates
            .iter()
            .map(WTuple::ts)
            .max()
            .expect("non-empty");
        let ret = op
            .candidates
            .iter()
            .filter(|c| c.ts() == high) // highCand(c), line 4
            .find(|c| self.is_safe(op, c))
            .cloned();
        if let Some(cret) = ret {
            // Lines 18–19: return cret.tsval.v.
            let id = op.id;
            self.outcomes.insert(
                id,
                ReadOutcome {
                    value: cret.tsval.value.clone(),
                    ts: cret.ts(),
                    rounds,
                    fast: false,
                },
            );
            self.op = None;
        }
    }
}

impl<V: Value> Automaton<Msg<V>> for SafeReader<V> {
    fn on_message(&mut self, from: ProcessId, msg: Msg<V>, ctx: &mut Context<'_, Msg<V>>) {
        let Some(&obj) = self.object_index.get(&from) else {
            return;
        };
        let Msg::ReadAckSafe { round, tsr, pw, w } = msg else {
            return;
        };
        let Some(op) = self.op.as_mut() else { return };

        match round {
            ReadRound::R1 => {
                // Lines 21–24. Accept the first round-1 ACK per object that
                // echoes this op's tsrFR (stale or replayed ACKs fail the
                // echo check because tsr'_j strictly increases).
                if tsr != op.tsr_fr || !op.answered[0].insert(obj) {
                    return;
                }
                op.resp_first.insert(obj);
                op.first_reported_w
                    .entry(obj)
                    .or_default()
                    .insert(w.clone());
                op.reported_w.entry(obj).or_default().insert(w.clone());
                op.reported_pw.entry(obj).or_default().insert(pw);
                if !op.eliminated.contains(&w) {
                    op.candidates.insert(w);
                }
            }
            ReadRound::R2 => {
                // Lines 25–26. A correct object only sends a round-2 ACK
                // after receiving READ2, so requiring phase == Round2 and
                // the exact echo tsrFR + 1 loses nothing from correct
                // objects and blunts Byzantine guessing.
                if op.phase != Phase::Round2 || tsr != op.tsr_fr + 1 || !op.answered[1].insert(obj)
                {
                    return;
                }
                op.reported_w.entry(obj).or_default().insert(w);
                op.reported_pw.entry(obj).or_default().insert(pw);
            }
        }

        self.recheck_eliminations();
        self.try_advance(ctx);
        self.try_finish();
    }

    fn label(&self) -> &'static str {
        "safe-reader"
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::types::TsrMatrix;

    /// S = 4, t = b = 1, quorum = 3.
    fn cfg() -> StorageConfig {
        StorageConfig::optimal(1, 1, 1)
    }

    fn objects() -> Vec<ProcessId> {
        (0..4).map(ProcessId).collect()
    }

    fn reader() -> SafeReader<u64> {
        SafeReader::new(cfg(), 0, objects())
    }

    fn invoke(r: &mut SafeReader<u64>) -> (ReadId, Vec<(ProcessId, Msg<u64>)>) {
        let mut out = Vec::new();
        let mut ctx = Context::new(ProcessId(9), &mut out);
        let id = r.invoke_read(&mut ctx);
        (id, out)
    }

    fn deliver(r: &mut SafeReader<u64>, from: usize, msg: Msg<u64>) -> Vec<(ProcessId, Msg<u64>)> {
        let mut out = Vec::new();
        let mut ctx = Context::new(ProcessId(9), &mut out);
        r.on_message(ProcessId(from), msg, &mut ctx);
        out
    }

    fn honest_ack(round: ReadRound, tsr: u64, ts: u64, v: u64) -> Msg<u64> {
        let tsval = TsVal::new(Timestamp(ts), v);
        Msg::ReadAckSafe {
            round,
            tsr,
            pw: tsval.clone(),
            w: WTuple::new(tsval, TsrMatrix::empty()),
        }
    }

    fn bottom_ack(round: ReadRound, tsr: u64) -> Msg<u64> {
        Msg::ReadAckSafe {
            round,
            tsr,
            pw: TsVal::bottom(),
            w: WTuple::initial(),
        }
    }

    #[test]
    fn read_completes_in_two_rounds_on_agreeing_objects() {
        let mut r = reader();
        let (id, out) = invoke(&mut r);
        assert_eq!(out.len(), 4, "READ1 to all");

        // Round 1: three identical honest answers advance to round 2, and
        // since b+1 = 2 round-1 replies already support the candidate, the
        // wait-until of line 14 is satisfied immediately at round-2 entry.
        for i in 0..2 {
            assert!(deliver(&mut r, i, honest_ack(ReadRound::R1, 1, 1, 42)).is_empty());
            assert!(r.outcome(id).is_none());
        }
        let read2 = deliver(&mut r, 2, honest_ack(ReadRound::R1, 1, 1, 42));
        assert_eq!(read2.len(), 4, "READ2 broadcast after conflict-free quorum");
        assert!(matches!(
            read2[0].1,
            Msg::Read {
                round: ReadRound::R2,
                tsr: 2,
                ..
            }
        ));

        let got = r.outcome(id).expect("read complete");
        assert_eq!(got.value, Some(42));
        assert_eq!(got.ts, Timestamp(1));
        assert_eq!(got.rounds, 2);
        assert!(r.is_idle());
    }

    #[test]
    fn unsupported_forged_high_candidate_blocks_until_eliminated() {
        let mut r = reader();
        let (id, _) = invoke(&mut r);
        // Object 3 is Byzantine: forges ts=99. Objects 0 and 1 honestly
        // report ts=1 (value 42): quorum {3,0,1} reached, round 2 opens.
        deliver(&mut r, 3, honest_ack(ReadRound::R1, 1, 99, 666));
        deliver(&mut r, 0, honest_ack(ReadRound::R1, 1, 1, 42));
        deliver(&mut r, 1, honest_ack(ReadRound::R1, 1, 1, 42));
        // The forged candidate is high but unsafe (1 supporter < b+1 = 2);
        // the honest candidate is safe but not high: the read must block.
        assert!(r.outcome(id).is_none());
        // Honest round-2 replies repeat the honest tuple; RespondedWO(forged)
        // stays at {0, 1} — still blocked.
        deliver(&mut r, 0, honest_ack(ReadRound::R2, 2, 1, 42));
        deliver(&mut r, 1, honest_ack(ReadRound::R2, 2, 1, 42));
        assert!(r.outcome(id).is_none());
        // Object 2's (late round-1) honest reply is the t+b+1 = 3rd object
        // answering without the forged tuple: elimination fires and the
        // honest candidate becomes the high safe candidate.
        deliver(&mut r, 2, honest_ack(ReadRound::R1, 1, 1, 42));
        let got = r.outcome(id).expect("forged candidate eliminated");
        assert_eq!(
            got.value,
            Some(42),
            "must fall back to the honest candidate"
        );
    }

    #[test]
    fn returns_bottom_when_nothing_written() {
        let mut r = reader();
        let (id, _) = invoke(&mut r);
        for i in 0..3 {
            deliver(&mut r, i, bottom_ack(ReadRound::R1, 1));
        }
        let got = r.outcome(id).expect("complete");
        assert_eq!(got.value, None, "initial value ⊥");
        assert_eq!(got.ts, Timestamp::ZERO);
    }

    #[test]
    fn conflicting_accusation_excludes_forger_from_quorum() {
        let mut r = reader();
        let (id, _) = invoke(&mut r);
        // Byzantine object 3 forges a candidate accusing object 0 of having
        // reported reader timestamp 50 > tsrFR = 1.
        let mut matrix = TsrMatrix::empty();
        matrix.set_row(0, BTreeMap::from([(0usize, 50u64)]));
        let forged = Msg::ReadAckSafe {
            round: ReadRound::R1,
            tsr: 1,
            pw: TsVal::new(Timestamp(9), 666),
            w: WTuple::new(TsVal::new(Timestamp(9), 666), matrix),
        };
        deliver(&mut r, 3, forged);
        deliver(&mut r, 0, bottom_ack(ReadRound::R1, 1));
        deliver(&mut r, 1, bottom_ack(ReadRound::R1, 1));
        // Responders = {0, 1, 3} with conflict(0, 3): the largest
        // conflict-free subset is {0, 1} or {1, 3}, both < quorum=3 — the
        // read must NOT advance to round 2 yet.
        assert!(r.outcome(id).is_none());
        let sent = deliver(&mut r, 2, bottom_ack(ReadRound::R1, 1));
        // Now {0, 1, 2} is conflict-free of size 3: advance + finish (⊥ is
        // the high safe candidate... the forged candidate has higher ts but
        // was it eliminated? RespondedWO(forged) = 3 (objects 0,1,2) =
        // t+b+1: eliminated. ⊥ tuple supported by 3 ≥ b+1: safe.)
        assert!(!sent.is_empty(), "READ2 must have been broadcast");
        let got = r.outcome(id).expect("complete");
        assert_eq!(got.value, None);
    }

    #[test]
    fn duplicate_round1_acks_from_one_object_are_ignored() {
        let mut r = reader();
        let (id, _) = invoke(&mut r);
        for _ in 0..3 {
            deliver(&mut r, 0, honest_ack(ReadRound::R1, 1, 1, 42));
        }
        assert!(
            r.outcome(id).is_none(),
            "one object cannot form a quorum by repeating"
        );
    }

    #[test]
    fn acks_with_wrong_echo_are_ignored() {
        let mut r = reader();
        let (id, _) = invoke(&mut r);
        for i in 0..3 {
            deliver(&mut r, i, honest_ack(ReadRound::R1, 77, 1, 42)); // wrong tsr echo
        }
        assert!(r.outcome(id).is_none());
    }

    #[test]
    fn round2_acks_before_round2_are_ignored() {
        let mut r = reader();
        let (id, _) = invoke(&mut r);
        // Byzantine objects guess tsrFR + 1 and push round-2 ACKs early.
        for i in 0..3 {
            deliver(&mut r, i, honest_ack(ReadRound::R2, 2, 1, 42));
        }
        assert!(
            r.outcome(id).is_none(),
            "round-2 ACKs must not bypass round 1"
        );
    }

    #[test]
    fn sequential_reads_use_fresh_timestamps() {
        let mut r = reader();
        let (id1, out1) = invoke(&mut r);
        let first_tsr = match out1[0].1 {
            Msg::Read { tsr, .. } => tsr,
            _ => unreachable!(),
        };
        for i in 0..3 {
            deliver(&mut r, i, honest_ack(ReadRound::R1, first_tsr, 1, 5));
        }
        assert!(r.outcome(id1).is_some());
        let (_id2, out2) = invoke(&mut r);
        let second_tsr = match out2[0].1 {
            Msg::Read { tsr, .. } => tsr,
            _ => unreachable!(),
        };
        assert!(
            second_tsr > first_tsr + 1,
            "tsr must strictly increase across ops"
        );
    }

    #[test]
    #[should_panic(expected = "one READ at a time")]
    fn rejects_concurrent_reads() {
        let mut r = reader();
        let (_, _) = invoke(&mut r);
        let (_, _) = invoke(&mut r);
    }

    /// S = 5 = 2t+2b+1, t = b = 1: quorum = 4, fast quorum = 3.
    fn fast_cfg() -> StorageConfig {
        StorageConfig::fast(1, 1, 1)
    }

    fn fast_reader() -> SafeReader<u64> {
        SafeReader::new(fast_cfg(), 0, (0..5).map(ProcessId).collect())
    }

    #[test]
    fn fast_path_completes_in_one_round_when_quorum_agrees() {
        let mut r = fast_reader();
        let (id, out) = invoke(&mut r);
        assert_eq!(out.len(), 5, "READ1 to all");
        for i in 0..3 {
            assert!(deliver(&mut r, i, honest_ack(ReadRound::R1, 1, 1, 42)).is_empty());
            assert!(r.outcome(id).is_none());
        }
        // Fourth matching reply closes the quorum with 4 >= 3 exact
        // confirmations: the read completes with NO second round.
        let sent = deliver(&mut r, 3, honest_ack(ReadRound::R1, 1, 1, 42));
        assert!(sent.is_empty(), "fast path must not broadcast READ2");
        let got = r.outcome(id).expect("fast read complete");
        assert_eq!(got.value, Some(42));
        assert_eq!(got.rounds, 1);
        assert!(got.fast);
        assert_eq!(
            r.fast_stats(),
            FastPathStats {
                hits: 1,
                fallbacks: 0
            }
        );
    }

    #[test]
    fn fast_path_falls_back_without_restarting_round1() {
        let mut r = fast_reader();
        let (id, _) = invoke(&mut r);
        // Only 2 of the 4 quorum replies confirm the write (the others
        // missed it, e.g. the write is still in flight to them): 2 < 3.
        deliver(&mut r, 0, honest_ack(ReadRound::R1, 1, 1, 42));
        deliver(&mut r, 1, honest_ack(ReadRound::R1, 1, 1, 42));
        deliver(&mut r, 2, bottom_ack(ReadRound::R1, 1));
        let sent = deliver(&mut r, 3, bottom_ack(ReadRound::R1, 1));
        assert_eq!(sent.len(), 5, "fallback broadcasts READ2 to all");
        assert_eq!(
            r.fast_stats(),
            FastPathStats {
                hits: 0,
                fallbacks: 1
            }
        );
        // The two-round machinery finishes on the reused round-1 evidence
        // (b+1 = 2 supporters already satisfy line 14 at round-2 entry).
        let got = r.outcome(id).expect("fallback read complete");
        assert_eq!(got.value, Some(42));
        assert_eq!(got.rounds, 2);
        assert!(!got.fast);
    }

    #[test]
    fn fast_path_refuses_at_the_proposition1_boundary() {
        // S = 4 = 2t + 2b: Proposition 1 applies, the fast path must not
        // engage even on a unanimous round-1 quorum.
        let mut r = reader();
        let (id, _) = invoke(&mut r);
        for i in 0..2 {
            deliver(&mut r, i, honest_ack(ReadRound::R1, 1, 1, 42));
        }
        let sent = deliver(&mut r, 2, honest_ack(ReadRound::R1, 1, 1, 42));
        assert!(!sent.is_empty(), "READ2 must go out at S <= 2t+2b");
        let got = r.outcome(id).expect("complete");
        assert_eq!(got.rounds, 2);
        assert!(!got.fast);
        assert_eq!(r.fast_stats(), FastPathStats::default(), "never eligible");
    }

    #[test]
    fn forged_high_candidate_cannot_fast_fire() {
        // A Byzantine object forges the highest candidate: with only one
        // (malicious) exact confirmation the fast path must fall back, and
        // the two-round machinery must still return the genuine write.
        let mut r = fast_reader();
        let (id, _) = invoke(&mut r);
        deliver(&mut r, 4, honest_ack(ReadRound::R1, 1, 99, 666));
        deliver(&mut r, 0, honest_ack(ReadRound::R1, 1, 1, 42));
        deliver(&mut r, 1, honest_ack(ReadRound::R1, 1, 1, 42));
        deliver(&mut r, 2, honest_ack(ReadRound::R1, 1, 1, 42));
        // At quorum close the forgery was already eliminated (t+b+1 = 3
        // objects answered without it), so the honest candidate is high
        // with 3 >= 3 exact confirmations: the fast path fires — on the
        // RIGHT value.
        let got = r.outcome(id).expect("complete");
        assert_eq!(got.value, Some(42), "never the forged value");
        assert_eq!(got.rounds, 1);
        assert!(got.fast);
    }

    #[test]
    fn fast_path_disabled_by_tuning_takes_two_rounds() {
        let tuning = SafeTuning {
            fast_path: false,
            ..SafeTuning::default()
        };
        let mut r =
            SafeReader::<u64>::with_tuning(fast_cfg(), 0, (0..5).map(ProcessId).collect(), tuning);
        let (id, _) = invoke(&mut r);
        for i in 0..3 {
            deliver(&mut r, i, honest_ack(ReadRound::R1, 1, 1, 42));
        }
        let sent = deliver(&mut r, 3, honest_ack(ReadRound::R1, 1, 1, 42));
        assert_eq!(sent.len(), 5, "READ2 goes out with the fast path off");
        deliver(&mut r, 0, honest_ack(ReadRound::R2, 2, 1, 42));
        deliver(&mut r, 1, honest_ack(ReadRound::R2, 2, 1, 42));
        let got = r.outcome(id).expect("complete");
        assert_eq!(got.rounds, 2);
        assert_eq!(r.fast_stats(), FastPathStats::default());
    }

    #[test]
    fn unreachable_fast_threshold_always_falls_back() {
        let tuning = SafeTuning {
            fast_threshold: Some(usize::MAX),
            ..SafeTuning::default()
        };
        let mut r =
            SafeReader::<u64>::with_tuning(fast_cfg(), 0, (0..5).map(ProcessId).collect(), tuning);
        let (id, _) = invoke(&mut r);
        for i in 0..4 {
            deliver(&mut r, i, honest_ack(ReadRound::R1, 1, 1, 42));
        }
        assert_eq!(
            r.fast_stats(),
            FastPathStats {
                hits: 0,
                fallbacks: 1
            }
        );
        let got = r.outcome(id).expect("complete via the two-round path");
        assert_eq!(got.rounds, 2);
        assert!(!got.fast);
    }

    #[test]
    fn two_candidates_same_ts_both_high_one_safe() {
        // Byzantine object reports a tuple with the same timestamp as the
        // real write but a different matrix: both are "high"; only the real
        // one gathers b+1 support.
        let mut r = reader();
        let (id, _) = invoke(&mut r);
        let mut forged_matrix = TsrMatrix::empty();
        forged_matrix.set_row(2, BTreeMap::from([(0usize, 0u64)]));
        let forged = Msg::ReadAckSafe {
            round: ReadRound::R1,
            tsr: 1,
            pw: TsVal::new(Timestamp(1), 42),
            w: WTuple::new(TsVal::new(Timestamp(1), 41), forged_matrix),
        };
        deliver(&mut r, 3, forged);
        for i in 0..3 {
            deliver(&mut r, i, honest_ack(ReadRound::R1, 1, 1, 42));
        }
        let got = r.outcome(id).expect("complete");
        assert_eq!(got.value, Some(42), "only the corroborated tuple is safe");
    }
}
