//! The regular-storage reader (Figure 6), with the optional §5.1
//! cached-suffix optimization.
//!
//! Structure mirrors the safe reader — two rounds, reader timestamps written
//! into the objects in both — but candidates are drawn from reported
//! *histories*, and the `safe`/`invalid` predicates judge a candidate `c`
//! against what objects report at position `c.tsval.ts` of their histories.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use vrr_sim::{Automaton, Context, ProcessId};

use crate::config::StorageConfig;
use crate::mis::conflict_free_of_size;
use crate::msg::{Msg, ReadRound};
use crate::safe::{FastPathStats, ReadId, ReadOutcome};
use crate::types::{History, Timestamp, TsVal, Value, WTuple};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Round1,
    Round2,
}

/// Ablation knobs for the regular reader (mirror of
/// [`crate::safe::SafeTuning`]). Defaults are the paper's Figure 6; any
/// deviation is for mutation experiments and ablation benches only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegularTuning {
    /// Confirmations required by `safe(c)`; `None` = the paper's `b + 1`.
    pub safe_threshold: Option<usize>,
    /// Non-confirmations required by `invalid(c)`; `None` = the paper's
    /// `t + b + 1`.
    pub invalid_threshold: Option<usize>,
    /// Run the round-1 `conflict(i, k)` filter.
    pub conflict_check: bool,
    /// Skip the second round *unconditionally* and decide on round-1
    /// evidence with the unchanged Figure 6 rules — the **unsound**
    /// one-round *mutant* that Proposition 1 convicts, kept as the
    /// lower-bound demo (see `thm34_regular` and `lower_bound_demo`). Not
    /// to be confused with [`RegularTuning::fast_path`], the *sound* fast
    /// path: it refuses to engage at `S ≤ 2t + 2b`, demands
    /// [`StorageConfig::fast_read_quorum`] exact confirmations, and falls
    /// back to the full second round otherwise.
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

impl Default for RegularTuning {
    fn default() -> Self {
        RegularTuning {
            safe_threshold: None,
            invalid_threshold: None,
            conflict_check: true,
            skip_round2: false,
            fast_path: true,
            fast_threshold: None,
        }
    }
}

#[derive(Clone, Debug)]
struct RegOp<V> {
    id: ReadId,
    tsr_fr: u64,
    phase: Phase,
    /// Histories received per round: `hist[rnd][i]` (Figure 6 line 7).
    hist: [BTreeMap<usize, History<V>>; 2],
    /// The candidate set `C`.
    candidates: BTreeSet<WTuple<V>>,
    /// Candidates removed by `invalid(c)`; removal is permanent.
    eliminated: BTreeSet<WTuple<V>>,
}

/// The reader automaton `r_j` of the regular protocol (Figure 6).
///
/// With `optimized = true` the reader runs the §5.1 protocol: it remembers
/// the timestamp–value pair it last returned and asks objects only for the
/// history suffix from that timestamp; an empty candidate set then means
/// "nothing newer completed", and the cached value is returned.
#[derive(Clone, Debug)]
pub struct RegularReader<V> {
    cfg: StorageConfig,
    objects: Vec<ProcessId>,
    object_index: HashMap<ProcessId, usize>,
    j: usize,
    tsr: u64,
    optimized: bool,
    tuning: RegularTuning,
    /// `cache_j`: last returned pair (§5.1). `⟨0, ⊥⟩` initially.
    cache: TsVal<V>,
    /// Highest write timestamp ever returned by this reader — piggybacked
    /// as the history-GC acknowledgement on every `READk` message
    /// (extension; see [`crate::regular::HistoryRetention::ReaderAck`]).
    /// Monotone, unlike per-read return values, which regularity allows
    /// to go back in time between reads.
    acked: Timestamp,
    op: Option<RegOp<V>>,
    outcomes: HashMap<ReadId, ReadOutcome<V>>,
    next_id: u64,
    fast_stats: FastPathStats,
}

impl<V: Value> RegularReader<V> {
    /// A paper-faithful (full-history) regular reader.
    ///
    /// # Panics
    ///
    /// Panics if `objects.len() != cfg.s` or `j >= cfg.readers`.
    pub fn new(cfg: StorageConfig, j: usize, objects: Vec<ProcessId>) -> Self {
        Self::build(cfg, j, objects, false)
    }

    /// A §5.1-optimized regular reader (suffix histories + cached value).
    ///
    /// # Panics
    ///
    /// Panics if `objects.len() != cfg.s` or `j >= cfg.readers`.
    pub fn new_optimized(cfg: StorageConfig, j: usize, objects: Vec<ProcessId>) -> Self {
        Self::build(cfg, j, objects, true)
    }

    /// A reader with explicit ablation knobs; for mutation experiments and
    /// ablation benches only.
    ///
    /// # Panics
    ///
    /// Panics if `objects.len() != cfg.s` or `j >= cfg.readers`.
    pub fn with_tuning(
        cfg: StorageConfig,
        j: usize,
        objects: Vec<ProcessId>,
        optimized: bool,
        tuning: RegularTuning,
    ) -> Self {
        assert_eq!(objects.len(), cfg.s, "reader must know all S objects");
        assert!(j < cfg.readers, "reader index out of range");
        let object_index = objects.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        RegularReader {
            cfg,
            objects,
            object_index,
            j,
            tsr: 0,
            optimized,
            tuning,
            cache: TsVal::bottom(),
            acked: Timestamp::ZERO,
            op: None,
            outcomes: HashMap::new(),
            next_id: 0,
            fast_stats: FastPathStats::default(),
        }
    }

    fn build(cfg: StorageConfig, j: usize, objects: Vec<ProcessId>, optimized: bool) -> Self {
        Self::with_tuning(cfg, j, objects, optimized, RegularTuning::default())
    }

    /// Starts a READ. Returns the invocation id.
    ///
    /// # Panics
    ///
    /// Panics if a READ by this reader is already in progress.
    pub fn invoke_read(&mut self, ctx: &mut Context<'_, Msg<V>>) -> ReadId {
        assert!(self.op.is_none(), "well-formed reader: one READ at a time");
        let id = ReadId(self.next_id);
        self.next_id += 1;
        self.tsr += 1;
        let tsr_fr = self.tsr;
        self.op = Some(RegOp {
            id,
            tsr_fr,
            phase: Phase::Round1,
            hist: [BTreeMap::new(), BTreeMap::new()],
            candidates: BTreeSet::new(),
            eliminated: BTreeSet::new(),
        });
        let msg = Msg::Read {
            round: ReadRound::R1,
            reader: self.j,
            tsr: tsr_fr,
            since: self.optimized.then_some(self.cache.ts),
            ack: self.acked,
        };
        ctx.broadcast(self.objects.iter().copied(), msg);
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

    /// The cached pair (meaningful in optimized mode).
    pub fn cache(&self) -> &TsVal<V> {
        &self.cache
    }

    /// Whether this reader runs the §5.1 optimization.
    pub fn is_optimized(&self) -> bool {
        self.optimized
    }

    /// The highest write timestamp this reader has returned — the GC
    /// acknowledgement piggybacked on its `READk` messages.
    pub fn acked(&self) -> Timestamp {
        self.acked
    }

    /// Cumulative fast-path hit/fallback counters.
    pub fn fast_stats(&self) -> FastPathStats {
        self.fast_stats
    }

    // ---- Figure 6 predicates ------------------------------------------------

    /// Does object `i`'s reply in round `rnd` fully confirm `c` at position
    /// `c.tsval.ts`? (The negation feeds `invalid`; the weaker pw/w match
    /// feeds `safe`.)
    fn entry_of(
        op: &RegOp<V>,
        rnd: usize,
        i: usize,
        ts: Timestamp,
    ) -> Option<&crate::types::HistEntry<V>> {
        op.hist[rnd].get(&i).and_then(|h| h.get(ts))
    }

    /// `invalid(c)` (Figure 6 line 2): ≥ t+b+1 objects responded in some
    /// round without fully confirming `c` at its position.
    fn invalid_count(op: &RegOp<V>, c: &WTuple<V>) -> usize {
        let ts = c.ts();
        let mut objs: BTreeSet<usize> = BTreeSet::new();
        for rnd in 0..2 {
            for &i in op.hist[rnd].keys() {
                let fails = match Self::entry_of(op, rnd, i, ts) {
                    None => true,
                    Some(e) => e.pw != c.tsval || e.w.as_ref() != Some(c),
                };
                if fails {
                    objs.insert(i);
                }
            }
        }
        objs.len()
    }

    /// `safe(c)` (Figure 6 line 3): ≥ b+1 objects confirmed `c.tsval` (pw)
    /// or `c` (w) at position `c.tsval.ts` in some round.
    fn safe_count(op: &RegOp<V>, c: &WTuple<V>) -> usize {
        let ts = c.ts();
        let mut objs: BTreeSet<usize> = BTreeSet::new();
        for rnd in 0..2 {
            for &i in op.hist[rnd].keys() {
                if let Some(e) = Self::entry_of(op, rnd, i, ts) {
                    if e.pw == c.tsval || e.w.as_ref() == Some(c) {
                        objs.insert(i);
                    }
                }
            }
        }
        objs.len()
    }

    /// `conflict(i, k)` (Figure 6 line 1).
    fn conflict(op: &RegOp<V>, j: usize, i: usize, k: usize) -> bool {
        let Some(h) = op.hist[0].get(&k) else {
            return false;
        };
        h.iter().any(|(_ts, e)| {
            e.w.as_ref().is_some_and(|c| {
                op.candidates.contains(c)
                    && c.tsrarray
                        .get(i, j)
                        .is_some_and(|reported| reported > op.tsr_fr)
            })
        })
    }

    fn recheck_invalidations(&mut self) {
        let threshold = self
            .tuning
            .invalid_threshold
            .unwrap_or(self.cfg.t_plus_b_plus_1());
        let Some(op) = self.op.as_mut() else { return };
        let doomed: Vec<WTuple<V>> = op
            .candidates
            .iter()
            .filter(|c| Self::invalid_count(op, c) >= threshold)
            .cloned()
            .collect();
        for c in doomed {
            op.candidates.remove(&c);
            op.eliminated.insert(c);
        }
    }

    fn try_advance(&mut self, ctx: &mut Context<'_, Msg<V>>) {
        let Some(op) = self.op.as_ref() else { return };
        if op.phase != Phase::Round1 {
            return;
        }
        let members: Vec<usize> = op.hist[0].keys().copied().collect();
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
        // Fast path (extension; the converse of Proposition 1): above the
        // boundary, a strong-enough exact round-1 confirmation of the
        // highest candidate finishes the read in one round-trip. Checked
        // exactly once; on failure the read proceeds to round 2 below,
        // reusing every history already collected (no restart).
        if self.try_fast_finish() {
            return;
        }
        self.tsr += 1;
        let tsr = self.tsr;
        let since = self.optimized.then_some(self.cache.ts);
        let skip_round2 = self.tuning.skip_round2;
        let op = self.op.as_mut().expect("checked above");
        debug_assert_eq!(tsr, op.tsr_fr + 1);
        op.phase = Phase::Round2;
        if !skip_round2 {
            let msg = Msg::Read {
                round: ReadRound::R2,
                reader: j,
                tsr,
                since,
                ack: self.acked,
            };
            ctx.broadcast(self.objects.iter().copied(), msg);
        }
    }

    /// The sound one-round fast path: complete now iff some highest live
    /// candidate is *fully confirmed* (matching `pw` or `w` at its history
    /// position) by [`StorageConfig::fast_read_quorum`] round-1 replies.
    /// Returns whether the read completed.
    ///
    /// Soundness mirrors the safe reader's: `need − b ≥ b + 1` correct
    /// confirmers prove the candidate genuinely written, and any completed
    /// write sits in at least `S − 2t − b ≥ b + 1` of the quorum's correct
    /// histories (invalidation cannot erase it: at most `t + b < t + b + 1`
    /// objects lack it), so the highest candidate is never older than the
    /// last completed write. In optimized (§5.1) mode suffixes start at
    /// `cache.ts ≥` every previously returned timestamp, which only
    /// *raises* the floor; an empty candidate set simply falls back to the
    /// round-2 cache-return rule.
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
            .filter(|c| c.ts() == high)
            .find(|c| {
                let ts = c.ts();
                let exact = op.hist[0]
                    .keys()
                    .filter(|&&i| {
                        Self::entry_of(op, 0, i, ts)
                            .is_some_and(|e| e.pw == c.tsval || e.w.as_ref() == Some(*c))
                    })
                    .count();
                exact >= need
            })
            .cloned();
        match confirmed {
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
                self.acked = self.acked.max(cret.ts());
                if self.optimized {
                    self.cache = cret.tsval.clone();
                }
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

    fn try_finish(&mut self) {
        let Some(op) = self.op.as_ref() else { return };
        if op.phase != Phase::Round2 {
            return;
        }
        let rounds = if self.tuning.skip_round2 { 1 } else { 2 };
        if op.candidates.is_empty() {
            // §5.1: an empty candidate set after a full round-1 quorum
            // proves no write at or above cache.ts completed before this
            // read — return the cached value. (Unoptimized readers cannot
            // get here: w0 is always a candidate and never invalid.)
            if self.optimized {
                let id = op.id;
                self.outcomes.insert(
                    id,
                    ReadOutcome {
                        value: self.cache.value.clone(),
                        ts: self.cache.ts,
                        rounds,
                        fast: false,
                    },
                );
                // No acked update: acked >= cache.ts is invariant (the
                // cache is only ever set alongside an acked raise).
                self.op = None;
            }
            return;
        }
        let safe_needed = self.tuning.safe_threshold.unwrap_or(self.cfg.b_plus_1());
        let high = op
            .candidates
            .iter()
            .map(WTuple::ts)
            .max()
            .expect("non-empty");
        let ret = op
            .candidates
            .iter()
            .filter(|c| c.ts() == high)
            .find(|c| Self::safe_count(op, c) >= safe_needed)
            .cloned();
        if let Some(cret) = ret {
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
            self.acked = self.acked.max(cret.ts());
            if self.optimized {
                self.cache = cret.tsval.clone();
            }
            self.op = None;
        }
    }
}

impl<V: Value> Automaton<Msg<V>> for RegularReader<V> {
    fn on_message(&mut self, from: ProcessId, msg: Msg<V>, ctx: &mut Context<'_, Msg<V>>) {
        let Some(&obj) = self.object_index.get(&from) else {
            return;
        };
        let Msg::ReadAckRegular {
            round,
            tsr,
            history,
        } = msg
        else {
            return;
        };
        let Some(op) = self.op.as_mut() else { return };

        match round {
            ReadRound::R1 => {
                if tsr != op.tsr_fr || op.hist[0].contains_key(&obj) {
                    return;
                }
                // Figure 6 lines 17–21: record the history and harvest
                // candidates from its w fields.
                for (_ts, e) in history.iter() {
                    if let Some(w) = &e.w {
                        if !op.eliminated.contains(w) {
                            op.candidates.insert(w.clone());
                        }
                    }
                }
                op.hist[0].insert(obj, history);
            }
            ReadRound::R2 => {
                if op.phase != Phase::Round2
                    || tsr != op.tsr_fr + 1
                    || op.hist[1].contains_key(&obj)
                {
                    return;
                }
                // Figure 6 lines 22–25.
                op.hist[1].insert(obj, history);
            }
        }

        self.recheck_invalidations();
        self.try_advance(ctx);
        self.try_finish();
    }

    fn label(&self) -> &'static str {
        "regular-reader"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{HistEntry, TsrMatrix};

    /// S = 4, t = b = 1, quorum = 3.
    fn cfg() -> StorageConfig {
        StorageConfig::optimal(1, 1, 1)
    }

    fn objects() -> Vec<ProcessId> {
        (0..4).map(ProcessId).collect()
    }

    fn reader() -> RegularReader<u64> {
        RegularReader::new(cfg(), 0, objects())
    }

    fn invoke(r: &mut RegularReader<u64>) -> (ReadId, Vec<(ProcessId, Msg<u64>)>) {
        let mut out = Vec::new();
        let mut ctx = Context::new(ProcessId(9), &mut out);
        let id = r.invoke_read(&mut ctx);
        (id, out)
    }

    fn deliver(
        r: &mut RegularReader<u64>,
        from: usize,
        msg: Msg<u64>,
    ) -> Vec<(ProcessId, Msg<u64>)> {
        let mut out = Vec::new();
        let mut ctx = Context::new(ProcessId(9), &mut out);
        r.on_message(ProcessId(from), msg, &mut ctx);
        out
    }

    /// History with complete entries for writes 1..=n (value = 10*ts).
    fn full_history(n: u64) -> History<u64> {
        let mut h = History::initial();
        for k in 1..=n {
            let tsval = TsVal::new(Timestamp(k), k * 10);
            h.insert(
                Timestamp(k),
                HistEntry {
                    pw: tsval.clone(),
                    w: Some(WTuple::new(tsval, TsrMatrix::empty())),
                },
            );
        }
        h
    }

    fn ack(round: ReadRound, tsr: u64, h: History<u64>) -> Msg<u64> {
        Msg::ReadAckRegular {
            round,
            tsr,
            history: h,
        }
    }

    #[test]
    fn returns_newest_confirmed_write() {
        let mut r = reader();
        let (id, out) = invoke(&mut r);
        assert_eq!(out.len(), 4);
        assert!(matches!(out[0].1, Msg::Read { since: None, .. }));
        for i in 0..3 {
            deliver(&mut r, i, ack(ReadRound::R1, 1, full_history(3)));
        }
        let got = r.outcome(id).expect("complete");
        assert_eq!(got.value, Some(30));
        assert_eq!(got.ts, Timestamp(3));
        assert_eq!(got.rounds, 2);
    }

    #[test]
    fn fresh_system_returns_bottom_via_w0() {
        let mut r = reader();
        let (id, _) = invoke(&mut r);
        for i in 0..3 {
            deliver(&mut r, i, ack(ReadRound::R1, 1, History::initial()));
        }
        let got = r.outcome(id).expect("complete");
        assert_eq!(got.value, None);
        assert_eq!(got.ts, Timestamp::ZERO);
    }

    #[test]
    fn forged_unconfirmed_entry_is_outvoted() {
        let mut r = reader();
        let (id, _) = invoke(&mut r);
        // Byzantine object 3 forges history entry 9.
        let mut forged = full_history(1);
        let fv = TsVal::new(Timestamp(9), 666);
        forged.insert(
            Timestamp(9),
            HistEntry {
                pw: fv.clone(),
                w: Some(WTuple::new(fv, TsrMatrix::empty())),
            },
        );
        deliver(&mut r, 3, ack(ReadRound::R1, 1, forged));
        deliver(&mut r, 0, ack(ReadRound::R1, 1, full_history(1)));
        deliver(&mut r, 1, ack(ReadRound::R1, 1, full_history(1)));
        // Round 2 opened; forged candidate high but unconfirmed (1 < b+1),
        // invalid count = 2 (< 3): blocked.
        assert!(r.outcome(id).is_none());
        // Third honest object answers round 1 late: invalid(forged) = 3
        // (objects 0, 1, 2 lack entry 9) => eliminated; w1 is safe + high.
        deliver(&mut r, 2, ack(ReadRound::R1, 1, full_history(1)));
        let got = r.outcome(id).expect("complete");
        assert_eq!(got.value, Some(10));
    }

    #[test]
    fn same_ts_different_tuples_require_full_confirmation() {
        let mut r = reader();
        let (id, _) = invoke(&mut r);
        // Byzantine object reports write 1 with a tampered matrix.
        let tsval = TsVal::new(Timestamp(1), 10);
        let mut tampered_matrix = TsrMatrix::empty();
        tampered_matrix.set_row(1, std::collections::BTreeMap::from([(0usize, 0u64)]));
        let mut tampered = History::initial();
        tampered.insert(
            Timestamp(1),
            HistEntry {
                pw: tsval.clone(),
                w: Some(WTuple::new(tsval, tampered_matrix)),
            },
        );
        deliver(&mut r, 3, ack(ReadRound::R1, 1, tampered));
        for i in 0..3 {
            deliver(&mut r, i, ack(ReadRound::R1, 1, full_history(1)));
        }
        let got = r.outcome(id).expect("complete");
        // Both tuples have ts 1; only the honest one reaches b+1 = 2
        // confirmations. Value is the same but the returned ts must be 1.
        assert_eq!(got.value, Some(10));
        assert_eq!(got.ts, Timestamp(1));
    }

    #[test]
    fn pw_only_entry_supports_safety_but_not_candidacy() {
        // An object that saw only PW of write 2 (w = nil) cannot nominate
        // w2, but its pw does count toward safe(c) for the real w2 tuple.
        let mut r = reader();
        let (id, _) = invoke(&mut r);
        let w2 = WTuple::new(TsVal::new(Timestamp(2), 20), TsrMatrix::empty());
        // Object 0: full entry for write 2 (nominates w2).
        let mut h0 = full_history(1);
        h0.insert(
            Timestamp(2),
            HistEntry {
                pw: w2.tsval.clone(),
                w: Some(w2.clone()),
            },
        );
        // Objects 1 and 2: pw-only entries at ts 2.
        let mut h12 = full_history(1);
        h12.insert(
            Timestamp(2),
            HistEntry {
                pw: w2.tsval.clone(),
                w: None,
            },
        );
        deliver(&mut r, 0, ack(ReadRound::R1, 1, h0));
        deliver(&mut r, 1, ack(ReadRound::R1, 1, h12.clone()));
        deliver(&mut r, 2, ack(ReadRound::R1, 1, h12));
        let got = r.outcome(id).expect("complete");
        assert_eq!(got.value, Some(20), "pw confirmations make w2 safe");
    }

    #[test]
    fn optimized_reader_sends_since_and_caches() {
        let mut r = RegularReader::new_optimized(cfg(), 0, objects());
        let (id, out) = invoke(&mut r);
        assert!(
            matches!(
                out[0].1,
                Msg::Read {
                    since: Some(Timestamp::ZERO),
                    ..
                }
            ),
            "first read asks from ts 0"
        );
        for i in 0..3 {
            deliver(&mut r, i, ack(ReadRound::R1, 1, full_history(2)));
        }
        assert_eq!(r.outcome(id).unwrap().value, Some(20));
        assert_eq!(r.cache().ts, Timestamp(2), "cache updated to returned pair");

        // Second read requests the suffix from ts 2.
        let (_id2, out2) = invoke(&mut r);
        assert!(matches!(
            out2[0].1,
            Msg::Read {
                since: Some(Timestamp(2)),
                ..
            }
        ));
    }

    #[test]
    fn optimized_reader_returns_cache_on_empty_candidates() {
        let mut r = RegularReader::new_optimized(cfg(), 0, objects());
        // Prime the cache with a completed read of write 2.
        let (id1, _) = invoke(&mut r);
        for i in 0..3 {
            deliver(&mut r, i, ack(ReadRound::R1, 1, full_history(2)));
        }
        assert_eq!(r.outcome(id1).unwrap().value, Some(20));

        // Next read: all objects report empty suffixes (nothing newer).
        // The first read consumed reader timestamps 1 (round 1) and 2
        // (round 2), so this read's tsrFR is 3.
        let (id2, out2) = invoke(&mut r);
        let tsr_fr = match out2[0].1 {
            Msg::Read { tsr, .. } => tsr,
            _ => unreachable!(),
        };
        assert_eq!(tsr_fr, 3);
        for i in 0..3 {
            deliver(&mut r, i, ack(ReadRound::R1, tsr_fr, History::empty()));
        }
        let got = r.outcome(id2).expect("complete on empty C");
        assert_eq!(got.value, Some(20), "cached value returned");
        assert_eq!(got.ts, Timestamp(2));
    }

    #[test]
    fn unoptimized_reader_waits_out_empty_histories() {
        let mut r = reader();
        let (id, _) = invoke(&mut r);
        // Two liars report empty histories, one honest object reports the
        // initial history: round 2 opens but w0 has only 1 confirmation
        // (< b+1 = 2) — the unoptimized reader must keep waiting rather
        // than invent a result from the empty candidate set.
        deliver(&mut r, 0, ack(ReadRound::R1, 1, History::empty()));
        deliver(&mut r, 1, ack(ReadRound::R1, 1, History::empty()));
        deliver(&mut r, 2, ack(ReadRound::R1, 1, History::initial()));
        assert!(r.outcome(id).is_none());
        // A second honest reply confirms w0: safe(w0) holds, ⊥ returned.
        deliver(&mut r, 3, ack(ReadRound::R1, 1, History::initial()));
        assert_eq!(r.outcome(id).unwrap().value, None);
    }

    #[test]
    fn conflict_blocks_round1_until_candidate_invalidated() {
        let mut r = reader();
        let (id, _) = invoke(&mut r);
        // Byzantine object 3's history contains a forged tuple accusing
        // object 0 of reader-timestamp 50 > tsrFR.
        let fv = TsVal::new(Timestamp(5), 50);
        let mut matrix = TsrMatrix::empty();
        matrix.set_row(0, std::collections::BTreeMap::from([(0usize, 50u64)]));
        let mut forged = History::initial();
        forged.insert(
            Timestamp(5),
            HistEntry {
                pw: fv.clone(),
                w: Some(WTuple::new(fv, matrix)),
            },
        );
        deliver(&mut r, 3, ack(ReadRound::R1, 1, forged));
        deliver(&mut r, 0, ack(ReadRound::R1, 1, History::initial()));
        deliver(&mut r, 1, ack(ReadRound::R1, 1, History::initial()));
        assert!(
            r.outcome(id).is_none(),
            "conflict(0,3) must block the quorum"
        );
        // Object 2 answers: invalid(forged) reaches t+b+1 = 3, the forged
        // candidate dies, the conflict evaporates, round 2 opens, and w0 is
        // safe + high.
        deliver(&mut r, 2, ack(ReadRound::R1, 1, History::initial()));
        assert_eq!(r.outcome(id).unwrap().value, None);
    }

    #[test]
    fn optimized_reader_rejects_forged_entries_below_since() {
        // A Byzantine object ships history entries *below* the requested
        // suffix start. Candidates harvested from them can never be
        // confirmed: every correct suffix lacks those positions, so the
        // invalid(c) count reaches t+b+1 and the forgery dies.
        let mut r = RegularReader::new_optimized(cfg(), 0, objects());
        // Warm the cache to ts 2.
        let (id1, _) = invoke(&mut r);
        for i in 0..3 {
            deliver(&mut r, i, ack(ReadRound::R1, 1, full_history(2)));
        }
        assert_eq!(r.outcome(id1).unwrap().value, Some(20));
        assert_eq!(r.cache().ts, Timestamp(2));

        // Second read: honest objects send empty suffixes; the liar sends
        // a "history" whose only candidate sits below since = 2.
        let (id2, _) = invoke(&mut r);
        let mut forged = History::empty();
        let fv = TsVal::new(Timestamp(1), 666);
        forged.insert(
            Timestamp(1),
            HistEntry {
                pw: fv.clone(),
                w: Some(WTuple::new(fv, TsrMatrix::empty())),
            },
        );
        deliver(&mut r, 3, ack(ReadRound::R1, 3, forged));
        for i in 0..2 {
            deliver(&mut r, i, ack(ReadRound::R1, 3, History::empty()));
        }
        assert!(
            r.outcome(id2).is_none(),
            "forged candidate still live: 2 < t+b+1"
        );
        deliver(&mut r, 2, ack(ReadRound::R1, 3, History::empty()));
        let got = r.outcome(id2).expect("complete");
        assert_eq!(
            got.value,
            Some(20),
            "cache returned; the below-since forgery died"
        );
        assert_eq!(got.ts, Timestamp(2));
    }

    /// S = 5 = 2t+2b+1, t = b = 1: quorum = 4, fast quorum = 3.
    fn fast_cfg() -> StorageConfig {
        StorageConfig::fast(1, 1, 1)
    }

    fn fast_objects() -> Vec<ProcessId> {
        (0..5).map(ProcessId).collect()
    }

    #[test]
    fn fast_path_completes_in_one_round_when_quorum_agrees() {
        let mut r = RegularReader::<u64>::new(fast_cfg(), 0, fast_objects());
        let (id, _) = invoke(&mut r);
        for i in 0..3 {
            deliver(&mut r, i, ack(ReadRound::R1, 1, full_history(2)));
            assert!(r.outcome(id).is_none());
        }
        let sent = deliver(&mut r, 3, ack(ReadRound::R1, 1, full_history(2)));
        assert!(sent.is_empty(), "fast path must not broadcast READ2");
        let got = r.outcome(id).expect("fast read complete");
        assert_eq!(got.value, Some(20));
        assert_eq!(got.ts, Timestamp(2));
        assert_eq!(got.rounds, 1);
        assert!(got.fast);
        assert_eq!(r.acked(), Timestamp(2), "fast hits still drive GC acks");
        assert_eq!(
            r.fast_stats(),
            FastPathStats {
                hits: 1,
                fallbacks: 0
            }
        );
    }

    #[test]
    fn optimized_fast_path_updates_cache_and_since() {
        let mut r = RegularReader::<u64>::new_optimized(fast_cfg(), 0, fast_objects());
        let (id, _) = invoke(&mut r);
        for i in 0..4 {
            deliver(&mut r, i, ack(ReadRound::R1, 1, full_history(3)));
        }
        let got = r.outcome(id).expect("complete");
        assert_eq!(got.rounds, 1);
        assert!(got.fast);
        assert_eq!(r.cache().ts, Timestamp(3), "cache updated on fast hit");
        // The next read asks for the suffix from the fast-returned pair.
        let (_, out2) = invoke(&mut r);
        assert!(matches!(
            out2[0].1,
            Msg::Read {
                since: Some(Timestamp(3)),
                ..
            }
        ));
    }

    #[test]
    fn fast_path_falls_back_without_restarting_round1() {
        let mut r = RegularReader::<u64>::new(fast_cfg(), 0, fast_objects());
        let (id, _) = invoke(&mut r);
        // Two quorum members missed write 1 (still in flight to them):
        // 2 < 3 exact confirmations of the highest candidate.
        deliver(&mut r, 0, ack(ReadRound::R1, 1, full_history(1)));
        deliver(&mut r, 1, ack(ReadRound::R1, 1, full_history(1)));
        deliver(&mut r, 2, ack(ReadRound::R1, 1, History::initial()));
        let sent = deliver(&mut r, 3, ack(ReadRound::R1, 1, History::initial()));
        assert_eq!(sent.len(), 5, "fallback broadcasts READ2 to all");
        assert_eq!(
            r.fast_stats(),
            FastPathStats {
                hits: 0,
                fallbacks: 1
            }
        );
        // The two-round machinery finishes on the reused round-1 evidence
        // (b+1 = 2 confirmations already satisfy safe(c) at round-2 entry).
        let got = r.outcome(id).expect("fallback read complete");
        assert_eq!(got.value, Some(10));
        assert_eq!(got.rounds, 2);
        assert!(!got.fast);
    }

    #[test]
    fn fast_path_refuses_at_the_proposition1_boundary() {
        // S = 4 = 2t + 2b: even a unanimous quorum takes two rounds.
        let mut r = reader();
        let (id, _) = invoke(&mut r);
        for i in 0..3 {
            deliver(&mut r, i, ack(ReadRound::R1, 1, full_history(1)));
        }
        let got = r.outcome(id).expect("complete");
        assert_eq!(got.rounds, 2);
        assert!(!got.fast);
        assert_eq!(r.fast_stats(), FastPathStats::default(), "never eligible");
    }

    #[test]
    fn forged_high_entry_cannot_fast_fire_with_wrong_value() {
        // Byzantine object 4 forges history entry 9 on top of the real
        // write: at quorum close the forgery has 1 < 3 confirmations and
        // (already) t+b+1 = 3 invalidators, so the genuine write — high
        // among the live candidates — fast-fires instead.
        let mut r = RegularReader::<u64>::new(fast_cfg(), 0, fast_objects());
        let (id, _) = invoke(&mut r);
        let mut forged = full_history(1);
        let fv = TsVal::new(Timestamp(9), 666);
        forged.insert(
            Timestamp(9),
            HistEntry {
                pw: fv.clone(),
                w: Some(WTuple::new(fv, TsrMatrix::empty())),
            },
        );
        deliver(&mut r, 4, ack(ReadRound::R1, 1, forged));
        for i in 0..3 {
            deliver(&mut r, i, ack(ReadRound::R1, 1, full_history(1)));
        }
        let got = r.outcome(id).expect("complete");
        assert_eq!(got.value, Some(10), "never the forged value");
        assert_eq!(got.ts, Timestamp(1));
        assert_eq!(got.rounds, 1);
    }

    #[test]
    fn unreachable_fast_threshold_always_falls_back() {
        let tuning = RegularTuning {
            fast_threshold: Some(usize::MAX),
            ..RegularTuning::default()
        };
        let mut r = RegularReader::<u64>::with_tuning(fast_cfg(), 0, fast_objects(), false, tuning);
        let (id, _) = invoke(&mut r);
        for i in 0..4 {
            deliver(&mut r, i, ack(ReadRound::R1, 1, full_history(1)));
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
    fn reads_piggyback_the_highest_returned_timestamp() {
        let mut r = reader();
        assert_eq!(r.acked(), Timestamp::ZERO);
        let (_, out) = invoke(&mut r);
        assert!(
            matches!(
                out[0].1,
                Msg::Read {
                    ack: Timestamp::ZERO,
                    ..
                }
            ),
            "no read completed yet: ack 0"
        );
        for i in 0..3 {
            deliver(&mut r, i, ack(ReadRound::R1, 1, full_history(3)));
        }
        assert_eq!(r.acked(), Timestamp(3), "ack tracks the returned ts");

        // The next read advertises ack 3 in round 1...
        let (_, out2) = invoke(&mut r);
        assert!(matches!(
            out2[0].1,
            Msg::Read {
                ack: Timestamp(3),
                ..
            }
        ));
        // ...and in round 2.
        let mut round2 = Vec::new();
        for i in 0..3 {
            round2.extend(deliver(&mut r, i, ack(ReadRound::R1, 3, full_history(3))));
        }
        assert!(round2.iter().any(|(_, m)| matches!(
            m,
            Msg::Read {
                round: ReadRound::R2,
                ack: Timestamp(3),
                ..
            }
        )));
    }

    #[test]
    fn acked_never_regresses_when_reads_go_back_in_time() {
        // Regularity lets a later read return an older (concurrently
        // written) value; the GC ack must keep the high-water mark, or
        // objects could truncate entries the reader just proved it needs.
        let mut r = reader();
        let (id1, _) = invoke(&mut r);
        for i in 0..3 {
            deliver(&mut r, i, ack(ReadRound::R1, 1, full_history(5)));
        }
        assert_eq!(r.outcome(id1).unwrap().ts, Timestamp(5));
        assert_eq!(r.acked(), Timestamp(5));

        // Second read: objects now report only up to write 3 (e.g. the
        // first answer quorum was different).
        let (id2, _) = invoke(&mut r);
        for i in 0..3 {
            deliver(&mut r, i, ack(ReadRound::R1, 3, full_history(3)));
        }
        assert_eq!(r.outcome(id2).unwrap().ts, Timestamp(3));
        assert_eq!(r.acked(), Timestamp(5), "high-water mark kept");
    }

    #[test]
    fn duplicate_and_stale_acks_ignored() {
        let mut r = reader();
        let (id, _) = invoke(&mut r);
        for _ in 0..4 {
            deliver(&mut r, 0, ack(ReadRound::R1, 1, full_history(1)));
        }
        assert!(
            r.outcome(id).is_none(),
            "one object repeated is not a quorum"
        );
        deliver(&mut r, 1, ack(ReadRound::R1, 99, full_history(1)));
        assert!(r.outcome(id).is_none(), "wrong echo ignored");
    }
}
