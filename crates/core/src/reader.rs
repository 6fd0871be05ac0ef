//! The one two-round reader behind both of the paper's protocols.
//!
//! §5 presents the regular reader (Figure 6) as the safe reader (Figure 4)
//! with histories in place of `pw`/`w` pairs: the same two rounds, the same
//! `conflict`-free quorum, the same rule "return the highest candidate that
//! is `safe`, after dropping those `t + b + 1` objects contradict". This
//! module states that algorithm once — [`Reader<V, E>`] — over an
//! [`Evidence`] `E` that says what one object's reply looks like and how it
//! bears on a candidate. [`crate::safe::SafeEvidence`] (Figure 4) and
//! [`crate::regular::RegularEvidence`] (Figure 6 + §5.1) are the only
//! per-protocol pieces; [`crate::safe::SafeReader`] and
//! [`crate::regular::RegularReader`] are the two instantiations.
//!
//! The paper's key novelty lives in the skeleton: in *both* rounds the
//! reader writes control data (a fresh timestamp `tsr'_j`) into the objects
//! and reads their state back. The two writes arm the `conflict` predicate —
//! a Byzantine object that forges a candidate "from the future" must claim
//! some object `s_i` reported a reader timestamp higher than the reader has
//! issued, which either exposes the forger (conflict with `s_i` in round 1)
//! or forces `s_i`'s round-2 reply to corroborate the candidate. A READ
//! takes exactly two round-trips at optimal resilience: the worst case
//! proved by Proposition 1, achieved by Proposition 2.
//!
//! # Figure lines → skeleton steps → evidence methods
//!
//! | Figure 4 | Figure 6 | skeleton step | evidence method |
//! |---|---|---|---|
//! | line 1 `conflict(i,k)` | line 1 | `ReadOp::conflict` | [`Evidence::nominated`] (round-1 tuples of `k`) |
//! | line 2 `RespondedWO(c)` | line 2 `invalid(c)` | `Reader::eliminate` | [`Evidence::contradicts`] |
//! | line 3 `safe(c)` | line 3 | `Reader::try_finish` | [`Evidence::supports`] |
//! | line 4 `highCand(c)` | line 4 | `ReadOp::highest` | — |
//! | lines 7–10 invoke, `READ1` | invoke | [`Reader::invoke_read`] | [`Evidence::request_fields`] (`since`, `ack`) |
//! | line 11 conflict-free quorum | line 11 | `Reader::try_advance` | — |
//! | lines 12–13 `READ2` | same | `Reader::try_advance` | [`Evidence::request_fields`] |
//! | line 14 wait | same | `Reader::try_finish` | — |
//! | lines 15–16 `C = ∅` | §5.1 cache | `Reader::try_finish` | [`Evidence::on_empty`] |
//! | lines 18–19 return | return | `Reader::try_finish` | [`Evidence::on_return`] |
//! | lines 21–24 `READ1_ACK` | lines 17–21 | `on_message` | [`Evidence::open`], [`Evidence::nominated`] |
//! | lines 25–26 `READ2_ACK` | lines 22–25 | `on_message` | [`Evidence::open`] |
//! | lines 27–28 eliminate | `invalid` | `Reader::eliminate` | [`Evidence::contradicts`] |
//! | — (extension) | — | `Reader::try_fast_finish` | [`Evidence::confirms`] |
//!
//! # The one-round fast path, and why it is sound
//!
//! With `S ≥ 2t + 2b + 1` objects (one above the Proposition 1 boundary)
//! the read completes at the moment the conflict-free round-1 quorum closes
//! iff some highest live candidate has `need =`
//! [`StorageConfig::fast_read_quorum`] `= S − 2t` *exact* round-1
//! confirmations ([`Evidence::confirms`]: the reply carries the candidate
//! itself, as `w` or as its `pw` pair — the "or anything newer" leniency of
//! Figure 4's `safe(c)` is for round 2, where the conflict machinery backs
//! it up). Checked exactly once; on failure the read proceeds to round 2
//! reusing every reply already collected (no restart).
//!
//! *No phantom:* `need` confirmations contain at least `need − b ≥ b + 1`
//! correct objects, so the candidate was genuinely written — a forgery
//! musters at most `b`. *Never stale:* a completed write `w_k` is held by
//! at least `S − t − b` correct objects, of which at least
//! `S − 2t − b ≥ b + 1 ≥ 1` sit in this round-1 quorum, and elimination
//! cannot out-shout them (it needs `t + b + 1` dissenters; at most `t + b`
//! objects lack `w_k`), so the highest live candidate's timestamp is at
//! least `k`: the returned value is never older than the last completed
//! write. Under §5.1 the suffixes start at `cache.ts ≥` every previously
//! returned timestamp, which only *raises* the floor; an empty candidate
//! set simply falls back to round 2 and its cache-return rule.
//! At `S ≤ 2t + 2b` the path refuses to engage and the reader *behaves*
//! exactly like Figures 4 and 6.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use vrr_sim::{Automaton, Context, ProcessId};

use crate::config::StorageConfig;
use crate::mis::conflict_free_of_size;
use crate::msg::{Msg, ReadRound};
use crate::types::{Timestamp, TsVal, Value, WTuple};

/// Identifies one READ invocation on a [`Reader`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ReadId(pub u64);

/// Report for a completed READ.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadReport<V> {
    /// Returned value (`None` = the initial value `⊥`).
    pub value: Option<V>,
    /// Timestamp of the returned value.
    pub ts: Timestamp,
    /// Communication round-trips used.
    pub rounds: u32,
    /// Completed in a single round-trip via a *sound* one-round rule —
    /// the paper protocols' fast path (`S ≥ 2t + 2b + 1`; see
    /// [`StorageConfig::fast_read_quorum`]), or a baseline whose read is
    /// single-round by design. Mutants that skip round 2 unsoundly report
    /// `rounds == 1` with `fast == false`.
    pub fast: bool,
}

/// Ablation knobs of the reader, shared by both protocols.
///
/// The defaults are the paper's Figures 4 and 6 plus the sound one-round
/// fast path (which self-disables wherever Proposition 1 applies, so the
/// default *behaves* exactly like the figures at `S ≤ 2t + 2b`). Each other
/// knob removes or weakens one load-bearing mechanism; the mutation
/// experiments show the consistency checkers catch the resulting
/// violations, and the ablation benches quantify what each mechanism
/// costs. **Never deviate from [`ReaderTuning::default`] in production
/// use.**
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReaderTuning {
    /// Supporters required by `safe(c)`; `None` = the paper's `b + 1`.
    pub safe_threshold: Option<usize>,
    /// Contradictors required to eliminate a candidate (Figure 4 lines
    /// 27–28; what Figure 6 calls `invalid(c)`); `None` = the paper's
    /// `t + b + 1`.
    pub elim_threshold: Option<usize>,
    /// Run the round-1 `conflict(i, k)` filter (line 11).
    pub conflict_check: bool,
    /// Skip the second round *unconditionally* and decide on round-1
    /// evidence with the unchanged rules — the **unsound** one-round
    /// *mutant* that Proposition 1 convicts (the lower-bound demo). Not to
    /// be confused with [`ReaderTuning::fast_path`], which is the sound
    /// fast path: it only fires above the Proposition 1 boundary, demands
    /// [`StorageConfig::fast_read_quorum`] exact confirmations, and
    /// otherwise falls back to the full second round.
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

impl Default for ReaderTuning {
    fn default() -> Self {
        ReaderTuning {
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

/// What distinguishes Figure 4 from Figure 6: the shape of one object's
/// `READk_ACK` and how that reply bears on a candidate `c`.
///
/// The [`Reader`] keeps every accepted reply, per round and per object, and
/// judges candidates by counting the *objects* with a reply (in either
/// round) that satisfies one of the predicates below; the implementor also
/// carries whatever a protocol remembers between READs (§5.1's cache, the
/// history-GC acknowledgement).
pub trait Evidence<V: Value>: Clone + fmt::Debug + Send + 'static {
    /// The payload of this protocol's `READk_ACK`.
    type Reply: Clone + fmt::Debug + Send + 'static;

    /// What the automaton calls itself in traces.
    const LABEL: &'static str;

    /// Unpacks this protocol's `READk_ACK` into round, echoed reader
    /// timestamp and payload; `None` for any other message.
    fn open(msg: Msg<V>) -> Option<(ReadRound, u64, Self::Reply)>;

    /// The `w` tuples the reply reports — what a round-1 reply nominates
    /// into the candidate set `C`, and what `conflict(i, k)` inspects.
    fn nominated(reply: &Self::Reply) -> impl Iterator<Item = &WTuple<V>>;

    /// The reply speaks against `c` (`RespondedWO` / `invalid`).
    fn contradicts(reply: &Self::Reply, c: &WTuple<V>) -> bool;

    /// The reply counts toward `safe(c)`.
    fn supports(reply: &Self::Reply, c: &WTuple<V>) -> bool;

    /// The reply confirms `c` *exactly* — all the fast path accepts. Where
    /// `safe(c)` has no leniency to strip (Figure 6) this is
    /// [`Evidence::supports`].
    fn confirms(reply: &Self::Reply, c: &WTuple<V>) -> bool {
        Self::supports(reply, c)
    }

    /// The `since` and `ack` fields of this reader's `READk` messages.
    fn request_fields(&self) -> (Option<Timestamp>, Timestamp);

    /// The READ is about to return candidate `c`.
    fn on_return(&mut self, c: &WTuple<V>);

    /// What a READ whose candidate set drained returns; `None` keeps it
    /// waiting.
    fn on_empty(&self) -> Option<TsVal<V>>;
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Round1,
    Round2,
}

#[derive(Clone, Debug)]
struct ReadOp<V: Value, E: Evidence<V>> {
    id: ReadId,
    /// `tsrFR`: the reader timestamp of the first round (Figure 4 line 9).
    tsr_fr: u64,
    phase: Phase,
    /// Accepted replies per round and object — the first per object counts,
    /// equivocating repeats are ignored. Round 1's key set is `Resp1`.
    replies: [BTreeMap<usize, E::Reply>; 2],
    /// The candidate set `C`.
    candidates: BTreeSet<WTuple<V>>,
    /// Tuples removed from `C` by elimination; removal is permanent because
    /// the set of contradicting objects only grows.
    eliminated: BTreeSet<WTuple<V>>,
}

impl<V: Value, E: Evidence<V>> ReadOp<V, E> {
    /// Number of objects with a reply, in either round, satisfying `pred`.
    fn objects_where(&self, pred: impl Fn(&E::Reply) -> bool) -> usize {
        let [first, second] = &self.replies;
        let in_first = first.values().filter(|reply| pred(reply)).count();
        let only_in_second = second
            .iter()
            .filter(|(i, reply)| pred(reply) && !first.get(i).is_some_and(&pred))
            .count();
        in_first + only_in_second
    }

    /// `conflict(i, k)`: `k` reported, in round 1, a live candidate claiming
    /// object `i` gave the writer a timestamp of reader `j` beyond `tsrFR`.
    fn conflict(&self, j: usize, i: usize, k: usize) -> bool {
        self.replies[0].get(&k).is_some_and(|reply| {
            E::nominated(reply).any(|c| {
                self.candidates.contains(c)
                    && c.tsrarray
                        .get(i, j)
                        .is_some_and(|reported| reported > self.tsr_fr)
            })
        })
    }

    /// The first `highCand` — a live candidate with the highest timestamp —
    /// that is `ok`.
    fn highest(&self, ok: impl Fn(&WTuple<V>) -> bool) -> Option<&WTuple<V>> {
        let high = self.candidates.iter().map(WTuple::ts).max()?;
        self.candidates
            .iter()
            .filter(|c| c.ts() == high)
            .find(|c| ok(c))
    }
}

/// The reader automaton `r_j` of the safe (`E =`
/// [`crate::safe::SafeEvidence`]) and regular (`E =`
/// [`crate::regular::RegularEvidence`]) protocols; see the module docs.
///
/// Drive with [`Reader::invoke_read`]; poll [`Reader::outcome`].
#[derive(Clone, Debug)]
pub struct Reader<V: Value, E: Evidence<V>> {
    cfg: StorageConfig,
    objects: Vec<ProcessId>,
    object_index: HashMap<ProcessId, usize>,
    /// This reader's index `j`.
    j: usize,
    /// `tsr'_j`: strictly increases on every round of every READ.
    tsr: u64,
    tuning: ReaderTuning,
    evidence: E,
    op: Option<ReadOp<V, E>>,
    outcomes: HashMap<ReadId, ReadReport<V>>,
    next_id: u64,
    fast_stats: FastPathStats,
}

impl<V: Value, E: Evidence<V>> Reader<V, E> {
    /// A reader with index `j` judging replies by `evidence`, with explicit
    /// ablation knobs (see [`ReaderTuning`]).
    ///
    /// # Panics
    ///
    /// Panics if `objects.len() != cfg.s` or `j >= cfg.readers`.
    pub(crate) fn with_evidence(
        cfg: StorageConfig,
        j: usize,
        objects: Vec<ProcessId>,
        evidence: E,
        tuning: ReaderTuning,
    ) -> Self {
        assert_eq!(objects.len(), cfg.s, "reader must know all S objects");
        assert!(j < cfg.readers, "reader index out of range");
        let object_index = objects.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        Reader {
            cfg,
            objects,
            object_index,
            j,
            tsr: 0,
            tuning,
            evidence,
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
        self.op = Some(ReadOp {
            id,
            tsr_fr: self.tsr,
            phase: Phase::Round1,
            replies: [BTreeMap::new(), BTreeMap::new()],
            candidates: BTreeSet::new(),
            eliminated: BTreeSet::new(),
        });
        self.send_read(ReadRound::R1, ctx); // line 10
        id
    }

    /// Broadcasts `READk⟨tsr'_j⟩` to all objects.
    fn send_read(&self, round: ReadRound, ctx: &mut Context<'_, Msg<V>>) {
        let (since, ack) = self.evidence.request_fields();
        let msg = Msg::Read {
            round,
            reader: self.j,
            tsr: self.tsr,
            since,
            ack,
        };
        ctx.broadcast(self.objects.iter().copied(), msg);
    }

    /// The report of read `id`, if complete.
    pub fn outcome(&self, id: ReadId) -> Option<&ReadReport<V>> {
        self.outcomes.get(&id)
    }

    /// Removes and returns the report of read `id`, if complete — what a
    /// long-running host polls with, so reports (one cloned value each) do
    /// not accumulate. `outcome` leaves them in place for the simulator
    /// harness, which inspects them after the run.
    pub fn take_outcome(&mut self, id: ReadId) -> Option<ReadReport<V>> {
        self.outcomes.remove(&id)
    }

    /// Completed reports not yet taken.
    pub fn retained_outcomes(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether no READ is in progress.
    pub fn is_idle(&self) -> bool {
        self.op.is_none()
    }

    /// Live candidates (`C`), for harness introspection.
    pub fn candidate_count(&self) -> usize {
        self.op.as_ref().map_or(0, |op| op.candidates.len())
    }

    /// Cumulative fast-path hit/fallback counters.
    pub fn fast_stats(&self) -> FastPathStats {
        self.fast_stats
    }

    /// What this reader remembers between READs.
    pub(crate) fn evidence(&self) -> &E {
        &self.evidence
    }

    /// Figure 4 lines 27–28 / Figure 6 `invalid(c)`: drop candidates that
    /// `t + b + 1` objects (or the ablation override) contradict.
    fn eliminate(&mut self) {
        let threshold = self
            .tuning
            .elim_threshold
            .unwrap_or(self.cfg.t_plus_b_plus_1());
        let Some(op) = self.op.as_mut() else { return };
        let doomed: Vec<WTuple<V>> = op
            .candidates
            .iter()
            .filter(|c| op.objects_where(|reply| E::contradicts(reply, c)) >= threshold)
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
        let members: Vec<usize> = op.replies[0].keys().copied().collect();
        if members.len() < self.cfg.quorum() {
            return;
        }
        let ok = !self.tuning.conflict_check
            || conflict_free_of_size(
                &members,
                |i, k| op.conflict(self.j, i, k),
                self.cfg.quorum(),
            )
            .is_some();
        if !ok || self.try_fast_finish() {
            return;
        }
        // Lines 12–13: inc(tsr'_j); send READ2 to all objects. Under
        // skip_round2 (the fast-read mutant) the decision runs on round-1
        // evidence alone.
        self.tsr += 1;
        let op = self.op.as_mut().expect("checked above");
        debug_assert_eq!(self.tsr, op.tsr_fr + 1);
        op.phase = Phase::Round2;
        if !self.tuning.skip_round2 {
            self.send_read(ReadRound::R2, ctx);
        }
    }

    /// The sound one-round fast path (module docs): complete now iff some
    /// highest live candidate has enough exact round-1 confirmations.
    /// Returns whether the read completed.
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
        let confirmed = op.highest(|c| {
            let exact = op.replies[0].values().filter(|reply| E::confirms(reply, c));
            exact.count() >= need
        });
        match confirmed.cloned() {
            Some(cret) => {
                self.fast_stats.hits += 1;
                self.complete(cret, 1, true);
                true
            }
            None => {
                self.fast_stats.fallbacks += 1;
                false
            }
        }
    }

    /// Line 14: complete once the highest live candidate is `safe`, or `C`
    /// drained and the evidence knows what that means.
    fn try_finish(&mut self) {
        let Some(op) = self.op.as_ref() else { return };
        if op.phase != Phase::Round2 {
            return;
        }
        let rounds = if self.tuning.skip_round2 { 1 } else { 2 };
        if op.candidates.is_empty() {
            if let Some(tsval) = self.evidence.on_empty() {
                self.report(tsval, rounds, false);
            }
            return;
        }
        let needed = self.tuning.safe_threshold.unwrap_or(self.cfg.b_plus_1());
        let safe = op.highest(|c| op.objects_where(|reply| E::supports(reply, c)) >= needed);
        if let Some(cret) = safe.cloned() {
            self.complete(cret, rounds, false); // lines 18–19
        }
    }

    /// Returns candidate `cret`.
    fn complete(&mut self, cret: WTuple<V>, rounds: u32, fast: bool) {
        self.evidence.on_return(&cret);
        self.report(cret.tsval, rounds, fast);
    }

    fn report(&mut self, tsval: TsVal<V>, rounds: u32, fast: bool) {
        let op = self.op.take().expect("a READ completes once");
        self.outcomes.insert(
            op.id,
            ReadReport {
                value: tsval.value,
                ts: tsval.ts,
                rounds,
                fast,
            },
        );
    }
}

impl<V: Value, E: Evidence<V>> Automaton<Msg<V>> for Reader<V, E> {
    fn on_message(&mut self, from: ProcessId, msg: Msg<V>, ctx: &mut Context<'_, Msg<V>>) {
        let Some(&obj) = self.object_index.get(&from) else {
            return;
        };
        let Some((round, tsr, reply)) = E::open(msg) else {
            return;
        };
        let Some(op) = self.op.as_mut() else { return };
        // Accept the first ACK per object and round that echoes this
        // round's reader timestamp: stale or replayed ACKs fail the echo
        // check because tsr'_j strictly increases. A correct object only
        // answers round 2 after receiving READ2, so also requiring
        // phase == Round2 loses nothing from correct objects and blunts
        // Byzantine guessing of tsrFR + 1.
        let (rnd, expected) = match round {
            ReadRound::R1 => (0, op.tsr_fr),
            ReadRound::R2 if op.phase == Phase::Round2 => (1, op.tsr_fr + 1),
            ReadRound::R2 => return,
        };
        if tsr != expected || op.replies[rnd].contains_key(&obj) {
            return;
        }
        if round == ReadRound::R1 {
            for w in E::nominated(&reply) {
                if !op.eliminated.contains(w) {
                    op.candidates.insert(w.clone());
                }
            }
        }
        op.replies[rnd].insert(obj, reply);

        self.eliminate();
        self.try_advance(ctx);
        self.try_finish();
    }

    fn label(&self) -> &'static str {
        E::LABEL
    }
}

/// The skeleton's own tests, written once and run over both evidences;
/// what only one figure has (pw-only support, same-timestamp tuples, §5.1's
/// `since`/cache, `acked` monotonicity, …) is tested next to its evidence.
#[cfg(test)]
pub(crate) mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::regular::RegularEvidence;
    use crate::safe::SafeEvidence;
    use crate::types::TsrMatrix;

    /// How the generic tests speak one protocol's dialect. The register
    /// they talk about has seen writes `1..=ts`, write `k` storing `10k`.
    pub(crate) trait Fixture: Evidence<u64> {
        fn evidence() -> Self;
        /// An honest object's `READk_ACK` after writes `1..=ts` (`ts = 0`:
        /// the initial state).
        fn ack(round: ReadRound, tsr: u64, ts: u64) -> Msg<u64>;
        /// A liar's `READk_ACK`: the honest state after `honest` writes,
        /// plus the tuple `w`.
        fn forged_ack(round: ReadRound, tsr: u64, honest: u64, w: WTuple<u64>) -> Msg<u64>;
    }

    /// S = 4 = 2t + 2b, t = b = 1: quorum = 3, Proposition 1 applies.
    fn optimal<E: Fixture>() -> Reader<u64, E> {
        tuned(StorageConfig::optimal(1, 1, 1), ReaderTuning::default())
    }

    /// S = 5 = 2t + 2b + 1, t = b = 1: quorum = 4, fast quorum = 3.
    fn fast<E: Fixture>(tuning: ReaderTuning) -> Reader<u64, E> {
        tuned(StorageConfig::fast(1, 1, 1), tuning)
    }

    fn tuned<E: Fixture>(cfg: StorageConfig, tuning: ReaderTuning) -> Reader<u64, E> {
        let objects = (0..cfg.s).map(ProcessId).collect();
        Reader::with_evidence(cfg, 0, objects, E::evidence(), tuning)
    }

    type Sent = Vec<(ProcessId, Msg<u64>)>;

    pub(crate) fn invoke<E: Evidence<u64>>(r: &mut Reader<u64, E>) -> (ReadId, Sent) {
        let mut out = Vec::new();
        let mut ctx = Context::new(ProcessId(9), &mut out);
        let id = r.invoke_read(&mut ctx);
        (id, out)
    }

    pub(crate) fn deliver<E: Evidence<u64>>(
        r: &mut Reader<u64, E>,
        from: usize,
        msg: Msg<u64>,
    ) -> Sent {
        let mut out = Vec::new();
        let mut ctx = Context::new(ProcessId(9), &mut out);
        r.on_message(ProcessId(from), msg, &mut ctx);
        out
    }

    fn tsr_of(sent: &Sent) -> u64 {
        match sent[0].1 {
            Msg::Read { tsr, .. } => tsr,
            _ => unreachable!("readers only send READk"),
        }
    }

    /// A phantom write `⟨ts, 666⟩` whose matrix claims object `accused`
    /// reported reader timestamp 50 to the writer.
    fn phantom(ts: u64, accused: Option<usize>) -> WTuple<u64> {
        let mut matrix = TsrMatrix::empty();
        if let Some(i) = accused {
            matrix.set_row(i, BTreeMap::from([(0usize, 50u64)]));
        }
        WTuple::new(TsVal::new(Timestamp(ts), 666), matrix)
    }

    fn fresh_system_returns_bottom<E: Fixture>() {
        let mut r = optimal::<E>();
        let (id, _) = invoke(&mut r);
        for i in 0..3 {
            deliver(&mut r, i, E::ack(ReadRound::R1, 1, 0));
        }
        let got = r.outcome(id).expect("complete");
        assert_eq!(got.value, None, "initial value ⊥");
        assert_eq!(got.ts, Timestamp::ZERO);
    }

    fn duplicate_wrong_echo_and_stale_acks_are_ignored<E: Fixture>() {
        let mut r = optimal::<E>();
        let (id1, out1) = invoke(&mut r);
        for _ in 0..4 {
            deliver(&mut r, 0, E::ack(ReadRound::R1, 1, 1));
        }
        assert!(
            r.outcome(id1).is_none(),
            "one object cannot form a quorum by repeating"
        );
        for i in 1..4 {
            deliver(&mut r, i, E::ack(ReadRound::R1, 77, 1));
        }
        assert!(r.outcome(id1).is_none(), "wrong echo ignored");
        for i in 1..3 {
            deliver(&mut r, i, E::ack(ReadRound::R1, 1, 1));
        }
        assert_eq!(r.outcome(id1).expect("complete").value, Some(10));

        // Replays of the first READ's ACKs mean nothing to the second.
        let (id2, _) = invoke(&mut r);
        for i in 0..4 {
            deliver(&mut r, i, E::ack(ReadRound::R1, tsr_of(&out1), 1));
            deliver(&mut r, i, E::ack(ReadRound::R2, tsr_of(&out1) + 1, 1));
        }
        assert!(r.outcome(id2).is_none(), "stale echoes ignored");
    }

    fn round2_acks_before_round2_are_ignored<E: Fixture>() {
        let mut r = optimal::<E>();
        let (id, _) = invoke(&mut r);
        // Byzantine objects guess tsrFR + 1 and push round-2 ACKs early.
        for i in 0..3 {
            deliver(&mut r, i, E::ack(ReadRound::R2, 2, 1));
        }
        assert!(
            r.outcome(id).is_none(),
            "round-2 ACKs must not bypass round 1"
        );
        assert_eq!(r.candidate_count(), 0, "nor nominate candidates");
    }

    fn rejects_concurrent_reads<E: Fixture>() {
        let mut r = optimal::<E>();
        invoke(&mut r);
        invoke(&mut r);
    }

    fn sequential_reads_use_fresh_timestamps<E: Fixture>() {
        let mut r = optimal::<E>();
        let (id1, out1) = invoke(&mut r);
        let first_tsr = tsr_of(&out1);
        for i in 0..3 {
            deliver(&mut r, i, E::ack(ReadRound::R1, first_tsr, 1));
        }
        assert!(r.outcome(id1).is_some());
        let (id2, out2) = invoke(&mut r);
        assert_ne!(id1, id2);
        assert!(
            tsr_of(&out2) > first_tsr + 1,
            "tsr must strictly increase across ops"
        );
    }

    fn forged_high_candidate_blocks_until_eliminated<E: Fixture>() {
        let mut r = optimal::<E>();
        let (id, _) = invoke(&mut r);
        // Object 3 is Byzantine: forges ts 99. Objects 0 and 1 honestly
        // report write 1: quorum {3,0,1} reached, round 2 opens.
        let forged = E::forged_ack(ReadRound::R1, 1, 1, phantom(99, None));
        deliver(&mut r, 3, forged);
        deliver(&mut r, 0, E::ack(ReadRound::R1, 1, 1));
        deliver(&mut r, 1, E::ack(ReadRound::R1, 1, 1));
        // The forged candidate is high but unsafe (1 supporter < b+1 = 2);
        // the honest candidate is safe but not high: the read must block.
        assert!(r.outcome(id).is_none());
        // Honest round-2 replies repeat the honest state; the forgery's
        // contradictors stay at {0, 1} — still blocked.
        deliver(&mut r, 0, E::ack(ReadRound::R2, 2, 1));
        deliver(&mut r, 1, E::ack(ReadRound::R2, 2, 1));
        assert!(r.outcome(id).is_none());
        // Object 2's (late round-1) honest reply is the t+b+1 = 3rd object
        // answering without the forged tuple: elimination fires and the
        // honest candidate becomes the high safe candidate.
        deliver(&mut r, 2, E::ack(ReadRound::R1, 1, 1));
        let got = r.outcome(id).expect("forged candidate eliminated");
        assert_eq!(got.value, Some(10), "falls back to the honest candidate");
        assert_eq!(got.rounds, 2);
    }

    fn conflicting_accusation_excludes_forger_from_quorum<E: Fixture>() {
        let mut r = optimal::<E>();
        let (id, _) = invoke(&mut r);
        // Byzantine object 3 forges a candidate accusing object 0 of having
        // reported reader timestamp 50 > tsrFR = 1.
        let forged = E::forged_ack(ReadRound::R1, 1, 0, phantom(9, Some(0)));
        deliver(&mut r, 3, forged);
        deliver(&mut r, 0, E::ack(ReadRound::R1, 1, 0));
        deliver(&mut r, 1, E::ack(ReadRound::R1, 1, 0));
        // Responders = {0, 1, 3} with conflict(0, 3): the largest
        // conflict-free subset is {0, 1} or {1, 3}, both < quorum = 3 — the
        // read must NOT advance to round 2 yet.
        assert!(r.outcome(id).is_none());
        assert!(!r.is_idle());
        // Object 2 answers: the forgery reaches t+b+1 = 3 contradictors and
        // dies, the conflict evaporates, round 2 opens, and ⊥ (supported
        // by 3 ≥ b+1) is safe + high.
        let sent = deliver(&mut r, 2, E::ack(ReadRound::R1, 1, 0));
        assert!(!sent.is_empty(), "READ2 must have been broadcast");
        assert_eq!(r.outcome(id).expect("complete").value, None);
    }

    fn fast_path_completes_in_one_round_when_quorum_agrees<E: Fixture>() {
        let mut r = fast::<E>(ReaderTuning::default());
        let (id, out) = invoke(&mut r);
        assert_eq!(out.len(), 5, "READ1 to all");
        for i in 0..3 {
            assert!(deliver(&mut r, i, E::ack(ReadRound::R1, 1, 2)).is_empty());
            assert!(r.outcome(id).is_none());
        }
        // Fourth matching reply closes the quorum with 4 >= 3 exact
        // confirmations: the read completes with NO second round.
        let sent = deliver(&mut r, 3, E::ack(ReadRound::R1, 1, 2));
        assert!(sent.is_empty(), "fast path must not broadcast READ2");
        let got = r.outcome(id).expect("fast read complete");
        assert_eq!((got.value, got.ts), (Some(20), Timestamp(2)));
        assert_eq!(got.rounds, 1);
        assert!(got.fast);
        let stats = r.fast_stats();
        assert_eq!((stats.hits, stats.fallbacks), (1, 0));
    }

    fn fast_path_falls_back_without_restarting_round1<E: Fixture>() {
        let mut r = fast::<E>(ReaderTuning::default());
        let (id, _) = invoke(&mut r);
        // Only 2 of the 4 quorum replies confirm write 1 (the others
        // missed it, e.g. the write is still in flight to them): 2 < 3.
        deliver(&mut r, 0, E::ack(ReadRound::R1, 1, 1));
        deliver(&mut r, 1, E::ack(ReadRound::R1, 1, 1));
        deliver(&mut r, 2, E::ack(ReadRound::R1, 1, 0));
        let sent = deliver(&mut r, 3, E::ack(ReadRound::R1, 1, 0));
        assert_eq!(sent.len(), 5, "fallback broadcasts READ2 to all");
        let stats = r.fast_stats();
        assert_eq!((stats.hits, stats.fallbacks), (0, 1));
        // The two-round machinery finishes on the reused round-1 evidence
        // (b+1 = 2 supporters already satisfy line 14 at round-2 entry).
        let got = r.outcome(id).expect("fallback read complete");
        assert_eq!(got.value, Some(10));
        assert_eq!(got.rounds, 2);
        assert!(!got.fast);
    }

    fn fast_path_refuses_at_the_proposition1_boundary<E: Fixture>() {
        // S = 4 = 2t + 2b: Proposition 1 applies, the fast path must not
        // engage even on a unanimous round-1 quorum.
        let mut r = optimal::<E>();
        let (id, out) = invoke(&mut r);
        assert_eq!(out.len(), 4, "READ1 to all");
        for i in 0..2 {
            assert!(deliver(&mut r, i, E::ack(ReadRound::R1, 1, 1)).is_empty());
            assert!(r.outcome(id).is_none());
        }
        let read2 = deliver(&mut r, 2, E::ack(ReadRound::R1, 1, 1));
        assert_eq!(read2.len(), 4, "READ2 must go out at S <= 2t+2b");
        assert!(matches!(
            read2[0].1,
            Msg::Read {
                round: ReadRound::R2,
                tsr: 2,
                ..
            }
        ));
        // b+1 = 2 round-1 replies already support the candidate, so the
        // wait-until of line 14 is satisfied at round-2 entry.
        let got = r.outcome(id).expect("complete");
        assert_eq!((got.value, got.ts), (Some(10), Timestamp(1)));
        assert_eq!(got.rounds, 2);
        assert!(!got.fast);
        assert_eq!(r.fast_stats(), FastPathStats::default(), "never eligible");
        assert!(r.is_idle());
    }

    fn forged_high_candidate_cannot_fast_fire<E: Fixture>() {
        // A Byzantine object forges the highest candidate. At quorum close
        // the forgery has 1 < 3 confirmations and was already eliminated
        // (t+b+1 = 3 objects answered without it), so the genuine write —
        // high among the live candidates, 3 >= 3 exact confirmations —
        // fast-fires instead: on the RIGHT value.
        let mut r = fast::<E>(ReaderTuning::default());
        let (id, _) = invoke(&mut r);
        let forged = E::forged_ack(ReadRound::R1, 1, 1, phantom(99, None));
        deliver(&mut r, 4, forged);
        for i in 0..3 {
            deliver(&mut r, i, E::ack(ReadRound::R1, 1, 1));
        }
        let got = r.outcome(id).expect("complete");
        assert_eq!(got.value, Some(10), "never the forged value");
        assert_eq!(got.ts, Timestamp(1));
        assert_eq!(got.rounds, 1);
        assert!(got.fast);
    }

    /// Four agreeing round-1 replies, then two round-2 replies, on the
    /// fast sizing under `tuning`; returns the report, what the quorum
    /// close sent, and the counters.
    fn agreeing_run<E: Fixture>(tuning: ReaderTuning) -> (ReadReport<u64>, Sent, FastPathStats) {
        let mut r = fast::<E>(tuning);
        let (id, _) = invoke(&mut r);
        for i in 0..3 {
            deliver(&mut r, i, E::ack(ReadRound::R1, 1, 1));
        }
        let sent = deliver(&mut r, 3, E::ack(ReadRound::R1, 1, 1));
        for i in 0..2 {
            deliver(&mut r, i, E::ack(ReadRound::R2, 2, 1));
        }
        let got = r.outcome(id).expect("complete").clone();
        (got, sent, r.fast_stats())
    }

    fn fast_path_disabled_by_tuning_takes_two_rounds<E: Fixture>() {
        let (got, sent, stats) = agreeing_run::<E>(ReaderTuning {
            fast_path: false,
            ..ReaderTuning::default()
        });
        assert_eq!(sent.len(), 5, "READ2 goes out with the fast path off");
        assert_eq!((got.rounds, got.fast), (2, false));
        assert_eq!(stats, FastPathStats::default());
    }

    fn unreachable_fast_threshold_always_falls_back<E: Fixture>() {
        let (got, sent, stats) = agreeing_run::<E>(ReaderTuning {
            fast_threshold: Some(usize::MAX),
            ..ReaderTuning::default()
        });
        assert_eq!(sent.len(), 5);
        assert_eq!((stats.hits, stats.fallbacks), (0, 1));
        assert_eq!((got.rounds, got.fast), (2, false), "the two-round path");
    }

    fn skip_round2_reports_one_unsound_round<E: Fixture>() {
        // The Proposition 1 mutant decides on round-1 evidence and sends no
        // READ2; its single round is not the sound fast path's.
        let (got, sent, stats) = agreeing_run::<E>(ReaderTuning {
            skip_round2: true,
            fast_path: false,
            ..ReaderTuning::default()
        });
        assert!(sent.is_empty(), "no READ2");
        assert_eq!(got.value, Some(10));
        assert_eq!((got.rounds, got.fast), (1, false));
        assert_eq!(stats, FastPathStats::default());
    }

    macro_rules! over_both_evidences {
        ($($(#[$attr:meta])* $name:ident),* $(,)?) => {
            mod safe {
                $(#[test] $(#[$attr])* fn $name() { super::$name::<super::SafeEvidence>() })*
            }
            mod regular {
                $(#[test] $(#[$attr])* fn $name() { super::$name::<super::RegularEvidence<u64>>() })*
            }
        };
    }

    over_both_evidences! {
        fresh_system_returns_bottom,
        duplicate_wrong_echo_and_stale_acks_are_ignored,
        round2_acks_before_round2_are_ignored,
        #[should_panic(expected = "one READ at a time")]
        rejects_concurrent_reads,
        sequential_reads_use_fresh_timestamps,
        forged_high_candidate_blocks_until_eliminated,
        conflicting_accusation_excludes_forger_from_quorum,
        fast_path_completes_in_one_round_when_quorum_agrees,
        fast_path_falls_back_without_restarting_round1,
        fast_path_refuses_at_the_proposition1_boundary,
        forged_high_candidate_cannot_fast_fire,
        fast_path_disabled_by_tuning_takes_two_rounds,
        unreachable_fast_threshold_always_falls_back,
        skip_round2_reports_one_unsound_round,
    }
}
