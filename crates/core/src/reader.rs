//! The one reader behind both of the paper's protocols: two rounds, and —
//! where a group's spec asks for atomic reads — a write-back phase after
//! them.
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
//! or forces `s_i`'s round-2 reply to corroborate the candidate. Two
//! round-trips are a READ's worst case at optimal resilience — proved
//! necessary by Proposition 1, achieved by Proposition 2 — and one is
//! enough when round 1 already proves the answer (below).
//!
//! # Figure lines → skeleton steps → evidence methods
//!
//! | Figure 4 | Figure 6 | skeleton step | evidence method |
//! |---|---|---|---|
//! | line 1 `conflict(i,k)` | line 1 | `Heard::accused_by` | [`Evidence::nominated`] (round-1 tuples of `k`) |
//! | line 2 `RespondedWO(c)` | line 2 `invalid(c)` | `Reader::hear` (`contradicted_by`) | [`Evidence::contradicts`] |
//! | line 3 `safe(c)` | line 3 | `Reader::try_return` (`supported_by`) | [`Evidence::supports`] |
//! | line 4 `highCand(c)` | line 4 | `Heard::highest` | — |
//! | lines 7–10 invoke, `READ1` | invoke | [`Reader::invoke_read`] | [`Evidence::request_fields`] (`since`, `ack`) |
//! | line 11 conflict-free quorum | line 11 | `Reader::try_advance` | — |
//! | lines 12–13 `READ2` | same | `Reader::try_advance` | [`Evidence::request_fields`] |
//! | line 14 wait | same | `Reader::try_finish` → `Reader::try_return` | — |
//! | lines 15–16 `C = ∅` | §5.1 cache | `Reader::try_finish` | [`Evidence::on_empty`] |
//! | lines 18–19 return | return | `Reader::try_return` → `Reader::complete` | [`Evidence::on_return`] |
//! | lines 21–24 `READ1_ACK` | lines 17–21 | `on_message` → `Reader::hear` | [`Evidence::open`], [`Evidence::nominated`] |
//! | lines 25–26 `READ2_ACK` | lines 22–25 | `on_message` → `Reader::hear` | [`Evidence::open`] |
//! | lines 27–28 eliminate | `invalid` | `Reader::hear` | [`Evidence::contradicts`] |
//! | — (extension) | — | round-1 close: `Reader::try_advance` → `Reader::try_return` (`confirmed_by`) | [`Evidence::confirms`] |
//! | — | — (extension) | `Reader::complete` → `Phase::WriteBack` → `Reader::on_write_back_ack` | [`Evidence::writes_back`] |
//!
//! # How the evidence is kept: each reply judged once, one bit per object
//!
//! Every count in the figures is a count of *objects* over `Resp1 ∪ Resp2`:
//! `s_i` counts toward `RespondedWO(c)` or `safe(c)` if its round-1 reply or
//! its round-2 reply says so. Each nominated tuple therefore carries one
//! `u64` per predicate, bit `i` set once some accepted reply of `s_i`
//! satisfies it: OR-ing the two rounds into one bit *is* the figures'
//! count, and elimination and `safe(c)` are popcounts. `confirmed_by` (the
//! round-1 return's exact count) takes round-1 replies only, `nominated_by`
//! records which round-1 replies nominated the tuple, and `accuses` — the
//! objects `i` with `tsrarray[i][j] > tsrFR` — depends only on the tuple,
//! `j` and `tsrFR`, so it is computed once, at nomination. Line 11's
//! `conflict(i, k)` is bit `i` of `accused_by[k]`, the OR of `accuses` over
//! the *live* candidates `k` nominated, taken when line 11 is evaluated.
//!
//! Judging each (accepted reply, candidate) pair once is exact, because
//! nothing a judgement rests on changes afterwards: an accepted reply is
//! never replaced (the first per object and round counts), a predicate is
//! a function of the reply and the tuple alone, and elimination is
//! permanent (the contradicting objects only grow), so an eliminated tuple
//! needs no further judging and a re-nomination is ignored. A new reply is
//! judged against the live candidates when it arrives, and a newly
//! nominated tuple against every reply accepted so far.
//!
//! # Returning on round 1, and why it is sound
//!
//! When the conflict-free round-1 quorum closes (line 11), the reader
//! returns a highest live candidate at once, and sends no READ2, if round 1
//! *exactly* confirmed it ([`Evidence::confirms`], kept in `confirmed_by`:
//! the reply carries the candidate itself, as `w` or as its `pw` pair) from
//! `need` objects, `need` being `safe(c)`'s threshold: `b + 1`, or the
//! ablation override. Otherwise READ2 goes out and the READ goes on as in
//! the figures, reusing every reply it holds (no restart). The rule is
//! checked once per READ, at the close. Its soundness is a reduction to the
//! figures' reader, which at that same step broadcasts READ2 and evaluates
//! line 14 on the replies it holds, round 1's alone:
//!
//! - *The same answer.* Exact confirmation implies [`Evidence::supports`]
//!   for both evidences (for Figure 6 they are one predicate), so the
//!   returned tuple is a highest live candidate with `need` supporters:
//!   one the figures' reader may return at that same instant.
//! - *The missing READ2* only leaves the objects holding a lower `tsr` for
//!   this reader. Line 11 flags a matrix that claims a reader timestamp not
//!   yet issued, so lower object state makes that check stricter against
//!   liars, and it never accuses an honest object.
//! - *The missing `ack`.* The reader-ack that READ2 would have carried
//!   (§5.1's GC) arrives with the next READ's READ1: GC lags one READ and
//!   never truncates more.
//! - *Proposition 1 still bites.* In Figure 1's shared view `v1` has only
//!   `b` supporters, so the rule does not fire, and the reader sends READ2
//!   exactly where the paper's lower bound says a READ must.
//!
//! Whether round 1 *guarantees* the return is a matter of sizing. At
//! [`StorageConfig::guarantees_one_round_reads`] (`S ≥ 2t + 2b + 1`) every
//! READ not concurrent with a write returns on round 1: the last completed
//! write is held by at least `S − t − b` correct objects, so by at least
//! `S − 2t − b ≥ b + 1` in any round-1 quorum, and the at least
//! `S − t − b ≥ t + b + 1` correct objects of that quorum contradict any
//! forged higher tuple, which is therefore dead at the close. Below that
//! sizing a forger keeps its tuple alive through round 1, and the READ
//! needs round 2. [`ReaderTuning::FIGURES`], the reader of the paper's
//! tables, arms the rule only at the guaranteed sizing, and so sends READ2
//! on every READ below it, as Figures 4 and 6 do.
//!
//! # The write-back phase: atomic reads in one more round
//!
//! The paper's reads take two rounds *because* they are only regular: two
//! reads concurrent with a write may return new, then old. Where
//! [`Evidence::writes_back`] says so ([`crate::ProtocolKind::Atomic`]: the
//! regular protocol, whose objects answer [`Msg::WriteBack`]), a READ that
//! selected `c` first plants `c` at `S − t` objects — the ABD write-back —
//! and only then returns it: `rounds + 1`, never `fast`. At least
//! `S − t − b` correct objects then hold `c`, at most `t + b` objects do
//! not — one short of what elimination takes — so every later READ keeps
//! `c` as a candidate and returns `c.ts` or newer. `⊥` is every correct
//! object's initial state and a §5.1 cache return is a pair this reader
//! already planted; both skip the phase. The object's side of the bargain is
//! in [`crate::regular::RegularObject`]: a write-back is not a write (it
//! never advances `ts_i`, never replaces a `w`), it is acknowledged however
//! many writes have overtaken it, and a `PW` it overtook leaves it in place.
//! (The count presumes `c` is the writer's own tuple. A Byzantine object
//! that promotes a `pw` to a `w` of its own making can get *that* selected
//! while the write is in flight, and until the writer's `W` lands the
//! objects hold two tuples for one write. No catalogue attacker does it and
//! no sampled schedule reaches it — a case for the exhaustive explorer.)
//!
//! What travels is the **selected tuple itself**, matrix included — which
//! the skeleton holds at the moment it decides, and a wrapper that sees only
//! the [`ReadReport`] does not. `invalid(c)` compares whole tuples: an
//! object that stored a reconstruction `⟨c.tsval, ∅⟩` contradicts the
//! genuine `c` for every later READ, the objects that hold the genuine `c`
//! contradict the reconstruction, and between them both versions can reach
//! `t + b + 1` contradictors — the later READ then falls through to an
//! *older* write and loses regularity, not merely atomicity. The tuple as an
//! object reported it is the one version no honest history contradicts.

use std::collections::HashMap;
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
    /// Returned on round-1 evidence by a *sound* rule — the paper
    /// protocols' round-1 return (module docs), or a baseline whose read is
    /// single-round by design — and sent no READ2. Mutants that skip round
    /// 2 unsoundly report `rounds == 1` with `fast == false` wherever the
    /// round-1 return did not fire, and an Atomic read whose round-1
    /// selection was written back reports `rounds == 2` with `fast ==
    /// false`. The harnesses' fast-path counters are this flag, counted by
    /// [`crate::metrics::FastPathStats::count`].
    pub fast: bool,
}

/// Ablation knobs of the reader, shared by both protocols.
///
/// The default is Figures 4 and 6 with the round-1 return (module docs):
/// a READ sends READ2 only when round 1 does not already prove its answer.
/// [`ReaderTuning::FIGURES`] is the figures' reader the experiment tables
/// run: it sends READ2 on every READ below `S = 2t + 2b + 1`. Each other
/// knob removes or weakens one load-bearing mechanism; the mutation
/// experiments show the consistency checkers catch the resulting
/// violations, and the `ablation` experiment shows what each mechanism
/// buys. **Never deviate from [`ReaderTuning::default`] or
/// [`ReaderTuning::FIGURES`] in production use.**
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReaderTuning {
    /// Supporters required by `safe(c)`, and exact round-1 confirmations
    /// required by the round-1 return; `None` = the paper's `b + 1`.
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
    /// be confused with the sound round-1 return, which demands exact
    /// confirmations and otherwise falls back to the full second round.
    pub skip_round2: bool,
    /// The figures' reader: arm the round-1 return only at
    /// [`StorageConfig::guarantees_one_round_reads`], so every READ below
    /// that sizing sends READ2 as Figures 4 and 6 do.
    pub figures: bool,
}

impl ReaderTuning {
    /// The reader of Figures 4 and 6, which the paper's tables run.
    pub const FIGURES: ReaderTuning = ReaderTuning {
        safe_threshold: None,
        elim_threshold: None,
        conflict_check: true,
        skip_round2: false,
        figures: true,
    };
}

impl Default for ReaderTuning {
    fn default() -> Self {
        ReaderTuning {
            safe_threshold: None,
            elim_threshold: None,
            conflict_check: true,
            skip_round2: false,
            figures: false,
        }
    }
}

/// What distinguishes Figure 4 from Figure 6: the shape of one object's
/// `READk_ACK` and how that reply bears on a candidate `c`.
///
/// The [`Reader`] keeps every accepted reply, per round and per object, and
/// judges candidates by counting the *objects* with a reply (in either
/// round) that satisfies one of the predicates below. It asks each
/// predicate once per reply and candidate and keeps the answer (module
/// docs), so a predicate must depend on the reply and the candidate alone.
/// The implementor also carries whatever a protocol remembers between
/// READs (§5.1's cache, the history-GC acknowledgement).
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

    /// Whether a READ writes the tuple it selected back to `S − t` objects
    /// before returning it (the atomic extension; module docs). Only a
    /// protocol whose objects answer [`Msg::WriteBack`] may say yes.
    fn writes_back(&self) -> bool {
        false
    }
}

#[derive(Clone, PartialEq, Eq, Debug)]
enum Phase<V> {
    Round1,
    Round2,
    /// The READ selected `cret` in `rounds` round-trips and is planting it
    /// at `S − t` objects before returning it (the atomic extension).
    WriteBack {
        cret: WTuple<V>,
        rounds: u32,
        /// The objects that acknowledged the write-back, one bit each.
        acks: u64,
    },
}

/// The READ in progress.
#[derive(Clone, Debug)]
struct ReadOp<V> {
    id: ReadId,
    /// `tsrFR`: the reader timestamp of the first round (Figure 4 line 9).
    tsr_fr: u64,
    phase: Phase<V>,
}

/// One nominated tuple and what the accepted replies say about it, one bit
/// per object. Each accepted reply is judged against a tuple once: when it
/// arrives, if the tuple is live, or when the tuple is first nominated.
#[derive(Clone, Debug)]
struct Candidate<V> {
    w: WTuple<V>,
    /// Eliminated (Figure 4 lines 27–28): permanent, because the set of
    /// contradicting objects only grows, so a re-nomination is ignored.
    dead: bool,
    /// Objects with a reply, in either round, that contradicts `w`.
    contradicted_by: u64,
    /// Objects with a reply, in either round, that supports `w`.
    supported_by: u64,
    /// Objects whose round-1 reply confirms `w` exactly (the round-1
    /// return).
    confirmed_by: u64,
    /// Objects whose round-1 reply nominated `w`.
    nominated_by: u64,
    /// Objects `i` with `w.tsrarray[i][j] > tsrFR`: whom `w` accuses of
    /// having seen this READ before it began.
    accuses: u64,
}

impl<V: Value> Candidate<V> {
    /// `w`, first nominated by object `by`'s round-1 reply.
    fn new(w: WTuple<V>, by: usize, accuses: u64) -> Self {
        Candidate {
            w,
            dead: false,
            contradicted_by: 0,
            supported_by: 0,
            confirmed_by: 0,
            nominated_by: 1 << by,
            accuses,
        }
    }

    /// Records what object `obj`'s `reply` in round `rnd` (0 or 1) says
    /// about `w`: only a round-1 reply can confirm it.
    fn judge<E: Evidence<V>>(&mut self, rnd: usize, obj: usize, reply: &E::Reply) {
        let bit = 1 << obj;
        if self.contradicted_by & bit == 0 && E::contradicts(reply, &self.w) {
            self.contradicted_by |= bit;
        }
        if self.supported_by & bit == 0 && E::supports(reply, &self.w) {
            self.supported_by |= bit;
        }
        if rnd == 0 && E::confirms(reply, &self.w) {
            self.confirmed_by |= bit;
        }
    }
}

/// What the current READ has heard. Emptied when a READ returns and reused
/// by the next, so only a reader's first READ allocates its reply slots,
/// and a READ nominating at most `S` tuples allocates no candidate slot.
#[derive(Clone, Debug)]
struct Heard<V: Value, E: Evidence<V>> {
    /// Accepted replies per round, indexed by object — the first per object
    /// counts, equivocating repeats are ignored. Round 1's `Some` slots are
    /// `Resp1`.
    replies: [Vec<Option<E::Reply>>; 2],
    /// Every tuple this READ nominated, in `WTuple` order; the live ones
    /// are the candidate set `C`.
    candidates: Vec<Candidate<V>>,
}

impl<V: Value, E: Evidence<V>> Heard<V, E> {
    fn live(&self) -> impl DoubleEndedIterator<Item = &Candidate<V>> {
        self.candidates.iter().filter(|c| !c.dead)
    }

    /// The first `highCand` — a live candidate with the highest timestamp —
    /// that is `ok`. In `WTuple` order the last live one is a `highCand`.
    fn highest(&self, ok: impl Fn(&Candidate<V>) -> bool) -> Option<&WTuple<V>> {
        let high = self.live().next_back()?.w.ts();
        let c = self.live().filter(|c| c.w.ts() == high).find(|c| ok(c))?;
        Some(&c.w)
    }

    /// `accused_by[k]`: the objects some live candidate of `k`'s round-1
    /// reply accuses — `conflict(i, k)` iff bit `i` of entry `k` is set.
    fn accused_by(&self) -> [u64; 64] {
        let mut accused_by = [0; 64];
        for c in self.live() {
            let mut by = c.nominated_by;
            while by != 0 {
                accused_by[by.trailing_zeros() as usize] |= c.accuses;
                by &= by - 1;
            }
        }
        accused_by
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
    /// This reader's index `j`.
    j: usize,
    /// `tsr'_j`: strictly increases on every round of every READ.
    tsr: u64,
    tuning: ReaderTuning,
    evidence: E,
    op: Option<ReadOp<V>>,
    heard: Heard<V, E>,
    outcomes: HashMap<ReadId, ReadReport<V>>,
    next_id: u64,
}

impl<V: Value, E: Evidence<V>> Reader<V, E> {
    /// A reader with index `j` judging replies by `evidence`, with explicit
    /// ablation knobs (see [`ReaderTuning`]).
    ///
    /// # Panics
    ///
    /// Panics if `objects.len() != cfg.s`, `cfg.s > 64` or
    /// `j >= cfg.readers`.
    pub(crate) fn with_evidence(
        cfg: StorageConfig,
        j: usize,
        objects: Vec<ProcessId>,
        evidence: E,
        tuning: ReaderTuning,
    ) -> Self {
        assert_eq!(objects.len(), cfg.s, "reader must know all S objects");
        assert!(cfg.s <= 64, "one bit per object: at most 64 objects");
        assert!(j < cfg.readers, "reader index out of range");
        Reader {
            cfg,
            objects,
            j,
            tsr: 0,
            tuning,
            evidence,
            op: None,
            heard: Heard {
                replies: [Vec::new(), Vec::new()],
                candidates: Vec::new(),
            },
            outcomes: HashMap::new(),
            next_id: 0,
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
        for slots in &mut self.heard.replies {
            slots.resize(self.cfg.s, None); // once: a returned READ leaves S empty slots
        }
        self.op = Some(ReadOp {
            id,
            tsr_fr: self.tsr,
            phase: Phase::Round1,
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
        self.heard.live().count()
    }

    /// What this reader remembers between READs.
    pub(crate) fn evidence(&self) -> &E {
        &self.evidence
    }

    /// Stores object `obj`'s accepted reply in round `rnd` (0 or 1) and
    /// judges each pair of it and a live candidate once: the new reply
    /// against the live candidates, then (round 1) each tuple it newly
    /// nominates into `C` against every reply accepted so far. A candidate
    /// that `t + b + 1` objects (or the ablation override) contradict is
    /// eliminated (Figure 4 lines 27–28 / Figure 6 `invalid(c)`).
    fn hear(&mut self, rnd: usize, obj: usize, reply: E::Reply, tsr_fr: u64) {
        let threshold = self
            .tuning
            .elim_threshold
            .unwrap_or(self.cfg.t_plus_b_plus_1());
        let Heard {
            replies,
            candidates,
        } = &mut self.heard;
        let settle = |c: &mut Candidate<V>| {
            c.dead = c.contradicted_by.count_ones() as usize >= threshold;
        };
        for c in candidates.iter_mut().filter(|c| !c.dead) {
            c.judge::<E>(rnd, obj, &reply);
            settle(c);
        }
        if rnd == 0 {
            // A tuple first nominated now meets every reply accepted so far.
            let nominee = |w: &WTuple<V>| {
                let accuses = (0..self.cfg.s)
                    .filter(|&i| w.tsrarray.get(i, self.j).is_some_and(|t| t > tsr_fr))
                    .fold(0, |mask, i| mask | 1 << i);
                let mut c = Candidate::new(w.clone(), obj, accuses);
                for (round, slots) in replies.iter().enumerate() {
                    for (o, stored) in slots.iter().enumerate() {
                        if let Some(stored) = stored {
                            c.judge::<E>(round, o, stored);
                        }
                    }
                }
                c.judge::<E>(0, obj, &reply);
                settle(&mut c);
                c
            };
            for w in E::nominated(&reply) {
                match candidates.binary_search_by(|c| c.w.cmp(w)) {
                    Ok(at) => candidates[at].nominated_by |= 1 << obj,
                    Err(at) => candidates.insert(at, nominee(w)),
                }
            }
        }
        replies[rnd][obj] = Some(reply);
    }

    /// Line 11: advance to round 2 once a conflict-free quorum answered.
    fn try_advance(&mut self, ctx: &mut Context<'_, Msg<V>>) {
        if self.op.as_ref().is_none_or(|op| op.phase != Phase::Round1) {
            return;
        }
        let resp1 = &self.heard.replies[0];
        if resp1.iter().flatten().count() < self.cfg.quorum() {
            return;
        }
        let members = (0..resp1.len()).filter(|&i| resp1[i].is_some());
        let ok = !self.tuning.conflict_check || {
            let accused_by = self.heard.accused_by();
            let conflict = |i, k| accused_by[k] >> i & 1 == 1;
            conflict_free_of_size(members, conflict, self.cfg.quorum())
        };
        if !ok {
            return;
        }
        // The round-1 return (module docs): a highest live candidate that
        // round 1 confirmed exactly needs no READ2.
        let armed = !self.tuning.figures || self.cfg.guarantees_one_round_reads();
        if armed && self.try_return(|c| c.confirmed_by, 1, true, ctx) {
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

    /// Line 14: complete once the highest live candidate is `safe`, or `C`
    /// drained and the evidence knows what that means.
    fn try_finish(&mut self, ctx: &mut Context<'_, Msg<V>>) {
        if self.op.as_ref().is_none_or(|op| op.phase != Phase::Round2) {
            return;
        }
        let rounds = if self.tuning.skip_round2 { 1 } else { 2 };
        if self.heard.live().next().is_none() {
            if let Some(tsval) = self.evidence.on_empty() {
                self.report(tsval, rounds, false);
            }
            return;
        }
        self.try_return(|c| c.supported_by, rounds, false, ctx); // lines 18–19
    }

    /// Lines 3–4 and 18–19: completes with the first highest live candidate
    /// that `need` objects vouch for — `vouched` is `supported_by` for
    /// `safe(c)`, `confirmed_by` for the round-1 return. Returns whether
    /// the READ completed (or began its write-back).
    fn try_return(
        &mut self,
        vouched: impl Fn(&Candidate<V>) -> u64,
        rounds: u32,
        fast: bool,
        ctx: &mut Context<'_, Msg<V>>,
    ) -> bool {
        let need = self.tuning.safe_threshold.unwrap_or(self.cfg.b_plus_1());
        let ok = |c: &Candidate<V>| vouched(c).count_ones() as usize >= need;
        let Some(cret) = self.heard.highest(ok).cloned() else {
            return false;
        };
        self.complete(cret, rounds, fast, ctx);
        true
    }

    /// Returns candidate `cret` — after writing it back (module docs), where
    /// the evidence asks for that and `cret` is not `w0`, which every correct
    /// object holds from the start.
    fn complete(
        &mut self,
        cret: WTuple<V>,
        rounds: u32,
        fast: bool,
        ctx: &mut Context<'_, Msg<V>>,
    ) {
        if self.evidence.writes_back() && cret.ts() > Timestamp::ZERO {
            let msg = Msg::WriteBack { w: cret.clone() };
            ctx.broadcast(self.objects.iter().copied(), msg);
            self.op.as_mut().expect("a READ is completing").phase = Phase::WriteBack {
                cret,
                rounds,
                acks: 0,
            };
            return;
        }
        self.evidence.on_return(&cret);
        self.report(cret.tsval, rounds, fast);
    }

    /// `WRITE_ACK⟨ts⟩` from object `obj`: the READ returns once `S − t`
    /// objects acknowledged the write-back of the tuple it selected.
    fn on_write_back_ack(&mut self, obj: usize, ts: Timestamp) {
        let quorum = self.cfg.quorum();
        let Some(Phase::WriteBack { cret, rounds, acks }) =
            self.op.as_mut().map(|op| &mut op.phase)
        else {
            return;
        };
        if ts != cret.ts() {
            return;
        }
        *acks |= 1 << obj;
        if acks.count_ones() as usize >= quorum {
            let (cret, rounds) = (cret.clone(), *rounds + 1);
            self.evidence.on_return(&cret);
            self.report(cret.tsval, rounds, false);
        }
    }

    fn report(&mut self, tsval: TsVal<V>, rounds: u32, fast: bool) {
        let op = self.op.take().expect("a READ completes once");
        let Heard {
            replies,
            candidates,
        } = &mut self.heard;
        replies.iter_mut().for_each(|slots| slots.fill(None));
        candidates.clear();
        candidates.shrink_to(self.cfg.s);
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
        let Some(obj) = self.objects.iter().position(|&p| p == from) else {
            return;
        };
        let reply = match msg {
            Msg::WAck { ts } => return self.on_write_back_ack(obj, ts),
            msg => E::open(msg),
        };
        let Some((round, tsr, reply)) = reply else {
            return;
        };
        let Some(op) = self.op.as_mut() else { return };
        if matches!(op.phase, Phase::WriteBack { .. }) {
            return; // the selection is made; late READk_ACKs change nothing
        }
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
        if tsr != expected || self.heard.replies[rnd][obj].is_some() {
            return;
        }
        let tsr_fr = op.tsr_fr;
        self.hear(rnd, obj, reply, tsr_fr);
        self.try_advance(ctx);
        self.try_finish(ctx);
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

    /// S = 5 = 2t + 2b + 1, t = b = 1: quorum = 4, one round guaranteed.
    fn fast<E: Fixture>() -> Reader<u64, E> {
        tuned(StorageConfig::fast(1, 1, 1), ReaderTuning::default())
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
        assert!(r.outcome(id1).is_some(), "returned on round 1");
        let (id2, out2) = invoke(&mut r);
        assert_ne!(id1, id2);
        assert!(
            tsr_of(&out2) > first_tsr,
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
        // dies, the conflict evaporates, the quorum closes, and ⊥ (confirmed
        // by 3 ≥ b+1) is high: round 1 proves it.
        let sent = deliver(&mut r, 2, E::ack(ReadRound::R1, 1, 0));
        assert!(sent.is_empty(), "no READ2");
        let got = r.outcome(id).expect("complete");
        assert_eq!((got.value, got.rounds), (None, 1));
    }

    fn fast_path_completes_in_one_round_when_quorum_agrees<E: Fixture>() {
        // Above the boundary (S = 5, quorum 4) and at it (S = 4, quorum 3)
        // alike: the reply that closes a unanimous quorum completes the
        // read with NO second round.
        for (mut r, quorum) in [(fast::<E>(), 4), (optimal::<E>(), 3)] {
            let (id, out) = invoke(&mut r);
            assert_eq!(out.len(), quorum + 1, "READ1 to all");
            for i in 0..quorum - 1 {
                assert!(deliver(&mut r, i, E::ack(ReadRound::R1, 1, 2)).is_empty());
                assert!(r.outcome(id).is_none());
            }
            let sent = deliver(&mut r, quorum - 1, E::ack(ReadRound::R1, 1, 2));
            assert!(sent.is_empty(), "the round-1 return sends no READ2");
            let got = r.outcome(id).expect("one-round read complete");
            assert_eq!((got.value, got.ts), (Some(20), Timestamp(2)));
            assert_eq!(got.rounds, 1);
            assert!(got.fast);
        }
    }

    fn fast_path_falls_back_without_restarting_round1<E: Fixture>() {
        let mut r = optimal::<E>();
        let (id, _) = invoke(&mut r);
        // Byzantine object 3 forges ts 99; objects 0 and 1 report write 1.
        // At the close the forgery is live (2 < t+b+1 = 3 contradictors)
        // and high with 1 < b+1 = 2 confirmations: round 1 proves nothing.
        deliver(
            &mut r,
            3,
            E::forged_ack(ReadRound::R1, 1, 1, phantom(99, None)),
        );
        deliver(&mut r, 0, E::ack(ReadRound::R1, 1, 1));
        let sent = deliver(&mut r, 1, E::ack(ReadRound::R1, 1, 1));
        assert_eq!(sent.len(), 4, "fallback broadcasts READ2 to all");
        assert!(sent.iter().all(|(_, m)| matches!(
            m,
            Msg::Read {
                round: ReadRound::R2,
                ..
            }
        )));
        // Object 2's late round-1 reply kills the forgery, and write 1's
        // three round-1 supporters finish the read: no READ1 is re-sent.
        let sent = deliver(&mut r, 2, E::ack(ReadRound::R1, 1, 1));
        assert!(sent.is_empty(), "no restart");
        let got = r.outcome(id).expect("fallback read complete");
        assert_eq!(got.value, Some(10));
        assert_eq!(got.rounds, 2);
        assert!(!got.fast);
    }

    fn the_figures_reader_refuses_at_the_proposition1_boundary<E: Fixture>() {
        // S = 4 = 2t + 2b: Proposition 1 applies, and the figures' reader
        // sends READ2 even on a unanimous round-1 quorum.
        let mut r = tuned::<E>(StorageConfig::optimal(1, 1, 1), ReaderTuning::FIGURES);
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
        assert!(r.is_idle());
    }

    fn forged_high_candidate_cannot_fast_fire<E: Fixture>() {
        // A Byzantine object forges the highest candidate. At quorum close
        // the forgery has 1 < 3 confirmations and was already eliminated
        // (t+b+1 = 3 objects answered without it), so the genuine write —
        // high among the live candidates, 3 >= 3 exact confirmations —
        // fast-fires instead: on the RIGHT value.
        let mut r = fast::<E>();
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

    fn skip_round2_reports_one_unsound_round<E: Fixture>() {
        // The Proposition 1 mutant of the figures' reader, at the sizing it
        // is run at (S = 2t + 2b, where that reader never returns on round
        // 1), decides on round-1 evidence and sends no READ2; its single
        // round is not the sound round-1 return's.
        let tuning = ReaderTuning {
            skip_round2: true,
            ..ReaderTuning::FIGURES
        };
        let mut r = tuned::<E>(StorageConfig::optimal(1, 1, 1), tuning);
        let (id, _) = invoke(&mut r);
        for i in 0..2 {
            deliver(&mut r, i, E::ack(ReadRound::R1, 1, 1));
        }
        let sent = deliver(&mut r, 2, E::ack(ReadRound::R1, 1, 1));
        assert!(sent.is_empty(), "no READ2");
        let got = r.outcome(id).expect("complete");
        assert_eq!(got.value, Some(10));
        assert_eq!((got.rounds, got.fast), (1, false));
    }

    fn write_acks_mean_nothing_to_a_read_that_does_not_write_back<E: Fixture>() {
        let mut r = optimal::<E>();
        let (id, _) = invoke(&mut r);
        for i in 0..4 {
            assert!(deliver(&mut r, i, Msg::WAck { ts: Timestamp(1) }).is_empty());
        }
        assert!(r.outcome(id).is_none());
        for i in 0..3 {
            deliver(&mut r, i, E::ack(ReadRound::R1, 1, 1));
        }
        let got = r.outcome(id).expect("complete");
        assert_eq!((got.value, got.rounds), (Some(10), 1), "no extra round");
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
        the_figures_reader_refuses_at_the_proposition1_boundary,
        forged_high_candidate_cannot_fast_fire,
        skip_round2_reports_one_unsound_round,
        write_acks_mean_nothing_to_a_read_that_does_not_write_back,
    }

    /// The write-back phase (the atomic extension), on the one evidence
    /// whose objects answer it: reader-level cases first, then whole
    /// deployments of [`ProtocolKind::Atomic`].
    mod write_back {
        use super::*;
        use crate::attackers::AttackerKind;
        use crate::group::{ProtocolKind, ProtocolSpec};
        use crate::regular::RegularReader;
        use crate::scenario::StorageScenario;

        type E = RegularEvidence<u64>;

        fn reader(cfg: StorageConfig, optimized: bool) -> RegularReader<u64> {
            let objects = (0..cfg.s).map(ProcessId).collect();
            RegularReader::with_tuning(cfg, 0, objects, optimized, true, ReaderTuning::default())
        }

        /// Write 1's tuple as the writer assembled it: its matrix is what a
        /// reconstruction from the `ReadReport` would lose.
        fn w1() -> WTuple<u64> {
            let mut matrix = TsrMatrix::empty();
            matrix.set_row(2, BTreeMap::from([(0usize, 0u64)]));
            WTuple::new(TsVal::new(Timestamp(1), 10), matrix)
        }

        /// S = 4, t = b = 1: objects 0..=2 reported `w1`, the READ selected
        /// it at the round-1 close (b + 1 exact confirmations) and the
        /// write-back of that very tuple is out.
        fn writing_back() -> (RegularReader<u64>, ReadId) {
            let mut r = reader(StorageConfig::optimal(1, 1, 1), false);
            let (id, _) = invoke(&mut r);
            let mut sent = Vec::new();
            for i in 0..3 {
                sent = deliver(&mut r, i, E::forged_ack(ReadRound::R1, 1, 0, w1()));
            }
            assert_eq!(sent.len(), 4, "no READ2; the write-back to all");
            for (_, msg) in &sent {
                assert_eq!(*msg, Msg::WriteBack { w: w1() }, "matrix included");
            }
            assert!(r.outcome(id).is_none(), "not before S − t acknowledged");
            assert_eq!(r.acked(), Timestamp::ZERO, "on_return fires at the return");
            (r, id)
        }

        fn acks(r: &mut RegularReader<u64>, from: impl IntoIterator<Item = usize>, ts: u64) {
            for i in from {
                let sent = deliver(r, i, Msg::WAck { ts: Timestamp(ts) });
                assert!(sent.is_empty());
            }
        }

        #[test]
        fn the_read_returns_when_a_quorum_acknowledged_the_write_back() {
            let (mut r, id) = writing_back();
            acks(&mut r, 0..2, 1);
            assert!(r.outcome(id).is_none());
            acks(&mut r, 2..3, 1);
            let got = r.outcome(id).expect("S − t acknowledged");
            assert_eq!((got.value, got.ts), (Some(10), Timestamp(1)));
            assert_eq!((got.rounds, got.fast), (2, false));
            assert_eq!(r.acked(), Timestamp(1));
            assert!(r.is_idle());
        }

        #[test]
        fn only_each_object_s_first_ack_for_the_selected_timestamp_counts() {
            let (mut r, id) = writing_back();
            acks(&mut r, 0..4, 2);
            acks(&mut r, 0..4, 0);
            acks(&mut r, 7..12, 1); // no such objects
            acks(&mut r, [0, 0, 0, 1, 1], 1);
            assert!(r.outcome(id).is_none(), "two objects, whatever they repeat");
        }

        #[test]
        fn read_acks_during_the_write_back_change_nothing() {
            let (mut r, id) = writing_back();
            // Object 3's late round-1 reply knows a newer write; round-2
            // replies a Byzantine object guessed trickle in. The selection
            // is made.
            assert!(deliver(&mut r, 3, E::ack(ReadRound::R1, 1, 2)).is_empty());
            for i in 0..4 {
                assert!(deliver(&mut r, i, E::ack(ReadRound::R2, 2, 2)).is_empty());
            }
            assert!(r.outcome(id).is_none());
            acks(&mut r, 1..4, 1);
            let got = r.outcome(id).expect("complete");
            assert_eq!((got.value, got.rounds), (Some(10), 2));
        }

        #[test]
        #[should_panic(expected = "one READ at a time")]
        fn invoking_during_the_write_back_panics() {
            let (mut r, _) = writing_back();
            invoke(&mut r);
        }

        #[test]
        fn a_fast_selection_is_written_back_too() {
            // S = 5: the round-1 quorum confirms write 1 exactly, no READ2
            // goes out — the write-back does, and the read is not `fast`.
            let mut r = reader(StorageConfig::fast(1, 1, 1), false);
            let (id, _) = invoke(&mut r);
            let mut sent = Vec::new();
            for i in 0..4 {
                sent = deliver(&mut r, i, E::ack(ReadRound::R1, 1, 1));
            }
            assert_eq!(sent.len(), 5);
            assert!(matches!(sent[0].1, Msg::WriteBack { .. }));
            acks(&mut r, 0..4, 1);
            let got = r.outcome(id).expect("complete");
            assert_eq!((got.value, got.rounds, got.fast), (Some(10), 2, false));
        }

        #[test]
        fn a_cache_return_skips_the_write_back() {
            // §5.1: the first read returned (and wrote back) write 1; the
            // second finds an empty candidate set, which proves nothing
            // newer completed — the cached pair needs no second planting.
            let mut r = reader(StorageConfig::optimal(1, 1, 1), true);
            invoke(&mut r);
            for i in 0..3 {
                deliver(&mut r, i, E::ack(ReadRound::R1, 1, 1));
            }
            acks(&mut r, 0..3, 1);
            let (id, _) = invoke(&mut r);
            let (round, history) = (ReadRound::R1, crate::types::History::empty());
            let empty = Msg::ReadAckRegular {
                round,
                tsr: 2,
                history,
            };
            let mut sent = Vec::new();
            for i in 0..3 {
                sent = deliver(&mut r, i, empty.clone());
            }
            assert_eq!(sent.len(), 4, "READ2 only");
            let got = r.outcome(id).expect("the cached pair");
            assert_eq!((got.value, got.rounds), (Some(10), 2));
        }

        #[test]
        fn a_quiet_atomic_read_costs_its_reads_rounds_plus_the_write_back() {
            let cfg = StorageConfig::optimal(1, 1, 2);
            let figures = ProtocolSpec::figures(ProtocolKind::Atomic);
            for (spec, rounds) in [(ProtocolKind::Atomic.into(), 2), (figures, 3)] {
                let mut sc = StorageScenario::deploy(spec, cfg, 6);
                sc.write(42u64);
                let r = sc.read(0);
                assert_eq!(r.value, Some(42));
                assert_eq!(r.rounds, rounds, "{spec:?}: READ1 (+ READ2) + write-back");
            }
        }

        #[test]
        fn bottom_reads_skip_the_write_back() {
            let cfg = StorageConfig::optimal(1, 1, 1);
            let mut sc = StorageScenario::<u64, _>::deploy(ProtocolKind::Atomic, cfg, 6);
            let r = sc.read(0);
            assert_eq!(r.value, None);
            assert_eq!(r.rounds, 1, "nothing to write back");
        }

        #[test]
        fn atomic_reader_tolerates_byzantine_objects() {
            let cfg = StorageConfig::optimal(2, 2, 1);
            let mut sc = StorageScenario::deploy(ProtocolKind::Atomic, cfg, 6);
            for i in 0..cfg.b {
                sc.byzantine_object(i, AttackerKind::Inflator.build_regular(cfg, 0xBAD));
            }
            sc.write(7u64);
            assert_eq!(sc.read(0).value, Some(7));
        }

        /// Holds what `from` sends to object `i` wherever `held(msg, i)`.
        fn hold(
            sc: &mut StorageScenario<u64, ProtocolKind>,
            from: ProcessId,
            held: impl Fn(&Msg<u64>, usize) -> bool + Send + 'static,
        ) {
            let objects = sc.dep().objects.clone();
            sc.world_mut().adversary_mut().install("hold", move |e| {
                let to = objects.iter().position(|&o| o == e.to)?;
                (e.from == from && held(&e.msg, to)).then_some(vrr_sim::Action::Hold)
            });
        }

        /// S = 4 after `WRITE(10)`, with `WRITE(20)` in flight: its `PW` and
        /// `W` reach the objects `held` lets them.
        fn write_2_in_flight(
            held: impl Fn(&Msg<u64>, usize) -> bool + Send + 'static,
        ) -> StorageScenario<u64, ProtocolKind> {
            let cfg = StorageConfig::optimal(1, 1, 2);
            let mut sc = StorageScenario::deploy(ProtocolKind::Atomic, cfg, 4);
            sc.write(10u64);
            let writer = sc.writer();
            hold(&mut sc, writer, held);
            let mut w2 = sc.start_write(20u64);
            sc.world_mut().run_until_idle(100_000);
            assert!(
                sc.poll_write(&mut w2).is_none(),
                "write 2 must be in flight"
            );
            sc
        }

        /// The deterministic inversion scenario that the regular protocol
        /// admits (tests/consistency.rs) cannot happen here: after the first
        /// read returns the in-flight value, the write-back has planted it on
        /// a quorum, and the second read finds it whatever its quorum is.
        #[test]
        fn write_back_prevents_the_new_old_inversion() {
            // Write 2: PW reaches everyone, W only object 0 (held for the rest).
            let mut sc = write_2_in_flight(|msg, to| matches!(msg, Msg::W { .. }) && to != 0);

            // Read 1 (reader 0): quorum {0,1,2}; sees the in-flight 20 and
            // WRITES IT BACK before returning.
            let (from, to) = (sc.reader(0), sc.object(3));
            sc.world_mut().adversary_mut().hold_link(from, to);
            let r1 = sc.read(0);
            assert_eq!(r1.value, Some(20));
            assert_eq!(r1.rounds, 2, "round 1 confirms the pw; the write-back");

            // Read 2 (reader 1): quorum {1,2,3} — object 0 unreachable. In the
            // regular protocol this read returned 10; here the write-back has
            // already planted 20 on the quorum.
            let (from, to) = (sc.reader(1), sc.object(0));
            sc.world_mut().adversary_mut().hold_link(from, to);
            let r2 = sc.read(1);
            assert_eq!(r2.value, Some(20), "no new/old inversion with write-back");
        }

        /// The write-back may reach an object before write 2's own `PW`
        /// does. That late `PW` must not take the planted tuple away again:
        /// the reader counted this object among the `S − t` holders it
        /// returned on.
        #[test]
        fn a_late_pw_keeps_the_tuple_a_write_back_planted() {
            // Write 2: PW reaches 0, 1, 3 (held to 2); W reaches only 3.
            let mut sc = write_2_in_flight(|msg, to| match msg {
                Msg::Pw { .. } => to == 2,
                Msg::W { .. } => to != 3,
                _ => false,
            });

            // Read 1 (reader 0) hears 0, 1, 3: object 3 nominates w2, the
            // `pw`s of 0 and 1 make it safe. Its write-back reaches 1, 2, 3
            // — object 2 has seen nothing of write 2 yet.
            let r0 = sc.reader(0);
            hold(&mut sc, r0, |msg, to| match msg {
                Msg::Read { .. } => to == 2,
                Msg::WriteBack { .. } => to == 0,
                _ => false,
            });
            let r1 = sc.read(0);
            assert_eq!((r1.value, r1.rounds), (Some(20), 2));

            // Now write 2's PW arrives at object 2, and object 3 turns out
            // to be the Byzantine one: from here on it denies every write.
            let o2 = sc.object(2);
            sc.world_mut()
                .release_held(|e| e.to == o2 && matches!(e.msg, Msg::Pw { .. }));
            sc.world_mut().run_until_idle(100_000);
            sc.attack_object(3, AttackerKind::Stale, 0xBAD);

            // Read 2 (reader 1) hears 0, 2, 3 — object 1, the other holder,
            // is slow. Object 2 must still nominate w2.
            let (from, to) = (sc.reader(1), sc.object(1));
            sc.world_mut().adversary_mut().hold_link(from, to);
            let r2 = sc.read(1);
            assert_eq!(r2.value, Some(20), "read 1 returned 20 before read 2 began");
        }
    }

    /// The count relation that keeps the incremental reader incremental: a
    /// reply is judged against a candidate once per predicate, not once per
    /// later reply, and the buffers a READ fills do not outlive it at their
    /// peak size.
    mod judged_once {
        use std::cell::{Cell, RefCell};
        use std::collections::HashMap;

        use super::*;
        use crate::types::HistEntry;

        /// How often each (reply, predicate, candidate) was judged.
        type Judged = HashMap<(u64, &'static str, WTuple<u64>), u32>;

        thread_local! {
            static SERIAL: Cell<u64> = const { Cell::new(0) };
            static JUDGED: RefCell<Judged> = RefCell::new(HashMap::new());
        }

        fn judged(serial: u64, predicate: &'static str, c: &WTuple<u64>) {
            JUDGED.with(|j| {
                *j.borrow_mut()
                    .entry((serial, predicate, c.clone()))
                    .or_default() += 1
            });
        }

        /// `E`, with every delivered reply numbered and every predicate call
        /// on it counted per candidate.
        #[derive(Clone, Debug)]
        struct Counting<E>(E);

        impl<E: Evidence<u64>> Evidence<u64> for Counting<E> {
            type Reply = (u64, E::Reply);

            const LABEL: &'static str = E::LABEL;

            fn open(msg: Msg<u64>) -> Option<(ReadRound, u64, Self::Reply)> {
                let (round, tsr, reply) = E::open(msg)?;
                let serial = SERIAL.with(|s| s.replace(s.get() + 1));
                Some((round, tsr, (serial, reply)))
            }

            fn nominated((_, reply): &Self::Reply) -> impl Iterator<Item = &WTuple<u64>> {
                E::nominated(reply)
            }

            fn contradicts((serial, reply): &Self::Reply, c: &WTuple<u64>) -> bool {
                judged(*serial, "contradicts", c);
                E::contradicts(reply, c)
            }

            fn supports((serial, reply): &Self::Reply, c: &WTuple<u64>) -> bool {
                judged(*serial, "supports", c);
                E::supports(reply, c)
            }

            fn confirms((serial, reply): &Self::Reply, c: &WTuple<u64>) -> bool {
                judged(*serial, "confirms", c);
                E::confirms(reply, c)
            }

            fn request_fields(&self) -> (Option<Timestamp>, Timestamp) {
                self.0.request_fields()
            }

            fn on_return(&mut self, c: &WTuple<u64>) {
                self.0.on_return(c)
            }

            fn on_empty(&self) -> Option<TsVal<u64>> {
                self.0.on_empty()
            }
        }

        fn regular(cfg: StorageConfig) -> Reader<u64, Counting<RegularEvidence<u64>>> {
            let objects = (0..cfg.s).map(ProcessId).collect();
            let evidence = Counting(RegularEvidence::evidence());
            Reader::with_evidence(cfg, 0, objects, evidence, ReaderTuning::default())
        }

        type R = RegularEvidence<u64>;

        #[test]
        fn each_reply_is_judged_once_per_live_candidate_and_predicate() {
            // S = 6, t = 2, b = 1: quorum 4, elimination at 4 contradictors,
            // safe at 2 supporters. Object 5 is silent.
            let mut r = regular(StorageConfig::optimal(2, 1, 1));
            let (id, _) = invoke(&mut r);
            // Object 0 forges ⟨9, 666⟩ accusing itself, and its own entry
            // for it contradicts it (the `pw` disagrees).
            let Msg::ReadAckRegular { mut history, .. } = R::ack(ReadRound::R1, 1, 1) else {
                unreachable!("a regular ACK")
            };
            let (pw, w) = (TsVal::new(Timestamp(9), 7), Some(phantom(9, Some(0))));
            history.insert(Timestamp(9), HistEntry { pw, w });
            let (round, tsr) = (ReadRound::R1, 1);
            deliver(
                &mut r,
                0,
                Msg::ReadAckRegular {
                    round,
                    tsr,
                    history,
                },
            );
            deliver(&mut r, 1, R::ack(ReadRound::R1, 1, 2));
            deliver(&mut r, 2, R::ack(ReadRound::R1, 1, 1));
            // A repeat. Then the 4th contradictor kills the forgery, its
            // self-accusation goes with it, the quorum is conflict-free:
            // READ2 goes out, and write 2 has one supporter — the READ waits
            // in round 2.
            deliver(&mut r, 1, R::ack(ReadRound::R1, 1, 1));
            let read2 = deliver(&mut r, 3, R::ack(ReadRound::R1, 1, 1));
            assert_eq!(read2.len(), 6, "READ2 to all");
            assert_eq!(r.candidate_count(), 3, "w0, w1, w2 live; the forgery dead");
            deliver(&mut r, 2, R::ack(ReadRound::R2, 2, 1));
            deliver(&mut r, 0, R::ack(ReadRound::R1, 1, 2)); // a repeat
            deliver(&mut r, 4, R::ack(ReadRound::R2, 2, 2));
            let got = r.outcome(id).expect("write 2 reached b + 1 supporters");
            assert_eq!((got.value, got.rounds), (Some(20), 2));

            let judged = JUDGED.with(|j| j.take());
            assert!(judged.len() >= 3 * 6, "judged too little to mean anything");
            for ((serial, predicate, c), n) in judged {
                assert_eq!(
                    n, 1,
                    "reply {serial} judged {n} times by {predicate} on {c:?}"
                );
            }
        }

        #[test]
        fn a_full_history_read_keeps_no_more_than_s_candidate_slots() {
            let cfg = StorageConfig::optimal(1, 1, 1);
            let mut r = regular(cfg);
            for read in 0..2 {
                let (id, _) = invoke(&mut r);
                for i in 0..3 {
                    deliver(&mut r, i, R::ack(ReadRound::R1, read + 1, 100));
                }
                assert_eq!(r.outcome(id).expect("complete").value, Some(1_000));
                assert!(r.heard.candidates.is_empty());
                assert!(r.heard.candidates.capacity() <= cfg.s);
                assert!(r.heard.replies.iter().flatten().all(Option::is_none));
            }
        }
    }
}
