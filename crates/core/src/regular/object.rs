//! The regular-storage base object (Figure 5).
//!
//! Unlike the safe object, it "keeps track of all values received from the
//! writer throughout the entire run" (§5): a history from write timestamp
//! to the `⟨pw, w⟩` recorded for that write, a sorted vector searched from
//! the newest entry. Read ACKs carry the history — all of it in the
//! paper-faithful mode, or the suffix from the reader's cached timestamp
//! under the §5.1 optimization.
//!
//! "The entire run" is the paper's storage-exhaustion caveat. This module
//! adds the repo's answer: a [`HistoryRetention`] policy, whose
//! [`ReaderAck`](HistoryRetention::ReaderAck) variant implements the
//! reader-ack–driven truncation the paper sketches — every `READk`
//! message piggybacks the highest timestamp its reader has safely
//! returned, and the object drops entries strictly below
//! `min(acks) − 1`. The safety argument (why this preserves
//! regularity) lives in the [`crate::regular`] module docs.
//!
//! The object also answers a reader's write-back ([`Msg::WriteBack`], the
//! third round of an atomic READ — [`crate::reader`]): it fills the tuple in
//! where it holds no `w` at that timestamp, leaves `ts_i` alone, and
//! acknowledges unconditionally. No safe or regular reader sends one, so
//! Figure 5 is what runs for them.

use std::collections::BTreeMap;

use vrr_sim::{Automaton, Context, ProcessId};

use crate::msg::Msg;
use crate::types::{HistEntry, History, Timestamp, Value};

/// Garbage-collection policy for object histories.
///
/// `KeepAll` is the paper's model (§5 explicitly accepts the storage-
/// exhaustion risk). The other two variants are *extensions* for
/// long-running deployments:
///
/// * [`ReaderAck`](HistoryRetention::ReaderAck) — the principled policy:
///   readers piggyback the highest timestamp they have safely returned
///   onto every `READk` message, the object keeps a per-reader ack
///   vector over every deployed reader, and truncates every entry
///   strictly below `min(acks) − 1`. See the safety argument in
///   [`crate::regular`]: no correct reader can ever again need a
///   truncated entry, so reads remain regular.
/// * [`KeepLast`](HistoryRetention::KeepLast) — the ad-hoc escape hatch:
///   keep the `n` newest entries unconditionally. Not ack-driven, so a
///   read concurrent with many writes can in principle be forced onto a
///   stale-but-written value; useful as a hard memory bound when a
///   reader may have crashed and stopped acking (see the `cap` field of
///   `ReaderAck`, which composes both).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum HistoryRetention {
    /// Keep every entry (paper-faithful).
    #[default]
    KeepAll,
    /// Keep only the `n` highest-timestamp entries (`n ≥ 1`).
    KeepLast(usize),
    /// Reader-ack–driven truncation: drop entries strictly below
    /// `min(acks) − 1`, the minimum taken over every reader the group
    /// deploys. A reader that has never completed a read counts as ack 0,
    /// so nothing is truncated until every reader has returned at least
    /// once. The one entry kept below the floor is the tight concurrency
    /// window: a reader that returned timestamp `a` proves only that write
    /// `a − 1` *completed* before its next read begins (write `a` itself
    /// may still be in flight).
    ReaderAck {
        /// Optional hard length cap (`KeepLast`-style) applied on top, so
        /// a crashed reader that never acks cannot pin the history
        /// forever. `None` = unbounded staleness protection, bounded
        /// memory only while every reader keeps acking.
        cap: Option<usize>,
    },
}

impl HistoryRetention {
    /// The reader-ack GC policy with no length cap.
    pub fn reader_ack() -> Self {
        HistoryRetention::ReaderAck { cap: None }
    }

    /// [`HistoryRetention::reader_ack`] plus a hard length cap, so a
    /// crashed (never-acking) reader cannot block truncation forever.
    pub fn reader_ack_capped(cap: usize) -> Self {
        HistoryRetention::ReaderAck { cap: Some(cap) }
    }
}

/// A correct base object of the regular protocol.
#[derive(Clone, Debug)]
pub struct RegularObject<V> {
    ts: Timestamp,
    history: History<V>,
    tsr: BTreeMap<usize, u64>,
    /// Per-reader GC acknowledgements: highest write timestamp reader `j`
    /// reported having returned (extension; feeds `ReaderAck` retention).
    acks: BTreeMap<usize, Timestamp>,
    retention: HistoryRetention,
    /// The group's reader count `R`: a `ReaderAck` floor is the minimum
    /// ack over readers `0..R`.
    readers: usize,
}

impl<V: Value> RegularObject<V> {
    /// A freshly initialized object (Figure 5 lines 1–3).
    pub fn new() -> Self {
        Self::with_retention(HistoryRetention::KeepAll, 1)
    }

    /// An object with a history retention policy (extension; see
    /// [`HistoryRetention`]) in a group of `readers` readers.
    ///
    /// # Panics
    ///
    /// Panics if the policy is `KeepLast(0)`, or a `ReaderAck` with
    /// `readers == 0` or `cap == Some(0)`.
    pub fn with_retention(retention: HistoryRetention, readers: usize) -> Self {
        match retention {
            HistoryRetention::KeepAll => {}
            HistoryRetention::KeepLast(n) => {
                assert!(n >= 1, "KeepLast must retain at least one entry");
            }
            HistoryRetention::ReaderAck { cap } => {
                assert!(readers >= 1, "ReaderAck needs at least one reader");
                assert!(
                    cap != Some(0),
                    "ReaderAck cap must retain at least one entry"
                );
            }
        }
        RegularObject {
            ts: Timestamp::ZERO,
            history: History::initial(),
            tsr: BTreeMap::new(),
            acks: BTreeMap::new(),
            retention,
            readers,
        }
    }

    /// The current write timestamp.
    pub fn ts(&self) -> Timestamp {
        self.ts
    }

    /// The stored history.
    pub fn history(&self) -> &History<V> {
        &self.history
    }

    /// The stored timestamp of reader `j` (0 if never contacted).
    pub fn tsr(&self, j: usize) -> u64 {
        self.tsr.get(&j).copied().unwrap_or(0)
    }

    /// The GC acknowledgement recorded for reader `j`
    /// ([`Timestamp::ZERO`] if the reader never completed a read).
    pub fn reader_ack(&self, j: usize) -> Timestamp {
        self.acks.get(&j).copied().unwrap_or(Timestamp::ZERO)
    }

    /// `min(acks)` over the group's readers — the highest timestamp
    /// *every* reader has moved past.
    fn ack_floor(&self) -> Timestamp {
        (0..self.readers)
            .map(|j| self.reader_ack(j))
            .min()
            .unwrap_or(Timestamp::ZERO)
    }

    /// Records reader `j`'s piggybacked ack (monotone: stale or reordered
    /// READ messages can only repeat lower values, never regress it).
    fn record_ack(&mut self, j: usize, ack: Timestamp) {
        let slot = self.acks.entry(j).or_insert(Timestamp::ZERO);
        if ack > *slot {
            *slot = ack;
        }
    }

    fn apply_retention(&mut self) {
        match self.retention {
            HistoryRetention::KeepAll => {}
            HistoryRetention::KeepLast(n) => self.history.keep_last(n),
            HistoryRetention::ReaderAck { cap } => {
                let cut = self.ack_floor().prev();
                if cut > Timestamp::ZERO {
                    self.history.retain_from(cut);
                }
                if let Some(n) = cap {
                    self.history.keep_last(n);
                }
            }
        }
    }
}

impl<V: Value> Default for RegularObject<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Value> Automaton<Msg<V>> for RegularObject<V> {
    fn on_message(&mut self, from: ProcessId, msg: Msg<V>, ctx: &mut Context<'_, Msg<V>>) {
        match msg {
            // Figure 5 lines 4–9 (with the §5 prose indexing: history[ts'],
            // history[ts'−1]; the figure's `history[ts]` is a typo).
            Msg::Pw { ts, pw, w } => {
                if ts > self.ts {
                    // `w := nil` — unless a reader's write-back of this very
                    // write overtook its PW (`Msg::WriteBack`; no entry sits
                    // above `ts_i` otherwise). That reader returned counting
                    // this object among the `S − t` holders of the tuple.
                    let planted = self.history.get(ts).and_then(|e| e.w.clone());
                    let w_now = planted.filter(|c| c.tsval == pw);
                    self.history.insert(ts, HistEntry { pw, w: w_now });
                    // The PW of write ts carries write (ts−1)'s tuple:
                    // objects that missed the previous W round backfill here.
                    self.history.insert(
                        ts.prev(),
                        HistEntry {
                            pw: w.tsval.clone(),
                            w: Some(w),
                        },
                    );
                    self.ts = ts;
                    self.apply_retention();
                    ctx.send(
                        from,
                        Msg::PwAck {
                            ts: self.ts,
                            tsr: self.tsr.clone(),
                        },
                    );
                }
            }
            // Figure 5 lines 10–14.
            Msg::W { ts, pw, w } => {
                if ts >= self.ts {
                    self.ts = ts;
                    self.history.insert(ts, HistEntry { pw, w: Some(w) });
                    self.apply_retention();
                    ctx.send(from, Msg::WAck { ts });
                }
            }
            // Figure 5 lines 15–19, plus the §5.1 suffix optimization and
            // the reader-ack GC extension.
            Msg::Read {
                round,
                reader,
                tsr,
                since,
                ack,
            } => {
                // Harvest the GC ack before the freshness check: acks are
                // monotone, so even a stale or reordered READ carries
                // information safe to record.
                self.record_ack(reader, ack);
                self.apply_retention();
                if tsr > self.tsr(reader) {
                    self.tsr.insert(reader, tsr);
                    let history = match since {
                        Some(s) => self.history.suffix(s),
                        None => self.history.clone(),
                    };
                    ctx.send(
                        from,
                        Msg::ReadAckRegular {
                            round,
                            tsr,
                            history,
                        },
                    );
                }
            }
            // A reader's write-back (extension: the third round of an atomic
            // READ). It is not a write, so it neither advances `ts` nor
            // replaces a `w` the writer put here; and the reader waits for
            // `S − t` of these acknowledgements however many writes have
            // overtaken it, so — unlike line 11's `ts ≥ ts_i` — always ack.
            Msg::WriteBack { w } => {
                let ts = w.ts();
                if self.history.get(ts).is_none_or(|e| e.w.is_none()) {
                    let pw = w.tsval.clone();
                    self.history.insert(ts, HistEntry { pw, w: Some(w) });
                    self.apply_retention();
                }
                ctx.send(from, Msg::WAck { ts });
            }
            Msg::PwAck { .. }
            | Msg::WAck { .. }
            | Msg::ReadAckSafe { .. }
            | Msg::ReadAckRegular { .. } => {}
        }
    }

    fn label(&self) -> &'static str {
        "regular-object"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::ReadRound;
    use crate::types::{TsVal, TsrMatrix, WTuple};

    fn step(obj: &mut RegularObject<u64>, msg: Msg<u64>) -> Vec<(ProcessId, Msg<u64>)> {
        let mut out = Vec::new();
        let mut ctx = Context::new(ProcessId(0), &mut out);
        obj.on_message(ProcessId(9), msg, &mut ctx);
        out
    }

    fn tuple(ts: u64, v: u64) -> WTuple<u64> {
        WTuple::new(TsVal::new(Timestamp(ts), v), TsrMatrix::empty())
    }

    fn pw_msg(ts: u64, v: u64, prev: WTuple<u64>) -> Msg<u64> {
        Msg::Pw {
            ts: Timestamp(ts),
            pw: TsVal::new(Timestamp(ts), v),
            w: prev,
        }
    }

    fn w_msg(ts: u64, v: u64) -> Msg<u64> {
        Msg::W {
            ts: Timestamp(ts),
            pw: TsVal::new(Timestamp(ts), v),
            w: tuple(ts, v),
        }
    }

    fn read_msg(reader: usize, tsr: u64, since: Option<u64>, ack: u64) -> Msg<u64> {
        Msg::Read {
            round: ReadRound::R1,
            reader,
            tsr,
            since: since.map(Timestamp),
            ack: Timestamp(ack),
        }
    }

    #[test]
    fn initial_history_has_entry_zero() {
        let obj: RegularObject<u64> = RegularObject::new();
        assert_eq!(obj.history().len(), 1);
        assert!(obj.history().get(Timestamp::ZERO).is_some());
    }

    #[test]
    fn pw_records_current_and_backfills_previous() {
        let mut obj = RegularObject::new();
        // Object missed write 1 entirely; PW of write 2 carries w1.
        let out = step(&mut obj, pw_msg(2, 20, tuple(1, 10)));
        assert_eq!(out.len(), 1);
        assert_eq!(obj.ts(), Timestamp(2));
        let e2 = obj.history().get(Timestamp(2)).expect("entry 2");
        assert_eq!(e2.pw.value, Some(20));
        assert!(e2.w.is_none(), "write 2's W round not yet seen");
        let e1 = obj.history().get(Timestamp(1)).expect("backfilled entry 1");
        assert_eq!(e1.pw.value, Some(10));
        assert_eq!(e1.w.as_ref().map(|w| w.ts()), Some(Timestamp(1)));
    }

    #[test]
    fn w_completes_the_entry() {
        let mut obj = RegularObject::new();
        step(&mut obj, pw_msg(1, 10, WTuple::initial()));
        let out = step(&mut obj, w_msg(1, 10));
        assert_eq!(out.len(), 1);
        let e1 = obj.history().get(Timestamp(1)).expect("entry 1");
        assert!(e1.w.is_some());
    }

    #[test]
    fn stale_messages_do_not_ack_or_mutate() {
        let mut obj = RegularObject::new();
        step(&mut obj, pw_msg(3, 30, tuple(2, 20)));
        assert!(step(&mut obj, pw_msg(2, 99, tuple(1, 98))).is_empty());
        assert!(step(&mut obj, w_msg(2, 99)).is_empty());
        assert_eq!(obj.history().get(Timestamp(2)).unwrap().pw.value, Some(20));
    }

    fn w_at(obj: &RegularObject<u64>, ts: u64) -> Option<WTuple<u64>> {
        obj.history().get(Timestamp(ts)).and_then(|e| e.w.clone())
    }

    #[test]
    fn a_write_back_fills_in_a_missing_w_and_never_replaces_one() {
        let mut obj = RegularObject::new();
        step(&mut obj, pw_msg(1, 10, WTuple::initial()));
        let out = step(&mut obj, Msg::WriteBack { w: tuple(1, 10) });
        assert_eq!(out, [(ProcessId(9), Msg::WAck { ts: Timestamp(1) })]);
        assert_eq!(w_at(&obj, 1), Some(tuple(1, 10)), "pw only: completed");
        // Another tuple for the same write is acknowledged, not stored.
        let mut matrix = TsrMatrix::empty();
        matrix.set_row(0, BTreeMap::from([(0, 7)]));
        let other = WTuple::new(TsVal::new(Timestamp(1), 10), matrix);
        let out = step(&mut obj, Msg::WriteBack { w: other });
        assert_eq!(out, [(ProcessId(9), Msg::WAck { ts: Timestamp(1) })]);
        assert_eq!(w_at(&obj, 1), Some(tuple(1, 10)));
    }

    #[test]
    fn an_overtaken_write_back_is_still_acknowledged() {
        // The object is at write 3 and never saw write 1; line 11's
        // `ts ≥ ts_i` would leave the reader waiting forever.
        let mut obj = RegularObject::new();
        step(&mut obj, pw_msg(3, 30, tuple(2, 20)));
        let out = step(&mut obj, Msg::WriteBack { w: tuple(1, 10) });
        assert_eq!(out, [(ProcessId(9), Msg::WAck { ts: Timestamp(1) })]);
        assert_eq!(obj.ts(), Timestamp(3), "a write-back is not a write");
        assert_eq!(w_at(&obj, 1), Some(tuple(1, 10)));
    }

    #[test]
    fn a_late_pw_keeps_a_planted_tuple_and_is_acknowledged() {
        let mut obj = RegularObject::new();
        step(&mut obj, Msg::WriteBack { w: tuple(1, 10) });
        assert_eq!(obj.ts(), Timestamp::ZERO);
        let out = step(&mut obj, pw_msg(1, 10, WTuple::initial()));
        assert!(
            matches!(out[..], [(_, Msg::PwAck { .. })]),
            "the writer waits"
        );
        assert_eq!(w_at(&obj, 1), Some(tuple(1, 10)));
        // What the writer's own pair contradicts goes, as `w := nil` says.
        let mut obj = RegularObject::new();
        step(&mut obj, Msg::WriteBack { w: tuple(1, 99) });
        step(&mut obj, pw_msg(1, 10, WTuple::initial()));
        assert_eq!(w_at(&obj, 1), None);
    }

    #[test]
    fn read_returns_full_history_without_since() {
        let mut obj = RegularObject::new();
        step(&mut obj, pw_msg(1, 10, WTuple::initial()));
        step(&mut obj, w_msg(1, 10));
        let out = step(&mut obj, read_msg(0, 1, None, 0));
        match &out[..] {
            [(_, Msg::ReadAckRegular { history, .. })] => {
                assert_eq!(history.len(), 2, "entries 0 and 1");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn read_with_since_returns_suffix() {
        let mut obj = RegularObject::new();
        for k in 1..=5u64 {
            step(&mut obj, pw_msg(k, k * 10, tuple(k - 1, (k - 1) * 10)));
            step(&mut obj, w_msg(k, k * 10));
        }
        let out = step(&mut obj, read_msg(0, 1, Some(4), 0));
        match &out[..] {
            [(_, Msg::ReadAckRegular { history, .. })] => {
                assert_eq!(history.len(), 2, "entries 4 and 5 only");
                assert!(history.get(Timestamp(3)).is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stale_reader_timestamp_gets_no_reply() {
        let mut obj: RegularObject<u64> = RegularObject::new();
        step(&mut obj, read_msg(0, 4, None, 0));
        let out = step(&mut obj, read_msg(0, 4, None, 0));
        assert!(out.is_empty());
    }

    #[test]
    fn keep_last_bounds_history() {
        let mut obj = RegularObject::with_retention(HistoryRetention::KeepLast(3), 1);
        for k in 1..=10u64 {
            step(&mut obj, pw_msg(k, k, tuple(k - 1, k - 1)));
            step(&mut obj, w_msg(k, k));
        }
        assert!(obj.history().len() <= 3);
        assert!(
            obj.history().get(Timestamp(10)).is_some(),
            "newest entry kept"
        );
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn keep_last_zero_rejected() {
        let _ = RegularObject::<u64>::with_retention(HistoryRetention::KeepLast(0), 1);
    }

    // ---- Reader-ack–driven GC ---------------------------------------------

    /// Object with ack GC in a group of `readers` readers, preloaded with
    /// writes 1..=n.
    fn gc_obj(readers: usize, n: u64) -> RegularObject<u64> {
        let mut obj = RegularObject::with_retention(HistoryRetention::reader_ack(), readers);
        for k in 1..=n {
            step(&mut obj, pw_msg(k, k * 10, tuple(k - 1, (k - 1) * 10)));
            step(&mut obj, w_msg(k, k * 10));
        }
        obj
    }

    #[test]
    fn reader_ack_truncates_below_floor_minus_window() {
        let mut obj = gc_obj(1, 10);
        assert_eq!(obj.history().len(), 11, "entries 0..=10 before any ack");
        step(&mut obj, read_msg(0, 1, None, 8));
        assert_eq!(obj.reader_ack(0), Timestamp(8));
        // floor = 8, one entry below it kept: entries 7..=10 survive.
        assert_eq!(obj.history().len(), 4);
        assert!(obj.history().get(Timestamp(7)).is_some());
        assert!(obj.history().get(Timestamp(6)).is_none());
        assert!(obj.history().get(Timestamp::ZERO).is_none());
    }

    #[test]
    fn slowest_reader_gates_the_floor() {
        let mut obj = gc_obj(2, 10);
        // Only reader 0 acks: reader 1's implicit ack 0 pins the floor.
        step(&mut obj, read_msg(0, 1, None, 9));
        assert_eq!(obj.history().len(), 11, "min(9, 0) - 1 < 1: nothing cut");
        // Reader 1 catches up to 5: floor = min(9, 5) = 5, cut below 4.
        step(&mut obj, read_msg(1, 1, None, 5));
        assert_eq!(obj.history().len(), 7, "entries 4..=10");
        assert!(obj.history().get(Timestamp(4)).is_some());
        assert!(obj.history().get(Timestamp(3)).is_none());
    }

    #[test]
    fn acks_are_monotone_under_reordered_reads() {
        let mut obj = gc_obj(1, 10);
        step(&mut obj, read_msg(0, 5, None, 8));
        let len_after = obj.history().len();
        // A reordered older READ (stale tsr, lower ack) must not regress
        // the ack or resurrect anything — and gets no reply.
        let out = step(&mut obj, read_msg(0, 3, None, 2));
        assert!(out.is_empty(), "stale tsr still gets no reply");
        assert_eq!(obj.reader_ack(0), Timestamp(8));
        assert_eq!(obj.history().len(), len_after);
    }

    #[test]
    fn truncation_never_loses_the_newest_entry() {
        let mut obj = gc_obj(1, 3);
        // Ack far beyond anything written (impossible for a correct
        // reader, but the object must stay well-defined).
        step(&mut obj, read_msg(0, 1, None, 100));
        assert_eq!(obj.history().len(), 1);
        assert!(obj.history().get(Timestamp(3)).is_some());
    }

    #[test]
    fn crashed_reader_blocks_truncation_without_cap() {
        // Reader 1 never acks; with no cap the history grows forever.
        let mut obj = gc_obj(2, 50);
        step(&mut obj, read_msg(0, 1, None, 50));
        assert_eq!(obj.history().len(), 51, "floor stuck at crashed reader");
    }

    #[test]
    fn cap_bounds_history_despite_crashed_reader() {
        let mut obj = RegularObject::with_retention(HistoryRetention::reader_ack_capped(8), 2);
        for k in 1..=50u64 {
            step(&mut obj, pw_msg(k, k, tuple(k - 1, k - 1)));
            step(&mut obj, w_msg(k, k));
        }
        // Reader 1 is crashed (never acks), yet memory stays bounded.
        assert!(obj.history().len() <= 8);
        assert!(obj.history().get(Timestamp(50)).is_some());
    }

    #[test]
    fn reads_after_truncation_ship_the_retained_suffix() {
        let mut obj = gc_obj(1, 10);
        step(&mut obj, read_msg(0, 1, None, 8));
        let out = step(&mut obj, read_msg(0, 2, None, 8));
        match &out[..] {
            [(_, Msg::ReadAckRegular { history, .. })] => {
                assert_eq!(history.len(), 4, "entries 7..=10");
                assert_eq!(history.max_ts(), Some(Timestamp(10)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "at least one reader")]
    fn reader_ack_zero_readers_rejected() {
        let _ = RegularObject::<u64>::with_retention(HistoryRetention::reader_ack(), 0);
    }
}
