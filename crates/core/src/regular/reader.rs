//! The regular-storage reader: Figure 6, with the optional §5.1
//! cached-suffix optimization, as an [`Evidence`] for the one [`Reader`]
//! (the automaton and its documentation live in [`crate::reader`]).
//!
//! A regular object answers `READk` with its *history*, so a reply is a
//! [`History`], candidates are drawn from its `w` fields, and a candidate
//! `c` is judged against what the reply holds at position `c.tsval.ts`.

use vrr_sim::ProcessId;

use crate::config::StorageConfig;
use crate::msg::{Msg, ReadRound};
use crate::reader::{Evidence, Reader, ReaderTuning};
use crate::types::{History, Timestamp, TsVal, Value, WTuple};

/// Figure 6's reading of a `READk_ACK⟨tsr, history⟩`, plus what the reader
/// remembers between READs.
///
/// With `optimized = true` the reader runs the §5.1 protocol: it remembers
/// the timestamp–value pair it last returned and asks objects only for the
/// history suffix from that timestamp; an empty candidate set then means
/// "nothing newer completed", and the cached value is returned.
#[derive(Clone, Debug)]
pub struct RegularEvidence<V> {
    optimized: bool,
    /// Write the selected tuple back before returning it (the atomic
    /// extension; [`crate::reader`] has the argument).
    write_back: bool,
    /// `cache_j`: last returned pair (§5.1). `⟨0, ⊥⟩` initially.
    cache: TsVal<V>,
    /// Highest write timestamp ever returned by this reader — piggybacked
    /// as the history-GC acknowledgement on every `READk` message
    /// (extension; see [`crate::regular::HistoryRetention::ReaderAck`]).
    /// Monotone, unlike per-read return values, which regularity allows
    /// to go back in time between reads.
    acked: Timestamp,
}

impl<V: Value> RegularEvidence<V> {
    fn new(optimized: bool, write_back: bool) -> Self {
        RegularEvidence {
            optimized,
            write_back,
            cache: TsVal::bottom(),
            acked: Timestamp::ZERO,
        }
    }
}

/// The reader automaton `r_j` of the regular protocol (Figure 6).
pub type RegularReader<V> = Reader<V, RegularEvidence<V>>;

impl<V: Value> Evidence<V> for RegularEvidence<V> {
    type Reply = History<V>;

    const LABEL: &'static str = "regular-reader";

    fn open(msg: Msg<V>) -> Option<(ReadRound, u64, History<V>)> {
        match msg {
            Msg::ReadAckRegular {
                round,
                tsr,
                history,
            } => Some((round, tsr, history)),
            _ => None,
        }
    }

    /// Figure 6 lines 17–21: candidates come from the `w` fields.
    fn nominated(history: &History<V>) -> impl Iterator<Item = &WTuple<V>> {
        history.iter().filter_map(|(_ts, e)| e.w.as_ref())
    }

    /// `invalid(c)` (line 2): the object responded without fully
    /// confirming `c` at its position.
    fn contradicts(history: &History<V>, c: &WTuple<V>) -> bool {
        history
            .get(c.ts())
            .is_none_or(|e| e.pw != c.tsval || e.w.as_ref() != Some(c))
    }

    /// `safe(c)` (line 3): the object confirmed `c.tsval` (pw) or `c` (w)
    /// at position `c.tsval.ts`.
    fn supports(history: &History<V>, c: &WTuple<V>) -> bool {
        history
            .get(c.ts())
            .is_some_and(|e| e.pw == c.tsval || e.w.as_ref() == Some(c))
    }

    fn request_fields(&self) -> (Option<Timestamp>, Timestamp) {
        (self.optimized.then_some(self.cache.ts), self.acked)
    }

    fn on_return(&mut self, c: &WTuple<V>) {
        self.acked = self.acked.max(c.ts());
        if self.optimized {
            self.cache = c.tsval.clone();
        }
    }

    /// §5.1: an empty candidate set after a full round-1 quorum proves no
    /// write at or above `cache.ts` completed before this read — return the
    /// cached value (no `acked` update: `acked ≥ cache.ts` is invariant,
    /// the cache is only ever set alongside an `acked` raise). Unoptimized
    /// readers keep waiting: `w0` is always a candidate and never invalid,
    /// so only liars can empty their `C`.
    fn on_empty(&self) -> Option<TsVal<V>> {
        self.optimized.then(|| self.cache.clone())
    }

    fn writes_back(&self) -> bool {
        self.write_back
    }
}

impl<V: Value> Reader<V, RegularEvidence<V>> {
    /// A paper-faithful (full-history) regular reader.
    ///
    /// # Panics
    ///
    /// Panics if `objects.len() != cfg.s` or `j >= cfg.readers`.
    pub fn new(cfg: StorageConfig, j: usize, objects: Vec<ProcessId>) -> Self {
        Self::with_tuning(cfg, j, objects, false, false, ReaderTuning::default())
    }

    /// A §5.1-optimized regular reader (suffix histories + cached value).
    ///
    /// # Panics
    ///
    /// Panics if `objects.len() != cfg.s` or `j >= cfg.readers`.
    pub fn new_optimized(cfg: StorageConfig, j: usize, objects: Vec<ProcessId>) -> Self {
        Self::with_tuning(cfg, j, objects, true, false, ReaderTuning::default())
    }

    /// The reader a [`crate::ProtocolSpec::Regular`] describes: §5.1 or
    /// not, writing back (atomic reads, three rounds) or not, and with
    /// explicit ablation knobs (see [`ReaderTuning`]; anything but the
    /// default is for mutation and ablation experiments only).
    ///
    /// # Panics
    ///
    /// Panics if `objects.len() != cfg.s` or `j >= cfg.readers`.
    pub fn with_tuning(
        cfg: StorageConfig,
        j: usize,
        objects: Vec<ProcessId>,
        optimized: bool,
        write_back: bool,
        tuning: ReaderTuning,
    ) -> Self {
        let evidence = RegularEvidence::new(optimized, write_back);
        Self::with_evidence(cfg, j, objects, evidence, tuning)
    }

    /// The cached pair (meaningful in optimized mode).
    pub fn cache(&self) -> &TsVal<V> {
        &self.evidence().cache
    }

    /// The highest write timestamp this reader has returned — the GC
    /// acknowledgement piggybacked on its `READk` messages.
    pub fn acked(&self) -> Timestamp {
        self.evidence().acked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::tests::{deliver, invoke, Fixture};
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

    fn entry(w: WTuple<u64>) -> HistEntry<u64> {
        HistEntry {
            pw: w.tsval.clone(),
            w: Some(w),
        }
    }

    /// History with complete entries for writes 1..=n (value = 10*ts).
    fn full_history(n: u64) -> History<u64> {
        let mut h = History::initial();
        for k in 1..=n {
            let w = WTuple::new(TsVal::new(Timestamp(k), k * 10), TsrMatrix::empty());
            h.insert(Timestamp(k), entry(w));
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

    impl Fixture for RegularEvidence<u64> {
        fn evidence() -> Self {
            RegularEvidence::new(false, false)
        }

        fn ack(round: ReadRound, tsr: u64, ts: u64) -> Msg<u64> {
            ack(round, tsr, full_history(ts))
        }

        fn forged_ack(round: ReadRound, tsr: u64, honest: u64, w: WTuple<u64>) -> Msg<u64> {
            let mut h = full_history(honest);
            h.insert(w.ts(), entry(w));
            ack(round, tsr, h)
        }
    }

    #[test]
    fn returns_newest_confirmed_write() {
        let mut r = reader();
        let out = invoke(&mut r);
        assert_eq!(out.len(), 4);
        assert!(matches!(out[0].1, Msg::Read { since: None, .. }));
        for i in 0..3 {
            deliver(&mut r, i, ack(ReadRound::R1, 1, full_history(3)));
        }
        let got = r.take_outcome().expect("complete");
        assert_eq!(got.value, Some(30));
        assert_eq!(got.ts, Timestamp(3));
        assert_eq!(got.rounds, 1, "round 1 confirms write 3");
    }

    #[test]
    fn same_ts_different_tuples_require_full_confirmation() {
        let mut r = reader();
        invoke(&mut r);
        // Byzantine object reports write 1 with a tampered matrix.
        let mut tampered_matrix = TsrMatrix::empty();
        tampered_matrix.set_row(1, std::collections::BTreeMap::from([(0usize, 0u64)]));
        let tampered = WTuple::new(TsVal::new(Timestamp(1), 10), tampered_matrix);
        let forged = RegularEvidence::forged_ack(ReadRound::R1, 1, 0, tampered);
        deliver(&mut r, 3, forged);
        for i in 0..3 {
            deliver(&mut r, i, ack(ReadRound::R1, 1, full_history(1)));
        }
        let got = r.take_outcome().expect("complete");
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
        invoke(&mut r);
        let w2 = WTuple::new(TsVal::new(Timestamp(2), 20), TsrMatrix::empty());
        // Object 0: full entry for write 2 (nominates w2).
        let mut h0 = full_history(1);
        h0.insert(Timestamp(2), entry(w2.clone()));
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
        let got = r.take_outcome().expect("complete");
        assert_eq!(got.value, Some(20), "pw confirmations make w2 safe");
    }

    #[test]
    fn optimized_reader_sends_since_and_caches() {
        let mut r = RegularReader::new_optimized(cfg(), 0, objects());
        let out = invoke(&mut r);
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
        assert_eq!(r.take_outcome().unwrap().value, Some(20));
        assert_eq!(r.cache().ts, Timestamp(2), "cache updated to returned pair");

        // Second read requests the suffix from ts 2.
        let out2 = invoke(&mut r);
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
        invoke(&mut r);
        for i in 0..3 {
            deliver(&mut r, i, ack(ReadRound::R1, 1, full_history(2)));
        }
        assert_eq!(r.take_outcome().unwrap().value, Some(20));

        // Next read: all objects report empty suffixes (nothing newer).
        // The first read returned on round 1 and consumed reader timestamp
        // 1 only, so this read's tsrFR is 2.
        let out2 = invoke(&mut r);
        let tsr_fr = match out2[0].1 {
            Msg::Read { tsr, .. } => tsr,
            _ => unreachable!(),
        };
        assert_eq!(tsr_fr, 2);
        for i in 0..3 {
            deliver(&mut r, i, ack(ReadRound::R1, tsr_fr, History::empty()));
        }
        let got = r.take_outcome().expect("complete on empty C");
        assert_eq!(got.value, Some(20), "cached value returned");
        assert_eq!(got.ts, Timestamp(2));
    }

    #[test]
    fn unoptimized_reader_waits_out_empty_histories() {
        let mut r = reader();
        invoke(&mut r);
        // Two liars report empty histories, one honest object reports the
        // initial history: round 2 opens but w0 has only 1 confirmation
        // (< b+1 = 2) — the unoptimized reader must keep waiting rather
        // than invent a result from the empty candidate set.
        deliver(&mut r, 0, ack(ReadRound::R1, 1, History::empty()));
        deliver(&mut r, 1, ack(ReadRound::R1, 1, History::empty()));
        deliver(&mut r, 2, ack(ReadRound::R1, 1, History::initial()));
        assert!(r.take_outcome().is_none());
        // A second honest reply confirms w0: safe(w0) holds, ⊥ returned.
        deliver(&mut r, 3, ack(ReadRound::R1, 1, History::initial()));
        assert_eq!(r.take_outcome().unwrap().value, None);
    }

    #[test]
    fn optimized_reader_rejects_forged_entries_below_since() {
        // A Byzantine object ships history entries *below* the requested
        // suffix start. Candidates harvested from them can never be
        // confirmed: every correct suffix lacks those positions, so the
        // invalid(c) count reaches t+b+1 and the forgery dies.
        let mut r = RegularReader::new_optimized(cfg(), 0, objects());
        // Warm the cache to ts 2.
        invoke(&mut r);
        for i in 0..3 {
            deliver(&mut r, i, ack(ReadRound::R1, 1, full_history(2)));
        }
        assert_eq!(r.take_outcome().unwrap().value, Some(20));
        assert_eq!(r.cache().ts, Timestamp(2));

        // Second read: honest objects send empty suffixes; the liar sends
        // a "history" whose only candidate sits below since = 2.
        invoke(&mut r);
        let mut forged = History::empty();
        let fw = WTuple::new(TsVal::new(Timestamp(1), 666), TsrMatrix::empty());
        forged.insert(Timestamp(1), entry(fw));
        deliver(&mut r, 3, ack(ReadRound::R1, 2, forged));
        for i in 0..2 {
            deliver(&mut r, i, ack(ReadRound::R1, 2, History::empty()));
        }
        assert!(
            r.take_outcome().is_none(),
            "forged candidate still live: 2 < t+b+1"
        );
        deliver(&mut r, 2, ack(ReadRound::R1, 2, History::empty()));
        let got = r.take_outcome().expect("complete");
        assert_eq!(
            got.value,
            Some(20),
            "cache returned; the below-since forgery died"
        );
        assert_eq!(got.ts, Timestamp(2));
    }

    #[test]
    fn optimized_fast_path_updates_cache_ack_and_since() {
        // S = 5 = 2t+2b+1, t = b = 1: quorum = 4.
        let fast_cfg = StorageConfig::fast(1, 1, 1);
        let mut r =
            RegularReader::<u64>::new_optimized(fast_cfg, 0, (0..5).map(ProcessId).collect());
        invoke(&mut r);
        for i in 0..4 {
            deliver(&mut r, i, ack(ReadRound::R1, 1, full_history(3)));
        }
        let got = r.take_outcome().expect("complete");
        assert_eq!(got.rounds, 1);
        assert!(got.fast);
        assert_eq!(r.cache().ts, Timestamp(3), "cache updated on fast hit");
        assert_eq!(r.acked(), Timestamp(3), "fast hits still drive GC acks");
        // The next read asks for the suffix from the fast-returned pair.
        let out2 = invoke(&mut r);
        assert!(matches!(
            out2[0].1,
            Msg::Read {
                since: Some(Timestamp(3)),
                ..
            }
        ));
    }

    #[test]
    fn reads_piggyback_the_highest_returned_timestamp() {
        // The figures' reader, so that every READ has a round 2.
        let mut r =
            RegularReader::with_tuning(cfg(), 0, objects(), false, false, ReaderTuning::FIGURES);
        assert_eq!(r.acked(), Timestamp::ZERO);
        let out = invoke(&mut r);
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
        let out2 = invoke(&mut r);
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
        invoke(&mut r);
        for i in 0..3 {
            deliver(&mut r, i, ack(ReadRound::R1, 1, full_history(5)));
        }
        assert_eq!(r.take_outcome().unwrap().ts, Timestamp(5));
        assert_eq!(r.acked(), Timestamp(5));

        // Second read: objects now report only up to write 3 (e.g. the
        // first answer quorum was different).
        invoke(&mut r);
        for i in 0..3 {
            deliver(&mut r, i, ack(ReadRound::R1, 2, full_history(3)));
        }
        assert_eq!(r.take_outcome().unwrap().ts, Timestamp(3));
        assert_eq!(r.acked(), Timestamp(5), "high-water mark kept");
    }
}
