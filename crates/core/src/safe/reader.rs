//! The safe-storage reader: Figure 4 as an [`Evidence`] for the one
//! [`Reader`] (the automaton and its documentation live in
//! [`crate::reader`]).
//!
//! A safe object answers `READk` with its current `pw` and `w` fields, so a
//! reply is the pair `⟨pw, w⟩`; nothing is remembered between READs.

use vrr_sim::ProcessId;

use crate::config::StorageConfig;
use crate::msg::{Msg, ReadRound};
use crate::reader::{Evidence, Reader, ReaderTuning};
use crate::types::{Timestamp, TsVal, Value, WTuple};

/// Figure 4's reading of a `READk_ACK⟨tsr, pw, w⟩`.
#[derive(Clone, Debug)]
pub struct SafeEvidence;

/// The reader automaton `r_j` of the safe protocol (Figure 4).
pub type SafeReader<V> = Reader<V, SafeEvidence>;

impl<V: Value> Evidence<V> for SafeEvidence {
    /// `⟨pw, w⟩`.
    type Reply = (TsVal<V>, WTuple<V>);

    const LABEL: &'static str = "safe-reader";

    fn open(msg: Msg<V>) -> Option<(ReadRound, u64, Self::Reply)> {
        match msg {
            Msg::ReadAckSafe { round, tsr, pw, w } => Some((round, tsr, (pw, w))),
            _ => None,
        }
    }

    fn nominated((_, w): &Self::Reply) -> impl Iterator<Item = &WTuple<V>> {
        std::iter::once(w)
    }

    /// `RespondedWO(c)` (line 2): the object reported some `w` tuple
    /// different from `c`.
    fn contradicts((_, w): &Self::Reply, c: &WTuple<V>) -> bool {
        w != c
    }

    /// The per-object test behind `safe(c)` (line 3): the object reported
    /// `c` (or `c.tsval` in `pw`), or anything with a strictly higher
    /// timestamp.
    fn supports((pw, w): &Self::Reply, c: &WTuple<V>) -> bool {
        let ts = c.ts();
        w == c || w.ts() > ts || *pw == c.tsval || pw.ts > ts
    }

    fn confirms((pw, w): &Self::Reply, c: &WTuple<V>) -> bool {
        w == c || *pw == c.tsval
    }

    /// The safe object keeps no history: no suffix to ask for, nothing to GC.
    fn request_fields(&self) -> (Option<Timestamp>, Timestamp) {
        (None, Timestamp::ZERO)
    }

    fn on_return(&mut self, _c: &WTuple<V>) {}

    /// Lines 15–16: return the default value `v0 = ⊥`.
    fn on_empty(&self) -> Option<TsVal<V>> {
        Some(TsVal::bottom())
    }
}

impl<V: Value> Reader<V, SafeEvidence> {
    /// A reader with index `j` for the given deployment.
    ///
    /// # Panics
    ///
    /// Panics if `objects.len() != cfg.s` or `j >= cfg.readers`.
    pub fn new(cfg: StorageConfig, j: usize, objects: Vec<ProcessId>) -> Self {
        Self::with_tuning(cfg, j, objects, ReaderTuning::default())
    }

    /// A reader with explicit ablation knobs (see [`ReaderTuning`]); for
    /// mutation and ablation experiments only.
    ///
    /// # Panics
    ///
    /// Panics if `objects.len() != cfg.s` or `j >= cfg.readers`.
    pub fn with_tuning(
        cfg: StorageConfig,
        j: usize,
        objects: Vec<ProcessId>,
        tuning: ReaderTuning,
    ) -> Self {
        Self::with_evidence(cfg, j, objects, SafeEvidence, tuning)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::reader::tests::{deliver, invoke, Fixture};
    use crate::types::TsrMatrix;

    impl Fixture for SafeEvidence {
        fn evidence() -> Self {
            SafeEvidence
        }

        fn ack(round: ReadRound, tsr: u64, ts: u64) -> Msg<u64> {
            let w = match ts {
                0 => WTuple::initial(),
                _ => WTuple::new(TsVal::new(Timestamp(ts), ts * 10), TsrMatrix::empty()),
            };
            Self::forged_ack(round, tsr, ts, w)
        }

        fn forged_ack(round: ReadRound, tsr: u64, _honest: u64, w: WTuple<u64>) -> Msg<u64> {
            Msg::ReadAckSafe {
                round,
                tsr,
                pw: w.tsval.clone(),
                w,
            }
        }
    }

    #[test]
    fn two_candidates_same_ts_both_high_one_safe() {
        // Byzantine object reports a tuple with the same timestamp as the
        // real write but a different matrix: both are "high"; only the real
        // one gathers b+1 support.
        let objects = (0..4).map(ProcessId).collect();
        let mut r = SafeReader::<u64>::new(StorageConfig::optimal(1, 1, 1), 0, objects);
        invoke(&mut r);
        let mut forged_matrix = TsrMatrix::empty();
        forged_matrix.set_row(2, BTreeMap::from([(0usize, 0u64)]));
        let forged = Msg::ReadAckSafe {
            round: ReadRound::R1,
            tsr: 1,
            pw: TsVal::new(Timestamp(1), 10),
            w: WTuple::new(TsVal::new(Timestamp(1), 9), forged_matrix),
        };
        deliver(&mut r, 3, forged);
        for i in 0..3 {
            deliver(&mut r, i, SafeEvidence::ack(ReadRound::R1, 1, 1));
        }
        let got = r.take_outcome().expect("complete");
        assert_eq!(got.value, Some(10), "only the corroborated tuple is safe");
    }

    #[test]
    fn something_newer_supports_a_candidate_but_never_confirms_it() {
        // safe(c) counts "c or anything with a strictly higher timestamp"
        // (line 3); the fast path accepts the candidate itself only.
        let tuple = |ts: u64| WTuple::new(TsVal::new(Timestamp(ts), ts * 10), TsrMatrix::empty());
        let (c, newer) = (tuple(1), tuple(2));
        let reply = (newer.tsval.clone(), newer);
        assert!(<SafeEvidence as Evidence<u64>>::supports(&reply, &c));
        assert!(!<SafeEvidence as Evidence<u64>>::confirms(&reply, &c));
        assert!(<SafeEvidence as Evidence<u64>>::contradicts(&reply, &c));
        // A pw-only match (the W round has not reached the object yet)
        // confirms exactly, and still counts as a reply without `c`.
        let pw_only = (c.tsval.clone(), WTuple::initial());
        assert!(<SafeEvidence as Evidence<u64>>::confirms(&pw_only, &c));
        assert!(<SafeEvidence as Evidence<u64>>::contradicts(&pw_only, &c));
    }
}
