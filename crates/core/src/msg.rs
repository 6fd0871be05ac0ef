//! The protocol message vocabulary.
//!
//! One message enum serves both the safe protocol (Figures 2–4) and the
//! regular protocol (Figures 5–6): writes are identical, and read ACKs come
//! in a safe flavour (current `pw`/`w`) and a regular flavour (a history).
//!
//! The reader's round-1 return (see [`crate::reader`]; guaranteed at
//! [`crate::StorageConfig::guarantees_one_round_reads`]) adds **no**
//! message kinds: a round-1 `READ_ACK` quorum that proves the answer
//! completes the read without the `READ2` broadcast ever being sent, so
//! objects cannot tell a one-round read from the first round of a
//! two-round one.
//!
//! The atomic extension adds one: [`Msg::WriteBack`], answered with the
//! `WRITE_ACK` the writer's `W` gets.

use std::fmt;

use vrr_sim::SimMessage;

use crate::types::{History, Timestamp, TsVal, Value, WTuple};

/// Which round of a READ a message belongs to (`READ1`/`READ2`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ReadRound {
    /// First round.
    R1,
    /// Second round.
    R2,
}

impl ReadRound {
    /// 1-based round number.
    pub fn number(self) -> u32 {
        match self {
            ReadRound::R1 => 1,
            ReadRound::R2 => 2,
        }
    }
}

/// A message of the safe or regular storage protocol. Its byte encoding is
/// the `wire_enum!` table in [`crate::wire`].
#[derive(Clone, PartialEq, Eq)]
pub enum Msg<V> {
    /// `PW⟨ts, pw, w⟩`: first write round (Figure 2 line 5).
    Pw {
        /// The write timestamp.
        ts: Timestamp,
        /// The pair being written.
        pw: TsVal<V>,
        /// The previous write's `w` tuple.
        w: WTuple<V>,
    },
    /// `PW_ACK⟨ts, tsr⟩`: object's reply carrying its reader-timestamp
    /// vector (Figure 3 line 6).
    PwAck {
        /// Echo of the write timestamp.
        ts: Timestamp,
        /// The object's `tsr[1..R]` vector (reader index → timestamp).
        tsr: std::collections::BTreeMap<usize, u64>,
    },
    /// `W⟨ts, pw, w⟩`: second write round (Figure 2 line 8).
    W {
        /// The write timestamp.
        ts: Timestamp,
        /// The pair being written.
        pw: TsVal<V>,
        /// The tuple `⟨pw, currenttsrarray⟩` assembled after `PW`.
        w: WTuple<V>,
    },
    /// `WRITE_ACK⟨ts⟩` (Figure 3 line 11).
    WAck {
        /// Echo of the write timestamp.
        ts: Timestamp,
    },
    /// `READk⟨tsr⟩` from reader `j` (Figure 4 lines 10/13).
    ///
    /// `since` is `None` in the paper-faithful protocols; the §5.1
    /// optimization sets it to the reader's cached timestamp so objects ship
    /// only a history suffix.
    ///
    /// `ack` is the history-GC acknowledgement (an extension over the
    /// paper): the highest write timestamp this reader has *returned* from
    /// a completed READ. Regular objects running
    /// [`crate::regular::HistoryRetention::ReaderAck`] collect these into a
    /// per-reader ack vector and truncate history entries every reader has
    /// moved past; the safe protocol keeps no history and always sends
    /// [`Timestamp::ZERO`].
    Read {
        /// Round this request opens.
        round: ReadRound,
        /// The reader's index `j`.
        reader: usize,
        /// The reader's fresh timestamp `tsr'_j`.
        tsr: u64,
        /// History suffix start for the optimized regular protocol.
        since: Option<Timestamp>,
        /// Highest write timestamp the reader has safely returned
        /// (history-GC acknowledgement; `Timestamp::ZERO` before the first
        /// completed read and in the safe protocol).
        ack: Timestamp,
    },
    /// `READk_ACK⟨tsr, pw, w⟩`: safe-protocol reply (Figure 3 line 16).
    ReadAckSafe {
        /// Round being answered.
        round: ReadRound,
        /// Echo of the reader timestamp this ACK answers.
        tsr: u64,
        /// The object's current `pw` field.
        pw: TsVal<V>,
        /// The object's current `w` field.
        w: WTuple<V>,
    },
    /// `READk_ACK⟨tsr, history⟩`: regular-protocol reply (Figure 5 line 18).
    ReadAckRegular {
        /// Round being answered.
        round: ReadRound,
        /// Echo of the reader timestamp this ACK answers.
        tsr: u64,
        /// The object's history (full, or a suffix under §5.1).
        history: History<V>,
    },
    /// A reader's write-back of the tuple its READ selected — the third
    /// round of an atomic READ (extension; [`crate::reader`] has the
    /// argument). Not a write: a regular object fills the tuple in only
    /// where it holds no `w` at that timestamp, and answers
    /// `WRITE_ACK⟨w.ts⟩` whatever it stored.
    WriteBack {
        /// The selected tuple, exactly as an object reported it.
        w: WTuple<V>,
    },
}

impl<V: fmt::Debug> fmt::Debug for Msg<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Msg::Pw { ts, pw, .. } => write!(f, "PW⟨{ts:?},{pw:?}⟩"),
            Msg::PwAck { ts, .. } => write!(f, "PW_ACK⟨{ts:?}⟩"),
            Msg::W { ts, pw, .. } => write!(f, "W⟨{ts:?},{pw:?}⟩"),
            Msg::WAck { ts } => write!(f, "W_ACK⟨{ts:?}⟩"),
            Msg::Read {
                round,
                reader,
                tsr,
                since,
                ack,
            } => {
                write!(f, "READ{}⟨r{reader},tsr{tsr}", round.number())?;
                if let Some(s) = since {
                    write!(f, ",since {s:?}")?;
                }
                if *ack > Timestamp::ZERO {
                    write!(f, ",ack {ack:?}")?;
                }
                write!(f, "⟩")
            }
            Msg::ReadAckSafe { round, tsr, pw, w } => {
                write!(f, "READ{}_ACK⟨tsr{tsr},{pw:?},{w:?}⟩", round.number())
            }
            Msg::ReadAckRegular {
                round,
                tsr,
                history,
            } => {
                write!(
                    f,
                    "READ{}_ACK⟨tsr{tsr},|h|={}⟩",
                    round.number(),
                    history.len()
                )
            }
            Msg::WriteBack { w } => write!(f, "WB⟨{:?}⟩", w.tsval),
        }
    }
}

impl<V: Value> SimMessage for Msg<V> {
    fn wire_size(&self) -> usize {
        crate::wire::encoded_len(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{HistEntry, TsrMatrix};

    #[test]
    fn round_numbers() {
        assert_eq!(ReadRound::R1.number(), 1);
        assert_eq!(ReadRound::R2.number(), 2);
        assert!(ReadRound::R1 < ReadRound::R2);
    }

    #[test]
    fn regular_ack_size_grows_with_history() {
        let mut h: History<u64> = History::initial();
        let small = Msg::ReadAckRegular {
            round: ReadRound::R1,
            tsr: 1,
            history: h.clone(),
        }
        .wire_size();
        for k in 1..=50u64 {
            h.insert(
                Timestamp(k),
                HistEntry {
                    pw: TsVal::new(Timestamp(k), k),
                    w: None,
                },
            );
        }
        let big = Msg::ReadAckRegular {
            round: ReadRound::R1,
            tsr: 1,
            history: h,
        }
        .wire_size();
        assert!(
            big > small + 50 * 8,
            "history must dominate ack size: {small} -> {big}"
        );
    }

    #[test]
    fn safe_ack_size_is_bounded() {
        let w = WTuple::new(TsVal::new(Timestamp(3), 1u64), TsrMatrix::empty());
        let m = Msg::ReadAckSafe {
            round: ReadRound::R2,
            tsr: 4,
            pw: TsVal::new(Timestamp(3), 1u64),
            w,
        };
        assert!(m.wire_size() < 100);
    }

    #[test]
    fn debug_render_is_compact() {
        let m: Msg<u64> = Msg::Read {
            round: ReadRound::R1,
            reader: 2,
            tsr: 7,
            since: None,
            ack: Timestamp::ZERO,
        };
        assert_eq!(format!("{m:?}"), "READ1⟨r2,tsr7⟩");
        let m: Msg<u64> = Msg::Read {
            round: ReadRound::R2,
            reader: 0,
            tsr: 8,
            since: None,
            ack: Timestamp(5),
        };
        assert_eq!(format!("{m:?}"), "READ2⟨r0,tsr8,ack ts5⟩");
        let m: Msg<u64> = Msg::WAck { ts: Timestamp(4) };
        assert_eq!(format!("{m:?}"), "W_ACK⟨ts4⟩");
    }
}
