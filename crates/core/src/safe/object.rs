//! The safe-storage base object (Figure 3).
//!
//! State: a timestamp `ts`, a timestamp–value pair `pw`, a tuple `w`, and
//! one reader timestamp `tsr[j]` per reader. All updates are monotone in the
//! relevant timestamp, and the object replies *only* when it updated — the
//! guard-then-ack structure of Figure 3 (stale messages get no reply).

use std::collections::BTreeMap;

use vrr_sim::{Automaton, Context, ProcessId};

use crate::msg::Msg;
use crate::types::{Timestamp, TsVal, Value, WTuple};

/// A correct base object of the safe protocol.
#[derive(Clone, Debug)]
pub struct SafeObject<V> {
    ts: Timestamp,
    pw: TsVal<V>,
    w: WTuple<V>,
    tsr: BTreeMap<usize, u64>,
}

impl<V: Value> SafeObject<V> {
    /// A freshly initialized object (Figure 3 lines 1–2).
    pub fn new() -> Self {
        SafeObject {
            ts: Timestamp::ZERO,
            pw: TsVal::bottom(),
            w: WTuple::initial(),
            tsr: BTreeMap::new(),
        }
    }

    /// The current write timestamp.
    pub fn ts(&self) -> Timestamp {
        self.ts
    }

    /// The current `pw` field.
    pub fn pw(&self) -> &TsVal<V> {
        &self.pw
    }

    /// The current `w` field.
    pub fn w(&self) -> &WTuple<V> {
        &self.w
    }

    /// The stored timestamp of reader `j` (0 if never contacted).
    pub fn tsr(&self, j: usize) -> u64 {
        self.tsr.get(&j).copied().unwrap_or(0)
    }
}

impl<V: Value> Default for SafeObject<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Value> Automaton<Msg<V>> for SafeObject<V> {
    fn on_message(&mut self, from: ProcessId, msg: Msg<V>, ctx: &mut Context<'_, Msg<V>>) {
        match msg {
            // Figure 3 lines 3–7.
            Msg::Pw { ts, pw, w } => {
                if ts > self.ts {
                    self.ts = ts;
                    self.pw = pw;
                    self.w = w;
                    ctx.send(
                        from,
                        Msg::PwAck {
                            ts: self.ts,
                            tsr: self.tsr.clone(),
                        },
                    );
                }
            }
            // Figure 3 lines 8–12.
            Msg::W { ts, pw, w } => {
                if ts >= self.ts {
                    self.ts = ts;
                    self.pw = pw;
                    self.w = w;
                    ctx.send(from, Msg::WAck { ts });
                }
            }
            // Figure 3 lines 13–17.
            Msg::Read {
                round, reader, tsr, ..
            } => {
                if tsr > self.tsr(reader) {
                    self.tsr.insert(reader, tsr);
                    ctx.send(
                        from,
                        Msg::ReadAckSafe {
                            round,
                            tsr,
                            pw: self.pw.clone(),
                            w: self.w.clone(),
                        },
                    );
                }
            }
            // ACK variants are client-bound and a write-back belongs to the
            // regular protocol's atomic extension; a correct object ignores
            // strays.
            Msg::PwAck { .. }
            | Msg::WAck { .. }
            | Msg::ReadAckSafe { .. }
            | Msg::ReadAckRegular { .. }
            | Msg::WriteBack { .. } => {}
        }
    }

    fn label(&self) -> &'static str {
        "safe-object"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::ReadRound;
    use crate::types::TsrMatrix;

    fn step(obj: &mut SafeObject<u64>, msg: Msg<u64>) -> Vec<(ProcessId, Msg<u64>)> {
        let mut out = Vec::new();
        let mut ctx = Context::new(ProcessId(0), &mut out);
        obj.on_message(ProcessId(9), msg, &mut ctx);
        out
    }

    fn pw_msg(ts: u64, v: u64) -> Msg<u64> {
        Msg::Pw {
            ts: Timestamp(ts),
            pw: TsVal::new(Timestamp(ts), v),
            w: WTuple::initial(),
        }
    }

    fn w_msg(ts: u64, v: u64) -> Msg<u64> {
        let tsval = TsVal::new(Timestamp(ts), v);
        Msg::W {
            ts: Timestamp(ts),
            pw: tsval.clone(),
            w: WTuple::new(tsval, TsrMatrix::empty()),
        }
    }

    #[test]
    fn pw_updates_and_acks_with_tsr() {
        let mut obj = SafeObject::new();
        let out = step(&mut obj, pw_msg(1, 42));
        assert_eq!(obj.ts(), Timestamp(1));
        assert_eq!(obj.pw().value, Some(42));
        assert!(
            matches!(&out[..], [(to, Msg::PwAck { ts: Timestamp(1), .. })] if *to == ProcessId(9))
        );
    }

    #[test]
    fn stale_pw_is_silently_ignored() {
        let mut obj = SafeObject::new();
        step(&mut obj, pw_msg(2, 42));
        let out = step(&mut obj, pw_msg(1, 7));
        assert!(
            out.is_empty(),
            "stale PW must not be acked (Figure 3 guard)"
        );
        assert_eq!(obj.pw().value, Some(42));
    }

    #[test]
    fn w_accepts_equal_timestamp() {
        let mut obj = SafeObject::new();
        step(&mut obj, pw_msg(1, 42));
        // W of the same write: ts' >= ts.
        let out = step(&mut obj, w_msg(1, 42));
        assert_eq!(out.len(), 1);
        assert_eq!(obj.w().ts(), Timestamp(1));
    }

    #[test]
    fn late_w_after_newer_pw_is_ignored() {
        let mut obj = SafeObject::new();
        step(&mut obj, pw_msg(2, 50)); // PW of write 2 overtook W of write 1
        let out = step(&mut obj, w_msg(1, 42));
        assert!(out.is_empty());
        assert_eq!(obj.ts(), Timestamp(2));
    }

    #[test]
    fn read_bumps_tsr_and_replies_current_state() {
        let mut obj = SafeObject::new();
        step(&mut obj, pw_msg(1, 42));
        let out = step(
            &mut obj,
            Msg::Read {
                round: ReadRound::R1,
                reader: 3,
                tsr: 5,
                since: None,
                ack: Timestamp::ZERO,
            },
        );
        assert_eq!(obj.tsr(3), 5);
        match &out[..] {
            [(
                _,
                Msg::ReadAckSafe {
                    round: ReadRound::R1,
                    tsr: 5,
                    pw,
                    ..
                },
            )] => {
                assert_eq!(pw.value, Some(42));
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn stale_read_timestamp_gets_no_reply() {
        let mut obj = SafeObject::new();
        step(
            &mut obj,
            Msg::Read {
                round: ReadRound::R1,
                reader: 0,
                tsr: 5,
                since: None,
                ack: Timestamp::ZERO,
            },
        );
        let out = step(
            &mut obj,
            Msg::Read {
                round: ReadRound::R2,
                reader: 0,
                tsr: 5,
                since: None,
                ack: Timestamp::ZERO,
            },
        );
        assert!(out.is_empty(), "equal tsr must be rejected (strict >)");
        assert_eq!(obj.tsr(0), 5);
    }

    #[test]
    fn reader_timestamps_are_per_reader() {
        let mut obj = SafeObject::new();
        step(
            &mut obj,
            Msg::Read {
                round: ReadRound::R1,
                reader: 0,
                tsr: 9,
                since: None,
                ack: Timestamp::ZERO,
            },
        );
        let out = step(
            &mut obj,
            Msg::Read {
                round: ReadRound::R1,
                reader: 1,
                tsr: 1,
                since: None,
                ack: Timestamp::ZERO,
            },
        );
        assert_eq!(out.len(), 1, "other readers' timestamps must not interfere");
        assert_eq!(obj.tsr(0), 9);
        assert_eq!(obj.tsr(1), 1);
    }

    #[test]
    fn ignores_stray_acks() {
        let mut obj: SafeObject<u64> = SafeObject::new();
        let out = step(&mut obj, Msg::WAck { ts: Timestamp(1) });
        assert!(out.is_empty());
        assert_eq!(obj.ts(), Timestamp::ZERO);
    }

    #[test]
    fn ignores_a_stray_write_back() {
        let mut obj: SafeObject<u64> = SafeObject::new();
        let w = WTuple::new(TsVal::new(Timestamp(1), 5), TsrMatrix::empty());
        assert!(step(&mut obj, Msg::WriteBack { w }).is_empty());
        assert_eq!(obj.ts(), Timestamp::ZERO);
        assert_eq!(obj.w(), &WTuple::initial());
    }
}
