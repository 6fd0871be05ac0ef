//! Shared substrate of the baseline protocols: a base object holding a
//! single timestamp–value pair per field, and the message vocabulary for
//! one-round writes/reads plus the two-phase write of the passive baseline.
//!
//! Unlike the paper's objects (Figure 3), these objects never store reader
//! timestamps — baseline readers do not modify object state, which is
//! exactly the regime in which [ACKM04] proved reads need `b + 1` rounds.

use vrr_sim::{Automaton, Context, ProcessId, SimMessage};

use vrr_core::{Timestamp, TsVal, Value};

/// Messages of the baseline protocols.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LiteMsg<V> {
    /// First write phase (passive baseline only): stage the pair.
    PreWrite {
        /// The staged pair.
        pair: TsVal<V>,
    },
    /// Ack for [`LiteMsg::PreWrite`].
    PreWriteAck {
        /// Echo of the staged timestamp.
        ts: Timestamp,
    },
    /// Write (single-phase protocols) or second write phase (passive).
    Write {
        /// The written pair.
        pair: TsVal<V>,
    },
    /// Ack for [`LiteMsg::Write`].
    WriteAck {
        /// Echo of the written timestamp.
        ts: Timestamp,
    },
    /// Read request; `nonce` distinguishes rounds and operations.
    Read {
        /// Fresh per-round nonce.
        nonce: u64,
    },
    /// Read reply carrying both object fields.
    ReadAck {
        /// Echo of the request nonce.
        nonce: u64,
        /// The staged (`pw`) pair.
        pw: TsVal<V>,
        /// The written (`w`) pair.
        w: TsVal<V>,
    },
}

impl<V> LiteMsg<V> {
    /// Whether this is an object's ack to `request`: the ack of that kind,
    /// echoing its timestamp or nonce.
    pub(crate) fn answers(&self, request: &LiteMsg<V>) -> bool {
        match (request, self) {
            (LiteMsg::PreWrite { pair }, LiteMsg::PreWriteAck { ts })
            | (LiteMsg::Write { pair }, LiteMsg::WriteAck { ts }) => pair.ts == *ts,
            (LiteMsg::Read { nonce }, LiteMsg::ReadAck { nonce: echo, .. }) => nonce == echo,
            _ => false,
        }
    }
}

impl<V: Value> SimMessage for LiteMsg<V> {
    fn wire_size(&self) -> usize {
        1 + match self {
            LiteMsg::PreWrite { pair } | LiteMsg::Write { pair } => pair.wire_size(),
            LiteMsg::PreWriteAck { .. } | LiteMsg::WriteAck { .. } => 8,
            LiteMsg::Read { .. } => 8,
            LiteMsg::ReadAck { pw, w, .. } => 8 + pw.wire_size() + w.wire_size(),
        }
    }
}

/// A baseline base object: two timestamp–value registers (`pw`, `w`) with
/// monotone updates. Reads are pure: they never change object state.
#[derive(Clone, Debug)]
pub struct LiteObject<V> {
    pw: TsVal<V>,
    w: TsVal<V>,
}

impl<V: Value> LiteObject<V> {
    /// A fresh object holding `⟨0, ⊥⟩` in both fields.
    pub fn new() -> Self {
        LiteObject {
            pw: TsVal::bottom(),
            w: TsVal::bottom(),
        }
    }
}

impl<V: Value> Default for LiteObject<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Value> Automaton<LiteMsg<V>> for LiteObject<V> {
    fn on_message(&mut self, from: ProcessId, msg: LiteMsg<V>, ctx: &mut Context<'_, LiteMsg<V>>) {
        match msg {
            LiteMsg::PreWrite { pair } => {
                let ts = pair.ts;
                if pair.ts > self.pw.ts {
                    self.pw = pair;
                }
                ctx.send(from, LiteMsg::PreWriteAck { ts });
            }
            LiteMsg::Write { pair } => {
                let ts = pair.ts;
                if pair.ts > self.w.ts {
                    if pair.ts > self.pw.ts {
                        self.pw = pair.clone();
                    }
                    self.w = pair;
                }
                ctx.send(from, LiteMsg::WriteAck { ts });
            }
            LiteMsg::Read { nonce } => {
                ctx.send(
                    from,
                    LiteMsg::ReadAck {
                        nonce,
                        pw: self.pw.clone(),
                        w: self.w.clone(),
                    },
                );
            }
            LiteMsg::PreWriteAck { .. } | LiteMsg::WriteAck { .. } | LiteMsg::ReadAck { .. } => {}
        }
    }

    fn label(&self) -> &'static str {
        "lite-object"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(obj: &mut LiteObject<u64>, msg: LiteMsg<u64>) -> Vec<(ProcessId, LiteMsg<u64>)> {
        let mut out = Vec::new();
        let mut ctx = Context::new(ProcessId(0), &mut out);
        obj.on_message(ProcessId(7), msg, &mut ctx);
        out
    }

    fn pair(ts: u64, v: u64) -> TsVal<u64> {
        TsVal::new(Timestamp(ts), v)
    }

    #[test]
    fn writes_are_monotone_and_always_acked() {
        let mut obj = LiteObject::new();
        assert_eq!(
            step(&mut obj, LiteMsg::Write { pair: pair(2, 20) }).len(),
            1
        );
        let out = step(&mut obj, LiteMsg::Write { pair: pair(1, 10) });
        assert_eq!(
            out.len(),
            1,
            "stale writes still acked (idempotent protocol)"
        );
        assert_eq!(obj.w.value, Some(20), "stale write must not regress state");
    }

    #[test]
    fn write_also_advances_pw() {
        let mut obj = LiteObject::new();
        step(&mut obj, LiteMsg::Write { pair: pair(3, 30) });
        assert_eq!(
            obj.pw.ts,
            Timestamp(3),
            "w-write implies the pair was pre-written"
        );
    }

    #[test]
    fn prewrite_stages_without_committing() {
        let mut obj = LiteObject::new();
        step(&mut obj, LiteMsg::PreWrite { pair: pair(1, 10) });
        assert_eq!(obj.pw.value, Some(10));
        assert_eq!(obj.w.value, None, "w untouched by pre-write");
    }

    #[test]
    fn reads_are_pure() {
        let mut obj = LiteObject::new();
        step(&mut obj, LiteMsg::Write { pair: pair(1, 10) });
        let before = obj.clone();
        let out = step(&mut obj, LiteMsg::Read { nonce: 9 });
        match &out[..] {
            [(_, LiteMsg::ReadAck { nonce: 9, w, .. })] => assert_eq!(w.value, Some(10)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(obj.pw, before.pw);
        assert_eq!(obj.w, before.w);
    }
}
