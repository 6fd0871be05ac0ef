//! The writer automaton (Figure 2).
//!
//! Shared by the safe and regular protocols — §5: "The WRITE implementation
//! remains unchanged". A WRITE takes exactly two rounds:
//!
//! 1. **`PW`** — write `⟨ts, v⟩` into the objects' `pw` fields *and* read
//!    back each object's reader-timestamp vector `tsr[1..R]`;
//! 2. **`W`** — write the tuple `⟨pw, currenttsrarray⟩` into the objects'
//!    `w` fields.
//!
//! Collecting the reader timestamps in `PW` and republishing them in `W` is
//! what arms the readers' `conflict` predicate against Byzantine objects.

use vrr_sim::{Automaton, Context, ProcessId};

use crate::config::StorageConfig;
use crate::msg::Msg;
use crate::types::{Timestamp, TsVal, TsrMatrix, Value, WTuple};

/// Report for a completed WRITE.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteReport {
    /// Timestamp the write got.
    pub ts: Timestamp,
    /// Communication round-trips used (always 2 in this protocol).
    pub rounds: u32,
}

/// Where the one WRITE is; `acks` has a bit per object that acknowledged.
#[derive(Clone, Debug)]
enum Phase {
    Idle,
    Pw { acks: u64 },
    W { acks: u64 },
}

/// The single writer `w` of the SWMR storage (Figure 2).
///
/// Event-driven port of the pseudocode: `invoke_write` performs lines 3–5,
/// the `PW_ACK` handler performs lines 6–8 and 11, and the `WRITE_ACK`
/// handler performs lines 9–10. A driver runs a WRITE as one submitted
/// operation (`World::submit` in the simulator, `Cluster::submit` on
/// threads) that starts with `invoke_write` and polls
/// [`Writer::take_outcome`].
#[derive(Clone, Debug)]
pub struct Writer<V> {
    cfg: StorageConfig,
    objects: Vec<ProcessId>,
    ts: Timestamp,
    pw: TsVal<V>,
    w: WTuple<V>,
    current_tsr: TsrMatrix,
    phase: Phase,
    /// The report of the last WRITE, until taken.
    outcome: Option<WriteReport>,
}

impl<V: Value> Writer<V> {
    /// A writer for the given deployment.
    ///
    /// # Panics
    ///
    /// Panics if `objects.len() != cfg.s` or `cfg.s > 64`.
    pub fn new(cfg: StorageConfig, objects: Vec<ProcessId>) -> Self {
        assert_eq!(objects.len(), cfg.s, "writer must know all S objects");
        assert!(cfg.s <= 64, "one bit per object: at most 64 objects");
        Writer {
            cfg,
            objects,
            ts: Timestamp::ZERO,
            pw: TsVal::bottom(),
            w: WTuple::initial(),
            current_tsr: TsrMatrix::empty(),
            phase: Phase::Idle,
            outcome: None,
        }
    }

    /// Starts `WRITE(v)` (Figure 2 lines 3–5).
    ///
    /// # Panics
    ///
    /// Panics if a WRITE is already in progress: the model has clients
    /// "invoke at most one operation at a time" (§2.2).
    pub fn invoke_write(&mut self, value: V, ctx: &mut Context<'_, Msg<V>>) {
        assert!(
            matches!(self.phase, Phase::Idle),
            "the single writer is well-formed: one WRITE at a time"
        );
        self.ts = self.ts.next();
        self.current_tsr = TsrMatrix::empty();
        self.pw = TsVal::new(self.ts, value);
        // Line 5: send PW⟨ts, pw, w⟩ — `w` is still the previous write's
        // tuple, which is how objects (and regular histories) learn it.
        let msg = Msg::Pw {
            ts: self.ts,
            pw: self.pw.clone(),
            w: self.w.clone(),
        };
        ctx.broadcast(self.objects.iter().copied(), msg);
        self.phase = Phase::Pw { acks: 0 };
    }

    /// The report of the WRITE that completed last, if not taken yet.
    pub fn take_outcome(&mut self) -> Option<WriteReport> {
        self.outcome.take()
    }

    /// Whether no WRITE is in progress.
    pub fn is_idle(&self) -> bool {
        matches!(self.phase, Phase::Idle)
    }

    /// The timestamp of the most recent write (0 before any write).
    pub fn current_ts(&self) -> Timestamp {
        self.ts
    }
}

impl<V: Value> Automaton<Msg<V>> for Writer<V> {
    fn on_message(&mut self, from: ProcessId, msg: Msg<V>, ctx: &mut Context<'_, Msg<V>>) {
        let Some(obj) = self.objects.iter().position(|&p| p == from) else {
            return; // not an object we know; ignore
        };
        let bit = 1u64 << obj;
        match msg {
            Msg::PwAck { ts, tsr } => {
                // Figure 2 lines 6 + 10–11: the `upon` handler pattern-matches
                // the current ts, so stale acks are dropped.
                let Phase::Pw { ref mut acks } = self.phase else {
                    return;
                };
                if ts != self.ts {
                    return;
                }
                if *acks & bit == 0 {
                    *acks |= bit;
                    self.current_tsr.set_row(obj, tsr);
                }
                if acks.count_ones() as usize >= self.cfg.quorum() {
                    // Lines 7–8: fix w and open the W round. The matrix is
                    // sealed here: every later copy of w shares it.
                    self.w = WTuple::new(self.pw.clone(), std::mem::take(&mut self.current_tsr));
                    let msg = Msg::W {
                        ts: self.ts,
                        pw: self.pw.clone(),
                        w: self.w.clone(),
                    };
                    ctx.broadcast(self.objects.iter().copied(), msg);
                    self.phase = Phase::W { acks: 0 };
                }
            }
            Msg::WAck { ts } => {
                // Figure 2 lines 9–10.
                let Phase::W { ref mut acks } = self.phase else {
                    return;
                };
                if ts != self.ts {
                    return;
                }
                *acks |= bit;
                if acks.count_ones() as usize >= self.cfg.quorum() {
                    self.outcome = Some(WriteReport {
                        ts: self.ts,
                        rounds: 2,
                    });
                    self.phase = Phase::Idle;
                }
            }
            _ => {}
        }
    }

    fn label(&self) -> &'static str {
        "writer"
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    fn cfg() -> StorageConfig {
        StorageConfig::optimal(1, 1, 1) // S = 4, quorum = 3
    }

    fn objects() -> Vec<ProcessId> {
        (0..4).map(ProcessId).collect()
    }

    fn drive(w: &mut Writer<u64>, from: ProcessId, msg: Msg<u64>) -> Vec<(ProcessId, Msg<u64>)> {
        let mut out = Vec::new();
        let mut ctx = Context::new(ProcessId(10), &mut out);
        w.on_message(from, msg, &mut ctx);
        out
    }

    fn invoke(w: &mut Writer<u64>, v: u64) -> Vec<(ProcessId, Msg<u64>)> {
        let mut out = Vec::new();
        w.invoke_write(v, &mut Context::new(ProcessId(10), &mut out));
        out
    }

    #[test]
    fn write_broadcasts_pw_then_w_then_completes() {
        let mut w = Writer::new(cfg(), objects());
        let out = invoke(&mut w, 42);
        assert_eq!(out.len(), 4, "PW to all objects");
        assert!(matches!(
            out[0].1,
            Msg::Pw {
                ts: Timestamp(1),
                ..
            }
        ));

        // Three PW acks trigger the W round.
        for i in 0..2 {
            let sent = drive(
                &mut w,
                ProcessId(i),
                Msg::PwAck {
                    ts: Timestamp(1),
                    tsr: BTreeMap::new(),
                },
            );
            assert!(sent.is_empty());
        }
        let sent = drive(
            &mut w,
            ProcessId(2),
            Msg::PwAck {
                ts: Timestamp(1),
                tsr: BTreeMap::new(),
            },
        );
        assert_eq!(sent.len(), 4, "W to all objects after quorum of PW acks");
        assert!(matches!(
            sent[0].1,
            Msg::W {
                ts: Timestamp(1),
                ..
            }
        ));
        assert!(w.take_outcome().is_none());

        for i in 0..3 {
            drive(&mut w, ProcessId(i), Msg::WAck { ts: Timestamp(1) });
        }
        let outcome = w.take_outcome().expect("write complete");
        assert_eq!(outcome.rounds, 2);
        assert_eq!(outcome.ts, Timestamp(1));
        assert!(w.is_idle());
    }

    #[test]
    fn w_tuple_snapshots_exactly_the_quorum_tsr_rows() {
        let mut w = Writer::new(cfg(), objects());
        invoke(&mut w, 42);
        // Objects 0, 1, 3 ack with distinct tsr vectors.
        for (i, tsr) in [(0usize, 5u64), (1, 7), (3, 9)] {
            drive(
                &mut w,
                ProcessId(i),
                Msg::PwAck {
                    ts: Timestamp(1),
                    tsr: BTreeMap::from([(0, tsr)]),
                },
            );
        }
        // The W broadcast carries tsrarray with rows exactly {0, 1, 3}.
        // Inspect through the writer's own w field.
        assert_eq!(w.w.tsrarray.len(), 3);
        assert_eq!(w.w.tsrarray.get(0, 0), Some(5));
        assert_eq!(w.w.tsrarray.get(1, 0), Some(7));
        assert_eq!(w.w.tsrarray.get(3, 0), Some(9));
        assert_eq!(w.w.tsrarray.get(2, 0), None, "non-acking object stays nil");
    }

    #[test]
    fn duplicate_acks_do_not_advance() {
        let mut w = Writer::new(cfg(), objects());
        invoke(&mut w, 1);
        for _ in 0..5 {
            let sent = drive(
                &mut w,
                ProcessId(0),
                Msg::PwAck {
                    ts: Timestamp(1),
                    tsr: BTreeMap::new(),
                },
            );
            assert!(
                sent.is_empty(),
                "duplicates from one object must not form a quorum"
            );
        }
    }

    #[test]
    fn stale_acks_are_ignored() {
        let mut w = Writer::new(cfg(), objects());
        invoke(&mut w, 1);
        for i in 0..3 {
            drive(
                &mut w,
                ProcessId(i),
                Msg::PwAck {
                    ts: Timestamp(1),
                    tsr: BTreeMap::new(),
                },
            );
        }
        for i in 0..3 {
            drive(&mut w, ProcessId(i), Msg::WAck { ts: Timestamp(1) });
        }
        assert!(w.take_outcome().is_some());

        invoke(&mut w, 2);
        // Acks echoing the old timestamp must not advance write 2.
        for i in 0..3 {
            drive(
                &mut w,
                ProcessId(i),
                Msg::PwAck {
                    ts: Timestamp(1),
                    tsr: BTreeMap::new(),
                },
            );
        }
        assert!(w.take_outcome().is_none());
        assert!(!w.is_idle());
    }

    #[test]
    fn second_write_carries_previous_w_tuple_in_pw() {
        let mut w = Writer::new(cfg(), objects());
        invoke(&mut w, 1);
        for i in 0..3 {
            drive(
                &mut w,
                ProcessId(i),
                Msg::PwAck {
                    ts: Timestamp(1),
                    tsr: BTreeMap::new(),
                },
            );
        }
        for i in 0..3 {
            drive(&mut w, ProcessId(i), Msg::WAck { ts: Timestamp(1) });
        }
        let out = invoke(&mut w, 2);
        match &out[0].1 {
            Msg::Pw { ts, pw, w: prev } => {
                assert_eq!(*ts, Timestamp(2));
                assert_eq!(pw.value, Some(2));
                assert_eq!(prev.ts(), Timestamp(1), "PW ships write 1's tuple");
                assert_eq!(prev.tsval.value, Some(1));
            }
            other => panic!("expected PW, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "one WRITE at a time")]
    fn rejects_concurrent_writes() {
        let mut w = Writer::new(cfg(), objects());
        invoke(&mut w, 1);
        invoke(&mut w, 2);
    }

    #[test]
    fn messages_from_unknown_processes_are_ignored() {
        let mut w = Writer::new(cfg(), objects());
        invoke(&mut w, 1);
        let sent = drive(
            &mut w,
            ProcessId(99),
            Msg::PwAck {
                ts: Timestamp(1),
                tsr: BTreeMap::new(),
            },
        );
        assert!(sent.is_empty());
    }
}
