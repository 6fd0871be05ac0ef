//! Property tests on the core data structures, the conflict-free subset
//! solver, and end-to-end regularity under random history-GC schedules.

use std::collections::BTreeMap;

use proptest::prelude::*;

use vrr_core::regular::{HistoryRetention, RegularObject};
use vrr_core::safe::SafeObject;
use vrr_core::wire::{decode_exact, Wire};
use vrr_core::{
    conflict_free_of_size, HistEntry, History, Msg, ProtocolKind, ProtocolSpec, ReadRound,
    StorageConfig, StorageScenario, Timestamp, TsVal, TsrMatrix, WTuple,
};
use vrr_sim::{Automaton, Context, ProcessId};

// ---------------------------------------------------------------------------
// History, against a `BTreeMap` model
// ---------------------------------------------------------------------------

/// One step against a history and its model. Timestamps count down from one
/// above the newest entry, where every protocol step lands: `back` 0
/// appends, 1 replaces the newest entry (a `W` after its `PW`), 2 is a
/// `PW`'s `ts − 1` backfill, and more reaches past the tail probes — a
/// write-back below `ts_i` — into the binary search.
#[derive(Clone, Debug)]
enum HistOp {
    Insert { back: u64, v: u64, with_w: bool },
    Get { back: u64 },
    Suffix { back: u64 },
    RetainFrom { back: u64 },
}

fn hist_op() -> impl Strategy<Value = HistOp> {
    (0u8..10, 0u64..24, any::<u64>(), any::<bool>()).prop_map(
        |(kind, back, v, with_w)| match kind {
            0..=5 => HistOp::Insert { back, v, with_w },
            6 => HistOp::Get { back },
            7 | 8 => HistOp::Suffix { back },
            _ => HistOp::RetainFrom { back },
        },
    )
}

type Model = BTreeMap<Timestamp, HistEntry<u64>>;

/// The history holds exactly the model's entries, in its order.
fn matches(h: &History<u64>, model: &Model) -> bool {
    h.len() == model.len()
        && h.iter().eq(model.iter().map(|(ts, e)| (*ts, e)))
        && h.max_ts() == model.keys().next_back().copied()
}

proptest! {
    #[test]
    fn history_behaves_like_an_ordered_map(
        ops in proptest::collection::vec(hist_op(), 0..120),
    ) {
        let mut h = History::initial();
        let mut model: Model = h.iter().map(|(ts, e)| (ts, e.clone())).collect();
        for op in &ops {
            let top = model.keys().next_back().map_or(0, |ts| ts.0 + 1);
            let at = |back: u64| Timestamp(top.saturating_sub(back));
            match *op {
                HistOp::Insert { back, v, with_w } => {
                    let pw = TsVal::new(at(back), v);
                    let w = with_w.then(|| WTuple::new(pw.clone(), TsrMatrix::empty()));
                    let (had, size) = (model.contains_key(&at(back)), h.wire_size());
                    h.insert(at(back), HistEntry { pw: pw.clone(), w: w.clone() });
                    model.insert(at(back), HistEntry { pw, w });
                    prop_assert!(had || h.wire_size() > size, "a new entry grows the wire size");
                }
                HistOp::Get { back } => prop_assert_eq!(h.get(at(back)), model.get(&at(back))),
                HistOp::Suffix { back } => {
                    let want = model.range(at(back)..).map(|(k, e)| (*k, e.clone())).collect();
                    prop_assert!(matches(&h.suffix(at(back)), &want), "suffix from {:?}", at(back));
                }
                HistOp::RetainFrom { back } => {
                    h.retain_from(at(back));
                    let cut = at(back).min(Timestamp(top - 1)); // never the newest entry
                    model.retain(|ts, _| *ts >= cut);
                }
            }
            prop_assert!(matches(&h, &model), "after {:?}", op);
            let decoded: History<u64> = decode_exact(&h.to_wire_vec()).expect("round trip");
            prop_assert!(decoded == h, "the wire round trip changed the history");
        }
    }
}

// ---------------------------------------------------------------------------
// Conflict-free subsets
// ---------------------------------------------------------------------------

/// The size of a maximum conflict-free subset of `0..n`, by the solver.
fn largest(n: usize, conflict: impl Fn(usize, usize) -> bool) -> usize {
    let fits = |need| conflict_free_of_size(0..n, &conflict, need);
    (0..=n).rev().find(|&need| fits(need)).unwrap_or(0)
}

proptest! {
    #[test]
    fn the_solver_finds_the_largest_conflict_free_subset(
        n in 1usize..12,
        edges in proptest::collection::vec((0usize..12, 0usize..12), 0..40),
    ) {
        let conflict = |i: usize, k: usize| edges.iter().any(|&(a, b)| a % n == i && b % n == k);
        // Brute force over every subset: an ordered pair in either direction,
        // or a member with itself, rules a subset out.
        let clash: Vec<u32> = (0..n)
            .map(|i| (0..n).filter(|&k| conflict(i, k) || conflict(k, i)).fold(0, |m, k| m | 1 << k))
            .collect();
        let brute = (0u32..1 << n)
            .filter(|&set| (0..n).all(|i| set & 1 << i == 0 || clash[i] & set == 0))
            .map(u32::count_ones)
            .max()
            .unwrap_or(0);
        prop_assert_eq!(largest(n, conflict), brute as usize);
    }

    #[test]
    fn adding_conflicts_never_grows_the_maximum(
        n in 2usize..12,
        edges in proptest::collection::vec((0usize..12, 0usize..12), 1..25),
    ) {
        let all = |i: usize, k: usize| edges.iter().any(|&(a, b)| a % n == i && b % n == k);
        let fewer = |i: usize, k: usize| {
            edges[..edges.len() - 1].iter().any(|&(a, b)| a % n == i && b % n == k)
        };
        prop_assert!(largest(n, all) <= largest(n, fewer));
    }
}

// ---------------------------------------------------------------------------
// Object monotonicity under arbitrary message sequences (Lemma 1's base).
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum ObjStimulus {
    Pw {
        ts: u64,
        v: u64,
    },
    W {
        ts: u64,
        v: u64,
    },
    Read {
        round: bool,
        reader: usize,
        tsr: u64,
        ack: u64,
    },
}

fn obj_stimulus() -> impl Strategy<Value = ObjStimulus> {
    prop_oneof![
        (1u64..50, any::<u64>()).prop_map(|(ts, v)| ObjStimulus::Pw { ts, v }),
        (1u64..50, any::<u64>()).prop_map(|(ts, v)| ObjStimulus::W { ts, v }),
        (any::<bool>(), 0usize..3, 1u64..50, 0u64..50).prop_map(|(round, reader, tsr, ack)| {
            ObjStimulus::Read {
                round,
                reader,
                tsr,
                ack,
            }
        }),
    ]
}

fn to_msg(s: &ObjStimulus) -> Msg<u64> {
    match *s {
        ObjStimulus::Pw { ts, v } => Msg::Pw {
            ts: Timestamp(ts),
            pw: TsVal::new(Timestamp(ts), v),
            w: WTuple::initial(),
        },
        ObjStimulus::W { ts, v } => {
            let tsval = TsVal::new(Timestamp(ts), v);
            Msg::W {
                ts: Timestamp(ts),
                pw: tsval.clone(),
                w: WTuple::new(tsval, TsrMatrix::empty()),
            }
        }
        ObjStimulus::Read {
            round,
            reader,
            tsr,
            ack,
        } => Msg::Read {
            round: if round { ReadRound::R2 } else { ReadRound::R1 },
            reader,
            tsr,
            since: None,
            ack: Timestamp(ack),
        },
    }
}

proptest! {
    #[test]
    fn safe_object_state_is_monotone(
        stimuli in proptest::collection::vec(obj_stimulus(), 0..60),
    ) {
        let mut obj: SafeObject<u64> = SafeObject::new();
        let mut out = Vec::new();
        let mut last_ts = Timestamp::ZERO;
        let mut last_tsr = [0u64; 3];
        for s in &stimuli {
            {
                let mut ctx = Context::new(ProcessId(0), &mut out);
                obj.on_message(ProcessId(9), to_msg(s), &mut ctx);
            }
            out.clear();
            prop_assert!(obj.ts() >= last_ts, "object timestamp regressed");
            last_ts = obj.ts();
            for (j, last) in last_tsr.iter_mut().enumerate() {
                prop_assert!(obj.tsr(j) >= *last, "reader timestamp regressed");
                *last = obj.tsr(j);
            }
            // The pw/w fields always carry ts ≤ the object's ts.
            prop_assert!(obj.pw().ts <= obj.ts());
            prop_assert!(obj.w().ts() <= obj.ts());
        }
    }

    #[test]
    fn regular_object_history_only_grows_under_keepall(
        stimuli in proptest::collection::vec(obj_stimulus(), 0..60),
    ) {
        let mut obj: RegularObject<u64> = RegularObject::new();
        let mut out = Vec::new();
        let mut last_len = obj.history().len();
        for s in &stimuli {
            {
                let mut ctx = Context::new(ProcessId(0), &mut out);
                obj.on_message(ProcessId(9), to_msg(s), &mut ctx);
            }
            out.clear();
            prop_assert!(obj.history().len() >= last_len, "history shrank under KeepAll");
            last_len = obj.history().len();
            prop_assert!(obj.history().get(Timestamp::ZERO).is_some(), "entry 0 must persist");
        }
    }
}

// ---------------------------------------------------------------------------
// End-to-end regularity under random truncation schedules: whatever the GC
// parameters and the interleaving of writes and reads, every read returns
// the latest completed write (the sequential harness leaves no concurrency,
// so regularity degenerates to exactly that), and once every reader has
// acked, object histories shrink to the concurrency window.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum GcOp {
    Write,
    Read(usize),
}

fn gc_ops() -> impl Strategy<Value = Vec<GcOp>> {
    proptest::collection::vec(
        prop_oneof![Just(GcOp::Write), (0usize..2).prop_map(GcOp::Read),],
        1..30,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn reads_stay_regular_under_random_truncation_schedules(
        seed in 0u64..1 << 48,
        window in 1u64..4,
        cap in proptest::option::of(2usize..8),
        optimized in any::<bool>(),
        ops in gc_ops(),
    ) {
        let retention = HistoryRetention::ReaderAck { readers: 2, window, cap };
        let kind = if optimized {
            ProtocolKind::RegularOptimized
        } else {
            ProtocolKind::Regular
        };
        let protocol = ProtocolSpec::from(kind).with_retention(retention);
        let cfg = StorageConfig::optimal(1, 1, 2); // S = 4, R = 2
        let mut sc = StorageScenario::deploy(protocol, cfg, seed);

        let mut written: u64 = 0;
        for op in &ops {
            match op {
                GcOp::Write => {
                    written += 1;
                    sc.write(written);
                }
                GcOp::Read(j) => {
                    let rep = sc.read(*j);
                    // Sequential harness: the read is concurrent with
                    // nothing, so regularity demands exactly the latest
                    // completed write (or ⊥ before the first write).
                    let expect = (written > 0).then_some(written);
                    prop_assert_eq!(
                        rep.value, expect,
                        "GC broke regularity (window {}, cap {:?}, optimized {})",
                        window, cap, optimized
                    );
                    prop_assert_eq!(rep.rounds, 2, "GC must not cost rounds");
                }
            }
        }

        // Drive both readers until their acks reach the final write, then
        // check the histories collapsed to the window (two reads each: the
        // first advances acked, the second advertises it to the objects).
        for _ in 0..2 {
            for j in 0..2 {
                let rep = sc.read(j);
                let expect = (written > 0).then_some(written);
                prop_assert_eq!(rep.value, expect);
            }
        }
        // Deliver any READ broadcasts still in flight to the slowest
        // object before inspecting histories.
        sc.world_mut().run_until_idle(200_000);
        let bound = (window as usize + 1).min(cap.unwrap_or(usize::MAX));
        for len in sc.history_lens().expect("regular objects keep histories") {
            prop_assert!(
                len <= bound,
                "history len {} exceeds bound {} after full acks (window {}, cap {:?})",
                len, bound, window, cap
            );
        }
    }
}
