//! Property tests on the core data structures, the conflict-free subset
//! solver, and end-to-end regularity under random history-GC schedules.

use proptest::prelude::*;

use vrr_core::regular::{HistoryRetention, RegularObject};
use vrr_core::safe::SafeObject;
use vrr_core::{
    conflict_free_of_size, max_conflict_free, HistEntry, History, Msg, ProtocolKind, ProtocolSpec,
    ReadRound, StorageConfig, StorageScenario, Timestamp, TsVal, TsrMatrix, WTuple,
};
use vrr_sim::{Automaton, Context, ProcessId};

// ---------------------------------------------------------------------------
// History
// ---------------------------------------------------------------------------

fn entries_strategy() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((1u64..200, any::<u64>()), 0..40)
}

fn build_history(entries: &[(u64, u64)]) -> History<u64> {
    let mut h = History::initial();
    for (ts, v) in entries {
        let tsval = TsVal::new(Timestamp(*ts), *v);
        h.insert(
            Timestamp(*ts),
            HistEntry {
                pw: tsval.clone(),
                w: Some(WTuple::new(tsval, TsrMatrix::empty())),
            },
        );
    }
    h
}

proptest! {
    #[test]
    fn suffix_entries_are_exactly_those_at_or_after_since(
        entries in entries_strategy(),
        since in 0u64..250,
    ) {
        let h = build_history(&entries);
        let suffix = h.suffix(Timestamp(since));
        for (ts, _e) in h.iter() {
            let in_suffix = suffix.get(ts).is_some();
            prop_assert_eq!(in_suffix, ts.0 >= since, "ts {} since {}", ts.0, since);
        }
        // And nothing extra.
        prop_assert!(suffix.len() <= h.len());
        for (ts, e) in suffix.iter() {
            prop_assert_eq!(Some(e), h.get(ts));
        }
    }

    #[test]
    fn retain_from_keeps_the_newest_entry(
        entries in entries_strategy(),
        below in 0u64..400,
    ) {
        let mut h = build_history(&entries);
        let max_before = h.max_ts();
        h.retain_from(Timestamp(below));
        prop_assert_eq!(h.max_ts(), max_before, "GC must never lose the newest entry");
        prop_assert!(!h.is_empty());
        for (ts, _) in h.iter() {
            prop_assert!(ts.0 >= below.min(max_before.unwrap().0));
        }
    }

    #[test]
    fn wire_size_is_monotone_in_entries(entries in entries_strategy()) {
        let mut h = History::<u64>::initial();
        let mut last = h.wire_size();
        for (ts, v) in entries {
            let had = h.get(Timestamp(ts)).is_some();
            let tsval = TsVal::new(Timestamp(ts), v);
            h.insert(
                Timestamp(ts),
                HistEntry { pw: tsval.clone(), w: Some(WTuple::new(tsval, TsrMatrix::empty())) },
            );
            let now = h.wire_size();
            if !had {
                prop_assert!(now > last, "adding an entry must grow the wire size");
            }
            last = now;
        }
    }
}

// ---------------------------------------------------------------------------
// Conflict-free subsets
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn returned_subset_is_conflict_free_and_within_members(
        n in 1usize..16,
        edges in proptest::collection::vec((0usize..16, 0usize..16), 0..40),
    ) {
        let members: Vec<usize> = (0..n).collect();
        let conflict = |i: usize, k: usize| edges.iter().any(|&(a, b)| a % n == i && b % n == k);
        let chosen = max_conflict_free(&members, conflict);
        for &i in &chosen {
            prop_assert!(members.contains(&i));
            for &k in &chosen {
                prop_assert!(
                    !conflict(i, k),
                    "chosen set contains conflicting pair ({i}, {k})"
                );
            }
        }
        // Threshold helper agrees with the maximum.
        let need = chosen.len();
        prop_assert!(conflict_free_of_size(&members, conflict, need).is_some());
        prop_assert!(conflict_free_of_size(&members, conflict, need + 1).is_none()
            || need == n);
    }

    #[test]
    fn adding_conflicts_never_grows_the_maximum(
        n in 2usize..12,
        edges in proptest::collection::vec((0usize..12, 0usize..12), 1..25),
    ) {
        let members: Vec<usize> = (0..n).collect();
        let all = |i: usize, k: usize| edges.iter().any(|&(a, b)| a % n == i && b % n == k);
        let fewer = |i: usize, k: usize| {
            edges[..edges.len() - 1].iter().any(|&(a, b)| a % n == i && b % n == k)
        };
        let with_all = max_conflict_free(&members, all).len();
        let with_fewer = max_conflict_free(&members, fewer).len();
        prop_assert!(with_all <= with_fewer);
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
