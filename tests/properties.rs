//! Property-based tests over the whole stack.
//!
//! Three families: (1) the protocols under randomly generated schedules,
//! fault plans and latency regimes keep their guarantees; (2) the checkers
//! agree with a reference register semantics on synthetic histories;
//! (3) the lower-bound harness convicts randomly drawn threshold rules.

use proptest::prelude::*;

use vrr::checker::{check_atomicity, check_regularity, check_safety, OpHistory};
use vrr::core::{ProtocolKind, StorageConfig};
use vrr::lowerbound::{execute_prop1, LitePairSpec, ReadRule};
use vrr::workload::{FaultPlan, LatencyKind, ScheduleParams, SimCase};

// ---------------------------------------------------------------------------
// Family 1: protocol properties under generated scenarios.
// ---------------------------------------------------------------------------

fn latency_strategy() -> impl Strategy<Value = LatencyKind> {
    prop_oneof![
        Just(LatencyKind::Unit),
        (1u64..5, 5u64..30).prop_map(|(a, b)| LatencyKind::Uniform(a, b)),
        Just(LatencyKind::LongTail),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn safe_storage_safety_is_schedule_independent(
        seed in 0u64..10_000,
        t in 1usize..=3,
        b_rel in 0usize..=2,
        writes in 1u64..=6,
        reads in 1u64..=6,
        gap in 1u64..=60,
        latency in latency_strategy(),
    ) {
        let b = (b_rel % t.max(1)) + 1;
        let b = b.min(t);
        let cfg = StorageConfig::optimal(t, b, 2);
        let out = SimCase::new(&ProtocolKind::Safe, cfg)
            .schedule(ScheduleParams {
                writes, reads_per_reader: reads, readers: 2, mean_gap: gap, seed,
            })
            .faults(FaultPlan::random(&cfg, 200, seed))
            .latency(latency)
            .run();
        prop_assert!(out.all_live(), "stalled {}", out.stalled_ops);
        prop_assert!(check_safety(&out.history).is_ok());
        prop_assert!(out.max_read_rounds() <= 2);
        prop_assert!(out.max_write_rounds() <= 2);
    }

    #[test]
    fn regular_storage_regularity_is_schedule_independent(
        seed in 0u64..10_000,
        t in 1usize..=3,
        optimized in any::<bool>(),
        writes in 1u64..=6,
        reads in 1u64..=5,
        gap in 1u64..=40,
        latency in latency_strategy(),
    ) {
        let b = 1usize;
        let cfg = StorageConfig::optimal(t, b, 2);
        let protocol = if optimized {
            ProtocolKind::RegularOptimized
        } else {
            ProtocolKind::Regular
        };
        let out = SimCase::new(&protocol, cfg)
            .schedule(ScheduleParams {
                writes, reads_per_reader: reads, readers: 2, mean_gap: gap, seed,
            })
            .faults(FaultPlan::random(&cfg, 200, seed))
            .latency(latency)
            .run();
        prop_assert!(out.all_live());
        prop_assert!(check_regularity(&out.history).is_ok());
        prop_assert!(out.max_read_rounds() <= 2);
    }
}

// ---------------------------------------------------------------------------
// Family 2: checker soundness against a reference register.
// ---------------------------------------------------------------------------

/// Builds a well-formed history from a sequence of abstract moves, playing
/// a *perfect atomic register* (reads return the newest completed write).
/// Such histories must satisfy all three checkers.
fn atomic_reference_history(ops: Vec<(bool, u8)>) -> OpHistory<u64> {
    let mut h = OpHistory::new();
    let mut now = 0u64;
    let mut seq = 0u64;
    let mut readers_busy_until = [0u64; 2];
    for (is_write, dur) in ops {
        let dur = u64::from(dur % 7) + 1;
        now += 2;
        if is_write {
            seq += 1;
            h.push_write(seq, seq * 10, now, Some(now + dur));
            now += dur; // writes are sequential on the single writer
        } else {
            // Alternate readers; a reader's next read starts after its
            // last, and the global clock advances with it so the value
            // returned (the newest write completed so far) stays correct
            // relative to every later-emitted operation.
            let r = (now % 2) as usize;
            now = now.max(readers_busy_until[r]);
            let start = now;
            let end = start + dur;
            let val = seq; // newest completed write (writes never overlap reads' starts)
            h.push_read(r, val, (val > 0).then_some(val * 10), start, Some(end));
            readers_busy_until[r] = end + 1;
        }
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    #[test]
    fn checkers_accept_perfect_register_histories(
        ops in proptest::collection::vec((any::<bool>(), any::<u8>()), 0..30)
    ) {
        let h = atomic_reference_history(ops);
        prop_assert!(h.validate().is_ok());
        prop_assert!(check_safety(&h).is_ok(), "{:?}", check_safety(&h));
        prop_assert!(check_regularity(&h).is_ok(), "{:?}", check_regularity(&h));
        prop_assert!(check_atomicity(&h).is_ok(), "{:?}", check_atomicity(&h));
    }

    #[test]
    fn checkers_reject_corrupted_isolated_reads(
        ops in proptest::collection::vec((any::<bool>(), any::<u8>()), 4..30),
        corrupt_delta in 1u64..5,
    ) {
        // Corrupt the last isolated read by shifting its seq: safety and
        // regularity must both object (the read is isolated, so safety
        // fires; phantom/stale fires for regularity).
        let mut h = atomic_reference_history(ops);
        let writes: u64 = h.writes().len() as u64;
        prop_assume!(writes >= 1);
        // Append an isolated read far in the future with a wrong value.
        let wrong = writes + corrupt_delta;
        h.push_read(0, wrong, Some(wrong * 10), 1_000_000, Some(1_000_010));
        prop_assert!(check_safety(&h).is_err());
        prop_assert!(check_regularity(&h).is_err());
    }

    #[test]
    fn stale_read_fails_safety_and_regularity_but_only_if_isolated(
        ops in proptest::collection::vec((any::<bool>(), any::<u8>()), 4..30),
    ) {
        let mut h = atomic_reference_history(ops);
        let writes = h.writes().len() as u64;
        prop_assume!(writes >= 2);
        // A far-future read returning write 1 instead of the newest.
        h.push_read(1, 1, Some(10), 2_000_000, Some(2_000_005));
        prop_assert!(check_safety(&h).is_err());
        let reg = check_regularity(&h);
        prop_assert!(reg.is_err(), "stale isolated read violates clause 2");
    }
}

// ---------------------------------------------------------------------------
// Family 3: the impossibility is rule-independent.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn any_threshold_rule_violates_prop1(
        t in 1usize..=4,
        b_raw in 1usize..=4,
        k_raw in 1usize..=12,
        v1 in 1u64..u64::MAX,
    ) {
        let b = b_raw.min(t);
        let s = 2 * t + 2 * b;
        let k = (k_raw % s) + 1;
        let spec = LitePairSpec::new(s, t, b, ReadRule::Threshold(k));
        let report = execute_prop1(&spec, b, v1);
        prop_assert!(report.verdict.is_violation(), "t={t} b={b} k={k}");
    }
}
