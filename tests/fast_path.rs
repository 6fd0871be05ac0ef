//! The reader's round-1 return, end to end: fault-free reads above the
//! Proposition-1 boundary finish in one round; every attacker in the
//! catalogue can at worst force a fallback to the two-round protocol,
//! never a wrong value; and below the boundary a quiet read still sends no
//! READ2, while the figures' reader sends it on every read.
//!
//! All runs go through the [`SimCase`] scenario builder, which supplies
//! the per-protocol attacker catalogue and a unified metrics snapshot.

use proptest::prelude::*;

use vrr::checker::{check_regularity, check_safety};
use vrr::core::attackers::AttackerKind;
use vrr::core::metrics::{names, Registry};
use vrr::core::regular::HistoryRetention;
use vrr::core::{ProtocolKind, ProtocolSpec, StorageConfig, StorageScenario};
use vrr::runtime::{NoDelay, StorageCluster};
use vrr::sim::SimTime;
use vrr::workload::{FaultPlan, LatencyKind, ScheduleParams, SimCase};

/// The smallest sizing where one-round reads are guaranteed: S = 2t + 2b
/// + 1 with t = b = 1.
fn fast_cfg(readers: usize) -> StorageConfig {
    let cfg = StorageConfig::fast(1, 1, readers);
    assert!(cfg.guarantees_one_round_reads());
    cfg
}

#[test]
fn fault_free_reads_complete_in_one_round() {
    // Sequential (non-contended) schedules, unit latency, no faults: every
    // read should take the fast path, for all three protocol variants.
    let cfg = fast_cfg(2);
    let params = ScheduleParams::sequential(4, 4, 2, 9);

    let out = SimCase::new(&ProtocolKind::Safe, cfg)
        .schedule(params)
        .run();
    assert!(out.all_live());
    assert!(check_safety(&out.history).is_ok());
    assert!(
        out.read_rounds.iter().all(|&r| r == 1),
        "safe: {:?}",
        out.read_rounds
    );
    // The metrics snapshot agrees: every read was a fast-path hit.
    assert_eq!(
        out.metrics.counter(names::READER_FAST_HITS, &[]),
        out.read_rounds.len() as u64
    );
    assert_eq!(out.metrics.counter(names::READER_FAST_FALLBACKS, &[]), 0);

    for protocol in [ProtocolKind::Regular, ProtocolKind::RegularOptimized] {
        let out = SimCase::new(&protocol, cfg).schedule(params).run();
        assert!(out.all_live());
        assert!(check_regularity(&out.history).is_ok());
        assert!(
            out.read_rounds.iter().all(|&r| r == 1),
            "regular: {:?}",
            out.read_rounds
        );
        assert_eq!(out.metrics.counter(names::READER_FAST_FALLBACKS, &[]), 0);
    }
}

#[test]
fn an_atomic_read_writes_a_fast_selection_back_and_is_metered_a_fallback() {
    // Round 1 confirms the write exactly, so no READ2 goes out — but the
    // write-back does: the report says two rounds, not fast, and both
    // harnesses meter what the report says.
    let cfg = fast_cfg(1);
    let metered = |snapshot: &Registry| {
        let hits = snapshot.counter(names::READER_FAST_HITS, &[]);
        (hits, snapshot.counter(names::READER_FAST_FALLBACKS, &[]))
    };

    let mut sc = StorageScenario::deploy(ProtocolKind::Atomic, cfg, 3);
    sc.write(7u64);
    let got = sc.read(0);
    assert_eq!((got.value, got.rounds, got.fast), (Some(7), 2, false));
    assert_eq!(metered(&sc.metrics_snapshot()), (0, 1), "simulator");

    let storage = StorageCluster::deploy(cfg, ProtocolKind::Atomic, Box::new(NoDelay));
    storage.write(7u64);
    let got = storage.read(0);
    assert_eq!((got.value, got.rounds, got.fast), (Some(7), 2, false));
    assert_eq!(metered(&storage.metrics_snapshot()), (0, 1), "threads");
}

#[test]
fn every_attacker_forces_at_worst_a_fallback_safe() {
    // b Byzantine objects plus t − b crashes: reads must stay safe and
    // never exceed the two-round fallback, whatever the attacker does.
    for kind in AttackerKind::ALL {
        for seed in 0..4u64 {
            let cfg = fast_cfg(2);
            let out = SimCase::new(&ProtocolKind::Safe, cfg)
                .schedule(ScheduleParams::contended(5, 5, 2, seed))
                .faults(FaultPlan::maximal(&cfg, kind, SimTime::from_ticks(30)))
                .latency(LatencyKind::LongTail)
                .run();
            assert!(out.all_live(), "{kind:?}/{seed}");
            assert!(check_safety(&out.history).is_ok(), "{kind:?}/{seed}");
            assert!(out.max_read_rounds() <= 2, "{kind:?}/{seed}");
        }
    }
}

#[test]
fn every_attacker_forces_at_worst_a_fallback_regular() {
    for kind in AttackerKind::ALL {
        for optimized in [false, true] {
            let protocol = if optimized {
                ProtocolKind::RegularOptimized
            } else {
                ProtocolKind::Regular
            };
            for seed in 0..3u64 {
                let cfg = fast_cfg(2);
                let out = SimCase::new(&protocol, cfg)
                    .schedule(ScheduleParams::contended(5, 5, 2, seed))
                    .faults(FaultPlan::maximal(&cfg, kind, SimTime::from_ticks(30)))
                    .latency(LatencyKind::Uniform(1, 10))
                    .run();
                assert!(out.all_live(), "{kind:?}/{seed}/opt={optimized}");
                assert!(
                    check_regularity(&out.history).is_ok(),
                    "{kind:?}/{seed}/opt={optimized}: {:?}",
                    check_regularity(&out.history)
                );
                assert!(
                    out.max_read_rounds() <= 2,
                    "{kind:?}/{seed}/opt={optimized}"
                );
            }
        }
    }
}

#[test]
fn below_the_boundary_a_quiet_read_sends_no_read2_and_the_figures_reader_does() {
    // At every sizing from optimal (S = 2t + b + 1) up to the boundary
    // (S = 2t + 2b), one-round reads are not guaranteed, but a fault-free
    // sequential read's round 1 proves its answer: the default reader
    // returns there. The figures' reader sends READ2 on every read.
    let (t, b) = (2usize, 2usize);
    for s in (2 * t + b + 1)..=(2 * t + 2 * b) {
        let cfg = StorageConfig::with_objects(s, t, b, 2);
        assert!(!cfg.guarantees_one_round_reads(), "S = {s}");
        let kind = ProtocolKind::RegularOptimized;
        for (protocol, rounds) in [(kind.into(), 1), (ProtocolSpec::figures(kind), 2)] {
            let out = SimCase::new(&protocol, cfg)
                .schedule(ScheduleParams::sequential(3, 3, 2, 5))
                .run();
            assert!(out.all_live(), "S = {s}");
            assert!(check_regularity(&out.history).is_ok(), "S = {s}");
            assert!(
                out.read_rounds.iter().all(|&r| r == rounds),
                "S = {s}: {:?}",
                out.read_rounds
            );
            let reads = out.read_rounds.len() as u64;
            let (hits, fallbacks) = if rounds == 1 { (reads, 0) } else { (0, reads) };
            assert_eq!(out.metrics.counter(names::READER_FAST_HITS, &[]), hits);
            let metered = out.metrics.counter(names::READER_FAST_FALLBACKS, &[]);
            assert_eq!(metered, fallbacks);
        }
    }
}

#[test]
fn fast_path_composes_with_reader_ack_gc() {
    // The bounded-memory production configuration (suffix transfers +
    // reader-ack GC) at fast sizing: one-round reads still ack, GC still
    // truncates, regularity still holds.
    let cfg = fast_cfg(2);
    let protocol = ProtocolSpec::from(ProtocolKind::RegularOptimized)
        .with_retention(HistoryRetention::reader_ack());
    for seed in 0..4u64 {
        let out = SimCase::new(&protocol, cfg)
            .schedule(ScheduleParams::contended(8, 8, 2, seed))
            .latency(LatencyKind::Uniform(1, 6))
            .run();
        assert!(out.all_live(), "seed {seed}");
        assert!(check_regularity(&out.history).is_ok(), "seed {seed}");
        assert!(out.max_read_rounds() <= 2, "seed {seed}");
        assert!(
            out.read_rounds.contains(&1),
            "seed {seed}: the fast path never fired: {:?}",
            out.read_rounds
        );
        // GC kept every object's exported history gauge bounded.
        for len in out.metrics.gauge_values(names::OBJECT_HISTORY_LEN) {
            assert!(len <= 24, "seed {seed}: unbounded history gauge {len}");
        }
    }
}

fn latency_strategy() -> impl Strategy<Value = LatencyKind> {
    prop_oneof![
        Just(LatencyKind::Unit),
        (1u64..5, 5u64..30).prop_map(|(a, b)| LatencyKind::Uniform(a, b)),
        Just(LatencyKind::LongTail),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Random schedules, fault plans and latency regimes at fast sizing:
    /// reads mix fast-path completions (quiet moments) with fallbacks
    /// (contention, faults), and whatever the mix, safety/regularity hold
    /// and no read exceeds the two-round fallback.
    #[test]
    fn fast_sizing_keeps_safety_under_random_schedules(
        seed in 0u64..10_000,
        t in 1usize..=3,
        b_rel in 0usize..=2,
        writes in 1u64..=6,
        reads in 1u64..=6,
        gap in 1u64..=60,
        latency in latency_strategy(),
    ) {
        let b = ((b_rel % t) + 1).min(t);
        let cfg = StorageConfig::fast(t, b, 2);
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
    }

    /// The regular counterpart, including the bounded-memory GC
    /// configuration: concurrent writes, random faults and reader-ack
    /// truncation cannot make a fast or fallback read violate regularity.
    #[test]
    fn fast_sizing_keeps_regularity_under_random_schedules(
        seed in 0u64..10_000,
        t in 1usize..=3,
        optimized in any::<bool>(),
        gc in any::<bool>(),
        writes in 1u64..=6,
        reads in 1u64..=5,
        gap in 1u64..=40,
        latency in latency_strategy(),
    ) {
        let cfg = StorageConfig::fast(t, 1, 2);
        let kind = if optimized { ProtocolKind::RegularOptimized } else { ProtocolKind::Regular };
        let retention = if gc { HistoryRetention::reader_ack() } else { HistoryRetention::KeepAll };
        let protocol = ProtocolSpec::from(kind).with_retention(retention);
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
