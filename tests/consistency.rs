//! Consistency sweeps: compressed versions of the E-T1/E-T3 experiments as
//! regression tests (the binaries run the full-size sweeps).

use vrr::checker::{check_regularity, check_safety};
use vrr::core::safe::SafeObject;
use vrr::core::{
    ProtocolKind, ProtocolSpec, ReaderTuning, StorageConfig, StorageScenario, Timestamp,
};
use vrr::sim::{LongTail, SimTime};
use vrr::workload::{FaultPlan, LatencyKind, ScheduleParams, SimCase};

/// Every object's write timestamp `ts` and reader timestamps `tsr(j)`.
fn safe_object_states(sc: &StorageScenario<u64, ProtocolKind>) -> Vec<(Timestamp, Vec<u64>)> {
    let readers = sc.dep().cfg.readers;
    sc.dep()
        .objects
        .iter()
        .map(|&pid| {
            sc.world().inspect(pid, |o: &SafeObject<u64>| {
                (o.ts(), (0..readers).map(|j| o.tsr(j)).collect())
            })
        })
        .collect()
}

/// Asserts that no object's `ts` or `tsr(j)` went down since `last` (the
/// monotonicity Lemma 1's proof leans on), then records the new values.
fn assert_monotone(sc: &StorageScenario<u64, ProtocolKind>, last: &mut Vec<(Timestamp, Vec<u64>)>) {
    let now = safe_object_states(sc);
    let at = sc.world().now();
    for (i, (before, after)) in last.iter().zip(&now).enumerate() {
        assert!(
            after.0 >= before.0,
            "object {i} ts regressed {:?} -> {:?} at {at:?}",
            before.0,
            after.0
        );
        for (j, (b, a)) in before.1.iter().zip(&after.1).enumerate() {
            assert!(a >= b, "object {i} tsr[{j}] regressed {b} -> {a} at {at:?}");
        }
    }
    *last = now;
}

#[test]
fn contended_run_holds_state_invariants_online() {
    // Beyond the end-of-run history checks: the Lemma-1 monotonicity
    // invariants hold at every single event of a contended run.
    let cfg = StorageConfig::optimal(2, 1, 2);
    let mut sc = StorageScenario::deploy(ProtocolKind::Safe, cfg, 31);
    let mut last = safe_object_states(&sc);
    for k in 1..=5u64 {
        let w = sc.start_write(k);
        let r0 = sc.start_read(0);
        let r1 = sc.start_read(1);
        while sc.world_mut().step() {
            assert_monotone(&sc, &mut last);
        }
        assert!(w.poll().is_some(), "k={k}");
        assert!(r0.poll().is_some(), "k={k}");
        assert!(r1.poll().is_some(), "k={k}");
    }

    // Back-to-back writes over slow links: a write starts as soon as the
    // last one returns, so a straggling PW can land after its successor's.
    sc.world_mut().set_latency(LongTail::new(1, 0.2, 50));
    for k in 6..=25u64 {
        let w = sc.start_write(k);
        while w.poll().is_none() {
            assert!(sc.world_mut().step(), "k={k}: the write stalled");
            assert_monotone(&sc, &mut last);
        }
    }

    // Across a partition: the write has no quorum until the scripted heal
    // at tick 50 fires, then a read follows it.
    let cfg = StorageConfig::optimal(1, 1, 2);
    let mut sc = StorageScenario::deploy(ProtocolKind::Safe, cfg, 9);
    let mut last = safe_object_states(&sc);
    sc.partition_objects(&[0, 1]);
    sc.world_mut().heal_at(SimTime::from_ticks(50));
    let w = sc.start_write(5u64);
    while sc.world_mut().step() {
        assert_monotone(&sc, &mut last);
    }
    assert!(sc.world().now() >= SimTime::from_ticks(50));
    let r = sc.start_read(0);
    while sc.world_mut().step() {
        assert_monotone(&sc, &mut last);
    }
    assert!(w.poll().is_some());
    assert_eq!(r.poll().unwrap().value, Some(5));
}

#[test]
fn large_configuration_smoke() {
    // t = 5, b = 3: S = 14 objects, 4 readers — well beyond the usual test
    // sizes, exercising the conflict-free search and quorum machinery at
    // scale.
    let cfg = StorageConfig::optimal(5, 3, 4);
    let out = SimCase::new(&ProtocolKind::Safe, cfg)
        .schedule(ScheduleParams::contended(4, 3, 4, 77))
        .faults(FaultPlan::maximal(
            &cfg,
            vrr::core::attackers::AttackerKind::Conflicter,
            SimTime::from_ticks(25),
        ))
        .latency(LatencyKind::Uniform(1, 6))
        .run();
    assert!(out.all_live());
    assert!(check_safety(&out.history).is_ok());
    assert!(out.max_read_rounds() <= 2, "Proposition 2's worst case");
}

#[test]
fn safe_storage_is_safe_across_seeds_and_attackers() {
    for seed in 0..6u64 {
        for kind in vrr::core::attackers::AttackerKind::ALL {
            let cfg = StorageConfig::optimal(2, 1, 2);
            let out = SimCase::new(&ProtocolKind::Safe, cfg)
                .schedule(ScheduleParams::contended(5, 5, 2, seed))
                .faults(FaultPlan::maximal(&cfg, kind, SimTime::from_ticks(30)))
                .latency(LatencyKind::LongTail)
                .run();
            assert!(
                out.all_live(),
                "{kind:?}/{seed}: stalled {}",
                out.stalled_ops
            );
            assert!(check_safety(&out.history).is_ok(), "{kind:?}/{seed}");
            assert!(out.max_read_rounds() <= 2, "{kind:?}/{seed}");
        }
    }
}

#[test]
fn regular_storage_is_regular_across_seeds_and_attackers() {
    for optimized in [false, true] {
        let protocol = if optimized {
            ProtocolKind::RegularOptimized
        } else {
            ProtocolKind::Regular
        };
        for seed in 0..6u64 {
            for kind in vrr::core::attackers::AttackerKind::ALL {
                let cfg = StorageConfig::optimal(2, 2, 2);
                let out = SimCase::new(&protocol, cfg)
                    .schedule(ScheduleParams::contended(5, 5, 2, seed))
                    .faults(FaultPlan::maximal(&cfg, kind, SimTime::from_ticks(30)))
                    .latency(LatencyKind::Uniform(1, 12))
                    .run();
                assert!(out.all_live(), "{kind:?}/{seed}/opt={optimized}");
                assert!(
                    check_regularity(&out.history).is_ok(),
                    "{kind:?}/{seed}/opt={optimized}: {:?}",
                    check_regularity(&out.history)
                );
            }
        }
    }
}

#[test]
fn random_fault_plans_cannot_break_safety() {
    for seed in 0..20u64 {
        let cfg = StorageConfig::optimal(3, 2, 2);
        let out = SimCase::new(&ProtocolKind::Safe, cfg)
            .schedule(ScheduleParams::contended(6, 5, 2, seed))
            .faults(FaultPlan::random(&cfg, 250, seed))
            .latency(LatencyKind::LongTail)
            .run();
        assert!(out.all_live(), "seed {seed}");
        assert!(check_safety(&out.history).is_ok(), "seed {seed}");
    }
}

/// The oracle-validation regression: a known-broken reader must be caught.
#[test]
fn mutated_reader_is_caught_by_the_checker() {
    let tuning = ReaderTuning {
        safe_threshold: Some(1),
        ..ReaderTuning::default()
    };
    let mut caught = false;
    'outer: for seed in 0..40u64 {
        let cfg = StorageConfig::optimal(2, 2, 2);
        let mutant = ProtocolSpec::Safe(tuning);
        let out = SimCase::new(&mutant, cfg)
            .schedule(ScheduleParams::contended(5, 6, 2, seed))
            .faults(FaultPlan::maximal(
                &cfg,
                vrr::core::attackers::AttackerKind::Inflator,
                SimTime::from_ticks(40),
            ))
            .latency(LatencyKind::LongTail)
            .run();
        if check_safety(&out.history).is_err() {
            caught = true;
            break 'outer;
        }
    }
    assert!(
        caught,
        "a reader that trusts single confirmations must be catchable"
    );
}

/// Calibration of the round-1 return: its unsound neighbour — the default
/// reader returning on `b` exact round-1 confirmations, so `b` liars can
/// vouch for a phantom — must be caught by the checkers somewhere in the
/// attacker catalogue.
#[test]
fn a_round1_return_on_b_confirmations_is_caught_by_the_checkers() {
    let cfg = StorageConfig::optimal(1, 1, 2);
    let tuning = ReaderTuning {
        safe_threshold: Some(cfg.b),
        ..ReaderTuning::default()
    };
    let regular = ProtocolSpec::Regular {
        optimized: false,
        write_back: false,
        retention: vrr::core::regular::HistoryRetention::KeepAll,
        tuning,
    };
    let (mut safe_caught, mut regular_caught) = (0, 0);
    for kind in vrr::core::attackers::AttackerKind::ALL {
        for seed in 0..4u64 {
            let run = |mutant: &ProtocolSpec| {
                SimCase::new(mutant, cfg)
                    .schedule(ScheduleParams::contended(5, 5, 2, seed))
                    .faults(FaultPlan::maximal(&cfg, kind, SimTime::from_ticks(30)))
                    .latency(LatencyKind::LongTail)
                    .run()
                    .history
            };
            safe_caught += usize::from(check_safety(&run(&ProtocolSpec::Safe(tuning))).is_err());
            regular_caught += usize::from(check_regularity(&run(&regular)).is_err());
        }
    }
    assert!(safe_caught > 0, "check_safety never caught need = b");
    assert!(regular_caught > 0, "check_regularity never caught need = b");
}

/// Atomicity is deliberately NOT provided: construct the new/old inversion
/// that separates regular from atomic (the paper's protocols target
/// regular, and this is the schedule that shows why that is weaker).
///
/// While a write's second round is still in flight, only one object holds
/// the new tuple in its `w` field. A first read that hears that object
/// returns the new value; a second read whose quorum misses it (the
/// adversary delays that one link) has no new candidate at all and returns
/// the previous value — new, then old.
#[test]
fn regular_storage_admits_new_old_inversions() {
    use vrr::core::Writer;

    let cfg = StorageConfig::optimal(1, 1, 2); // S = 4
    let mut sc = StorageScenario::deploy(ProtocolKind::Regular, cfg, 4);

    // Write 1 completes everywhere.
    sc.write(10u64);
    sc.world_mut().run_until_idle(100_000);

    // Write 2: the PW broadcast is already in flight when we install the
    // holds, so PW reaches everyone; the W round (sent later, when the PW
    // acks arrive) reaches only object 0.
    let w2 = sc.start_write(20u64);
    for i in 1..4 {
        let (from, to) = (sc.writer(), sc.object(i));
        sc.world_mut().adversary_mut().hold_link(from, to);
    }
    sc.world_mut().run_until_idle(100_000);
    assert!(
        sc.world().inspect(
            sc.object(0),
            |o: &vrr::core::regular::RegularObject<u64>| {
                o.history()
                    .get(vrr::core::Timestamp(2))
                    .is_some_and(|e| e.w.is_some())
            }
        ),
        "object 0 must hold write 2's w-tuple"
    );
    assert!(
        sc.world()
            .inspect(sc.writer(), |w: &Writer<u64>| !w.is_idle())
            && w2.poll().is_none(),
        "write 2 must still be in flight"
    );

    // Read 1 (reader 0): quorum {0, 1, 2} (the link to object 3 is slow).
    // Object 0 nominates w2; objects 1 and 2 corroborate via their pw
    // fields (they saw the PW round): safe(w2) holds, and with only two
    // non-confirmers invalid(w2) never fires — r1 returns 20.
    let (from, to) = (sc.reader(0), sc.object(3));
    sc.world_mut().adversary_mut().hold_link(from, to);
    let r1 = sc.read(0);
    assert_eq!(r1.value, Some(20), "r1 must observe the in-flight write");

    // Read 2 (reader 1): quorum {1, 2, 3} (the link to object 0 is slow).
    // Nobody in the quorum has w2 in a w field — write 2 is not even a
    // candidate — so the highest candidate is w1: r2 returns 10.
    let (from, to) = (sc.reader(1), sc.object(0));
    sc.world_mut().adversary_mut().hold_link(from, to);
    let r2 = sc.read(1);
    assert_eq!(
        r2.value,
        Some(10),
        "r2 misses the in-flight write: old value"
    );

    // The checker view: regular accepts this, atomic rejects it.
    let mut h = vrr::checker::OpHistory::new();
    h.push_write(1, 10u64, 0, Some(10));
    h.push_write(2, 20, 20, None); // still incomplete
    h.push_read(0, 2, Some(20), 30, Some(40)); // r1: new value
    h.push_read(1, 1, Some(10), 50, Some(60)); // r2 (after r1): old value
    assert!(
        check_regularity(&h).is_ok(),
        "regular semantics allow the inversion"
    );
    assert!(
        vrr::checker::check_atomicity(&h).is_err(),
        "atomicity must reject the new/old inversion"
    );
}
