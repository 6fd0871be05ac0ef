//! Fast canary that the façade wiring stays intact: the `vrr::*` re-export
//! paths resolve, `StorageConfig::optimal` computes the paper's object
//! count, and both paper protocols complete reads in ≤ 2 rounds on a
//! fault-free world. Runs in milliseconds; if this file stops compiling,
//! a re-export in `src/lib.rs` or a crate manifest broke.

use vrr::core::{ProtocolKind, StorageConfig, StorageScenario};

#[test]
fn optimal_config_is_2t_plus_b_plus_1() {
    for t in 1..=5usize {
        for b in 1..=t {
            for readers in 1..=3usize {
                let cfg = StorageConfig::optimal(t, b, readers);
                assert_eq!(cfg.s, 2 * t + b + 1, "S must be 2t+b+1 for t={t} b={b}");
                assert_eq!((cfg.t, cfg.b, cfg.readers), (t, b, readers));
            }
        }
    }
}

#[test]
fn safe_read_completes_in_two_rounds_fault_free() {
    for (t, b) in [(1, 1), (2, 1), (2, 2)] {
        let cfg = StorageConfig::optimal(t, b, 1);
        let mut sc = StorageScenario::deploy(ProtocolKind::Safe, cfg, 7);
        sc.write(42u64);
        let r = sc.read(0);
        assert_eq!(r.value, Some(42), "safe read must return the written value");
        assert!(
            r.rounds <= 2,
            "safe read took {} rounds at t={t} b={b}",
            r.rounds
        );
    }
}

#[test]
fn regular_read_completes_in_two_rounds_fault_free() {
    for protocol in [ProtocolKind::Regular, ProtocolKind::RegularOptimized] {
        for (t, b) in [(1, 1), (2, 2)] {
            let cfg = StorageConfig::optimal(t, b, 1);
            let mut sc = StorageScenario::deploy(protocol, cfg, 11);
            sc.write(7u64);
            let r = sc.read(0);
            assert_eq!(
                r.value,
                Some(7),
                "regular read must return the written value"
            );
            assert!(
                r.rounds <= 2,
                "regular read took {} rounds at t={t} b={b}",
                r.rounds
            );
        }
    }
}

#[test]
fn facade_modules_all_resolve() {
    // One symbol per re-exported crate: a compile-time wiring check.
    let _ = vrr::checker::OpHistory::<u64>::new();
    let _ = vrr::workload::FaultPlan::none();
    let _ = vrr::lowerbound::ReadRule::Masking;
    let _ = vrr::baselines::masking_object_count(1, 1);
    let _ = vrr::runtime::NoDelay;
    let _ = vrr::sim::SimTime::from_ticks(0);
}
