//! End-to-end integration: every protocol in the workspace performs the
//! same workloads through the shared driver interface.

use vrr::baselines::{masking_object_count, AbdProtocol, MaskingProtocol, PassiveProtocol};
use vrr::core::{ProtocolKind, RegisterProtocol, StorageConfig, StorageScenario};

/// Writes 1..=n and reads after each write; checks freshness and rounds.
fn write_read_cycle<P: RegisterProtocol<u64>>(
    protocol: P,
    cfg: StorageConfig,
    max_read_rounds: u32,
) {
    let name = protocol.name();
    let mut sc = StorageScenario::deploy(protocol, cfg, 99);

    // Fresh register reads ⊥.
    assert_eq!(sc.read(0).value, None, "{name}: fresh register must read ⊥");

    for k in 1..=5u64 {
        sc.write(k);
        for reader in 0..cfg.readers {
            let r = sc.read(reader);
            assert_eq!(r.value, Some(k), "{name}: stale read");
            assert!(
                r.rounds <= max_read_rounds,
                "{name}: read took {} rounds (cap {max_read_rounds})",
                r.rounds
            );
        }
    }
}

#[test]
fn safe_protocol_cycles() {
    for (t, b) in [(1, 1), (2, 1), (2, 2), (3, 3)] {
        write_read_cycle(ProtocolKind::Safe, StorageConfig::optimal(t, b, 2), 2);
    }
}

#[test]
fn regular_protocol_cycles() {
    for protocol in [ProtocolKind::Regular, ProtocolKind::RegularOptimized] {
        for (t, b) in [(1, 1), (2, 2)] {
            write_read_cycle(protocol, StorageConfig::optimal(t, b, 2), 2);
        }
    }
}

#[test]
fn abd_cycles() {
    for t in [1, 2, 3] {
        write_read_cycle(AbdProtocol::default(), StorageConfig::crash_only(t, 2), 1);
        write_read_cycle(
            AbdProtocol { atomic: true },
            StorageConfig::crash_only(t, 2),
            2,
        );
    }
}

#[test]
fn masking_cycles() {
    for (t, b) in [(1, 1), (2, 2)] {
        let cfg = StorageConfig::with_objects(masking_object_count(t, b), t, b, 2);
        write_read_cycle(MaskingProtocol, cfg, 1);
    }
}

#[test]
fn passive_cycles() {
    for (t, b) in [(1, 1), (2, 1), (2, 2)] {
        write_read_cycle(
            PassiveProtocol,
            StorageConfig::optimal(t, b, 2),
            (b + 1) as u32,
        );
    }
}

#[test]
fn string_values_work_end_to_end() {
    // The register is generic over value types; strings exercise owned data.
    let cfg = StorageConfig::optimal(1, 1, 1);
    let mut sc = StorageScenario::deploy(ProtocolKind::RegularOptimized, cfg, 3);
    sc.write("αβγ".to_string());
    assert_eq!(sc.read(0).value.as_deref(), Some("αβγ"));
}

#[test]
fn crash_budget_is_honoured_by_all_byzantine_tolerant_protocols() {
    // Crash exactly t objects; every protocol must stay live and fresh.
    fn crashed_cycle<P: RegisterProtocol<u64>>(protocol: P, cfg: StorageConfig) {
        let mut sc = StorageScenario::deploy(protocol, cfg, 5);
        for i in 0..cfg.t {
            sc.crash_object(i);
        }
        sc.write(11u64);
        assert_eq!(sc.read(0).value, Some(11));
    }
    let cfg = StorageConfig::optimal(2, 1, 1);
    crashed_cycle(ProtocolKind::Safe, cfg);
    crashed_cycle(PassiveProtocol, cfg);
}

#[test]
fn interleaved_readers_observe_monotone_timestamps() {
    // Reads by different readers, interleaved with writes, must never see
    // the register "go backwards" when each read is isolated from writes.
    let cfg = StorageConfig::optimal(2, 1, 3);
    let mut sc = StorageScenario::deploy(ProtocolKind::Regular, cfg, 8);

    let mut last_ts = vrr::core::Timestamp::ZERO;
    for k in 1..=6u64 {
        sc.write(k);
        let r = sc.read((k % 3) as usize);
        assert!(
            r.ts >= last_ts,
            "timestamp regressed: {:?} < {last_ts:?}",
            r.ts
        );
        last_ts = r.ts;
    }
}
