//! End-to-end coverage of reader-ack–driven history garbage collection:
//! flat memory under steady-state load in the simulator and on the thread
//! runtime, the crashed-reader escape hatch, and Byzantine objects lying
//! about suffixes — with reads staying regular and 2-round throughout.
//! The last two tests layer the faults at once over the length-capped GC
//! — a suffix liar and a frozen reader on each harness, plus partitions,
//! heals and reordering in the simulator — and judge the recorded history
//! with [`check_regularity`].
//!
//! The simulator runs go through the [`StorageScenario`] builder, which
//! owns the deploy/drive/inspect boilerplate and exports history lengths
//! through the same metrics snapshot the thread runtime produces.

use vrr::checker::{check_regularity, OpHistory, Recorder};
use vrr::core::attackers::AttackerKind;
use vrr::core::metrics::{names, Registry};
use vrr::core::regular::{HistoryRetention, RegularReader};
use vrr::core::{StorageConfig, StorageScenario, Timestamp};
use vrr::runtime::{
    ClusterBackend, NoDelay, ProtocolKind, ProtocolSpec, ShardedStore, StorageCluster,
};

#[test]
fn steady_state_memory_is_flat_in_run_length() {
    // The acceptance-criteria shape, as a regression test: under
    // steady-state load the history length depends on the read cadence,
    // not on how long the system has been running.
    for kind in [ProtocolKind::Regular, ProtocolKind::RegularOptimized] {
        let protocol = ProtocolSpec::from(kind).with_retention(HistoryRetention::reader_ack());
        let cfg = StorageConfig::optimal(1, 1, 1);
        let mut lens = Vec::new();
        for writes in [64u64, 256] {
            let mut sc = StorageScenario::deploy(protocol, cfg, 17);
            for k in 1..=writes {
                sc.write(k);
                if k % 8 == 0 {
                    let rep = sc.read(0);
                    assert_eq!(rep.value, Some(k));
                    // Round 1 proves a quiet read's answer.
                    assert_eq!(rep.rounds, 1, "GC must not cost rounds");
                }
            }
            lens.push(sc.max_history_len());
            // The history gauges of the metrics snapshot expose the same
            // bound (one gauge per honest object).
            let snap = sc.metrics_snapshot();
            let gauges = snap.gauge_values(names::OBJECT_HISTORY_LEN);
            assert_eq!(gauges.len(), cfg.s);
            assert_eq!(
                gauges.iter().copied().max().unwrap() as usize,
                sc.max_history_len()
            );
        }
        assert_eq!(
            lens[0], lens[1],
            "history length must be flat in run length ({kind:?})"
        );
        assert!(lens[1] <= 11, "bounded by the read cadence: {}", lens[1]);
    }
}

#[test]
fn crashed_reader_pins_the_floor_and_the_cap_unpins_it() {
    // Reader 1 crashes before ever completing a read. Without a cap its
    // implicit ack 0 blocks all truncation — the documented conservative
    // behaviour. With the escape-hatch cap, memory stays bounded anyway
    // and the live reader's reads remain correct.
    let cfg = StorageConfig::optimal(1, 1, 2); // R = 2
    for (retention, bounded) in [
        (HistoryRetention::reader_ack(), false),
        (HistoryRetention::reader_ack_capped(8), true),
    ] {
        let protocol = ProtocolSpec::from(ProtocolKind::RegularOptimized).with_retention(retention);
        let mut sc = StorageScenario::deploy(protocol, cfg, 23);
        sc.crash_reader(1); // never completes a read, never acks
        for k in 1..=100u64 {
            sc.write(k);
            if k % 10 == 0 {
                assert_eq!(
                    sc.read(0).value,
                    Some(k),
                    "live reader must stay correct despite the crashed one"
                );
            }
        }
        let len = sc.max_history_len();
        if bounded {
            assert!(len <= 8, "cap must bound memory, got {len}");
        } else {
            assert!(len >= 100, "never-acking reader blocks truncation: {len}");
        }
    }
}

#[test]
fn late_reader_catches_up_after_truncation() {
    // Reader 1 sleeps through 50 writes while reader 0's acks would allow
    // truncation down to its own floor; since min(acks) gates GC, reader
    // 1's first read still finds everything it needs and returns the tip.
    let cfg = StorageConfig::optimal(1, 1, 2);
    let protocol = ProtocolSpec::from(ProtocolKind::RegularOptimized)
        .with_retention(HistoryRetention::reader_ack());
    let mut sc = StorageScenario::deploy(protocol, cfg, 29);
    for k in 1..=50u64 {
        sc.write(k);
        if k % 5 == 0 {
            sc.read(0);
        }
    }
    let rep = sc.read(1);
    assert_eq!(rep.value, Some(50), "late reader reads the tip");
    assert_eq!(rep.rounds, 1);
    // Its ack now unblocks truncation: one more round of reads from both
    // readers collapses the histories.
    for j in [0usize, 1] {
        sc.read(j);
        sc.read(j);
    }
    sc.world_mut().run_until_idle(200_000);
    assert!(sc.max_history_len() <= 2);
}

#[test]
fn truncation_liar_cannot_corrupt_gc_reads() {
    // A Byzantine object lies about suffixes (reports empty histories, as
    // if GC had discarded everything) while the honest objects run real
    // ack-driven GC. Reads must stay correct and within two rounds, and
    // the honest objects must still truncate.
    for kind in [ProtocolKind::Regular, ProtocolKind::RegularOptimized] {
        let protocol = ProtocolSpec::from(kind).with_retention(HistoryRetention::reader_ack());
        let cfg = StorageConfig::optimal(1, 1, 1);
        let mut sc = StorageScenario::deploy(protocol, cfg, 31);
        sc.attack_object(1, AttackerKind::Truncator, 0xBADu64);
        for k in 1..=40u64 {
            sc.write(k);
            if k % 4 == 0 {
                let rep = sc.read(0);
                assert_eq!(rep.value, Some(k), "truncation liar corrupted a read");
                assert!(rep.rounds <= 2);
            }
        }
        sc.world_mut().run_until_idle(200_000);
        // history_lens skips the Byzantine object: every reported length
        // is an honest object that must have truncated.
        let lens = sc.history_lens();
        assert_eq!(lens.len(), cfg.s - 1, "one object is the attacker");
        for (i, len) in lens {
            assert!(len <= 6, "honest object {i} failed to truncate: {len}");
        }
        // The fault shows up in the snapshot's fault-script counters.
        let snap = sc.metrics_snapshot();
        assert_eq!(snap.counter(names::SCENARIO_BYZANTINE, &[]), 1);
    }
}

#[test]
fn forged_acks_from_byzantine_objects_do_not_exist_but_forged_suffixes_die() {
    // Acks travel reader -> object, so a Byzantine *object* cannot forge
    // them; what it can do is ship history entries below the reader's
    // suffix request. Under GC retention those forgeries still die by
    // invalidation: the read returns the genuine tip.
    let protocol = ProtocolSpec::from(ProtocolKind::RegularOptimized)
        .with_retention(HistoryRetention::reader_ack());
    let cfg = StorageConfig::optimal(1, 1, 1);
    let mut sc = StorageScenario::deploy(protocol, cfg, 37);
    sc.attack_object(3, AttackerKind::Stale, 0xBADu64);
    for k in 1..=20u64 {
        sc.write(k);
        assert_eq!(sc.read(0).value, Some(k));
    }
    // The reader's high-water mark matches what it returned.
    let reader = sc.reader(0);
    let acked = sc
        .world()
        .inspect(reader, |r: &RegularReader<u64>| r.acked());
    assert_eq!(acked, Timestamp(20));
}

#[test]
fn runtime_cluster_and_sharded_store_run_bounded_memory() {
    // The worker-pool deployments: same flat-memory property end to end,
    // observable through the same metrics-snapshot gauges the simulator
    // exports — one per honest object of every register.
    let cfg = StorageConfig::optimal(1, 1, 1);
    let spec = ProtocolSpec::from(ProtocolKind::RegularOptimized)
        .with_retention(HistoryRetention::reader_ack());
    let storage: StorageCluster<u64> = StorageCluster::deploy(cfg, spec);
    for k in 1..=64u64 {
        storage.write(k);
        assert_eq!(storage.read(0).value, Some(k));
    }
    let snap = storage.metrics_snapshot();
    let lens = snap.gauge_values(names::OBJECT_HISTORY_LEN);
    assert_eq!(lens.len(), cfg.s);
    assert!(lens.into_iter().all(|len| len <= 5));
    assert_eq!(
        snap.histogram(names::WRITER_ROUNDS, &[]).unwrap().count(),
        64
    );

    let store: ShardedStore<&'static str, u64> = ShardedStore::deploy(cfg, spec, 2);
    for k in 1..=32u64 {
        store.write("a", k);
        store.write("b", k * 2);
        assert_eq!(store.read(&"a", 0).unwrap().value, Some(k));
        assert_eq!(store.read(&"b", 0).unwrap().value, Some(k * 2));
    }
    let lens = store
        .metrics_snapshot()
        .gauge_values(names::OBJECT_HISTORY_LEN);
    assert_eq!(lens.len(), 2 * cfg.s);
    assert!(lens.into_iter().all(|len| len <= 5));
}

// Length of each combined-fault run, and the seeds the simulator's runs at.
const COMBINED_ITERS: u64 = 400;
const COMBINED_SEEDS: [u64; 2] = [42, 2006];
/// The GC length cap of the combined-fault runs.
const CAP: usize = 8;
/// Forged by the Truncator; never written, so a read of it is irregular.
const FORGED: u64 = 0xBAD_F00D;

/// What a snapshot must show after `ops` sequential writes and `ops`
/// sequential reads: every operation in its rounds and latency histograms,
/// every read either a fast-path hit (no READ2 sent) or a fallback, and
/// every honest object's history at or below the cap.
fn assert_ops_metered_and_capped(snap: &Registry, ops: u64) {
    let count = |name| snap.histogram(name, &[]).map_or(0, |h| h.count());
    for name in [
        names::WRITER_ROUNDS,
        names::WRITE_LATENCY,
        names::READER_ROUNDS,
        names::READ_LATENCY,
    ] {
        assert_eq!(count(name), ops, "{name}");
    }
    let hits = snap.counter(names::READER_FAST_HITS, &[]);
    let fallbacks = snap.counter(names::READER_FAST_FALLBACKS, &[]);
    assert_eq!(hits + fallbacks, ops, "hits {hits} + fallbacks {fallbacks}");
    let lens = snap.gauge_values(names::OBJECT_HISTORY_LEN);
    assert!(!lens.is_empty(), "no history gauge exported");
    assert!(
        lens.iter().all(|&len| len <= CAP as u64),
        "a history outgrew the cap {CAP}: {lens:?}"
    );
}

#[test]
fn combined_faults_stay_regular_and_capped_in_the_simulator() {
    for seed in COMBINED_SEEDS {
        // S = 5 guarantees one-round reads; three readers, one of which
        // crashes.
        let cfg = StorageConfig::fast(1, 1, 3);
        let protocol = ProtocolSpec::from(ProtocolKind::RegularOptimized)
            .with_retention(HistoryRetention::reader_ack_capped(CAP));
        let mut sc = StorageScenario::deploy(protocol, cfg, seed);
        sc.attack_object(4, AttackerKind::Truncator, FORGED);
        let (writer, obj0, rdr0) = (sc.writer(), sc.object(0), sc.reader(0));
        sc.world_mut().reorder(writer, obj0, 0.25);
        sc.world_mut().reorder(obj0, rdr0, 0.25);

        let crash_at = COMBINED_ITERS / 3;
        let mut history = OpHistory::new();
        let (mut partitions, mut heals) = (0, 0);
        for i in 0..COMBINED_ITERS {
            if i == crash_at {
                // Its acks freeze: from here only the cap keeps GC going.
                sc.crash_reader(2);
            }
            // Cut off one honest object (rotating) for four iterations in
            // ten; the S - t = 4 left reachable must still serve.
            match i % 10 {
                3 => {
                    sc.partition_objects(&[((i / 10) % 4) as usize]);
                    partitions += 1;
                }
                7 => {
                    sc.world_mut().heal_now();
                    heals += 1;
                }
                _ => {}
            }

            let (seq, value) = (i + 1, (i + 1) * 10);
            let invoked = sc.world().now().ticks();
            sc.write(value);
            history.push_write(seq, value, invoked, Some(sc.world().now().ticks()));

            let live_readers = if i < crash_at { 3 } else { 2 };
            let j = (i % live_readers) as usize;
            let invoked = sc.world().now().ticks();
            let rep = sc.read(j);
            let completed = Some(sc.world().now().ticks());
            history.push_read(j, rep.ts.0, rep.value, invoked, completed);
            // Sequential operations: a read returns the last write.
            assert_eq!(rep.value, Some(value), "seed {seed}, read {i}");

            // Let stragglers, suffixes and acks drain now and then.
            if i % 16 == 15 {
                sc.world_mut().fast_forward(64);
            }
        }
        sc.world_mut().run_until_idle(200_000);
        check_regularity(&history).unwrap_or_else(|v| panic!("seed {seed}: {v:?}"));

        let snap = sc.metrics_snapshot();
        assert_ops_metered_and_capped(&snap, COMBINED_ITERS);
        for (name, injected) in [
            (names::SCENARIO_PARTITIONS, partitions),
            (names::SCENARIO_HEALS, heals),
            (names::SCENARIO_CRASHES, 1),
            (names::SCENARIO_BYZANTINE, 1),
        ] {
            assert_eq!(snap.counter(name, &[]), injected, "{name}");
        }
        let net = |name| snap.counter(name, &[]);
        assert!(
            net(names::NET_DELIVERED) + net(names::NET_DROPPED) + net(names::NET_DEAD_LETTERS)
                <= net(names::NET_SENT),
            "more messages left the network than entered it"
        );
    }
}

#[test]
fn combined_faults_stay_regular_and_capped_on_threads() {
    // S = 5 with a Truncator at the last index, the whole t = b = 1 budget.
    // (Reordering is the simulator test's: the thread runtime delivers
    // every message at once.)
    let cfg = StorageConfig::fast(1, 1, 2);
    let storage: StorageCluster<u64> = StorageCluster::deploy_with_objects(
        cfg,
        ProtocolSpec::from(ProtocolKind::RegularOptimized)
            .with_retention(HistoryRetention::reader_ack_capped(CAP)),
        NoDelay,
        |i| (i == cfg.s - 1).then(|| AttackerKind::Truncator.build_regular(cfg, FORGED)),
    );
    let rec = Recorder::new(1);
    for i in 0..COMBINED_ITERS {
        let (seq, value) = (i + 1, (i + 1) * 10);
        rec.write(0, seq, value, || storage.write(value));
        // Reader 1 falls silent a third of the way in: its ack freezes,
        // like the simulator's crashed reader's, and only the cap keeps GC
        // going.
        let j = if i < COMBINED_ITERS / 3 {
            (i % 2) as usize
        } else {
            0
        };
        rec.read(0, j, || {
            let rep = storage.read(j);
            assert_eq!(rep.value, Some(value), "read {i}");
            (rep.ts.0, rep.value)
        });
    }
    rec.check(check_regularity)
        .unwrap_or_else(|v| panic!("{v:?}"));
    assert_ops_metered_and_capped(&storage.metrics_snapshot(), COMBINED_ITERS);
}
