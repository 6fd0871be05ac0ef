//! The paper's shapes as exact counts: messages delivered, bytes delivered
//! and rounds per operation, on seeded simulated worlds.
//!
//! Every claim here is relational and none is timed — round complexity is
//! counted. The figures' shapes are counted on the figures' reader
//! ([`ProtocolSpec::figures`]), which sends READ2 on every read below
//! `S = 2t + 2b + 1`; what the deployed reader saves over it is counted
//! against it. Each operation is charged on a *drained* world: a blocking
//! `read`/`write` returns when its quorum closes, with the slowest objects'
//! acks still in flight, so the world is run to idle before the "before"
//! counters are taken and again after the operation returns. Otherwise
//! those stragglers would be charged to the next operation.

use vrr::baselines::{masking_object_count, AbdProtocol, MaskingProtocol, PassiveProtocol};
use vrr::core::attackers::AttackerKind;
use vrr::core::regular::HistoryRetention;
use vrr::core::{ProtocolKind, ProtocolSpec, RegisterProtocol, StorageConfig, StorageScenario};

/// World events one drain may take; any single operation needs far fewer.
const DRAIN_LIMIT: u64 = 100_000;

/// What one operation cost on the wire, and the rounds it reported.
#[derive(Clone, Copy, Debug)]
struct Cost {
    msgs: u64,
    bytes: u64,
    rounds: u32,
}

/// Runs `op` (which returns its reported rounds) between two drains and
/// charges it every message delivered in between.
fn cost<P: RegisterProtocol<u64>>(
    sc: &mut StorageScenario<u64, P>,
    op: impl FnOnce(&mut StorageScenario<u64, P>) -> u32,
) -> Cost {
    sc.world_mut().run_until_idle(DRAIN_LIMIT);
    let before = sc.world().net_stats();
    let rounds = op(sc);
    assert!(sc.world_mut().run_until_idle(DRAIN_LIMIT).drained);
    let after = sc.world().net_stats();
    Cost {
        msgs: after.delivered - before.delivered,
        bytes: after.bytes_delivered - before.bytes_delivered,
        rounds,
    }
}

/// A READ at reader 0, which must return `expect`.
fn read<P: RegisterProtocol<u64>>(sc: &mut StorageScenario<u64, P>, expect: u64) -> Cost {
    cost(sc, |sc| {
        let report = sc.read(0);
        assert_eq!(report.value, Some(expect));
        report.rounds
    })
}

fn write<P: RegisterProtocol<u64>>(sc: &mut StorageScenario<u64, P>, v: u64) -> Cost {
    cost(sc, |sc| sc.write(v).rounds)
}

/// Messages one write+read cycle delivers on a fresh deployment.
fn cycle_msgs<P: RegisterProtocol<u64>>(protocol: P, cfg: StorageConfig) -> u64 {
    let mut sc = StorageScenario::deploy(protocol, cfg, 5);
    write(&mut sc, 7).msgs + read(&mut sc, 7).msgs
}

/// In the figures, a READ and a WRITE are both two round trips to all `S`
/// objects: `4S` messages each. Bytes differ only by what a read reply
/// carries.
#[test]
fn reads_cost_what_writes_cost() {
    let cfg = StorageConfig::optimal(1, 1, 1);
    for (kind, factor) in [
        (ProtocolKind::Safe, 3),
        (ProtocolKind::RegularOptimized, 3),
        // The full-history read ships whole histories: exactly what §5.1
        // removes, so it is allowed a larger factor.
        (ProtocolKind::Regular, 10),
    ] {
        let mut sc = StorageScenario::deploy(ProtocolSpec::figures(kind), cfg, 5);
        sc.write(1);
        let w = write(&mut sc, 2);
        let r = read(&mut sc, 2);
        let s = cfg.s as u64;
        assert_eq!((w.msgs, w.rounds), (4 * s, 2), "{kind:?} write: {w:?}");
        assert_eq!((r.msgs, r.rounds), (4 * s, 2), "{kind:?} read: {r:?}");
        assert!(r.bytes <= factor * w.bytes, "{kind:?}: {r:?} vs {w:?}");
        assert!(w.bytes <= factor * r.bytes, "{kind:?}: {w:?} vs {r:?}");
    }
}

/// One object above optimal resilience (`S = 2t + 2b + 1`) saves the
/// figures' reader a whole round trip: a quiet read is one round of `2S`
/// messages, fewer messages and bytes than its two-round read at optimal
/// sizing.
#[test]
fn the_fast_path_saves_a_round() {
    let two_round = {
        let mut sc = StorageScenario::deploy(
            ProtocolSpec::figures(ProtocolKind::RegularOptimized),
            StorageConfig::optimal(1, 1, 1),
            5,
        );
        sc.write(1);
        read(&mut sc, 1)
    };
    let cfg = StorageConfig::fast(1, 1, 1);
    let figures = ProtocolSpec::figures(ProtocolKind::RegularOptimized);
    let mut sc = StorageScenario::deploy(figures, cfg, 5);
    sc.write(1);
    let fast = read(&mut sc, 1);
    assert_eq!((fast.msgs, fast.rounds), (2 * cfg.s as u64, 1), "{fast:?}");
    assert_eq!(two_round.rounds, 2);
    assert!(fast.msgs < two_round.msgs, "{fast:?} vs {two_round:?}");
    assert!(fast.bytes < two_round.bytes, "{fast:?} vs {two_round:?}");
}

/// More objects, same rounds: in the figures a safe READ and WRITE each
/// deliver `4S`, so one cycle is `8S` and grows with `S`. The deployed
/// reader's quiet cycle is `6S`.
#[test]
fn fan_out_grows_with_s() {
    for t in [1, 2, 4, 8] {
        let cfg = StorageConfig::optimal(t, 1, 1);
        let s = cfg.s as u64;
        let figures = ProtocolSpec::figures(ProtocolKind::Safe);
        assert_eq!(cycle_msgs(figures, cfg), 8 * s, "S = {s}");
        assert_eq!(cycle_msgs(ProtocolKind::Safe, cfg), 6 * s, "S = {s}");
    }
}

/// The paper's two-round protocols deliver more messages per write+read
/// cycle than every one-round baseline.
#[test]
fn two_round_protocols_outweigh_one_round_baselines() {
    let (t, b) = (2, 1);
    let opt = StorageConfig::optimal(t, b, 1);
    let baselines = [
        cycle_msgs(PassiveProtocol, opt),
        cycle_msgs(
            MaskingProtocol,
            StorageConfig::with_objects(masking_object_count(t, b), t, b, 1),
        ),
        cycle_msgs(AbdProtocol::default(), StorageConfig::crash_only(t, 1)),
    ];
    for kind in [
        ProtocolKind::Safe,
        ProtocolKind::Regular,
        ProtocolKind::RegularOptimized,
    ] {
        let two_round = cycle_msgs(ProtocolSpec::figures(kind), opt);
        assert_eq!(two_round, 8 * opt.s as u64, "{kind:?}");
        for baseline in baselines {
            assert!(
                baseline < two_round,
                "{kind:?} {two_round} vs {baselines:?}"
            );
        }
    }
}

/// Read bytes after `writes` writes under `kind` and `retention`. Under
/// reader-ack GC a read every 8 writes keeps the ack floor advancing; a
/// warm-up read fills the §5.1 cache before the measured read.
fn history_read_bytes(kind: ProtocolKind, retention: HistoryRetention, writes: u64) -> u64 {
    let gc = retention != HistoryRetention::KeepAll;
    let spec = ProtocolSpec::from(kind).with_retention(retention);
    let mut sc = StorageScenario::deploy(spec, StorageConfig::optimal(1, 1, 1), 9);
    for k in 1..=writes {
        sc.write(k);
        if gc && k % 8 == 0 {
            sc.read(0);
        }
    }
    sc.read(0);
    read(&mut sc, writes).bytes
}

/// §5 ships whole histories, so read bytes grow with past writes; the §5.1
/// suffix read — also under the deployed Atomic kind's write-back — and the
/// full-history read over reader-ack GC objects stay flat, far below it.
#[test]
fn full_histories_grow_while_suffixes_and_gc_stay_flat() {
    let series = |kind, retention| [10, 100, 500].map(|w| history_read_bytes(kind, retention, w));
    let full = series(ProtocolKind::Regular, HistoryRetention::KeepAll);
    let suffix = series(ProtocolKind::RegularOptimized, HistoryRetention::KeepAll);
    let gcfull = series(ProtocolKind::Regular, HistoryRetention::reader_ack());
    let atomic = series(ProtocolKind::Atomic, HistoryRetention::KeepAll);

    assert!(full[0] < full[1] && full[1] < full[2], "full: {full:?}");
    assert!(full[2] >= 3 * full[0], "full: {full:?}");
    assert!(suffix.iter().all(|&b| b == suffix[0]), "suffix: {suffix:?}");
    assert!(
        4 * suffix[2] <= full[2],
        "suffix {suffix:?} vs full {full:?}"
    );
    assert!(gcfull.iter().all(|&b| b == gcfull[0]), "gcfull: {gcfull:?}");
    assert!(
        100 * gcfull[2] <= 35 * full[2],
        "gcfull {gcfull:?} vs full {full:?}"
    );
    // READ1 with suffix replies, then the write-back of the selected tuple.
    assert_eq!(atomic, [796; 3], "atomic: {atomic:?}");
}

/// Byzantine objects do not slow a read down: with `b` objects replaced by
/// any attacker the figures' safe read still takes two rounds and delivers
/// at most the honest read's `4S` messages (their filtering is local
/// arithmetic).
#[test]
fn attackers_cost_a_read_no_extra_round_or_message() {
    let cfg = StorageConfig::optimal(2, 2, 1); // S = 7
    let honest = 4 * cfg.s as u64;
    let figures = ProtocolSpec::figures(ProtocolKind::Safe);
    let mut sc = StorageScenario::deploy(figures, cfg, 5);
    sc.write(1);
    assert_eq!(read(&mut sc, 1).msgs, honest);
    for kind in AttackerKind::ALL {
        let mut sc = StorageScenario::deploy(figures, cfg, 5);
        for i in 0..cfg.b {
            sc.attack_object(i, kind, 0xDEAD);
        }
        sc.write(1);
        let r = read(&mut sc, 1);
        assert_eq!(r.rounds, 2, "{kind:?}: {r:?}");
        assert!(r.msgs <= honest, "{kind:?}: {r:?}");
    }
}

/// The deployed reader sends no READ2 a quiet read will not wait for: at
/// optimal sizing its read is one round of `2S` messages, where the
/// figures' reader spends two rounds and `4S`.
#[test]
fn a_quiet_read_sends_no_read2() {
    let cfg = StorageConfig::optimal(1, 1, 1);
    let s = cfg.s as u64;
    for kind in [
        ProtocolKind::Safe,
        ProtocolKind::Regular,
        ProtocolKind::RegularOptimized,
    ] {
        let mut sc = StorageScenario::deploy(kind, cfg, 5);
        sc.write(1);
        let quiet = cost(&mut sc, |sc| {
            let report = sc.read(0);
            assert_eq!(report.value, Some(1));
            assert!(report.fast, "{kind:?}: {report:?}");
            report.rounds
        });
        assert_eq!(
            (quiet.msgs, quiet.rounds),
            (2 * s, 1),
            "{kind:?}: {quiet:?}"
        );

        let mut sc = StorageScenario::deploy(ProtocolSpec::figures(kind), cfg, 5);
        sc.write(1);
        let figures = read(&mut sc, 1);
        assert_eq!((figures.msgs, figures.rounds), (4 * s, 2), "{kind:?}");
        assert!(
            quiet.bytes < figures.bytes,
            "{kind:?}: {quiet:?} vs {figures:?}"
        );
    }
}

/// A quiet Atomic READ is READ1 plus the write-back: two rounds of `2S`
/// messages each, against the figures' three rounds and `6S`.
#[test]
fn a_quiet_atomic_read_is_read1_plus_the_write_back() {
    let cfg = StorageConfig::optimal(1, 1, 1);
    let s = cfg.s as u64;
    let figures = ProtocolSpec::figures(ProtocolKind::Atomic);
    for (spec, rounds) in [(ProtocolKind::Atomic.into(), 2), (figures, 3)] {
        let mut sc = StorageScenario::deploy(spec, cfg, 5);
        sc.write(1);
        let r = read(&mut sc, 1);
        assert_eq!(
            (r.msgs, r.rounds),
            (2 * s * u64::from(rounds), rounds),
            "{spec:?}"
        );
    }
}

/// Proposition 1's view still costs the second round: when round 1 hears
/// Figure 1's view — the completed write's value `v1` reported by only `b`
/// objects — the deployed reader sends READ2 and returns in two rounds.
#[test]
fn a_read_on_figure_1s_view_sends_read2() {
    // S = 2t + 2b = 4 (Figure 1's blocks T1 = s0, T2 = s1, B1 = s2, B2 =
    // s3), run4: B1 lies stale. The write misses T1, the read misses T2.
    let cfg = StorageConfig::optimal(1, 1, 1);
    let mut sc = StorageScenario::deploy(ProtocolKind::Regular, cfg, 5);
    sc.attack_object(2, AttackerKind::Stale, 0u64);
    let (writer, reader) = (sc.writer(), sc.reader(0));
    let (t1, t2) = (sc.object(0), sc.object(1));
    sc.world_mut().adversary_mut().hold_link(writer, t1);
    sc.write(1);
    sc.world_mut().adversary_mut().hold_link(reader, t2);
    let before = sc.world().net_stats();
    let op = sc.start_read(0);
    sc.world_mut().run_until_idle(DRAIN_LIMIT);
    assert!(op.poll().is_none(), "round 1 proves nothing");
    // READ1 and READ2 to the four objects; T2 holds both, the other three
    // acknowledge both.
    let sent = sc.world().net_stats().sent - before.sent;
    assert_eq!(sent, 2 * cfg.s as u64 + 2 * 3, "READ2 went out");
    sc.world_mut().adversary_mut().clear();
    sc.world_mut().release_all();
    sc.world_mut().run_until_idle(DRAIN_LIMIT);
    let report = op.poll().expect("T2 answers");
    assert_eq!(
        (report.value, report.rounds, report.fast),
        (Some(1), 2, false)
    );
}
