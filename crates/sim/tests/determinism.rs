//! Determinism is the simulator's contract: identical construction +
//! identical seed ⇒ identical run. Every replayed adversarial schedule in
//! the workspace depends on it, so it gets its own property suite.

use proptest::prelude::*;

use vrr_sim::{
    from_fn, Context, Envelope, LongTail, ProcessId, SimMessage, SimTime, Uniform, World,
};

#[derive(Clone, Debug, PartialEq)]
struct Num(u64);

impl SimMessage for Num {
    fn wire_size(&self) -> usize {
        8
    }
}

/// A step of external stimulus applied to a world mid-run.
#[derive(Clone, Debug)]
enum Stimulus {
    Send { from: usize, to: usize, value: u64 },
    RunFor(u16),
    Crash(usize),
    ReleaseAll,
    HoldTo(usize),
}

fn stimulus_strategy(n: usize) -> impl Strategy<Value = Stimulus> {
    prop_oneof![
        (0..n, 0..n, any::<u64>()).prop_map(|(from, to, value)| Stimulus::Send { from, to, value }),
        any::<u16>().prop_map(Stimulus::RunFor),
        (0..n).prop_map(Stimulus::Crash),
        Just(Stimulus::ReleaseAll),
        (0..n).prop_map(Stimulus::HoldTo),
    ]
}

/// Builds a world of `n` echo processes and applies the stimuli; returns a
/// run fingerprint (stats + time + received-value checksums).
fn fingerprint(seed: u64, n: usize, long_tail: bool, stimuli: &[Stimulus]) -> String {
    let mut world: World<Num> = World::new(seed);
    if long_tail {
        world.set_latency(LongTail::new(1, 0.3, 20));
    } else {
        world.set_latency(Uniform::new(1, 9));
    }
    // Each process echoes every odd value back, decremented.
    for i in 0..n {
        world.spawn_named(
            format!("p{i}"),
            from_fn(move |from, msg: Num, ctx: &mut Context<'_, Num>| {
                if msg.0 % 2 == 1 {
                    ctx.send(from, Num(msg.0 / 2));
                }
            }),
        );
    }
    world.start();
    for s in stimuli {
        match s {
            Stimulus::Send { from, to, value } => {
                world.send_external(ProcessId(*from), ProcessId(*to), Num(*value));
            }
            Stimulus::RunFor(t) => {
                let target = world.now() + u64::from(*t);
                world.run_until_time(target);
            }
            Stimulus::Crash(p) => world.crash(ProcessId(*p)),
            Stimulus::ReleaseAll => {
                world.release_all();
            }
            Stimulus::HoldTo(p) => {
                let p = ProcessId(*p);
                world.adversary_mut().hold_to(p);
            }
        }
    }
    world.run_until_idle(1_000_000);
    format!(
        "{:?} now={:?} held={}",
        world.net_stats(),
        world.now(),
        world.held().len()
    )
}

/// Replays a full storage scenario — partition, heal, a Byzantine
/// truncation liar, seeded reordering — with the event trace enabled, and
/// renders everything observable into one string: the complete trace, the
/// per-operation reports, the network stats, and the Prometheus text of
/// the metrics snapshot.
///
/// This is the contract the scenario engine adds on top of the world's
/// own determinism: scripted faults and the metrics registry must be as
/// replayable as raw message delivery. (Uses `vrr-core` as a
/// dev-dependency; the cycle is dev-only.)
fn scenario_fingerprint(seed: u64) -> String {
    use vrr_core::attackers::AttackerKind;
    use vrr_core::regular::HistoryRetention;
    use vrr_core::{ProtocolKind, ProtocolSpec, StorageConfig, StorageScenario};

    // Fast sizing S = 5 keeps one honest object expendable: the liar (b=1)
    // plus one partitioned object still leaves a live S − t quorum.
    let cfg = StorageConfig::fast(1, 1, 2);
    let protocol = ProtocolSpec::from(ProtocolKind::RegularOptimized)
        .with_retention(HistoryRetention::reader_ack_capped(8));
    let mut sc = StorageScenario::deploy(protocol, cfg, seed);
    sc.world_mut().trace_mut().enable();

    sc.attack_object(4, AttackerKind::Truncator, 0xBADu64);
    let (writer, obj0) = (sc.writer(), sc.object(0));
    sc.world_mut().reorder(writer, obj0, 0.3);

    let mut ops = String::new();
    for k in 1..=12u64 {
        match k {
            3 => {
                sc.partition_objects(&[1]);
            }
            7 => {
                sc.world_mut().heal_now();
            }
            _ => {}
        }
        let w = sc.write(k * 10);
        let r = sc.read((k % 2) as usize);
        ops.push_str(&format!("w={w:?} r={r:?}\n"));
    }
    sc.world_mut().heal_now();
    sc.world_mut().run_until_idle(200_000);

    let prom = sc.metrics_snapshot().to_prometheus();
    format!(
        "{trace:?}\n{ops}stats={stats:?}\n{prom}",
        trace = sc.world().trace().events(),
        ops = ops,
        stats = sc.world().net_stats(),
    )
}

/// FNV-1a, 64 bit (`DefaultHasher` is not stable across toolchains).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The engine's behaviour, pinned: recorded while partitions and heals
/// still had a timeline of their own above the world's queue. The `reorder`
/// link does not cross the partition, so partition-over-rules precedence
/// leaves these runs alone. Re-recorded when a `Msg` began to cost its `Wire`
/// encoding, not an estimate: only the texts' `bytes_sent`/`bytes_delivered`
/// fields and `vrr_net_bytes_*` series moved. Regenerate a constant only
/// for a deliberate engine change.
#[test]
fn scenario_fingerprints_are_pinned() {
    for (seed, pinned) in [
        (3u64, 0x8f3d_56f0_5a4d_422du64),
        (41, 0x062a_47ba_6ca6_b4d7),
        (977, 0xfddb_77bb_c78c_3969),
    ] {
        let got = fnv1a(scenario_fingerprint(seed).as_bytes());
        assert_eq!(got, pinned, "seed {seed}: fingerprint {got:#018x}");
    }
}

#[test]
fn full_scenarios_replay_byte_identically() {
    for seed in [3u64, 41, 977] {
        let a = scenario_fingerprint(seed);
        let b = scenario_fingerprint(seed);
        assert_eq!(a, b, "seed {seed}: trace or metrics diverged on replay");
        // The fingerprint really covers every layer we claim it does.
        assert!(a.contains("TurnedByzantine"), "trace missing fault events");
        assert!(
            a.contains("vrr_reader_rounds"),
            "snapshot missing op metrics"
        );
        assert!(a.contains("vrr_scenario_partitions_total 1"));
        assert!(a.contains("vrr_scenario_heals_total"));
    }
    // Different seeds must not collapse onto one schedule (the latency
    // model and reorder rule are seed-derived).
    assert_ne!(scenario_fingerprint(3), scenario_fingerprint(41));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn identical_seeds_produce_identical_runs(
        seed in any::<u64>(),
        n in 2usize..6,
        long_tail in any::<bool>(),
        stimuli in proptest::collection::vec(stimulus_strategy(6), 0..25),
    ) {
        let stimuli: Vec<Stimulus> = stimuli
            .into_iter()
            .map(|s| match s {
                Stimulus::Send { from, to, value } => Stimulus::Send {
                    from: from % n,
                    to: to % n,
                    value,
                },
                Stimulus::Crash(p) => Stimulus::Crash(p % n),
                Stimulus::HoldTo(p) => Stimulus::HoldTo(p % n),
                other => other,
            })
            .collect();
        let a = fingerprint(seed, n, long_tail, &stimuli);
        let b = fingerprint(seed, n, long_tail, &stimuli);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn conservation_of_messages(
        seed in any::<u64>(),
        sends in 1usize..40,
    ) {
        // Every sent message is delivered, held, dropped, or dead-lettered —
        // nothing vanishes.
        let mut world: World<Num> = World::new(seed);
        let a = world.spawn_named("a", from_fn(|_, _: Num, _| {}));
        let b = world.spawn_named("b", from_fn(|_, _: Num, _| {}));
        world.start();
        world.adversary_mut().install("hold odd", |e: &Envelope<Num>| {
            e.msg.0.is_multiple_of(3).then_some(vrr_sim::Action::Hold)
        });
        for i in 0..sends {
            world.send_external(a, b, Num(i as u64));
            if i % 5 == 4 {
                world.crash(b);
            }
        }
        world.run_until_idle(1_000_000);
        let s = world.net_stats();
        prop_assert_eq!(
            s.sent,
            s.delivered + s.dropped + s.dead_letters + (s.held - s.released),
            "sent must equal the sum of terminal outcomes plus still-held: {:?}", s
        );
    }

    #[test]
    fn run_until_time_never_overshoots_events(
        seed in any::<u64>(),
        t in 0u64..500,
    ) {
        let mut world: World<Num> = World::new(seed);
        let a = world.spawn_named(
            "a",
            from_fn(|from, msg: Num, ctx: &mut Context<'_, Num>| {
                if msg.0 > 0 {
                    ctx.send(from, Num(msg.0 - 1));
                }
            }),
        );
        world.start();
        world.send_external(a, a, Num(400));
        world.run_until_time(SimTime::from_ticks(t));
        prop_assert!(world.now() >= SimTime::from_ticks(t));
        // Unit latency: by time t, at most t+1 self-deliveries happened.
        prop_assert!(world.net_stats().delivered <= t + 1);
    }
}
