//! Integration tests for the worker-pool runtime: the protocols behave on
//! real threads exactly as they do in the simulator, and the executor
//! scales, batches and parks as designed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vrr::core::attackers::AttackerKind;
use vrr::core::StorageConfig;
use vrr::runtime::{
    Cluster, ClusterBackend, FixedDelay, InvokeError, NoDelay, NodeGone, ProtocolKind,
    ShardedStore, StorageCluster,
};
use vrr::sim::{from_fn, Automaton, Context, ProcessId};

#[test]
fn all_variants_round_trip_on_threads() {
    for kind in [
        ProtocolKind::Safe,
        ProtocolKind::Regular,
        ProtocolKind::RegularOptimized,
    ] {
        let cfg = StorageConfig::optimal(1, 1, 2);
        let storage: StorageCluster<u64> = StorageCluster::deploy(cfg, kind, Box::new(NoDelay));
        for k in 1..=4u64 {
            let w = storage.write(k * 3);
            assert_eq!(w.rounds, 2);
            for j in 0..2 {
                let r = storage.read(j);
                assert_eq!(r.value, Some(k * 3), "{kind:?} reader {j}");
                // Two of any three replies hold the completed write.
                assert_eq!(r.rounds, 1, "round 1 proves a quiet read");
            }
        }
    }
}

#[test]
fn byzantine_objects_on_threads_are_filtered() {
    let cfg = StorageConfig::optimal(2, 2, 1);
    for attacker in AttackerKind::ALL {
        let storage: StorageCluster<u64> =
            StorageCluster::deploy_with_objects(cfg, ProtocolKind::Safe, Box::new(NoDelay), |i| {
                (i < cfg.b).then(|| attacker.build_safe(cfg, 0xDEAD))
            });
        storage.write(77);
        let r = storage.read(0);
        assert_eq!(r.value, Some(77), "{attacker:?} corrupted a threaded read");
        assert!(r.rounds <= 2, "{attacker:?}: Proposition 2's worst case");
    }
}

#[test]
fn crashes_within_budget_are_transparent() {
    let cfg = StorageConfig::optimal(2, 1, 1); // t = 2
    let storage: StorageCluster<u64> =
        StorageCluster::deploy(cfg, ProtocolKind::Regular, Box::new(NoDelay));
    storage.write(1);
    storage.crash_object(1);
    storage.write(2);
    storage.crash_object(4);
    storage.write(3);
    assert_eq!(storage.read(0).value, Some(3));
}

#[test]
fn link_delay_slows_but_does_not_break() {
    let cfg = StorageConfig::optimal(1, 1, 1);
    let storage: StorageCluster<u64> = StorageCluster::deploy(
        cfg,
        ProtocolKind::Safe,
        Box::new(FixedDelay(Duration::from_millis(2))),
    );
    let t0 = std::time::Instant::now();
    storage.write(5);
    let w_elapsed = t0.elapsed();
    assert_eq!(storage.read(0).value, Some(5));
    // Two rounds x two link crossings x 2 ms each ≈ at least 8 ms.
    assert!(
        w_elapsed >= Duration::from_millis(7),
        "write finished too fast for 2 round-trips over 2 ms links: {w_elapsed:?}"
    );
}

/// ≥512 processes exchange >100k messages on a 4-worker pool: every
/// delivery is counted, the totals come out exact, and shutdown joins
/// cleanly (the `Drop` at the end of this test would hang otherwise).
#[test]
fn worker_pool_stress_512_processes_100k_messages() {
    const N: usize = 512;
    const HOPS: u64 = 200; // 512 tokens x 200 hops = 102_400 deliveries
    let delivered = Arc::new(AtomicU64::new(0));

    let mut cluster: Cluster<u64> = Cluster::with_workers(Box::new(NoDelay), 4);
    for _ in 0..N {
        let delivered = delivered.clone();
        cluster.spawn(from_fn(
            move |_from, hops: u64, ctx: &mut Context<'_, u64>| {
                delivered.fetch_add(1, Ordering::Relaxed);
                if hops > 1 {
                    let next = ProcessId((ctx.me().index() + 1) % N);
                    ctx.send(next, hops - 1);
                }
            },
        ));
    }
    cluster.seal();
    assert_eq!(cluster.len(), N);
    assert_eq!(cluster.workers(), 4);

    for i in 0..N {
        cluster.send_external(ProcessId(i), ProcessId(i), HOPS);
    }

    let expected = N as u64 * HOPS;
    let deadline = Instant::now() + Duration::from_secs(60);
    while delivered.load(Ordering::Relaxed) < expected {
        assert!(
            Instant::now() < deadline,
            "stalled at {}/{expected} deliveries",
            delivered.load(Ordering::Relaxed)
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(delivered.load(Ordering::Relaxed), expected, "exact total");
    let stats = cluster.stats();
    assert!(
        stats.commands >= expected,
        "all deliveries flowed through worker sweeps: {stats:?}"
    );
    assert!(
        stats.sweeps < stats.commands,
        "batching must amortize sweeps below one per command: {stats:?}"
    );
    drop(cluster); // clean shutdown: joins all 4 workers without hanging
}

/// The seed router woke every 50 ms even with nothing to do. The executor
/// parks on condvars: once quiescent, an idle cluster accumulates zero
/// further wakeups.
#[test]
fn idle_cluster_makes_zero_spurious_wakeups() {
    let mut cluster: Cluster<u64> = Cluster::with_workers(Box::new(NoDelay), 2);
    let a = cluster.spawn(from_fn(|from, n: u64, ctx: &mut Context<'_, u64>| {
        if n > 0 {
            ctx.send(from, n - 1);
        }
    }));
    let b = cluster.spawn(from_fn(|from, n: u64, ctx: &mut Context<'_, u64>| {
        if n > 0 {
            ctx.send(from, n - 1);
        }
    }));
    cluster.seal();
    // Do a little real work, then let the pool go quiescent.
    cluster.send_external(a, b, 8);
    std::thread::sleep(Duration::from_millis(150));

    let before = cluster.stats();
    std::thread::sleep(Duration::from_millis(400));
    let after = cluster.stats();
    // The Condvar contract permits rare OS-level spurious wakeups, so
    // tolerate a couple; the property under test is the absence of
    // *polling* — the seed router would have woken ≥8 times per worker in
    // this window, and any poll loop would blow straight past the bound.
    assert!(
        after.wakeups - before.wakeups <= 2,
        "an idle cluster must not poll: {before:?} -> {after:?}"
    );
    assert_eq!(after.sweeps, before.sweeps, "and must not sweep");
}

/// `try_invoke` surfaces a crashed node as `Err(Gone(NodeGone))`; `invoke` keeps
/// the panicking contract for infrastructure errors.
#[test]
fn try_invoke_distinguishes_live_and_crashed_nodes() {
    let cfg = StorageConfig::optimal(1, 1, 1);
    let storage: StorageCluster<u64> =
        StorageCluster::deploy(cfg, ProtocolKind::Regular, Box::new(NoDelay));
    storage.write(3);
    let object = storage.objects()[0];

    // Live: try_invoke behaves exactly like invoke.
    let label = storage
        .cluster()
        .try_invoke(
            object,
            |o: &mut vrr::core::regular::RegularObject<u64>, _ctx| o.label(),
        )
        .expect("live object executes");
    assert_eq!(label, "regular-object");

    // Crashed: the closure is dropped and the caller gets NodeGone.
    storage.crash_object(0);
    let gone = storage.cluster().try_invoke(
        object,
        |o: &mut vrr::core::regular::RegularObject<u64>, _ctx| o.label(),
    );
    assert_eq!(gone, Err(InvokeError::Gone(NodeGone(object))));

    // The protocol still works around the crash (within budget t = 1).
    storage.write(4);
    assert_eq!(storage.read(0).value, Some(4));
}

/// 64 keys on a sharded store: per-shard writers let concurrent client
/// threads make progress on disjoint keys, and every key reads back its
/// own latest value.
#[test]
fn sharded_store_serves_64_keys_concurrently() {
    const KEYS: usize = 64;
    const WRITERS: usize = 8;
    let cfg = StorageConfig::optimal(1, 1, 1);
    let store: Arc<ShardedStore<String, u64>> = Arc::new(ShardedStore::deploy(
        cfg,
        ProtocolKind::RegularOptimized,
        Box::new(NoDelay),
        KEYS,
    ));

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let store = &store;
            scope.spawn(move || {
                for k in (w..KEYS).step_by(WRITERS) {
                    for gen in 1..=3u64 {
                        store.write(format!("key-{k}"), (k as u64) * 1000 + gen);
                    }
                }
            });
        }
    });

    assert_eq!(store.len(), KEYS, "every key bound to its own shard");
    for k in 0..KEYS {
        let r = store.read(&format!("key-{k}"), 0).expect("written key");
        assert_eq!(r.value, Some((k as u64) * 1000 + 3), "key-{k} latest gen");
        assert_eq!(r.rounds, 1, "quiet reads stay one-round under sharding");
    }
}

#[test]
fn concurrent_readers_under_churn_stay_consistent() {
    // Several readers pull while the writer pushes; every observed value
    // must be one the writer actually wrote. Per-reader timestamp
    // monotonicity is asserted too: plain regularity does not promise it,
    // but the §5.1 reader's cache does (candidates come from the suffix at
    // or above the last returned timestamp).
    let cfg = StorageConfig::optimal(2, 1, 3);
    let storage: StorageCluster<u64> =
        StorageCluster::deploy(cfg, ProtocolKind::RegularOptimized, Box::new(NoDelay));
    std::thread::scope(|scope| {
        let storage = &storage;
        scope.spawn(move || {
            for k in 1..=30u64 {
                storage.write(k);
            }
        });
        let mut handles = Vec::new();
        for j in 0..3usize {
            handles.push(scope.spawn(move || {
                let mut last = vrr::core::Timestamp::ZERO;
                for _ in 0..20 {
                    let r = storage.read(j);
                    if let Some(v) = r.value {
                        assert!((1..=30).contains(&v), "phantom value {v}");
                        assert_eq!(r.ts.0, v, "value/timestamp drift");
                    }
                    assert!(r.ts >= last, "reader {j} went back in time");
                    last = r.ts;
                }
            }));
        }
    });
}
