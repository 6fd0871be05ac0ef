//! Multi-cluster scale-out: routing properties and rebalance under faults.
//!
//! Two families:
//!
//! * **Routing proptests** — key→cluster routing through the seeded ring is
//!   a pure function of `(seed, key)` (replays and cooperating processes
//!   agree), and spreads keys approximately uniformly across clusters
//!   (bounded max/min bucket skew).
//! * **Rebalance under faults** — an integration test that adds and then
//!   removes a shard-cluster while concurrent writers and readers hammer
//!   the router, with a Byzantine suffix liar on every register group of
//!   the departing cluster plus one crashed object — both within the
//!   per-group `(t, b) = (2, 1)` budget. Every per-key operation history
//!   must stay regular (checker-verified), and the per-cluster key gauges
//!   must sum to the total before and after.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use vrr::checker::{check_regularity, OpHistory};
use vrr::core::attackers::AttackerKind;
use vrr::core::metrics::names;
use vrr::core::StorageConfig;
use vrr::runtime::{
    stable_hash_64, NoDelay, ProtocolKind, RingTable, RouterConfig, ShardedStore, StoreRouter,
};

// ---------------------------------------------------------------------------
// Family 1: routing properties.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn hashing_is_a_pure_function_of_seed_and_key(
        seed in any::<u64>(),
        key in any::<u64>(),
    ) {
        // Two independent computations agree (process/replay stability)...
        prop_assert_eq!(stable_hash_64(seed, &key), stable_hash_64(seed, &key));
        // ...and the seed genuinely participates.
        prop_assert_ne!(stable_hash_64(seed, &key), stable_hash_64(seed ^ 1, &key));
    }

    #[test]
    fn ring_routing_is_deterministic_across_replays(
        seed in any::<u64>(),
        clusters in 1usize..=6,
        slots_per_cluster in 1usize..=16,
        keys in proptest::collection::vec(any::<u64>(), 1..40),
    ) {
        let slots = clusters * slots_per_cluster;
        let a = RingTable::new(seed, slots, clusters);
        let b = RingTable::new(seed, slots, clusters);
        for key in &keys {
            let (slot, cluster) = a.route(key);
            prop_assert_eq!((slot, cluster), b.route(key));
            prop_assert!(slot < slots);
            prop_assert!(cluster < clusters);
        }
    }

    #[test]
    fn ring_routing_is_approximately_uniform(
        seed in any::<u64>(),
        clusters in 2usize..=6,
        slots_per_cluster in 4usize..=16,
    ) {
        // Dense sequential keys (the adversarial-but-realistic shape) over
        // a ring whose slots divide evenly: no cluster may collect more
        // than twice the share of the emptiest one.
        let ring = RingTable::new(seed, clusters * slots_per_cluster, clusters);
        let mut counts = vec![0u64; clusters];
        for k in 0..2000u64 {
            counts[ring.route(&k).1] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        prop_assert!(
            max <= 2 * min.max(1),
            "skewed routing under seed {seed}: {counts:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Family 2: rebalance while crash + Byzantine faults are live.
// ---------------------------------------------------------------------------

/// Value forged by the Byzantine objects — never written by any client, so
/// any read returning it breaks the per-key value convention and fails the
/// checker.
const FORGED: u64 = 0xBAD_F00D;

/// Distinct keys in the drill.
const KEYS: u64 = 16;
/// Write rounds per key (each writer thread owns half the keys).
const ROUNDS: u64 = 6;
/// Read passes over the whole key space per reader thread.
const PASSES: u64 = 8;

/// `key` and write round `r` encode into the written value so the read
/// side can recover the write's sequence number without trusting protocol
/// timestamps (which restart when a rebalance re-homes the register).
fn value_of(key: u64, r: u64) -> u64 {
    key * 1000 + r
}

#[test]
fn rebalance_under_crash_and_byzantine_faults_stays_regular() {
    // Per-group budget (t, b) = (2, 1): S = 6 objects tolerate one
    // Byzantine liar plus one crash.
    let cfg = StorageConfig::optimal(2, 1, 1);
    let router: Arc<StoreRouter<u64, u64>> = Arc::new(StoreRouter::deploy_with_backends(
        RouterConfig::new(2, 40).with_ring_slots(16).with_seed(2006),
        move |cluster| {
            Arc::new(if cluster == 0 {
                // Every register group of cluster 0 hosts a Truncator (a
                // suffix liar forging FORGED) in its last object slot.
                ShardedStore::deploy_with_objects(
                    cfg,
                    ProtocolKind::RegularOptimized,
                    Box::new(NoDelay),
                    40,
                    move |_shard, i| {
                        (i == cfg.s - 1).then(|| AttackerKind::Truncator.build_regular(cfg, FORGED))
                    },
                )
            } else {
                ShardedStore::deploy(cfg, ProtocolKind::RegularOptimized, Box::new(NoDelay), 40)
            })
        },
    ));

    // Bind every key (write round 1) before the storm.
    for key in 0..KEYS {
        router.write(key, value_of(key, 1));
    }
    let total_before: u64 = {
        let snap = router.metrics_snapshot();
        let sum: u64 = snap.gauge_values(names::ROUTER_KEYS).iter().sum();
        assert_eq!(sum, KEYS, "per-cluster key counts must sum to the total");
        sum
    };

    // Crash one more object (beyond the liar) in a group of cluster 0.
    let victim = (0..KEYS)
        .find(|k| router.cluster_of(k) == 0)
        .expect("some key routes to cluster 0");
    let store0 = router.cluster_store(0).expect("cluster 0 is live");
    let slot = store0.shard_of(&victim).expect("victim bound in cluster 0");
    store0.crash_object(slot, 0);

    // Shared logical clock + per-key histories. Round 1 is already in.
    let clock = Arc::new(AtomicU64::new(0));
    let histories: Arc<Vec<Mutex<OpHistory<u64>>>> = Arc::new(
        (0..KEYS)
            .map(|key| {
                let mut h = OpHistory::new();
                let t = clock.fetch_add(2, Ordering::SeqCst);
                h.push_write(1, value_of(key, 1), t, Some(t + 1));
                Mutex::new(h)
            })
            .collect(),
    );

    std::thread::scope(|scope| {
        // Two writers, disjoint key sets (SWMR per key is preserved).
        for w in 0..2u64 {
            let router = Arc::clone(&router);
            let clock = Arc::clone(&clock);
            let histories = Arc::clone(&histories);
            scope.spawn(move || {
                for r in 2..=ROUNDS {
                    for key in (0..KEYS).filter(|k| k % 2 == w) {
                        let t1 = clock.fetch_add(1, Ordering::SeqCst);
                        router.write(key, value_of(key, r));
                        let t2 = clock.fetch_add(1, Ordering::SeqCst);
                        histories[key as usize].lock().unwrap().push_write(
                            r,
                            value_of(key, r),
                            t1,
                            Some(t2),
                        );
                    }
                }
            });
        }
        // Two readers sweeping the key space.
        for reader in 0..2usize {
            let router = Arc::clone(&router);
            let clock = Arc::clone(&clock);
            let histories = Arc::clone(&histories);
            scope.spawn(move || {
                for _ in 0..PASSES {
                    for key in 0..KEYS {
                        let t1 = clock.fetch_add(1, Ordering::SeqCst);
                        let rep = router.read(&key, 0).expect("bound key readable");
                        let t2 = clock.fetch_add(1, Ordering::SeqCst);
                        let value = rep.value.expect("bound key has a value");
                        let seq = value % 1000;
                        histories[key as usize].lock().unwrap().push_read(
                            reader,
                            seq,
                            Some(value),
                            t1,
                            Some(t2),
                        );
                    }
                }
            });
        }
        // Main thread: live topology changes while the storm runs —
        // grow to 3 clusters, then drain and retire the faulty cluster 0.
        std::thread::sleep(Duration::from_millis(20));
        let added = router.add_cluster();
        assert_eq!(added, 2);
        std::thread::sleep(Duration::from_millis(20));
        let moved = router.remove_cluster(0);
        assert!(moved > 0, "cluster 0 held keys to drain");
    });

    // Zero checker-verified regularity violations, per key.
    for (key, h) in histories.iter().enumerate() {
        let h = h.lock().unwrap();
        assert!(h.validate().is_ok(), "key {key}: malformed history");
        let verdict = check_regularity(&h);
        assert!(
            verdict.is_ok(),
            "key {key}: regularity violated under rebalance: {verdict:?}"
        );
    }

    // Every key survived the drain; no read ever saw the forged value
    // (implied by the checker, asserted directly for clarity).
    for key in 0..KEYS {
        let rep = router.read(&key, 0).expect("key survived rebalance");
        assert_ne!(rep.value, Some(FORGED));
        assert_ne!(
            router.cluster_of(&key),
            0,
            "key still routed to retired cluster"
        );
    }

    // Per-cluster key gauges still sum to the total; the faulty cluster is
    // gone; rebalance counters observed the moves.
    let snap = router.metrics_snapshot();
    let sum: u64 = snap.gauge_values(names::ROUTER_KEYS).iter().sum();
    assert_eq!(sum, total_before, "key-count sum changed across rebalance");
    assert_eq!(snap.gauge(names::ROUTER_CLUSTERS, &[]), Some(2));
    assert!(snap.counter(names::ROUTER_REBALANCED_KEYS, &[]) >= 1);
    assert!(snap.counter(names::ROUTER_SLOT_MOVES, &[]) > 0);
}

/// `remove_cluster` racing a writer hammering a key on the draining
/// cluster: every write must succeed and the last one must be the value a
/// post-drain read returns — the never-expose-intermediate-state move
/// protocol may delay a write, never lose or fail one. (The distributed
/// twin of this race lives in `crates/net/tests/distributed_rebalance.rs`.)
#[test]
fn remove_cluster_racing_in_flight_writes_loses_nothing() {
    let cfg = StorageConfig::optimal(1, 1, 1);
    let router: Arc<StoreRouter<u64, u64>> = Arc::new(StoreRouter::deploy(
        cfg,
        ProtocolKind::RegularOptimized,
        RouterConfig::new(2, 40).with_ring_slots(16).with_seed(2006),
    ));
    for key in 0..KEYS {
        router.write(key, value_of(key, 1));
    }
    let victim = (0..KEYS)
        .find(|k| router.cluster_of(k) == 0)
        .expect("some key routes to cluster 0");

    const BURST: u64 = 60;
    std::thread::scope(|scope| {
        let writer = Arc::clone(&router);
        scope.spawn(move || {
            for r in 2..=BURST {
                writer
                    .try_write(victim, value_of(victim, r))
                    .expect("write during drain");
            }
        });
        std::thread::sleep(Duration::from_millis(2));
        assert!(router.remove_cluster(0) > 0, "cluster 0 held keys to drain");
    });

    let rep = router.read(&victim, 0).expect("victim survived the drain");
    assert_eq!(
        rep.value,
        Some(value_of(victim, BURST)),
        "last in-flight write lost across remove_cluster"
    );
    assert_ne!(router.cluster_of(&victim), 0);
    for key in (0..KEYS).filter(|k| *k != victim) {
        let rep = router.read(&key, 0).expect("key survived the drain");
        assert_eq!(rep.value, Some(value_of(key, 1)));
    }
}
