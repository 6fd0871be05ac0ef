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

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use vrr::checker::check_regularity;
use vrr::core::attackers::AttackerKind;
use vrr::core::metrics::names;
use vrr::core::StorageConfig;
use vrr::runtime::{
    stable_hash_64, NoDelay, ProtocolKind, RingTable, RouterConfig, ShardedStore, StoreRouter,
};
use vrr::workload::live::{Drill, FORGED};

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

/// Distinct keys in the drill.
const KEYS: u64 = 16;
/// Write rounds per key (each writer thread owns half the keys).
const ROUNDS: u64 = 6;
/// Read passes over the whole key space per reader thread.
const PASSES: u64 = 8;

/// The live drills over `router`, reading at reader 0 of each key's shard.
fn drill_over(router: &StoreRouter<u64, u64>) -> Drill<'_> {
    Drill::new(
        KEYS,
        |key, value| {
            router.write(key, value);
        },
        |key| router.read(&key, 0).and_then(|rep| rep.value),
    )
}

#[test]
fn rebalance_under_crash_and_byzantine_faults_stays_regular() {
    // Per-group budget (t, b) = (2, 1): S = 6 objects tolerate one
    // Byzantine liar plus one crash.
    let cfg = StorageConfig::optimal(2, 1, 1);
    let router: StoreRouter<u64, u64> = StoreRouter::deploy_with_backends(
        RouterConfig::new(2, 40).with_ring_slots(16).with_seed(2006),
        move |cluster| {
            Arc::new(if cluster == 0 {
                // Every register group of cluster 0 hosts a Truncator (a
                // suffix liar forging FORGED) in its last object slot.
                ShardedStore::deploy_with_objects(
                    cfg,
                    ProtocolKind::RegularOptimized,
                    NoDelay,
                    40,
                    move |_shard, i| {
                        (i == cfg.s - 1).then(|| AttackerKind::Truncator.build_regular(cfg, FORGED))
                    },
                )
            } else {
                ShardedStore::deploy(cfg, ProtocolKind::RegularOptimized, 40)
            })
        },
    );

    // Bind every key (write round 1) before the storm.
    let drill = drill_over(&router);
    drill.bind();
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

    // Two writers on disjoint key halves, two readers sweeping; on this
    // thread, live topology changes while the storm runs — grow to 3
    // clusters, then drain and retire the faulty cluster 0.
    drill.storm(2..=ROUNDS, PASSES, || {
        std::thread::sleep(Duration::from_millis(20));
        let added = router.add_cluster();
        assert_eq!(added, 2);
        std::thread::sleep(Duration::from_millis(20));
        let moved = router.remove_cluster(0);
        assert!(moved > 0, "cluster 0 held keys to drain");
    });

    // Zero checker-verified regularity violations, per key.
    assert_eq!(drill.rec.check(check_regularity), Ok(()), "under rebalance");

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
    let router: StoreRouter<u64, u64> = StoreRouter::deploy(
        cfg,
        ProtocolKind::RegularOptimized,
        RouterConfig::new(2, 40).with_ring_slots(16).with_seed(2006),
    );
    let drill = drill_over(&router);
    drill.bind();
    let victim = (0..KEYS)
        .find(|k| router.cluster_of(k) == 0)
        .expect("some key routes to cluster 0");

    const BURST: u64 = 60;
    drill.drain_race(victim, 2..=BURST, || {
        std::thread::sleep(Duration::from_millis(2));
        assert!(router.remove_cluster(0) > 0, "cluster 0 held keys to drain");
    });

    // The victim reads back its last write, every other key its first.
    assert_eq!(drill.rec.check(check_regularity), Ok(()), "write lost");
    assert_ne!(router.cluster_of(&victim), 0);
}
