//! Multi-cluster scale-out: routing properties and a storm under faults.
//!
//! Two families:
//!
//! * **Routing proptests** — key→cluster routing,
//!   `stable_hash_64(seed, key) % clusters`, is a pure function of
//!   `(seed, key)` (replays and cooperating processes agree), spreads keys
//!   approximately uniformly across clusters (bounded max/min bucket
//!   skew), and is what `StoreRouter::cluster_of` computes.
//! * **Storm under faults** — concurrent writers and readers hammer a
//!   three-cluster router while a Byzantine suffix liar sits on every
//!   register group of cluster 0 and, mid-storm, one more object crashes
//!   there — both within the per-group `(t, b) = (2, 1)` budget. Every
//!   per-key operation history must stay regular (checker-verified), and
//!   the per-cluster key gauges must sum to the total.

use std::sync::Arc;

use proptest::prelude::*;

use vrr::checker::check_regularity;
use vrr::core::attackers::AttackerKind;
use vrr::core::metrics::names;
use vrr::core::StorageConfig;
use vrr::runtime::{
    stable_hash_64, ClusterBackend, NoDelay, ProtocolKind, RouterConfig, ShardedStore, StoreRouter,
};
use vrr::workload::live::{value_of, Drill, FORGED};

// ---------------------------------------------------------------------------
// Family 1: routing properties.
// ---------------------------------------------------------------------------

/// The router's routing function.
fn route(seed: u64, key: &u64, clusters: usize) -> usize {
    (stable_hash_64(seed, key) % clusters as u64) as usize
}

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
        keys in proptest::collection::vec(any::<u64>(), 1..40),
    ) {
        for key in &keys {
            let cluster = route(seed, key, clusters);
            prop_assert_eq!(cluster, route(seed, key, clusters));
            prop_assert!(cluster < clusters);
        }
    }

    #[test]
    fn ring_routing_is_approximately_uniform(
        seed in any::<u64>(),
        clusters in 2usize..=6,
    ) {
        // Dense sequential keys (the adversarial-but-realistic shape): no
        // cluster may collect more than twice the share of the emptiest
        // one.
        let mut counts = vec![0u64; clusters];
        for k in 0..2000u64 {
            counts[route(seed, &k, clusters)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        prop_assert!(
            max <= 2 * min.max(1),
            "skewed routing under seed {seed}: {counts:?}"
        );
    }
}

#[test]
fn cluster_of_is_the_seeded_hash_modulo_clusters() {
    // One small store behind every cluster index: routing never calls it.
    let cfg = StorageConfig::optimal(1, 1, 1);
    let store: Arc<dyn ClusterBackend<u64, u64>> =
        Arc::new(ShardedStore::deploy(cfg, ProtocolKind::Regular, 1));
    for (seed, clusters) in [(0, 1), (2006, 2), (7, 3), (u64::MAX, 5)] {
        let rc = RouterConfig::new(clusters, 1).with_seed(seed);
        let router = StoreRouter::deploy_with_backends(rc, |_| store.clone());
        for key in (0..200u64).chain([u64::MAX]) {
            assert_eq!(router.cluster_of(&key), route(seed, &key, clusters));
        }
    }
}

// ---------------------------------------------------------------------------
// Family 2: a storm while crash + Byzantine faults are live.
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
fn storm_under_crash_and_byzantine_faults_stays_regular() {
    // Per-group budget (t, b) = (2, 1): S = 6 objects tolerate one
    // Byzantine liar plus one crash.
    let cfg = StorageConfig::optimal(2, 1, 1);
    let router: StoreRouter<u64, u64> = StoreRouter::deploy_with_backends(
        RouterConfig::new(3, KEYS as usize).with_seed(2006),
        move |cluster| {
            Arc::new(if cluster == 0 {
                // Every register group of cluster 0 hosts a Truncator (a
                // suffix liar forging FORGED) in its last object slot.
                ShardedStore::deploy_with_objects(
                    cfg,
                    ProtocolKind::RegularOptimized,
                    NoDelay,
                    KEYS as usize,
                    move |_shard, i| {
                        (i == cfg.s - 1).then(|| AttackerKind::Truncator.build_regular(cfg, FORGED))
                    },
                )
            } else {
                ShardedStore::deploy(cfg, ProtocolKind::RegularOptimized, KEYS as usize)
            })
        },
    );

    // Bind every key (write round 1) before the storm.
    let drill = drill_over(&router);
    drill.bind();
    let snap = router.metrics_snapshot();
    let sum: u64 = snap.gauge_values(names::ROUTER_KEYS).iter().sum();
    assert_eq!(sum, KEYS, "per-cluster key counts must sum to the total");

    // The object to crash (beyond the liar): one in a group of cluster 0.
    let victim = (0..KEYS)
        .find(|k| router.cluster_of(k) == 0)
        .expect("some key routes to cluster 0");
    let store0 = router.cluster_store(0).expect("cluster 0");
    let slot = store0.shard_of(&victim).expect("victim bound in cluster 0");

    // Two writers on disjoint key halves, two readers sweeping; on this
    // thread, the crash, once half the storm's writes are done.
    drill.storm(2..=ROUNDS, PASSES, || {
        drill.await_writes(KEYS + KEYS * (ROUNDS - 1) / 2);
        store0.crash_object(slot, 0);
    });

    // Zero checker-verified regularity violations, per key.
    assert_eq!(drill.rec.check(check_regularity), Ok(()), "under faults");

    // Every key reads its last write: never the forged value.
    for key in 0..KEYS {
        let rep = router.read(&key, 0).expect("key bound");
        assert_eq!(rep.value, Some(value_of(key, ROUNDS)));
    }

    // Per-cluster key gauges still sum to the total, over all 3 clusters.
    let snap = router.metrics_snapshot();
    let sum: u64 = snap.gauge_values(names::ROUTER_KEYS).iter().sum();
    assert_eq!(sum, KEYS, "key-count sum changed across the storm");
    assert_eq!(snap.gauge(names::ROUTER_CLUSTERS, &[]), Some(3));
}
