//! Multi-cluster scale-out: deterministic routing, Zipfian load, faults
//! in flight.
//!
//! The "millions of users" deployment shape: a [`StoreRouter`] partitions
//! the key space across independent shard-clusters (each a full worker
//! pool hosting `S = 2t + b + 1` replica groups per key) by seeded hash —
//! routing is a pure function of `(seed, key)`, so any client routes
//! without asking a directory. The run:
//!
//! 1. deploy 2 clusters, push a skewed (Zipfian θ = 0.99) workload from
//!    4 client threads,
//! 2. crash an object of cluster 0 while a second storm runs — on top of
//!    the Byzantine suffix liar in every register group of cluster 0,
//! 3. verify every key end to end and print the router's Prometheus
//!    snapshot highlights.
//!
//! Run with `cargo run --release --example scaleout`.

use std::sync::Arc;
use std::time::Instant;

use vrr::core::attackers::AttackerKind;
use vrr::core::metrics::names;
use vrr::core::StorageConfig;
use vrr::runtime::{NoDelay, ProtocolKind, RouterConfig, ShardedStore, StoreRouter};
use vrr::workload::ZipfianKeys;

const KEYS: u64 = 48;
const CLIENTS: u64 = 4;
const OPS_PER_CLIENT: u64 = 96;
const FORGED: u64 = 0xBAD_F00D;

fn main() {
    // Per register group: t = 1 fault, b = 1 Byzantine (S = 4 objects).
    let cfg = StorageConfig::optimal(1, 1, 1);
    let rc = RouterConfig::new(2, KEYS as usize).with_seed(2006);
    let router: StoreRouter<u64, u64> = StoreRouter::deploy_with_backends(rc, move |cluster| {
        Arc::new(if cluster == 0 {
            // Cluster 0 is compromised: every register group hosts a
            // suffix liar in its last object slot (within b = 1).
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
    });
    println!(
        "router: {} clusters x {} register shards, seed {}",
        router.cluster_count(),
        KEYS,
        rc.seed,
    );

    // Bind every key, then note the skew-free placement.
    for k in 0..KEYS {
        router.write(k, k * 1000);
    }
    let placement: Vec<usize> = (0..router.cluster_count())
        .map(|c| router.cluster_store(c).expect("cluster").len())
        .collect();
    println!("keys per cluster after first writes: {placement:?}");

    // --- Skewed load: 4 clients, Zipfian θ = 0.99, 50/50 write/read. ----
    let t0 = Instant::now();
    let storm = |router: &StoreRouter<u64, u64>, salt: u64| {
        std::thread::scope(|scope| {
            for c in 0..CLIENTS {
                let router = &router;
                scope.spawn(move || {
                    let mut zipf = ZipfianKeys::ycsb(KEYS, salt * CLIENTS + c);
                    for i in 0..OPS_PER_CLIENT {
                        let key = zipf.next_scrambled();
                        if i % 2 == 0 && key % CLIENTS == c {
                            // Disjoint writer ownership keeps SWMR per key.
                            router.write(key, key * 1000 + i);
                        } else {
                            let r = router.read(&key, 0).expect("bound key");
                            let v = r.value.expect("bound key has value");
                            assert_eq!(v / 1000, key, "read routed to the wrong register");
                            assert_ne!(v, FORGED, "forged value escaped the quorum");
                        }
                    }
                });
            }
        });
    };
    storm(&router, 1);
    let ops = CLIENTS * OPS_PER_CLIENT;
    println!(
        "zipfian storm: {ops} ops in {:.2?} ({:.0} ops/s)",
        t0.elapsed(),
        ops as f64 / t0.elapsed().as_secs_f64()
    );

    // --- A crash in the compromised cluster, workload still running. ----
    let victim = (0..KEYS)
        .find(|k| router.cluster_of(k) == 0)
        .expect("some key routes to cluster 0");
    let store0 = router.cluster_store(0).expect("cluster 0");
    let slot = store0.shard_of(&victim).expect("victim bound in cluster 0");
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| storm(&router, 2));
        store0.crash_object(slot, 0);
        println!("crashed object 0 of shard {slot} in cluster 0 (liar + crash) mid-storm");
        worker.join().expect("storm survived the crash");
    });

    // --- Verify every key and show the router's observable state. -------
    for k in 0..KEYS {
        let r = router.read(&k, 0).expect("bound key");
        let v = r.value.expect("bound key has value");
        assert_eq!(v / 1000, k);
        assert_ne!(v, FORGED);
    }
    let snap = router.metrics_snapshot();
    let keys_total: u64 = snap.gauge_values(names::ROUTER_KEYS).iter().sum();
    assert_eq!(keys_total, KEYS, "per-cluster key gauges must sum to total");
    let reads: u64 = (0..router.cluster_count())
        .filter_map(|c| {
            let label = c.to_string();
            snap.histogram(names::ROUTER_READ_LATENCY, &[("cluster", &label)])
                .map(|h| h.count())
        })
        .sum();
    println!(
        "metrics: {} clusters, {keys_total} keys, {reads} routed reads",
        snap.gauge(names::ROUTER_CLUSTERS, &[]).unwrap_or(0),
    );
    println!(
        "ok: deterministic routing held, the liar-hosting cluster took a crash live, \
         and no client ever saw a forged value."
    );
}
