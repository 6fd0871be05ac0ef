//! Multi-cluster scale-out: deterministic routing, Zipfian load, live
//! rebalance with faults in flight.
//!
//! The "millions of users" deployment shape: a [`StoreRouter`] partitions
//! the key space across independent shard-clusters (each a full worker
//! pool hosting `S = 2t + b + 1` replica groups per key) by seeded hash —
//! routing is a pure function of `(seed, key)`, so any client routes
//! without asking a directory. The run:
//!
//! 1. deploy 2 clusters, push a skewed (Zipfian θ = 0.99) workload from
//!    4 client threads,
//! 2. scale out to 3 clusters live, then drain and retire cluster 0 —
//!    while a Byzantine suffix liar sits in every register group of
//!    cluster 0 and the workload keeps running,
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
    let router: Arc<StoreRouter<u64, u64>> =
        Arc::new(StoreRouter::deploy_with_backends(rc, move |cluster| {
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
        }));
    println!(
        "router: {} clusters x {} register shards, {} ring slots, seed {}",
        router.cluster_count(),
        KEYS,
        router.ring().slot_count(),
        router.ring().seed(),
    );

    // Bind every key, then note the skew-free placement.
    for k in 0..KEYS {
        router.write(k, k * 1000);
    }
    println!("placement after first writes: {:?}", router.key_counts());

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

    // --- Live topology changes, workload still running. -----------------
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let r2 = Arc::clone(&router);
        let worker = scope.spawn(move || storm(&r2, 2));
        let added = router.add_cluster();
        println!(
            "scaled out: cluster {added} joined, placement {:?}",
            router.key_counts()
        );
        let moved = router.remove_cluster(0);
        println!("scaled in: drained {moved} keys off compromised cluster 0");
        worker.join().expect("storm survived rebalance");
    });
    println!("rebalance with live traffic took {:.2?}", t0.elapsed());

    // --- Verify every key and show the router's observable state. -------
    for k in 0..KEYS {
        let r = router.read(&k, 0).expect("key survived rebalance");
        let v = r.value.expect("value survived rebalance");
        assert_eq!(v / 1000, k);
        assert_ne!(v, FORGED);
        assert_ne!(
            router.cluster_of(&k),
            0,
            "key still routed to retired cluster"
        );
    }
    let snap = router.metrics_snapshot();
    let keys_total: u64 = snap.gauge_values(names::ROUTER_KEYS).iter().sum();
    assert_eq!(keys_total, KEYS, "per-cluster key gauges must sum to total");
    println!(
        "metrics: {} live clusters, {keys_total} keys, {} slot moves, {} keys rebalanced",
        snap.gauge(names::ROUTER_CLUSTERS, &[]).unwrap_or(0),
        snap.counter(names::ROUTER_SLOT_MOVES, &[]),
        snap.counter(names::ROUTER_REBALANCED_KEYS, &[]),
    );
    println!(
        "ok: deterministic routing held, the liar-hosting cluster was drained live, \
         and no client ever saw a forged or stale value."
    );
}
