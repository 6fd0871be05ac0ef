//! A cluster member that lies in its metrics snapshot cannot take the
//! caller down. `Rsp::StoreMetrics` carries a whole `Registry` from another
//! process; decoding checks a histogram against itself, not against the one
//! it will be merged with, and checks no series' kind against what the
//! caller records under that name — so well-formed bytes used to reach
//! `counter_add`'s kind `panic!` in `RemoteCluster` and `merge_from`'s
//! `assert_eq!` in the router.

use std::net::TcpListener;
use std::sync::Arc;

use vrr_core::metrics::{names, Histogram, Registry};
use vrr_core::StorageConfig;
use vrr_net::{Op, RemoteCluster, RemoteClusterConfig, RetryPolicy, Rsp};
use vrr_runtime::{ClusterBackend, ProtocolKind, RouterConfig, ShardedStore, StoreRouter};

mod common;

/// Well-formed, and wrong twice: the retry counter `RemoteCluster` adds to
/// is a gauge here, and the read-latency histogram has buckets of its own.
fn forged() -> Registry {
    let mut reg = Registry::new();
    reg.gauge_set(names::WIRE_RETRIES, &[("scheme", "tcp")], 7);
    let mut latency = Histogram::new(&[5, 10]);
    latency.observe(7);
    reg.observe_all(names::READ_LATENCY, &[], &latency);
    reg
}

/// A store-hosting `vrr-server`'s answer, except that its snapshot is
/// [`forged`].
fn answer(op: Op<u64>) -> Rsp<u64> {
    match op {
        Op::StoreMetrics { .. } => Rsp::StoreMetrics { registry: forged() },
        _ => Rsp::StoreInfo { keys: 0 },
    }
}

#[test]
fn a_forged_snapshot_is_skipped_series_by_series_and_the_router_stands() {
    let cfg = StorageConfig::optimal(1, 1, 1);
    let kind = ProtocolKind::RegularOptimized;
    let honest = Arc::new(ShardedStore::deploy(cfg, kind, 2));
    honest.write(1u64, 10u64);
    assert_eq!(honest.read(&1, 0).expect("bound").value, Some(10));

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("address");
    // On one CPU: the snapshot takes the connection dialed from there,
    // the one the lying node hangs up on.
    common::on_cpu(common::first_cpu(), || {
        std::thread::scope(|scope| {
            // The lying node: it hangs up on its first connection and serves the
            // client's redial until the client goes away.
            scope.spawn(|| {
                for hang_up in [true, false] {
                    common::serve(listener.accept().expect("accept").0, hang_up, answer);
                }
            });
            let mut retry = RetryPolicy::with_seed(1);
            retry.base = std::time::Duration::from_millis(1);
            let lying = RemoteCluster::connect(addr, RemoteClusterConfig::new(1, retry));
            let lying = Arc::new(lying.expect("connect"));
            let mut backends: Vec<Arc<dyn ClusterBackend<u64, u64>>> = vec![lying.clone(), honest];
            let router = StoreRouter::deploy_with_backends(RouterConfig::new(2, 2), move |_| {
                backends.pop().expect("two clusters")
            });

            let snapshot = router.metrics_snapshot();
            assert_eq!(lying.retries(), 1, "the hang-up cost one retry");
            let tcp = [("scheme", "tcp")];
            assert_eq!(snapshot.counter(names::WIRE_RETRIES, &tcp), 1);
            assert_eq!(snapshot.gauge(names::WIRE_RETRIES, &tcp), None);
            let latency = snapshot.histogram(names::READ_LATENCY, &[]).expect("read");
            assert_eq!(latency.count(), 1, "the honest cluster's read, alone");
            assert_eq!(snapshot.counter(names::MERGE_SKIPPED, &[]), 2);
            assert_eq!(snapshot.gauge(names::ROUTER_CLUSTERS, &[]), Some(2));
        })
    });
}
