//! A cluster member that lies in its metrics snapshot cannot take the
//! caller down. `Rsp::StoreMetrics` carries a whole `Registry` from another
//! process; decoding checks a histogram against itself, not against the one
//! it will be merged with, and checks no series' kind against what the
//! caller records under that name — so well-formed bytes used to reach
//! `counter_add`'s kind `panic!` in `RemoteCluster` and `merge_from`'s
//! `assert_eq!` in the router.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use vrr_core::metrics::{names, Histogram, Registry};
use vrr_core::StorageConfig;
use vrr_net::frame::{decode_body, encode_frame, Ctl, Envelope, FrameReader, Payload};
use vrr_net::{Op, RemoteCluster, RemoteClusterConfig, RetryPolicy, Rsp};
use vrr_runtime::{ClusterBackend, NoDelay, ProtocolKind, RouterConfig, ShardedStore, StoreRouter};

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

/// Answers one connection as a store-hosting `vrr-server` would, except
/// that its snapshot is [`forged`] — or hangs up on the first request,
/// which costs the client one retry.
fn serve(mut stream: TcpStream, hang_up: bool) {
    let (mut reader, mut buf) = (FrameReader::new(), [0u8; 4096]);
    loop {
        while let Some(body) = reader.next_frame().expect("framing") {
            let env: Envelope<u64> = decode_body(&body).expect("a client frame");
            let Payload::Ctl(Ctl::Request { id, op }) = env.payload else {
                continue;
            };
            if hang_up {
                return;
            }
            let rsp = match op {
                Op::StoreMetrics { .. } => Rsp::StoreMetrics { registry: forged() },
                _ => Rsp::StoreInfo {
                    capacity: 4,
                    keys: 0,
                    free_slots: 4,
                },
            };
            let env = Envelope::<u64> {
                source: 0,
                epoch: 0,
                seq: id,
                payload: Payload::Ctl(Ctl::Response { id, rsp }),
            };
            stream.write_all(&encode_frame(&env)).expect("respond");
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => reader.extend(&buf[..n]),
        }
    }
}

#[test]
fn a_forged_snapshot_is_skipped_series_by_series_and_the_router_stands() {
    let cfg = StorageConfig::optimal(1, 1, 1);
    let kind = ProtocolKind::RegularOptimized;
    let honest = Arc::new(ShardedStore::deploy(cfg, kind, Box::new(NoDelay), 2));
    honest.write(1u64, 10u64);
    assert_eq!(honest.read(&1, 0).expect("bound").value, Some(10));

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("address");
    std::thread::scope(|scope| {
        // The lying node: it hangs up on its first connection and serves the
        // client's redial until the client goes away.
        scope.spawn(|| {
            for hang_up in [true, false] {
                serve(listener.accept().expect("accept").0, hang_up);
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
    });
}
