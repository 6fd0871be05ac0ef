//! The distributed acceptance drill: a `StoreRouter` whose clusters
//! include `RemoteCluster`s in separate `vrr-server` OS processes.
//!
//! Three families:
//!
//! * **Storm under faults, distributed** — the in-proc storm of
//!   `tests/scaleout.rs` over a heterogeneous router: a remote cluster
//!   whose every register group hosts a Truncator suffix liar, a clean
//!   remote cluster and an in-proc pool. Mid-storm, one more object of
//!   the faulty cluster crashes, injected across the process boundary.
//!   Every per-key history must stay checker-verified regular.
//! * **Trace differential** — the same seeded sequential schedule driven
//!   through an all-in-proc router, a remote-backed one and one whose
//!   remote cluster is spread over three processes (a front node plus the
//!   objects in two more) must produce byte-identical per-key histories
//!   and checker reports.
//! * **Retry + `/metrics`** — `request_with_retry` survives a connection
//!   reset against a byte-level fake server, and a store-mode server
//!   answers `GET /metrics` with its Prometheus snapshot over plain HTTP.

mod common;

use std::io::{Read, Write};
use std::net::SocketAddr;
use std::sync::Arc;

use vrr_checker::{check_regularity, Recorder};
use vrr_core::StorageConfig;
use vrr_net::frame::{decode_body, encode_frame, Envelope, Payload};
use vrr_net::{
    free_addrs, Ctl, FrameReader, NetClient, Op, RemoteCluster, RemoteClusterConfig, RetryPolicy,
    Rsp, ServerProcess,
};
use vrr_runtime::{ClusterBackend, ProtocolKind, RouterConfig, ShardedStore, StoreRouter};
use vrr_workload::live::{value_of, Drill, FORGED};

/// Distinct keys in the drill.
const KEYS: u64 = 16;
/// Write rounds per key.
const ROUNDS: u64 = 5;
/// Read passes over the whole key space per reader thread.
const PASSES: u64 = 6;
/// Per-cluster shard capacity: every key could route to one cluster.
const CAPACITY: usize = KEYS as usize;

/// Spawns node `node` of a store-mode `vrr-server` deployment over
/// `addrs`: a `ShardedStore<Vec<u8>, u64>` of [`CAPACITY`] shards sized
/// `(t, b) = (2, 1)`, writer and reader on node 0, plus the `extra` flags.
fn spawn_node(node: u32, addrs: &[SocketAddr], extra: &str) -> ServerProcess {
    let args = format!(
        "--node {node} --addrs {} --t 2 --b 1 --readers 1 --kind regular-opt --store {CAPACITY}{extra}",
        common::addr_list(addrs)
    );
    ServerProcess::spawn(env!("CARGO_BIN_EXE_vrr-server"), args.split(' ')).expect("vrr-server")
}

/// Spawns a single-process store. With `byzantine`, the last object of
/// **every** store shard runs a Truncator forging [`FORGED`]; with
/// `metrics`, the process also serves `GET /metrics` on an OS-assigned
/// port.
fn spawn_store(addr: SocketAddr, byzantine: bool, metrics: bool) -> ServerProcess {
    let mut extra = String::new();
    if byzantine {
        let last = StorageConfig::optimal(2, 1, 1).s - 1;
        extra += &format!(" --byzantine all:{last}:truncator:{FORGED}");
    }
    if metrics {
        extra += " --metrics-addr 127.0.0.1:0";
    }
    spawn_node(0, &[addr], &extra)
}

/// Spawns the three processes of one spread store: node 0 is the front
/// node, the six objects live on nodes 1 and 2. Only node 0 serves keys.
fn spawn_spread() -> Vec<ServerProcess> {
    let addrs = free_addrs(3).expect("reserve ports");
    let objects = " --place-objects 1,1,1,2,2,2";
    (0..3)
        .map(|node| spawn_node(node, &addrs, objects))
        .collect()
}

fn backend(server: &ServerProcess) -> Arc<dyn ClusterBackend<u64, u64>> {
    let remote: RemoteCluster<u64, u64> =
        RemoteCluster::connect(server.addr, RemoteClusterConfig::default())
            .expect("connect remote cluster");
    Arc::new(remote)
}

/// A router of `clusters` clusters: the given backends first, then
/// in-proc pools.
fn router_over(
    clusters: usize,
    remotes: Vec<Arc<dyn ClusterBackend<u64, u64>>>,
) -> StoreRouter<u64, u64> {
    let cfg = StorageConfig::optimal(2, 1, 1);
    let rc = RouterConfig::new(clusters, CAPACITY).with_seed(2006);
    let mut remotes = remotes.into_iter();
    StoreRouter::deploy_with_backends(rc, move |_cluster| match remotes.next() {
        Some(remote) => remote,
        None => Arc::new(ShardedStore::deploy(
            cfg,
            ProtocolKind::RegularOptimized,
            CAPACITY,
        )),
    })
}

/// The live drills over the first `keys` keys of `router`, reading at
/// reader 0 of each key's shard.
fn drill_over(router: &StoreRouter<u64, u64>, keys: u64) -> Drill<'_> {
    Drill::new(
        keys,
        |key, value| {
            router.write(key, value);
        },
        |key| router.read(&key, 0).and_then(|rep| rep.value),
    )
}

// ---------------------------------------------------------------------------
// Family 1: the distributed storm under faults (3 OS processes).
// ---------------------------------------------------------------------------

#[test]
fn distributed_storm_with_a_faulty_remote_cluster_stays_regular() {
    let addrs = free_addrs(2).expect("reserve ports");
    // Cluster 0: every shard hosts a Truncator liar.
    let faulty = spawn_store(addrs[0], true, false);
    // Cluster 1: clean remote store; cluster 2: an in-proc pool. Test
    // process + 2 servers = 3 OS processes.
    let clean = spawn_store(addrs[1], false, false);
    let router = router_over(3, vec![backend(&faulty), backend(&clean)]);

    // Bind every key (write round 1) before the storm.
    let drill = drill_over(&router, KEYS);
    drill.bind();

    // The object to crash (beyond the liar): one in a group of the remote
    // faulty cluster.
    let victim = (0..KEYS)
        .find(|k| router.cluster_of(k) == 0)
        .expect("some key routes to cluster 0");
    let store0 = router.cluster_store(0).expect("cluster 0");
    let slot = store0.shard_of(&victim).expect("victim bound in cluster 0");

    // Two writers on disjoint key halves, two readers sweeping; on this
    // thread, the crash — across the process boundary — once half the
    // storm's writes are done.
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
    drop(clean);
}

// ---------------------------------------------------------------------------
// Family 2: in-proc vs distributed trace differential.
// ---------------------------------------------------------------------------

/// Runs the deterministic sequential schedule — three write/read rounds
/// over 8 keys — and returns the recording. Identical inputs must yield
/// identical histories on any conforming backend.
fn run_schedule(router: &StoreRouter<u64, u64>) -> Recorder<u64> {
    let drill = drill_over(router, 8);
    drill.schedule(1..=3, |_| ());
    drill.rec
}

#[test]
fn in_proc_and_distributed_traces_are_byte_identical() {
    let local = router_over(2, Vec::new());
    let addrs = free_addrs(2).expect("reserve ports");
    let servers: Vec<ServerProcess> = addrs
        .iter()
        .map(|&a| spawn_store(a, false, false))
        .collect();
    let remote = router_over(2, servers.iter().map(backend).collect());
    // Cluster 0 behind a front node whose objects live in two other
    // processes; cluster 1 in-proc.
    let spread_servers = spawn_spread();
    let spread = router_over(2, vec![backend(&spread_servers[0])]);

    // Byte-identical histories AND byte-identical checker reports: the
    // distributed deployments are observationally indistinguishable from
    // the in-proc one under a deterministic schedule.
    let local = run_schedule(&local);
    let verdict = local.check(check_regularity);
    assert_eq!(verdict, Ok(()), "trace not regular");
    for (name, router) in [("distributed", remote), ("spread", spread)] {
        let trace = run_schedule(&router);
        assert_eq!(
            format!("{:?}", local.histories()),
            format!("{:?}", trace.histories()),
            "traces diverge between in-proc and {name}"
        );
        assert_eq!(
            format!("{verdict:?}"),
            format!("{:?}", trace.check(check_regularity)),
            "checker reports diverge between in-proc and {name}"
        );
    }
}

// ---------------------------------------------------------------------------
// Family 3: bounded retry against resets, and the HTTP metrics endpoint.
// ---------------------------------------------------------------------------

/// A byte-level fake server: drops the first connection after accepting it
/// (a reset mid-request), then serves one `Ping` correctly on the second.
#[test]
fn request_with_retry_survives_a_connection_reset() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        // Connection 1: accept, then slam the door.
        let (stream, _) = listener.accept().expect("accept 1");
        drop(stream);
        // Connection 2: speak the real protocol for one request.
        let (mut stream, _) = listener.accept().expect("accept 2");
        let mut reader = FrameReader::new();
        let mut buf = [0u8; 4096];
        loop {
            let n = stream.read(&mut buf).expect("read");
            if n == 0 {
                return;
            }
            reader.extend(&buf[..n]);
            while let Some(body) = reader.next_frame().expect("frame") {
                let env = decode_body::<u64>(&body).expect("envelope");
                if let Payload::Ctl(Ctl::Request { id, op: Op::Ping }) = env.payload {
                    let rsp = Envelope::<u64> {
                        source: 0,
                        epoch: 0,
                        seq: 0,
                        payload: Payload::Ctl(Ctl::Response { id, rsp: Rsp::Pong }),
                    };
                    stream.write_all(&encode_frame(&rsp)).expect("respond");
                    return;
                }
            }
        }
    });

    let policy = RetryPolicy::with_seed(42);
    let mut client = NetClient::<u64>::connect_with_retry(addr, &policy).expect("connect");
    let rsp = client
        .request_with_retry(&Op::Ping, &policy)
        .expect("ping survives the reset");
    assert_eq!(rsp, Rsp::Pong);
    assert!(
        client.retry_count() >= 1,
        "the reset must have burned at least one retry"
    );
    server.join().expect("fake server");
}

#[test]
fn metrics_endpoint_serves_prometheus_over_http() {
    let addrs = free_addrs(1).expect("reserve port");
    let server = spawn_store(addrs[0], false, true);
    let metrics_addr = server.metrics_addr.expect("metrics address");

    // Generate some signal first: one write through the hosted store.
    let mut client = NetClient::<u64>::connect(server.addr).expect("connect");
    let key = {
        let mut buf = Vec::new();
        vrr_core::wire::Wire::encode(&7u64, &mut buf);
        buf
    };
    match client
        .request(Op::WriteKey { key, value: 11 })
        .expect("write")
    {
        Rsp::Wrote { .. } => {}
        other => panic!("unexpected {other:?}"),
    }

    let get = |target: &str| -> String {
        let mut stream = std::net::TcpStream::connect(metrics_addr).expect("connect http");
        stream
            .write_all(
                format!("GET {target} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes(),
            )
            .expect("send request");
        let mut text = String::new();
        stream.read_to_string(&mut text).expect("read response");
        text
    };

    let ok = get("/metrics");
    assert!(ok.starts_with("HTTP/1.1 200 OK"), "bad status: {ok:.100}");
    assert!(
        ok.contains("vrr_writer_rounds") || ok.contains("vrr_"),
        "no metrics in body: {ok:.300}"
    );
    // Only the exact target (or one with a query) is the endpoint.
    assert!(get("/metrics?x=1").starts_with("HTTP/1.1 200 OK"));
    for target in ["/nope", "/metricsfoo"] {
        let missing = get(target);
        assert!(
            missing.starts_with("HTTP/1.1 404"),
            "{target}: bad status: {missing:.100}"
        );
    }
}
