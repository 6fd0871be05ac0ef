//! Distributed scale-out demo: one `StoreRouter` spanning **two
//! store-hosting `vrr-server` OS processes** plus an in-proc pool — the
//! multi-process companion to `scaleout.rs`.
//!
//! The drill mirrors the distributed acceptance test in miniature:
//!
//! 1. Two store-mode `vrr-server`s come up; every register group of the
//!    first hosts a Byzantine Truncator (a suffix liar), and it also
//!    serves `GET /metrics` over plain HTTP.
//! 2. A `StoreRouter` spans both as [`RemoteCluster`] backends, plus a
//!    third, in-proc cluster; after the keys are bound we crash one more
//!    object in the faulty cluster — fault injection across the process
//!    boundary — and a seeded write/read schedule runs.
//! 3. Every per-key history is checker-verified regular, and the metrics
//!    endpoint is scraped once.
//!
//! Run with:
//!
//! ```text
//! cargo build --release -p vrr-net --bin vrr-server
//! cargo run --release --example dist_scaleout
//! ```
//!
//! The example finds `vrr-server` next to its own executable (both land
//! in `target/<profile>/`); set `VRR_SERVER_BIN` to override.

use std::io::{Read, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;

use vrr::checker::check_regularity;
use vrr::core::StorageConfig;
use vrr::net::{free_addrs, NetClient, RemoteCluster, RemoteClusterConfig, ServerProcess};
use vrr::runtime::{ClusterBackend, ProtocolKind, RouterConfig, ShardedStore, StoreRouter};
use vrr::workload::live::{Drill, FORGED};

/// Distinct keys in the drill.
const KEYS: u64 = 12;
/// Write rounds per key.
const ROUNDS: u64 = 4;
/// Per-cluster shard capacity: every key could route to one cluster.
const CAPACITY: usize = KEYS as usize;

fn server_bin() -> PathBuf {
    if let Ok(path) = std::env::var("VRR_SERVER_BIN") {
        return PathBuf::from(path);
    }
    let mut path = std::env::current_exe().expect("own path");
    path.pop(); // dist_scaleout
    path.pop(); // examples/
    path.push("vrr-server");
    if !path.exists() {
        eprintln!(
            "vrr-server not found at {} — build it first:\n    \
             cargo build --release -p vrr-net --bin vrr-server\n\
             (or set VRR_SERVER_BIN)",
            path.display()
        );
        exit(2);
    }
    path
}

/// Spawns one store-mode `vrr-server` hosting [`CAPACITY`] register shards
/// sized `(t, b) = (2, 1)` — killed if the example fails before shutting
/// it down, and an error (not a hang) if it never reports `READY`.
fn spawn_store(addr: SocketAddr, byzantine: bool, metrics: bool) -> ServerProcess {
    let mut args = format!(
        "--node 0 --addrs {addr} --t 2 --b 1 --readers 1 --kind regular-opt --store {CAPACITY}"
    );
    if byzantine {
        let last = StorageConfig::optimal(2, 1, 1).s - 1;
        args += &format!(" --byzantine all:{last}:truncator:{FORGED}");
    }
    if metrics {
        args += " --metrics-addr 127.0.0.1:0";
    }
    ServerProcess::spawn(server_bin(), args.split(' ')).expect("spawn vrr-server")
}

fn remote_backend(addr: SocketAddr) -> Arc<dyn ClusterBackend<u64, u64>> {
    let remote: RemoteCluster<u64, u64> =
        RemoteCluster::connect(addr, RemoteClusterConfig::default())
            .expect("connect remote cluster");
    Arc::new(remote)
}

fn main() {
    let cfg = StorageConfig::optimal(2, 1, 1);
    let addrs = free_addrs(2).expect("reserve two localhost ports");
    println!("deploying 2 store-mode vrr-server processes on {addrs:?}");
    let mut servers = [
        spawn_store(addrs[0], true, true),
        spawn_store(addrs[1], false, false),
    ];
    let (faulty_addr, clean_addr) = (servers[0].addr, servers[1].addr);
    let metrics_addr = servers[0].metrics_addr.expect("metrics bound");
    println!("  cluster 0 (Byzantine Truncator per group): {faulty_addr}, metrics {metrics_addr}");
    println!("  cluster 1 (clean): {clean_addr}");

    // One router over both remote processes and, as cluster 2, an
    // in-proc pool.
    let mut remotes = [faulty_addr, clean_addr].map(remote_backend).into_iter();
    let router: StoreRouter<u64, u64> = StoreRouter::deploy_with_backends(
        RouterConfig::new(3, CAPACITY).with_seed(2006),
        |_cluster| match remotes.next() {
            Some(remote) => remote,
            None => Arc::new(ShardedStore::deploy(
                cfg,
                ProtocolKind::RegularOptimized,
                CAPACITY,
            )),
        },
    );

    // Bind every key, then crash one extra object (beyond the standing
    // liar) in a group of the remote faulty cluster.
    let drill = Drill::new(
        KEYS,
        |key, value| {
            router.write(key, value);
        },
        |key| router.read(&key, 0).and_then(|rep| rep.value),
    );
    drill.bind();
    let victim = (0..KEYS)
        .find(|k| router.cluster_of(k) == 0)
        .expect("some key routes to cluster 0");
    let store0 = router.cluster_store(0).expect("cluster 0 is live");
    let slot = store0.shard_of(&victim).expect("victim bound in cluster 0");
    store0.crash_object(slot, 0);
    println!("crashed object 0 of remote shard {slot} (cluster 0 now liar + crash)");

    // Deterministic schedule: write every key, read every key, per round.
    drill.schedule(2..=ROUNDS, |_| ());
    let per_cluster: Vec<usize> = (0..3)
        .map(|c| (0..KEYS).filter(|k| router.cluster_of(k) == c).count())
        .collect();
    println!("keys per cluster (tcp, tcp, inproc): {per_cluster:?}");

    // Verdicts: every per-key history regular, no forged value surfaced.
    assert_eq!(drill.rec.check(check_regularity), Ok(()), "VIOLATION");
    println!("{KEYS} keys x {ROUNDS} rounds checker-verified regular");
    for key in 0..KEYS {
        let rep = router.read(&key, 0).expect("key bound");
        assert_ne!(rep.value, Some(FORGED), "forged value escaped");
    }

    // Scrape the faulty server's Prometheus endpoint once.
    let mut stream = std::net::TcpStream::connect(metrics_addr).expect("connect http");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .expect("send GET /metrics");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let series = text.lines().filter(|l| l.starts_with("vrr_")).count();
    println!(
        "GET /metrics: {} — {series} vrr_* series",
        text.lines().next().unwrap_or("")
    );
    assert!(
        text.starts_with("HTTP/1.1 200 OK"),
        "metrics endpoint failed"
    );

    for addr in [faulty_addr, clean_addr] {
        if let Ok(mut c) = NetClient::<u64>::connect(addr) {
            c.shutdown_server().ok();
        }
    }
    for server in &mut servers {
        server.wait();
    }
    println!("dist_scaleout: regular across 3 OS processes under a liar and a crash");
}
