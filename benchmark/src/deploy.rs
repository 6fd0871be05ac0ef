//! Set-up: deploy (or spawn) one cluster behind a `StoreRouter` and
//! pre-bind every key. Everything here goes through public constructors
//! and the real `vrr-server` binary.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vrr_core::attackers::AttackerKind;
use vrr_core::{Msg, StorageConfig};
use vrr_net::{free_addrs, RemoteCluster, RemoteClusterConfig, RetryPolicy};
use vrr_runtime::{
    ClusterBackend, NoDelay, ProtocolKind, RouterConfig, ShardedStore, StorageCluster, StoreRouter,
};
use vrr_sim::Automaton;

use crate::spec::{Workload, CLIENTS, FORGED, KEYS, ROUTER_SEED};

pub const KIND: ProtocolKind = ProtocolKind::RegularOptimized;

pub type Router = StoreRouter<u64, u64>;

/// How long the server may take to print its banner.
const BANNER_TIMEOUT: Duration = Duration::from_secs(10);

/// The sizing a workload's register groups run at.
pub fn storage_config(w: &Workload) -> StorageConfig {
    if w.byzantine {
        StorageConfig::optimal(2, 1, CLIENTS)
    } else {
        StorageConfig::optimal(1, 1, CLIENTS)
    }
}

/// The value a pre-bind writes under `key` (timestamp 1 of every key).
pub fn prebind_value(key: u64) -> u64 {
    0xFFFF_0000_0000_0000 | key
}

/// A `vrr-server` child that is killed and reaped when dropped — on
/// every exit path, unwinding included.
pub struct ServerGuard {
    child: Child,
    banner_reader: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
}

impl ServerGuard {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Spawns the store-hosting server the remote workloads drive:
    /// `optimal(1,1,CLIENTS)`, regular-opt, `KEYS` shards, ports from
    /// `free_addrs`.
    pub fn spawn(server_bin: &Path) -> Result<ServerGuard, String> {
        let addrs = free_addrs(2).map_err(|e| format!("reserve ports: {e}"))?;
        let mut child = Command::new(server_bin)
            .args(["--node", "0", "--addrs", &addrs[0].to_string()])
            .args(["--t", "1", "--b", "1", "--readers", &CLIENTS.to_string()])
            .args(["--kind", "regular-opt", "--store", &KEYS.to_string()])
            .args(["--metrics-addr", &addrs[1].to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", server_bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        // The reader thread owns the pipe so a silent server cannot block
        // us past the timeout; it ends at EOF, i.e. when the child dies.
        let (tx, rx) = mpsc::channel::<String>();
        let banner_reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut guard = ServerGuard {
            child,
            banner_reader: Some(banner_reader),
            addr: addrs[0],
        };
        guard.addr = banner_addr(&rx, "READY ")?;
        // `GET /metrics` is there for an operator to watch a run; a server
        // that came up without it is not the deployment we describe.
        banner_addr(&rx, "METRICS ")?;
        Ok(guard)
    }
}

fn banner_addr(rx: &mpsc::Receiver<String>, prefix: &str) -> Result<SocketAddr, String> {
    let line = rx.recv_timeout(BANNER_TIMEOUT).map_err(|_| {
        format!("vrr-server printed no `{prefix}` banner within {BANNER_TIMEOUT:?}")
    })?;
    line.trim()
        .strip_prefix(prefix)
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| format!("unexpected vrr-server banner {line:?} (wanted `{prefix}<addr>`)"))
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.banner_reader.take() {
            let _ = reader.join();
        }
    }
}

/// One deployed, pre-bound cluster behind a router.
pub struct Deployment {
    pub router: Arc<Router>,
    /// The remote workloads' backend, for `retries()`.
    pub remote: Option<Arc<RemoteCluster<u64, u64>>>,
    // Dropped after the router: clients disconnect before the kill.
    pub server: Option<ServerGuard>,
}

fn byzantine_object(cfg: StorageConfig, object: usize) -> Option<Box<dyn Automaton<Msg<u64>>>> {
    (object == 0).then(|| AttackerKind::Conflicter.build_regular(cfg, FORGED))
}

fn inproc_store(w: &Workload) -> ShardedStore<u64, u64> {
    let cfg = storage_config(w);
    let byzantine = w.byzantine;
    ShardedStore::deploy_with_objects(cfg, KIND, Box::new(NoDelay), KEYS as usize, move |_, i| {
        byzantine.then(|| byzantine_object(cfg, i)).flatten()
    })
}

/// Writes every key once, then — on the Byzantine workload — crashes
/// object 1 of every shard, so each group runs with its full fault budget
/// spent: one liar and one crash.
fn prebind(w: &Workload, store: &dyn ClusterBackend<u64, u64>) {
    // As under load: one pinned thread per client, each binding the keys it
    // owns. A single serial writer makes set-up time bimodal — the kernel
    // either keeps the whole request chain on one vCPU (cheap wake-ups) or
    // spreads it (an inter-processor interrupt per hop), 3x apart.
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            scope.spawn(move || {
                crate::probe::pin_current_thread(client);
                for key in (client as u64..KEYS).step_by(CLIENTS) {
                    let report = store.write(key, prebind_value(key));
                    assert_eq!(report.ts.0, 1, "pre-bind is the first write of key {key}");
                }
            });
        }
    });
    if w.byzantine {
        for key in 0..KEYS {
            let slot = store.shard_of(&key).expect("pre-bound key has a shard");
            store.crash_object(slot, 1);
        }
    }
}

fn router_over(backend: Arc<dyn ClusterBackend<u64, u64>>) -> Arc<Router> {
    let mut backend = Some(backend);
    Arc::new(StoreRouter::deploy_with_backends(
        RouterConfig::new(1, KEYS as usize).with_seed(ROUTER_SEED),
        move |_| backend.take().expect("the benchmark never adds clusters"),
    ))
}

/// Deploys the workload's cluster behind a router and pre-binds `KEYS`
/// keys. Returns the deployment and how long that took (spawn/deploy +
/// connect + pre-bind; building the binaries is not part of it).
pub fn setup(w: &Workload, server_bin: &Path, seed: u64) -> Result<(Deployment, f64), String> {
    let started = Instant::now();
    let deployment = if w.remote {
        let server = ServerGuard::spawn(server_bin)?;
        let cfg = RemoteClusterConfig::new(CLIENTS, RetryPolicy::with_seed(seed));
        let remote: Arc<RemoteCluster<u64, u64>> = Arc::new(
            RemoteCluster::connect(server.addr, cfg).map_err(|e| format!("connect: {e}"))?,
        );
        Deployment {
            router: router_over(remote.clone()),
            remote: Some(remote),
            server: Some(server),
        }
    } else {
        Deployment {
            router: router_over(Arc::new(inproc_store(w))),
            remote: None,
            server: None,
        }
    };
    let backend = deployment.router.cluster_store(0).expect("cluster 0");
    prebind(w, backend.as_ref());
    Ok((deployment, started.elapsed().as_secs_f64()))
}

/// The in-proc rungs of the ladder below the router: a pre-bound
/// `ShardedStore` and a single-register `StorageCluster`, with the
/// workload's sizing and faults.
pub fn ladder_store(w: &Workload) -> ShardedStore<u64, u64> {
    let store = inproc_store(w);
    prebind(w, &store);
    store
}

pub fn ladder_storage(w: &Workload) -> StorageCluster<u64> {
    let cfg = storage_config(w);
    let byzantine = w.byzantine;
    let storage = StorageCluster::deploy_with_objects(cfg, KIND, Box::new(NoDelay), move |i| {
        byzantine.then(|| byzantine_object(cfg, i)).flatten()
    });
    storage.write(prebind_value(0));
    if byzantine {
        storage.crash_object(1);
    }
    storage
}

/// `vrr-server` next to our own executable unless told otherwise.
pub fn default_server_bin() -> PathBuf {
    let mut path = std::env::current_exe().unwrap_or_default();
    path.pop();
    path.push("vrr-server");
    path
}
