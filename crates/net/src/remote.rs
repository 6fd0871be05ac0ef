//! [`RemoteCluster`]: a [`ClusterBackend`] whose automata live in another
//! OS process.
//!
//! The client side of router-member mode: node 0 of a `vrr-server`
//! deployment, the front node of its register groups (it hosts the writer
//! and every reader; the objects may live in other processes), serves them
//! as a `ShardedStore<Vec<u8>, V>`, and a `RemoteCluster` drives it through
//! the keyed [`Op`] vocabulary over blocking [`NetClient`] connections. A
//! caller checks out, for its round trip, an idle connection dialed from
//! the CPU it is running on (dialing one from there when none is idle),
//! and returns it when the response is in. So no caller waits for another
//! caller's request, each CPU has as many connections as callers were ever
//! in flight on it at once, and a round trip stays on the caller's CPU:
//! the kernel hands a connection to the server's reactor lane pinned on the
//! CPU it was dialed from ([`crate::cpu`]). A [`vrr_runtime::StoreRouter`] built over
//! `Arc<dyn ClusterBackend<K, V>>` cannot tell the difference — the same
//! seeded-hash router spans in-proc worker pools and remote processes.
//!
//! Keys cross the wire in the client's own [`Wire`] encoding as opaque
//! bytes; the server never interprets them beyond equality and hashing, so
//! a heterogeneous router does not need the key type compiled into the
//! server binary.
//!
//! ## Failure semantics
//!
//! Every request runs under the cluster's [`RetryPolicy`] (bounded
//! exponential backoff, seeded jitter; retries surface in the
//! `vrr_net_wire_retry_total` counter of
//! [`RemoteCluster::metrics_snapshot_labelled`]). A connection that ends a
//! request in a transport error is dropped, never handed out again; the
//! next caller dials afresh. A request that exhausts
//! the budget on [`ClusterBackend::try_write`] returns the typed
//! [`StoreError::Backend`]; on the inspection and read paths it panics,
//! mirroring the in-process contract where a wedged operation is a
//! wait-freedom violation rather than an operational condition.

use std::marker::PhantomData;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use vrr_core::metrics::{names, Registry};
use vrr_core::wire::Wire;
use vrr_core::{ReadReport, Value, WriteReport};
use vrr_runtime::{ClusterBackend, StoreError};

use crate::client::{ClientError, NetClient, RetryPolicy};
use crate::cpu;
use crate::frame::{Op, Rsp};

/// Initial connections and retry budget for a [`RemoteCluster`].
#[derive(Clone, Debug)]
pub struct RemoteClusterConfig {
    /// TCP connections dialed up front, from the CPU the caller of
    /// [`RemoteCluster::connect`] runs on, so a dead server fails there.
    /// Not a bound: a caller that finds none idle dialed from its own CPU
    /// dials another. Kept because the benchmark passes it.
    pub connections: usize,
    /// Retry/backoff budget applied to every request and to the initial
    /// dials.
    pub retry: RetryPolicy,
}

impl RemoteClusterConfig {
    /// `connections` connections, retrying under `retry`.
    pub fn new(connections: usize, retry: RetryPolicy) -> Self {
        RemoteClusterConfig { connections, retry }
    }
}

impl Default for RemoteClusterConfig {
    /// Two connections, default backoff seeded deterministically.
    fn default() -> Self {
        RemoteClusterConfig::new(2, RetryPolicy::with_seed(0xC0FFEE))
    }
}

/// One remote shard-cluster: a [`ClusterBackend`] implementation that
/// forwards every operation to a store-hosting `vrr-server` over TCP.
///
/// ```no_run
/// use vrr_net::{RemoteCluster, RemoteClusterConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cluster: RemoteCluster<String, u64> =
///     RemoteCluster::connect("127.0.0.1:7200".parse()?, RemoteClusterConfig::default())?;
/// # Ok(())
/// # }
/// ```
pub struct RemoteCluster<K, V> {
    addr: SocketAddr,
    /// Connections no caller holds, each with the CPU it was dialed from;
    /// the lock is held for a take or a `push`, never across a round trip.
    idle: Mutex<Vec<(Option<usize>, NetClient<V>)>>,
    /// Requests re-sent after a connection failure, over every connection
    /// this cluster has used (dropped ones included).
    retries: AtomicU64,
    retry: RetryPolicy,
    _marker: PhantomData<fn(K) -> K>,
}

impl<K, V: Value> RemoteCluster<K, V> {
    /// Dials `cfg.connections` connections to the store-hosting server at
    /// `addr` (each dial itself under `cfg.retry`).
    pub fn connect(addr: SocketAddr, cfg: RemoteClusterConfig) -> Result<Self, ClientError> {
        let idle = (0..cfg.connections.max(1))
            .map(|_| NetClient::connect_with_retry(addr, &cfg.retry).map(|c| (cpu::current(), c)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RemoteCluster {
            addr,
            idle: Mutex::new(idle),
            retries: AtomicU64::new(0),
            retry: cfg.retry,
            _marker: PhantomData,
        })
    }

    /// The server this cluster forwards to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total wire-level retries burned across every connection so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// The idle list. A take or `push` cannot leave it half-done, so a
    /// panic elsewhere while it was held poisons nothing worth refusing.
    fn idle(&self) -> MutexGuard<'_, Vec<(Option<usize>, NetClient<V>)>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One request under the retry budget, on an idle connection dialed
    /// from the caller's CPU, checked out for the round trip (or one dialed
    /// now, when there is none). Another CPU's connection is never taken.
    /// The connection goes back only if a response came back.
    fn request(&self, op: &Op<V>) -> Result<Rsp<V>, ClientError>
    where
        V: Clone,
    {
        let cpu = cpu::current();
        let idle = {
            let mut idle = self.idle();
            let mine = idle.iter().rposition(|(dialed_on, _)| *dialed_on == cpu);
            mine.map(|i| idle.swap_remove(i).1)
        };
        let mut client = match idle {
            Some(client) => client,
            None => NetClient::connect_with_retry(self.addr, &self.retry)?,
        };
        let before = client.retry_count();
        let rsp = client.request_with_retry(op, &self.retry);
        self.retries
            .fetch_add(client.retry_count() - before, Ordering::Relaxed);
        if rsp.is_ok() {
            self.idle().push((cpu, client));
        }
        rsp
    }

    /// Like [`RemoteCluster::request`], but panicking on transport failure
    /// and server-side errors — the inspection/read paths, where the
    /// in-process backend would also panic rather than report. The panic
    /// names `op`; only a failure pays for formatting it.
    fn demand(&self, op: Op<V>) -> Rsp<V>
    where
        V: Clone,
    {
        match self.request(&op) {
            Ok(Rsp::Err { what: server }) => {
                panic!("remote cluster {}: {op:?}: {server}", self.addr)
            }
            Ok(rsp) => rsp,
            Err(e) => panic!("remote cluster {}: {op:?}: {e}", self.addr),
        }
    }

    /// How a response of the wrong variant is reported on the paths
    /// [`RemoteCluster::demand`] serves: the server broke the protocol, so
    /// panic like the wedged-operation cases do.
    fn unexpected(&self, rsp: Rsp<V>) -> ! {
        panic!("remote cluster {}: unexpected {rsp:?}", self.addr)
    }
}

fn key_bytes<K: Wire>(key: &K) -> Vec<u8> {
    let mut buf = Vec::new();
    key.encode(&mut buf);
    buf
}

impl<K, V> ClusterBackend<K, V> for RemoteCluster<K, V>
where
    K: Wire + Eq + std::hash::Hash + Clone + Send + Sync,
    V: Value,
{
    fn try_write(&self, key: K, value: V) -> Result<WriteReport, StoreError> {
        let op = Op::WriteKey {
            key: key_bytes(&key),
            value,
        };
        match self.request(&op) {
            Ok(Rsp::Wrote { ts, rounds }) => Ok(WriteReport { ts, rounds }),
            Ok(Rsp::OverCapacity { capacity }) => Err(StoreError::OverCapacity {
                capacity: capacity as usize,
            }),
            Ok(Rsp::Err { what }) => Err(StoreError::Backend { what }),
            Ok(other) => Err(StoreError::Backend {
                what: format!("unexpected response {other:?}"),
            }),
            Err(e) => Err(StoreError::Backend {
                what: e.to_string(),
            }),
        }
    }

    fn read(&self, key: &K, reader: usize) -> Option<ReadReport<V>> {
        match self.demand(Op::ReadKey {
            key: key_bytes(key),
            reader: reader as u32,
        }) {
            Rsp::ReadOk {
                value,
                ts,
                rounds,
                fast,
            } => Some(ReadReport {
                value,
                ts,
                rounds,
                fast,
            }),
            Rsp::NoKey => None,
            other => self.unexpected(other),
        }
    }

    fn len(&self) -> usize {
        match self.demand(Op::StoreInfo) {
            Rsp::StoreInfo { keys } => keys as usize,
            other => self.unexpected(other),
        }
    }

    fn shard_of(&self, key: &K) -> Option<usize> {
        match self.demand(Op::SlotOfKey {
            key: key_bytes(key),
        }) {
            Rsp::Slot { slot } => Some(slot as usize),
            Rsp::NoKey => None,
            other => self.unexpected(other),
        }
    }

    fn crash_object(&self, slot: usize, object: usize) {
        match self.demand(Op::CrashShard {
            slot: slot as u32,
            object: object as u32,
        }) {
            Rsp::Crashed => {}
            other => self.unexpected(other),
        }
    }

    fn metrics_snapshot_labelled(&self, cluster: Option<usize>) -> Registry {
        let snapshot = match self.demand(Op::StoreMetrics {
            cluster: cluster.map(|c| c as u32),
        }) {
            Rsp::StoreMetrics { registry } => registry,
            other => self.unexpected(other),
        };
        // The server cannot see client-side wire retries: count them here,
        // first. Its snapshot is bytes off a socket; merged in after, a
        // series that mis-states its kind is skipped, not panicked on.
        let mut registry = Registry::new();
        let retries = self.retries();
        if retries > 0 {
            registry.counter_add(names::WIRE_RETRIES, &[("scheme", "tcp")], retries);
        }
        registry.merge(&snapshot);
        registry
    }
}
