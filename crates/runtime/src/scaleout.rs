//! Multi-cluster scale-out: a client-side router partitioning the key
//! space across independent worker-pool clusters.
//!
//! The paper's protocols are per-register: one writer, `S = 2t + b + 1`
//! base objects, `R` readers, and *no* coordination with any other
//! register. That independence is the scale-out lever — aggregate
//! throughput grows by deploying more replica groups on more executors,
//! provided clients can route a key to its group without a central
//! directory. [`StoreRouter`] is that client layer:
//!
//! * **Deterministic routing.** The clusters are fixed at deploy, and a
//!   key routes to cluster
//!   [`stable_hash_64`](crate::stable_hash_64)`(seed, key) % clusters`
//!   (seeded FNV-1a/SplitMix — never `RandomState`). The per-operation
//!   routing step is that hash and an index into a `Vec`: no lock, no
//!   atomic, no shared mutable map, and the same key routes to the same
//!   cluster in every process and every replay of the same seed.
//! * **Independent clusters.** Each shard-cluster is a
//!   [`ClusterBackend`] — its own register groups and fault budget
//!   `(t, b)`, whether that is an in-process worker-pool
//!   [`ShardedStore`] or a `RemoteCluster` speaking TCP to a
//!   `vrr-server` in another OS process. A crash or Byzantine object in
//!   one cluster is invisible to every other.
//!
//! A key never leaves the cluster it routes to, so the capacity contract
//! of [`ShardedStore`] lifts to the router unchanged: each cluster bounds
//! the keys routed to it.

use std::hash::Hash;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use vrr_core::metrics::{names, Histogram, Registry};
use vrr_core::sharded::Sharded;
use vrr_core::{Clock, ProtocolSpec, ReadReport, StorageConfig, Value, WriteReport};

use crate::backend::ClusterBackend;
use crate::clock::WallClock;
use crate::ring::stable_hash_64;
use crate::shard::{ShardedStore, StoreError};

/// Sizing and seeding of a [`StoreRouter`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouterConfig {
    /// Number of shard-clusters, fixed for the router's lifetime.
    pub clusters: usize,
    /// Register shards provisioned per cluster ([`ShardedStore`]
    /// capacity): the most keys one cluster can hold.
    pub capacity_per_cluster: usize,
    /// Routing seed. Everything about key placement is a pure function of
    /// this seed and `clusters`, so replays and cooperating processes
    /// agree on routes.
    pub seed: u64,
}

impl RouterConfig {
    /// A config with `clusters` shard-clusters of `capacity_per_cluster`
    /// shards each and a fixed default seed.
    pub fn new(clusters: usize, capacity_per_cluster: usize) -> Self {
        RouterConfig {
            clusters,
            capacity_per_cluster,
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Same config with `seed`.
    pub fn with_seed(self, seed: u64) -> Self {
        RouterConfig { seed, ..self }
    }
}

/// A multi-cluster key-value store: deterministic seeded routing over `C`
/// independent [`ClusterBackend`] clusters, fixed at deploy.
///
/// A cluster is anything implementing [`ClusterBackend`]: the in-process
/// worker-pool [`ShardedStore`], or `vrr-net`'s `RemoteCluster` driving a
/// store hosted by a `vrr-server` in another OS process — one seeded
/// router can span both at once.
///
/// # Examples
///
/// ```
/// use vrr_runtime::{StoreRouter, RouterConfig, ProtocolKind};
/// use vrr_core::StorageConfig;
///
/// let cfg = StorageConfig::optimal(1, 1, 1);
/// let router: StoreRouter<&'static str, u64> = StoreRouter::deploy(
///     cfg,
///     ProtocolKind::RegularOptimized,
///     RouterConfig::new(2, 8),
/// );
/// router.write("alpha", 1);
/// router.write("beta", 2);
/// assert_eq!(router.read(&"alpha", 0).unwrap().value, Some(1));
/// assert_eq!(router.read(&"beta", 0).unwrap().value, Some(2));
/// assert_eq!(router.len(), 2);
/// ```
pub struct StoreRouter<K: Eq + Hash + Clone, V: Value> {
    /// The routing seed.
    seed: u64,
    /// Shard-clusters by index, as deployed.
    clusters: Vec<Arc<dyn ClusterBackend<K, V>>>,
    /// Router-level latency histograms by cluster index, one table per
    /// shard — an operation records into its thread's — grown on a
    /// cluster's first operation there and summed into the snapshot.
    latency: Sharded<Mutex<Vec<ClusterLatency>>>,
    /// The clock the latency histograms read, the router's own.
    clock: WallClock,
}

/// One cluster's router-level latency histograms, resolved once so an
/// operation observes without a name or label lookup.
struct ClusterLatency {
    /// [`names::ROUTER_READ_LATENCY`].
    read: Histogram,
    /// [`names::ROUTER_WRITE_LATENCY`].
    write: Histogram,
}

impl<K, V> StoreRouter<K, V>
where
    K: Eq + Hash + Clone + Send + Sync + 'static,
    V: Value,
{
    /// Deploys `rc.clusters` shard-clusters, each a [`ShardedStore`] of
    /// `rc.capacity_per_cluster` register shards running `spec` under
    /// `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `rc.clusters` or `rc.capacity_per_cluster` is zero.
    pub fn deploy(cfg: StorageConfig, spec: impl Into<ProtocolSpec>, rc: RouterConfig) -> Self {
        let spec = spec.into();
        Self::deploy_with_backends(rc, move |_cluster| {
            Arc::new(ShardedStore::deploy(cfg, spec, rc.capacity_per_cluster))
        })
    }

    /// The fully general deployment: cluster `i` is whatever
    /// [`ClusterBackend`] `factory(i)` returns — in-process stores (the
    /// hook for per-cluster history retention or Byzantine object
    /// substitution in fault drills), `RemoteCluster`s speaking to other
    /// OS processes, or a mix. The factory is called once per cluster,
    /// here, and not kept.
    ///
    /// # Panics
    ///
    /// Panics if `rc.clusters` is zero.
    pub fn deploy_with_backends(
        rc: RouterConfig,
        factory: impl FnMut(usize) -> Arc<dyn ClusterBackend<K, V>>,
    ) -> Self {
        assert!(rc.clusters > 0, "a router needs at least one cluster");
        StoreRouter {
            seed: rc.seed,
            clusters: (0..rc.clusters).map(factory).collect(),
            latency: Sharded::new(|| Mutex::new(Vec::new())),
            clock: WallClock::default(),
        }
    }

    /// Number of shard-clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Keys currently bound, summed over every cluster.
    pub fn len(&self) -> usize {
        self.clusters.iter().map(|s| s.len()).sum()
    }

    /// Whether no key is currently bound anywhere.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cluster `key` routes to: `stable_hash_64(seed, key) % clusters`.
    /// This *is* the hot-path routing step.
    pub fn cluster_of(&self, key: &K) -> usize {
        (stable_hash_64(self.seed, key) % self.clusters.len() as u64) as usize
    }

    /// The shard-cluster at `index`, if any — the escape hatch for fault
    /// injection and per-cluster inspection in tests. The returned backend
    /// may execute in this process or in another one; callers see only the
    /// [`ClusterBackend`] surface either way.
    pub fn cluster_store(&self, index: usize) -> Option<Arc<dyn ClusterBackend<K, V>>> {
        self.clusters.get(index).cloned()
    }

    /// Blocking `WRITE(key, value)` through the router.
    ///
    /// # Panics
    ///
    /// Panics on [`StoreError::OverCapacity`] in the target cluster, or on
    /// operation timeout. [`StoreRouter::try_write`] is the non-panicking
    /// variant.
    pub fn write(&self, key: K, value: V) -> WriteReport {
        self.try_write(key, value).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Routes `key` to its cluster and writes there, reporting capacity
    /// exhaustion as [`StoreError::OverCapacity`].
    pub fn try_write(&self, key: K, value: V) -> Result<WriteReport, StoreError> {
        let cluster = self.cluster_of(&key);
        let started = self.clock.now();
        let report = self.clusters[cluster].try_write(key, value)?;
        self.record_latency(|l| &mut l.write, cluster, started);
        Ok(report)
    }

    /// Blocking `READ(key)` at reader index `j` of the key's shard in the
    /// key's cluster, or `None` if `key` is not bound there.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cfg.readers` of the target cluster, or on operation
    /// timeout.
    pub fn read(&self, key: &K, j: usize) -> Option<ReadReport<V>> {
        let cluster = self.cluster_of(key);
        let started = self.clock.now();
        let report = self.clusters[cluster].read(key, j)?;
        self.record_latency(|l| &mut l.read, cluster, started);
        Some(report)
    }

    /// Observes into one of `cluster`'s histograms in this thread's shard.
    fn record_latency(
        &self,
        which: fn(&mut ClusterLatency) -> &mut Histogram,
        cluster: usize,
        started: Instant,
    ) {
        let micros = self.clock.ticks_since(started);
        let mut latency = self.latency.mine().lock();
        if latency.len() <= cluster {
            latency.resize_with(cluster + 1, || ClusterLatency {
                read: Histogram::named(names::ROUTER_READ_LATENCY),
                write: Histogram::named(names::ROUTER_WRITE_LATENCY),
            });
        }
        which(&mut latency[cluster]).observe(micros);
    }

    /// One snapshot of everything observable about the router and its
    /// clusters, in one [`Registry`]: router-level latency histograms,
    /// per-cluster key gauges (`vrr_router_keys{cluster=..}` summing to
    /// [`StoreRouter::len`]), and every cluster's own snapshot merged in
    /// (history-length gauges carry a `cluster` label; counters and
    /// histograms aggregate across clusters).
    pub fn metrics_snapshot(&self) -> Registry {
        let mut reg = Registry::new();
        for shard in self.latency.all() {
            for (index, of_cluster) in shard.lock().iter().enumerate() {
                let label = index.to_string();
                let labels = [("cluster", &*label)];
                reg.observe_all(names::ROUTER_READ_LATENCY, &labels, &of_cluster.read);
                reg.observe_all(names::ROUTER_WRITE_LATENCY, &labels, &of_cluster.write);
            }
        }
        for (index, store) in self.clusters.iter().enumerate() {
            let label = index.to_string();
            reg.gauge_set(
                names::ROUTER_KEYS,
                &[("cluster", &label)],
                store.len() as u64,
            );
        }
        reg.gauge_set(names::ROUTER_CLUSTERS, &[], self.clusters.len() as u64);
        // Last, what the clusters say of themselves: a remote snapshot is
        // bytes off a socket, and `merge` skips what contradicts the above.
        for (index, store) in self.clusters.iter().enumerate() {
            reg.merge(&store.metrics_snapshot_labelled(Some(index)));
        }
        reg
    }
}

impl<K, V> std::fmt::Debug for StoreRouter<K, V>
where
    K: Eq + Hash + Clone + Send + Sync + 'static,
    V: Value,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreRouter")
            .field("clusters", &self.cluster_count())
            .field("seed", &self.seed)
            .field("keys", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProtocolKind;

    fn tiny_router(clusters: usize) -> StoreRouter<String, u64> {
        let cfg = StorageConfig::optimal(1, 1, 1);
        StoreRouter::deploy(cfg, ProtocolKind::Regular, RouterConfig::new(clusters, 32))
    }

    #[test]
    fn routes_and_serves_across_clusters() {
        let router = tiny_router(2);
        for k in 0..10u64 {
            router.write(format!("key-{k}"), k);
        }
        assert_eq!(router.len(), 10);
        for k in 0..10u64 {
            assert_eq!(router.read(&format!("key-{k}"), 0).unwrap().value, Some(k));
        }
        // Both clusters got some keys (10 keys, 2 clusters, seeded hash).
        let counts: Vec<usize> = (0..2)
            .map(|c| router.cluster_store(c).unwrap().len())
            .collect();
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert!(counts.iter().all(|&n| n > 0), "{counts:?}");
    }

    #[test]
    fn routing_agrees_with_the_ring() {
        let router = tiny_router(3);
        for k in 0..36u64 {
            let key = format!("key-{k}");
            router.write(key.clone(), k);
            let cluster = router.cluster_of(&key);
            assert!(
                router
                    .cluster_store(cluster)
                    .unwrap()
                    .shard_of(&key)
                    .is_some(),
                "key {key} not bound in its routed cluster {cluster}"
            );
        }
    }

    #[test]
    fn metrics_expose_per_cluster_keys_summing_to_total() {
        let router = tiny_router(2);
        for k in 0..8u64 {
            router.write(format!("key-{k}"), k);
            router.read(&format!("key-{k}"), 0);
        }
        let snap = router.metrics_snapshot();
        let per_cluster: u64 = snap.gauge_values(names::ROUTER_KEYS).iter().sum();
        assert_eq!(per_cluster, router.len() as u64);
        assert_eq!(snap.gauge(names::ROUTER_CLUSTERS, &[]), Some(2));
        // Router-level latency histograms carry per-cluster labels and
        // cover every op.
        let reads: u64 = (0..router.cluster_count())
            .filter_map(|c| {
                let label = c.to_string();
                snap.histogram(names::ROUTER_READ_LATENCY, &[("cluster", &label)])
                    .map(|h| h.count())
            })
            .sum();
        assert_eq!(reads, 8);
    }

    /// Ops of thread `thread` in [`meters_stay_exact_with_more_threads_than_shards`]:
    /// `(key, reader, write?)` over 8 keys every thread shares, so groups see
    /// concurrent readers and writers.
    fn script(thread: usize) -> impl Iterator<Item = (u64, usize, bool)> {
        (0..60).map(move |i| (((thread + i) % 8) as u64, thread % 3, i % 4 == 0))
    }

    #[test]
    fn meters_stay_exact_with_more_threads_than_shards() {
        const THREADS: usize = 24;
        const { assert!(THREADS > vrr_core::sharded::SHARDS) };
        let run = |threads: usize| {
            let (cfg, capacity) = (StorageConfig::optimal(1, 1, 3), 8);
            let kind = ProtocolKind::RegularOptimized;
            let store = Arc::new(ShardedStore::deploy(cfg, kind, capacity));
            let mut backend = Some(store.clone() as Arc<dyn ClusterBackend<u64, u64>>);
            let rc = RouterConfig::new(1, capacity);
            let router = StoreRouter::deploy_with_backends(rc, move |_| backend.take().unwrap());
            (0..8).for_each(|key| assert_eq!(router.write(key, 0).rounds, 2));
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let router = &router;
                    // One thread runs every thread's script, in turn.
                    let scripts = if threads == 1 { 0..THREADS } else { t..t + 1 };
                    scope.spawn(move || {
                        for (key, reader, write) in scripts.flat_map(script) {
                            if write {
                                router.write(key, 1);
                            } else {
                                assert!(router.read(&key, reader).is_some());
                            }
                        }
                    });
                }
            });
            (router, store)
        };
        let (router, store) = run(THREADS);
        // Commands: what one thread running every script reports, once the
        // workers have delivered the last replies of operations they ran.
        // (Before the snapshot below: its inspections are commands too.)
        let alone = run(1).1.host().cluster().stats().commands;
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while store.host().cluster().stats().commands != alone && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(store.host().cluster().stats().commands, alone);
        let ops = || (0..THREADS).flat_map(script);
        let writes = 8 + ops().filter(|op| op.2).count() as u64;
        let reads = ops().filter(|op| !op.2).count() as u64;
        let snap = router.metrics_snapshot();
        let counted = |name, labels: &[(&str, &str)]| {
            let h = snap.histogram(name, labels).expect("recorded");
            assert_eq!(h.cumulative_le(u64::MAX), h.count(), "{name}: buckets");
            h.count()
        };
        let cluster = [("cluster", "0")];
        assert_eq!(counted(names::ROUTER_READ_LATENCY, &cluster), reads);
        assert_eq!(counted(names::ROUTER_WRITE_LATENCY, &cluster), writes);
        for (name, ops) in [
            (names::READER_ROUNDS, reads),
            (names::READ_LATENCY, reads),
            (names::WRITER_ROUNDS, writes),
            (names::WRITE_LATENCY, writes),
        ] {
            assert_eq!(counted(name, &[]), ops, "{name}");
        }
    }

    #[test]
    fn over_capacity_surfaces_as_typed_error() {
        let cfg = StorageConfig::optimal(1, 1, 1);
        let router: StoreRouter<u64, u64> =
            StoreRouter::deploy(cfg, ProtocolKind::Safe, RouterConfig::new(1, 2));
        router.write(1, 1);
        router.write(2, 2);
        match router.try_write(3, 3) {
            Err(StoreError::OverCapacity { capacity }) => assert_eq!(capacity, 2),
            other => panic!("expected over-capacity, got {other:?}"),
        }
    }
}
