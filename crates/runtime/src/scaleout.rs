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
//! * **Deterministic routing.** A key hashes to a ring slot with
//!   [`stable_hash_64`](crate::stable_hash_64) (seeded FNV-1a/SplitMix —
//!   never `RandomState`), and
//!   the [`RingTable`] maps slots to shard-clusters through plain atomic
//!   loads. The per-operation routing step is hash + one atomic load: no
//!   global lock, no shared mutable map, and the same key routes to the
//!   same cluster in every process and every replay of the same seed.
//! * **Independent clusters.** Each shard-cluster is a
//!   [`ClusterBackend`] — its own register groups and fault budget
//!   `(t, b)`, whether that is an in-process worker-pool
//!   [`ShardedStore`] or a `RemoteCluster` speaking TCP to a
//!   `vrr-server` in another OS process. A crash or Byzantine object in
//!   one cluster is invisible to every other.
//! * **Live rebalance.** [`StoreRouter::add_cluster`] /
//!   [`StoreRouter::remove_cluster`] move whole ring slots between
//!   clusters while operations keep flowing. A per-slot reader–writer
//!   guard makes each move atomic with respect to the operations of that
//!   slot's keys: clients hold the shared side for the duration of one
//!   operation, a rebalance holds the exclusive side of one slot while it
//!   copies the slot's keys — so the single-writer discipline every
//!   register depends on is preserved, and reads stay regular even with
//!   crash + Byzantine faults live in the source cluster (the copy is
//!   itself a regular `READ` over `2t + b + 1` objects).
//!
//! The capacity contract of [`ShardedStore`] lifts to the router: moving a
//! key *retires* its slot in the source cluster (registers are never
//! recycled across keys), so clusters need capacity headroom proportional
//! to the keys they may receive from rebalances.

use std::hash::Hash;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use vrr_core::metrics::{names, Histogram, Registry};
use vrr_core::sharded::Sharded;
use vrr_core::{Clock, ProtocolSpec, ReadReport, StorageConfig, Value, WriteReport};

use crate::backend::ClusterBackend;
use crate::clock::WallClock;
use crate::ring::RingTable;
use crate::shard::{ShardedStore, StoreError};

/// Sizing and seeding of a [`StoreRouter`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouterConfig {
    /// Initial number of shard-clusters.
    pub clusters: usize,
    /// Register shards provisioned per cluster ([`ShardedStore`]
    /// capacity). Leave headroom: rebalanced-in keys bind fresh shards.
    pub capacity_per_cluster: usize,
    /// Ring slots (routing granularity). More slots → finer rebalance
    /// steps; each move copies `~keys / slots` keys.
    pub ring_slots: usize,
    /// Routing seed. Everything about key placement is a pure function of
    /// this seed, so replays and cooperating processes agree on routes.
    pub seed: u64,
}

impl RouterConfig {
    /// A config with `clusters` shard-clusters of `capacity_per_cluster`
    /// shards each, 64 ring slots and a fixed default seed.
    pub fn new(clusters: usize, capacity_per_cluster: usize) -> Self {
        RouterConfig {
            clusters,
            capacity_per_cluster,
            ring_slots: 64,
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Same config with `seed`.
    pub fn with_seed(self, seed: u64) -> Self {
        RouterConfig { seed, ..self }
    }

    /// Same config with `ring_slots` ring slots.
    pub fn with_ring_slots(self, ring_slots: usize) -> Self {
        RouterConfig { ring_slots, ..self }
    }
}

/// The factory a router keeps so [`StoreRouter::add_cluster`] can deploy
/// new shard-clusters after construction.
type StoreFactory<K, V> = Mutex<Box<dyn FnMut(usize) -> Arc<dyn ClusterBackend<K, V>> + Send>>;

/// Shard-clusters by index; retired slots hold `None` (indices are never
/// reused — the ring stores indices).
type ClusterList<K, V> = Vec<Option<Arc<dyn ClusterBackend<K, V>>>>;

/// A multi-cluster key-value store: deterministic seeded routing over `C`
/// independent [`ClusterBackend`] clusters, with live add/remove
/// rebalance.
///
/// A cluster is anything implementing [`ClusterBackend`]: the in-process
/// worker-pool [`ShardedStore`], or `vrr-net`'s `RemoteCluster` driving a
/// store hosted by a `vrr-server` in another OS process — one seeded ring
/// can span both at once, and the rebalance path (regular-`READ` copy,
/// destination write, source release, ring republish) is identical either
/// way.
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
    ring: RingTable,
    /// One reader–writer guard per ring slot: operations hold the shared
    /// side while they run; a rebalance holds the exclusive side of the
    /// slot it is moving. This is what makes a slot move atomic with
    /// respect to the slot's operations without any global lock.
    slot_guards: Vec<RwLock<()>>,
    /// Shard-clusters by index; removed clusters become `None` (indices
    /// are never reused — the ring stores indices). Read-mostly: the hot
    /// path takes the shared side for one `Arc` clone.
    clusters: RwLock<ClusterList<K, V>>,
    factory: StoreFactory<K, V>,
    /// Router-level rebalance counters, folded into
    /// [`StoreRouter::metrics_snapshot`].
    ops: Mutex<Registry>,
    /// Router-level latency histograms by cluster index (retired clusters
    /// keep theirs), one table per shard — an operation records into its
    /// thread's — grown on a cluster's first operation there and summed
    /// into the snapshot.
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
    /// Panics if any of `rc.clusters`, `rc.capacity_per_cluster` or
    /// `rc.ring_slots` is zero.
    pub fn deploy(cfg: StorageConfig, spec: impl Into<ProtocolSpec>, rc: RouterConfig) -> Self {
        let spec = spec.into();
        Self::deploy_with_backends(rc, move |_cluster| {
            Arc::new(ShardedStore::deploy(cfg, spec, rc.capacity_per_cluster))
        })
    }

    /// The fully general deployment: every cluster is whatever
    /// [`ClusterBackend`] `factory(cluster_index)` returns — in-process
    /// stores (the hook for per-cluster history retention or Byzantine
    /// object substitution in fault drills), `RemoteCluster`s
    /// speaking to other OS processes, or a mix. The factory is retained
    /// and reused by [`StoreRouter::add_cluster`].
    ///
    /// # Panics
    ///
    /// Panics if `rc.clusters` or `rc.ring_slots` is zero.
    pub fn deploy_with_backends(
        rc: RouterConfig,
        mut factory: impl FnMut(usize) -> Arc<dyn ClusterBackend<K, V>> + Send + 'static,
    ) -> Self {
        assert!(rc.clusters > 0, "a router needs at least one cluster");
        let clusters: ClusterList<K, V> = (0..rc.clusters).map(|c| Some(factory(c))).collect();
        StoreRouter {
            ring: RingTable::new(rc.seed, rc.ring_slots, rc.clusters),
            slot_guards: (0..rc.ring_slots).map(|_| RwLock::new(())).collect(),
            clusters: RwLock::new(clusters),
            factory: Mutex::new(Box::new(factory)),
            ops: Mutex::new(Registry::new()),
            latency: Sharded::new(|| Mutex::new(Vec::new())),
            clock: WallClock::default(),
        }
    }

    /// The routing table (read-only view; useful for assertions about key
    /// placement).
    pub fn ring(&self) -> &RingTable {
        &self.ring
    }

    /// Number of live shard-clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.read().iter().flatten().count()
    }

    /// The live shard-cluster indices, ascending.
    pub fn cluster_ids(&self) -> Vec<usize> {
        self.clusters
            .read()
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|_| i))
            .collect()
    }

    /// Keys currently bound, summed over every live cluster.
    pub fn len(&self) -> usize {
        self.clusters.read().iter().flatten().map(|s| s.len()).sum()
    }

    /// Whether no key is currently bound anywhere.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(cluster index, bound keys)` for every live cluster, ascending.
    pub fn key_counts(&self) -> Vec<(usize, usize)> {
        self.clusters
            .read()
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|s| (i, s.len())))
            .collect()
    }

    /// The cluster `key` currently routes to. Lock-free (one hash + one
    /// atomic load) — this *is* the hot-path routing step.
    pub fn cluster_of(&self, key: &K) -> usize {
        self.ring.route(key).1
    }

    /// The live shard-cluster at `index`, if any — the escape hatch for
    /// fault injection and per-cluster inspection in tests. The returned
    /// backend may execute in this process or in another one; callers see
    /// only the [`ClusterBackend`] surface either way.
    pub fn cluster_store(&self, index: usize) -> Option<Arc<dyn ClusterBackend<K, V>>> {
        self.clusters.read().get(index)?.clone()
    }

    fn store(&self, index: usize) -> Arc<dyn ClusterBackend<K, V>> {
        self.clusters.read()[index]
            .as_ref()
            .expect("ring slot routed to a retired cluster")
            .clone()
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
    ///
    /// Routing is a seeded hash plus one atomic load; the per-slot guard
    /// taken for the operation's duration is shared (many concurrent
    /// operations per slot), turning exclusive only under a rebalance of
    /// this very slot.
    pub fn try_write(&self, key: K, value: V) -> Result<WriteReport, StoreError> {
        let slot = self.ring.slot_of(&key);
        let _guard = self.slot_guards[slot].read();
        let cluster = self.ring.cluster_of_slot(slot);
        let store = self.store(cluster);
        let started = self.clock.now();
        let report = store.try_write(key, value)?;
        self.record_latency(|l| &mut l.write, cluster, started);
        Ok(report)
    }

    /// Blocking `READ(key)` at reader index `j` of the key's shard in the
    /// key's cluster, or `None` if `key` is not bound anywhere.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cfg.readers` of the target cluster, or on operation
    /// timeout.
    pub fn read(&self, key: &K, j: usize) -> Option<ReadReport<V>> {
        let slot = self.ring.slot_of(key);
        let _guard = self.slot_guards[slot].read();
        let cluster = self.ring.cluster_of_slot(slot);
        let store = self.store(cluster);
        let started = self.clock.now();
        let report = store.read(key, j)?;
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

    /// Deploys one more shard-cluster (via the retained factory) and
    /// rebalances ring slots onto it until it serves its fair share
    /// (`ring_slots / live clusters`), taking slots from the currently
    /// most-loaded clusters. Returns the new cluster's index.
    ///
    /// Operations keep flowing during the rebalance; only the keys of the
    /// one slot currently being moved block, and only for the duration of
    /// that move.
    pub fn add_cluster(&self) -> usize {
        let index = {
            let mut clusters = self.clusters.write();
            let index = clusters.len();
            let store = (self.factory.lock())(index);
            clusters.push(Some(store));
            index
        };
        let share = self.ring.slot_count() / self.cluster_count();
        while self.ring.slots_of(index).len() < share {
            let donor = self
                .cluster_ids()
                .into_iter()
                .filter(|&c| c != index)
                .max_by_key(|&c| self.ring.slots_of(c).len())
                .expect("at least one donor cluster");
            let Some(&slot) = self.ring.slots_of(donor).first() else {
                break;
            };
            self.move_slot(slot, index);
        }
        index
    }

    /// Drains every ring slot off cluster `index` (round-robin over the
    /// remaining clusters) and retires it. Returns the number of keys
    /// moved. The cluster's worker threads stop when the last `Arc` to its
    /// store drops.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a live cluster or is the only live
    /// cluster.
    pub fn remove_cluster(&self, index: usize) -> usize {
        let targets: Vec<usize> = self
            .cluster_ids()
            .into_iter()
            .filter(|&c| c != index)
            .collect();
        assert!(
            !targets.is_empty(),
            "cannot remove the only live cluster {index}"
        );
        assert!(
            self.cluster_store(index).is_some(),
            "cluster {index} is not live"
        );
        let mut moved = 0;
        for (i, slot) in self.ring.slots_of(index).into_iter().enumerate() {
            moved += self.move_slot(slot, targets[i % targets.len()]);
        }
        self.clusters.write()[index] = None;
        moved
    }

    /// Moves ring slot `slot` to cluster `to`: under the slot's exclusive
    /// guard, reads the latest value of every key of the slot from its
    /// current cluster (a regular `READ`, so correct under the source
    /// cluster's live fault budget), writes it into `to`, releases the
    /// source binding, and repoints the ring. Returns the number of keys
    /// moved.
    ///
    /// Holding the exclusive guard means no client operation on the
    /// slot's keys is in flight, so the copy is the sole writer of those
    /// keys — the SWMR discipline survives the handover.
    fn move_slot(&self, slot: usize, to: usize) -> usize {
        let _guard = self.slot_guards[slot].write();
        let from = self.ring.cluster_of_slot(slot);
        if from == to {
            return 0;
        }
        let src = self.store(from);
        let dst = self.store(to);
        let mut moved = 0u64;
        for key in src.keys() {
            if self.ring.slot_of(&key) != slot {
                continue;
            }
            let latest = src.read(&key, 0).and_then(|r| r.value);
            if let Some(value) = latest {
                dst.write(key.clone(), value);
            }
            src.release(&key);
            moved += 1;
        }
        self.ring.assign(slot, to);
        let mut ops = self.ops.lock();
        ops.counter_add(names::ROUTER_SLOT_MOVES, &[], 1);
        ops.counter_add(names::ROUTER_REBALANCED_KEYS, &[], moved);
        moved as usize
    }

    /// One snapshot of everything observable about the router and its
    /// clusters, in one [`Registry`]: router-level latency histograms and
    /// rebalance counters, per-cluster key/slot gauges
    /// (`vrr_router_keys{cluster=..}` summing to [`StoreRouter::len`]),
    /// and every cluster's own snapshot merged in (history-length gauges
    /// carry a `cluster` label; counters and histograms aggregate across
    /// clusters).
    pub fn metrics_snapshot(&self) -> Registry {
        let mut reg = self.ops.lock().clone();
        for shard in self.latency.all() {
            for (index, of_cluster) in shard.lock().iter().enumerate() {
                let label = index.to_string();
                let labels = [("cluster", &*label)];
                reg.observe_all(names::ROUTER_READ_LATENCY, &labels, &of_cluster.read);
                reg.observe_all(names::ROUTER_WRITE_LATENCY, &labels, &of_cluster.write);
            }
        }
        let live: Vec<(usize, Arc<dyn ClusterBackend<K, V>>)> = self
            .clusters
            .read()
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|s| (i, s.clone())))
            .collect();
        for (index, store) in &live {
            let label = index.to_string();
            reg.gauge_set(
                names::ROUTER_KEYS,
                &[("cluster", &label)],
                store.len() as u64,
            );
            reg.gauge_set(
                names::ROUTER_RING_SLOTS,
                &[("cluster", &label)],
                self.ring.slots_of(*index).len() as u64,
            );
        }
        reg.gauge_set(names::ROUTER_CLUSTERS, &[], live.len() as u64);
        // Last, what the clusters say of themselves: a remote snapshot is
        // bytes off a socket, and `merge` skips what contradicts the above.
        for (index, store) in &live {
            reg.merge(&store.metrics_snapshot_labelled(Some(*index)));
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
            .field("ring_slots", &self.ring.slot_count())
            .field("seed", &self.ring.seed())
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
        StoreRouter::deploy(
            cfg,
            ProtocolKind::Regular,
            RouterConfig::new(clusters, 32).with_ring_slots(16),
        )
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
        let counts = router.key_counts();
        assert_eq!(counts.iter().map(|&(_, n)| n).sum::<usize>(), 10);
        assert!(counts.iter().all(|&(_, n)| n > 0), "{counts:?}");
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
    fn add_cluster_rebalances_and_preserves_values() {
        let router = tiny_router(1);
        for k in 0..12u64 {
            router.write(format!("key-{k}"), k * 7);
        }
        let new = router.add_cluster();
        assert_eq!(new, 1);
        assert_eq!(router.cluster_count(), 2);
        // Fair share of the 16 ring slots.
        assert_eq!(router.ring().slots_of(1).len(), 8);
        assert_eq!(router.len(), 12);
        for k in 0..12u64 {
            let key = format!("key-{k}");
            assert_eq!(router.read(&key, 0).unwrap().value, Some(k * 7));
            // Keys live where the ring says they live.
            let cluster = router.cluster_of(&key);
            assert!(router
                .cluster_store(cluster)
                .unwrap()
                .shard_of(&key)
                .is_some());
        }
    }

    #[test]
    fn remove_cluster_drains_and_retires() {
        let router = tiny_router(2);
        for k in 0..10u64 {
            router.write(format!("key-{k}"), k + 100);
        }
        let drained = router.cluster_store(0).unwrap().len();
        let moved = router.remove_cluster(0);
        assert_eq!(moved, drained);
        assert_eq!(router.cluster_count(), 1);
        assert!(router.cluster_store(0).is_none());
        assert_eq!(router.len(), 10);
        for k in 0..10u64 {
            let key = format!("key-{k}");
            assert_eq!(router.read(&key, 0).unwrap().value, Some(k + 100));
            assert_eq!(router.cluster_of(&key), 1);
        }
    }

    #[test]
    #[should_panic(expected = "only live cluster")]
    fn removing_the_last_cluster_panics() {
        let router = tiny_router(1);
        router.remove_cluster(0);
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
        let slots: u64 = snap.gauge_values(names::ROUTER_RING_SLOTS).iter().sum();
        assert_eq!(slots, 16);
        // Router-level latency histograms carry per-cluster labels and
        // cover every op.
        let reads: u64 = router
            .cluster_ids()
            .into_iter()
            .filter_map(|c| {
                let label = c.to_string();
                snap.histogram(names::ROUTER_READ_LATENCY, &[("cluster", &label)])
                    .map(|h| h.count())
            })
            .sum();
        assert_eq!(reads, 8);
        // After a rebalance the sum invariant still holds.
        router.add_cluster();
        let snap = router.metrics_snapshot();
        let per_cluster: u64 = snap.gauge_values(names::ROUTER_KEYS).iter().sum();
        assert_eq!(per_cluster, router.len() as u64);
        assert!(snap.counter(names::ROUTER_SLOT_MOVES, &[]) > 0);
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
        let router: StoreRouter<u64, u64> = StoreRouter::deploy(
            cfg,
            ProtocolKind::Safe,
            RouterConfig::new(1, 2).with_ring_slots(4),
        );
        router.write(1, 1);
        router.write(2, 2);
        match router.try_write(3, 3) {
            Err(StoreError::OverCapacity { capacity }) => assert_eq!(capacity, 2),
            other => panic!("expected over-capacity, got {other:?}"),
        }
    }
}
