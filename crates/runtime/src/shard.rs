//! Sharded multi-register storage: a key→slot index over one
//! [`RegisterHost`].
//!
//! The paper emulates *one* single-writer multi-reader register. A
//! key-value workload funnelled through that single register serializes
//! every key behind one writer automaton. [`ShardedStore`] hosts a fixed
//! pool of independent register *shards* — each with its own writer, `S`
//! base objects and `R` readers — on one shared cluster, and assigns every
//! distinct key its own shard on first write. Operations on different keys
//! run through disjoint automata and proceed in parallel across the worker
//! pool; operations on one key keep the paper's SWMR semantics (the
//! executor runs one operation at a time per writer and per reader
//! automaton, in submission order — see [`Cluster::submit`]).

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

use vrr_sim::Automaton;

use vrr_core::metrics::Registry;
use vrr_core::{
    GroupRole, Msg, ProtocolKind, ProtocolSpec, ReadReport, StorageConfig, Value, WriteReport,
};

use crate::backend::ClusterBackend;
use crate::cluster::{Cluster, NodeGone};
use crate::host::RegisterHost;
use crate::link::LinkPolicy;

/// A typed error from the non-panicking store operations.
///
/// For the in-process store the only runtime-recoverable failure is
/// capacity exhaustion; a wedged cluster (an operation outliving the
/// generous internal timeout) stays a panic, because with at most `t`
/// faults per group it is a wait-freedom violation, not an operational
/// condition. Remote backends (`vrr-net`'s `RemoteCluster`) additionally
/// surface unrecoverable transport failure — a request that kept failing
/// through the bounded retry/backoff budget — as [`StoreError::Backend`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StoreError {
    /// Every provisioned register shard is already bound (or was bound and
    /// later retired); the new key cannot be served. See the capacity
    /// contract on [`ShardedStore`].
    OverCapacity {
        /// The store's provisioned shard count.
        capacity: usize,
    },
    /// A remote cluster backend failed to serve the operation after
    /// exhausting its retry budget.
    Backend {
        /// What failed, in the backend's own words.
        what: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::OverCapacity { capacity } => {
                write!(f, "ShardedStore over capacity: all {capacity} shards bound")
            }
            StoreError::Backend { what } => write!(f, "cluster backend failed: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// The key→shard bindings, behind one read-mostly lock: the per-operation
/// hot path takes only the shared side; the exclusive side is touched once
/// per key lifetime (first bind, release).
struct KeyIndex<K> {
    map: HashMap<K, usize>,
    /// Next never-used shard slot. Slots are **single-use**: releasing a
    /// key retires its slot instead of recycling it (see the capacity
    /// contract on [`ShardedStore`]).
    next_slot: usize,
}

/// A multi-key register store: each key is served by its own register
/// shard (writer + objects + readers) on one shared worker-pool cluster.
///
/// # Capacity contract
///
/// Shards are provisioned up front (`capacity`) and bound to keys on first
/// write, so the id space stays dense and the cluster can seal. `capacity`
/// bounds the number of **bindings ever made**, not the number of live
/// keys: [`release`](ClusterBackend::release) retires a binding's shard
/// rather than recycling it, because handing a register that already holds
/// one key's history to a different key would let a read concurrent with
/// the new key's first write return the *old key's* value (a cross-key
/// regularity leak). Once all `capacity` slots are consumed,
/// [`try_write`](ClusterBackend::try_write) for a new key returns
/// [`StoreError::OverCapacity`] (and [`write`](ClusterBackend::write), the
/// panicking wrapper, panics). Reads of never-written keys return `None`
/// without touching the network.
///
/// # Examples
///
/// ```
/// use vrr_runtime::{ClusterBackend, ShardedStore, ProtocolKind, NoDelay};
/// use vrr_core::StorageConfig;
///
/// let cfg = StorageConfig::optimal(1, 1, 1);
/// let store: ShardedStore<&'static str, u64> =
///     ShardedStore::deploy(cfg, ProtocolKind::RegularOptimized, Box::new(NoDelay), 4);
/// store.write("alpha", 1);
/// store.write("beta", 2);
/// assert_eq!(store.read(&"alpha", 0).unwrap().value, Some(1));
/// assert_eq!(store.read(&"beta", 0).unwrap().value, Some(2));
/// assert_eq!(store.read(&"gamma", 0), None);
/// ```
pub struct ShardedStore<K: Eq + Hash, V: Value> {
    /// One slot per shard.
    host: RegisterHost<V>,
    /// key → shard slot, assigned on first write. Read-mostly: every
    /// operation takes the shared side; only first-binds and releases take
    /// the exclusive side, so the routing step of concurrent operations on
    /// distinct keys never serializes.
    index: RwLock<KeyIndex<K>>,
}

impl<K: Eq + Hash + Clone + Send + Sync, V: Value> ShardedStore<K, V> {
    /// Deploys `capacity` register shards — each `cfg.s` objects, one
    /// writer and `cfg.readers` readers running `spec` — over one shared
    /// cluster with one worker per available CPU. As with
    /// [`crate::StorageCluster::deploy`], a bare [`ProtocolKind`] is the
    /// paper-faithful spec; long-running multi-key deployments pass a
    /// [`ProtocolSpec`] with reader-ack retention to bound object memory.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn deploy(
        cfg: StorageConfig,
        spec: impl Into<ProtocolSpec>,
        policy: Box<dyn LinkPolicy<Msg<V>>>,
        capacity: usize,
    ) -> Self {
        Self::deploy_with_objects(cfg, spec, policy, capacity, |_shard, _i| None)
    }

    /// Like [`ShardedStore::deploy`], but `factory(shard, i)` may
    /// substitute the automaton of object `i` in `shard` — the hook for
    /// deploying Byzantine objects on selected shards.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn deploy_with_objects(
        cfg: StorageConfig,
        spec: impl Into<ProtocolSpec>,
        policy: Box<dyn LinkPolicy<Msg<V>>>,
        capacity: usize,
        mut factory: impl FnMut(usize, usize) -> Option<Box<dyn Automaton<Msg<V>>>>,
    ) -> Self {
        Self::over(RegisterHost::spawn(
            Cluster::new(policy),
            cfg,
            spec.into(),
            capacity,
            |shard, role| match role {
                GroupRole::Object(i) => factory(shard, i),
                GroupRole::Writer | GroupRole::Reader(_) => None,
            },
        ))
    }

    /// A key index over the register groups of `host`, none of them bound
    /// yet: the store's shards are the host's slots, so an operation on a
    /// key and one on its slot ([`ClusterBackend::shard_of`]) address the
    /// same register.
    ///
    /// # Panics
    ///
    /// Panics if `host` has no register group.
    pub fn over(host: RegisterHost<V>) -> Self {
        assert!(
            !host.groups().is_empty(),
            "a sharded store needs at least one shard"
        );
        ShardedStore {
            host,
            index: RwLock::new(KeyIndex {
                map: HashMap::new(),
                next_slot: 0,
            }),
        }
    }

    /// The register host under the index: fault injection, inspection and
    /// the worker pool's stats.
    pub fn host(&self) -> &RegisterHost<V> {
        &self.host
    }

    /// The per-shard sizing.
    pub fn config(&self) -> StorageConfig {
        self.host.config()
    }

    /// The protocol variant.
    pub fn kind(&self) -> ProtocolKind {
        self.host.kind()
    }

    /// Provisioned register slots (bindings ever possible, not live keys).
    pub fn capacity(&self) -> usize {
        self.host.groups().len()
    }

    /// Starts `WRITE(key, value)` and returns without waiting; `done`
    /// fires with the report (or [`NodeGone`] if the shard's writer is
    /// crashed) where [`Cluster::submit`] says — on this thread, before the
    /// call returns, if the shard is idle. Capacity exhaustion is reported
    /// here, as `Err`, and `done` is then never called.
    pub fn try_write_with(
        &self,
        key: K,
        value: V,
        done: impl FnOnce(Result<WriteReport, NodeGone>) + Send + 'static,
    ) -> Result<(), StoreError> {
        self.host.write_with(self.bind(key)?, value, done);
        Ok(())
    }

    /// The slot serving `key`, binding it to the next never-used one on
    /// first use. Read-mostly: an already-bound key takes only the shared
    /// side of the index lock; binding a new key takes the exclusive side
    /// once in the key's lifetime.
    fn bind(&self, key: K) -> Result<usize, StoreError> {
        if let Some(slot) = self.shard_of(&key) {
            return Ok(slot);
        }
        let mut index = self.index.write();
        // Re-check under the exclusive lock: a racing writer of the same
        // new key may have bound it between our two lockings.
        if let Some(&slot) = index.map.get(&key) {
            return Ok(slot);
        }
        let capacity = self.capacity();
        if index.next_slot >= capacity {
            return Err(StoreError::OverCapacity { capacity });
        }
        let slot = index.next_slot;
        index.next_slot += 1;
        index.map.insert(key, slot);
        Ok(slot)
    }

    /// Starts `READ(key)` at reader index `j` of the key's shard and
    /// returns without waiting; `done` fires with the report (or
    /// [`NodeGone`] if that reader is crashed) where [`Cluster::submit`]
    /// says — on this thread if the shard is idle. Returns `false` — and
    /// never calls `done` — if `key` is not bound.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cfg.readers`.
    pub fn read_with(
        &self,
        key: &K,
        j: usize,
        done: impl FnOnce(Result<ReadReport<V>, NodeGone>) + Send + 'static,
    ) -> bool {
        let Some(slot) = self.shard_of(key) else {
            return false;
        };
        self.host.read_with(slot, j, done);
        true
    }
}

/// The store *is* a cluster backend: everything a router (or a caller
/// holding the store itself) does to its keys goes through the trait, whose
/// docs state each operation's contract. Specific to this implementation:
/// an operation that outlives the internal timeout panics (with at most `t`
/// faults per group that is a wait-freedom violation, not an operational
/// condition), as does a reader, slot or object index out of range.
impl<K: Eq + Hash + Clone + Send + Sync, V: Value> ClusterBackend<K, V> for ShardedStore<K, V> {
    fn try_write(&self, key: K, value: V) -> Result<WriteReport, StoreError> {
        Ok(self.host.write(self.bind(key)?, value))
    }

    fn read(&self, key: &K, j: usize) -> Option<ReadReport<V>> {
        self.shard_of(key).map(|slot| self.host.read(slot, j))
    }

    fn release(&self, key: &K) -> Option<usize> {
        self.index.write().map.remove(key)
    }

    fn keys(&self) -> Vec<K> {
        self.index.read().map.keys().cloned().collect()
    }

    fn len(&self) -> usize {
        self.index.read().map.len()
    }

    fn shard_of(&self, key: &K) -> Option<usize> {
        self.index.read().map.get(key).copied()
    }

    fn crash_object(&self, slot: usize, idx: usize) {
        self.host.crash_object(slot, idx);
    }

    /// Under the same canonical `vrr_*` names
    /// ([`vrr_core::metrics::names`]) as
    /// [`crate::StorageCluster::metrics_snapshot`] and the simulator
    /// harness: operation rounds/latency histograms (latency ticks are
    /// wall-clock microseconds), worker-pool counters, store-wide
    /// fast-path counters, and per-object history-length gauges labelled
    /// with their shard slot.
    fn metrics_snapshot_labelled(&self, cluster: Option<usize>) -> Registry {
        self.host.metrics_snapshot_labelled(cluster)
    }
}

impl<K: Eq + Hash + Clone + Send + Sync, V: Value> std::fmt::Debug for ShardedStore<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("kind", &self.kind())
            .field("cfg", &self.config())
            .field("capacity", &self.capacity())
            .field("keys", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::NoDelay;

    #[test]
    fn distinct_keys_use_distinct_shards() {
        let cfg = StorageConfig::optimal(1, 1, 1);
        let store: ShardedStore<String, u64> =
            ShardedStore::deploy(cfg, ProtocolKind::Regular, Box::new(NoDelay), 8);
        for k in 0..8u64 {
            store.write(format!("key-{k}"), k * 100);
        }
        assert_eq!(store.len(), 8);
        for k in 0..8u64 {
            let r = store.read(&format!("key-{k}"), 0).expect("written key");
            assert_eq!(r.value, Some(k * 100));
            assert_eq!(r.rounds, 1);
        }
        // All shards distinct.
        let slots: std::collections::BTreeSet<usize> = (0..8u64)
            .map(|k| store.shard_of(&format!("key-{k}")).unwrap())
            .collect();
        assert_eq!(slots.len(), 8);
    }

    #[test]
    fn rewrites_to_one_key_stay_on_its_shard() {
        let cfg = StorageConfig::optimal(1, 1, 2);
        let store: ShardedStore<&'static str, u64> =
            ShardedStore::deploy(cfg, ProtocolKind::RegularOptimized, Box::new(NoDelay), 2);
        for gen in 1..=5u64 {
            store.write("config", gen);
            for j in 0..2 {
                assert_eq!(store.read(&"config", j).unwrap().value, Some(gen));
            }
        }
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn unwritten_key_reads_none() {
        let cfg = StorageConfig::optimal(1, 1, 1);
        let store: ShardedStore<&'static str, u64> =
            ShardedStore::deploy(cfg, ProtocolKind::Safe, Box::new(NoDelay), 1);
        assert_eq!(store.read(&"ghost", 0), None);
    }

    #[test]
    #[should_panic(expected = "over capacity")]
    fn capacity_overflow_panics() {
        let cfg = StorageConfig::optimal(1, 1, 1);
        let store: ShardedStore<u64, u64> =
            ShardedStore::deploy(cfg, ProtocolKind::Safe, Box::new(NoDelay), 2);
        store.write(1, 1);
        store.write(2, 2);
        store.write(3, 3);
    }
}
