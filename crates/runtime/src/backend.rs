//! The cluster abstraction behind [`StoreRouter`](crate::StoreRouter):
//! "a cluster" is a trait, not a concrete type.
//!
//! [`ShardedStore`](crate::ShardedStore) deploys register groups on an
//! in-process worker pool and implements the trait directly — its key
//! operations *are* the trait's methods; `vrr-net`'s `RemoteCluster` drives
//! the same operations over TCP against a store hosted by a `vrr-server`
//! in another OS process. A router routes
//! keys by seeded hash and never looks past this trait, so one ring can
//! span heterogeneous backends — some clusters local, some remote — and the
//! never-expose-intermediate-state rebalance (regular-`READ` copy, write
//! into the destination, release the source, repoint the ring) works
//! unchanged across process boundaries.
//!
//! The trait is object-safe on purpose: routers hold
//! `Arc<dyn ClusterBackend<K, V>>` and remain oblivious to where a
//! cluster's automata actually execute.

use vrr_core::metrics::Registry;
use vrr_core::{ReadReport, Value, WriteReport};

use crate::shard::StoreError;

/// One shard-cluster as the router sees it: a capacity-bounded key→register
/// map with the operations a scale-out deployment needs — write, read,
/// release (the source half of a rebalance), fault injection and a metrics
/// snapshot, whose history-length gauges are the one way a cluster's
/// history lengths reach its callers.
///
/// Implementations must uphold the [`ShardedStore`](crate::ShardedStore)
/// capacity contract: binding a key consumes a register slot for good,
/// [`release`] retires the slot rather than recycling it, and a bound key
/// keeps the paper's SWMR semantics (writes to one key serialize; reads are
/// regular under the cluster's `(t, b)` fault budget).
///
/// [`release`]: ClusterBackend::release
pub trait ClusterBackend<K, V: Value>: Send + Sync {
    /// Blocking `WRITE(key, value)`; binds `key` on first use, reporting
    /// capacity exhaustion (and, for remote backends, unrecoverable
    /// transport failure) as a typed [`StoreError`].
    fn try_write(&self, key: K, value: V) -> Result<WriteReport, StoreError>;

    /// Blocking `READ(key)` at reader index `reader`, or `None` if `key`
    /// is not bound here.
    fn read(&self, key: &K, reader: usize) -> Option<ReadReport<V>>;

    /// Unbinds `key`, retiring its register slot (never recycled).
    /// Returns the retired slot, or `None` if the key was not bound.
    fn release(&self, key: &K) -> Option<usize>;

    /// Every currently-bound key (unordered) — what a rebalance must move.
    fn keys(&self) -> Vec<K>;

    /// Number of keys currently bound.
    fn len(&self) -> usize;

    /// Whether no key is currently bound.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The register slot serving `key`, if bound.
    fn shard_of(&self, key: &K) -> Option<usize>;

    /// Crashes base object `object` of register slot `slot` (fault
    /// injection).
    fn crash_object(&self, slot: usize, object: usize);

    /// One snapshot of everything observable about the cluster, with every
    /// history-length gauge additionally labelled `cluster="<cluster>"`
    /// when given — so the snapshots of a router's clusters merge into one
    /// [`Registry`] without colliding.
    fn metrics_snapshot_labelled(&self, cluster: Option<usize>) -> Registry;

    /// Panicking [`ClusterBackend::try_write`] (capacity exhaustion and
    /// transport failure are deployment errors on this path).
    fn write(&self, key: K, value: V) -> WriteReport {
        self.try_write(key, value).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ClusterBackend::metrics_snapshot_labelled`] without the cluster
    /// label.
    fn metrics_snapshot(&self) -> Registry {
        self.metrics_snapshot_labelled(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::NoDelay;
    use crate::{ProtocolKind, ShardedStore};
    use vrr_core::StorageConfig;

    #[test]
    fn sharded_store_serves_through_the_trait_object() {
        let cfg = StorageConfig::optimal(1, 1, 1);
        let store: ShardedStore<String, u64> =
            ShardedStore::deploy(cfg, ProtocolKind::Regular, Box::new(NoDelay), 4);
        let backend: std::sync::Arc<dyn ClusterBackend<String, u64>> = std::sync::Arc::new(store);
        backend.write("alpha".into(), 7);
        assert_eq!(backend.len(), 1);
        assert_eq!(backend.read(&"alpha".into(), 0).unwrap().value, Some(7));
        let slot = backend.shard_of(&"alpha".into()).unwrap();
        assert_eq!(backend.release(&"alpha".into()), Some(slot));
        assert_eq!(backend.read(&"alpha".into(), 0), None);
    }
}
