//! Deterministic key→cluster routing for the multi-cluster store.
//!
//! Two pieces, both deliberately boring:
//!
//! * [`stable_hash_64`] — a seeded FNV-1a/SplitMix hash over anything
//!   `Hash`. Unlike `std::collections::hash_map::RandomState`, the result
//!   is a pure function of `(seed, key)`: the same key routes to the same
//!   place across processes, replays and deployments, which is what lets
//!   clients route without asking anyone.
//! * [`RingTable`] — a fixed array of *ring slots*; a key hashes to slot
//!   `h % slots`, and each slot names the shard-cluster currently serving
//!   it. Slot entries are atomics, so the per-operation routing step is a
//!   hash plus one relaxed-cost atomic load — no lock, no shared map.
//!   Rebalancing moves whole slots between clusters (a handful of entries),
//!   never rewrites per-key state.
//!
//! The slot granularity bounds rebalance work: adding or removing a
//! cluster moves `O(slots / clusters)` slots, and every key's route is
//! derivable from the table alone.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A seeded, process-stable [`Hasher`]: FNV-1a over the written bytes with
/// a SplitMix64 finalizer to spread the low bits FNV leaves correlated.
#[derive(Clone, Debug)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    /// A hasher whose stream is a pure function of `seed` and the
    /// subsequently written bytes.
    pub fn with_seed(seed: u64) -> Self {
        StableHasher {
            state: FNV_OFFSET ^ seed,
        }
    }
}

impl Hasher for StableHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    fn finish(&self) -> u64 {
        // SplitMix64 finalizer: FNV-1a alone mixes the high bits poorly,
        // and `% slots` consumes exactly those low-entropy positions.
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Hashes `key` under `seed`, deterministically across processes and
/// replays (never [`std::collections::hash_map::RandomState`]).
///
/// # Examples
///
/// ```
/// use vrr_runtime::stable_hash_64;
///
/// assert_eq!(stable_hash_64(7, &"alpha"), stable_hash_64(7, &"alpha"));
/// assert_ne!(stable_hash_64(7, &"alpha"), stable_hash_64(8, &"alpha"));
/// ```
pub fn stable_hash_64<K: Hash + ?Sized>(seed: u64, key: &K) -> u64 {
    let mut h = StableHasher::with_seed(seed);
    key.hash(&mut h);
    h.finish()
}

/// The routing table of a multi-cluster store: `slots` ring slots, each
/// naming the cluster index currently serving it.
///
/// Reads ([`RingTable::route`]) are lock-free; writes
/// ([`RingTable::assign`]) happen only during rebalances, under the
/// router's per-slot guards. The initial assignment deals slots round-robin
/// across the first `clusters` cluster indices.
#[derive(Debug)]
pub struct RingTable {
    seed: u64,
    slots: Vec<AtomicUsize>,
}

impl RingTable {
    /// A table of `slots` ring slots dealt round-robin over cluster
    /// indices `0..clusters`.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0` or `clusters == 0`.
    pub fn new(seed: u64, slots: usize, clusters: usize) -> Self {
        assert!(slots > 0, "a ring needs at least one slot");
        assert!(clusters > 0, "a ring needs at least one cluster");
        RingTable {
            seed,
            slots: (0..slots).map(|s| AtomicUsize::new(s % clusters)).collect(),
        }
    }

    /// The routing seed (stable for the table's lifetime).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of ring slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The ring slot `key` hashes to.
    pub fn slot_of<K: Hash + ?Sized>(&self, key: &K) -> usize {
        (stable_hash_64(self.seed, key) % self.slots.len() as u64) as usize
    }

    /// The cluster currently serving ring slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn cluster_of_slot(&self, slot: usize) -> usize {
        self.slots[slot].load(Ordering::Acquire)
    }

    /// Routes `key`: `(slot, cluster)`. Lock-free.
    pub fn route<K: Hash + ?Sized>(&self, key: &K) -> (usize, usize) {
        let slot = self.slot_of(key);
        (slot, self.cluster_of_slot(slot))
    }

    /// Points ring slot `slot` at `cluster`. Called only by rebalances,
    /// after the keys of the slot were copied over.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn assign(&self, slot: usize, cluster: usize) {
        self.slots[slot].store(cluster, Ordering::Release);
    }

    /// The ring slots currently served by `cluster`, ascending.
    pub fn slots_of(&self, cluster: usize) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&s| self.cluster_of_slot(s) == cluster)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_deterministic_and_seed_sensitive() {
        for key in ["", "a", "key-17", "the quick brown fox"] {
            assert_eq!(stable_hash_64(1, key), stable_hash_64(1, key));
        }
        assert_ne!(stable_hash_64(1, "key"), stable_hash_64(2, "key"));
        assert_ne!(stable_hash_64(1, "key-1"), stable_hash_64(1, "key-2"));
    }

    #[test]
    fn ring_routes_deterministically() {
        let a = RingTable::new(42, 64, 3);
        let b = RingTable::new(42, 64, 3);
        for k in 0..500u64 {
            assert_eq!(a.route(&k), b.route(&k));
        }
    }

    #[test]
    fn initial_assignment_is_even() {
        let ring = RingTable::new(7, 64, 3);
        let counts: Vec<usize> = (0..3).map(|c| ring.slots_of(c).len()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 64);
        assert!(counts.iter().all(|&c| (21..=22).contains(&c)), "{counts:?}");
    }

    #[test]
    fn sequential_keys_spread_across_slots() {
        // The adversarial-but-realistic case: dense sequential keys must
        // not clump (this is what the SplitMix finalizer buys).
        let ring = RingTable::new(9, 32, 4);
        let mut counts = vec![0usize; 4];
        for k in 0..1000u64 {
            counts[ring.route(&format!("user-{k}")).1] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max <= 2 * min.max(1), "skewed routing: {counts:?}");
    }

    #[test]
    fn assign_moves_a_slot() {
        let ring = RingTable::new(3, 8, 2);
        let slot = ring.slot_of(&"k");
        let before = ring.cluster_of_slot(slot);
        ring.assign(slot, 5);
        assert_eq!(ring.cluster_of_slot(slot), 5);
        assert_ne!(before, 5);
        assert!(ring.slots_of(5).contains(&slot));
    }
}
