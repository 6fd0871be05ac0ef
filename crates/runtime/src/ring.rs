//! Deterministic key→cluster routing for the multi-cluster store.
//!
//! [`stable_hash_64`] is a seeded FNV-1a/SplitMix hash over anything
//! `Hash`. Unlike `std::collections::hash_map::RandomState`, the result is
//! a pure function of `(seed, key)`: the same key routes to the same
//! cluster — `stable_hash_64(seed, key) % clusters` — across processes,
//! replays and deployments, which is what lets clients route without
//! asking anyone.

use std::hash::{Hash, Hasher};

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
        // and `% clusters` consumes exactly those low-entropy positions.
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

    /// How `StoreRouter::cluster_of` routes.
    fn route(seed: u64, key: &impl Hash, clusters: u64) -> usize {
        (stable_hash_64(seed, key) % clusters) as usize
    }

    #[test]
    fn routing_is_deterministic() {
        for k in 0..500u64 {
            assert_eq!(route(42, &k, 3), route(42, &k, 3));
            assert!(route(42, &k, 3) < 3);
        }
    }

    #[test]
    fn sequential_keys_spread_across_clusters() {
        // The adversarial-but-realistic case: dense sequential keys must
        // not clump (this is what the SplitMix finalizer buys).
        let mut counts = vec![0usize; 4];
        for k in 0..1000u64 {
            counts[route(9, &format!("user-{k}"), 4)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max <= 2 * min.max(1), "skewed routing: {counts:?}");
    }
}
