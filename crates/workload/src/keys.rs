//! Skewed key-selection for multi-key workloads.
//!
//! Real key-value traffic is not uniform: a few hot keys absorb most
//! operations. [`ZipfianKeys`] draws key ranks from the Zipfian
//! distribution using the Gray et al. rejection-free method (the same
//! construction YCSB uses), deterministically per seed — two generators
//! built with the same `(n, theta, seed)` emit identical sequences, so
//! benchmark runs and replays agree on every key choice.
//!
//! Rank 0 is the hottest key. For workloads that want the hot *ranks*
//! scattered across the key space (so skew does not correlate with
//! insertion order or hash locality), [`ZipfianKeys::next_scrambled`]
//! passes the rank through a SplitMix64 permutation before reducing
//! modulo `n`.

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// A seeded Zipfian rank generator over `0..n` (Gray et al. / YCSB).
///
/// # Examples
///
/// ```
/// use vrr_workload::ZipfianKeys;
///
/// let mut a = ZipfianKeys::ycsb(100, 42);
/// let mut b = ZipfianKeys::ycsb(100, 42);
/// let ranks: Vec<u64> = (0..16).map(|_| a.next_rank()).collect();
/// assert_eq!(ranks, (0..16).map(|_| b.next_rank()).collect::<Vec<_>>());
/// assert!(ranks.iter().all(|&r| r < 100));
/// ```
#[derive(Clone, Debug)]
pub struct ZipfianKeys {
    rng: SmallRng,
    n: u64,
    theta: f64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
}

/// `zeta(n, theta) = sum_{i=1..n} 1 / i^theta`.
fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

impl ZipfianKeys {
    /// A generator over ranks `0..n` with skew `theta` and the given seed.
    ///
    /// Construction is `O(n)` (the zeta normalizer); drawing is `O(1)`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `theta` is outside `(0, 1)` (the Gray et al.
    /// transform requires `theta < 1`; YCSB's default is 0.99).
    pub fn new(n: u64, theta: f64, seed: u64) -> Self {
        assert!(n >= 2, "a Zipfian needs at least two keys");
        assert!(
            theta > 0.0 && theta < 1.0,
            "theta must lie in (0, 1), got {theta}"
        );
        let zeta_n = zeta(n, theta);
        let zeta_2 = zeta(2, theta);
        ZipfianKeys {
            rng: SmallRng::seed_from_u64(seed ^ 0x21bf_5eed),
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zeta_n,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta_2 / zeta_n),
        }
    }

    /// The YCSB default: skew `theta = 0.99` over `0..n`.
    pub fn ycsb(n: u64, seed: u64) -> Self {
        Self::new(n, 0.99, seed)
    }

    /// Draws the next rank in `0..n`; rank 0 is the hottest.
    pub fn next_rank(&mut self) -> u64 {
        // Uniform in [0, 1) from the top 53 bits of one word.
        let u = (self.rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Draws the next rank and scatters it across `0..n` with a SplitMix64
    /// permutation step, so the hot keys are spread over the key space
    /// instead of clustered at the low ranks. Deterministic like
    /// [`ZipfianKeys::next_rank`]; the mapping is many-to-one modulo `n`.
    pub fn next_scrambled(&mut self) -> u64 {
        let mut z = self.next_rank().wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = ZipfianKeys::ycsb(1000, 7);
        let mut b = ZipfianKeys::ycsb(1000, 7);
        for _ in 0..500 {
            assert_eq!(a.next_rank(), b.next_rank());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ZipfianKeys::ycsb(1000, 1);
        let mut b = ZipfianKeys::ycsb(1000, 2);
        let sa: Vec<u64> = (0..100).map(|_| a.next_rank()).collect();
        let sb: Vec<u64> = (0..100).map(|_| b.next_rank()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn ranks_stay_in_range() {
        let mut g = ZipfianKeys::new(64, 0.5, 3);
        for _ in 0..5000 {
            assert!(g.next_rank() < 64);
            assert!(g.next_scrambled() < 64);
        }
    }

    #[test]
    fn distribution_is_skewed_toward_low_ranks() {
        let mut g = ZipfianKeys::ycsb(1000, 42);
        let mut counts = vec![0u64; 1000];
        let draws = 50_000;
        for _ in 0..draws {
            counts[g.next_rank() as usize] += 1;
        }
        // Under theta = 0.99 the hottest 10% of ranks take well over half
        // the mass (uniform would give them exactly 10%).
        let top_decile: u64 = counts[..100].iter().sum();
        assert!(
            top_decile * 2 > draws,
            "expected skew, top decile got {top_decile}/{draws}"
        );
        // And rank 0 alone beats the uniform share by an order of magnitude.
        assert!(counts[0] > draws / 1000 * 10, "rank 0 drew {}", counts[0]);
    }

    #[test]
    fn scrambling_spreads_the_hot_set() {
        let mut g = ZipfianKeys::ycsb(1000, 9);
        let mut counts = vec![0u64; 1000];
        for _ in 0..20_000 {
            counts[g.next_scrambled() as usize] += 1;
        }
        // The hottest scrambled key is no longer key 0, and the low ranks
        // hold no special mass.
        let low: u64 = counts[..100].iter().sum();
        assert!(low < 20_000 / 2, "scrambled lows still hot: {low}");
    }
}
