//! Per-thread shards for what every operation writes besides its register
//! group — the op meter of [`crate::Registers`], and on the thread runtime
//! the router's latency histograms and the executor's counters — so two
//! callers share nothing but the group.
//!
//! A [`Sharded`] value is [`SHARDS`] copies on cache lines of their own. A
//! thread draws its shard index once, from a counter, and writes only that
//! shard; more threads than shards share one, which a shard's own `Mutex`
//! or atomics make a contention, never a lost count. Readers sum every
//! shard, so snapshots stay exact.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Shards per value: more than the threads that run operations at once on
/// the hosts this workspace deploys (callers plus one worker per CPU).
pub const SHARDS: usize = 16;

/// Hands out shard indices round-robin, one per thread.
static NEXT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard index, drawn on first use.
    static MINE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

/// `T` alone on its cache lines (two, for the adjacent-line prefetcher).
#[repr(align(128))]
pub struct Padded<T>(pub T);

/// [`SHARDS`] copies of `T`: a thread writes [`Sharded::mine`], a snapshot
/// sums [`Sharded::all`].
pub struct Sharded<T>(Box<[Padded<T>]>);

impl<T> Sharded<T> {
    /// [`SHARDS`] values made by `init`.
    pub fn new(mut init: impl FnMut() -> T) -> Self {
        Sharded((0..SHARDS).map(|_| Padded(init())).collect())
    }

    /// The calling thread's shard.
    pub fn mine(&self) -> &T {
        &self.0[MINE.with(|&i| i)].0
    }

    /// Every shard, for a snapshot to sum.
    pub fn all(&self) -> impl Iterator<Item = &T> {
        self.0.iter().map(|shard| &shard.0)
    }
}
