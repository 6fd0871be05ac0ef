//! **B-HIST** — read cost versus history length (§5 vs §5.1 vs ack GC).
//!
//! Pre-loads a regular storage with `W` writes, then benchmarks a single
//! read. Three variants:
//!
//! * `full` — paper-faithful §5: every ACK ships the whole history, so
//!   read time grows with `W`;
//! * `suffix` — §5.1: cached reader + suffix transfers, flat once the
//!   cache is warm;
//! * `gcfull` — an *unoptimized* (full-history) reader over objects
//!   running reader-ack GC, pre-loaded under steady-state load (a read
//!   every few writes keeps the acks advancing). The ACK still ships the
//!   whole retained history — but GC keeps that history bounded by the
//!   read cadence, so read time stays flat without the §5.1 reader cache.
//!
//! The measured twin of the `sec51_histsize` table; `bench_shape` checks
//! that `full` grows while `suffix` and `gcfull` stay flat.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use vrr_core::regular::HistoryRetention;
use vrr_core::{ProtocolKind, ProtocolSpec, StorageConfig, StorageScenario};

/// Steady-state read cadence for the GC variant (one read per N writes).
const READ_EVERY: u64 = 8;

fn bench_history_growth(c: &mut Criterion) {
    let mut group = c.benchmark_group("history/read");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for writes in [10u64, 100, 500] {
        for (label, kind, retention) in [
            ("full", ProtocolKind::Regular, HistoryRetention::KeepAll),
            (
                "suffix",
                ProtocolKind::RegularOptimized,
                HistoryRetention::KeepAll,
            ),
            (
                "gcfull",
                ProtocolKind::Regular,
                HistoryRetention::reader_ack(1),
            ),
        ] {
            let protocol = ProtocolSpec::from(kind).with_retention(retention);
            let cfg = StorageConfig::optimal(1, 1, 1);
            let mut sc = StorageScenario::deploy(protocol, cfg, 9);
            for k in 1..=writes {
                sc.write(k);
                // Steady-state load for the GC variant: interleaved reads
                // keep the ack floor advancing so histories stay short.
                if label == "gcfull" && k % READ_EVERY == 0 {
                    sc.read(0);
                }
            }
            // Warm the cache so the optimized variant ships short suffixes
            // (and, for gcfull, advertise the final ack to the objects).
            sc.read(0);

            group.bench_function(BenchmarkId::new(label, writes), |bch| {
                bch.iter(|| {
                    assert_eq!(sc.read(0).value, Some(writes));
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_history_growth);
criterion_main!(benches);
