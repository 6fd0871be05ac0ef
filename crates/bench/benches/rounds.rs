//! **B-RND** — simulated operation cost across the protocol landscape.
//!
//! Benchmarks one write+read cycle in the deterministic simulator for each
//! protocol (paper's safe/regular, ABD, masking, passive). Time here is
//! proportional to messages processed, so the shape tracks message
//! complexity: the 2-round protocols process ~2× the events of the 1-round
//! baselines, and the regular variant pays extra for history payloads.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use vrr_baselines::{masking_object_count, AbdProtocol, MaskingProtocol, PassiveProtocol};
use vrr_core::{ProtocolKind, RegisterProtocol, StorageConfig, StorageScenario};

fn cycle<P: RegisterProtocol<u64>>(protocol: P, cfg: StorageConfig) {
    let mut sc = StorageScenario::deploy(protocol, cfg, 5);
    sc.write(7u64);
    assert_eq!(sc.read(0).value, Some(7));
}

fn bench_write_read_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim/cycle");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(3));
    let (t, b) = (2usize, 1usize);
    let opt = StorageConfig::optimal(t, b, 1);

    group.bench_function(BenchmarkId::new("protocol", "safe"), |bch| {
        bch.iter(|| cycle(ProtocolKind::Safe, opt));
    });
    group.bench_function(BenchmarkId::new("protocol", "regular"), |bch| {
        bch.iter(|| cycle(ProtocolKind::Regular, opt));
    });
    group.bench_function(BenchmarkId::new("protocol", "regular-opt"), |bch| {
        bch.iter(|| cycle(ProtocolKind::RegularOptimized, opt));
    });
    group.bench_function(BenchmarkId::new("protocol", "passive"), |bch| {
        bch.iter(|| cycle(PassiveProtocol, opt));
    });
    let mcfg = StorageConfig::with_objects(masking_object_count(t, b), t, b, 1);
    group.bench_function(BenchmarkId::new("protocol", "masking"), |bch| {
        bch.iter(|| cycle(MaskingProtocol, mcfg));
    });
    let acfg = StorageConfig::crash_only(t, 1);
    group.bench_function(BenchmarkId::new("protocol", "abd"), |bch| {
        bch.iter(|| cycle(AbdProtocol::default(), acfg));
    });
    // Over-provisioned regular storage (S = 2t+2b+1): the read half of the
    // cycle completes in one round, trading two extra object automata for
    // a whole round of read messages.
    let fcfg = StorageConfig::fast(t, b, 1);
    group.bench_function(BenchmarkId::new("protocol", "regular-fast"), |bch| {
        bch.iter(|| cycle(ProtocolKind::RegularOptimized, fcfg));
    });
    group.finish();
}

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim/scaling");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for t in [1usize, 2, 4, 8] {
        let cfg = StorageConfig::optimal(t, 1, 1);
        group.bench_function(BenchmarkId::new("safe-S", cfg.s), |bch| {
            bch.iter(|| cycle(ProtocolKind::Safe, cfg));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_write_read_cycle, bench_scaling);
criterion_main!(benches);
