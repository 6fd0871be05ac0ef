//! Exact protocol costs from the deterministic simulator: messages and
//! bytes per READ and per WRITE of the regular-opt protocol at
//! `optimal(1,1,2)`. These repeat exactly for a seed, so a later change
//! may rest a claim on them as counts.

use std::time::Instant;

use vrr_core::{RegularProtocol, StorageConfig, StorageScenario};

pub const CYCLES: u64 = 1000;

pub struct SimCounts {
    pub msgs_per_read: f64,
    pub bytes_per_read: f64,
    pub msgs_per_write: f64,
    pub bytes_per_write: f64,
    /// Wall time of one simulated WRITE + READ cycle.
    pub cycle_us: f64,
}

pub fn run(seed: u64) -> SimCounts {
    let cfg = StorageConfig::optimal(1, 1, 2);
    let mut sc = StorageScenario::deploy(RegularProtocol::optimized(), cfg, seed);
    let (mut write_msgs, mut write_bytes, mut read_msgs, mut read_bytes) = (0, 0, 0, 0);
    let started = Instant::now();
    for cycle in 1..=CYCLES {
        let before = sc.scenario_mut().net_stats();
        sc.write(cycle);
        let mid = sc.scenario_mut().net_stats();
        let report = sc.read((cycle % 2) as usize);
        let after = sc.scenario_mut().net_stats();
        assert_eq!(
            report.value,
            Some(cycle),
            "simulated READ returns the last WRITE"
        );
        write_msgs += mid.sent - before.sent;
        write_bytes += mid.bytes_sent - before.bytes_sent;
        read_msgs += after.sent - mid.sent;
        read_bytes += after.bytes_sent - mid.bytes_sent;
    }
    let cycle_us = started.elapsed().as_secs_f64() * 1e6 / CYCLES as f64;
    let per = |total: u64| total as f64 / CYCLES as f64;
    SimCounts {
        msgs_per_read: per(read_msgs),
        bytes_per_read: per(read_bytes),
        msgs_per_write: per(write_msgs),
        bytes_per_write: per(write_bytes),
        cycle_us,
    }
}
