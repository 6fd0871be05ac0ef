//! Shared by the `vrr-net` test binaries: the seeded generator their
//! schedules draw from and the `--addrs` rendering (each binary compiles
//! this module for itself, and not every one uses every item).
#![allow(dead_code)]

use std::net::SocketAddr;

/// SplitMix64: deterministic schedules and structures per seed.
pub struct Gen(pub u64);

impl Gen {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// `addrs` as the value of `--addrs`.
pub fn addr_list(addrs: &[SocketAddr]) -> String {
    let addrs: Vec<String> = addrs.iter().map(SocketAddr::to_string).collect();
    addrs.join(",")
}
