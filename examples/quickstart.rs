//! Quickstart: a robust register in a dozen lines.
//!
//! Deploys the paper's safe storage twice — once in the deterministic
//! simulator (where every correctness experiment lives) and once on real
//! OS threads — and performs the same writes and reads on both.
//!
//! Run with `cargo run --example quickstart`.

use vrr::core::{StorageConfig, StorageScenario};
use vrr::runtime::{ProtocolKind, StorageCluster};

fn main() {
    // Budget: tolerate t = 2 faulty base objects, of which b = 1 may be
    // Byzantine. Optimal resilience: S = 2t + b + 1 = 6 objects.
    let cfg = StorageConfig::optimal(2, 1, 1);
    println!("deploying safe storage: {cfg:?}");

    // ---- In the simulator ----------------------------------------------
    let mut sc = StorageScenario::deploy(ProtocolKind::Safe, cfg, 42);

    let w = sc.write("hello".to_string());
    println!(
        "[sim]    WRITE(\"hello\")  -> ts {:?}, {} rounds",
        w.ts, w.rounds
    );

    let r = sc.read(0);
    println!(
        "[sim]    READ()          -> {:?}, {} rounds",
        r.value, r.rounds
    );
    assert_eq!(r.value.as_deref(), Some("hello"));
    assert_eq!(
        r.rounds, 1,
        "round 1 proves a quiet read; two is the worst case"
    );

    // A crash within budget changes nothing observable.
    sc.crash_object(0);
    let w = sc.write("world".to_string());
    let r = sc.read(0);
    println!(
        "[sim]    after one object crash: WRITE/READ -> {:?} ({} + {} rounds)",
        r.value, w.rounds, r.rounds
    );
    assert_eq!(r.value.as_deref(), Some("world"));

    // ---- On threads ------------------------------------------------------
    let storage: StorageCluster<String> = StorageCluster::deploy(cfg, ProtocolKind::Safe);
    let started = std::time::Instant::now();
    storage.write("hello from threads".to_string());
    let r = storage.read(0);
    println!(
        "[thread] WRITE + READ     -> {:?} in {:.1?} (S = {} object threads)",
        r.value,
        started.elapsed(),
        cfg.s
    );
    assert_eq!(r.value.as_deref(), Some("hello from threads"));

    println!("ok: same protocol code, two substrates.");
}
