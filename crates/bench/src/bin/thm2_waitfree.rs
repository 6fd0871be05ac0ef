//! **E-T2 — Theorem 2**: the §4 algorithm is wait-free — every operation by
//! a non-crashing client completes, whatever happens to other clients and
//! to up to `t` objects.
//!
//! Three scenario families:
//!
//! 1. the sweep of E-T1 rechecked for liveness (no stalled ops);
//! 2. the *writer crashes mid-write* and readers keep completing — the
//!    signature wait-freedom scenario (a reader must never wait for the
//!    writer to finish);
//! 3. maximum-damage runs: `b` Byzantine + `t − b` crashes landing during
//!    operations, with long-tail asynchrony.
//!
//! Expected shape: every invoked operation completes, in ≤ 2 rounds.
//! Run with `cargo run --release -p vrr-bench --bin thm2_waitfree`.

use vrr_bench::Table;
use vrr_core::attackers::AttackerKind;
use vrr_core::{ProtocolKind, ProtocolSpec, StorageConfig, StorageScenario};
use vrr_sim::SimTime;
use vrr_workload::{generate, grid, FaultPlan, LatencyKind, ScheduleParams, SimCase};

/// Scenario 2: the writer crashes while its WRITE is in flight; a reader
/// must still complete (and return either the old or the new value — the
/// crashed write is concurrent, so both are allowed).
fn writer_crash_scenario(t: usize, b: usize, seed: u64, crash_after_steps: u64) -> (bool, u32) {
    let cfg = StorageConfig::optimal(t, b, 1);
    let mut sc = StorageScenario::deploy(ProtocolSpec::figures(ProtocolKind::Safe), cfg, seed);

    // A completed write so the register holds 10.
    sc.write(10u64);

    // Start a second write and kill the writer mid-flight.
    sc.start_write(20u64);
    for _ in 0..crash_after_steps {
        sc.world_mut().step();
    }
    let writer = sc.writer();
    sc.world_mut().crash(writer);

    // The reader must complete regardless: once nothing is left in
    // flight, a read still pending would never return.
    let mut op = sc.start_read(0);
    sc.world_mut().run_until_idle(200_000);
    let Some(rep) = sc.poll_read(&mut op) else {
        return (false, 0);
    };
    let value_ok = rep.value == Some(10) || rep.value == Some(20);
    (value_ok, rep.rounds)
}

fn main() {
    // ---- Family 1: liveness across the standard sweep.
    let points = grid(&[1, 2, 3], &[1, 2, 3], 0..25u64);
    let mut total_ops = 0usize;
    let mut stalled = 0usize;
    for p in &points {
        let cfg = StorageConfig::optimal(p.t, p.b, 2);
        let schedule = generate(ScheduleParams::contended(5, 6, 2, p.seed));
        let faults = p.fault_plan(&cfg, Some(200), SimTime::from_ticks(40));
        total_ops += schedule.len();
        let out = SimCase::new(&ProtocolSpec::figures(ProtocolKind::Safe), cfg)
            .with_schedule(schedule)
            .seed(p.seed)
            .faults(faults)
            .latency(LatencyKind::LongTail)
            .run();
        stalled += out.stalled_ops;
    }
    let mut fam1 = Table::new(&["sweep points", "ops invoked", "ops stalled"]);
    fam1.row_owned(vec![
        points.len().to_string(),
        total_ops.to_string(),
        stalled.to_string(),
    ]);
    fam1.print("Wait-freedom, family 1: adversarial sweep");
    assert_eq!(stalled, 0, "no operation may stall");

    // ---- Family 2: writer crash mid-write.
    let mut fam2 = Table::new(&["t", "b", "crash point (steps)", "reads completed", "rounds"]);
    for (t, b) in [(1, 1), (2, 1), (2, 2), (3, 2)] {
        for crash_after in [0, 1, 3, 7, 15] {
            let (ok, rounds) = writer_crash_scenario(t, b, 17 + crash_after, crash_after);
            fam2.row_owned(vec![
                t.to_string(),
                b.to_string(),
                crash_after.to_string(),
                if ok { "yes".into() } else { "NO".into() },
                rounds.to_string(),
            ]);
            assert!(
                ok,
                "reader stalled or returned garbage after writer crash (t={t} b={b})"
            );
            assert_eq!(rounds, 2);
        }
    }
    fam2.print("Wait-freedom, family 2: writer crashes mid-WRITE, reads still finish");

    // ---- Family 3: maximum damage during operations.
    let mut fam3 = Table::new(&["t", "b", "attacker", "runs", "stalled"]);
    for (t, b) in [(2, 1), (3, 2), (3, 3)] {
        for kind in AttackerKind::ALL {
            let mut stalled = 0usize;
            let runs = 15u64;
            for seed in 0..runs {
                let cfg = StorageConfig::optimal(t, b, 2);
                // Crashes land mid-run, right in the thick of traffic.
                let mut faults = FaultPlan::maximal(&cfg, kind, SimTime::from_ticks(25));
                for (i, (_, at)) in faults.crashes.iter_mut().enumerate() {
                    *at = SimTime::from_ticks(10 + 7 * i as u64);
                }
                let out = SimCase::new(&ProtocolSpec::figures(ProtocolKind::Safe), cfg)
                    .schedule(ScheduleParams::contended(8, 8, 2, seed))
                    .faults(faults)
                    .latency(LatencyKind::Uniform(1, 20))
                    .run();
                stalled += out.stalled_ops;
            }
            fam3.row_owned(vec![
                t.to_string(),
                b.to_string(),
                format!("{kind:?}"),
                runs.to_string(),
                stalled.to_string(),
            ]);
            assert_eq!(stalled, 0, "t={t} b={b} {kind:?}");
        }
    }
    fam3.print("Wait-freedom, family 3: crashes landing mid-operation");
    println!("\nPaper check: Theorem 2 holds — every operation completed. ✔");
}
