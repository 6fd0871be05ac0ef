//! The workspace soak: the combined-fault scenario on *both* harnesses.
//!
//! [`vrr_workload::soak::run_sim_soak`] (re-exported here) drives the
//! deterministic simulator through partitions, heals, reordering, a crashed
//! reader and a Byzantine suffix liar at once. [`run_runtime_soak`] is the
//! thread-runtime half: the same protocol configuration — §5.1-optimized
//! regular protocol, reader-ack–capped GC, fast sizing `S = 2t + 2b + 1`,
//! one Truncator occupying the full `b = 1` budget — under a jittering link
//! policy that delays a deterministic quarter of all messages, so real
//! thread interleavings and reordered deliveries hit the same code paths
//! the simulator scripts.
//!
//! Both halves self-check with the same oracles: the recorded operation
//! history must be regular ([`vrr_checker::check_regularity`]), every
//! honest object's history must sit at or below the GC cap, and one
//! [`vrr_core::metrics::Registry`] snapshot per harness must satisfy the
//! cross-metric relations of
//! [`vrr_workload::soak::check_metrics_relations`]. CI runs
//! `examples/soak.rs`, which executes both halves in release mode and
//! fails on any violation.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

use vrr_checker::Recorder;
use vrr_core::attackers::AttackerKind;
use vrr_core::metrics::names;
use vrr_core::regular::HistoryRetention;
use vrr_core::{Msg, StorageConfig};
use vrr_runtime::{LinkAction, LinkPolicy, ProtocolKind, ProtocolSpec, StorageCluster};
use vrr_sim::ProcessId;
use vrr_workload::soak::FORGED;
pub use vrr_workload::soak::{
    check_metrics_relations, run_sim_soak, MetricsExpectations, SoakParams, SoakReport,
};

/// Deterministic link jitter: delays every fourth message (by LCG coin) by
/// 200µs, enough to reorder deliveries across the runtime's worker threads
/// without tripping operation timeouts. The coin is an atomic: every thread
/// that runs a register group flips it.
struct SoakJitter {
    state: AtomicU64,
}

impl LinkPolicy<Msg<u64>> for SoakJitter {
    fn action(&self, _from: ProcessId, _to: ProcessId, _msg: &Msg<u64>) -> LinkAction {
        let step = |s: u64| {
            s.wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407)
        };
        // `fetch_update` hands back the state it replaced, `Ok` or not.
        let flipped = self.state.fetch_update(Relaxed, Relaxed, |s| Some(step(s)));
        if (step(flipped.unwrap_or_else(|s| s)) >> 33).is_multiple_of(4) {
            LinkAction::DeliverAfter(Duration::from_micros(200))
        } else {
            LinkAction::Deliver
        }
    }
}

/// Runs the combined-fault soak on the thread runtime and checks every
/// invariant, returning the full report (like
/// [`run_sim_soak`], it never panics on a violation — callers decide
/// whether to assert on [`SoakReport::is_clean`]).
///
/// Operations are sequential and blocking, so regularity degenerates to
/// "every read returns the last completed write"; invocation/completion
/// times in the recorded history are the recorder's logical ticks.
pub fn run_runtime_soak(params: SoakParams) -> SoakReport {
    // Fast sizing S = 5: the fast path is armed, so hits + fallbacks must
    // account for every read. The Truncator at the last index occupies the
    // whole fault budget (t = b = 1), so no additional crash is injected.
    let cfg = StorageConfig::fast(1, 1, 2);
    let retention = HistoryRetention::reader_ack_capped(cfg.readers, params.cap);
    let storage: StorageCluster<u64> = StorageCluster::deploy_with_objects(
        cfg,
        ProtocolSpec::from(ProtocolKind::RegularOptimized).with_retention(retention),
        Box::new(SoakJitter {
            state: AtomicU64::new(params.seed),
        }),
        |i| (i == cfg.s - 1).then(|| AttackerKind::Truncator.build_regular(cfg, FORGED)),
    );

    let rec = Recorder::new(1);
    let mut violations = Vec::new();
    for i in 0..params.iters {
        let seq = i + 1;
        let value = seq * 10;
        rec.write(0, seq, value, || storage.write(value));

        let j = (i % cfg.readers as u64) as usize;
        rec.read(0, j, || {
            let rep = storage.read(j);
            if rep.value != Some(value) {
                violations.push(format!(
                    "runtime read {i} at reader {j} returned {:?}, expected Some({value})",
                    rep.value
                ));
            }
            (rep.ts.0, rep.value)
        });
    }

    // The runtime snapshot carries op/executor/fast-path/history metrics
    // (the history gauges skip the Byzantine index, so every reported
    // length is an honest object bound by the GC cap); the fault script is
    // the driver's knowledge, so the driver folds its own script counters
    // in — exactly what the sim scenario does.
    let mut metrics = storage.metrics_snapshot();
    metrics.counter_add(names::SCENARIO_BYZANTINE, &[], 1);
    SoakReport::close(
        params,
        rec.histories().remove(0),
        metrics,
        violations,
        MetricsExpectations {
            writes: params.iters,
            reads: params.iters,
            partitions: 0,
            heals: 0,
            crashes: 0,
            byzantine: 1,
            history_cap: Some(params.cap as u64),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_quick_soak_is_clean() {
        let report = run_runtime_soak(SoakParams::quick(2006));
        assert!(
            report.is_clean(),
            "runtime soak violations: {:#?}",
            report.violations
        );
        assert!(report.max_history_len > 0, "histories never observed");
        let prom = report.metrics.to_prometheus();
        assert!(prom.contains("vrr_reader_fast_hits_total"));
        assert!(prom.contains("vrr_executor_commands_total"));
    }
}
