//! Combined-fault soak: every fault class the repo models, concurrently.
//!
//! The soak drives one deployment of the §5.1-optimized regular protocol
//! with reader-ack–capped garbage collection through a long, seeded run
//! that layers **all** the adversities at once:
//!
//! * a Byzantine *suffix liar* ([`AttackerKind::Truncator`]) occupying the
//!   full `b = 1` budget,
//! * repeated network **partitions** (rotating which honest object is
//!   isolated) followed by heals,
//! * probabilistic **reordering** on the writer's and a reader's hot links,
//! * a **crashed reader** partway through — the case the GC length cap
//!   exists for (a never-acking reader must not pin histories forever).
//!
//! and then asserts, from one [`Registry`] snapshot plus the recorded
//! operation history, that
//!
//! 1. the run is **regular** ([`vrr_checker::check_regularity`]) and every
//!    read returned the last completed write (the runs are sequential, so
//!    regularity degenerates to exactly that),
//! 2. object histories stayed **flat** — every honest object's history is
//!    at or below the retention cap despite the crashed reader,
//! 3. the **metrics relations** hold: round histograms count every
//!    operation, fast-path hits + fallbacks account for every read (the
//!    sizing is `S = 2t + 2b + 1`, so the fast path is always armed), and
//!    the fault-script counters match what the soak injected.
//!
//! The same snapshot shape comes out of `vrr-runtime`'s
//! `metrics_snapshot()`, so CI can watch both halves through one encoder.

use vrr_checker::{check_regularity, OpHistory};
use vrr_core::attackers::AttackerKind;
use vrr_core::metrics::{names, Registry};
use vrr_core::regular::HistoryRetention;
use vrr_core::{ProtocolKind, ProtocolSpec, StorageConfig, StorageScenario};

/// Value forged by the soak's Byzantine object, on both harnesses. Never
/// written, so any read returning it is a regularity violation the checker
/// will flag.
pub const FORGED: u64 = 0xBAD_F00D;

/// Knobs of the combined-fault soak. All behaviour is a pure function of
/// these parameters — same params, same seed, same run.
#[derive(Clone, Copy, Debug)]
pub struct SoakParams {
    /// Simulator seed; every probabilistic choice derives from it.
    pub seed: u64,
    /// Number of write+read iterations to drive.
    pub iters: u64,
    /// Hard history-length cap handed to
    /// [`HistoryRetention::reader_ack_capped`] and asserted on at the end.
    pub cap: usize,
}

impl SoakParams {
    /// A sub-second configuration for unit tests and `cargo test`.
    pub fn quick(seed: u64) -> Self {
        SoakParams {
            seed,
            iters: 60,
            cap: 8,
        }
    }

    /// The CI soak configuration: long enough to cycle through many
    /// partition/heal rounds and GC epochs, still well under the CI
    /// job's wall-clock bound in release mode.
    pub fn full(seed: u64) -> Self {
        SoakParams {
            seed,
            iters: 400,
            cap: 8,
        }
    }
}

/// Everything the soak observed, for reporting and assertion.
#[derive(Debug)]
pub struct SoakReport {
    /// The parameters the soak ran with.
    pub params: SoakParams,
    /// The recorded operation history (validated for regularity).
    pub history: OpHistory<u64>,
    /// The final unified metrics snapshot.
    pub metrics: Registry,
    /// Largest history length seen on any honest object at the end.
    pub max_history_len: usize,
    /// Human-readable descriptions of every violated invariant. Empty
    /// means the soak passed.
    pub violations: Vec<String>,
}

impl SoakReport {
    /// Closes a soak half, whichever harness drove it: checks the recorded
    /// `history` for regularity and the final `metrics` snapshot against
    /// what the driver knows it did (`expect`, whose `history_cap` is the
    /// "histories stayed flat" check), appending to the `violations` the
    /// driver found on the way.
    pub fn close(
        params: SoakParams,
        history: OpHistory<u64>,
        metrics: Registry,
        mut violations: Vec<String>,
        expect: MetricsExpectations,
    ) -> Self {
        if let Err(e) = check_regularity(&history) {
            violations.push(format!("regularity violated: {e:?}"));
        }
        check_metrics_relations(&metrics, &mut violations, expect);
        let max_history_len = metrics
            .gauge_values(names::OBJECT_HISTORY_LEN)
            .into_iter()
            .max()
            .unwrap_or(0) as usize;
        SoakReport {
            params,
            history,
            metrics,
            max_history_len,
            violations,
        }
    }

    /// `true` when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the combined-fault soak in the deterministic simulator and checks
/// every invariant, returning the full report (it never panics on a
/// violation — callers decide whether to assert on
/// [`SoakReport::is_clean`]).
pub fn run_sim_soak(params: SoakParams) -> SoakReport {
    // S = 2t + 2b + 1 = 5: the fast path is armed, so the hits/fallbacks
    // relation below covers every read. Three readers; one will crash.
    let cfg = StorageConfig::fast(1, 1, 3);
    let retention = HistoryRetention::reader_ack_capped(cfg.readers, params.cap);
    let protocol = ProtocolSpec::from(ProtocolKind::RegularOptimized).with_retention(retention);
    let mut sc = StorageScenario::deploy(protocol, cfg, params.seed);

    // The b = 1 Byzantine budget: object 4 lies by truncating history
    // suffixes and forging FORGED.
    sc.attack_object(4, AttackerKind::Truncator, FORGED);

    // Hot links get probabilistic reordering for the whole run.
    let writer = sc.writer();
    let (obj0, rdr0) = (sc.object(0), sc.reader(0));
    sc.world_mut().reorder(writer, obj0, 0.25);
    sc.world_mut().reorder(obj0, rdr0, 0.25);

    let crash_at_iter = params.iters / 3;
    let mut history = OpHistory::new();
    let mut violations = Vec::new();
    let mut partitioned = false;
    let mut partitions_injected = 0u64;
    let mut heals_injected = 0u64;
    let mut writes = 0u64;
    let mut reads = 0u64;

    for i in 0..params.iters {
        if i == crash_at_iter {
            // A reader crash mid-run: its GC acks freeze, so only the
            // length cap keeps histories flat from here on.
            sc.crash_reader(2);
        }
        match i % 10 {
            // Isolate one honest object (rotating), leaving exactly the
            // quorum S - t = 4 reachable: operations must still complete.
            3 if !partitioned => {
                let isolate = ((i / 10) % 4) as usize;
                sc.partition_objects(&[isolate]);
                partitioned = true;
                partitions_injected += 1;
            }
            7 if partitioned => {
                sc.world_mut().heal_now();
                partitioned = false;
                heals_injected += 1;
            }
            _ => {}
        }

        let seq = i + 1;
        let value = seq * 10;
        let invoked = sc.world().now().ticks();
        sc.write(value);
        writes += 1;
        history.push_write(seq, value, invoked, Some(sc.world().now().ticks()));

        // Round-robin over the still-live readers.
        let j = if i < crash_at_iter {
            (i % 3) as usize
        } else {
            (i % 2) as usize
        };
        let invoked = sc.world().now().ticks();
        let rep = sc.read(j);
        reads += 1;
        let completed = Some(sc.world().now().ticks());
        history.push_read(j, rep.ts.0, rep.value, invoked, completed);
        // Sequential run: a regular read not concurrent with any write
        // must return exactly the last completed write.
        if rep.value != Some(value) {
            violations.push(format!(
                "read {i} at reader {j} returned {:?}, expected Some({value})",
                rep.value
            ));
        }

        // Periodically let in-flight suffixes, acks and reordered
        // stragglers drain.
        if i % 16 == 15 {
            sc.world_mut().fast_forward(64);
        }
    }

    if partitioned {
        sc.world_mut().heal_now();
        heals_injected += 1;
    }
    sc.world_mut().run_until_idle(200_000);

    SoakReport::close(
        params,
        history,
        sc.metrics_snapshot(),
        violations,
        MetricsExpectations {
            writes,
            reads,
            partitions: partitions_injected,
            heals: heals_injected,
            crashes: 1,
            byzantine: 1,
            history_cap: Some(params.cap as u64),
        },
    )
}

/// What the fault script injected, for cross-checking the snapshot.
#[derive(Clone, Copy, Debug)]
pub struct MetricsExpectations {
    /// Completed writes.
    pub writes: u64,
    /// Completed reads.
    pub reads: u64,
    /// Partitions installed by the script.
    pub partitions: u64,
    /// Heals fired by the script.
    pub heals: u64,
    /// Crashes injected by the script.
    pub crashes: u64,
    /// Byzantine substitutions injected by the script.
    pub byzantine: u64,
    /// Upper bound every `vrr_object_history_len` gauge must respect
    /// (`None` skips the check, e.g. for keep-all deployments).
    pub history_cap: Option<u64>,
}

/// Checks the internal-consistency relations of a unified snapshot against
/// what a driver knows it did, pushing one message per violated relation.
/// Shared by the sim soak above and the runtime soak at the workspace
/// root, so both halves are held to the same contract.
pub fn check_metrics_relations(
    snap: &Registry,
    violations: &mut Vec<String>,
    expect: MetricsExpectations,
) {
    let rounds_of = |name: &str| snap.histogram(name, &[]).map_or(0, |h| h.count());
    let reader_rounds = rounds_of(names::READER_ROUNDS);
    let writer_rounds = rounds_of(names::WRITER_ROUNDS);
    let read_latency = rounds_of(names::READ_LATENCY);
    let write_latency = rounds_of(names::WRITE_LATENCY);
    if reader_rounds != expect.reads {
        violations.push(format!(
            "{} counted {reader_rounds} reads, driver completed {}",
            names::READER_ROUNDS,
            expect.reads
        ));
    }
    if writer_rounds != expect.writes {
        violations.push(format!(
            "{} counted {writer_rounds} writes, driver completed {}",
            names::WRITER_ROUNDS,
            expect.writes
        ));
    }
    if read_latency != reader_rounds {
        violations.push(format!(
            "{} and {} disagree: {read_latency} vs {reader_rounds}",
            names::READ_LATENCY,
            names::READER_ROUNDS
        ));
    }
    if write_latency != writer_rounds {
        violations.push(format!(
            "{} and {} disagree: {write_latency} vs {writer_rounds}",
            names::WRITE_LATENCY,
            names::WRITER_ROUNDS
        ));
    }

    // At fast sizing every read either hits the one-round path or is
    // counted as a fallback — no read escapes the two counters.
    let hits = snap.counter(names::READER_FAST_HITS, &[]);
    let fallbacks = snap.counter(names::READER_FAST_FALLBACKS, &[]);
    if hits + fallbacks != expect.reads {
        violations.push(format!(
            "fast-path accounting leak: hits {hits} + fallbacks {fallbacks} != reads {}",
            expect.reads
        ));
    }

    let sent = snap.counter(names::NET_SENT, &[]);
    let delivered = snap.counter(names::NET_DELIVERED, &[]);
    let dropped = snap.counter(names::NET_DROPPED, &[]);
    let dead = snap.counter(names::NET_DEAD_LETTERS, &[]);
    if delivered + dropped + dead > sent {
        violations.push(format!(
            "network conservation violated: delivered {delivered} + dropped {dropped} \
             + dead {dead} > sent {sent}"
        ));
    }

    for (name, got, want) in [
        (names::SCENARIO_PARTITIONS, expect.partitions, "partitions"),
        (names::SCENARIO_HEALS, expect.heals, "heals"),
        (names::SCENARIO_CRASHES, expect.crashes, "crashes"),
        (names::SCENARIO_BYZANTINE, expect.byzantine, "byzantine"),
    ] {
        let counted = snap.counter(name, &[]);
        if counted != got {
            violations.push(format!(
                "{name} counted {counted}, script injected {got} {want}"
            ));
        }
    }

    if let Some(cap) = expect.history_cap {
        for (idx, len) in snap
            .gauge_values(names::OBJECT_HISTORY_LEN)
            .iter()
            .enumerate()
        {
            if *len > cap {
                violations.push(format!(
                    "{} gauge #{idx} is {len}, above cap {cap}",
                    names::OBJECT_HISTORY_LEN
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_soak_is_clean() {
        let report = run_sim_soak(SoakParams::quick(2006));
        assert!(
            report.is_clean(),
            "soak violations: {:#?}",
            report.violations
        );
        assert!(report.max_history_len > 0, "histories never observed");
        // The fault script actually ran all four fault classes.
        let m = &report.metrics;
        assert!(m.counter(names::SCENARIO_PARTITIONS, &[]) >= 2);
        assert!(m.counter(names::SCENARIO_HEALS, &[]) >= 2);
        assert_eq!(m.counter(names::SCENARIO_CRASHES, &[]), 1);
        assert_eq!(m.counter(names::SCENARIO_BYZANTINE, &[]), 1);
    }

    #[test]
    fn soak_is_deterministic() {
        let a = run_sim_soak(SoakParams::quick(7));
        let b = run_sim_soak(SoakParams::quick(7));
        assert_eq!(a.metrics.to_prometheus(), b.metrics.to_prometheus());
        assert_eq!(format!("{:?}", a.history), format!("{:?}", b.history));
    }

    #[test]
    fn relations_checker_flags_a_cooked_snapshot() {
        let mut reg = Registry::new();
        reg.counter_add(names::READER_FAST_HITS, &[], 1);
        let mut violations = Vec::new();
        check_metrics_relations(
            &reg,
            &mut violations,
            MetricsExpectations {
                writes: 1,
                reads: 1,
                partitions: 0,
                heals: 0,
                crashes: 0,
                byzantine: 0,
                history_cap: None,
            },
        );
        assert!(
            violations.iter().any(|v| v.contains("counted 0 reads")),
            "missing rounds histogram must be flagged: {violations:?}"
        );
    }
}
