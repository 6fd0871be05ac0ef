//! The scenario runner: executes a [`Schedule`] against any register
//! protocol under a [`FaultPlan`], producing a checkable operation history,
//! round-count statistics and a metrics snapshot.
//!
//! The entry point is [`SimCase`] — a builder that owns the recurring
//! test shape (sizing + schedule + faults + latency + optional scripted
//! partitions). It runs on a [`StorageScenario`]: deployment, faults,
//! operation start/poll and the metrics snapshot are the scenario's; what
//! lives here is the schedule, the per-client due/active bookkeeping, the
//! [`OpHistory`] and stall accounting.

use vrr_checker::OpHistory;
use vrr_core::metrics::Registry;
use vrr_core::{ReadOp, RegisterProtocol, StorageConfig, StorageScenario, WriteOp};
use vrr_sim::{Fixed, LongTail, NetStats, SimMessage, SimTime, Uniform, World};

use crate::faults::FaultPlan;
use crate::schedule::{generate, ClientPlan, PlannedOp, Schedule, ScheduleParams};

/// Which latency model a run uses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LatencyKind {
    /// Every message takes one tick (synchronous-looking).
    Unit,
    /// Uniform random delay in `[min, max]`.
    Uniform(u64, u64),
    /// Mostly-fast with a heavy tail (asynchrony stress).
    LongTail,
}

impl LatencyKind {
    fn install<M: SimMessage>(self, world: &mut World<M>) {
        match self {
            LatencyKind::Unit => world.set_latency(Fixed::UNIT),
            LatencyKind::Uniform(min, max) => world.set_latency(Uniform::new(min, max)),
            LatencyKind::LongTail => world.set_latency(LongTail::new(1, 0.2, 50)),
        }
    }
}

/// Everything a run produced.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The operation history (checker input). Stalled operations appear
    /// with `completed_at = None`.
    pub history: OpHistory<u64>,
    /// Rounds used by each completed write, in completion order.
    pub write_rounds: Vec<u32>,
    /// Rounds used by each completed read, in completion order.
    pub read_rounds: Vec<u32>,
    /// Operations that never completed (wait-freedom violations when the
    /// fault plan is within budget).
    pub stalled_ops: usize,
    /// Network counters.
    pub net: NetStats,
    /// The run's metrics snapshot under the canonical `vrr_*` names:
    /// rounds/latency histograms, network and fault-script counters,
    /// fast-path counters and history-length gauges
    /// (see [`vrr_core::metrics::names`]).
    pub metrics: Registry,
}

impl RunOutcome {
    /// Largest read round count (0 if no reads completed).
    pub fn max_read_rounds(&self) -> u32 {
        self.read_rounds.iter().copied().max().unwrap_or(0)
    }

    /// Largest write round count (0 if no writes completed).
    pub fn max_write_rounds(&self) -> u32 {
        self.write_rounds.iter().copied().max().unwrap_or(0)
    }

    /// Whether every invoked operation completed.
    pub fn all_live(&self) -> bool {
        self.stalled_ops == 0
    }
}

/// The value attackers forge: recognizably absent from any schedule
/// ([`Schedule::value_of_write`] yields small values).
const FORGED_VALUE: u64 = 0xDEAD;

/// Hard cap on simulator events per run (far above anything these
/// protocols generate; a breach indicates runaway traffic).
const RUN_STEP_LIMIT: u64 = 5_000_000;

/// A scripted network event for a [`SimCase`], in object-index terms.
#[derive(Clone, Debug)]
enum CaseEvent {
    /// Partition these objects away from everything else.
    Partition(Vec<usize>),
    /// Heal the partition in force.
    Heal,
}

/// One simulated experiment: protocol + sizing + schedule + faults +
/// latency + optional scripted partitions, in a single declarative value.
///
/// This is the deduplicated form of the cfg/schedule/faults/run block that
/// used to be copy-pasted across the integration tests:
///
/// ```
/// use vrr_core::{ProtocolKind, StorageConfig};
/// use vrr_workload::{ScheduleParams, SimCase};
///
/// let out = SimCase::new(&ProtocolKind::Safe, StorageConfig::optimal(1, 1, 1))
///     .schedule(ScheduleParams::sequential(3, 3, 1, 42))
///     .run();
/// assert!(out.all_live());
/// assert!(vrr_checker::check_safety(&out.history).is_ok());
/// ```
///
/// Defaults: empty fault plan, unit latency, seed = the schedule's seed.
/// Attackers are built from the protocol's own catalogue
/// ([`RegisterProtocol::corruptor`]).
pub struct SimCase<'a, P: RegisterProtocol<u64>> {
    protocol: &'a P,
    cfg: StorageConfig,
    schedule: Schedule,
    faults: FaultPlan,
    latency: LatencyKind,
    seed: u64,
    events: Vec<(SimTime, CaseEvent)>,
}

impl<P: RegisterProtocol<u64>> std::fmt::Debug for SimCase<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCase")
            .field("protocol", &self.protocol.name())
            .field("cfg", &self.cfg)
            .field("faults", &self.faults)
            .field("latency", &self.latency)
            .field("seed", &self.seed)
            .field("events", &self.events)
            .finish()
    }
}

impl<'a, P: RegisterProtocol<u64> + Clone> SimCase<'a, P> {
    /// A case with an empty schedule, no faults, unit latency, seed 0.
    pub fn new(protocol: &'a P, cfg: StorageConfig) -> Self {
        SimCase {
            protocol,
            cfg,
            schedule: generate(ScheduleParams {
                writes: 0,
                reads_per_reader: 0,
                readers: cfg.readers,
                mean_gap: 1,
                seed: 0,
            }),
            faults: FaultPlan::none(),
            latency: LatencyKind::Unit,
            seed: 0,
            events: Vec::new(),
        }
    }

    /// Generates the operation schedule from `params` and adopts
    /// `params.seed` as the run seed (override with [`SimCase::seed`]).
    #[must_use]
    pub fn schedule(mut self, params: ScheduleParams) -> Self {
        self.seed = params.seed;
        self.schedule = generate(params);
        self
    }

    /// Uses an already-generated schedule.
    #[must_use]
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// The fault plan (default: none).
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The latency model (default: unit).
    #[must_use]
    pub fn latency(mut self, latency: LatencyKind) -> Self {
        self.latency = latency;
        self
    }

    /// The world seed (default: the schedule's seed).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Scripts a partition of the given base objects (away from everything
    /// else) at time `at`.
    #[must_use]
    pub fn partition_objects_at(mut self, at: SimTime, idxs: Vec<usize>) -> Self {
        self.events.push((at, CaseEvent::Partition(idxs)));
        self
    }

    /// Scripts a heal of the partition in force at time `at`.
    #[must_use]
    pub fn heal_at(mut self, at: SimTime) -> Self {
        self.events.push((at, CaseEvent::Heal));
        self
    }

    /// Executes the case.
    ///
    /// # Panics
    ///
    /// Panics if the fault plan exceeds the `(t, b)` budget, the schedule's
    /// reader count mismatches the sizing, an attacker is requested from a
    /// protocol without a catalogue, or the run exceeds the internal step
    /// limit.
    pub fn run(self) -> RunOutcome {
        let SimCase {
            protocol,
            cfg,
            schedule,
            faults,
            latency,
            seed,
            events,
        } = self;

        assert!(
            faults.fits(&cfg),
            "fault plan exceeds the (t, b) budget: {faults:?}"
        );
        assert_eq!(
            schedule.readers.len(),
            cfg.readers,
            "schedule/readers mismatch"
        );

        let mut sc = StorageScenario::deploy(protocol.clone(), cfg, seed);
        latency.install(sc.world_mut());
        for &(idx, kind) in &faults.byzantine {
            sc.attack_object(idx, kind, FORGED_VALUE);
        }
        for &(idx, at) in &faults.crashes {
            sc.crash_object_at(idx, at);
        }
        for (at, event) in events {
            match event {
                CaseEvent::Partition(idxs) => {
                    sc.partition_objects_at(at, &idxs);
                }
                CaseEvent::Heal => sc.world_mut().heal_at(at),
            }
        }

        let mut history: OpHistory<u64> = OpHistory::new();
        let mut write_rounds = Vec::new();
        let mut read_rounds = Vec::new();

        // Client index 0 = writer, 1.. = readers.
        let plans: Vec<&ClientPlan> = std::iter::once(&schedule.writer)
            .chain(&schedule.readers)
            .collect();
        let mut clients: Vec<ClientState> = plans
            .iter()
            .map(|_| ClientState {
                next: 0,
                active: None,
            })
            .collect();
        let mut write_seq = 0u64;
        let mut steps_used = 0u64;

        loop {
            // Poll completions first (a step may have completed several ops).
            let now = sc.world().now();
            for client in clients.iter_mut() {
                let done = match &mut client.active {
                    None => continue,
                    Some(ActiveOp::Write { op, seq }) => sc.poll_write(op).map(|rep| {
                        write_rounds.push(rep.rounds);
                        history.push_write(
                            *seq,
                            Schedule::value_of_write(*seq),
                            op.invoked_at().ticks(),
                            Some(now.ticks()),
                        );
                    }),
                    Some(ActiveOp::Read(op)) => sc.poll_read(op).map(|rep| {
                        read_rounds.push(rep.rounds);
                        history.push_read(
                            op.reader(),
                            rep.ts.0,
                            rep.value,
                            op.invoked_at().ticks(),
                            Some(now.ticks()),
                        );
                    }),
                };
                if done.is_some() {
                    client.active = None;
                }
            }

            // Invoke due operations on idle clients.
            for (client, plan) in clients.iter_mut().zip(&plans) {
                if client.active.is_some() {
                    continue;
                }
                let Some(&(due, op)) = plan.ops.get(client.next) else {
                    continue;
                };
                if due > now {
                    continue;
                }
                client.next += 1;
                client.active = Some(match op {
                    PlannedOp::Write { value } => {
                        write_seq += 1;
                        debug_assert_eq!(value, Schedule::value_of_write(write_seq));
                        ActiveOp::Write {
                            op: sc.start_write(value),
                            seq: write_seq,
                        }
                    }
                    PlannedOp::Read { reader } => ActiveOp::Read(sc.start_read(reader)),
                });
            }

            let any_active = clients.iter().any(|c| c.active.is_some());
            let next_due: Option<SimTime> = clients
                .iter()
                .zip(&plans)
                .filter(|(c, _)| c.active.is_none())
                .filter_map(|(c, plan)| plan.ops.get(c.next).map(|&(due, _)| due))
                .min();

            if any_active {
                // Drive one event; if the network is drained while ops are
                // still active, they are stalled (liveness violation) — unless
                // a future planned op could unblock... it cannot: clients are
                // independent. Record and stop.
                if !sc.world_mut().step() {
                    break;
                }
                steps_used += 1;
                assert!(
                    steps_used < RUN_STEP_LIMIT,
                    "runaway run: step limit exceeded"
                );
            } else if let Some(due) = next_due {
                sc.world_mut().run_until_time(due); // `due > now`: the loop above invoked the rest
            } else {
                break; // no active ops, nothing left to invoke
            }
        }

        // Anything still active is stalled; record as incomplete.
        let mut stalled_ops = 0;
        for client in clients {
            match client.active {
                None => continue,
                Some(ActiveOp::Write { op, seq }) => history.push_write(
                    seq,
                    Schedule::value_of_write(seq),
                    op.invoked_at().ticks(),
                    None,
                ),
                Some(ActiveOp::Read(op)) => {
                    history.push_read(op.reader(), 0, None, op.invoked_at().ticks(), None)
                }
            }
            stalled_ops += 1;
        }

        RunOutcome {
            history,
            write_rounds,
            read_rounds,
            stalled_ops,
            net: sc.world().net_stats(),
            metrics: sc.metrics_snapshot(),
        }
    }
}

#[derive(Debug)]
struct ClientState {
    next: usize,
    active: Option<ActiveOp>,
}

#[derive(Debug)]
enum ActiveOp {
    /// A WRITE and its sequence number.
    Write {
        op: WriteOp,
        seq: u64,
    },
    Read(ReadOp),
}

#[cfg(test)]
mod tests {
    use vrr_checker::{check_atomicity, check_regularity, check_safety};
    use vrr_core::attackers::AttackerKind;
    use vrr_core::metrics::names;
    use vrr_core::regular::HistoryRetention;
    use vrr_core::{Msg, ProtocolKind, ProtocolSpec, ReaderTuning};
    use vrr_sim::Action;

    use super::*;

    #[test]
    fn sequential_run_is_safe_and_live() {
        let cfg = StorageConfig::optimal(1, 1, 2);
        let out = SimCase::new(&ProtocolKind::Safe, cfg)
            .schedule(ScheduleParams::sequential(5, 5, 2, 3))
            .run();
        assert!(out.all_live());
        assert_eq!(out.write_rounds.len(), 5);
        assert_eq!(out.read_rounds.len(), 10);
        assert_eq!(out.max_read_rounds(), 1, "round 1 proves every quiet read");
        assert!(check_safety(&out.history).is_ok(), "{:?}", out.history);
    }

    #[test]
    fn contended_run_with_max_faults_is_regular() {
        let cfg = StorageConfig::optimal(2, 1, 2);
        let faults = FaultPlan::maximal(&cfg, AttackerKind::Inflator, SimTime::from_ticks(40));
        let out = SimCase::new(&ProtocolKind::Regular, cfg)
            .schedule(ScheduleParams::contended(8, 8, 2, 11))
            .faults(faults)
            .latency(LatencyKind::Uniform(1, 10))
            .run();
        assert!(out.all_live(), "stalled: {}", out.stalled_ops);
        assert!(check_regularity(&out.history).is_ok());
        assert_eq!(out.max_read_rounds(), 2);
        assert_eq!(out.max_write_rounds(), 2);
    }

    #[test]
    fn random_fault_sweep_stays_consistent() {
        for seed in 0..10 {
            let cfg = StorageConfig::optimal(2, 2, 1);
            let out = SimCase::new(&ProtocolKind::Safe, cfg)
                .schedule(ScheduleParams::contended(4, 6, 1, seed))
                .faults(FaultPlan::random(&cfg, 200, seed))
                .latency(LatencyKind::LongTail)
                .run();
            assert!(out.all_live(), "seed {seed} stalled {}", out.stalled_ops);
            assert!(
                check_safety(&out.history).is_ok(),
                "seed {seed}: {:?}",
                check_safety(&out.history)
            );
        }
    }

    /// The atomic kind in front of the checkers: every combination of spec
    /// fields an atomic group can be deployed with — {full, §5.1} ×
    /// {keep-all, reader-ack} — is live, regular **and** atomic on every
    /// row. Each row is a schedule family that the wrapper automaton the
    /// write-back phase replaced got wrong.
    #[test]
    fn atomic_sweep_stays_live_regular_and_atomic() {
        let rows = [
            // A later WRITE overtakes the write-back at some object on
            // every one of these seeds: acknowledged only while
            // `ts ≥ ts_i`, the READ never returned.
            (
                StorageConfig::optimal(1, 1, 2),
                false,
                vec![0, 1, 2, 3, 4, 5, 6, 7],
            ),
            // Byzantine plans. There was no attacker catalogue (a panic);
            // and a tuple reconstructed without its matrix displaced the
            // genuine `w`, so honest objects split `invalid(c)`: of seeds
            // 0..300, 6 and 7 (Inflator), 57 and 79 (Equivocator) were the
            // first to lose atomicity, 63, 95, 120 (Inflator) and 79
            // (Equivocator) lost *regularity*.
            (
                StorageConfig::optimal(2, 1, 3),
                true,
                vec![0, 6, 7, 57, 63, 79, 95, 120],
            ),
        ];
        for (cfg, byzantine, seeds) in rows {
            for (optimized, gc) in [(false, false), (false, true), (true, false), (true, true)] {
                let retention = if gc {
                    HistoryRetention::reader_ack()
                } else {
                    HistoryRetention::KeepAll
                };
                let spec = ProtocolSpec::Regular {
                    optimized,
                    write_back: true,
                    retention,
                    tuning: ReaderTuning::default(),
                };
                for &seed in &seeds {
                    let mut plans = vec![FaultPlan::none()];
                    if byzantine {
                        let crash_at = SimTime::from_ticks(40);
                        plans = vec![FaultPlan::random(&cfg, 300, seed)];
                        plans.extend(
                            AttackerKind::ALL.map(|kind| FaultPlan::maximal(&cfg, kind, crash_at)),
                        );
                    }
                    for plan in plans {
                        let at = format!("seed {seed} opt={optimized} gc={gc} {plan:?}");
                        let out = SimCase::new(&spec, cfg)
                            .schedule(ScheduleParams::contended(8, 8, cfg.readers, seed))
                            .faults(plan)
                            .latency(LatencyKind::LongTail)
                            .run();
                        assert!(out.all_live(), "{at}: {} stalled", out.stalled_ops);
                        let regular = check_regularity(&out.history);
                        assert!(regular.is_ok(), "{at}: {regular:?}");
                        let atomic = check_atomicity(&out.history);
                        assert!(atomic.is_ok(), "{at}: {atomic:?}");
                        assert!(
                            out.read_rounds.iter().all(|&r| (1..=3).contains(&r)),
                            "{at}"
                        );
                    }
                }
            }
        }
    }

    /// The first row above, by hand: reader 0's write-back of write 1 is
    /// held while write 2 completes everywhere, so every object it then
    /// reaches is past it.
    #[test]
    fn an_overtaken_write_back_still_completes_the_read() {
        let cfg = StorageConfig::optimal(1, 1, 2);
        let mut sc = StorageScenario::deploy(ProtocolKind::Atomic, cfg, 7);
        sc.write(Schedule::value_of_write(1));
        let r0 = sc.reader(0);
        let rule = sc.world_mut().adversary_mut().install("hold WB", move |e| {
            (e.from == r0 && matches!(e.msg, Msg::WriteBack { .. })).then_some(Action::Hold)
        });
        let mut read = sc.start_read(0);
        sc.world_mut().run_until_idle(100_000);
        assert!(sc.poll_read(&mut read).is_none(), "the write-back is held");
        sc.write(Schedule::value_of_write(2));
        sc.world_mut().adversary_mut().remove(rule);
        sc.world_mut().release_all();
        sc.world_mut().run_until_idle(100_000);
        let report = sc.poll_read(&mut read).expect("always acknowledged");
        assert_eq!(report.value, Some(Schedule::value_of_write(1)));
        assert_eq!(report.rounds, 2, "READ1 and the write-back");
    }

    #[test]
    fn outcome_metrics_agree_with_round_vectors() {
        let cfg = StorageConfig::fast(1, 1, 2);
        let out = SimCase::new(&ProtocolKind::RegularOptimized, cfg)
            .schedule(ScheduleParams::sequential(4, 4, 2, 9))
            .run();
        assert!(out.all_live());
        let h = out.metrics.histogram(names::READER_ROUNDS, &[]).unwrap();
        assert_eq!(h.count(), out.read_rounds.len() as u64);
        let hits = out.metrics.counter(names::READER_FAST_HITS, &[]);
        let fallbacks = out.metrics.counter(names::READER_FAST_FALLBACKS, &[]);
        assert_eq!(
            hits + fallbacks,
            out.read_rounds.len() as u64,
            "every read at fast sizing is fast-path eligible"
        );
        assert_eq!(
            hits,
            out.read_rounds.iter().filter(|&&r| r == 1).count() as u64
        );
        assert_eq!(out.metrics.counter(names::NET_SENT, &[]), out.net.sent);
        assert_eq!(
            out.metrics.gauge_values(names::OBJECT_HISTORY_LEN).len(),
            cfg.s
        );
    }

    #[test]
    fn scripted_partition_stalls_and_heal_rescues() {
        // Partition 2 of S = 5 objects mid-run: reads need S - t = 4
        // replies, so progress stops until the heal.
        let cfg = StorageConfig::fast(1, 1, 1);
        let out = SimCase::new(&ProtocolKind::RegularOptimized, cfg)
            .schedule(ScheduleParams::sequential(3, 3, 1, 4))
            .partition_objects_at(SimTime::from_ticks(5), vec![0, 1])
            .heal_at(SimTime::from_ticks(400))
            .run();
        assert!(out.all_live(), "heal must rescue every operation");
        assert!(check_regularity(&out.history).is_ok());
        assert_eq!(out.metrics.counter(names::SCENARIO_PARTITIONS, &[]), 1);
        assert_eq!(out.metrics.counter(names::SCENARIO_HEALS, &[]), 1);
        // Something actually waited: the run outlived the heal time.
        assert!(out.metrics.gauge(names::SCENARIO_TIME, &[]).unwrap() >= 400);
    }

    /// The two remaining entry points are one driver: a `SimCase` whose
    /// operations never overlap and a `StorageScenario` driven by hand
    /// through the same op order observe the same run.
    #[test]
    fn sim_case_and_a_hand_driven_scenario_observe_the_same_run() {
        let cfg = StorageConfig::optimal(2, 1, 2); // S = 6
        let protocol = ProtocolKind::RegularOptimized;
        let faults = FaultPlan::maximal(&cfg, AttackerKind::Inflator, SimTime::from_ticks(450));
        // With object 0 Byzantine and object 1 crashed, cutting object 3 off
        // stalls the write invoked at tick 1300 until the heal.
        let (cut, healed) = (SimTime::from_ticks(1_290), SimTime::from_ticks(1_340));

        // Writer and readers take turns, 100 ticks apart.
        let mut schedule = generate(ScheduleParams::sequential(0, 0, cfg.readers, 0));
        for i in 0..8u64 {
            let value = Schedule::value_of_write(i + 1);
            let reader = (i % 2) as usize;
            let at = SimTime::from_ticks(200 * i + 100);
            schedule.writer.ops.push((at, PlannedOp::Write { value }));
            schedule.readers[reader]
                .ops
                .push((at + 100, PlannedOp::Read { reader }));
        }

        let out = SimCase::new(&protocol, cfg)
            .with_schedule(schedule.clone())
            .seed(21)
            .faults(faults.clone())
            .latency(LatencyKind::Uniform(1, 10))
            .partition_objects_at(cut, vec![3])
            .heal_at(healed)
            .run();
        assert!(out.all_live());

        let mut sc = StorageScenario::deploy(protocol, cfg, 21);
        sc.world_mut().set_latency(Uniform::new(1, 10));
        for &(idx, kind) in &faults.byzantine {
            sc.attack_object(idx, kind, FORGED_VALUE);
        }
        for &(idx, at) in &faults.crashes {
            sc.crash_object_at(idx, at);
        }
        sc.partition_objects_at(cut, &[3]);
        sc.world_mut().heal_at(healed);
        let mut ops: Vec<(SimTime, PlannedOp)> = schedule.writer.ops.clone();
        ops.extend(schedule.readers.iter().flat_map(|r| r.ops.iter().copied()));
        ops.sort_by_key(|&(at, _)| at);
        for (at, op) in ops {
            sc.world_mut().run_until_time(at);
            match op {
                PlannedOp::Write { value } => drop(sc.write(value)),
                PlannedOp::Read { reader } => drop(sc.read(reader)),
            }
        }

        assert_eq!(
            out.metrics.to_prometheus(),
            sc.metrics_snapshot().to_prometheus()
        );
        assert_eq!(out.net, sc.world().net_stats());
    }
}
