//! Online invariant monitoring: state-level checks evaluated after every
//! simulator event, complementing the end-of-run history checkers.
//!
//! History checkers judge what clients *returned*; monitors judge what the
//! system's internals *did on the way* — e.g. the monotonicity invariants
//! that Lemma 1's proof leans on ("no correct object can have a reader's
//! timestamp higher than the reader itself"; object write-timestamps never
//! regress). A monitored run fails at the first event that breaks an
//! invariant, with the violation pinpointed in time.

use std::collections::HashMap;

use vrr_core::safe::SafeObject;
use vrr_core::{Msg, Timestamp, Value};
use vrr_sim::{ProcessId, SimMessage, World};

/// One named online invariant.
type Check<M> = Box<dyn FnMut(&World<M>) -> Result<(), String>>;

/// A collection of online invariants driven alongside a run.
pub struct InvariantMonitor<M: SimMessage> {
    checks: Vec<(String, Check<M>)>,
}

impl<M: SimMessage> Default for InvariantMonitor<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: SimMessage> std::fmt::Debug for InvariantMonitor<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.checks.iter().map(|(n, _)| n.as_str()).collect();
        f.debug_struct("InvariantMonitor")
            .field("checks", &names)
            .finish()
    }
}

impl<M: SimMessage> InvariantMonitor<M> {
    /// An empty monitor.
    pub fn new() -> Self {
        InvariantMonitor { checks: Vec::new() }
    }

    /// Installs an invariant. The closure may keep state (e.g. previous
    /// observations) to express temporal properties like monotonicity.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        check: impl FnMut(&World<M>) -> Result<(), String> + 'static,
    ) -> &mut Self {
        self.checks.push((name.into(), Box::new(check)));
        self
    }

    /// Number of installed invariants.
    pub fn len(&self) -> usize {
        self.checks.len()
    }

    /// Whether no invariants are installed.
    pub fn is_empty(&self) -> bool {
        self.checks.is_empty()
    }

    fn evaluate(&mut self, world: &World<M>) -> Result<(), MonitorViolation> {
        for (name, check) in &mut self.checks {
            if let Err(detail) = check(world) {
                return Err(MonitorViolation {
                    invariant: name.clone(),
                    at: world.now(),
                    detail,
                });
            }
        }
        Ok(())
    }
}

/// A broken invariant, pinpointed in time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MonitorViolation {
    /// The invariant's name.
    pub invariant: String,
    /// Simulation time of the offending event.
    pub at: vrr_sim::SimTime,
    /// What the check reported.
    pub detail: String,
}

impl std::fmt::Display for MonitorViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invariant '{}' broken at {:?}: {}",
            self.invariant, self.at, self.detail
        )
    }
}

/// Drives `world` to quiescence (or `limit` events), evaluating every
/// invariant after each event. Returns the number of events processed.
///
/// # Errors
///
/// Returns the first [`MonitorViolation`] encountered; the world is left
/// at the offending event for post-mortem inspection.
pub fn run_monitored<M: SimMessage>(
    world: &mut World<M>,
    monitor: &mut InvariantMonitor<M>,
    limit: u64,
) -> Result<u64, MonitorViolation> {
    monitor.evaluate(world)?;
    let mut steps = 0;
    while steps < limit && world.step() {
        steps += 1;
        monitor.evaluate(world)?;
    }
    Ok(steps)
}

/// The Lemma-1 supporting invariant for the safe protocol: at every correct
/// object, the write timestamp and each reader timestamp never regress.
///
/// `correct_objects` must contain only indices hosting honest
/// [`SafeObject`]s (Byzantine replacements have a different concrete type
/// and, being allowed to do anything, are exempt anyway).
pub fn safe_object_monotonicity<V: Value>(
    correct_objects: Vec<ProcessId>,
    readers: usize,
) -> impl FnMut(&World<Msg<V>>) -> Result<(), String> {
    let mut last: HashMap<ProcessId, (Timestamp, Vec<u64>)> = HashMap::new();
    move |world| {
        for &pid in &correct_objects {
            let (ts, tsr) = world.inspect(pid, |o: &SafeObject<V>| {
                (o.ts(), (0..readers).map(|j| o.tsr(j)).collect::<Vec<u64>>())
            });
            if let Some((prev_ts, prev_tsr)) = last.get(&pid) {
                if ts < *prev_ts {
                    return Err(format!("object {pid:?} ts regressed {prev_ts:?} -> {ts:?}"));
                }
                for j in 0..readers {
                    if tsr[j] < prev_tsr[j] {
                        return Err(format!(
                            "object {pid:?} tsr[{j}] regressed {} -> {}",
                            prev_tsr[j], tsr[j]
                        ));
                    }
                }
            }
            last.insert(pid, (ts, tsr));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use vrr_core::{ProtocolKind, StorageConfig, StorageScenario};
    use vrr_sim::{from_fn, Context, SimTime};

    use super::*;

    #[test]
    fn clean_protocol_run_breaks_no_invariant() {
        let cfg = StorageConfig::optimal(1, 1, 2);
        let mut sc = StorageScenario::deploy(ProtocolKind::Safe, cfg, 9);

        let mut monitor = InvariantMonitor::new();
        monitor.add(
            "object monotonicity",
            safe_object_monotonicity::<u64>(sc.dep().objects.clone(), cfg.readers),
        );

        // The write has no quorum until the scripted heal fires — which it
        // does under a monitored run too: the script is on the world's queue.
        sc.partition_objects(&[0, 1]);
        sc.world_mut().heal_at(SimTime::from_ticks(50));
        let mut w = sc.start_write(5u64);
        run_monitored(sc.world_mut(), &mut monitor, 100_000).expect("no violation");
        assert!(sc.world().now() >= SimTime::from_ticks(50));
        let mut r = sc.start_read(0);
        run_monitored(sc.world_mut(), &mut monitor, 100_000).expect("no violation");
        assert!(sc.poll_write(&mut w).is_some());
        assert_eq!(sc.poll_read(&mut r).unwrap().value, Some(5));
    }

    #[test]
    fn a_regressing_object_is_caught_in_the_act() {
        // A broken "object" that resets its state when poked — the monitor
        // must pinpoint the regression.
        let cfg = StorageConfig::optimal(1, 1, 1);
        let mut sc = StorageScenario::deploy(ProtocolKind::Safe, cfg, 9);
        let victim = sc.object(0);

        let mut monitor = InvariantMonitor::new();
        monitor.add(
            "object monotonicity",
            safe_object_monotonicity::<u64>(vec![victim], cfg.readers),
        );

        // Drive a legitimate write through, monitored.
        sc.start_write(5u64);
        let world = sc.world_mut();
        run_monitored(world, &mut monitor, 100_000).expect("clean so far");

        // Maliciously reset the object's state in place (simulating a bug).
        world.with_automaton_mut(victim, |o: &mut SafeObject<u64>, _ctx| {
            let fresh = SafeObject::<u64>::new();
            o.restore(fresh.snapshot());
        });
        let err = run_monitored(world, &mut monitor, 10).expect_err("must catch");
        assert!(err.detail.contains("regressed"), "{err}");
    }

    #[test]
    fn monitor_runs_custom_checks() {
        let mut world: World<u64> = World::new(1);
        let a = world.spawn_named(
            "a",
            from_fn(|from, n: u64, ctx: &mut Context<'_, u64>| {
                if n > 0 {
                    ctx.send(from, n - 1);
                }
            }),
        );
        world.start();
        world.send_external(a, a, 10);

        let mut monitor: InvariantMonitor<u64> = InvariantMonitor::new();
        monitor.add("bounded traffic", |w| {
            if w.net_stats().sent > 5 {
                Err(format!("too many messages: {}", w.net_stats().sent))
            } else {
                Ok(())
            }
        });
        let err = run_monitored(&mut world, &mut monitor, 1_000).expect_err("fires at 6th send");
        assert_eq!(err.invariant, "bounded traffic");
    }
}
