//! Parameter sweeps for experiments.

use vrr_checker::{CheckResult, OpHistory, Violation};
use vrr_core::attackers::AttackerKind;
use vrr_core::{RegisterProtocol, StorageConfig};
use vrr_sim::SimTime;

use crate::faults::FaultPlan;
use crate::runner::{LatencyKind, SimCase};
use crate::schedule::ScheduleParams;

/// One point of a `(t, b, attacker, seed)` sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    /// Fault budget `t`.
    pub t: usize,
    /// Byzantine budget `b`.
    pub b: usize,
    /// The attacker behaviour, or `None` for a fault-free point.
    pub attacker: Option<AttackerKind>,
    /// Run seed.
    pub seed: u64,
}

impl SweepPoint {
    /// The faults this point runs under: its attacker's maximal plan with
    /// the crashes at `crash_at`; without an attacker, a random plan within
    /// budget over `random_horizon` ticks drawn from the point's seed, or
    /// no faults at all if that is `None`.
    pub fn fault_plan(
        &self,
        cfg: &StorageConfig,
        random_horizon: Option<u64>,
        crash_at: SimTime,
    ) -> FaultPlan {
        match (self.attacker, random_horizon) {
            (Some(kind), _) => FaultPlan::maximal(cfg, kind, crash_at),
            (None, Some(horizon)) => FaultPlan::random(cfg, horizon, self.seed),
            (None, None) => FaultPlan::none(),
        }
    }
}

/// What exposed a mutant to a [`hunt`].
#[derive(Clone, Debug)]
pub enum Exposed {
    /// The consistency checker rejected the history; its first violation.
    Checker(Violation),
    /// This many operations never completed.
    Stalled(usize),
}

/// The mutation hunt of the theorem experiments: runs `mutant` at
/// `t = b = 2` with two readers against the maximal fault plan of every
/// attacker kind, seeds `0..60` each, on a contended long-tail schedule,
/// until `check` rejects a history or an operation stalls. Returns the
/// attacker and seed that exposed it and how, or `None` if it survived all
/// 360 runs.
pub fn hunt<P: RegisterProtocol<u64> + Clone>(
    mutant: &P,
    check: fn(&OpHistory<u64>) -> CheckResult,
) -> Option<(AttackerKind, u64, Exposed)> {
    let cfg = StorageConfig::optimal(2, 2, 2);
    for kind in AttackerKind::ALL {
        for seed in 0..60 {
            let out = SimCase::new(mutant, cfg)
                .schedule(ScheduleParams::contended(6, 8, 2, seed))
                .faults(FaultPlan::maximal(&cfg, kind, SimTime::from_ticks(50)))
                .latency(LatencyKind::LongTail)
                .run();
            if let Err(mut violations) = check(&out.history) {
                return Some((kind, seed, Exposed::Checker(violations.swap_remove(0))));
            }
            if !out.all_live() {
                return Some((kind, seed, Exposed::Stalled(out.stalled_ops)));
            }
        }
    }
    None
}

/// The full cross product of budgets × attackers (plus the fault-free
/// case) × seeds. `(t, b)` pairs with `b > t` are skipped.
pub fn grid(ts: &[usize], bs: &[usize], seeds: std::ops::Range<u64>) -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for &t in ts {
        for &b in bs {
            if b > t || b == 0 {
                continue;
            }
            for seed in seeds.clone() {
                out.push(SweepPoint {
                    t,
                    b,
                    attacker: None,
                    seed,
                });
                for kind in AttackerKind::ALL {
                    out.push(SweepPoint {
                        t,
                        b,
                        attacker: Some(kind),
                        seed,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_respects_b_le_t() {
        let points = grid(&[1, 2], &[1, 2], 0..3);
        assert!(points.iter().all(|p| p.b <= p.t && p.b >= 1));
        // (1,1), (2,1), (2,2) = 3 combos × 3 seeds × (1 + 6 attackers).
        assert_eq!(points.len(), 3 * 3 * (1 + AttackerKind::ALL.len()));
    }
}
