//! Protocol-aware Byzantine object behaviours.
//!
//! The paper's malicious objects "can perform arbitrary actions" (§2.1).
//! These constructors realize the attack strategies its proofs reason
//! about: inflating timestamps to fabricate phantom writes, forging
//! `tsrarray` entries to provoke reader-side conflicts, replaying stale
//! state, and equivocating between answers. Each attacker passes writer
//! traffic through an honest object underneath, so the system's liveness
//! assumptions (`≤ b` malicious) stay analyzable.

use std::collections::BTreeMap;

use vrr_sim::{Automaton, Tamper};

use crate::config::StorageConfig;
use crate::msg::Msg;
use crate::regular::RegularObject;
use crate::safe::SafeObject;
use crate::types::{HistEntry, Timestamp, TsVal, TsrMatrix, Value, WTuple};

/// A forged timestamp far above anything the writer will issue in an
/// experiment.
const FORGED_TS: Timestamp = Timestamp(u64::MAX / 2);

/// Catalogue of ready-made attacker behaviours, used by workload configs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AttackerKind {
    /// Receives everything, replies to nothing.
    Mute,
    /// Answers reads with a phantom value at an enormous timestamp.
    Inflator,
    /// Forges `tsrarray` entries accusing every object of future reader
    /// timestamps, provoking `conflict` in the readers' first round.
    Conflicter,
    /// Always replies with the initial state `σ0`, denying every write.
    Stale,
    /// Alternates between a phantom value and honest answers.
    Equivocator,
    /// Lies about history suffixes: answers every read with an *empty*
    /// history, as if garbage collection had already discarded everything
    /// the reader asked for. (Against the safe protocol, which has no
    /// histories, this degenerates to [`AttackerKind::Stale`].)
    Truncator,
}

impl AttackerKind {
    /// All attacker kinds, for sweep experiments.
    pub const ALL: [AttackerKind; 6] = [
        AttackerKind::Mute,
        AttackerKind::Inflator,
        AttackerKind::Conflicter,
        AttackerKind::Stale,
        AttackerKind::Equivocator,
        AttackerKind::Truncator,
    ];

    /// Builds this attacker against the safe protocol.
    pub fn build_safe<V: Value>(self, cfg: StorageConfig, forged: V) -> Box<dyn Automaton<Msg<V>>> {
        match self {
            AttackerKind::Mute => Box::new(vrr_sim::Mute),
            AttackerKind::Inflator => inflating_safe_object(forged),
            AttackerKind::Conflicter => conflicting_safe_object(cfg, forged),
            AttackerKind::Stale | AttackerKind::Truncator => stale_safe_object(),
            AttackerKind::Equivocator => equivocating_safe_object(forged),
        }
    }

    /// Builds this attacker against the regular protocol.
    pub fn build_regular<V: Value>(
        self,
        cfg: StorageConfig,
        forged: V,
    ) -> Box<dyn Automaton<Msg<V>>> {
        match self {
            AttackerKind::Mute => Box::new(vrr_sim::Mute),
            AttackerKind::Inflator => inflating_regular_object(forged),
            AttackerKind::Conflicter => conflicting_regular_object(cfg, forged),
            AttackerKind::Stale => stale_regular_object(),
            AttackerKind::Equivocator => equivocating_regular_object(forged),
            AttackerKind::Truncator => truncating_regular_object(),
        }
    }
}

fn forged_tsval<V: Value>(forged: V) -> TsVal<V> {
    TsVal::new(FORGED_TS, forged)
}

/// A matrix accusing every object of having reported reader timestamps far
/// beyond anything issued — triggers `conflict(i, k)` for every `i`.
fn accusing_matrix(cfg: StorageConfig) -> TsrMatrix {
    let mut m = TsrMatrix::empty();
    for i in 0..cfg.s {
        let row: BTreeMap<usize, u64> = (0..cfg.readers).map(|j| (j, u64::MAX / 2)).collect();
        m.set_row(i, row);
    }
    m
}

/// Safe-protocol attacker: read replies carry a phantom high-timestamp pair.
///
/// The reader's `safe(c)` predicate starves it of the `b + 1` confirmations
/// it would need, and `RespondedWO` eventually eliminates it (Figure 4
/// lines 27–28) — the read stays correct and 2-round.
pub fn inflating_safe_object<V: Value>(forged: V) -> Box<dyn Automaton<Msg<V>>> {
    Box::new(Tamper::new(SafeObject::<V>::new(), move |to, msg| {
        let msg = match msg {
            Msg::ReadAckSafe { round, tsr, .. } => Msg::ReadAckSafe {
                round,
                tsr,
                pw: forged_tsval(forged.clone()),
                w: WTuple::new(forged_tsval(forged.clone()), TsrMatrix::empty()),
            },
            other => other,
        };
        vec![(to, msg)]
    }))
}

/// Safe-protocol attacker: phantom candidate whose matrix accuses every
/// object of future reader timestamps, provoking round-1 conflicts.
///
/// Lemma 1 says correct objects never conflict; the conflict graph isolates
/// this attacker, and its candidate dies by elimination — at the cost of a
/// short delay in round 1, never of correctness.
pub fn conflicting_safe_object<V: Value>(
    cfg: StorageConfig,
    forged: V,
) -> Box<dyn Automaton<Msg<V>>> {
    Box::new(Tamper::new(SafeObject::<V>::new(), move |to, msg| {
        let msg = match msg {
            Msg::ReadAckSafe { round, tsr, .. } => Msg::ReadAckSafe {
                round,
                tsr,
                pw: forged_tsval(forged.clone()),
                w: WTuple::new(forged_tsval(forged.clone()), accusing_matrix(cfg)),
            },
            other => other,
        };
        vec![(to, msg)]
    }))
}

/// Safe-protocol attacker: answers every read with the initial state `σ0`,
/// pretending no write ever happened (the run5 move of Figure 1 in
/// reverse).
pub fn stale_safe_object<V: Value>() -> Box<dyn Automaton<Msg<V>>> {
    Box::new(Tamper::new(SafeObject::<V>::new(), move |to, msg| {
        let msg = match msg {
            Msg::ReadAckSafe { round, tsr, .. } => Msg::ReadAckSafe {
                round,
                tsr,
                pw: TsVal::bottom(),
                w: WTuple::initial(),
            },
            other => other,
        };
        vec![(to, msg)]
    }))
}

/// Safe-protocol attacker: alternates phantom and honest answers, trying to
/// feed the two read rounds inconsistent views.
pub fn equivocating_safe_object<V: Value>(forged: V) -> Box<dyn Automaton<Msg<V>>> {
    let mut flip = false;
    Box::new(Tamper::new(SafeObject::<V>::new(), move |to, msg| {
        let msg = match msg {
            Msg::ReadAckSafe { round, tsr, pw, w } => {
                flip = !flip;
                if flip {
                    Msg::ReadAckSafe {
                        round,
                        tsr,
                        pw: forged_tsval(forged.clone()),
                        w: WTuple::new(forged_tsval(forged.clone()), TsrMatrix::empty()),
                    }
                } else {
                    Msg::ReadAckSafe { round, tsr, pw, w }
                }
            }
            other => other,
        };
        vec![(to, msg)]
    }))
}

fn forged_history_entry<V: Value>(forged: V) -> (Timestamp, HistEntry<V>) {
    let tsval = forged_tsval(forged);
    (
        FORGED_TS,
        HistEntry {
            pw: tsval.clone(),
            w: Some(WTuple::new(tsval, TsrMatrix::empty())),
        },
    )
}

/// Regular-protocol attacker: splices a phantom entry at an enormous
/// timestamp into every reported history.
pub fn inflating_regular_object<V: Value>(forged: V) -> Box<dyn Automaton<Msg<V>>> {
    Box::new(Tamper::new(RegularObject::<V>::new(), move |to, msg| {
        let msg = match msg {
            Msg::ReadAckRegular {
                round,
                tsr,
                mut history,
            } => {
                let (ts, e) = forged_history_entry(forged.clone());
                history.insert(ts, e);
                Msg::ReadAckRegular {
                    round,
                    tsr,
                    history,
                }
            }
            other => other,
        };
        vec![(to, msg)]
    }))
}

/// Regular-protocol attacker: phantom entry with an accusing matrix
/// (the regular-protocol twin of [`conflicting_safe_object`]).
pub fn conflicting_regular_object<V: Value>(
    cfg: StorageConfig,
    forged: V,
) -> Box<dyn Automaton<Msg<V>>> {
    Box::new(Tamper::new(RegularObject::<V>::new(), move |to, msg| {
        let msg = match msg {
            Msg::ReadAckRegular {
                round,
                tsr,
                mut history,
            } => {
                let tsval = forged_tsval(forged.clone());
                history.insert(
                    FORGED_TS,
                    HistEntry {
                        pw: tsval.clone(),
                        w: Some(WTuple::new(tsval, accusing_matrix(cfg))),
                    },
                );
                Msg::ReadAckRegular {
                    round,
                    tsr,
                    history,
                }
            }
            other => other,
        };
        vec![(to, msg)]
    }))
}

/// Regular-protocol attacker: lies about suffixes — every read ACK claims
/// an *empty* history, as if ack-driven GC had already truncated every
/// entry the reader asked about (including entries the reader's own acks
/// can not possibly have released).
///
/// Correct readers absorb this: an object reporting no entry at a
/// candidate's position merely counts toward `invalid(c)`, never toward
/// `safe(c)`, so the attacker can neither confirm phantoms nor starve a
/// genuine candidate of its `b + 1` confirmations from correct objects
/// (which retain everything at or above the true ack floor minus the
/// window).
pub fn truncating_regular_object<V: Value>() -> Box<dyn Automaton<Msg<V>>> {
    Box::new(Tamper::new(RegularObject::<V>::new(), move |to, msg| {
        let msg = match msg {
            Msg::ReadAckRegular { round, tsr, .. } => Msg::ReadAckRegular {
                round,
                tsr,
                history: crate::types::History::empty(),
            },
            other => other,
        };
        vec![(to, msg)]
    }))
}

/// Regular-protocol attacker: reports the pristine initial history forever.
pub fn stale_regular_object<V: Value>() -> Box<dyn Automaton<Msg<V>>> {
    Box::new(Tamper::new(RegularObject::<V>::new(), move |to, msg| {
        let msg = match msg {
            Msg::ReadAckRegular { round, tsr, .. } => Msg::ReadAckRegular {
                round,
                tsr,
                history: crate::types::History::initial(),
            },
            other => other,
        };
        vec![(to, msg)]
    }))
}

/// Regular-protocol attacker: alternates phantom-spliced and honest
/// histories.
pub fn equivocating_regular_object<V: Value>(forged: V) -> Box<dyn Automaton<Msg<V>>> {
    let mut flip = false;
    Box::new(Tamper::new(RegularObject::<V>::new(), move |to, msg| {
        let msg = match msg {
            Msg::ReadAckRegular {
                round,
                tsr,
                mut history,
            } => {
                flip = !flip;
                if flip {
                    let (ts, e) = forged_history_entry(forged.clone());
                    history.insert(ts, e);
                }
                Msg::ReadAckRegular {
                    round,
                    tsr,
                    history,
                }
            }
            other => other,
        };
        vec![(to, msg)]
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{RegisterProtocol, RegularProtocol, SafeProtocol};
    use crate::scenario::StorageScenario;

    const FORGED: u64 = 0xDEAD;

    /// Every attacker, against both protocols, with b = 1: writes and reads
    /// must stay correct and 2-round.
    #[test]
    fn single_attacker_cannot_break_safe_protocol() {
        for kind in AttackerKind::ALL {
            let cfg = StorageConfig::optimal(1, 1, 1);
            let mut sc = StorageScenario::deploy(SafeProtocol, cfg, 3);
            sc.attack_object(1, kind, FORGED);

            for k in 1..=3u64 {
                sc.write(k * 7);
                let rd = sc.read(0);
                assert_eq!(rd.value, Some(k * 7), "attacker {kind:?} corrupted a read");
                assert_eq!(rd.rounds, 2, "attacker {kind:?} inflated round count");
            }
        }
    }

    #[test]
    fn single_attacker_cannot_break_regular_protocol() {
        for kind in AttackerKind::ALL {
            for protocol in [RegularProtocol::full(), RegularProtocol::optimized()] {
                let cfg = StorageConfig::optimal(1, 1, 1);
                let mut sc = StorageScenario::deploy(protocol, cfg, 5);
                sc.attack_object(0, kind, FORGED);

                for k in 1..=3u64 {
                    sc.write(k * 7);
                    assert_eq!(
                        sc.read(0).value,
                        Some(k * 7),
                        "attacker {kind:?} corrupted a {} read",
                        RegisterProtocol::<u64>::name(&protocol),
                    );
                }
            }
        }
    }

    #[test]
    fn attacker_with_larger_b_budget_also_fails() {
        // t = b = 2: two inflators at once.
        let cfg = StorageConfig::optimal(2, 2, 1); // S = 7
        let mut sc = StorageScenario::deploy(SafeProtocol, cfg, 11);
        sc.attack_object(2, AttackerKind::Inflator, FORGED);
        sc.attack_object(5, AttackerKind::Conflicter, FORGED);
        sc.write(99u64);
        assert_eq!(sc.read(0).value, Some(99));
    }
}
