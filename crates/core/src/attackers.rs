//! Protocol-aware Byzantine object behaviours.
//!
//! The paper's malicious objects "can perform arbitrary actions" (§2.1).
//! The catalogue realizes the attack strategies its proofs reason about:
//! inflating timestamps to fabricate phantom writes, forging `tsrarray`
//! entries to provoke reader-side conflicts, replaying stale state, and
//! equivocating between answers. Every attacker is an honest object whose
//! *read replies* are rewritten ([`Tamper::rewriting`]): writer traffic
//! passes through untouched, so the system's liveness assumptions
//! (`≤ b` malicious) stay analyzable.

use std::collections::BTreeMap;

use vrr_sim::{Automaton, Tamper};

use crate::config::StorageConfig;
use crate::msg::Msg;
use crate::regular::RegularObject;
use crate::safe::SafeObject;
use crate::types::{HistEntry, History, Timestamp, TsVal, TsrMatrix, Value, WTuple};

/// A forged timestamp far above anything the writer will issue in an
/// experiment.
const FORGED_TS: Timestamp = Timestamp(u64::MAX / 2);

/// Catalogue of ready-made attacker behaviours, used by workload configs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AttackerKind {
    /// Receives everything, replies to nothing.
    Mute,
    /// Answers reads with a phantom value at an enormous timestamp (safe:
    /// as its `pw`/`w` state; regular: spliced into every reported
    /// history). The reader's `safe(c)` starves the phantom of the `b + 1`
    /// confirmations it would need and elimination eventually removes it —
    /// the read stays correct and 2-round.
    Inflator,
    /// The [`AttackerKind::Inflator`]'s phantom with a `tsrarray` accusing
    /// every object of future reader timestamps, provoking `conflict` in
    /// the readers' first round. Lemma 1 says correct objects never
    /// conflict; the conflict graph isolates this attacker, and its
    /// candidate dies by elimination — at the cost of a short delay in
    /// round 1, never of correctness.
    Conflicter,
    /// Always replies with the initial state `σ0`, denying every write
    /// (the run5 move of Figure 1 in reverse).
    Stale,
    /// Alternates between a phantom value and honest answers, trying to
    /// feed the two read rounds inconsistent views.
    Equivocator,
    /// Lies about history suffixes: answers every read with an *empty*
    /// history, as if garbage collection had already discarded everything
    /// the reader asked for (including entries the reader's own acks can
    /// not possibly have released). An object reporting no entry at a
    /// candidate's position merely counts toward `invalid(c)`, never
    /// toward `safe(c)`, so it can neither confirm phantoms nor starve a
    /// genuine candidate. (Against the safe protocol, which has no
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
            AttackerKind::Inflator => {
                lying_safe_object(move |_, _| phantom(&forged, TsrMatrix::empty()))
            }
            AttackerKind::Conflicter => {
                lying_safe_object(move |_, _| phantom(&forged, accusing_matrix(cfg)))
            }
            AttackerKind::Stale | AttackerKind::Truncator => {
                lying_safe_object(|_, _| (TsVal::bottom(), WTuple::initial()))
            }
            AttackerKind::Equivocator => {
                let mut flip = false;
                lying_safe_object(move |pw, w| {
                    flip = !flip;
                    if flip {
                        phantom(&forged, TsrMatrix::empty())
                    } else {
                        (pw, w)
                    }
                })
            }
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
            AttackerKind::Inflator => {
                lying_regular_object(move |h| splice(h, &forged, TsrMatrix::empty()))
            }
            AttackerKind::Conflicter => {
                lying_regular_object(move |h| splice(h, &forged, accusing_matrix(cfg)))
            }
            AttackerKind::Stale => lying_regular_object(|_| History::initial()),
            AttackerKind::Truncator => lying_regular_object(|_| History::empty()),
            AttackerKind::Equivocator => {
                let mut flip = false;
                lying_regular_object(move |h| {
                    flip = !flip;
                    if flip {
                        splice(h, &forged, TsrMatrix::empty())
                    } else {
                        h
                    }
                })
            }
        }
    }
}

/// An honest safe object whose every `READk_ACK` reports `lie(pw, w)`.
fn lying_safe_object<V: Value>(
    mut lie: impl FnMut(TsVal<V>, WTuple<V>) -> (TsVal<V>, WTuple<V>) + Send + 'static,
) -> Box<dyn Automaton<Msg<V>>> {
    let object = SafeObject::<V>::new();
    Box::new(Tamper::rewriting(object, move |msg| match msg {
        Msg::ReadAckSafe { round, tsr, pw, w } => {
            let (pw, w) = lie(pw, w);
            Msg::ReadAckSafe { round, tsr, pw, w }
        }
        other => other,
    }))
}

/// An honest regular object whose every `READk_ACK` reports `lie(history)`.
fn lying_regular_object<V: Value>(
    mut lie: impl FnMut(History<V>) -> History<V> + Send + 'static,
) -> Box<dyn Automaton<Msg<V>>> {
    let object = RegularObject::<V>::new();
    Box::new(Tamper::rewriting(object, move |msg| match msg {
        Msg::ReadAckRegular {
            round,
            tsr,
            history,
        } => Msg::ReadAckRegular {
            round,
            tsr,
            history: lie(history),
        },
        other => other,
    }))
}

/// The `⟨pw, w⟩` state of a phantom write of `forged` at [`FORGED_TS`].
fn phantom<V: Value>(forged: &V, matrix: TsrMatrix) -> (TsVal<V>, WTuple<V>) {
    let tsval = TsVal::new(FORGED_TS, forged.clone());
    (tsval.clone(), WTuple::new(tsval, matrix))
}

/// `history` with the phantom write spliced in.
fn splice<V: Value>(mut history: History<V>, forged: &V, matrix: TsrMatrix) -> History<V> {
    let (pw, w) = phantom(forged, matrix);
    history.insert(FORGED_TS, HistEntry { pw, w: Some(w) });
    history
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::ProtocolKind;
    use crate::harness::RegisterProtocol;
    use crate::scenario::StorageScenario;

    const FORGED: u64 = 0xDEAD;

    /// Every attacker, against both protocols, with b = 1: writes and reads
    /// must stay correct, and reads within Proposition 2's two rounds.
    #[test]
    fn single_attacker_cannot_break_safe_protocol() {
        for kind in AttackerKind::ALL {
            let cfg = StorageConfig::optimal(1, 1, 1);
            let mut sc = StorageScenario::deploy(ProtocolKind::Safe, cfg, 3);
            sc.attack_object(1, kind, FORGED);

            for k in 1..=3u64 {
                sc.write(k * 7);
                let rd = sc.read(0);
                assert_eq!(rd.value, Some(k * 7), "attacker {kind:?} corrupted a read");
                assert!(rd.rounds <= 2, "attacker {kind:?} inflated round count");
            }
        }
    }

    #[test]
    fn single_attacker_cannot_break_regular_protocol() {
        for kind in AttackerKind::ALL {
            for protocol in [ProtocolKind::Regular, ProtocolKind::RegularOptimized] {
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
        let mut sc = StorageScenario::deploy(ProtocolKind::Safe, cfg, 11);
        sc.attack_object(2, AttackerKind::Inflator, FORGED);
        sc.attack_object(5, AttackerKind::Conflicter, FORGED);
        sc.write(99u64);
        assert_eq!(sc.read(0).value, Some(99));
    }
}
