//! Byzantine behaviours against the baseline protocols.

use vrr_sim::{Automaton, Tamper};

use vrr_core::{Timestamp, TsVal, Value};

use crate::lite::{LiteMsg, LiteObject};

/// Base timestamp of forged pairs: far above anything a real run writes.
const FORGE_BASE: u64 = u64::MAX / 2;

/// An object that stays *silent* on reads until it sees read nonce
/// `lie_from_nonce`, then answers every read with a stable fabricated pair
/// (timestamp `FORGE_BASE + lie_from_nonce`, so distinctly-ranked forgers
/// produce distinct fakes with later ranks on top).
///
/// Silence before activation matters: an object that first answers honestly
/// and then lies is caught by the reader's equivocation rule, while silence
/// is indistinguishable from slowness. Ranked forgers then reveal their
/// fakes one per round, driving the passive baseline to its worst case:
/// each round the freshest fake tops the claim order and earns a challenge
/// round, until all `b` forgers are suspected — `b + 1` rounds total (the
/// bound of \[ACKM04\] that the paper's 2-round protocol beats).
pub fn serial_forger<V: Value>(lie_from_nonce: u64, fake: V) -> Box<dyn Automaton<LiteMsg<V>>> {
    Box::new(Tamper::new(LiteObject::<V>::new(), move |to, msg| {
        match msg {
            LiteMsg::ReadAck { nonce, .. } => {
                if nonce >= lie_from_nonce {
                    let pair = TsVal::new(Timestamp(FORGE_BASE + lie_from_nonce), fake.clone());
                    vec![(
                        to,
                        LiteMsg::ReadAck {
                            nonce,
                            pw: pair.clone(),
                            w: pair,
                        },
                    )]
                } else {
                    vec![] // lurk: indistinguishable from a slow object
                }
            }
            other => vec![(to, other)],
        }
    }))
}

/// An object that inflates its write field on every read reply with a
/// per-reply *fresh* timestamp, never repeating a claim.
pub fn restless_forger<V: Value>(fake: V) -> Box<dyn Automaton<LiteMsg<V>>> {
    let mut counter = 0u64;
    Box::new(Tamper::rewriting(
        LiteObject::<V>::new(),
        move |msg| match msg {
            LiteMsg::ReadAck { nonce, pw, .. } => {
                counter += 1;
                let w = TsVal::new(Timestamp(FORGE_BASE + counter), fake.clone());
                LiteMsg::ReadAck { nonce, pw, w }
            }
            other => other,
        },
    ))
}

/// An object that denies all writes, always reporting `⟨0, ⊥⟩`.
pub fn denier<V: Value>() -> Box<dyn Automaton<LiteMsg<V>>> {
    Box::new(Tamper::rewriting(LiteObject::<V>::new(), |msg| match msg {
        LiteMsg::ReadAck { nonce, .. } => LiteMsg::ReadAck {
            nonce,
            pw: TsVal::bottom(),
            w: TsVal::bottom(),
        },
        other => other,
    }))
}

#[cfg(test)]
mod tests {
    use vrr_core::{StorageConfig, StorageScenario};

    use super::*;
    use crate::passive::PassiveProtocol;

    fn deploy() -> StorageScenario<u64, PassiveProtocol> {
        let cfg = StorageConfig::optimal(2, 2, 1); // S = 7
        StorageScenario::deploy(PassiveProtocol, cfg, 1)
    }

    #[test]
    fn denier_cannot_erase_a_write() {
        let mut sc = deploy();
        sc.byzantine_object(0, denier::<u64>());
        sc.byzantine_object(1, denier::<u64>());
        sc.write(5);
        assert_eq!(sc.read(0).value, Some(5));
    }

    #[test]
    fn restless_forger_claims_never_confirm() {
        let mut sc = deploy();
        sc.byzantine_object(0, restless_forger(666u64));
        sc.write(5);
        let rd = sc.read(0);
        assert_eq!(
            rd.value,
            Some(5),
            "fresh fakes each reply never gather support"
        );
        assert!(rd.rounds <= 3, "restless forging is self-defeating");
    }
}
