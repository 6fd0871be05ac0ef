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
