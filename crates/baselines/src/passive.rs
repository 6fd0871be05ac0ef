//! The passive-reader baseline: optimal resilience, readers never modify
//! object state, reads take up to `b + 1` rounds.
//!
//! This is the regime of [ACKM04] that the paper's introduction cites — "for
//! any safe storage, when readers do not modify the state of the base
//! objects, the optimal read complexity with less than 2t + 2b base objects
//! is b + 1 rounds" — and whose `b + 1` conjecture for general safe storage
//! the paper refutes with its 2-round active-reader algorithm.
//!
//! ## Protocol
//!
//! Writes are two-phase (pre-write to `pw`, then write to `w`), as required
//! at `S ≤ 2t + 2b` by [1]'s write lower bound. A read proceeds in rounds;
//! each round sends a fresh nonce to all objects and waits for `S − t`
//! replies. Evidence accumulates across rounds:
//!
//! * a *claim* is a `w`-field pair reported by some object;
//! * a claim is **confirmed** once `b + 1` distinct objects support it
//!   (matching `pw` or `w`);
//! * at each round end, the highest unsuspected claim is examined: if
//!   confirmed, it is returned; if it has already survived a full round
//!   without confirmation, its believers are lying — the claim is
//!   *suspected* and skipped; if it is fresh this round, a new round
//!   starts (the challenge round).
//!
//! Each Byzantine object can mint at most one top fake per round before its
//! claim is suspected, so at most `b` extra rounds occur: **worst case
//! `b + 1` rounds**, and one round when nobody lies.
//!
//! ## Soundness caveat (why the paper's protocol exists)
//!
//! Suspecting an unconfirmed claim is sound when every correct object
//! eventually applies every write — true in these experiments, where the
//! writer broadcasts to all and channels are reliable. Under unrestricted
//! asynchrony a single correct holder of the latest value can be starved
//! out of every quorum, and a passive reader fundamentally cannot tell it
//! from a liar — which is exactly why reads that *write* (the paper's §4
//! novelty) beat passive reads to 2 rounds.

use std::collections::{BTreeMap, BTreeSet};

use vrr_core::{StorageConfig, TsVal, Value};

use crate::client::{LiteProtocol, LiteRule, Verdict};
use crate::lite::LiteMsg;

#[derive(Clone, Debug)]
struct ClaimInfo {
    /// Objects supporting the claim (matching `pw` or `w`).
    support: BTreeSet<usize>,
    /// Round the claim was first reported in (1-based).
    first_round: u32,
}

/// The passive read rule: evidence accumulates across the rounds of one
/// READ, and the reader never writes to objects.
#[derive(Clone, Debug)]
pub(crate) struct PassiveRule<V> {
    b_plus_1: usize,
    claims: BTreeMap<TsVal<V>, ClaimInfo>,
    suspected: BTreeSet<TsVal<V>>,
    /// Objects caught lying: equivocators (different `w` claims across
    /// rounds of one read) and backers of challenge-failed claims. Their
    /// support no longer counts.
    blacklist: BTreeSet<usize>,
    /// Each object's last `w` claim, for equivocation detection.
    last_claim: BTreeMap<usize, TsVal<V>>,
}

impl<V: Value> PassiveRule<V> {
    fn support(&mut self, claim: TsVal<V>, object: usize, round: u32) {
        let info = self.claims.entry(claim).or_insert_with(|| ClaimInfo {
            support: BTreeSet::new(),
            first_round: round,
        });
        info.support.insert(object);
    }
}

impl<V: Value> LiteRule<V> for PassiveRule<V> {
    fn absorb(&mut self, object: usize, round: u32, pw: TsVal<V>, w: TsVal<V>) {
        // Equivocation check: a correct object's w claim never changes
        // within an isolated read (and under concurrency misjudging is
        // allowed), so a changed claim proves the object faulty.
        match self.last_claim.get(&object) {
            Some(prev) if *prev != w => {
                self.blacklist.insert(object);
            }
            _ => {
                self.last_claim.insert(object, w.clone());
            }
        }
        // The w pair is a claim; both fields are support.
        if pw != w {
            self.support(pw, object, round);
        }
        self.support(w, object, round);
    }

    /// The end-of-round rule: return the highest live claim if confirmed,
    /// suspect it if it already survived a challenge round unconfirmed,
    /// open another round if it is fresh.
    fn decide(&mut self, round: u32) -> Verdict<V> {
        loop {
            let top = self
                .claims
                .iter()
                .filter(|(pair, _)| !self.suspected.contains(pair))
                .map(|(pair, info)| {
                    let live: BTreeSet<usize> =
                        info.support.difference(&self.blacklist).copied().collect();
                    (pair, live, info.first_round)
                })
                .filter(|(_, live, _)| !live.is_empty())
                .max_by(|a, b| a.0.ts.cmp(&b.0.ts))
                .map(|(pair, live, first_round)| (pair.clone(), live, first_round));
            let Some((pair, live_support, first_round)) = top else {
                // Every claim is dead. Unreachable when the read is isolated
                // from writes (the latest written pair always confirms);
                // under concurrency safe semantics permit anything, so
                // return the best-supported claim (or ⊥).
                let fallback = self
                    .claims
                    .iter()
                    .max_by_key(|(pair, info)| (info.support.len(), pair.ts))
                    .map(|(pair, _)| pair.clone())
                    .unwrap_or_else(TsVal::bottom);
                return Verdict::Return(fallback);
            };
            if live_support.len() >= self.b_plus_1 {
                return Verdict::Return(pair);
            }
            if first_round < round {
                // Survived a full challenge round without corroboration:
                // only liars back it. Suspect it and stop believing its
                // backers.
                self.suspected.insert(pair);
                self.blacklist.extend(live_support);
                continue;
            }
            // Fresh unconfirmed top claim: challenge it next round.
            return Verdict::NextRound;
        }
    }
}

/// The passive baseline as a [`vrr_core::RegisterProtocol`] (deploy at
/// `S = 2t + b + 1`).
#[derive(Clone, Copy, Debug, Default)]
pub struct PassiveProtocol;

impl LiteProtocol for PassiveProtocol {
    type Rule<V: Value> = PassiveRule<V>;

    fn name(&self) -> &'static str {
        "passive-b+1"
    }

    fn write_phases<V: Value>(pair: TsVal<V>) -> Vec<LiteMsg<V>> {
        let pre_write = LiteMsg::PreWrite { pair: pair.clone() };
        vec![pre_write, LiteMsg::Write { pair }]
    }

    fn rule<V: Value>(&self, cfg: StorageConfig) -> PassiveRule<V> {
        PassiveRule {
            b_plus_1: cfg.b_plus_1(),
            claims: BTreeMap::new(),
            suspected: BTreeSet::new(),
            blacklist: BTreeSet::new(),
            last_claim: BTreeMap::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use vrr_core::StorageScenario;

    use super::*;
    use crate::attackers::serial_forger;

    fn deploy(t: usize, b: usize) -> StorageScenario<u64, PassiveProtocol> {
        StorageScenario::deploy(PassiveProtocol, StorageConfig::optimal(t, b, 1), 13)
    }

    #[test]
    fn failure_free_read_is_one_round() {
        let mut sc = deploy(1, 1);
        let wr = sc.write(42);
        assert_eq!(
            wr.rounds, 2,
            "passive writes are two-phase at optimal resilience"
        );
        let rd = sc.read(0);
        assert_eq!(rd.value, Some(42));
        assert_eq!(rd.rounds, 1, "no liars: first round confirms");
    }

    #[test]
    fn serial_forgers_force_b_plus_1_rounds() {
        for b in 1..=3usize {
            let t = b;
            let mut sc = deploy(t, b);
            // Forger ranked r starts lying at nonce r (= read round r for
            // the single read below).
            for rank in 1..=b {
                sc.byzantine_object(rank - 1, serial_forger(rank as u64, 900 + rank as u64));
            }
            sc.write(7);
            let rd = sc.read(0);
            assert_eq!(rd.value, Some(7), "b={b}: forgers must not win");
            assert_eq!(
                rd.rounds,
                (b + 1) as u32,
                "b={b}: serial forgery forces exactly b+1 rounds"
            );
        }
    }

    #[test]
    fn simultaneous_forgers_cost_only_one_extra_round() {
        let b = 3;
        let mut sc = deploy(b, b);
        for rank in 1..=b {
            // All start lying from round 1.
            sc.byzantine_object(rank - 1, serial_forger(1, 900 + rank as u64));
        }
        sc.write(7);
        let rd = sc.read(0);
        assert_eq!(rd.value, Some(7));
        assert_eq!(rd.rounds, 2, "all fakes challenged in parallel");
    }
}
