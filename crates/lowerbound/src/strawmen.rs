//! Concrete fast-read implementations to feed the impossibility harness.
//!
//! Each strawman follows the classical "passive quorum read" template: a
//! two-phase write (pre-write `pw`, then `w`) and a single-round read that
//! applies a decision rule to the `S − t` replies. The rules span the
//! design space a protocol author might try at `S = 2t + 2b`; the harness
//! shows each of them (indeed *any* deterministic rule, since the view is
//! fixed) violates safety in run4 or run5.

use std::collections::BTreeMap;

use vrr_baselines::corroborated;
use vrr_core::{Timestamp, TsVal};

use crate::spec::FastReadSpec;

/// Decision rules for the single-round read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadRule {
    /// Return the highest pair reported identically by ≥ `b + 1` objects;
    /// refuse to decide if no pair qualifies. (The sound rule at
    /// `S ≥ 2t + 2b + 1`: [`vrr_baselines::corroborated`] with `k = b + 1`,
    /// the function `vrr_baselines::MaskingProtocol`'s readers decide by.)
    Masking,
    /// Believe the highest timestamp outright (no corroboration).
    TrustHighest,
    /// Return the highest pair with ≥ `k` identical reports, `⊥` if none.
    Threshold(usize),
}

/// A passive-quorum storage implementation with a pluggable read rule.
///
/// Values are `u64`; object state is the pair of registers `(pw, w)`.
#[derive(Clone, Debug)]
pub struct LitePairSpec {
    s: usize,
    t: usize,
    b: usize,
    rule: ReadRule,
}

impl LitePairSpec {
    /// A spec over `s` objects with fault budgets `t`/`b` and the given
    /// read rule.
    ///
    /// # Panics
    ///
    /// Panics if `s ≤ t` (no quorum possible).
    pub fn new(s: usize, t: usize, b: usize, rule: ReadRule) -> Self {
        assert!(s > t, "need S > t");
        LitePairSpec { s, t, b, rule }
    }

    /// The configured read rule.
    pub fn rule(&self) -> ReadRule {
        self.rule
    }
}

impl FastReadSpec for LitePairSpec {
    type Value = u64;
    type ObjState = (TsVal<u64>, TsVal<u64>);
    type Reply = (TsVal<u64>, TsVal<u64>);

    fn object_count(&self) -> usize {
        self.s
    }

    fn max_faulty(&self) -> usize {
        self.t
    }

    fn initial_state(&self) -> Self::ObjState {
        (TsVal::bottom(), TsVal::bottom())
    }

    fn run_write(&self, value: u64, states: &mut [Self::ObjState], reachable: &[bool]) -> bool {
        let quorum = self.s - self.t;
        let reach_count = reachable.iter().filter(|r| **r).count();
        if reach_count < quorum {
            return false; // the writer never hears enough acks
        }
        let ts = Timestamp(states.iter().map(|(_, w)| w.ts.0).max().unwrap_or(0) + 1);
        let pair = TsVal::new(ts, value);
        // Phase 1: pre-write to every reachable object.
        for (i, st) in states.iter_mut().enumerate() {
            if reachable[i] && pair.ts > st.0.ts {
                st.0 = pair.clone();
            }
        }
        // Phase 2: write to every reachable object.
        for (i, st) in states.iter_mut().enumerate() {
            if reachable[i] && pair.ts > st.1.ts {
                st.1 = pair.clone();
                if pair.ts > st.0.ts {
                    st.0 = pair.clone();
                }
            }
        }
        true
    }

    fn read_reply(&self, _i: usize, state: &mut Self::ObjState, _reader_ts: u64) -> Self::Reply {
        state.clone() // passive read: report both registers
    }

    fn decide(&self, replies: &BTreeMap<usize, Self::Reply>) -> Option<Option<u64>> {
        let best_with = |k| corroborated(replies.values().map(|(_pw, w)| w), k);
        match self.rule {
            ReadRule::Masking => best_with(self.b + 1).map(|pair| pair.value),
            ReadRule::TrustHighest => Some(best_with(1).and_then(|pair| pair.value)),
            ReadRule::Threshold(k) => Some(best_with(k).and_then(|pair| pair.value)),
        }
    }
}

/// The server-centric strawman (§6): base objects are first-class servers
/// that push state to their peers, so a write spreads both through the
/// writer's own rounds *and* through inter-server gossip.
///
/// The lower bound survives the upgrade: gossip messages are messages, and
/// the Figure-1 adversary keeps them in transit exactly like the writer's.
/// Servers unreachable during the write (`T1`) stay ignorant, and the
/// reader's `S − t`-reply view is unchanged — so every decision rule fails
/// the same way it does in the data-centric model.
#[derive(Clone, Debug)]
pub struct GossipPairSpec {
    inner: LitePairSpec,
    /// Gossip fan-out rounds executed among reachable servers after the
    /// write (each round: pairwise max-merge of both registers).
    pub gossip_rounds: usize,
}

impl GossipPairSpec {
    /// A server-centric spec: `inner` semantics plus `gossip_rounds` of
    /// peer merging among reachable servers.
    pub fn new(inner: LitePairSpec, gossip_rounds: usize) -> Self {
        GossipPairSpec {
            inner,
            gossip_rounds,
        }
    }
}

impl FastReadSpec for GossipPairSpec {
    type Value = u64;
    type ObjState = (TsVal<u64>, TsVal<u64>);
    type Reply = (TsVal<u64>, TsVal<u64>);

    fn object_count(&self) -> usize {
        self.inner.object_count()
    }

    fn max_faulty(&self) -> usize {
        self.inner.max_faulty()
    }

    fn initial_state(&self) -> Self::ObjState {
        self.inner.initial_state()
    }

    fn run_write(&self, value: u64, states: &mut [Self::ObjState], reachable: &[bool]) -> bool {
        if !self.inner.run_write(value, states, reachable) {
            return false;
        }
        // Server-centric power: reachable servers gossip. Messages to the
        // unreachable stay in transit (the adversary delays them like any
        // other message), so gossip cannot leak past the partition.
        for _ in 0..self.gossip_rounds {
            let best_pw = states
                .iter()
                .zip(reachable)
                .filter(|(_, r)| **r)
                .map(|(st, _)| st.0.clone())
                .max_by_key(|p| p.ts)
                .unwrap_or_else(TsVal::bottom);
            let best_w = states
                .iter()
                .zip(reachable)
                .filter(|(_, r)| **r)
                .map(|(st, _)| st.1.clone())
                .max_by_key(|p| p.ts)
                .unwrap_or_else(TsVal::bottom);
            for (st, r) in states.iter_mut().zip(reachable) {
                if *r {
                    if best_pw.ts > st.0.ts {
                        st.0 = best_pw.clone();
                    }
                    if best_w.ts > st.1.ts {
                        st.1 = best_w.clone();
                    }
                }
            }
        }
        true
    }

    fn read_reply(&self, i: usize, state: &mut Self::ObjState, reader_ts: u64) -> Self::Reply {
        self.inner.read_reply(i, state, reader_ts)
    }

    fn decide(&self, replies: &BTreeMap<usize, Self::Reply>) -> Option<Option<u64>> {
        self.inner.decide(replies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replies(pairs: &[(u64, Option<u64>)]) -> BTreeMap<usize, (TsVal<u64>, TsVal<u64>)> {
        pairs
            .iter()
            .enumerate()
            .map(|(i, (ts, v))| {
                let pair = TsVal {
                    ts: Timestamp(*ts),
                    value: *v,
                };
                (i, (pair.clone(), pair))
            })
            .collect()
    }

    #[test]
    fn masking_rule_needs_corroboration() {
        let spec = LitePairSpec::new(5, 1, 1, ReadRule::Masking);
        // One report of ts 9 (liar), two of ts 1, two of ⊥.
        let view = replies(&[
            (9, Some(90)),
            (1, Some(10)),
            (1, Some(10)),
            (0, None),
            (0, None),
        ]);
        assert_eq!(spec.decide(&view), Some(Some(10)));
    }

    #[test]
    fn masking_rule_refuses_without_quorum_agreement() {
        let spec = LitePairSpec::new(5, 1, 1, ReadRule::Masking);
        let view = replies(&[
            (9, Some(90)),
            (8, Some(80)),
            (7, Some(70)),
            (6, Some(60)),
            (5, Some(50)),
        ]);
        assert_eq!(spec.decide(&view), None, "no pair corroborated: block");
    }

    #[test]
    fn trust_highest_believes_liars() {
        let spec = LitePairSpec::new(4, 1, 1, ReadRule::TrustHighest);
        let view = replies(&[(9, Some(90)), (1, Some(10)), (1, Some(10)), (0, None)]);
        assert_eq!(spec.decide(&view), Some(Some(90)));
    }

    #[test]
    fn write_respects_reachability() {
        let spec = LitePairSpec::new(4, 1, 1, ReadRule::Masking);
        let mut states = vec![spec.initial_state(); 4];
        let ok = spec.run_write(42, &mut states, &[false, true, true, true]);
        assert!(ok);
        assert_eq!(states[0].1.value, None, "unreachable object untouched");
        assert_eq!(states[1].1.value, Some(42));
    }

    #[test]
    fn write_fails_without_quorum() {
        let spec = LitePairSpec::new(4, 1, 1, ReadRule::Masking);
        let mut states = vec![spec.initial_state(); 4];
        let ok = spec.run_write(42, &mut states, &[false, false, true, true]);
        assert!(!ok, "2 reachable < S − t = 3");
    }
}
