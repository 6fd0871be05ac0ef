//! The masking-quorum fast-read baseline: one-round reads with
//! `S ≥ 2t + 2b + 1` objects.
//!
//! The regime the paper's introduction contrasts with ([MR98]-style masking
//! quorums; see also [1]'s result that one write round suffices above
//! `2t + 2b` objects): buy `b` extra objects beyond optimal resilience and
//! both operations become single-round. A read returns the highest
//! timestamped pair reported identically by at least `b + 1` objects —
//! every completed write is corroborated that strongly in any `S − t`
//! quorum, and no fabricated pair can be. One object fewer and the same
//! rule is unsafe ([`corroborated`]): this baseline sits exactly on the
//! tightness boundary of Proposition 1.

use std::collections::BTreeMap;

use vrr_core::{StorageConfig, TsVal, Value};

use crate::client::{LiteProtocol, LiteRule, Verdict};

/// Sizing helper: the smallest object count at which fast reads are
/// possible, `2t + 2b + 1`.
pub fn masking_object_count(t: usize, b: usize) -> usize {
    2 * t + 2 * b + 1
}

/// The highest timestamped pair among `reports` that at least `k` of them
/// state identically, if there is one.
///
/// With `k = b + 1` this is the masking read rule: `b` liars cannot
/// corroborate a fabricated pair. `vrr-lowerbound`'s `LitePairSpec` replays
/// it on the Figure-1 views for its `Masking` (`k = b + 1`), `Threshold(k)`
/// and `TrustHighest` (`k = 1`) strawmen.
pub fn corroborated<'a, V: Value>(
    reports: impl IntoIterator<Item = &'a TsVal<V>>,
    k: usize,
) -> Option<TsVal<V>> {
    let mut counts: BTreeMap<&TsVal<V>, usize> = BTreeMap::new();
    for pair in reports {
        *counts.entry(pair).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .filter(|(_, n)| *n >= k)
        .map(|(pair, _)| pair)
        .max_by_key(|pair| pair.ts)
        .cloned()
}

/// The masking read rule: one round, [`corroborated`] by `b + 1` objects.
#[derive(Clone, Debug)]
pub(crate) struct MaskingRule<V> {
    b_plus_1: usize,
    reports: Vec<TsVal<V>>,
}

impl<V: Value> LiteRule<V> for MaskingRule<V> {
    fn absorb(&mut self, _object: usize, _round: u32, _pw: TsVal<V>, w: TsVal<V>) {
        self.reports.push(w);
    }

    fn decide(&mut self, _round: u32) -> Verdict<V> {
        // No corroborated pair yet: keep collecting replies of the same
        // round (still one round-trip; §2.3's "at latest when the client
        // receives replies from S − t correct objects" applies to
        // termination, not to the exact count consumed).
        corroborated(&self.reports, self.b_plus_1).map_or(Verdict::KeepCollecting, Verdict::Return)
    }
}

/// Masking-quorum fast storage as a [`vrr_core::RegisterProtocol`].
///
/// Deploy with `cfg.s ≥ 2t + 2b + 1` (e.g. via
/// [`StorageConfig::with_objects`] and [`masking_object_count`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct MaskingProtocol;

impl LiteProtocol for MaskingProtocol {
    type Rule<V: Value> = MaskingRule<V>;

    fn name(&self) -> &'static str {
        "masking-fast"
    }

    /// # Panics
    ///
    /// Panics if `cfg.s < 2t + 2b + 1` (below that, one-round operations
    /// are unsound — Proposition 1).
    fn rule<V: Value>(&self, cfg: StorageConfig) -> MaskingRule<V> {
        assert!(
            cfg.s >= masking_object_count(cfg.t, cfg.b),
            "masking fast reads need S >= 2t + 2b + 1"
        );
        MaskingRule {
            b_plus_1: cfg.b_plus_1(),
            reports: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use vrr_core::{StorageScenario, Timestamp};

    use super::*;
    use crate::attackers::serial_forger;

    fn deploy(t: usize, b: usize) -> StorageScenario<u64, MaskingProtocol> {
        let cfg = StorageConfig::with_objects(masking_object_count(t, b), t, b, 1);
        StorageScenario::deploy(MaskingProtocol, cfg, 9)
    }

    #[test]
    fn both_operations_are_single_round() {
        let mut sc = deploy(1, 1); // S = 5
        let wr = sc.write(42);
        assert_eq!(wr.rounds, 1);
        let rd = sc.read(0);
        assert_eq!(rd.value, Some(42));
        assert_eq!(rd.rounds, 1, "fast read above 2t + 2b objects");
    }

    #[test]
    fn b_inflators_cannot_forge_a_value() {
        let mut sc = deploy(2, 2); // S = 9, b = 2
                                   // Both forge the same pair: two reports, one short of b + 1.
        sc.byzantine_object(0, serial_forger(1, 666));
        sc.byzantine_object(4, serial_forger(1, 666));
        sc.write(7);
        let rd = sc.read(0);
        assert_eq!(rd.value, Some(7), "b liars < b+1 corroboration");
        assert_eq!(rd.rounds, 1);
    }

    #[test]
    #[should_panic(expected = "S >= 2t + 2b + 1")]
    fn rejects_deployment_at_the_proposition1_boundary() {
        let cfg = StorageConfig::optimal(1, 1, 1); // S = 4 = 2t + 2b
        let _ = StorageScenario::<u64, _>::deploy(MaskingProtocol, cfg, 9);
    }

    #[test]
    fn decide_rule_requires_corroboration() {
        let pair = |ts, v: u64| TsVal::new(Timestamp(ts), v);
        let replies = [pair(5, 50), pair(5, 50), pair(9, 90)]; // the last a lone liar
        assert_eq!(corroborated(&replies, 2), Some(pair(5, 50)));
        assert_eq!(corroborated(&replies, 1), Some(pair(9, 90)));
        assert_eq!(corroborated::<u64>(&[], 2), None);
    }
}
