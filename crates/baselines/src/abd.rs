//! The ABD baseline: crash-only SWMR storage [ABD95].
//!
//! The ancestor the paper cites for the `b = 0` case: `S = 2t + 1` objects,
//! one-round writes, one-round reads for regular semantics, and an optional
//! write-back phase for atomic semantics. No Byzantine tolerance — a single
//! lying object can defeat it, which the baseline tests demonstrate.

use vrr_core::{StorageConfig, Timestamp, TsVal, Value};

use crate::client::{LiteProtocol, LiteRule, Verdict};

/// The ABD read rule: believe the highest timestamped pair among `S − t`
/// replies. Atomic mode writes the chosen pair back to a quorum before
/// returning (two rounds), which rules out new/old inversions.
#[derive(Clone, Debug)]
pub(crate) struct AbdRule<V> {
    atomic: bool,
    best: TsVal<V>,
}

impl<V: Value> LiteRule<V> for AbdRule<V> {
    fn absorb(&mut self, _object: usize, _round: u32, _pw: TsVal<V>, w: TsVal<V>) {
        if w.ts > self.best.ts {
            self.best = w;
        }
    }

    fn decide(&mut self, _round: u32) -> Verdict<V> {
        let best = self.best.clone();
        if self.atomic && best.ts > Timestamp::ZERO {
            Verdict::WriteBack(best)
        } else {
            Verdict::Return(best) // regular mode, or nothing to write back
        }
    }
}

/// ABD as a [`vrr_core::RegisterProtocol`]; `cfg.b` is ignored (crash-only
/// baseline).
#[derive(Clone, Copy, Debug, Default)]
pub struct AbdProtocol {
    /// Enable the write-back phase (atomic semantics, 2-round reads).
    pub atomic: bool,
}

impl LiteProtocol for AbdProtocol {
    type Rule<V: Value> = AbdRule<V>;

    fn name(&self) -> &'static str {
        if self.atomic {
            "abd-atomic"
        } else {
            "abd"
        }
    }

    fn rule<V: Value>(&self, _cfg: StorageConfig) -> AbdRule<V> {
        AbdRule {
            atomic: self.atomic,
            best: TsVal::bottom(),
        }
    }
}

#[cfg(test)]
mod tests {
    use vrr_core::StorageScenario;

    use super::*;
    use crate::attackers::serial_forger;

    fn deploy(atomic: bool) -> StorageScenario<u64, AbdProtocol> {
        let cfg = StorageConfig::crash_only(1, 2); // S = 3
        StorageScenario::deploy(AbdProtocol { atomic }, cfg, 5)
    }

    #[test]
    fn abd_atomic_uses_write_back() {
        let mut sc = deploy(true);
        sc.write(42);
        let rd = sc.read(0);
        assert_eq!(rd.value, Some(42));
        assert_eq!(rd.rounds, 2, "atomic reads add the write-back round");
    }

    #[test]
    fn abd_is_defenseless_against_byzantine() {
        // Sanity check of the baseline's stated limitation: one liar
        // makes the reader return a phantom value.
        let mut sc = deploy(false);
        sc.byzantine_object(0, serial_forger(1, 666));
        sc.write(7);
        assert_eq!(
            sc.read(0).value,
            Some(666),
            "ABD believes the liar — by design it may not"
        );
    }
}
