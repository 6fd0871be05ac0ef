//! Property tests for the baseline protocols.

use proptest::prelude::*;

use vrr_baselines::{serial_forger, AbdProtocol, MaskingProtocol, PassiveProtocol};
use vrr_core::{StorageConfig, StorageScenario};

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, .. ProptestConfig::default() })]

    /// The passive reader's round count is bounded by b+1 whatever subset
    /// of ranks the adversary activates, and the value survives.
    #[test]
    fn passive_rounds_never_exceed_b_plus_1(
        b in 1usize..=3,
        ranks in proptest::collection::btree_set(1u64..=3, 0..3),
        seed in 0u64..500,
    ) {
        let t = b;
        let cfg = StorageConfig::optimal(t, b, 1);
        let mut sc = StorageScenario::deploy(PassiveProtocol, cfg, seed);
        // Activate at most b forgers with the drawn ranks.
        for (i, rank) in ranks.iter().take(b).enumerate() {
            sc.byzantine_object(i, serial_forger(*rank, 900 + *rank));
        }
        sc.write(7u64);
        let rep = sc.read(0);
        prop_assert_eq!(rep.value, Some(7));
        prop_assert!(
            rep.rounds as usize <= b + 1,
            "b={} rounds={} ranks={:?}", b, rep.rounds, ranks
        );
    }

    /// Masking reads stay single-round under crashes within budget.
    #[test]
    fn masking_reads_are_always_one_round(
        t in 1usize..=3,
        b in 1usize..=3,
        crash_mask in any::<u8>(),
        seed in 0u64..500,
    ) {
        let b = b.min(t);
        let s = 2 * t + 2 * b + 1;
        let cfg = StorageConfig::with_objects(s, t, b, 1);
        let mut sc = StorageScenario::deploy(MaskingProtocol, cfg, seed);
        // Crash up to t objects chosen by the mask.
        let mut crashed = 0;
        for i in 0..s {
            if crashed < t && crash_mask & (1 << (i % 8)) != 0 {
                sc.crash_object(i);
                crashed += 1;
            }
        }
        sc.write(9u64);
        let rep = sc.read(0);
        prop_assert_eq!(rep.value, Some(9));
        prop_assert_eq!(rep.rounds, 1);
    }

    /// ABD round counts are invariant: 1-round writes, 1-round regular
    /// reads, 2-round atomic reads (after a write), under any crash set
    /// within budget.
    #[test]
    fn abd_round_invariants(
        t in 1usize..=4,
        atomic in any::<bool>(),
        crash in proptest::option::of(0usize..16),
        seed in 0u64..500,
    ) {
        let cfg = StorageConfig::crash_only(t, 1);
        let mut sc = StorageScenario::deploy(AbdProtocol { atomic }, cfg, seed);
        if let Some(c) = crash {
            sc.crash_object(c % cfg.s);
        }
        let w = sc.write(3u64);
        prop_assert_eq!(w.rounds, 1);
        let r = sc.read(0);
        prop_assert_eq!(r.value, Some(3));
        prop_assert_eq!(r.rounds, if atomic { 2 } else { 1 });
    }
}
