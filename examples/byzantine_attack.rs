//! Byzantine attack study: what `b` lying objects can and cannot do.
//!
//! Runs the full attacker catalogue against the paper's safe storage at
//! optimal resilience and shows every read still returns the true value in
//! at most two rounds. Then runs the *same* inflation attack against the
//! crash-only ABD baseline and watches it hand back a phantom value —
//! the gap the paper's protocols exist to close.
//!
//! Every run is scripted through the [`StorageScenario`] builder, which
//! also exports a metrics snapshot of the attack run.
//!
//! Run with `cargo run --example byzantine_attack`.

use vrr::baselines::{AbdProtocol, LiteMsg, LiteObject};
use vrr::core::attackers::AttackerKind;
use vrr::core::metrics::names;
use vrr::core::{ProtocolKind, StorageConfig, StorageScenario, Timestamp, TsVal};
use vrr::sim::Tamper;

fn main() {
    let cfg = StorageConfig::optimal(2, 2, 1); // S = 7, up to 2 Byzantine
    println!("safe storage under attack: {cfg:?}\n");

    for kind in AttackerKind::ALL {
        let mut sc = StorageScenario::deploy(ProtocolKind::Safe, cfg, 7);

        // Corrupt b objects with this attacker.
        for i in 0..cfg.b {
            sc.attack_object(i, kind, 0xDEADu64);
        }

        sc.write(1_000_000);
        let r = sc.read(0);
        println!(
            "  {kind:<12?} x{}: READ -> {:?} in {} rounds   (filtered out the lies)",
            cfg.b, r.value, r.rounds
        );
        assert_eq!(
            r.value,
            Some(1_000_000),
            "{kind:?} must not corrupt the read"
        );
        assert!(r.rounds <= 2, "{kind:?} must not slow the read");
        // The snapshot carries the fault script alongside the op stats.
        let snap = sc.metrics_snapshot();
        assert_eq!(
            snap.counter(names::SCENARIO_BYZANTINE, &[]),
            cfg.b as u64,
            "every substitution is accounted for"
        );
    }

    // The contrast: ABD trusts the highest timestamp it sees.
    println!("\ncrash-only ABD under the same inflation attack:");
    let abd_cfg = StorageConfig::crash_only(2, 1); // S = 5
    let mut sc = StorageScenario::deploy(AbdProtocol::default(), abd_cfg, 7);
    sc.byzantine_object(
        0,
        Box::new(Tamper::new(LiteObject::<u64>::new(), |to, msg| {
            let msg = match msg {
                LiteMsg::ReadAck { nonce, pw, .. } => LiteMsg::ReadAck {
                    nonce,
                    pw,
                    w: TsVal::new(Timestamp(u64::MAX / 2), 0xDEAD),
                },
                other => other,
            };
            vec![(to, msg)]
        })),
    );
    sc.write(1_000_000u64);
    let r = sc.read(0);
    println!(
        "  one liar out of {}: READ -> {:?}  <- phantom value believed!",
        abd_cfg.s, r.value
    );
    assert_eq!(
        r.value,
        Some(0xDEAD),
        "ABD has no Byzantine defence, by design"
    );

    println!(
        "\nconclusion: b+1-corroboration plus the two-round active read keep the \
         register honest at S = 2t+b+1; a crash-only protocol falls to a single liar."
    );
}
