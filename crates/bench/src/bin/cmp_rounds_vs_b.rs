//! **E-CMP — the paper's positioning**: worst-case read rounds versus the
//! Byzantine budget `b`, across the design space of §1.
//!
//! Four protocols, measured (not quoted): the crash-only ABD ancestor, the
//! masking-quorum fast read (which buys 1-round reads with `b` extra
//! objects), the passive `b + 1`-round reader at optimal resilience (the
//! regime of the conjecture the paper refutes), and the paper's 2-round
//! active reader at optimal resilience.
//!
//! Expected shape: paper protocol pinned at 2 rounds for every `b`; the
//! passive baseline matches it at `b = 1` and loses from `b = 2` on; the
//! masking baseline is faster but needs `2t + 2b + 1 > 2t + b + 1`
//! objects (and below that count 1-round reads are impossible — see
//! `fig1_lowerbound`). Run with
//! `cargo run --release -p vrr-bench --bin cmp_rounds_vs_b`.

use vrr_baselines::{
    masking_object_count, serial_forger, AbdProtocol, MaskingProtocol, PassiveProtocol,
};
use vrr_bench::Table;
use vrr_core::attackers::AttackerKind;
use vrr_core::{ProtocolKind, ProtocolSpec, RegisterProtocol, StorageConfig, StorageScenario};

/// One write, one read; returns the read's round count.
fn measure<P: RegisterProtocol<u64>>(
    protocol: P,
    cfg: StorageConfig,
    attack: impl Fn(&mut StorageScenario<u64, P>),
) -> u32 {
    let name = protocol.name();
    let mut sc = StorageScenario::deploy(protocol, cfg, 11);
    attack(&mut sc);
    sc.write(7u64);
    let rep = sc.read(0);
    assert_eq!(rep.value, Some(7), "{name}: wrong value");
    rep.rounds
}

fn lite_serial_attack<P: RegisterProtocol<u64, Msg = vrr_baselines::LiteMsg<u64>>>(
    b: usize,
) -> impl Fn(&mut StorageScenario<u64, P>) {
    move |sc| {
        for rank in 1..=b {
            sc.byzantine_object(rank - 1, serial_forger(rank as u64, 900 + rank as u64));
        }
    }
}

/// `b` Inflators from the protocol's own catalogue.
fn inflator_attack<P: RegisterProtocol<u64>>(b: usize) -> impl Fn(&mut StorageScenario<u64, P>) {
    move |sc| {
        for i in 0..b {
            sc.attack_object(i, AttackerKind::Inflator, 0xDEADu64);
        }
    }
}

fn no_attack<P: RegisterProtocol<u64>>() -> impl Fn(&mut StorageScenario<u64, P>) {
    |_sc| {}
}

fn lite_inflator_attack<P: RegisterProtocol<u64, Msg = vrr_baselines::LiteMsg<u64>>>(
    b: usize,
) -> impl Fn(&mut StorageScenario<u64, P>) {
    move |sc| {
        for i in 0..b {
            // Stable forgers active from the first nonce.
            sc.byzantine_object(i, serial_forger(1, 600 + i as u64));
        }
    }
}

fn main() {
    // The figures' readers: READ2 on every read below S = 2t+2b+1.
    let safe = ProtocolSpec::figures(ProtocolKind::Safe);
    let atomic = ProtocolSpec::figures(ProtocolKind::Atomic);
    let mut table = Table::new(&[
        "b",
        "protocol",
        "objects S",
        "write rounds",
        "read rounds (no attack)",
        "read rounds (worst attack)",
    ]);

    for b in 1..=4usize {
        let t = b;

        // ABD, crash-only ancestor (no Byzantine column: b is meaningless).
        if b == 1 {
            let cfg = StorageConfig::crash_only(t, 1);
            let quiet = measure(AbdProtocol::default(), cfg, no_attack());
            table.row_owned(vec![
                "0 (crash-only)".into(),
                "ABD [ABD95]".into(),
                cfg.s.to_string(),
                "1".into(),
                quiet.to_string(),
                "n/a (no Byzantine tolerance)".into(),
            ]);
        }

        // The paper's safe storage at optimal resilience.
        let cfg = StorageConfig::optimal(t, b, 1);
        let quiet = measure(safe, cfg, no_attack());
        let attacked = measure(safe, cfg, inflator_attack(cfg.b));
        table.row_owned(vec![
            b.to_string(),
            "paper §4 (active reader)".into(),
            cfg.s.to_string(),
            "2".into(),
            quiet.to_string(),
            attacked.to_string(),
        ]);
        assert_eq!(quiet, 2);
        assert_eq!(attacked, 2, "the paper's bound: always exactly 2");

        // Passive b+1-round baseline at optimal resilience.
        let quiet = measure(PassiveProtocol, cfg, no_attack());
        let attacked = measure(PassiveProtocol, cfg, lite_serial_attack(b));
        table.row_owned(vec![
            b.to_string(),
            "passive reader [ACKM04]".into(),
            cfg.s.to_string(),
            "2".into(),
            quiet.to_string(),
            attacked.to_string(),
        ]);
        assert_eq!(quiet, 1);
        assert_eq!(attacked as usize, b + 1, "passive worst case is b+1 rounds");

        // The paper's reader at masking sizing (S = 2t+2b+1): the sound
        // one-round fast path. Quiet reads finish in round 1; the worst an
        // attacker achieves is the two-round fallback — unlike the masking
        // baseline below, nothing is given up when the fast check fails.
        let fcfg = StorageConfig::fast(t, b, 1);
        let quiet = measure(safe, fcfg, no_attack());
        let attacked = measure(safe, fcfg, inflator_attack(fcfg.b));
        table.row_owned(vec![
            b.to_string(),
            "paper §4 + fast path (S = 2t+2b+1)".into(),
            format!("{} (= S_opt + {b})", fcfg.s),
            "2".into(),
            quiet.to_string(),
            attacked.to_string(),
        ]);
        assert_eq!(quiet, 1, "fast path must fire fault-free");
        assert!(attacked <= 2, "worst case is the two-round fallback");

        // Masking fast read with b extra objects.
        let mcfg = StorageConfig::with_objects(masking_object_count(t, b), t, b, 1);
        let quiet = measure(MaskingProtocol, mcfg, no_attack());
        let attacked = measure(MaskingProtocol, mcfg, lite_inflator_attack(b));
        table.row_owned(vec![
            b.to_string(),
            "masking fast read [MR98]".into(),
            format!("{} (= S_opt + {b})", mcfg.s),
            "1".into(),
            quiet.to_string(),
            attacked.to_string(),
        ]);
        assert_eq!(quiet, 1);
        assert_eq!(attacked, 1);

        // The atomic extension: stronger semantics, one more round.
        let quiet = measure(atomic, cfg, no_attack());
        let attacked = measure(atomic, cfg, inflator_attack(cfg.b));
        table.row_owned(vec![
            b.to_string(),
            "atomic write-back (extension)".into(),
            cfg.s.to_string(),
            "2".into(),
            quiet.to_string(),
            attacked.to_string(),
        ]);
        assert_eq!(quiet, 3, "atomicity costs the write-back round");
        assert_eq!(attacked, 3);
    }

    table.print("Worst-case read rounds vs b (t = b), measured");
    println!(
        "\nPaper check: at optimal resilience the paper's 2-round read ties the passive \
         baseline at b = 1 and beats it for every b ≥ 2 (crossover at b = 2, factor \
         (b+1)/2 unbounded); 1-round reads exist only with b extra objects — and at \
         that sizing the paper's own reader takes them via the sound fast path, \
         degrading to 2 rounds (not to masking's blind spot) when the check fails. ✔"
    );
}
