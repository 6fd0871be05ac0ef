//! Figure 1, end to end: the lower-bound schedule executed in the real
//! simulator against real protocol automata (the function-level version
//! lives in `vrr-lowerbound`; this is the "it really happens on a wire"
//! check).
//!
//! Setting: `t = b = 1`, `S = 2t + 2b = 4`. Blocks: `T1 = {s0}`,
//! `T2 = {s1}`, `B1 = {s2}`, `B2 = {s3}`. We replay the `run5` flavour —
//! nothing is ever written, `B2` forges the post-write state `σ2` — against
//! a one-round-read protocol (ABD, which trusts the highest timestamp) and
//! watch it return a phantom value in a genuine run; the safety checker
//! convicts the history. The same schedule against the paper's 2-round
//! safe protocol and against the (non-fast, multi-round) passive baseline
//! is harmless — the two legal escapes from Proposition 1: pay a round, or
//! pay `b` extra objects.
//!
//! All three runs are scripted through the [`StorageScenario`] builder —
//! the Byzantine substitution and the slow link are scenario faults, not
//! hand-rolled adversary plumbing.

use vrr::baselines::{AbdProtocol, LiteMsg, LiteObject, PassiveProtocol};
use vrr::checker::{check_safety, OpHistory};
use vrr::core::{ProtocolKind, StorageConfig, StorageScenario, Timestamp, TsVal};
use vrr::sim::Tamper;

/// `B2` (object 3) forges σ2: replies as if write #1 of 42 had completed.
fn forge_sigma2() -> Box<dyn vrr::sim::Automaton<LiteMsg<u64>>> {
    Box::new(Tamper::new(LiteObject::<u64>::new(), |to, msg| {
        let msg = match msg {
            LiteMsg::ReadAck { nonce, .. } => {
                let pair = TsVal::new(Timestamp(1), 42u64);
                LiteMsg::ReadAck {
                    nonce,
                    pw: pair.clone(),
                    w: pair,
                }
            }
            other => other,
        };
        vec![(to, msg)]
    }))
}

#[test]
fn run5_schedule_breaks_a_fast_protocol_on_the_wire() {
    let cfg = StorageConfig::with_objects(4, 1, 1, 1);
    let abd = AbdProtocol::default(); // 1-round reads: "fast"
    let mut sc = StorageScenario::deploy(abd, cfg, 15);

    // B2 is malicious from the start; T2's link to the reader is slow.
    sc.byzantine_object(3, forge_sigma2());
    let (from, to) = (sc.reader(0), sc.object(1));
    sc.world_mut().adversary_mut().hold_link(from, to);

    // Nothing is ever written. The read hears S − t = 3 replies:
    // s0 (σ0), s2 (σ0), s3 (forged σ2) — and being fast, must decide.
    let invoked_at = sc.world().now().ticks();
    let rep = sc.read(0);
    let completed_at = sc.world().now().ticks();
    assert_eq!(rep.rounds, 1, "ABD reads are fast — that is the problem");
    assert_eq!(rep.value, Some(42), "the phantom value is believed");

    // The checker convicts the run.
    let mut h: OpHistory<u64> = OpHistory::new();
    h.push_read(0, rep.ts.0, rep.value, invoked_at, Some(completed_at));
    let err = check_safety(&h).expect_err("returning a never-written value is a violation");
    assert_eq!(err[0].kind, vrr::checker::ViolationKind::SafetyWrongValue);
}

#[test]
fn the_same_schedule_cannot_fool_the_papers_two_round_read() {
    let cfg = StorageConfig::with_objects(4, 1, 1, 1); // optimal: 2t+b+1 = 4
    let mut sc = StorageScenario::deploy(ProtocolKind::Safe, cfg, 15);

    sc.attack_object(3, vrr::core::attackers::AttackerKind::Inflator, 42u64);
    let (from, to) = (sc.reader(0), sc.object(1));
    let slow = sc.world_mut().adversary_mut().hold_link(from, to);

    // While T2's replies are in transit the reader cannot tell the liar's
    // candidate from a concurrent write it missed — so it REFUSES TO
    // ANSWER rather than guess (contrast ABD above, which guessed wrong).
    let op = sc.start_read(0);
    sc.world_mut().run_until_idle(200_000);
    assert!(op.poll().is_none(), "the safe reader must wait, not guess");

    // Asynchrony ends: T2's replies arrive, the forged candidate is
    // eliminated (t+b+1 objects contradict it), ⊥ is returned.
    sc.world_mut().adversary_mut().remove(slow);
    sc.world_mut().release_all();
    sc.world_mut().run_until_idle(200_000);
    let rep = op.poll().expect("completes once messages flow");
    assert_eq!(
        rep.value, None,
        "the forged candidate never reaches b+1 support"
    );
    assert_eq!(rep.rounds, 2, "the price of surviving: the second round");
}

#[test]
fn a_non_fast_protocol_survives_by_challenging() {
    let cfg = StorageConfig::with_objects(4, 1, 1, 1);
    let mut sc = StorageScenario::deploy(PassiveProtocol, cfg, 15);

    sc.byzantine_object(3, forge_sigma2());
    let (from, to) = (sc.reader(0), sc.object(1));
    sc.world_mut().adversary_mut().hold_link(from, to);

    let rep = sc.read(0);
    assert_eq!(
        rep.value, None,
        "the unconfirmed forgery is challenged and dies"
    );
    assert!(
        rep.rounds >= 2,
        "escaping Proposition 1 means not being fast: {} rounds",
        rep.rounds
    );
}
