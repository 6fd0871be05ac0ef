//! The omniscient attack that makes the `conflict` predicate load-bearing
//! (Lemma 3, case 2.b).
//!
//! Everywhere else in the test suite the conflict check looks redundant:
//! no reactive attacker can exploit its absence, because a forged candidate
//! the quorum contradicts is eliminated, and a forged candidate nobody
//! contradicts never gathers accusations. The one scenario that needs the
//! check is the paper's case (2.b): a Byzantine object reports, in the
//! read's **first** round, the exact `⟨tsval, tsrarray⟩` tuple that a
//! **concurrent write is about to assemble**, poisoned entries included.
//! Only an adversary that knows the future can do this — and in a
//! deterministic simulator, the test author is that adversary: the tuple
//! is hand-computed below.
//!
//! Outcome: with the conflict check disabled the read blocks forever
//! (supporters stay below `b+1`, contradictors below `t+b+1`); with the
//! check enabled the poisoned prediction stalls round 1 instead, which
//! prevents the poisoning from coming true, turns the prediction into an
//! ordinary eliminable forgery, and the read terminates. Exactly the
//! dichotomy of Lemma 3.
//!
//! Cast (t = b = 2, S = 7, one reader r0):
//!   s0 = m1  malicious: predicts the write's tuple in its round-1 reply
//!   s1 = m2  malicious: acks the writer, silent towards the reader
//!   s2       correct:   the lone supporter (write reaches it first)
//!   s3, s4   correct:   the poisoned pair (READ2 before PW ⇒ tsr = 2)
//!   s5, s6   correct:   bystanders (PW held until the end)

use std::collections::BTreeMap;

use vrr::core::{
    Msg, ProtocolKind, ProtocolSpec, ReadRound, ReaderTuning, RegisterProtocol, StorageConfig,
    StorageScenario, Timestamp, TsVal, TsrMatrix, WTuple,
};
use vrr::sim::{from_fn, Action, Context, Envelope};

const V: u64 = 4242;

/// The tuple the writer will assemble in the attacked run: write #1 of V,
/// with the reader-timestamp matrix collected from PW acks of
/// {m1, m2, s2 (empty rows), s3, s4 (tsr = 2 — the poison)}.
fn predicted_tuple() -> WTuple<u64> {
    let mut m = TsrMatrix::empty();
    m.set_row(0, BTreeMap::new());
    m.set_row(1, BTreeMap::new());
    m.set_row(2, BTreeMap::new());
    m.set_row(3, BTreeMap::from([(0usize, 2u64)]));
    m.set_row(4, BTreeMap::from([(0usize, 2u64)]));
    WTuple::new(TsVal::new(Timestamp(1), V), m)
}

/// m1: replies to READ1 with the predicted tuple; acks writer messages
/// with an empty reader-timestamp row; ignores READ2.
fn m1() -> Box<dyn vrr::sim::Automaton<Msg<u64>>> {
    from_fn(
        move |fromp, msg: Msg<u64>, ctx: &mut Context<'_, Msg<u64>>| match msg {
            Msg::Read {
                round: ReadRound::R1,
                tsr,
                ..
            } => {
                let c = predicted_tuple();
                ctx.send(
                    fromp,
                    Msg::ReadAckSafe {
                        round: ReadRound::R1,
                        tsr,
                        pw: c.tsval.clone(),
                        w: c,
                    },
                );
            }
            Msg::Pw { ts, .. } => ctx.send(
                fromp,
                Msg::PwAck {
                    ts,
                    tsr: BTreeMap::new(),
                },
            ),
            Msg::W { ts, .. } => ctx.send(fromp, Msg::WAck { ts }),
            _ => {}
        },
    )
}

/// m2: acks the writer (empty row), never talks to readers.
fn m2() -> Box<dyn vrr::sim::Automaton<Msg<u64>>> {
    from_fn(
        move |fromp, msg: Msg<u64>, ctx: &mut Context<'_, Msg<u64>>| {
            if let Msg::Pw { ts, .. } = msg {
                ctx.send(
                    fromp,
                    Msg::PwAck {
                        ts,
                        tsr: BTreeMap::new(),
                    },
                )
            }
        },
    )
}

/// Deploys `protocol` with the cast above and the attack's holds in place:
/// everything reader→s2 (both rounds); PW to the bystanders; W to everyone
/// except s2 and the malicious pair.
fn stage<P>(protocol: P) -> StorageScenario<u64, P>
where
    P: RegisterProtocol<u64, Msg = Msg<u64>>,
{
    let cfg = StorageConfig::optimal(2, 2, 1); // S = 7
    let mut sc = StorageScenario::deploy(protocol, cfg, 1);
    sc.byzantine_object(0, m1());
    sc.byzantine_object(1, m2());

    let (s3, s4, s5, s6) = (sc.object(3), sc.object(4), sc.object(5), sc.object(6));
    let (from, to) = (sc.reader(0), sc.object(2));
    sc.world_mut().adversary_mut().hold_link(from, to);
    let adversary = sc.world_mut().adversary_mut();
    adversary.install("hold PW to bystanders", move |e| {
        (matches!(e.msg, Msg::Pw { .. }) && (e.to == s5 || e.to == s6)).then_some(Action::Hold)
    });
    adversary.install("hold W to s3..s6", move |e| {
        (matches!(e.msg, Msg::W { .. }) && (e.to == s3 || e.to == s4 || e.to == s5 || e.to == s6))
            .then_some(Action::Hold)
    });
    sc
}

/// A held round-2 READ addressed to `s2`.
fn is_read2_to(s2: vrr::sim::ProcessId) -> impl Fn(&Envelope<Msg<u64>>) -> bool {
    move |e| {
        e.to == s2
            && matches!(
                e.msg,
                Msg::Read {
                    round: ReadRound::R2,
                    ..
                }
            )
    }
}

/// Runs the orchestrated schedule against `protocol`; returns the read's
/// value if it completed.
fn run_attack<P>(protocol: P) -> Option<Option<u64>>
where
    P: RegisterProtocol<u64, Msg = Msg<u64>>,
{
    let mut sc = stage(protocol);
    let s2 = sc.object(2);

    // Step 1: the read begins. m1 answers round 1 with the prediction;
    // s3..s6 answer honestly. Without the conflict check the read advances
    // to round 2 and s3, s4, s5, s6 bump their reader timestamps to 2;
    // with the check, round 1 stalls (the predicted tuple accuses s3, s4).
    let rd = sc.start_read(0);
    sc.world_mut().run_until_idle(200_000);

    // Step 2: the concurrent write. PW reaches m1, m2, s2 (rows: empty)
    // and s3, s4 (rows: whatever their tsr is — 2 in the mutant run,
    // 1 in the real run). The writer assembles its tuple from exactly
    // those five acks and sends W, which only s2 receives.
    let wr = sc.start_write(V);
    sc.world_mut().run_until_idle(200_000);

    // Step 3: s2 — now holding the genuine tuple — finally hears from the
    // reader. In the mutant run that is the round-2 message (its round-1
    // message arrives later, stale); s2's reply makes it the lone
    // supporter of the predicted tuple. In the real run no round-2
    // message exists yet; s2 answers round 1 with the genuine tuple,
    // which eliminates the prediction and unblocks the quorum.
    sc.world_mut().release_held(is_read2_to(s2));
    sc.world_mut().run_until_idle(200_000);
    sc.world_mut().release_held(|e| e.to == s2);
    sc.world_mut().run_until_idle(200_000);

    // Step 4: asynchrony ends — every held message arrives (late PWs, the
    // W round to the rest). The write completes; nothing here re-answers
    // the reader's old requests.
    sc.world_mut().adversary_mut().clear();
    sc.world_mut().release_all();
    sc.world_mut().run_until_idle(200_000);

    assert!(
        wr.poll().is_some(),
        "the write must complete once messages flow"
    );
    rd.poll().map(|r| r.value)
}

#[test]
fn without_conflict_check_the_omniscient_attack_blocks_the_read() {
    let mutant = ProtocolSpec::Safe(ReaderTuning {
        conflict_check: false,
        ..ReaderTuning::default()
    });
    let outcome = run_attack(mutant);
    assert_eq!(
        outcome, None,
        "no conflict check: the predicted tuple must wedge the read \
         (supporters 2 < b+1 = 3, contradictors 4 < t+b+1 = 5)"
    );
}

#[test]
fn with_conflict_check_the_same_strategy_terminates() {
    let outcome = run_attack(ProtocolKind::Safe);
    let value = outcome.expect("the real protocol must terminate under the same strategy");
    // The stalled round 1 keeps READ2 unsent, so s3/s4 never report reader
    // timestamp 2, the genuine tuple is born unpoisoned, the prediction
    // dies by elimination — and the late-discovered genuine tuple is
    // likewise outvoted by the pre-write replies. The read returns ⊥,
    // which is legal: it is concurrent with the write.
    assert!(
        value.is_none() || value == Some(V),
        "a concurrent read may return ⊥ or the in-flight value, got {value:?}"
    );
}

/// The mechanism check: in the mutant run the reader really is wedged in
/// the state the paper describes — the predicted tuple is a live, high,
/// unsafe candidate.
#[test]
fn the_blocked_state_matches_lemma3_arithmetic() {
    let mutant = ProtocolSpec::Safe(ReaderTuning {
        conflict_check: false,
        ..ReaderTuning::default()
    });
    let mut sc = stage(mutant);
    let (reader, s2) = (sc.reader(0), sc.object(2));

    sc.start_read(0);
    sc.world_mut().run_until_idle(200_000);
    sc.start_write(V);
    sc.world_mut().run_until_idle(200_000);

    // The writer assembled exactly the predicted tuple.
    sc.world()
        .inspect(sc.writer(), |w: &vrr::core::Writer<u64>| {
            assert_eq!(w.current_ts(), Timestamp(1));
        });
    // s2 received the genuine W round and holds the predicted tuple.
    sc.world_mut().release_held(is_read2_to(s2));
    sc.world_mut().run_until_idle(200_000);
    sc.world()
        .inspect(s2, |o: &vrr::core::safe::SafeObject<u64>| {
            assert_eq!(*o.w(), predicted_tuple(), "the prediction came true");
        });
    // The reader is stuck with one live candidate it can neither confirm
    // nor eliminate.
    sc.world()
        .inspect(reader, |r: &vrr::core::safe::SafeReader<u64>| {
            assert!(!r.is_idle(), "the read must still be in flight");
            assert_eq!(
                r.candidate_count(),
                2,
                "the prediction and w0 are both live"
            );
        });
}
