//! Wire round-trip property tests: every `Msg` variant, every client
//! protocol frame, and the envelope framing itself survive
//! encode → (arbitrary re-chunking) → decode bit-exactly.
//!
//! Values are generated from a per-case seed with a SplitMix64, so
//! each of the 256 cases exercises *all* message variants (not a random
//! subset), including degenerate sizes (empty histories, `None` values)
//! and the PR 4 reader-ack field on `Msg::Read`.

mod common;

use std::collections::BTreeMap;

use common::Gen;
use proptest::prelude::*;
use vrr_core::metrics::{names, Registry};
use vrr_core::wire::{decode_exact, Wire};
use vrr_core::{HistEntry, History, Msg, ReadRound, Timestamp, TsVal, TsrMatrix, WTuple};
use vrr_net::frame::{
    decode_body, encode_frame, Ctl, Envelope, FrameReader, Op, Payload, Rsp, CLIENT_NODE,
};

fn arb_ts(g: &mut Gen) -> Timestamp {
    // Mix tiny, mid and extreme timestamps.
    match g.below(4) {
        0 => Timestamp(g.below(8)),
        1 => Timestamp(g.next()),
        2 => Timestamp(u64::MAX),
        _ => Timestamp::ZERO,
    }
}

fn arb_tsval(g: &mut Gen) -> TsVal<u64> {
    if g.below(4) == 0 {
        TsVal::bottom()
    } else {
        TsVal::new(arb_ts(g), g.next())
    }
}

fn arb_matrix(g: &mut Gen) -> TsrMatrix {
    let mut m = TsrMatrix::empty();
    for i in 0..g.below(4) as usize {
        let mut row = BTreeMap::new();
        for j in 0..g.below(4) as usize {
            row.insert(j, g.next());
        }
        m.set_row(i, row);
    }
    m
}

fn arb_wtuple(g: &mut Gen) -> WTuple<u64> {
    WTuple::new(arb_tsval(g), arb_matrix(g))
}

fn arb_entry(g: &mut Gen) -> HistEntry<u64> {
    HistEntry {
        pw: arb_tsval(g),
        w: if g.below(3) == 0 {
            None
        } else {
            Some(arb_wtuple(g))
        },
    }
}

fn arb_history(g: &mut Gen) -> History<u64> {
    let mut h = if g.below(2) == 0 {
        History::empty()
    } else {
        History::initial()
    };
    for _ in 0..g.below(6) {
        h.insert(arb_ts(g), arb_entry(g));
    }
    h
}

/// One message of the variant with wire tag `tag` (0..=6).
fn arb_msg(tag: u8, g: &mut Gen) -> Msg<u64> {
    match tag {
        0 => Msg::Pw {
            ts: arb_ts(g),
            pw: arb_tsval(g),
            w: arb_wtuple(g),
        },
        1 => Msg::PwAck {
            ts: arb_ts(g),
            tsr: (0..g.below(5) as usize).map(|j| (j, g.next())).collect(),
        },
        2 => Msg::W {
            ts: arb_ts(g),
            pw: arb_tsval(g),
            w: arb_wtuple(g),
        },
        3 => Msg::WAck { ts: arb_ts(g) },
        4 => Msg::Read {
            round: if g.below(2) == 0 {
                ReadRound::R1
            } else {
                ReadRound::R2
            },
            reader: g.below(64) as usize,
            tsr: g.next(),
            since: if g.below(2) == 0 {
                None
            } else {
                Some(arb_ts(g))
            },
            // The PR 4 history-GC ack: must survive the wire untouched.
            ack: arb_ts(g),
        },
        5 => Msg::ReadAckSafe {
            round: if g.below(2) == 0 {
                ReadRound::R1
            } else {
                ReadRound::R2
            },
            tsr: g.next(),
            pw: arb_tsval(g),
            w: arb_wtuple(g),
        },
        6 => Msg::ReadAckRegular {
            round: if g.below(2) == 0 {
                ReadRound::R1
            } else {
                ReadRound::R2
            },
            tsr: g.next(),
            history: arb_history(g),
        },
        7 => Msg::WriteBack { w: arb_wtuple(g) },
        _ => unreachable!("8 Msg variants"),
    }
}

fn arb_string(g: &mut Gen) -> String {
    (0..g.below(40))
        .map(|_| char::from(b' ' + (g.below(94) as u8)))
        .collect()
}

fn arb_bytes(g: &mut Gen) -> Vec<u8> {
    (0..g.below(24)).map(|_| g.next() as u8).collect()
}

/// A registry of a few counters, gauges and histograms under arbitrary
/// labels — what `Rsp::StoreMetrics` carries.
fn arb_registry(g: &mut Gen) -> Registry {
    let mut reg = Registry::new();
    for _ in 0..g.below(5) {
        let (object, shard) = (g.below(8).to_string(), g.below(4).to_string());
        let labels = [("object", &*object), ("shard", &*shard)];
        match g.below(3) {
            0 => reg.counter_add(names::NET_SENT, &labels, g.next() >> 1),
            1 => reg.gauge_set(names::OBJECT_HISTORY_LEN, &labels, g.next()),
            _ => reg.observe(names::READER_ROUNDS, &labels, g.below(4)),
        }
    }
    reg
}

/// The client-protocol op tags: 0..=16 but the retired 1, 2, 4, 6 and 14.
const OP_TAGS: [u8; 12] = [0, 3, 5, 7, 8, 9, 10, 11, 12, 13, 15, 16];

fn arb_op(tag: u8, g: &mut Gen) -> Op<u64> {
    match tag {
        0 => Op::Ping,
        3 => Op::CrashPid { pid: g.next() },
        5 => Op::ResetPeer {
            node: g.next() as u32,
        },
        7 => Op::Shutdown,
        8 => Op::WriteKey {
            key: arb_bytes(g),
            value: g.next(),
        },
        9 => Op::ReadKey {
            key: arb_bytes(g),
            reader: g.next() as u32,
        },
        10 => Op::ReleaseKey { key: arb_bytes(g) },
        11 => Op::StoreKeys,
        12 => Op::SlotOfKey { key: arb_bytes(g) },
        13 => Op::CrashShard {
            slot: g.next() as u32,
            object: g.next() as u32,
        },
        15 => Op::StoreInfo,
        16 => Op::StoreMetrics {
            cluster: (g.below(2) == 0).then(|| g.next() as u32),
        },
        _ => unreachable!("not in OP_TAGS"),
    }
}

/// The client-protocol response tags: 0..=16 but the retired 4, 6 and 14.
const RSP_TAGS: [u8; 14] = [0, 1, 2, 3, 5, 7, 8, 9, 10, 11, 12, 13, 15, 16];

fn arb_rsp(tag: u8, g: &mut Gen) -> Rsp<u64> {
    match tag {
        0 => Rsp::Pong,
        1 => Rsp::Wrote {
            ts: arb_ts(g),
            rounds: g.below(3) as u32,
        },
        2 => Rsp::ReadOk {
            value: if g.below(2) == 0 {
                None
            } else {
                Some(g.next())
            },
            ts: arb_ts(g),
            rounds: g.below(3) as u32,
            fast: g.below(2) == 0,
        },
        3 => Rsp::Crashed,
        5 => Rsp::PeerReset {
            closed: g.next() as u32,
        },
        7 => Rsp::ShuttingDown,
        8 => Rsp::Err {
            what: arb_string(g),
        },
        9 => Rsp::NoKey,
        10 => Rsp::OverCapacity {
            capacity: g.next() as u32,
        },
        11 => Rsp::Released {
            slot: (g.below(2) == 0).then(|| g.next() as u32),
        },
        12 => Rsp::StoreKeys {
            keys: (0..g.below(4)).map(|_| arb_bytes(g)).collect(),
        },
        13 => Rsp::Slot {
            slot: g.next() as u32,
        },
        15 => Rsp::StoreInfo {
            keys: g.next() as u32,
        },
        16 => Rsp::StoreMetrics {
            registry: arb_registry(g),
        },
        _ => unreachable!("not in RSP_TAGS"),
    }
}

fn assert_roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
    let bytes = v.to_wire_vec();
    let back: T = decode_exact(&bytes).expect("decodes");
    assert_eq!(&back, v);
}

/// Frames `env` and replays its bytes through a [`FrameReader`] in
/// `g`-chosen chunk sizes (1..=17 bytes), as a socket might deliver them.
fn assert_framed_roundtrip(env: &Envelope<u64>, g: &mut Gen) {
    let frame = encode_frame(env);
    let mut r = FrameReader::new();
    let mut fed = 0;
    let mut got = None;
    while fed < frame.len() {
        let chunk = (1 + g.below(17) as usize).min(frame.len() - fed);
        r.extend(&frame[fed..fed + chunk]);
        fed += chunk;
        if let Some(body) = r.next_frame().expect("well-formed frame") {
            got = Some(body);
        }
    }
    let body = got.expect("frame completes once all bytes arrive");
    assert_eq!(&decode_body::<u64>(&body).expect("body decodes"), env);
    assert!(r.next_frame().unwrap().is_none());
    assert_eq!(r.pending(), 0, "no bytes left over");
}

proptest! {
    /// 256 seeds × all 8 protocol-message variants each.
    #[test]
    fn every_msg_variant_roundtrips(seed in any::<u64>()) {
        let mut g = Gen(seed);
        for tag in 0..8u8 {
            let msg = arb_msg(tag, &mut g);
            assert_roundtrip(&msg);
        }
    }

    /// 256 seeds × all 8 variants, wrapped in envelopes and re-chunked
    /// through the incremental frame reader.
    #[test]
    fn peer_envelopes_survive_rechunking(seed in any::<u64>()) {
        let mut g = Gen(seed);
        for tag in 0..8u8 {
            let env = Envelope {
                source: g.next() as u32,
                epoch: g.next() as u32,
                seq: g.next(),
                payload: Payload::Peer {
                    from: g.next(),
                    to: g.next(),
                    msg: arb_msg(tag, &mut g),
                },
            };
            assert_framed_roundtrip(&env, &mut g);
        }
    }

    /// 256 seeds × every client-protocol op and response variant.
    #[test]
    fn client_protocol_frames_roundtrip(seed in any::<u64>()) {
        let mut g = Gen(seed);
        for tag in OP_TAGS {
            let env = Envelope {
                source: CLIENT_NODE,
                epoch: 0,
                seq: g.next(),
                payload: Payload::Ctl(Ctl::Request { id: g.next(), op: arb_op(tag, &mut g) }),
            };
            assert_framed_roundtrip(&env, &mut g);
        }
        for tag in RSP_TAGS {
            let env = Envelope {
                source: g.next() as u32,
                epoch: g.next() as u32,
                seq: g.next(),
                payload: Payload::Ctl(Ctl::Response { id: g.next(), rsp: arb_rsp(tag, &mut g) }),
            };
            assert_framed_roundtrip(&env, &mut g);
        }
        let hello = Envelope::<u64> {
            source: g.next() as u32,
            epoch: g.next() as u32,
            seq: g.next(),
            payload: Payload::Ctl(Ctl::Hello { node: g.next() as u32, epoch: g.next() as u32 }),
        };
        assert_framed_roundtrip(&hello, &mut g);
    }
}

/// Extreme-size values: everything pinned to its maximum.
#[test]
fn max_size_values_roundtrip() {
    let mut big_row = BTreeMap::new();
    for j in 0..32usize {
        big_row.insert(j, u64::MAX);
    }
    let mut matrix = TsrMatrix::empty();
    for i in 0..32usize {
        matrix.set_row(i, big_row.clone());
    }
    let mut history = History::initial();
    for k in 0..200u64 {
        history.insert(
            Timestamp(u64::MAX - k),
            HistEntry {
                pw: TsVal::new(Timestamp(u64::MAX), u64::MAX),
                w: Some(WTuple::new(
                    TsVal::new(Timestamp(u64::MAX), u64::MAX),
                    matrix.clone(),
                )),
            },
        );
    }
    let msg = Msg::ReadAckRegular {
        round: ReadRound::R2,
        tsr: u64::MAX,
        history,
    };
    assert_roundtrip(&msg);

    let read = Msg::<u64>::Read {
        round: ReadRound::R2,
        reader: usize::MAX >> 1,
        tsr: u64::MAX,
        since: Some(Timestamp(u64::MAX)),
        ack: Timestamp(u64::MAX),
    };
    assert_roundtrip(&read);

    let text = Rsp::<u64>::Err {
        what: "métrique\u{1F680}".repeat(2_000),
    };
    assert_roundtrip(&text);
}

/// The reader-ack GC field is encoded distinctly (not aliased with any
/// neighbouring field).
#[test]
fn read_ack_field_is_independent() {
    let base = Msg::<u64>::Read {
        round: ReadRound::R1,
        reader: 3,
        tsr: 9,
        since: None,
        ack: Timestamp(5),
    };
    let mut other = base.clone();
    if let Msg::Read { ack, .. } = &mut other {
        *ack = Timestamp(6);
    }
    assert_ne!(base.to_wire_vec(), other.to_wire_vec());
    let back: Msg<u64> = decode_exact(&other.to_wire_vec()).unwrap();
    assert!(matches!(back, Msg::Read { ack, .. } if ack == Timestamp(6)));
}
