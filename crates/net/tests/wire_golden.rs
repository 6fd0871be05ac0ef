//! Golden wire vectors: one pinned byte string per variant of every tagged
//! enum that crosses a socket (`Msg`, `ReadRound`, `Payload`, `Ctl`, `Op`,
//! `Rsp`, and `metrics::Series` through the `Registry` that carries it) and
//! per table-declared struct (`TsVal`, `WTuple`, `HistEntry`, `Envelope`),
//! in `golden/wire.txt` as `name = hex` lines.
//!
//! They were recorded before the codec moved onto the `wire_enum!` /
//! `wire_struct!` table and must never move: `encode` reproduces each one
//! byte for byte and `decode_exact` returns the value. The same list is the
//! malformed corpus — every strict prefix of every vector is a typed
//! `Truncated` / `Oversized` / `BadTag`, never a panic and never an `Ok` —
//! and the first unused tag of each enum, and every tag `Op` and `Rsp`
//! retired, is a `BadTag` naming that enum.
//! A mismatch prints the line as the tree encodes it today; re-pin one only
//! for a deliberate format change, and say so.

use std::collections::BTreeMap;
use std::fmt::Debug;

use vrr_core::metrics::{names, Registry};
use vrr_core::wire::{decode_exact, Wire, WireError};
use vrr_core::{HistEntry, History, ReadRound, Timestamp, TsVal, TsrMatrix, WTuple};

type Msg = vrr_core::Msg<u64>;
type Payload = vrr_net::frame::Payload<u64>;
type Ctl = vrr_net::frame::Ctl<u64>;
type Op = vrr_net::frame::Op<u64>;
type Rsp = vrr_net::frame::Rsp<u64>;

/// The pinned vectors not yet checked, and every failure so far — one run
/// reports them all.
struct Table {
    pinned: BTreeMap<&'static str, &'static str>,
    failures: Vec<String>,
}

impl Table {
    /// One golden vector: `value` encodes to exactly the bytes pinned under
    /// `name`, decodes back from them, and none of their strict prefixes
    /// decodes or panics.
    fn pin<T: Wire + PartialEq + Debug>(&mut self, name: &str, value: T) {
        let bytes = value.to_wire_vec();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        if self.pinned.remove(name) != Some(&hex) {
            return self.failures.push(format!("{name} = {hex}"));
        }
        match decode_exact::<T>(&bytes) {
            Ok(back) if back == value => {}
            other => self
                .failures
                .push(format!("{name}: decodes to {other:?}, wanted {value:?}")),
        }
        for cut in 0..bytes.len() {
            match decode_exact::<T>(&bytes[..cut]) {
                Err(
                    WireError::Truncated { .. }
                    | WireError::Oversized { .. }
                    | WireError::BadTag { .. },
                ) => {}
                other => self
                    .failures
                    .push(format!("{name}: its first {cut} bytes gave {other:?}")),
            }
        }
    }

    /// `bytes` ends in a tag that the enum `what` does not assign.
    fn bad_tag<T: Wire + Debug>(&mut self, what: &'static str, bytes: &[u8]) {
        let tag = *bytes.last().expect("the tag byte");
        match decode_exact::<T>(bytes) {
            Err(WireError::BadTag { what: w, tag: t }) if w == what && t == tag => {}
            other => self
                .failures
                .push(format!("{what}: unused tag {tag} gave {other:?}")),
        }
    }
}

fn wtuple() -> WTuple<u64> {
    let mut m = TsrMatrix::empty();
    m.set_row(0, BTreeMap::from([(0, 3), (1, 9)]));
    m.set_row(2, BTreeMap::new());
    WTuple::new(TsVal::new(Timestamp(1), 11), m)
}

fn history() -> History<u64> {
    let mut h = History::initial();
    let (pw, w) = (TsVal::new(Timestamp(1), 11), Some(wtuple()));
    h.insert(Timestamp(1), HistEntry { pw, w });
    let pw = TsVal::new(Timestamp(2), 22);
    h.insert(Timestamp(2), HistEntry { pw, w: None });
    h
}

/// A registry holding exactly one series, so its bytes pin one `Series`
/// variant (the enum itself is private to `vrr_core::metrics`).
fn one_series(record: impl FnOnce(&mut Registry)) -> Registry {
    let mut reg = Registry::new();
    record(&mut reg);
    reg
}

/// The table: one line per vector, in tag order (hence `rustfmt::skip`).
#[test]
#[rustfmt::skip]
fn every_variant_keeps_its_bytes_and_every_prefix_is_a_typed_error() {
    let pinned = include_str!("golden/wire.txt").lines();
    let pinned = pinned.map(|line| line.split_once(" = ").expect("name = hex")).collect();
    let mut t = Table { pinned, failures: Vec::new() };
    let key = || b"k1".to_vec();
    let pw = || TsVal::new(Timestamp(1), 5u64);
    let (ts, r1, r2) = (Timestamp(1), ReadRound::R1, ReadRound::R2);

    // vrr_core::wire.
    t.pin("TsVal bottom", TsVal::<u64>::bottom());
    t.pin("TsVal", TsVal::new(Timestamp(3), 7u64));
    t.pin("WTuple", wtuple());
    t.pin("HistEntry pw only", HistEntry { pw: pw(), w: None });
    t.pin("HistEntry", HistEntry { pw: pw(), w: Some(wtuple()) });
    t.pin("ReadRound::R1", r1);
    t.pin("ReadRound::R2", r2);
    t.pin("Msg::Pw", Msg::Pw { ts, pw: pw(), w: WTuple::initial() });
    t.pin("Msg::PwAck", Msg::PwAck { ts, tsr: BTreeMap::from([(0, 1), (1, 0)]) });
    t.pin("Msg::W", Msg::W { ts, pw: pw(), w: wtuple() });
    t.pin("Msg::WAck", Msg::WAck { ts });
    let (since, ack) = (Some(Timestamp(4)), Timestamp(3));
    t.pin("Msg::Read", Msg::Read { round: r1, reader: 2, tsr: 7, since, ack });
    let w = WTuple::initial();
    t.pin("Msg::ReadAckSafe", Msg::ReadAckSafe { round: r2, tsr: 7, pw: pw(), w });
    t.pin("Msg::ReadAckRegular", Msg::ReadAckRegular { round: r1, tsr: 7, history: history() });
    t.pin("Msg::WriteBack", Msg::WriteBack { w: wtuple() });

    // vrr_net::frame — Envelope, Payload, Ctl.
    let peer = || Payload::Peer { from: 5, to: 0, msg: Msg::WAck { ts: Timestamp(3) } };
    t.pin("Envelope", vrr_net::frame::Envelope { source: 2, epoch: 1, seq: 99, payload: peer() });
    t.pin("Payload::Peer", peer());
    let hello = || Ctl::Hello { node: vrr_net::frame::CLIENT_NODE, epoch: 3 };
    t.pin("Payload::Ctl", Payload::Ctl(hello()));
    t.pin("Ctl::Hello", hello());
    t.pin("Ctl::Request", Ctl::Request { id: 8, op: Op::Ping });
    t.pin("Ctl::Response", Ctl::Response { id: 8, rsp: Rsp::Pong });

    // vrr_net::frame — Op.
    t.pin("Op::Ping", Op::Ping);
    t.pin("Op::CrashPid", Op::CrashPid { pid: 9 });
    t.pin("Op::ResetPeer", Op::ResetPeer { node: 2 });
    t.pin("Op::Shutdown", Op::Shutdown);
    t.pin("Op::WriteKey", Op::WriteKey { key: key(), value: 7 });
    t.pin("Op::ReadKey", Op::ReadKey { key: key(), reader: 1 });
    t.pin("Op::ReleaseKey", Op::ReleaseKey { key: key() });
    t.pin("Op::StoreKeys", Op::StoreKeys);
    t.pin("Op::SlotOfKey", Op::SlotOfKey { key: key() });
    t.pin("Op::CrashShard", Op::CrashShard { slot: 2, object: 4 });
    t.pin("Op::StoreInfo", Op::StoreInfo);
    t.pin("Op::StoreMetrics", Op::StoreMetrics { cluster: Some(1) });

    // vrr_net::frame — Rsp.
    let ts = Timestamp(4);
    t.pin("Rsp::Pong", Rsp::Pong);
    t.pin("Rsp::Wrote", Rsp::Wrote { ts, rounds: 2 });
    t.pin("Rsp::ReadOk", Rsp::ReadOk { value: Some(7), ts, rounds: 2, fast: true });
    t.pin("Rsp::Crashed", Rsp::Crashed);
    t.pin("Rsp::PeerReset", Rsp::PeerReset { closed: 2 });
    t.pin("Rsp::ShuttingDown", Rsp::ShuttingDown);
    t.pin("Rsp::Err", Rsp::Err { what: "no such slot ⊥".into() });
    t.pin("Rsp::NoKey", Rsp::NoKey);
    t.pin("Rsp::OverCapacity", Rsp::OverCapacity { capacity: 40 });
    t.pin("Rsp::Released", Rsp::Released { slot: Some(3) });
    t.pin("Rsp::StoreKeys", Rsp::StoreKeys { keys: vec![b"a".to_vec(), vec![], b"bc".to_vec()] });
    t.pin("Rsp::Slot", Rsp::Slot { slot: 5 });
    t.pin("Rsp::StoreInfo", Rsp::StoreInfo { keys: 16 });
    let registry = one_series(|reg| reg.counter_add(names::WIRE_RETRIES, &[], 3));
    t.pin("Rsp::StoreMetrics", Rsp::StoreMetrics { registry });

    // vrr_core::metrics — Series, one variant per single-series registry.
    let labels = [("object", "0"), ("cluster", "1")];
    t.pin("Series::Counter", one_series(|reg| reg.counter_add(names::READER_FAST_HITS, &[], 2)));
    t.pin("Series::Gauge", one_series(|reg| reg.gauge_set(names::OBJECT_HISTORY_LEN, &labels, 3)));
    t.pin("Series::Histogram", one_series(|reg| reg.observe(names::READER_ROUNDS, &[], 2)));

    // The first tag each enum leaves unused (and ReadRound's 0: its tags
    // are the round numbers).
    t.bad_tag::<Msg>("Msg", &[8]);
    t.bad_tag::<ReadRound>("ReadRound", &[0]);
    t.bad_tag::<ReadRound>("ReadRound", &[3]);
    t.bad_tag::<Payload>("Payload", &[2]);
    t.bad_tag::<Ctl>("Ctl", &[3]);
    t.bad_tag::<Op>("Op", &[17]);
    // Op's retired tags (1 and 2 were the slot-addressed write and read, 4
    // the text metrics, 14 the history lengths): a client still speaking a
    // retired op gets a typed error, not another op; so does a retired
    // response.
    for retired in [1, 2, 4, 6, 14] {
        t.bad_tag::<Op>("Op", &[retired]);
    }
    t.bad_tag::<Rsp>("Rsp", &[17]);
    for retired in [4, 6, 14] {
        t.bad_tag::<Rsp>("Rsp", &[retired]);
    }
    // One family, one unlabelled series, then the series tag.
    let mut series = 1u32.to_wire_vec();
    names::NET_SENT.to_string().encode(&mut series);
    1u32.encode(&mut series);
    String::new().encode(&mut series);
    series.push(3);
    t.bad_tag::<Registry>("Series", &series);

    t.failures.extend(t.pinned.keys().map(|name| format!("{name}: never checked")));
    assert!(t.failures.is_empty(), "{} failures:\n{}", t.failures.len(), t.failures.join("\n"));
}
