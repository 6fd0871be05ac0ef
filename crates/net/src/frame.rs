//! The wire protocol: envelopes, the thin client protocol, and
//! length-prefixed framing.
//!
//! Every TCP segment stream is a sequence of *frames*: a `u32`
//! little-endian length prefix followed by exactly that many body bytes.
//! A frame body is one [`Envelope`] in the [`vrr_core::wire`] encoding.
//! Envelopes carry either a relayed protocol message ([`Payload::Peer`])
//! or a control message of the thin client protocol ([`Payload::Ctl`]).
//!
//! Decoding is defensive end to end: a declared length above
//! [`MAX_FRAME_LEN`] is rejected before any allocation, truncated prefixes
//! and bodies wait for more bytes (frames may arrive split across reads),
//! and garbage bodies surface as typed [`FrameError`]s — the reactor
//! closes the offending connection and keeps running.

use std::fmt;

use vrr_core::metrics::Registry;
use vrr_core::wire::{decode_exact, Wire, WireError};
use vrr_core::{wire_enum, wire_struct, Msg, Timestamp};

/// Hard upper bound on a frame body. Regular-protocol histories dominate
/// real frame sizes and stay far below this; anything larger is a corrupt
/// or hostile length prefix.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// A framing/decoding failure on one connection.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FrameError {
    /// The length prefix declared a body above [`MAX_FRAME_LEN`].
    Oversized {
        /// The declared body length.
        declared: u64,
    },
    /// The frame body did not decode as the expected type.
    Decode(WireError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversized { declared } => {
                write!(f, "frame length {declared} exceeds cap {MAX_FRAME_LEN}")
            }
            FrameError::Decode(e) => write!(f, "frame body: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Decode(e)
    }
}

/// One framed unit on the wire.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Envelope<V> {
    /// Sending node id (index into the topology's address list).
    pub source: u32,
    /// Sender incarnation; a restarted process announces a higher epoch.
    pub epoch: u32,
    /// Per-sender frame counter.
    pub seq: u64,
    /// What the frame carries.
    pub payload: Payload<V>,
}

/// An envelope's content.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Payload<V> {
    /// A protocol message relayed between automata in different OS
    /// processes: deliver `msg` to global pid `to` as if sent by `from`.
    Peer {
        /// Global pid of the sending automaton.
        from: u64,
        /// Global pid of the destination automaton.
        to: u64,
        /// The protocol message.
        msg: Msg<V>,
    },
    /// A thin-client-protocol message.
    Ctl(Ctl<V>),
}

/// The thin client protocol: handshakes plus request/response pairs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Ctl<V> {
    /// Peer handshake: sent once per connection by each side.
    Hello {
        /// The sender's node id, or [`CLIENT_NODE`] for thin clients.
        node: u32,
        /// The sender's incarnation.
        epoch: u32,
    },
    /// A client request; the server answers with the same `id`.
    Request {
        /// Client-chosen correlation id.
        id: u64,
        /// The operation.
        op: Op<V>,
    },
    /// A server response.
    Response {
        /// Echo of the request's correlation id.
        id: u64,
        /// The outcome.
        rsp: Rsp<V>,
    },
}

/// The node id thin clients announce in their [`Ctl::Hello`] — outside the
/// topology's range, so servers never route protocol traffic at a client.
pub const CLIENT_NODE: u32 = u32::MAX;

/// Client-protocol operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Op<V> {
    /// Liveness probe.
    Ping,
    /// Crash the automaton at a global pid hosted by the target node
    /// (fault injection).
    CrashPid {
        /// Global pid to crash.
        pid: u64,
    },
    /// Close every connection the target node holds to peer `node`
    /// (fault injection: a connection reset; undelivered frames are lost).
    ResetPeer {
        /// Peer node id.
        node: u32,
    },
    /// Ask the server process to exit cleanly.
    Shutdown,
    /// Blocking `WRITE(key, value)` against the target node's hosted
    /// key-value store (router-member mode). The target must be node 0, the
    /// front node hosting the writer and every reader; the objects may live
    /// on other nodes. Keys cross the wire as opaque bytes — the client
    /// encodes its own key type; the server never interprets them beyond
    /// equality and hashing.
    WriteKey {
        /// The key, in the client's own wire encoding.
        key: Vec<u8>,
        /// The value to write.
        value: V,
    },
    /// Blocking `READ(key)` at reader index `reader` of the key's register
    /// shard in the hosted store.
    ReadKey {
        /// The key, in the client's own wire encoding.
        key: Vec<u8>,
        /// Reader index within the key's shard.
        reader: u32,
    },
    /// Unbind `key` from the hosted store, retiring its shard slot — the
    /// source-side half of a router rebalance.
    ReleaseKey {
        /// The key, in the client's own wire encoding.
        key: Vec<u8>,
    },
    /// Enumerate every key currently bound in the hosted store (what a
    /// drain must move).
    StoreKeys,
    /// The shard slot serving `key` in the hosted store, if bound.
    SlotOfKey {
        /// The key, in the client's own wire encoding.
        key: Vec<u8>,
    },
    /// Crash base object `object` of shard `slot` in the hosted store
    /// (fault injection on a remote cluster member). Only the node hosting
    /// that object can; others answer [`Rsp::Err`] (use
    /// [`Op::CrashPid`] on the object's own node).
    CrashShard {
        /// Register-shard slot in the hosted store.
        slot: u32,
        /// Base-object index within the shard.
        object: u32,
    },
    /// How many keys the hosted store binds.
    StoreInfo,
    /// The node's structured metrics snapshot — the hosted store's and the
    /// transport's counters, what HTTP `GET /metrics` serves — with history
    /// gauges labelled `cluster="<cluster>"` when given, so a router can
    /// merge per-cluster snapshots across process boundaries.
    StoreMetrics {
        /// The cluster index to label the snapshot with.
        cluster: Option<u32>,
    },
}

/// Client-protocol responses.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Rsp<V> {
    /// Answer to [`Op::Ping`].
    Pong,
    /// Answer to [`Op::WriteKey`].
    Wrote {
        /// Timestamp the write got.
        ts: Timestamp,
        /// Round-trips used.
        rounds: u32,
    },
    /// Answer to [`Op::ReadKey`].
    ReadOk {
        /// The value read (`None` = the initial value `⊥`).
        value: Option<V>,
        /// Timestamp of the returned value.
        ts: Timestamp,
        /// Round-trips used.
        rounds: u32,
        /// Whether the one-round fast path completed the read.
        fast: bool,
    },
    /// Answer to [`Op::CrashPid`].
    Crashed,
    /// Answer to [`Op::ResetPeer`].
    PeerReset {
        /// How many connections were closed.
        closed: u32,
    },
    /// Answer to [`Op::Shutdown`]; the process exits after sending it.
    ShuttingDown,
    /// The request could not be served (wrong node, unknown slot, crashed
    /// target, …).
    Err {
        /// Human-readable reason.
        what: String,
    },
    /// Answer to [`Op::ReadKey`] / [`Op::SlotOfKey`] when the key is not
    /// bound in the hosted store.
    NoKey,
    /// Answer to [`Op::WriteKey`] when every shard slot of the hosted
    /// store is already bound — the typed capacity error, preserved across
    /// the wire.
    OverCapacity {
        /// The hosted store's provisioned shard count.
        capacity: u32,
    },
    /// Answer to [`Op::ReleaseKey`].
    Released {
        /// The retired slot, or `None` if the key was not bound.
        slot: Option<u32>,
    },
    /// Answer to [`Op::StoreKeys`].
    StoreKeys {
        /// Every bound key, in the client's own wire encoding (unordered).
        keys: Vec<Vec<u8>>,
    },
    /// Answer to [`Op::SlotOfKey`] for a bound key.
    Slot {
        /// The shard slot serving the key.
        slot: u32,
    },
    /// Answer to [`Op::StoreInfo`].
    StoreInfo {
        /// Keys currently bound.
        keys: u32,
    },
    /// Answer to [`Op::StoreMetrics`]: the structured registry snapshot
    /// (not Prometheus text), so counters and histograms merge correctly
    /// on the client side.
    StoreMetrics {
        /// The node's snapshot.
        registry: Registry,
    },
}

// The codec, stated once: each line is both directions of one variant
// (`vrr_core::wire_enum!`). A new request or response is one line here.
// Tags of retired variants stay unassigned, so the others keep their wire
// numbers and a client still sending a retired op gets a typed `BadTag`:
// `Op` leaves 1, 2, 4, 6 and 14 free, `Rsp` leaves 4, 6 and 14.

wire_struct!(Envelope<V> { source, epoch, seq, payload });

wire_enum!(Payload<V> { 0 => Peer { from, to, msg }, 1 => Ctl(ctl) });

wire_enum!(Ctl<V> {
    0 => Hello { node, epoch },
    1 => Request { id, op },
    2 => Response { id, rsp },
});

wire_enum!(Op<V> {
    0 => Ping,
    3 => CrashPid { pid },
    5 => ResetPeer { node },
    7 => Shutdown,
    8 => WriteKey { key, value },
    9 => ReadKey { key, reader },
    10 => ReleaseKey { key },
    11 => StoreKeys,
    12 => SlotOfKey { key },
    13 => CrashShard { slot, object },
    15 => StoreInfo,
    16 => StoreMetrics { cluster },
});

wire_enum!(Rsp<V> {
    0 => Pong,
    1 => Wrote { ts, rounds },
    2 => ReadOk { value, ts, rounds, fast },
    3 => Crashed,
    5 => PeerReset { closed },
    7 => ShuttingDown,
    8 => Err { what },
    9 => NoKey,
    10 => OverCapacity { capacity },
    11 => Released { slot },
    12 => StoreKeys { keys },
    13 => Slot { slot },
    15 => StoreInfo { keys },
    16 => StoreMetrics { registry },
});

/// Encodes `env` as one frame: length prefix + body.
pub fn encode_frame<V: Wire>(env: &Envelope<V>) -> Vec<u8> {
    let mut out = vec![0u8; 4];
    env.encode(&mut out);
    let body_len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&body_len.to_le_bytes());
    out
}

/// Decodes one frame *body* (the bytes after the length prefix) as an
/// envelope, requiring full consumption.
pub fn decode_body<V: Wire>(body: &[u8]) -> Result<Envelope<V>, FrameError> {
    Ok(decode_exact(body)?)
}

/// An incremental frame extractor: feed it bytes in whatever chunks the
/// socket produces, pop complete frame bodies out. Tolerates frames split
/// across arbitrarily many reads and multiple frames per read.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted once it outgrows the live tail.
    pos: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends raw bytes from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.pos > 0 && self.pos >= self.buf.len().saturating_sub(self.pos) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as a frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pops the next complete frame body, `Ok(None)` if more bytes are
    /// needed, or [`FrameError::Oversized`] on a hostile length prefix
    /// (the connection must then be torn down — the stream cannot be
    /// resynchronized).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let declared = u32::from_le_bytes(avail[..4].try_into().unwrap()) as usize;
        if declared > MAX_FRAME_LEN {
            return Err(FrameError::Oversized {
                declared: declared as u64,
            });
        }
        if avail.len() < 4 + declared {
            return Ok(None);
        }
        let body = avail[4..4 + declared].to_vec();
        self.pos += 4 + declared;
        Ok(Some(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ping_frame(seq: u64) -> Vec<u8> {
        encode_frame(&Envelope::<u64> {
            source: CLIENT_NODE,
            epoch: 0,
            seq,
            payload: Payload::Ctl(Ctl::Request {
                id: seq,
                op: Op::Ping,
            }),
        })
    }

    #[test]
    fn frame_roundtrip() {
        let env = Envelope::<u64> {
            source: 2,
            epoch: 1,
            seq: 99,
            payload: Payload::Peer {
                from: 5,
                to: 0,
                msg: Msg::WAck { ts: Timestamp(3) },
            },
        };
        let frame = encode_frame(&env);
        let mut r = FrameReader::new();
        r.extend(&frame);
        let body = r.next_frame().unwrap().expect("one frame");
        assert_eq!(decode_body::<u64>(&body).unwrap(), env);
        assert!(r.next_frame().unwrap().is_none());
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn split_across_reads_reassembles() {
        let frame = ping_frame(7);
        let mut r = FrameReader::new();
        for b in &frame[..frame.len() - 1] {
            r.extend(&[*b]);
            assert!(r.next_frame().unwrap().is_none(), "not complete yet");
        }
        r.extend(&[frame[frame.len() - 1]]);
        assert!(r.next_frame().unwrap().is_some());
    }

    #[test]
    fn multiple_frames_per_read() {
        let mut bytes = ping_frame(1);
        bytes.extend_from_slice(&ping_frame(2));
        bytes.extend_from_slice(&ping_frame(3)[..5]); // third arrives partially
        let mut r = FrameReader::new();
        r.extend(&bytes);
        assert!(r.next_frame().unwrap().is_some());
        assert!(r.next_frame().unwrap().is_some());
        assert!(r.next_frame().unwrap().is_none());
    }

    #[test]
    fn keyed_store_ops_roundtrip() {
        let mut registry = Registry::new();
        registry.counter_add(vrr_core::metrics::names::WIRE_RETRIES, &[], 3);
        let cases: Vec<(Op<u64>, Rsp<u64>)> = vec![
            (
                Op::WriteKey {
                    key: b"alpha".to_vec(),
                    value: 7,
                },
                Rsp::OverCapacity { capacity: 40 },
            ),
            (
                Op::ReadKey {
                    key: b"alpha".to_vec(),
                    reader: 1,
                },
                Rsp::NoKey,
            ),
            (
                Op::ReleaseKey {
                    key: b"alpha".to_vec(),
                },
                Rsp::Released { slot: Some(3) },
            ),
            (
                Op::StoreKeys,
                Rsp::StoreKeys {
                    keys: vec![b"a".to_vec(), b"b".to_vec()],
                },
            ),
            (
                Op::SlotOfKey {
                    key: b"alpha".to_vec(),
                },
                Rsp::Slot { slot: 5 },
            ),
            (Op::CrashShard { slot: 2, object: 4 }, Rsp::Crashed),
            (Op::StoreInfo, Rsp::StoreInfo { keys: 16 }),
            (
                Op::StoreMetrics { cluster: Some(1) },
                Rsp::StoreMetrics { registry },
            ),
        ];
        for (i, (op, rsp)) in cases.into_iter().enumerate() {
            let env = Envelope {
                source: CLIENT_NODE,
                epoch: 0,
                seq: i as u64,
                payload: Payload::Ctl(Ctl::Request { id: i as u64, op }),
            };
            let frame = encode_frame(&env);
            assert_eq!(decode_body::<u64>(&frame[4..]).unwrap(), env);
            let env = Envelope {
                source: 0,
                epoch: 0,
                seq: i as u64,
                payload: Payload::Ctl(Ctl::Response { id: i as u64, rsp }),
            };
            let frame = encode_frame(&env);
            assert_eq!(decode_body::<u64>(&frame[4..]).unwrap(), env);
        }
    }

    #[test]
    fn oversized_prefix_is_rejected_before_buffering() {
        let mut r = FrameReader::new();
        r.extend(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            r.next_frame().unwrap_err(),
            FrameError::Oversized { declared } if declared == u64::from(u32::MAX)
        ));
    }

    #[test]
    fn garbage_body_is_a_typed_decode_error() {
        let mut frame = ping_frame(1);
        let end = frame.len();
        frame[end - 1] ^= 0xAA; // corrupt the op tag
        let mut r = FrameReader::new();
        r.extend(&frame);
        let body = r.next_frame().unwrap().unwrap();
        assert!(matches!(
            decode_body::<u64>(&body),
            Err(FrameError::Decode(_))
        ));
    }
}
