//! Deterministic binary codec for everything `vrr-net` puts on a socket.
//!
//! The format is fixed and versioned by the frame envelope in `vrr-net`, not
//! self-describing:
//!
//! * integers are little-endian fixed width (`u64` for timestamps and
//!   indexes, `u32` for collection counts and byte lengths);
//! * `Option<T>` is a `0`/`1` tag byte followed by the payload;
//! * maps are a `u32` count followed by key/value pairs in key order
//!   (`BTreeMap` iteration order, so encoding is deterministic); decoding
//!   accepts only strictly ascending keys, so a decoded map, matrix or
//!   history is exactly the bytes received;
//! * structs are their fields in declaration order;
//! * enums are a `u8` tag followed by the variant's fields in declaration
//!   order.
//!
//! The last two are stated once each, as a table next to the type:
//! [`wire_struct!`](crate::wire_struct) lists a struct's fields,
//! [`wire_enum!`](crate::wire_enum) lists `tag => Variant { fields }`, and
//! both expand to the `encode` *and* the `decode` of an `impl Wire`, so the
//! two directions cannot drift apart. **To add a variant, add one table
//! line** (and one golden vector in `vrr-net`'s `wire_golden.rs`); a tag used
//! twice does not compile. Only what carries a validation or a forged-count
//! guard — the primitives and collections below, [`TsrMatrix`], [`History`],
//! `metrics::Histogram`, `metrics::Registry` — is written out by hand.
//!
//! Decoding is **total**: any byte slice either decodes or returns a typed
//! [`WireError`] — malformed input must never panic, overflow, or allocate
//! proportionally to a forged length field (collection counts are validated
//! against the bytes actually present before any allocation).

use std::collections::BTreeMap;
use std::fmt;

use crate::msg::{Msg, ReadRound};
use crate::types::{HistEntry, History, Timestamp, TsVal, TsrMatrix, WTuple};

/// A typed decoding failure. Encoding is infallible.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes remaining in the buffer.
        have: usize,
    },
    /// An enum or option tag byte had no meaning.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A string's bytes were not valid UTF-8.
    BadUtf8,
    /// Every field decoded, but together they break an invariant the type
    /// maintains (a metric name off the convention, histogram counts that
    /// do not add up, …).
    Invalid {
        /// What was malformed.
        what: &'static str,
    },
    /// A length or count field exceeded what the enclosing buffer or frame
    /// can hold.
    Oversized {
        /// The declared length/count.
        declared: u64,
        /// The maximum the context permits.
        limit: u64,
    },
    /// A value decoded cleanly but bytes were left over (only raised by
    /// [`decode_exact`]).
    Trailing {
        /// Leftover byte count.
        extra: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated: needed {needed} bytes, have {have}")
            }
            WireError::BadTag { what, tag } => write!(f, "bad tag {tag:#04x} decoding {what}"),
            WireError::BadUtf8 => write!(f, "string payload is not valid UTF-8"),
            WireError::Invalid { what } => write!(f, "malformed {what}"),
            WireError::Oversized { declared, limit } => {
                write!(f, "declared length {declared} exceeds limit {limit}")
            }
            WireError::Trailing { extra } => write!(f, "{extra} trailing bytes after value"),
        }
    }
}

impl std::error::Error for WireError {}

/// Types with a wire encoding.
///
/// `decode` consumes from the front of `buf`, advancing the slice; callers
/// wanting exactly-one-value semantics use [`decode_exact`].
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value off the front of `buf`, advancing it.
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError>;

    /// This value's encoding as a fresh vector.
    fn to_wire_vec(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// Decodes one value and requires the buffer to be fully consumed.
pub fn decode_exact<T: Wire>(mut buf: &[u8]) -> Result<T, WireError> {
    let v = T::decode(&mut buf)?;
    if buf.is_empty() {
        Ok(v)
    } else {
        Err(WireError::Trailing { extra: buf.len() })
    }
}

/// `impl Wire` for a struct from its field list, in wire order: each field
/// goes through its own [`Wire`] impl, and `V` — the one type parameter, when
/// there is one — is bounded by `Wire`. [`wire_enum!`](crate::wire_enum) has
/// the example; this is one of its variants without the tag.
#[macro_export]
macro_rules! wire_struct {
    ($name:ident $(<$v:ident>)? { $($field:ident),* $(,)? }) => {
        impl $(<$v: $crate::wire::Wire>)? $crate::wire::Wire for $name $(<$v>)? {
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::wire::Wire::encode(&self.$field, out);)*
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, $crate::wire::WireError> {
                Ok($name { $($field: $crate::wire::Wire::decode(buf)?),* })
            }
        }
    };
}

/// `impl Wire` for a tagged enum from one table: each line is
/// `tag => Variant`, `tag => Variant { fields }` or `tag => Variant(field)`
/// and is both the arm that writes the tag and the fields and the arm that
/// reads them back; a tag no line claims decodes to
/// [`WireError::BadTag`]` { what: "<the enum's name>", tag }`.
///
/// ```
/// # use vrr_core::wire::{decode_exact, Wire, WireError};
/// #[derive(Debug, PartialEq)]
/// enum Shape<V> { Dot, Line { len: u32, fill: V }, Label(String) }
/// vrr_core::wire_enum!(Shape<V> { 0 => Dot, 1 => Line { len, fill }, 4 => Label(text) });
///
/// assert_eq!(Shape::Line { len: 2, fill: 7u8 }.to_wire_vec(), [1, 2, 0, 0, 0, 7]);
/// assert_eq!(decode_exact::<Shape<u8>>(&[0]), Ok(Shape::Dot));
/// let unused = WireError::BadTag { what: "Shape", tag: 2 };
/// assert_eq!(decode_exact::<Shape<u8>>(&[2]), Err(unused));
/// ```
///
/// A tag claimed twice is an unreachable arm of the decoding `match`, which
/// the expansion denies — the table does not compile:
///
/// ```compile_fail
/// enum Coin { Heads, Tails }
/// vrr_core::wire_enum!(Coin { 0 => Heads, 0 => Tails });
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($name:ident $(<$v:ident>)? { $(
        $tag:literal => $variant:ident $({ $($field:ident),* $(,)? })? $(( $inner:ident ))?
    ),* $(,)? }) => {
        impl $(<$v: $crate::wire::Wire>)? $crate::wire::Wire for $name $(<$v>)? {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $($name::$variant $({ $($field),* })? $(( $inner ))? => {
                        out.push($tag);
                        $($($crate::wire::Wire::encode($field, out);)*)?
                        $($crate::wire::Wire::encode($inner, out);)?
                    })*
                }
            }
            #[deny(unreachable_patterns)]
            fn decode(buf: &mut &[u8]) -> Result<Self, $crate::wire::WireError> {
                match <u8 as $crate::wire::Wire>::decode(buf)? {
                    $($tag => Ok($name::$variant
                        $({ $($field: $crate::wire::Wire::decode(buf)?),* })?
                        $(( $crate::wire_enum!(@decode buf $inner) ))?),)*
                    tag => Err($crate::wire::WireError::BadTag { what: stringify!($name), tag }),
                }
            }
        }
    };
    // A tuple variant's field has a name only for the encode arm to bind.
    (@decode $buf:ident $inner:ident) => { $crate::wire::Wire::decode($buf)? };
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if buf.len() < n {
        return Err(WireError::Truncated {
            needed: n,
            have: buf.len(),
        });
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

/// Reads a `u32` count and validates it against the bytes remaining, given
/// a conservative minimum encoded size per element. This caps attacker-
/// declared counts at what the buffer could possibly hold, so decoding
/// never allocates or loops beyond the input's actual size.
pub(crate) fn take_count(buf: &mut &[u8], min_elem_size: usize) -> Result<usize, WireError> {
    let n = u32::decode(buf)? as usize;
    let cap = buf.len() / min_elem_size.max(1);
    if n > cap {
        return Err(WireError::Oversized {
            declared: n as u64,
            limit: cap as u64,
        });
    }
    Ok(n)
}

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(take(buf, 1)?[0])
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(u32::from_le_bytes(take(buf, 4)?.try_into().unwrap()))
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(u64::from_le_bytes(take(buf, 8)?.try_into().unwrap()))
    }
}

impl Wire for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(i64::from_le_bytes(take(buf, 8)?.try_into().unwrap()))
    }
}

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let v = u64::decode(buf)?;
        usize::try_from(v).map_err(|_| WireError::Oversized {
            declared: v,
            limit: usize::MAX as u64,
        })
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }
}

impl Wire for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(())
    }
}

impl Wire for Vec<u8> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let n = take_count(buf, 1)?;
        Ok(take(buf, n)?.to_vec())
    }
}

impl Wire for Vec<u64> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let n = take_count(buf, 8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(u64::decode(buf)?);
        }
        Ok(out)
    }
}

impl Wire for Vec<Vec<u8>> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        // Each element costs at least its own u32 length prefix.
        let n = take_count(buf, 4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(Vec::<u8>::decode(buf)?);
        }
        Ok(out)
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let bytes = Vec::<u8>::decode(buf)?;
        String::from_utf8(bytes).map_err(|_| WireError::BadUtf8)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            tag => Err(WireError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<K: Wire + Ord, V2: Wire> Wire for BTreeMap<K, V2> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let n = take_count(buf, 1)?;
        decode_ascending(buf, n, "map keys", |buf| {
            Ok((K::decode(buf)?, V2::decode(buf)?))
        })
    }
}

/// Decodes `n` key/value pairs whose keys must strictly ascend — the order
/// every encoder writes a `BTreeMap` in. A repeated or out-of-order key is
/// [`WireError::Invalid`]: the map it would overwrite into is not the bytes
/// received, and its `wire_size` would not be theirs.
fn decode_ascending<K: Ord, V2>(
    buf: &mut &[u8],
    n: usize,
    what: &'static str,
    mut pair: impl FnMut(&mut &[u8]) -> Result<(K, V2), WireError>,
) -> Result<BTreeMap<K, V2>, WireError> {
    let mut map = BTreeMap::new();
    for _ in 0..n {
        let (k, v) = pair(buf)?;
        if map.last_key_value().is_some_and(|(last, _)| *last >= k) {
            return Err(WireError::Invalid { what });
        }
        map.insert(k, v);
    }
    Ok(map)
}

impl Wire for Timestamp {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Timestamp(u64::decode(buf)?))
    }
}

wire_struct!(TsVal<V> { ts, value });

impl Wire for TsrMatrix {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for (i, row) in self.rows() {
            i.encode(out);
            row.encode(out);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        // Each row costs at least 12 bytes (u64 index + u32 count).
        let n = take_count(buf, 12)?;
        let rows = decode_ascending(buf, n, "tsrarray rows", |buf| {
            Ok((usize::decode(buf)?, BTreeMap::decode(buf)?))
        })?;
        Ok(TsrMatrix::from_rows(rows))
    }
}

wire_struct!(WTuple<V> { tsval, tsrarray });
wire_struct!(HistEntry<V> { pw, w });

impl<V: Wire> Wire for History<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for (ts, entry) in self.iter() {
            ts.encode(out);
            entry.encode(out);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        // Each entry costs at least 18 bytes (ts + pw + two option tags).
        let n = take_count(buf, 18)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let (ts, entry) = (Timestamp::decode(buf)?, HistEntry::decode(buf)?);
            if entries.last().is_some_and(|&(last, _)| last >= ts) {
                return Err(WireError::Invalid {
                    what: "history timestamps",
                });
            }
            entries.push((ts, entry));
        }
        Ok(History::from_sorted(entries))
    }
}

wire_enum!(ReadRound { 1 => R1, 2 => R2 });

wire_enum!(Msg<V> {
    0 => Pw { ts, pw, w },
    1 => PwAck { ts, tsr },
    2 => W { ts, pw, w },
    3 => WAck { ts },
    4 => Read { round, reader, tsr, since, ack },
    5 => ReadAckSafe { round, tsr, pw, w },
    6 => ReadAckRegular { round, tsr, history },
    7 => WriteBack { w },
});

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + fmt::Debug>(v: &T) {
        let bytes = v.to_wire_vec();
        let back: T = decode_exact(&bytes).expect("decode");
        assert_eq!(&back, v);
        // Re-encoding is byte-identical (determinism).
        assert_eq!(back.to_wire_vec(), bytes);
    }

    fn sample_matrix() -> TsrMatrix {
        let mut m = TsrMatrix::empty();
        m.set_row(0, BTreeMap::from([(0, 3), (1, 9)]));
        m.set_row(2, BTreeMap::new());
        m
    }

    fn sample_history() -> History<u64> {
        let mut h = History::initial();
        h.insert(
            Timestamp(1),
            HistEntry {
                pw: TsVal::new(Timestamp(1), 11),
                w: Some(WTuple::new(TsVal::new(Timestamp(1), 11), sample_matrix())),
            },
        );
        h.insert(
            Timestamp(2),
            HistEntry {
                pw: TsVal::new(Timestamp(2), 22),
                w: None,
            },
        );
        h
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&0u8);
        roundtrip(&u32::MAX);
        roundtrip(&u64::MAX);
        roundtrip(&(-5i64));
        roundtrip(&true);
        roundtrip(&());
        roundtrip(&String::from("héllo ⊥"));
        roundtrip(&vec![0u8, 255, 1]);
        roundtrip(&vec![1u64, u64::MAX, 0]);
        roundtrip(&vec![vec![1u8, 2], Vec::new(), vec![3u8]]);
        roundtrip(&Some(7u64));
        roundtrip(&Option::<u64>::None);
        roundtrip(&BTreeMap::from([(1usize, 2u64), (3, 4)]));
    }

    #[test]
    fn core_types_roundtrip() {
        roundtrip(&Timestamp(u64::MAX));
        roundtrip(&TsVal::<u64>::bottom());
        roundtrip(&TsVal::new(Timestamp(3), vec![1u8, 2, 3]));
        roundtrip(&sample_matrix());
        roundtrip(&WTuple::new(
            TsVal::new(Timestamp(7), 9u64),
            sample_matrix(),
        ));
        roundtrip(&sample_history());
    }

    #[test]
    fn all_msg_variants_roundtrip() {
        let msgs: Vec<Msg<u64>> = vec![
            Msg::Pw {
                ts: Timestamp(1),
                pw: TsVal::new(Timestamp(1), 5),
                w: WTuple::initial(),
            },
            Msg::PwAck {
                ts: Timestamp(1),
                tsr: BTreeMap::from([(0, 1), (1, 0)]),
            },
            Msg::W {
                ts: Timestamp(1),
                pw: TsVal::new(Timestamp(1), 5),
                w: WTuple::new(TsVal::new(Timestamp(1), 5), sample_matrix()),
            },
            Msg::WAck { ts: Timestamp(1) },
            Msg::Read {
                round: ReadRound::R1,
                reader: 2,
                tsr: 7,
                since: Some(Timestamp(4)),
                ack: Timestamp(3),
            },
            Msg::ReadAckSafe {
                round: ReadRound::R2,
                tsr: 7,
                pw: TsVal::new(Timestamp(1), 5),
                w: WTuple::initial(),
            },
            Msg::ReadAckRegular {
                round: ReadRound::R1,
                tsr: 7,
                history: sample_history(),
            },
        ];
        for m in &msgs {
            roundtrip(m);
        }
    }

    #[test]
    fn truncation_is_typed_not_panic() {
        let full = Msg::<u64>::ReadAckRegular {
            round: ReadRound::R1,
            tsr: 7,
            history: sample_history(),
        }
        .to_wire_vec();
        for cut in 0..full.len() {
            let err = decode_exact::<Msg<u64>>(&full[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::Truncated { .. } | WireError::Oversized { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn bad_tags_are_typed() {
        assert_eq!(
            decode_exact::<Msg<u64>>(&[99]).unwrap_err(),
            WireError::BadTag {
                what: "Msg",
                tag: 99
            }
        );
        assert_eq!(
            decode_exact::<bool>(&[2]).unwrap_err(),
            WireError::BadTag {
                what: "bool",
                tag: 2
            }
        );
        let mut read = Msg::<u64>::WAck { ts: Timestamp(1) }.to_wire_vec();
        read[0] = 4; // retag as Read: the round byte (0x01 of ts) is valid R1,
                     // but the remaining 7 bytes cannot hold reader+tsr+...
        assert!(matches!(
            decode_exact::<Msg<u64>>(&read).unwrap_err(),
            WireError::Truncated { .. }
        ));
    }

    #[test]
    fn forged_count_cannot_force_allocation() {
        // A PwAck declaring u32::MAX map entries with an empty payload must
        // be rejected by the count-vs-remaining check, not attempted.
        let mut bytes = Vec::new();
        bytes.push(1u8); // PwAck tag
        Timestamp(1).encode(&mut bytes);
        u32::MAX.encode(&mut bytes); // forged count, no entries follow
        assert!(matches!(
            decode_exact::<Msg<u64>>(&bytes).unwrap_err(),
            WireError::Oversized { .. }
        ));
    }

    #[test]
    fn a_repeated_key_is_invalid_not_overwritten() {
        // Msg::W whose tsrarray names row 0 twice: the first row would be
        // silently replaced, and the matrix would not be the bytes received.
        let tsval = TsVal::new(Timestamp(1), 5u64);
        let mut w = vec![2u8];
        Timestamp(1).encode(&mut w);
        tsval.encode(&mut w);
        tsval.encode(&mut w);
        2u32.encode(&mut w);
        for tsr in [3u64, 9] {
            0usize.encode(&mut w);
            BTreeMap::from([(0usize, tsr)]).encode(&mut w);
        }
        let rows = WireError::Invalid {
            what: "tsrarray rows",
        };
        assert_eq!(decode_exact::<Msg<u64>>(&w), Err(rows));

        // ReadAckRegular whose history holds timestamp 1 twice.
        let mut ack = vec![6u8];
        ReadRound::R1.encode(&mut ack);
        7u64.encode(&mut ack);
        2u32.encode(&mut ack);
        for v in [11u64, 666] {
            Timestamp(1).encode(&mut ack);
            let pw = TsVal::new(Timestamp(1), v);
            HistEntry { pw, w: None }.encode(&mut ack);
        }
        let history = WireError::Invalid {
            what: "history timestamps",
        };
        assert_eq!(decode_exact::<Msg<u64>>(&ack), Err(history));

        // A descending key is as foreign to the encoder as a repeated one.
        let mut map = Vec::new();
        2u32.encode(&mut map);
        for k in [4usize, 1] {
            k.encode(&mut map);
            0u64.encode(&mut map);
        }
        let keys = WireError::Invalid { what: "map keys" };
        assert_eq!(decode_exact::<BTreeMap<usize, u64>>(&map), Err(keys));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Msg::<u64>::WAck { ts: Timestamp(1) }.to_wire_vec();
        bytes.push(0);
        assert_eq!(
            decode_exact::<Msg<u64>>(&bytes).unwrap_err(),
            WireError::Trailing { extra: 1 }
        );
    }

    #[test]
    fn non_utf8_string_is_typed() {
        let mut bytes = Vec::new();
        2u32.encode(&mut bytes);
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(
            decode_exact::<String>(&bytes).unwrap_err(),
            WireError::BadUtf8
        );
    }
}
