//! Core data types of the storage protocols.
//!
//! Nomenclature follows the paper: `pw` fields hold timestamp–value pairs
//! ([`TsVal`]), `w` fields hold pairs of a timestamp–value pair and an array
//! of reader-timestamp arrays ([`WTuple`] wrapping a [`TsrMatrix`]).

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

/// Values storable in the register.
///
/// The register is single-writer multi-reader over opaque unauthenticated
/// data; any equality-comparable owned type works. `wire_size` feeds the
/// bandwidth accounting of the §5.1 experiments.
pub trait Value: Clone + Eq + Ord + Hash + fmt::Debug + Send + 'static {
    /// Estimated serialized size of this value in bytes.
    fn wire_size(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

impl Value for u64 {}
impl Value for u32 {}
impl Value for i64 {}
impl Value for bool {}
impl Value for () {}

impl Value for String {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

impl Value for Vec<u8> {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

/// A write timestamp. The writer issues `1, 2, 3, …`; `0` is the initial
/// timestamp of the special value `⊥`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The timestamp of the initial value `⊥`.
    pub const ZERO: Timestamp = Timestamp(0);

    /// The next timestamp (the paper's `inc(ts)`).
    #[must_use]
    pub fn next(self) -> Timestamp {
        Timestamp(self.0 + 1)
    }

    /// The previous timestamp, saturating at zero.
    #[must_use]
    pub fn prev(self) -> Timestamp {
        Timestamp(self.0.saturating_sub(1))
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts{}", self.0)
    }
}

impl From<u64> for Timestamp {
    fn from(v: u64) -> Self {
        Timestamp(v)
    }
}

/// A timestamp–value pair `⟨ts, v⟩` (the content of `pw` fields).
///
/// `value == None` encodes the paper's initial value `⊥`, which "is not a
/// valid input value for a WRITE" (§2.2).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TsVal<V> {
    /// The write timestamp.
    pub ts: Timestamp,
    /// The written value, or `None` for `⊥`.
    pub value: Option<V>,
}

impl<V: Value> TsVal<V> {
    /// The initial pair `⟨0, ⊥⟩` (the paper's `pw0`).
    pub fn bottom() -> Self {
        TsVal {
            ts: Timestamp::ZERO,
            value: None,
        }
    }

    /// A written pair `⟨ts, v⟩`.
    pub fn new(ts: Timestamp, value: V) -> Self {
        TsVal {
            ts,
            value: Some(value),
        }
    }

    /// Estimated wire size in bytes.
    pub fn wire_size(&self) -> usize {
        8 + self.value.as_ref().map_or(0, Value::wire_size)
    }
}

impl<V: fmt::Debug> fmt::Debug for TsVal<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.value {
            Some(v) => write!(f, "⟨{:?},{v:?}⟩", self.ts.0),
            None => write!(f, "⟨{:?},⊥⟩", self.ts.0),
        }
    }
}

/// Identifies a reader: the index `j` in the paper's `tsr[j]` fields.
pub type ReaderIndex = usize;

/// Identifies a base object: the index `i` in the paper's `s_i`.
pub type ObjectIndex = usize;

/// The array of arrays of reader timestamps the writer collects during its
/// `PW` round (the paper's `tsrarray[1..S][1..R]`).
///
/// `get(i, j)` is object `s_i`'s last-known timestamp of reader `r_j` as
/// reported to the writer; an absent outer entry is the paper's `nil` (the
/// object did not ack the `PW` round), and an absent inner entry means the
/// object had not heard from that reader (equivalent to timestamp `0`).
///
/// **Shared, not copied.** The matrix is fixed once per WRITE, at Figure 2
/// line 7, and never mutated after: objects only store it (Figure 5), readers
/// only evaluate `conflict`/`safe` against it (Figure 6). So the rows sit
/// behind an [`Arc`] — every copy of a `w` tuple (broadcasts, histories,
/// suffixes, candidates) is a reference-count bump — and [`set_row`]
/// copies on write, so a clone never sees a later `set_row` on another.
/// Equality and ordering answer "same" at once for two handles on one
/// allocation (`Arc`'s `==` does for an `Eq` payload; `cmp` below does it by
/// hand); that is only a shortcut to what comparing the rows would answer,
/// and different allocations are compared row by row.
///
/// [`set_row`]: TsrMatrix::set_row
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct TsrMatrix {
    entries: Arc<BTreeMap<ObjectIndex, BTreeMap<ReaderIndex, u64>>>,
}

impl TsrMatrix {
    /// The all-`nil` matrix (the paper's `inittsrarray`).
    pub fn empty() -> Self {
        TsrMatrix::default()
    }

    /// The matrix with exactly these rows, shared from the start (the wire
    /// decoder's one-pass build).
    pub(crate) fn from_rows(rows: BTreeMap<ObjectIndex, BTreeMap<ReaderIndex, u64>>) -> Self {
        TsrMatrix {
            entries: Arc::new(rows),
        }
    }

    /// Records object `i`'s reader-timestamp vector.
    pub fn set_row(&mut self, i: ObjectIndex, row: BTreeMap<ReaderIndex, u64>) {
        Arc::make_mut(&mut self.entries).insert(i, row);
    }

    /// `tsrarray[i][j]`, or `None` if object `i` never acked (`nil`).
    ///
    /// An acked object with no entry for `j` reads as `Some(0)`: the object
    /// had initialized `tsr[j] := 0`.
    pub fn get(&self, i: ObjectIndex, j: ReaderIndex) -> Option<u64> {
        self.entries
            .get(&i)
            .map(|row| row.get(&j).copied().unwrap_or(0))
    }

    /// All non-`nil` rows in object order (used by the wire codec).
    pub fn rows(&self) -> impl Iterator<Item = (ObjectIndex, &BTreeMap<ReaderIndex, u64>)> {
        self.entries.iter().map(|(i, row)| (*i, row))
    }

    /// Number of non-`nil` rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no object acked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Estimated wire size in bytes.
    pub fn wire_size(&self) -> usize {
        self.entries.values().map(|row| 8 + row.len() * 16).sum()
    }
}

impl PartialOrd for TsrMatrix {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TsrMatrix {
    fn cmp(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.entries, &other.entries) {
            return Ordering::Equal;
        }
        self.entries.cmp(&other.entries)
    }
}

impl fmt::Debug for TsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.entries.iter()).finish()
    }
}

/// The tuple stored in `w` fields: `⟨tsval, tsrarray⟩`.
///
/// This is the unit the reader's candidate set `C` ranges over; two tuples
/// with the same `tsval` but different matrices are distinct candidates
/// (a fact Byzantine objects can exploit, and which the `conflict` predicate
/// defends against).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WTuple<V> {
    /// The timestamp–value pair of the write that produced this tuple.
    pub tsval: TsVal<V>,
    /// The reader timestamps collected in that write's `PW` round.
    pub tsrarray: TsrMatrix,
}

impl<V: Value> WTuple<V> {
    /// The initial tuple `w0 = ⟨⟨0,⊥⟩, inittsrarray⟩`.
    pub fn initial() -> Self {
        WTuple {
            tsval: TsVal::bottom(),
            tsrarray: TsrMatrix::empty(),
        }
    }

    /// A tuple for a written pair.
    pub fn new(tsval: TsVal<V>, tsrarray: TsrMatrix) -> Self {
        WTuple { tsval, tsrarray }
    }

    /// The write timestamp of this tuple.
    pub fn ts(&self) -> Timestamp {
        self.tsval.ts
    }

    /// Estimated wire size in bytes.
    pub fn wire_size(&self) -> usize {
        self.tsval.wire_size() + self.tsrarray.wire_size()
    }
}

impl<V: fmt::Debug> fmt::Debug for WTuple<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{:?}", self.tsval)
    }
}

/// One entry of a regular-storage object's history: the `⟨pw, w⟩` recorded
/// for a given write timestamp (Figure 5).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct HistEntry<V> {
    /// The `pw` component (always known once the entry exists).
    pub pw: TsVal<V>,
    /// The `w` component; `None` is the paper's `nil` (only the `PW` round
    /// of this write has been seen so far).
    pub w: Option<WTuple<V>>,
}

impl<V: Value> HistEntry<V> {
    /// Estimated wire size in bytes.
    pub fn wire_size(&self) -> usize {
        self.pw.wire_size() + self.w.as_ref().map_or(1, |w| 1 + w.wire_size())
    }
}

impl<V: fmt::Debug> fmt::Debug for HistEntry<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:?},{:?})", self.pw, self.w)
    }
}

/// A regular-storage object's history: write timestamp → [`HistEntry`], a
/// sorted vector searched from the newest entry — it grows for "the entire
/// run" (§5), but a `PW`, `W` or §5.1 suffix touches only the newest few.
///
/// The unoptimized protocol ships the whole history in every `READk_ACK`;
/// the §5.1 optimization ships the suffix from the reader's cached timestamp.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct History<V> {
    /// Strictly ascending in timestamp.
    entries: Vec<(Timestamp, HistEntry<V>)>,
}

/// Entries a lookup compares from the newest before it binary-searches.
const TAIL_PROBES: usize = 4;

impl<V> History<V> {
    /// An empty history (used for suffix extraction).
    pub fn empty() -> Self {
        History {
            entries: Vec::new(),
        }
    }

    /// The history with exactly these (strictly ascending) entries: the
    /// wire decoder's build.
    pub(crate) fn from_sorted(entries: Vec<(Timestamp, HistEntry<V>)>) -> Self {
        History { entries }
    }

    /// The index of the first entry at or above `ts`.
    fn position(&self, ts: Timestamp) -> usize {
        let tail = self.entries.len().saturating_sub(TAIL_PROBES);
        match self.entries[tail..].iter().rposition(|&(at, _)| at < ts) {
            Some(i) => tail + i + 1,
            None => self.entries[..tail].partition_point(|&(at, _)| at < ts),
        }
    }

    /// The entry at `ts`, or `None` ("no entry", which readers must treat
    /// as `⟨nil, nil⟩`, Figure 6).
    pub fn get(&self, ts: Timestamp) -> Option<&HistEntry<V>> {
        let (at, entry) = self.entries.get(self.position(ts))?;
        (*at == ts).then_some(entry)
    }

    /// Inserts or replaces the entry at `ts`.
    pub fn insert(&mut self, ts: Timestamp, entry: HistEntry<V>) {
        let i = self.position(ts);
        match self.entries.get_mut(i) {
            Some((at, old)) if *at == ts => *old = entry,
            _ => self.entries.insert(i, (ts, entry)),
        }
    }

    /// All entries in timestamp order.
    pub fn iter(&self) -> impl Iterator<Item = (Timestamp, &HistEntry<V>)> {
        self.entries.iter().map(|(ts, e)| (*ts, e))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the history holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The highest timestamp with an entry.
    pub fn max_ts(&self) -> Option<Timestamp> {
        self.entries.last().map(|&(ts, _)| ts)
    }

    /// Drops every entry strictly below `below`, keeping at least the
    /// highest entry. An *extension* over the paper (garbage collection for
    /// the storage-exhaustion caveat of §1); never enabled in the
    /// paper-faithful configuration.
    pub fn retain_from(&mut self, below: Timestamp) {
        if let Some(max) = self.max_ts() {
            let cut = self.position(below.min(max));
            self.entries.drain(..cut);
        }
    }

    /// Drops all but the `n` highest entries.
    pub(crate) fn keep_last(&mut self, n: usize) {
        let cut = self.entries.len().saturating_sub(n);
        self.entries.drain(..cut);
    }
}

impl<V: Value> History<V> {
    /// The initial history: `history[0] = ⟨pw0, ⟨pw0, inittsrarray⟩⟩`.
    pub fn initial() -> Self {
        let entry = HistEntry {
            pw: TsVal::bottom(),
            w: Some(WTuple::initial()),
        };
        // Room for the first writes: a one-entry vector would reallocate on
        // the first `PW` of every register.
        let mut entries = Vec::with_capacity(4);
        entries.push((Timestamp::ZERO, entry));
        History { entries }
    }

    /// The sub-history from `since` (inclusive) onwards — the §5.1
    /// optimization's reply payload.
    pub fn suffix(&self, since: Timestamp) -> History<V> {
        History {
            entries: self.entries[self.position(since)..].to_vec(),
        }
    }

    /// Estimated wire size in bytes.
    pub fn wire_size(&self) -> usize {
        self.entries.iter().map(|(_, e)| 8 + e.wire_size()).sum()
    }
}

impl<V: fmt::Debug> fmt::Debug for History<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    #[test]
    fn timestamp_next_prev() {
        assert_eq!(Timestamp::ZERO.next(), Timestamp(1));
        assert_eq!(Timestamp(5).prev(), Timestamp(4));
        assert_eq!(Timestamp::ZERO.prev(), Timestamp::ZERO);
    }

    #[test]
    fn tsval_bottom_is_minimal() {
        let bot: TsVal<u64> = TsVal::bottom();
        assert_eq!(bot.ts, Timestamp::ZERO);
        assert!(bot.value.is_none());
        assert!(bot < TsVal::new(Timestamp(1), 0u64));
    }

    #[test]
    fn tsval_wire_size_counts_value() {
        assert_eq!(TsVal::<u64>::bottom().wire_size(), 8);
        assert_eq!(TsVal::new(Timestamp(1), 7u64).wire_size(), 16);
        assert_eq!(TsVal::new(Timestamp(1), vec![0u8; 100]).wire_size(), 108);
    }

    #[test]
    fn tsr_matrix_nil_vs_zero() {
        let mut m = TsrMatrix::empty();
        assert_eq!(m.get(0, 0), None); // nil: object never acked
        m.set_row(0, BTreeMap::from([(1, 5)]));
        assert_eq!(m.get(0, 1), Some(5));
        assert_eq!(m.get(0, 0), Some(0)); // acked object, unknown reader -> 0
        assert_eq!(m.get(3, 0), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn tsr_matrix_equality_is_structural() {
        let mut a = TsrMatrix::empty();
        let mut b = TsrMatrix::empty();
        a.set_row(2, BTreeMap::from([(0, 1)]));
        b.set_row(2, BTreeMap::from([(0, 1)]));
        assert_eq!(a, b);
        b.set_row(3, BTreeMap::new());
        assert_ne!(a, b);
    }

    fn hash_of(x: &impl Hash) -> u64 {
        use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
        BuildHasherDefault::<DefaultHasher>::default().hash_one(x)
    }

    #[test]
    fn identity_is_never_semantics() {
        let rows = BTreeMap::from([(0, BTreeMap::from([(0, 4)])), (2, BTreeMap::new())]);
        let (mut a, mut b) = (TsrMatrix::empty(), TsrMatrix::empty());
        for (&i, row) in &rows {
            a.set_row(i, row.clone());
            b.set_row(i, row.clone());
        }
        assert!(!Arc::ptr_eq(&a.entries, &b.entries), "two allocations");
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), Ordering::Equal);
        // The hash is the rows' hash, as it was before the rows were shared.
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_eq!(hash_of(&a), hash_of(&rows));
        assert_eq!(format!("{a:?}"), format!("{rows:?}"));

        // Different content orders as the rows do, shared or not.
        let mut c = a.clone();
        c.set_row(1, BTreeMap::from([(1, 9)]));
        for (x, y) in [(&a, &c), (&c, &a), (&c, &b), (&a, &TsrMatrix::empty())] {
            assert_eq!(x.cmp(y), x.rows().cmp(y.rows()));
            assert_eq!(x == y, x.rows().eq(y.rows()));
        }
    }

    #[test]
    fn set_row_on_a_clone_never_changes_the_original() {
        let mut sealed = TsrMatrix::empty();
        sealed.set_row(0, BTreeMap::from([(0, 1)]));
        let mut forged = sealed.clone();
        assert!(
            Arc::ptr_eq(&sealed.entries, &forged.entries),
            "a clone shares"
        );
        forged.set_row(0, BTreeMap::from([(0, 7)]));
        forged.set_row(3, BTreeMap::new());
        assert_eq!(sealed.get(0, 0), Some(1));
        assert_eq!(sealed.get(3, 0), None);
        assert_eq!(sealed.len(), 1);
        assert_eq!(forged.get(0, 0), Some(7));
        assert_ne!(sealed, forged);
    }

    #[test]
    fn a_tampered_same_timestamp_tuple_orders_as_before() {
        // `same_ts_different_tuples_require_full_confirmation`'s pair: the
        // honest write 1 and a Byzantine copy with a forged matrix row.
        let honest = WTuple::new(TsVal::new(Timestamp(1), 10u64), TsrMatrix::empty());
        let mut forged_rows = TsrMatrix::empty();
        forged_rows.set_row(1, BTreeMap::from([(0usize, 0u64)]));
        let tampered = WTuple::new(honest.tsval.clone(), forged_rows);

        let mut candidates = BTreeSet::from([tampered.clone()]);
        candidates.insert(honest.clone());
        assert!(
            !candidates.insert(honest.clone()),
            "the shared copy is known"
        );
        let rebuilt = WTuple::new(honest.tsval.clone(), TsrMatrix::empty());
        assert!(!candidates.insert(rebuilt), "so is an equal one built anew");
        // The empty matrix sorts first, as the derived order put it.
        let order: Vec<_> = candidates.iter().collect();
        assert_eq!(order, [&honest, &tampered]);
        assert!(candidates.remove(&tampered) && candidates.contains(&honest));
    }

    #[test]
    fn wtuple_initial_matches_paper_w0() {
        let w0: WTuple<u64> = WTuple::initial();
        assert_eq!(w0.ts(), Timestamp::ZERO);
        assert!(w0.tsval.value.is_none());
        assert!(w0.tsrarray.is_empty());
    }

    #[test]
    fn distinct_matrices_make_distinct_tuples() {
        let tsval = TsVal::new(Timestamp(1), 9u64);
        let a = WTuple::new(tsval.clone(), TsrMatrix::empty());
        let mut m = TsrMatrix::empty();
        m.set_row(0, BTreeMap::from([(0, 3)]));
        let b = WTuple::new(tsval, m);
        assert_ne!(
            a, b,
            "same tsval, different matrix must be distinct candidates"
        );
    }

    #[test]
    fn history_initial_has_ts0() {
        let h: History<u64> = History::initial();
        assert_eq!(h.len(), 1);
        let e = h.get(Timestamp::ZERO).expect("initial entry");
        assert_eq!(e.pw, TsVal::bottom());
        assert_eq!(e.w.as_ref().map(WTuple::ts), Some(Timestamp::ZERO));
    }
}
