//! A unified metrics layer: counters, gauges and histograms in one
//! [`Registry`], with a deterministic Prometheus text-format encoder.
//!
//! Before this module, observability was scattered across ad-hoc structs —
//! `ExecutorStats` in the runtime, fast-path counters in the readers, bare
//! `history_lens()` vectors on the storage clients — each with its own
//! naming and no way to export a single snapshot. Everything now funnels
//! into one [`Registry`] under one naming convention:
//!
//! > `vrr_<subsystem>_<name>`, lowercase, with counters suffixed `_total`.
//!
//! The canonical metric names live in [`names`]; recording through those
//! constants keeps the sim harness and the thread runtime byte-compatible,
//! so the same assertions (and the same Grafana panels) work against either.
//!
//! Determinism matters here as much as in the simulator: [`Registry`] is
//! `BTreeMap`-backed, so [`Registry::to_prometheus`] is a pure function of
//! the recorded values — two identically seeded runs encode to identical
//! bytes, which the determinism suite asserts.
//!
//! ```
//! use vrr_core::metrics::{names, Registry};
//!
//! let mut reg = Registry::new();
//! reg.counter_add(names::READER_FAST_HITS, &[], 3);
//! reg.observe(names::READER_ROUNDS, &[], 1);
//! reg.observe(names::READER_ROUNDS, &[], 2);
//! assert_eq!(reg.counter(names::READER_FAST_HITS, &[]), 3);
//! assert!(reg.to_prometheus().contains("vrr_reader_rounds_bucket{le=\"1\"} 1"));
//! ```

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::reader::ReadReport;
use crate::wire::{take_count, Wire, WireError};

/// Canonical metric names — the single `vrr_<subsystem>_<name>` vocabulary
/// shared by the sim harness and the thread runtime.
pub mod names {
    /// Messages handed to the network (sim) — counter.
    pub const NET_SENT: &str = "vrr_net_sent_total";
    /// Messages delivered to a live automaton — counter.
    pub const NET_DELIVERED: &str = "vrr_net_delivered_total";
    /// Messages held in transit by the adversary — counter.
    pub const NET_HELD: &str = "vrr_net_held_total";
    /// Held messages released back into the network — counter.
    pub const NET_RELEASED: &str = "vrr_net_released_total";
    /// Messages destroyed by the adversary — counter.
    pub const NET_DROPPED: &str = "vrr_net_dropped_total";
    /// Messages addressed to crashed processes — counter.
    pub const NET_DEAD_LETTERS: &str = "vrr_net_dead_letters_total";
    /// Wire bytes handed to the network — counter.
    pub const NET_BYTES_SENT: &str = "vrr_net_bytes_sent_total";
    /// Wire bytes delivered — counter.
    pub const NET_BYTES_DELIVERED: &str = "vrr_net_bytes_delivered_total";

    /// Frames written to a TCP socket by the wire transport (`vrr-net`) —
    /// counter.
    pub const WIRE_FRAMES_SENT: &str = "vrr_net_wire_frames_sent_total";
    /// Frames decoded off a TCP socket — counter.
    pub const WIRE_FRAMES_RECEIVED: &str = "vrr_net_wire_frames_received_total";
    /// Bytes written to TCP sockets (length prefixes included) — counter.
    pub const WIRE_BYTES_SENT: &str = "vrr_net_wire_bytes_sent_total";
    /// Bytes read from TCP sockets — counter.
    pub const WIRE_BYTES_RECEIVED: &str = "vrr_net_wire_bytes_received_total";
    /// Outbound connections re-established after a drop — counter.
    pub const WIRE_RECONNECTS: &str = "vrr_net_wire_reconnects_total";
    /// Frames rejected by the decoder (malformed, oversized, truncated
    /// stream) — counter.
    pub const WIRE_DECODE_ERRORS: &str = "vrr_net_wire_decode_errors_total";
    /// Client requests re-sent after a connection failure by the bounded
    /// retry/backoff path (`vrr-net`'s `NetClient` / `RemoteCluster`) —
    /// counter.
    pub const WIRE_RETRIES: &str = "vrr_net_wire_retry_total";

    /// Executor mailbox sweeps (runtime) — counter.
    pub const EXECUTOR_SWEEPS: &str = "vrr_executor_sweeps_total";
    /// Executor worker wakeups — counter.
    pub const EXECUTOR_WAKEUPS: &str = "vrr_executor_wakeups_total";
    /// Commands executed against node automata — counter.
    pub const EXECUTOR_COMMANDS: &str = "vrr_executor_commands_total";

    /// Reads returned on round 1 with no READ2 sent
    /// ([`crate::ReadReport::fast`]) — counter.
    pub const READER_FAST_HITS: &str = "vrr_reader_fast_hits_total";
    /// Every other read: it sent READ2, or wrote its round-1 selection
    /// back — counter.
    pub const READER_FAST_FALLBACKS: &str = "vrr_reader_fast_fallbacks_total";
    /// Rounds per completed READ — histogram (buckets [`ROUND_BUCKETS`]).
    pub const READER_ROUNDS: &str = "vrr_reader_rounds";
    /// Rounds per completed WRITE — histogram (buckets [`ROUND_BUCKETS`]).
    pub const WRITER_ROUNDS: &str = "vrr_writer_rounds";
    /// READ latency — histogram. Simulated ticks under `vrr-sim`,
    /// microseconds under `vrr-runtime` (buckets [`LATENCY_BUCKETS`]).
    pub const READ_LATENCY: &str = "vrr_read_latency_ticks";
    /// WRITE latency — histogram. Simulated ticks under `vrr-sim`,
    /// microseconds under `vrr-runtime` (buckets [`LATENCY_BUCKETS`]).
    pub const WRITE_LATENCY: &str = "vrr_write_latency_ticks";

    /// Per-object stored history length (regular protocol) — gauge,
    /// labelled `object` (and `shard` under [`ShardedStore`]).
    ///
    /// [`ShardedStore`]: https://docs.rs/vrr-runtime
    pub const OBJECT_HISTORY_LEN: &str = "vrr_object_history_len";

    /// Keys currently bound in one shard-cluster of a `StoreRouter` —
    /// gauge, labelled `cluster`. The per-cluster values must sum to the
    /// store's total key count at every snapshot.
    pub const ROUTER_KEYS: &str = "vrr_router_keys";
    /// Ring slots currently routed to one shard-cluster — gauge, labelled
    /// `cluster`.
    pub const ROUTER_RING_SLOTS: &str = "vrr_router_ring_slots";
    /// Live shard-clusters behind the router — gauge.
    pub const ROUTER_CLUSTERS: &str = "vrr_router_clusters";
    /// Keys copied to a new shard-cluster by rebalances — counter.
    pub const ROUTER_REBALANCED_KEYS: &str = "vrr_router_rebalanced_keys_total";
    /// Ring-slot moves performed by rebalances — counter.
    pub const ROUTER_SLOT_MOVES: &str = "vrr_router_slot_moves_total";
    /// Router-level READ latency — histogram, labelled `cluster`
    /// (wall-clock microseconds; buckets [`LATENCY_BUCKETS`]).
    pub const ROUTER_READ_LATENCY: &str = "vrr_router_read_latency_ticks";
    /// Router-level WRITE latency — histogram, labelled `cluster`
    /// (wall-clock microseconds; buckets [`LATENCY_BUCKETS`]).
    pub const ROUTER_WRITE_LATENCY: &str = "vrr_router_write_latency_ticks";

    /// Series a [`Registry::merge`](super::Registry::merge) left out: their
    /// kind or buckets disagreed with the merging side's — counter. Non-zero
    /// means a peer's snapshot was malformed or forged.
    pub const MERGE_SKIPPED: &str = "vrr_metrics_merge_skipped_total";

    /// Scenario partitions applied — counter.
    pub const SCENARIO_PARTITIONS: &str = "vrr_scenario_partitions_total";
    /// Scenario heals applied — counter.
    pub const SCENARIO_HEALS: &str = "vrr_scenario_heals_total";
    /// Scenario crashes injected — counter.
    pub const SCENARIO_CRASHES: &str = "vrr_scenario_crashes_total";
    /// Scenario processes turned Byzantine — counter.
    pub const SCENARIO_BYZANTINE: &str = "vrr_scenario_byzantine_total";
    /// Current simulated time of the scenario — gauge.
    pub const SCENARIO_TIME: &str = "vrr_scenario_time_ticks";
    /// Messages currently held in transit — gauge.
    pub const SCENARIO_HELD_MSGS: &str = "vrr_scenario_held_msgs";

    /// Bucket bounds for round-count histograms: the paper's protocols
    /// complete every operation in one or two rounds, so anything above 2
    /// is already pathological.
    pub const ROUND_BUCKETS: &[u64] = &[1, 2, 3, 4];
    /// Bucket bounds for latency histograms (ticks or µs): exponential,
    /// wide enough for both unit-latency sims and real thread scheduling.
    pub const LATENCY_BUCKETS: &[u64] = &[
        1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576,
    ];
}

/// A label set: name/value pairs attached to one series, e.g.
/// `&[("object", "3")]`. Order does not matter — series identity uses the
/// name-sorted form.
pub type Labels<'a> = &'a [(&'a str, &'a str)];

/// A fixed-bucket histogram over `u64` observations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Upper bucket bounds, strictly increasing. An implicit `+Inf` bucket
    /// follows the last bound.
    bounds: Vec<u64>,
    /// Observations `<=` each bound (non-cumulative per slot; cumulated at
    /// encoding time). `counts.len() == bounds.len() + 1`; the final slot is
    /// the `+Inf` overflow.
    counts: Vec<u64>,
    sum: u64,
    count: u64,
}

impl Histogram {
    /// An empty histogram with the given bucket bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            count: 0,
        }
    }

    /// An empty histogram with the buckets the registry gives `name`:
    /// [`names::LATENCY_BUCKETS`] for `*latency*` names,
    /// [`names::ROUND_BUCKETS`] otherwise.
    pub fn named(name: &str) -> Self {
        Histogram::new(if name.contains("latency") {
            names::LATENCY_BUCKETS
        } else {
            names::ROUND_BUCKETS
        })
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Observations less than or equal to `bound` (cumulative, like the
    /// Prometheus `_bucket` series). `u64::MAX` plays `+Inf`.
    pub fn cumulative_le(&self, bound: u64) -> u64 {
        self.bounds
            .iter()
            .zip(&self.counts)
            .take_while(|&(&b, _)| b <= bound)
            .map(|(_, &c)| c)
            .sum::<u64>()
            + if bound == u64::MAX {
                *self.counts.last().expect("overflow slot")
            } else {
                0
            }
    }

    /// Adds `other`'s observations — unless its buckets are not this
    /// histogram's or the total would overflow: then nothing is added and
    /// the answer is `false`.
    fn merge_from(&mut self, other: &Histogram) -> bool {
        match self.count.checked_add(other.count) {
            Some(count) if self.bounds == other.bounds => self.count = count,
            _ => return false,
        }
        // No slot holds more than `count`, so none of these overflows.
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum = self.sum.saturating_add(other.sum);
        true
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Series {
    Counter(u64),
    Gauge(u64),
    Histogram(Histogram),
}

impl Series {
    fn type_str(&self) -> &'static str {
        match self {
            Series::Counter(_) => "counter",
            Series::Gauge(_) => "gauge",
            Series::Histogram(_) => "histogram",
        }
    }
}

/// One metric family: every label-combination series recorded under one
/// name, keyed by the canonical (name-sorted) label rendering.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Family {
    series: BTreeMap<String, Series>,
}

/// The in-memory metrics registry every instrumented path records into.
///
/// `BTreeMap`-backed throughout, so iteration — and therefore
/// [`Registry::to_prometheus`] — is deterministic: a pure function of the
/// recorded values, independent of recording order across families.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Registry {
    families: BTreeMap<&'static str, Family>,
}

/// The canonical rendering of a label set: name-sorted `k="v"` pairs.
fn label_key(labels: Labels<'_>) -> String {
    let mut pairs: Vec<_> = labels.to_vec();
    pairs.sort_unstable();
    let mut out = String::new();
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out
}

/// Whether `key` has the shape [`label_key`] renders — name-sorted `k="v"`
/// pairs, no `"`, `\` or newline inside a value — which is what
/// [`Registry::to_prometheus`] splices between `{` and `}` unescaped.
fn is_label_key(key: &str) -> bool {
    let Some(pairs) = key.strip_suffix('"') else {
        return key.is_empty();
    };
    let mut last = "";
    pairs.split("\",").all(|pair| {
        let (name, value) = pair.split_once("=\"").unwrap_or_default();
        std::mem::replace(&mut last, name) < name
            && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
            && !value.contains(['"', '\\', '\n'])
    })
}

/// Enforces the one naming convention every exported metric follows.
fn assert_name(name: &str) {
    assert!(
        name.starts_with("vrr_")
            && name
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'),
        "metric name {name:?} violates the vrr_<subsystem>_<name> convention"
    );
}

impl Registry {
    /// An empty registry. Histogram buckets go by name:
    /// [`names::LATENCY_BUCKETS`] for `*_latency_*` names,
    /// [`names::ROUND_BUCKETS`] otherwise.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    /// The value of the counter `name` (0 if never recorded).
    pub fn counter(&self, name: &str, labels: Labels<'_>) -> u64 {
        match self.get(name, labels) {
            Some(Series::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The value of the gauge `name` (`None` if never recorded).
    pub fn gauge(&self, name: &str, labels: Labels<'_>) -> Option<u64> {
        match self.get(name, labels) {
            Some(Series::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram `name`, if recorded.
    pub fn histogram(&self, name: &str, labels: Labels<'_>) -> Option<&Histogram> {
        match self.get(name, labels) {
            Some(Series::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Every gauge value recorded under `name`, in label order — e.g. all
    /// per-object history lengths.
    pub fn gauge_values(&self, name: &str) -> Vec<u64> {
        let Some(family) = self.families.get(name) else {
            return Vec::new();
        };
        family
            .series
            .values()
            .filter_map(|s| match s {
                Series::Gauge(v) => Some(*v),
                _ => None,
            })
            .collect()
    }

    /// Folds every series of `other` into `self`: counters and histograms
    /// add, gauges take `other`'s value (last write wins).
    ///
    /// Total, because `other` may have been decoded off a socket: a series
    /// of another kind than `self` records under that name, or a histogram
    /// with other buckets than the one it would add to, is left out and
    /// counted in [`names::MERGE_SKIPPED`]; counters saturate. Record what
    /// is `self`'s own *before* merging a peer in, so the peer's series is
    /// the one that loses a disagreement.
    pub fn merge(&mut self, other: &Registry) {
        let mut skipped = 0u64;
        for (name, family) in &other.families {
            let into = self.families.entry(name).or_default();
            for (key, series) in &family.series {
                let kind = into.series.values().next().map(Series::type_str);
                let merged = kind.is_none_or(|kind| kind == series.type_str())
                    && match (into.series.get_mut(key), series) {
                        (None, _) => into.series.insert(key.clone(), series.clone()).is_none(),
                        (Some(Series::Counter(a)), Series::Counter(b)) => {
                            *a = a.saturating_add(*b);
                            true
                        }
                        (Some(Series::Gauge(a)), Series::Gauge(b)) => {
                            *a = *b;
                            true
                        }
                        (Some(Series::Histogram(a)), Series::Histogram(b)) => a.merge_from(b),
                        _ => false,
                    };
                skipped += u64::from(!merged);
            }
        }
        if skipped > 0 {
            // Inserted, not `counter_add`ed: whatever kind a peer sent under
            // this name, the count of what was refused is this side's own.
            let total = self
                .counter(names::MERGE_SKIPPED, &[])
                .saturating_add(skipped);
            let family = self.families.entry(names::MERGE_SKIPPED).or_default();
            family.series.insert(String::new(), Series::Counter(total));
        }
    }

    /// Encodes the registry in the Prometheus text exposition format.
    ///
    /// Deterministic: families sort by name, series by label key, so two
    /// registries with equal contents encode to identical bytes.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            let kind = family.series.values().next();
            let type_str = kind.map_or("untyped", Series::type_str);
            out.push_str(&format!("# TYPE {name} {type_str}\n"));
            for (key, series) in &family.series {
                let (braced, comma) = if key.is_empty() {
                    (String::new(), "")
                } else {
                    (format!("{{{key}}}"), ",")
                };
                match series {
                    Series::Counter(v) | Series::Gauge(v) => {
                        out.push_str(&format!("{name}{braced} {v}\n"));
                    }
                    Series::Histogram(h) => {
                        let mut cumulative = 0u64;
                        for (bound, count) in h.bounds.iter().zip(&h.counts) {
                            cumulative += count;
                            let le = format!("{{{key}{comma}le=\"{bound}\"}}");
                            out.push_str(&format!("{name}_bucket{le} {cumulative}\n"));
                        }
                        let le = format!("{{{key}{comma}le=\"+Inf\"}}");
                        out.push_str(&format!("{name}_bucket{le} {}\n", h.count));
                        out.push_str(&format!("{name}_sum{braced} {}\n", h.sum));
                        out.push_str(&format!("{name}_count{braced} {}\n", h.count));
                    }
                }
            }
        }
        out
    }

    fn get(&self, name: &str, labels: Labels<'_>) -> Option<&Series> {
        self.families.get(name)?.series.get(&label_key(labels))
    }

    /// The series `name{labels}`, made by `new` on first use.
    fn series_mut(
        &mut self,
        name: &'static str,
        labels: Labels<'_>,
        new: impl FnOnce() -> Series,
    ) -> &mut Series {
        assert_name(name);
        let family = self.families.entry(name).or_default();
        family.series.entry(label_key(labels)).or_insert_with(new)
    }

    /// Adds `delta` to the counter `name`.
    pub fn counter_add(&mut self, name: &'static str, labels: Labels<'_>, delta: u64) {
        match self.series_mut(name, labels, || Series::Counter(0)) {
            Series::Counter(v) => *v += delta,
            other => panic!("{name} already recorded as a {}", other.type_str()),
        }
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: &'static str, labels: Labels<'_>, value: u64) {
        match self.series_mut(name, labels, || Series::Gauge(0)) {
            Series::Gauge(v) => *v = value,
            other => panic!("{name} already recorded as a {}", other.type_str()),
        }
    }

    /// Records one observation into the histogram `name`.
    pub fn observe(&mut self, name: &'static str, labels: Labels<'_>, value: u64) {
        match self.series_mut(name, labels, || Series::Histogram(Histogram::named(name))) {
            Series::Histogram(h) => h.observe(value),
            other => panic!("{name} already recorded as a {}", other.type_str()),
        }
    }

    /// Folds `recorded` — a [`Histogram::named`]`(name)` a hot path observed
    /// into directly, sparing it this registry's name and label lookups —
    /// into the histogram `name`. An empty one leaves no trace, exactly as
    /// if [`Registry::observe`] had never been called.
    pub fn observe_all(&mut self, name: &'static str, labels: Labels<'_>, recorded: &Histogram) {
        if recorded.count == 0 {
            return;
        }
        let empty = || Series::Histogram(Histogram::new(&recorded.bounds));
        match self.series_mut(name, labels, empty) {
            Series::Histogram(h) => assert!(
                h.merge_from(recorded),
                "cannot merge histograms with different buckets"
            ),
            other => panic!("{name} already recorded as a {}", other.type_str()),
        }
    }
}

// ---- wire codec -----------------------------------------------------------
//
// `RemoteCluster` ships whole registry snapshots across process boundaries
// so a router can merge per-cluster `vrr_router_*` series structurally
// (counters add, gauges overwrite) instead of scraping Prometheus text.
// Family names are `&'static str` in memory, so decoding interns each name
// in a leak-once table — bounded by the naming convention, a length cap and
// a table-size cap so a malicious peer cannot leak unbounded memory.

/// Validates a decoded metric name against the `vrr_*` convention and
/// interns it, returning the `'static` copy the registry maps require.
fn intern_metric_name(name: String) -> Result<&'static str, WireError> {
    const MAX_NAME_LEN: usize = 128;
    const MAX_INTERNED: usize = 4_096;
    let well_formed = name.len() <= MAX_NAME_LEN
        && name.starts_with("vrr_")
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_');
    if !well_formed {
        return Err(WireError::Invalid {
            what: "metric name",
        });
    }
    static TABLE: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let mut table = TABLE
        .get_or_init(Default::default)
        .lock()
        .expect("metric-name intern table poisoned");
    if let Some(&interned) = table.get(&name) {
        return Ok(interned);
    }
    if table.len() >= MAX_INTERNED {
        return Err(WireError::Oversized {
            declared: table.len() as u64 + 1,
            limit: MAX_INTERNED as u64,
        });
    }
    let interned: &'static str = Box::leak(name.clone().into_boxed_str());
    table.insert(name, interned);
    Ok(interned)
}

impl Wire for Histogram {
    fn encode(&self, out: &mut Vec<u8>) {
        self.bounds.encode(out);
        self.counts.encode(out);
        self.sum.encode(out);
        self.count.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let bounds = Vec::<u64>::decode(buf)?;
        let counts = Vec::<u64>::decode(buf)?;
        let sum = u64::decode(buf)?;
        let count = u64::decode(buf)?;
        // Re-establish the construction invariants `Histogram::new` and
        // `observe` maintain; a forged payload must not smuggle in a value
        // that later panics `merge_from` or the Prometheus encoder.
        let well_formed = !bounds.is_empty()
            && bounds.windows(2).all(|w| w[0] < w[1])
            && counts.len() == bounds.len() + 1
            && counts
                .iter()
                .try_fold(0u64, |acc, &c| acc.checked_add(c))
                .is_some_and(|total| total == count);
        if !well_formed {
            return Err(WireError::Invalid {
                what: "Histogram invariants",
            });
        }
        Ok(Histogram {
            bounds,
            counts,
            sum,
            count,
        })
    }
}

crate::wire_enum!(Series { 0 => Counter(v), 1 => Gauge(v), 2 => Histogram(h) });

impl Wire for Registry {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.families.len() as u32).encode(out);
        for (name, family) in &self.families {
            name.to_string().encode(out);
            family.series.encode(out);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        // Each family costs at least a name length prefix + series count.
        let n = take_count(buf, 8)?;
        let mut families = BTreeMap::new();
        for _ in 0..n {
            let name = intern_metric_name(String::decode(buf)?)?;
            let series = BTreeMap::<String, Series>::decode(buf)?;
            if !series.keys().all(|key| is_label_key(key)) {
                return Err(WireError::Invalid {
                    what: "metric label key",
                });
            }
            families.insert(name, Family { series });
        }
        Ok(Registry { families })
    }
}

// ---- recording helpers for the workspace's existing stat structs ----------

/// Records the simulator's [`vrr_sim::NetStats`] counters under the
/// `vrr_net_*` names.
pub fn record_net_stats(sink: &mut Registry, stats: &vrr_sim::NetStats) {
    sink.counter_add(names::NET_SENT, &[], stats.sent);
    sink.counter_add(names::NET_DELIVERED, &[], stats.delivered);
    sink.counter_add(names::NET_HELD, &[], stats.held);
    sink.counter_add(names::NET_RELEASED, &[], stats.released);
    sink.counter_add(names::NET_DROPPED, &[], stats.dropped);
    sink.counter_add(names::NET_DEAD_LETTERS, &[], stats.dead_letters);
    sink.counter_add(names::NET_BYTES_SENT, &[], stats.bytes_sent);
    sink.counter_add(names::NET_BYTES_DELIVERED, &[], stats.bytes_delivered);
}

/// Records the fault counters of a [`vrr_sim::World`] under the
/// `vrr_scenario_*` names.
pub fn record_scenario_stats(sink: &mut Registry, stats: &vrr_sim::FaultStats) {
    sink.counter_add(names::SCENARIO_PARTITIONS, &[], stats.partitions);
    sink.counter_add(names::SCENARIO_HEALS, &[], stats.heals);
    sink.counter_add(names::SCENARIO_CRASHES, &[], stats.crashes);
    sink.counter_add(names::SCENARIO_BYZANTINE, &[], stats.byzantine);
}

/// The one-round fast-path counters of a harness's READs, counted from
/// their reports by the meter that records every READ's rounds and latency
/// (`StorageScenario`'s, the thread runtime's `RegisterHost`'s).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FastPathStats {
    /// Reads whose report says [`ReadReport::fast`]: returned on round 1,
    /// no READ2 sent.
    pub hits: u64,
    /// Every other read: it sent READ2, or (Atomic) wrote its round-1
    /// selection back.
    pub fallbacks: u64,
}

impl FastPathStats {
    /// Counts one completed READ — the one rule of what is a hit and what
    /// is a fallback.
    pub fn count<V>(&mut self, report: &ReadReport<V>) {
        if report.fast {
            self.hits += 1;
        } else {
            self.fallbacks += 1;
        }
    }
}

/// Records fast-path counters under the `vrr_reader_fast_*` names.
pub fn record_fast_path(sink: &mut Registry, stats: &FastPathStats) {
    sink.counter_add(names::READER_FAST_HITS, &[], stats.hits);
    sink.counter_add(names::READER_FAST_FALLBACKS, &[], stats.fallbacks);
}

/// Records `(object index, history length)` pairs as
/// [`names::OBJECT_HISTORY_LEN`] gauges, labelled `object` with the index,
/// `shard` when given, and `cluster` when the objects live inside one
/// shard-cluster of a multi-cluster router — which keeps the gauges of
/// different clusters from colliding when their snapshots merge into one
/// registry. Producers skip Byzantine and crashed objects, so the index is
/// carried rather than counted here.
pub fn record_history_lens(
    sink: &mut Registry,
    cluster: Option<usize>,
    shard: Option<usize>,
    lens: &[(usize, usize)],
) {
    let cluster = cluster.map(|c| c.to_string());
    let shard = shard.map(|s| s.to_string());
    for &(i, len) in lens {
        let object = i.to_string();
        let len = len as u64;
        let mut labels: Vec<(&str, &str)> = vec![("object", &object)];
        if let Some(s) = shard.as_deref() {
            labels.push(("shard", s));
        }
        if let Some(c) = cluster.as_deref() {
            labels.push(("cluster", c));
        }
        sink.gauge_set(names::OBJECT_HISTORY_LEN, &labels, len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut reg = Registry::new();
        reg.counter_add(names::NET_SENT, &[], 2);
        reg.counter_add(names::NET_SENT, &[], 3);
        assert_eq!(reg.counter(names::NET_SENT, &[]), 5);
        assert_eq!(reg.counter(names::NET_DELIVERED, &[]), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let mut reg = Registry::new();
        reg.gauge_set(names::SCENARIO_TIME, &[], 10);
        reg.gauge_set(names::SCENARIO_TIME, &[], 7);
        assert_eq!(reg.gauge(names::SCENARIO_TIME, &[]), Some(7));
    }

    #[test]
    fn labels_are_order_insensitive() {
        let mut reg = Registry::new();
        reg.gauge_set(
            names::OBJECT_HISTORY_LEN,
            &[("object", "1"), ("shard", "0")],
            4,
        );
        assert_eq!(
            reg.gauge(
                names::OBJECT_HISTORY_LEN,
                &[("shard", "0"), ("object", "1")]
            ),
            Some(4)
        );
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let mut reg = Registry::new();
        for r in [1u64, 1, 2, 2, 2, 3] {
            reg.observe(names::READER_ROUNDS, &[], r);
        }
        let h = reg.histogram(names::READER_ROUNDS, &[]).unwrap();
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 11);
        assert_eq!(h.cumulative_le(1), 2);
        assert_eq!(h.cumulative_le(2), 5);
        assert_eq!(h.cumulative_le(u64::MAX), 6);
    }

    #[test]
    fn latency_names_get_latency_buckets() {
        let mut reg = Registry::new();
        reg.observe(names::READ_LATENCY, &[], 100_000);
        let h = reg.histogram(names::READ_LATENCY, &[]).unwrap();
        assert_eq!(h.cumulative_le(65_536), 0);
        assert_eq!(h.cumulative_le(262_144), 1);
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.counter_add(names::READER_FAST_HITS, &[], 1);
        b.counter_add(names::READER_FAST_HITS, &[], 2);
        a.observe(names::READER_ROUNDS, &[], 1);
        b.observe(names::READER_ROUNDS, &[], 2);
        b.gauge_set(names::SCENARIO_TIME, &[], 9);
        a.merge(&b);
        assert_eq!(a.counter(names::READER_FAST_HITS, &[]), 3);
        assert_eq!(a.histogram(names::READER_ROUNDS, &[]).unwrap().count(), 2);
        assert_eq!(a.gauge(names::SCENARIO_TIME, &[]), Some(9));
    }

    #[test]
    fn prometheus_encoding_shape() {
        let mut reg = Registry::new();
        reg.counter_add(names::READER_FAST_HITS, &[], 2);
        reg.gauge_set(names::OBJECT_HISTORY_LEN, &[("object", "0")], 3);
        reg.observe(names::READER_ROUNDS, &[], 1);
        reg.observe(names::READER_ROUNDS, &[], 2);
        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE vrr_reader_fast_hits_total counter\n"));
        assert!(text.contains("vrr_reader_fast_hits_total 2\n"));
        assert!(text.contains("vrr_object_history_len{object=\"0\"} 3\n"));
        assert!(text.contains("vrr_reader_rounds_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("vrr_reader_rounds_bucket{le=\"2\"} 2\n"));
        assert!(text.contains("vrr_reader_rounds_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("vrr_reader_rounds_sum 3\n"));
        assert!(text.contains("vrr_reader_rounds_count 2\n"));
    }

    #[test]
    fn encoding_is_deterministic() {
        let build = |order_flip: bool| {
            let mut reg = Registry::new();
            let record = |reg: &mut Registry, which: bool| {
                if which {
                    reg.counter_add(names::NET_SENT, &[], 1);
                } else {
                    reg.gauge_set(names::SCENARIO_TIME, &[], 5);
                }
            };
            record(&mut reg, order_flip);
            record(&mut reg, !order_flip);
            reg.to_prometheus()
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn registry_wire_roundtrip_is_byte_identical() {
        let mut reg = Registry::new();
        reg.counter_add(names::READER_FAST_HITS, &[], 2);
        reg.gauge_set(names::OBJECT_HISTORY_LEN, &[("object", "0")], 3);
        reg.observe(names::READER_ROUNDS, &[], 1);
        reg.observe(names::READ_LATENCY, &[("cluster", "1")], 900);
        let bytes = reg.to_wire_vec();
        let back: Registry = crate::wire::decode_exact(&bytes).expect("decode");
        assert_eq!(back, reg);
        assert_eq!(back.to_wire_vec(), bytes);
        assert_eq!(back.to_prometheus(), reg.to_prometheus());
    }

    #[test]
    fn registry_wire_rejects_malformed_names_and_histograms() {
        // A name outside the vrr_* convention must not be interned.
        let mut bytes = Vec::new();
        1u32.encode(&mut bytes); // one family
        String::from("boom_total").encode(&mut bytes);
        assert!(crate::wire::decode_exact::<Registry>(&bytes).is_err());

        // A histogram whose per-slot counts disagree with its total must
        // be rejected before it can poison a later merge.
        let mut reg = Registry::new();
        reg.observe(names::READER_ROUNDS, &[], 1);
        // The encoding ends with the histogram's sum and count (8 bytes
        // each).
        let mut bytes = reg.to_wire_vec();
        let len = bytes.len();
        bytes[len - 16..len - 8].copy_from_slice(&99u64.to_le_bytes()); // forged sum is fine...
        assert!(crate::wire::decode_exact::<Registry>(&bytes).is_ok());
        bytes[len - 8..].copy_from_slice(&99u64.to_le_bytes()); // ...a forged count is not
        assert!(crate::wire::decode_exact::<Registry>(&bytes).is_err());
    }

    #[test]
    fn registry_wire_rejects_a_label_key_that_would_inject_exposition_lines() {
        for (key, canonical) in [
            ("", true),
            ("cluster=\"1\",object=\"a,b\"", true),
            ("object=\"0\",cluster=\"1\"", false), // not name-sorted
            ("object=\"0\",", false),
            ("object=\"a\\\"", false),
            ("object=\"0\"} 1\nvrr_x{a=\"", false),
        ] {
            assert_eq!(is_label_key(key), canonical, "{key:?}");
        }
        // On the wire: overwrite an honest label value, length kept, so the
        // key closes its brace early and starts a line of its own.
        let mut reg = Registry::new();
        reg.gauge_set(names::OBJECT_HISTORY_LEN, &[("object", "0123456789")], 3);
        let mut bytes = reg.to_wire_vec();
        let at = bytes.windows(10).position(|w| w == b"0123456789").unwrap();
        assert!(crate::wire::decode_exact::<Registry>(&bytes).is_ok());
        bytes[at..at + 10].copy_from_slice(b"0\"} 1\nvrr_");
        let what = "metric label key";
        assert_eq!(
            crate::wire::decode_exact::<Registry>(&bytes),
            Err(WireError::Invalid { what })
        );
    }

    #[test]
    fn merge_skips_and_counts_what_disagrees_instead_of_asserting() {
        let mut own = Registry::new();
        own.counter_add(names::WIRE_RETRIES, &[], 1);
        own.observe(names::READ_LATENCY, &[], 5);
        let mut buckets_of_its_own = Histogram::new(&[5, 10]);
        buckets_of_its_own.observe(7);
        let mut peer = Registry::new();
        peer.gauge_set(names::WIRE_RETRIES, &[], 9);
        peer.observe_all(names::READ_LATENCY, &[], &buckets_of_its_own);
        peer.counter_add(names::NET_SENT, &[], u64::MAX);
        own.merge(&peer);
        own.merge(&peer);
        assert_eq!(own.counter(names::WIRE_RETRIES, &[]), 1);
        assert_eq!(own.histogram(names::READ_LATENCY, &[]).unwrap().count(), 1);
        assert_eq!(own.counter(names::NET_SENT, &[]), u64::MAX, "saturates");
        assert_eq!(own.counter(names::MERGE_SKIPPED, &[]), 4);
        // Still the counter it was: recording into it does not trip over
        // the gauge the peer called it.
        own.counter_add(names::WIRE_RETRIES, &[], 1);
    }

    #[test]
    #[should_panic(expected = "convention")]
    fn misnamed_metrics_are_rejected() {
        let mut reg = Registry::new();
        reg.counter_add("requests_total", &[], 1);
    }

    #[test]
    #[should_panic(expected = "already recorded")]
    fn kind_conflicts_are_rejected() {
        let mut reg = Registry::new();
        reg.counter_add(names::NET_SENT, &[], 1);
        reg.gauge_set(names::NET_SENT, &[], 1);
    }
}
