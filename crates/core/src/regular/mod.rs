//! The optimally resilient SWMR **regular** storage of §5 (Figures 2, 5, 6).
//!
//! Same communication pattern and optimal 2-round complexity as the safe
//! protocol, but objects store their full write history, which upgrades the
//! guarantee from safety to regularity: reads never return phantom values,
//! and a read succeeding a write returns it or something newer. The §5.1
//! optimization (suffix histories + reader-side cache) is available through
//! [`RegularReader::new_optimized`]. The reader automaton is the one
//! [`crate::reader::Reader`] shared with the safe protocol; this
//! module contributes the object (Figure 5) and [`RegularEvidence`],
//! Figure 6's way of reading one object's history reply.
//!
//! # History growth and reader-ack garbage collection
//!
//! The paper's object "keeps track of all values received from the writer
//! throughout the entire run" (§5) and accepts the storage-exhaustion
//! caveat; §5.1 bounds only the *transfer* size (objects ship suffixes),
//! not the object-side history. This module closes that gap with the
//! reader-ack–driven truncation the paper sketches, as a
//! [`HistoryRetention`] policy:
//!
//! * every `READk` message piggybacks `ack_j` — the highest write
//!   timestamp reader `r_j` has *returned* from a completed READ
//!   ([`RegularReader::acked`], monotone by construction);
//! * each object folds these into a per-reader ack vector and, under
//!   [`HistoryRetention::ReaderAck`], drops every history entry strictly
//!   below `min(acks) − 1`, the minimum taken over every reader the
//!   group deploys.
//!
//! ## Why truncating below the ack floor preserves regularity
//!
//! Consider any entry at timestamp `c < min(acks) − 1` and ask whether any
//! correct reader could still need it. A future READ by reader `r_j` must
//! return the last write that completed before the READ began, or a newer
//! concurrent one. When `r_j` returned `ack_j`, the `safe` predicate held:
//! `b + 1` objects — at least one correct — reported write `ack_j` at its
//! history position, so the writer had *invoked* write `ack_j` before that
//! READ ended. The single writer is sequential, hence write `ack_j − 1`
//! had already **completed** by then, and every later READ by `r_j` must
//! return some write `≥ ack_j − 1 ≥ min(acks) − 1`. Both the candidate it
//! returns and the `b + 1` confirmations it needs live at positions
//! `≥ min(acks) − 1`, which the policy retains at every
//! correct object. Entries below the floor can only ever be *absent*,
//! and an absent entry counts toward `invalid(c)`, never toward
//! `safe(c)` — so truncation can kill forged candidates faster but can
//! never confirm a phantom nor starve a legitimate candidate. Liveness is
//! likewise untouched: the candidate a read is waiting on sits at or
//! above the floor. Reads therefore stay regular, 2-round, and wait-free.
//!
//! The floor is gated by the *slowest* reader: a crashed reader stops
//! acking and pins `min(acks)` forever. The `cap` field composes a
//! [`HistoryRetention::KeepLast`]-style hard bound on top for that case —
//! bounded memory at the price of (paper-model) unbounded-staleness
//! protection only for live readers.
//!
//! Steady state, all readers live: history length is bounded by
//! `1 + (writes admitted between two READs of the slowest reader)` —
//! a function of reader concurrency, not run length.
//!
//! ```
//! use vrr_core::regular::HistoryRetention;
//! use vrr_core::{ProtocolKind, ProtocolSpec, StorageConfig, StorageScenario};
//!
//! // §5.1 transfers + reader-ack GC: the bounded-memory configuration.
//! let protocol = ProtocolSpec::from(ProtocolKind::RegularOptimized)
//!     .with_retention(HistoryRetention::reader_ack());
//! let cfg = StorageConfig::optimal(1, 1, 1); // S = 4, R = 1
//! let mut sc = StorageScenario::deploy(protocol, cfg, 7);
//!
//! // A long run: 100 writes, reading (and thereby acking) every 10th.
//! for k in 1..=100u64 {
//!     sc.write(k);
//!     if k % 10 == 0 {
//!         assert_eq!(sc.read(0).value, Some(k));
//!     }
//! }
//! // Histories are bounded by the read cadence, not by the run length.
//! let len = sc.max_history_len();
//! assert!(len <= 12, "bounded by reader concurrency, got {len}");
//! ```
mod object;
mod reader;

pub use object::{HistoryRetention, RegularObject};
pub use reader::{RegularEvidence, RegularReader};
