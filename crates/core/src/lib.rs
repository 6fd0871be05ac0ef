//! # vrr-core: robust reads at optimal resilience in at most two rounds
//!
//! A faithful implementation of the storage protocols of *Guerraoui &
//! Vukolić, "How Fast Can a Very Robust Read Be?" (PODC 2006)*: wait-free
//! single-writer multi-reader register emulations over `S = 2t + b + 1`
//! failure-prone base objects (at most `t` faulty, of which at most `b`
//! Byzantine), storing unauthenticated data, in which a WRITE takes two
//! communication round-trips and a READ **at most two** — matching the
//! paper's lower bound (Proposition 1: with `S ≤ 2t + 2b` objects no read
//! rule can always return in one round) — and one when its first round
//! already proves the answer.
//!
//! Two consistency levels:
//!
//! * [`safe`] — the §4 protocol (Figures 2–4): reads not concurrent with a
//!   write return the last written value.
//! * [`regular`] — the §5 protocol (Figures 2, 5, 6): additionally, reads
//!   only ever return genuinely written values, and a read succeeding a
//!   write returns it or something newer. Objects store full histories; the
//!   §5.1 optimization ([`regular::RegularReader::new_optimized`]) ships
//!   history suffixes against a reader-side cache, and reader-ack–driven
//!   garbage collection ([`regular::HistoryRetention::ReaderAck`]) bounds
//!   object-side memory — the safety argument is in the [`regular`] module
//!   docs.
//!
//! Both share one writer (Figure 2) and one reader automaton —
//! [`reader::Reader`], which Figure 4 and Figure 6 instantiate through an
//! [`reader::Evidence`] each.
//!
//! The automata are transport-agnostic ([`vrr_sim::Automaton`]) and run both
//! under the deterministic simulator (`vrr-sim`) and the thread runtime
//! (`vrr-runtime`).
//!
//! ## Quick example (simulated)
//!
//! ```
//! use vrr_core::{ProtocolKind, StorageConfig, StorageScenario};
//!
//! let cfg = StorageConfig::optimal(1, 1, 1); // t = 1 fault, b = 1 Byzantine: S = 4
//! let mut sc = StorageScenario::deploy(ProtocolKind::Safe, cfg, 42);
//!
//! let w = sc.write(7u64);
//! assert_eq!(w.rounds, 2);
//! let r = sc.read(0);
//! assert_eq!(r.value, Some(7));
//! assert_eq!(r.rounds, 1); // round 1 proved the answer: no READ2 was sent
//! ```

#![warn(missing_docs)]

pub mod attackers;
mod config;
mod group;
mod harness;
pub mod metrics;
mod mis;
mod msg;
pub mod reader;
pub mod regular;
pub mod safe;
mod scenario;
mod types;
pub mod wire;
mod writer;

pub use config::StorageConfig;
pub use group::{
    group_member, group_span, spawn_group, Deployment, GroupRole, ProtocolKind, ProtocolSpec,
};
pub use harness::{RegisterProtocol, RegularProtocol};
pub use mis::conflict_free_of_size;
pub use msg::{Msg, ReadRound};
pub use reader::{ReadReport, ReaderTuning};
pub use scenario::{ReadOp, StorageScenario, WriteOp};
pub use types::{
    HistEntry, History, ObjectIndex, ReaderIndex, Timestamp, TsVal, TsrMatrix, Value, WTuple,
};
pub use writer::{WriteId, WriteReport, Writer};
