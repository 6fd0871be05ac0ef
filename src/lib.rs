//! # vrr — How Fast Can a Very Robust Read Be?
//!
//! A comprehensive Rust implementation of *Guerraoui & Vukolić, "How Fast
//! Can a Very Robust Read Be?" (PODC 2006)*: wait-free single-writer
//! multi-reader register emulations over `S = 2t + b + 1` failure-prone
//! base objects (at most `t` faulty, of which at most `b` Byzantine),
//! storing unauthenticated data, in which a WRITE completes in two
//! communication round-trips and a READ in **at most two** — provably
//! optimal, since with `S ≤ 2t + 2b` objects no read rule can always
//! answer in one round (Proposition 1, executable here as [`lowerbound`])
//! — and in one when its first round already proves the answer.
//!
//! This crate is the façade over the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `vrr-core` | the paper's safe (§4) and regular (§5, §5.1) protocols |
//! | [`sim`] | `vrr-sim` | deterministic discrete-event simulator with a programmable adversary |
//! | [`runtime`] | `vrr-runtime` | the same automata on a sharded worker-pool executor with batched mailboxes and multi-register storage |
//! | [`baselines`] | `vrr-baselines` | ABD, masking-quorum fast reads, passive `b+1`-round reads |
//! | [`checker`] | `vrr-checker` | safety / regularity / atomicity history oracles |
//! | [`lowerbound`] | `vrr-lowerbound` | the Figure-1 impossibility as an executable harness |
//! | [`workload`] | `vrr-workload` | schedules, fault plans and the experiment runner |
//! | [`net`] | `vrr-net` | framed wire protocol, epoll reactor, multi-process deployments over real sockets |
//!
//! ## Five-minute tour
//!
//! ```
//! use vrr::core::{ProtocolKind, StorageConfig, StorageScenario};
//!
//! // Tolerate t = 1 faulty object, of which b = 1 Byzantine: S = 4 objects.
//! let cfg = StorageConfig::optimal(1, 1, 1);
//! let mut sc = StorageScenario::deploy(ProtocolKind::Safe, cfg, 42);
//!
//! sc.write(7u64);
//! let read = sc.read(0);
//! assert_eq!(read.value, Some(7));
//! assert_eq!(read.rounds, 1); // round 1 proved the answer; 2 is the worst case
//! ```
//!
//! See `examples/` for a quickstart, a Byzantine-attack study, the
//! lower-bound demo, and the key-value service in one process
//! (`scaleout`) and across processes (`dist_scaleout`); see
//! `ARCHITECTURE.md` for the full paper-artifact ↔ module/test/experiment
//! index.

#![warn(missing_docs)]

/// The paper's protocols (re-export of `vrr-core`).
pub mod core {
    pub use vrr_core::*;
}

/// Deterministic simulation substrate (re-export of `vrr-sim`).
pub mod sim {
    pub use vrr_sim::*;
}

/// Worker-pool runtime (re-export of `vrr-runtime`).
pub mod runtime {
    pub use vrr_runtime::*;
}

/// Baseline protocols (re-export of `vrr-baselines`).
pub mod baselines {
    pub use vrr_baselines::*;
}

/// Consistency checkers (re-export of `vrr-checker`).
pub mod checker {
    pub use vrr_checker::*;
}

/// The executable Proposition 1 (re-export of `vrr-lowerbound`).
pub mod lowerbound {
    pub use vrr_lowerbound::*;
}

/// Workload and scenario tooling (re-export of `vrr-workload`).
pub mod workload {
    pub use vrr_workload::*;
}

/// Real-socket transport and the `vrr-server` protocol (re-export of
/// `vrr-net`).
pub mod net {
    pub use vrr_net::*;
}
