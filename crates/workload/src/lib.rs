//! # vrr-workload: scenario generation and execution for experiments
//!
//! Experiments over the `vrr` protocols share three ingredients:
//!
//! * a [`Schedule`] of operations (random interleavings of writes and
//!   reads, deterministic per seed — [`generate`]);
//! * a [`FaultPlan`] assigning crashes and Byzantine behaviours within the
//!   `(t, b)` budget;
//! * a runner ([`SimCase`]) that executes the schedule against any
//!   [`vrr_core::RegisterProtocol`] in the deterministic simulator and
//!   produces a [`vrr_checker::OpHistory`] plus round-count statistics.
//!   It runs on a [`vrr_core::StorageScenario`] — the one way an
//!   operation enters a simulated world — keeping one started operation
//!   per client in flight and polling after every event; a test that
//!   drives a `StorageScenario` by hand through the same operations sees
//!   the same metrics and network counters.
//!
//! Two drivers, one per world, the same [`vrr_checker::OpHistory`] out:
//! [`SimCase`] stamps operations with simulator ticks; on threads and
//! sockets, [`live`] runs keyed drills (a concurrent storm, a sequential
//! schedule, a write burst racing a drain) against any store reachable
//! through a `write(key, value)` and a `read(key)` closure, stamped with
//! the logical ticks of a [`vrr_checker::Recorder`].
//!
//! ```
//! use vrr_core::{ProtocolKind, StorageConfig};
//! use vrr_workload::{FaultPlan, LatencyKind, ScheduleParams, SimCase};
//!
//! let out = SimCase::new(&ProtocolKind::Safe, StorageConfig::optimal(1, 1, 1))
//!     .schedule(ScheduleParams::sequential(3, 3, 1, 42))
//!     .faults(FaultPlan::none())
//!     .latency(LatencyKind::Unit)
//!     .run();
//! assert!(out.all_live());
//! assert!(vrr_checker::check_safety(&out.history).is_ok());
//! ```

#![warn(missing_docs)]

mod faults;
mod keys;
pub mod live;
mod runner;
mod schedule;
mod sweep;

pub use faults::FaultPlan;
pub use keys::ZipfianKeys;
pub use runner::{LatencyKind, RunOutcome, SimCase};
pub use schedule::{generate, ClientPlan, PlannedOp, Schedule, ScheduleParams};
pub use sweep::{grid, hunt, Exposed, SweepPoint};
