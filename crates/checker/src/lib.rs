//! # vrr-checker: consistency oracles for register histories
//!
//! History-based checkers for the three register semantics the paper works
//! with (§2.2): **safety**, **regularity**, and (for baselines and ablation)
//! **atomicity**. Protocol experiments record every operation's invocation
//! and response times plus what it read or wrote; the checkers then decide
//! whether the run was consistent.
//!
//! The checkers are deliberately independent of the protocol and simulator
//! crates: they consume plain [`OpHistory`] values, so they can also judge
//! mutated protocols (the mutation experiments of E-T1/E-T3) and histories
//! from the thread runtime.
//!
//! ```
//! use vrr_checker::{OpHistory, check_safety, check_regularity};
//!
//! let mut h = OpHistory::new();
//! h.push_write(1, "a", 0, Some(10));
//! h.push_write(2, "b", 20, Some(30));
//! h.push_read(0, 2, Some("b"), 40, Some(50));
//! assert!(check_safety(&h).is_ok());
//! assert!(check_regularity(&h).is_ok());
//! ```
//!
//! The simulator stamps histories with its own time. On threads and
//! sockets a [`Recorder`] is the clock: it wraps each operation between two
//! ticks of one shared counter, keeps one history per register (key or
//! slot), and [`Recorder::check`] validates and checks them all — every
//! live test, drill and example records through it.
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
//! use vrr_checker::{check_regularity, Recorder};
//!
//! let (register, rec) = (AtomicU64::new(0), Recorder::new(1));
//! std::thread::scope(|scope| {
//!     scope.spawn(|| {
//!         for seq in 1..=50u64 {
//!             rec.write(0, seq, seq * 10, || register.store(seq, SeqCst));
//!         }
//!     });
//!     scope.spawn(|| {
//!         for _ in 0..50 {
//!             rec.read(0, 0, || {
//!                 let seq = register.load(SeqCst);
//!                 (seq, (seq > 0).then_some(seq * 10))
//!             });
//!         }
//!     });
//! });
//! assert_eq!(rec.check(check_regularity), Ok(()));
//! ```

#![warn(missing_docs)]

mod atomicity;
mod history;
mod recorder;
mod regularity;
mod report;
mod safety;

pub use atomicity::check_atomicity;
pub use history::{OpHistory, OpKind, OpRecord};
pub use recorder::Recorder;
pub use regularity::check_regularity;
pub use report::{CheckResult, Violation, ViolationKind};
pub use safety::check_safety;
