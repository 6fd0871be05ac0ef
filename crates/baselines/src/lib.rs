//! # vrr-baselines: the protocols the paper positions itself against
//!
//! Three comparators from the robust-storage literature, behind the same
//! simulator and driver interface ([`vrr_core::RegisterProtocol`]) as the
//! paper's protocols. They are one quorum client — broadcast to every
//! [`LiteObject`], wait for `S − t` distinct answers, decide, optionally
//! write the decision back (`client`: one writer whose phases are data, one
//! reader, one driver) — under three read rules, one per module (`abd`,
//! `masking`, `passive`), each holding only what its reader makes of the
//! replies:
//!
//! | protocol | objects | write rounds | read rounds | tolerates |
//! |---|---|---|---|---|
//! | [`AbdProtocol`] \[ABD95\] | `2t + 1` | 1 | 1 (2 atomic) | crashes only |
//! | [`MaskingProtocol`] \[MR98\]-style | `2t + 2b + 1` | 1 | 1 | `b` Byzantine |
//! | [`PassiveProtocol`] \[ACKM04\]-style | `2t + b + 1` | 2 | 1 … `b + 1` | `b` Byzantine |
//! | paper's safe/regular (`vrr-core`) | `2t + b + 1` | 2 | 2 | `b` Byzantine |
//!
//! The comparison experiment (E-CMP) regenerates the paper's headline
//! positioning from this table: at optimal resilience, passive readers pay
//! `b + 1` rounds in the worst case while the paper's active readers always
//! finish in 2; buying `b` extra objects buys 1-round reads (and below that
//! object count, 1-round reads are impossible — the lower-bound harness).

#![warn(missing_docs)]

mod abd;
mod attackers;
mod client;
mod lite;
mod masking;
mod passive;

pub use abd::AbdProtocol;
pub use attackers::serial_forger;
pub use lite::{LiteMsg, LiteObject};
pub use masking::{corroborated, masking_object_count, MaskingProtocol};
pub use passive::PassiveProtocol;
