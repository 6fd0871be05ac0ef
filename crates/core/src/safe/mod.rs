//! The optimally resilient SWMR **safe** storage of §4 (Figures 2–4).
//!
//! `S = 2t + b + 1` base objects; both READ and WRITE complete in exactly
//! two communication round-trips — the optimal worst case (Propositions 1
//! and 2). The writer is shared with the regular protocol and lives in
//! `crate::writer` (re-exported as [`crate::Writer`]); so is the reader
//! automaton, [`crate::reader::Reader`] — this module contributes the
//! object (Figure 3) and [`SafeEvidence`], Figure 4's way of reading one
//! object's `⟨pw, w⟩` reply.

mod object;
mod reader;

pub use object::SafeObject;
pub use reader::{SafeEvidence, SafeReader};
