//! Message envelopes: a payload plus routing and timing metadata.

use std::fmt;

use crate::process::ProcessId;
use crate::time::SimTime;

/// Unique identifier of a message instance within one run.
///
/// Assigned densely in send order, so it doubles as a deterministic
/// tie-breaker for simultaneous events.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MsgId(pub u64);

/// A message in flight: payload plus the metadata adversaries filter on.
///
/// This is the unit the paper calls "a message in `mset_{p,q}`" — sent but not
/// yet received (§2.1). Envelopes held by the adversary model the paper's
/// "messages in transit".
#[derive(Clone)]
pub struct Envelope<M> {
    /// Unique id in send order.
    pub id: MsgId,
    /// Sender process.
    pub from: ProcessId,
    /// Receiver process.
    pub to: ProcessId,
    /// The protocol payload.
    pub msg: M,
    /// When the send step occurred.
    pub sent_at: SimTime,
}

impl<M: fmt::Debug> fmt::Debug for Envelope<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} {:?}→{:?} @{:?}: {:?}",
            self.id.0, self.from, self.to, self.sent_at, self.msg
        )
    }
}

impl<M> Envelope<M> {
    /// Whether this envelope travels on the directed link `from → to`.
    pub fn on_link(&self, from: ProcessId, to: ProcessId) -> bool {
        self.from == from && self.to == to
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> Envelope<&'static str> {
        Envelope {
            id: MsgId(4),
            from: ProcessId(1),
            to: ProcessId(2),
            msg: "hi",
            sent_at: SimTime::from_ticks(9),
        }
    }

    #[test]
    fn link_predicates() {
        let e = env();
        assert!(e.on_link(ProcessId(1), ProcessId(2)));
        assert!(!e.on_link(ProcessId(2), ProcessId(1)));
    }

    #[test]
    fn debug_is_compact() {
        assert_eq!(format!("{:?}", env()), "#4 p1→p2 @t=9: \"hi\"");
    }
}
