//! Link policies: per-message delay and loss injection.
//!
//! The runtime twin of the simulator's latency model + adversary. Every
//! message crossing a link is submitted to the cluster's [`LinkPolicy`],
//! which decides its fate as part of the flush of whichever thread runs the
//! sender — concurrently with every other runner, so a policy is asked
//! through `&self` and keeps any state of its own in atomics; delayed
//! messages park in the owning worker's timer wheel (see `executor.rs`)
//! until due. There is no routing thread — this module holds only the
//! policy types.

use std::time::Duration;

use vrr_sim::ProcessId;

/// What to do with a message crossing a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkAction {
    /// Deliver as fast as the mailboxes allow.
    Deliver,
    /// Deliver after an artificial delay.
    DeliverAfter(Duration),
    /// Destroy the message.
    Drop,
}

/// Per-message link decisions (the runtime twin of the simulator's
/// latency model + adversary). Every thread that runs a register group asks
/// the one policy of its cluster, at once and without a lock.
pub trait LinkPolicy<M>: Send + Sync + 'static {
    /// Decides the fate of one message.
    fn action(&self, from: ProcessId, to: ProcessId, msg: &M) -> LinkAction;
}

/// Deliver everything immediately.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoDelay;

impl<M> LinkPolicy<M> for NoDelay {
    fn action(&self, _from: ProcessId, _to: ProcessId, _msg: &M) -> LinkAction {
        LinkAction::Deliver
    }
}

/// Add a fixed delay to every message (a uniform "network RTT/2").
#[derive(Clone, Copy, Debug)]
pub struct FixedDelay(pub Duration);

impl<M> LinkPolicy<M> for FixedDelay {
    fn action(&self, _from: ProcessId, _to: ProcessId, _msg: &M) -> LinkAction {
        LinkAction::DeliverAfter(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_decide_actions() {
        let p = ProcessId(0);
        assert_eq!(
            <NoDelay as LinkPolicy<u32>>::action(&NoDelay, p, p, &1),
            LinkAction::Deliver
        );
        let d = Duration::from_millis(3);
        assert_eq!(
            <FixedDelay as LinkPolicy<u32>>::action(&FixedDelay(d), p, p, &1),
            LinkAction::DeliverAfter(d)
        );
    }
}
