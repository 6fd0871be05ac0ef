//! The scheduling adversary.
//!
//! Asynchrony in the paper's proofs is wielded by an adversary that decides
//! which messages are delayed ("remain in transit") and which processes crash.
//! [`Adversary`] is a programmable pipeline of interception rules evaluated
//! on every sent message; held messages stay "in transit" inside the
//! [`crate::World`] until released, exactly like the delayed messages of
//! runs `run'2`/`run3` in Figure 1.

use std::fmt;

use crate::envelope::Envelope;
use crate::process::ProcessId;

/// What to do with a freshly sent message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Action {
    /// Deliver with the latency model's delay.
    Deliver,
    /// Deliver with the model delay plus `extra` ticks.
    Delay(u64),
    /// Keep in transit until explicitly released (or forever).
    Hold,
    /// Destroy the message. Only sound against *crashed* processes or in
    /// experiments that model lossy behaviour deliberately: the paper assumes
    /// reliable channels between correct processes.
    Drop,
}

/// Identifies an installed rule so it can be removed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RuleId(u64);

/// A rule's decision procedure: `Some(action)` claims the message.
type DecideFn<M> = Box<dyn FnMut(&Envelope<M>) -> Option<Action> + Send>;

struct Rule<M> {
    id: RuleId,
    name: String,
    decide: DecideFn<M>,
}

impl<M> fmt::Debug for Rule<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rule({:?}, {})", self.id, self.name)
    }
}

/// An ordered pipeline of message-interception rules.
///
/// Rules are evaluated in installation order; the first rule returning
/// `Some(action)` wins, and a message no rule claims is delivered normally.
/// A world's partition ([`crate::World::partition`]) is not a rule: it is
/// consulted before this pipeline and survives [`Adversary::clear`].
///
/// # Examples
///
/// ```
/// use vrr_sim::{Adversary, Action, ProcessId};
///
/// let mut adv: Adversary<&'static str> = Adversary::new();
/// // Keep every message from the writer (p0) to object p3 in transit,
/// // as the Figure-1 runs do for block T1.
/// adv.hold_link(ProcessId(0), ProcessId(3));
/// ```
pub struct Adversary<M> {
    rules: Vec<Rule<M>>,
    next_id: u64,
}

impl<M> Default for Adversary<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> fmt::Debug for Adversary<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Adversary")
            .field("rules", &self.rules)
            .finish()
    }
}

impl<M> Adversary<M> {
    /// An adversary with no rules: fully fair scheduling.
    pub fn new() -> Self {
        Adversary {
            rules: Vec::new(),
            next_id: 0,
        }
    }

    /// Installs `decide` under `name`; returns a handle for removal.
    pub fn install<F>(&mut self, name: impl Into<String>, decide: F) -> RuleId
    where
        F: FnMut(&Envelope<M>) -> Option<Action> + Send + 'static,
    {
        let id = RuleId(self.next_id);
        self.next_id += 1;
        self.rules.push(Rule {
            id,
            name: name.into(),
            decide: Box::new(decide),
        });
        id
    }

    /// Removes a rule. Returns whether it existed.
    pub fn remove(&mut self, id: RuleId) -> bool {
        let before = self.rules.len();
        self.rules.retain(|r| r.id != id);
        self.rules.len() != before
    }

    /// Removes every rule.
    pub fn clear(&mut self) {
        self.rules.clear();
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Decides the fate of `env`.
    pub fn decide(&mut self, env: &Envelope<M>) -> Action {
        for rule in &mut self.rules {
            if let Some(action) = (rule.decide)(env) {
                return action;
            }
        }
        Action::Deliver
    }

    // ---- convenience rule constructors -------------------------------------

    /// Holds every message on the directed link `from → to`.
    pub fn hold_link(&mut self, from: ProcessId, to: ProcessId) -> RuleId {
        self.install(format!("hold {from:?}→{to:?}"), move |e| {
            e.on_link(from, to).then_some(Action::Hold)
        })
    }

    /// Holds every message addressed to `to`.
    pub fn hold_to(&mut self, to: ProcessId) -> RuleId {
        self.install(format!("hold →{to:?}"), move |e| {
            (e.to == to).then_some(Action::Hold)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::MsgId;
    use crate::time::SimTime;

    fn env(from: usize, to: usize) -> Envelope<u8> {
        Envelope {
            id: MsgId(0),
            from: ProcessId(from),
            to: ProcessId(to),
            msg: 0,
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn default_is_deliver() {
        let mut adv: Adversary<u8> = Adversary::new();
        assert!(adv.is_empty());
        assert_eq!(adv.decide(&env(0, 1)), Action::Deliver);
    }

    #[test]
    fn first_matching_rule_wins() {
        let mut adv: Adversary<u8> = Adversary::new();
        adv.hold_to(ProcessId(1));
        adv.install("drop 0→1", |e| {
            e.on_link(ProcessId(0), ProcessId(1))
                .then_some(Action::Drop)
        });
        assert_eq!(adv.decide(&env(0, 1)), Action::Hold);
        assert_eq!(adv.decide(&env(0, 2)), Action::Deliver);
    }

    #[test]
    fn remove_restores_delivery() {
        let mut adv: Adversary<u8> = Adversary::new();
        let id = adv.hold_link(ProcessId(2), ProcessId(3));
        assert_eq!(adv.decide(&env(2, 3)), Action::Hold);
        assert!(adv.remove(id));
        assert!(!adv.remove(id));
        assert_eq!(adv.decide(&env(2, 3)), Action::Deliver);
    }

    #[test]
    fn clear_removes_everything() {
        let mut adv: Adversary<u8> = Adversary::new();
        adv.hold_to(ProcessId(1));
        adv.hold_link(ProcessId(2), ProcessId(1));
        assert_eq!(adv.len(), 2);
        adv.clear();
        assert_eq!(adv.decide(&env(2, 1)), Action::Deliver);
    }
}
