//! Run traces, network statistics and fault counters.

use std::fmt;

use crate::envelope::Envelope;
use crate::process::ProcessId;
use crate::time::SimTime;

/// What happened at one point of a run.
#[derive(Clone, Debug)]
pub enum TraceEventKind<M> {
    /// A process emitted a message.
    Sent(Envelope<M>),
    /// A message reached its destination and was processed.
    Delivered(Envelope<M>),
    /// The adversary kept a message in transit.
    Held(Envelope<M>),
    /// The adversary destroyed a message.
    Dropped(Envelope<M>),
    /// A previously held message re-entered the network.
    Released(Envelope<M>),
    /// A message addressed to a crashed process was discarded.
    DeadLetter(Envelope<M>),
    /// A process crashed.
    Crashed(ProcessId),
    /// A process was replaced by a Byzantine automaton.
    TurnedByzantine(ProcessId),
}

/// A timestamped trace event.
#[derive(Clone, Debug)]
pub struct TraceEvent<M> {
    /// When the event occurred.
    pub at: SimTime,
    /// What occurred.
    pub kind: TraceEventKind<M>,
}

/// An in-memory log of everything that happened in a run.
///
/// Disabled by default — enable with [`Trace::enable`] when debugging or when
/// an experiment consumes the event stream. Statistics in [`NetStats`] are
/// always collected regardless.
#[derive(Clone, Debug)]
pub struct Trace<M> {
    events: Vec<TraceEvent<M>>,
    enabled: bool,
}

impl<M> Default for Trace<M> {
    fn default() -> Self {
        Trace {
            events: Vec::new(),
            enabled: false,
        }
    }
}

impl<M> Trace<M> {
    /// Starts recording events.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    pub(crate) fn push(&mut self, at: SimTime, kind: TraceEventKind<M>) {
        if self.enabled {
            self.events.push(TraceEvent { at, kind });
        }
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[TraceEvent<M>] {
        &self.events
    }

    /// Discards recorded events (keeps the enabled flag).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

/// Aggregate network counters for one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages emitted by automata.
    pub sent: u64,
    /// Messages processed by their destination.
    pub delivered: u64,
    /// Messages currently or formerly held by the adversary.
    pub held: u64,
    /// Messages released from holding.
    pub released: u64,
    /// Messages destroyed by the adversary.
    pub dropped: u64,
    /// Messages discarded because the destination had crashed.
    pub dead_letters: u64,
    /// Total wire size of sent messages, in bytes.
    pub bytes_sent: u64,
    /// Total wire size of delivered messages, in bytes.
    pub bytes_delivered: u64,
}

/// Counters for the faults applied to a world so far.
///
/// These complement [`NetStats`] (which counts messages): a metrics layer
/// can export both to make a run's fault script observable next to its
/// traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Partitions applied (scripted or immediate).
    pub partitions: u64,
    /// Heals applied (a partition replacing another is not a heal).
    pub heals: u64,
    /// Crashes applied.
    pub crashes: u64,
    /// Processes turned Byzantine.
    pub byzantine: u64,
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent={} delivered={} held={} released={} dropped={} dead={} bytes_sent={} bytes_delivered={}",
            self.sent,
            self.delivered,
            self.held,
            self.released,
            self.dropped,
            self.dead_letters,
            self.bytes_sent,
            self.bytes_delivered
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t: Trace<u8> = Trace::default();
        t.push(SimTime::ZERO, TraceEventKind::Crashed(ProcessId(1)));
        assert!(t.events().is_empty());
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t: Trace<u8> = Trace::default();
        t.enable();
        t.push(
            SimTime::from_ticks(1),
            TraceEventKind::Crashed(ProcessId(1)),
        );
        t.push(
            SimTime::from_ticks(2),
            TraceEventKind::TurnedByzantine(ProcessId(2)),
        );
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events()[0].at, SimTime::from_ticks(1));
        t.clear();
        assert!(t.events().is_empty());
        t.push(
            SimTime::from_ticks(3),
            TraceEventKind::Crashed(ProcessId(1)),
        );
        assert_eq!(t.events().len(), 1, "clearing does not stop the recording");
    }

    #[test]
    fn stats_display_is_complete() {
        let s = NetStats {
            sent: 1,
            ..NetStats::default()
        };
        let rendered = s.to_string();
        assert!(rendered.contains("sent=1"));
        assert!(rendered.contains("bytes_delivered=0"));
    }
}
