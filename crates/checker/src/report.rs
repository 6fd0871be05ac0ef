//! Violation reporting shared by all checkers.

use std::fmt;

/// Which consistency clause a violation breaks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ViolationKind {
    /// Safety: a read not concurrent with any write returned something
    /// other than the last written value (§2.2).
    SafetyWrongValue,
    /// Regularity clause 1: a read returned a value that was never written.
    RegularityPhantomValue,
    /// Regularity clause 2: a read succeeding write `k` returned an older
    /// write.
    RegularityStaleValue,
    /// Regularity clause 3: a read returned a write that neither precedes
    /// nor is concurrent with it (a value "from the future").
    RegularityFutureValue,
    /// Atomicity: two non-concurrent reads observed writes in inverted
    /// order (new/old inversion).
    AtomicityInversion,
    /// The history itself is malformed (overlapping ops of one client, …).
    MalformedHistory,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::SafetyWrongValue => "safety: wrong value",
            ViolationKind::RegularityPhantomValue => "regularity(1): phantom value",
            ViolationKind::RegularityStaleValue => "regularity(2): stale value",
            ViolationKind::RegularityFutureValue => "regularity(3): future value",
            ViolationKind::AtomicityInversion => "atomicity: new/old inversion",
            ViolationKind::MalformedHistory => "malformed history",
        };
        f.write_str(s)
    }
}

/// One detected violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The broken clause.
    pub kind: ViolationKind,
    /// Human-readable specifics (operation indexes, expected vs. got).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

/// Outcome of a consistency check: `Ok(())` or every violation found.
pub type CheckResult = Result<(), Vec<Violation>>;

/// Collects violations and converts to a [`CheckResult`].
#[derive(Debug, Default)]
pub(crate) struct Collector {
    violations: Vec<Violation>,
}

impl Collector {
    pub(crate) fn new() -> Self {
        Collector::default()
    }

    pub(crate) fn push(&mut self, kind: ViolationKind, detail: String) {
        self.violations.push(Violation { kind, detail });
    }

    pub(crate) fn finish(self) -> CheckResult {
        if self.violations.is_empty() {
            Ok(())
        } else {
            Err(self.violations)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_roundtrip() {
        let c = Collector::new();
        assert!(c.finish().is_ok());

        let mut c = Collector::new();
        c.push(ViolationKind::SafetyWrongValue, "read 3".into());
        let err = c.finish().unwrap_err();
        assert_eq!(err.len(), 1);
        assert_eq!(err[0].kind, ViolationKind::SafetyWrongValue);
        assert!(err[0].to_string().contains("read 3"));
    }

    #[test]
    fn display_names_are_distinct() {
        use ViolationKind::*;
        let all = [
            SafetyWrongValue,
            RegularityPhantomValue,
            RegularityStaleValue,
            RegularityFutureValue,
            AtomicityInversion,
            MalformedHistory,
        ];
        let mut names: Vec<String> = all.iter().map(|k| k.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }
}
