//! Operation histories: the input to the consistency checkers.
//!
//! A history records, for every READ and WRITE of a run, its invocation and
//! response times on the global clock (which the *checker* may consult even
//! though the protocols cannot — the paper's §2 global clock exists exactly
//! for specification purposes) plus the operation's payload. The paper's
//! precedence relation (§2.2): `op1` precedes `op2` iff `op1` is complete
//! and its response time is strictly before `op2`'s invocation time.

use std::fmt;

/// The payload of one recorded operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpKind<V> {
    /// A WRITE. `seq` is the write's 1-based sequence number, which in the
    /// single-writer setting equals the timestamp assigned by the writer.
    Write {
        /// Position in the writer's program order (1-based).
        seq: u64,
        /// The written value.
        value: V,
    },
    /// A READ and what it returned. `seq = 0` / `value = None` is the
    /// initial value `⊥`.
    Read {
        /// Reader index.
        reader: usize,
        /// Sequence number (write timestamp) of the returned value.
        seq: u64,
        /// The returned value (`None` = `⊥`).
        value: Option<V>,
    },
}

/// One operation instance in a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpRecord<V> {
    /// What the operation was and what it carried.
    pub kind: OpKind<V>,
    /// Invocation time on the global clock.
    pub invoked_at: u64,
    /// Response time, or `None` if the operation never completed (client
    /// crash). Incomplete operations constrain nothing but may be
    /// concurrent with everything after their invocation.
    pub completed_at: Option<u64>,
}

impl<V> OpRecord<V> {
    /// Whether this operation completed.
    pub fn is_complete(&self) -> bool {
        self.completed_at.is_some()
    }

    /// Paper §2.2: `self` precedes `other` iff `self` is complete and its
    /// response is strictly before `other`'s invocation.
    pub fn precedes(&self, other: &OpRecord<V>) -> bool {
        self.completed_at.is_some_and(|c| c < other.invoked_at)
    }

    /// Neither precedes the other.
    pub fn concurrent_with(&self, other: &OpRecord<V>) -> bool {
        !self.precedes(other) && !other.precedes(self)
    }
}

/// A complete run history: every operation with timing.
///
/// # Examples
///
/// ```
/// use vrr_checker::{OpHistory, check_safety};
///
/// let mut h = OpHistory::new();
/// h.push_write(1, 10u64, 0, Some(10));   // write #1 of value 10 over [0, 10]
/// h.push_read(0, 1, Some(10), 20, Some(30)); // read returns write #1
/// assert!(check_safety(&h).is_ok());
/// ```
#[derive(Clone, Debug, Default)]
pub struct OpHistory<V> {
    ops: Vec<OpRecord<V>>,
}

impl<V: Clone + Eq + fmt::Debug> OpHistory<V> {
    /// An empty history.
    pub fn new() -> Self {
        OpHistory { ops: Vec::new() }
    }

    /// Records a write. `seq` must follow the writer's program order.
    pub fn push_write(&mut self, seq: u64, value: V, invoked_at: u64, completed_at: Option<u64>) {
        self.ops.push(OpRecord {
            kind: OpKind::Write { seq, value },
            invoked_at,
            completed_at,
        });
    }

    /// Records a read returning the value of write `seq` (0 = `⊥`).
    pub fn push_read(
        &mut self,
        reader: usize,
        seq: u64,
        value: Option<V>,
        invoked_at: u64,
        completed_at: Option<u64>,
    ) {
        self.ops.push(OpRecord {
            kind: OpKind::Read { reader, seq, value },
            invoked_at,
            completed_at,
        });
    }

    /// All operations in recording order.
    pub fn ops(&self) -> &[OpRecord<V>] {
        &self.ops
    }

    /// The write records, in sequence order.
    ///
    /// # Panics
    ///
    /// Panics (via the well-formedness report) only through
    /// [`OpHistory::validate`]; this accessor assumes a validated history.
    pub fn writes(&self) -> Vec<&OpRecord<V>> {
        let mut out: Vec<&OpRecord<V>> = self
            .ops
            .iter()
            .filter(|op| matches!(op.kind, OpKind::Write { .. }))
            .collect();
        out.sort_by_key(|op| match op.kind {
            OpKind::Write { seq, .. } => seq,
            OpKind::Read { .. } => unreachable!(),
        });
        out
    }

    /// The complete read records.
    pub fn complete_reads(&self) -> Vec<&OpRecord<V>> {
        self.ops
            .iter()
            .filter(|op| matches!(op.kind, OpKind::Read { .. }) && op.is_complete())
            .collect()
    }

    /// The value written by write `seq`, if that write exists.
    pub fn written_value(&self, seq: u64) -> Option<&V> {
        self.ops.iter().find_map(|op| match &op.kind {
            OpKind::Write { seq: s, value } if *s == seq => Some(value),
            _ => None,
        })
    }

    /// Checks structural well-formedness: monotone response times per
    /// client, sequential writes with consecutive `seq` starting at 1,
    /// sequential reads per reader.
    pub fn validate(&self) -> Result<(), String> {
        // Writes: seq 1..=n, non-overlapping, in order.
        let writes = self.writes();
        for (i, wr) in writes.iter().enumerate() {
            let OpKind::Write { seq, .. } = &wr.kind else {
                unreachable!()
            };
            if *seq != (i + 1) as u64 {
                return Err(format!("write seq {seq} out of order (expected {})", i + 1));
            }
            if let Some(c) = wr.completed_at {
                if c < wr.invoked_at {
                    return Err(format!("write {seq} completes before invocation"));
                }
            }
            if i > 0 {
                let prev = writes[i - 1];
                match prev.completed_at {
                    Some(c) if c <= wr.invoked_at => {}
                    Some(_) => return Err(format!("write {seq} overlaps its predecessor")),
                    None => {
                        return Err(format!(
                            "write {seq} invoked after an incomplete write (writer crashed?)"
                        ))
                    }
                }
            }
        }
        // Reads: per reader sequential.
        let mut per_reader: std::collections::BTreeMap<usize, Vec<&OpRecord<V>>> =
            std::collections::BTreeMap::new();
        for op in &self.ops {
            if let OpKind::Read { reader, .. } = op.kind {
                per_reader.entry(reader).or_default().push(op);
            }
        }
        for (reader, mut reads) in per_reader {
            reads.sort_by_key(|op| op.invoked_at);
            for pair in reads.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                if let Some(c) = a.completed_at {
                    if c > b.invoked_at {
                        return Err(format!("reader {reader} has overlapping reads"));
                    }
                } else {
                    return Err(format!(
                        "reader {reader} invoked a read after an incomplete one"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_is_strict() {
        let a = OpRecord::<u64> {
            kind: OpKind::Write { seq: 1, value: 1 },
            invoked_at: 0,
            completed_at: Some(5),
        };
        let b = OpRecord::<u64> {
            kind: OpKind::Read {
                reader: 0,
                seq: 1,
                value: Some(1),
            },
            invoked_at: 6,
            completed_at: Some(9),
        };
        assert!(a.precedes(&b));
        assert!(!b.precedes(&a));
        assert!(!a.concurrent_with(&b));

        let c = OpRecord::<u64> {
            kind: OpKind::Read {
                reader: 0,
                seq: 1,
                value: Some(1),
            },
            invoked_at: 5, // same tick as a's response: NOT preceded (strict)
            completed_at: Some(9),
        };
        assert!(!a.precedes(&c));
        assert!(a.concurrent_with(&c));
    }

    #[test]
    fn incomplete_ops_precede_nothing() {
        let a = OpRecord::<u64> {
            kind: OpKind::Write { seq: 1, value: 1 },
            invoked_at: 0,
            completed_at: None,
        };
        let b = OpRecord::<u64> {
            kind: OpKind::Read {
                reader: 0,
                seq: 0,
                value: None,
            },
            invoked_at: 100,
            completed_at: Some(110),
        };
        assert!(!a.precedes(&b));
        assert!(a.concurrent_with(&b));
    }

    #[test]
    fn validate_accepts_well_formed() {
        let mut h = OpHistory::new();
        h.push_write(1, 10u64, 0, Some(5));
        h.push_write(2, 20, 6, Some(9));
        h.push_read(0, 2, Some(20), 10, Some(12));
        h.push_read(0, 2, Some(20), 13, None); // reader crashed mid-read: fine as last op
        assert!(h.validate().is_ok());
    }

    #[test]
    fn validate_rejects_gapped_write_seq() {
        let mut h = OpHistory::new();
        h.push_write(2, 20u64, 0, Some(5));
        assert!(h.validate().is_err());
    }

    #[test]
    fn validate_rejects_overlapping_writes() {
        let mut h = OpHistory::new();
        h.push_write(1, 10u64, 0, Some(10));
        h.push_write(2, 20, 5, Some(15));
        assert!(h.validate().is_err());
    }

    #[test]
    fn validate_rejects_overlapping_reads_same_reader() {
        let mut h = OpHistory::new();
        h.push_read(0, 0, Option::<u64>::None, 0, Some(10));
        h.push_read(0, 0, None, 5, Some(15));
        assert!(h.validate().is_err());
    }

    #[test]
    fn validate_allows_overlapping_reads_distinct_readers() {
        let mut h = OpHistory::new();
        h.push_read(0, 0, Option::<u64>::None, 0, Some(10));
        h.push_read(1, 0, None, 5, Some(15));
        assert!(h.validate().is_ok());
    }

    #[test]
    fn written_value_lookup() {
        let mut h = OpHistory::new();
        h.push_write(1, 10u64, 0, Some(5));
        assert_eq!(h.written_value(1), Some(&10));
        assert_eq!(h.written_value(2), None);
    }
}
