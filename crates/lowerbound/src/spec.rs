//! The abstraction of a "fast READ" storage implementation that the
//! Figure-1 runs are executed against.
//!
//! Proposition 1 quantifies over *every* implementation in which every READ
//! completes in one communication round-trip. [`FastReadSpec`] captures what
//! the proof actually uses of such an implementation:
//!
//! * objects are deterministic automata with snapshotable state (`σ`);
//! * the writer runs an arbitrary protocol (*any* number of rounds) that
//!   can only exchange messages with reachable objects;
//! * a read is one message per object; an object's reply is a deterministic
//!   function of its state (and may update the state — the paper's model
//!   allows fast reads that write control data);
//! * the reader must decide from `S − t` replies (it cannot wait for more:
//!   the other `t` objects may have crashed).

use std::collections::BTreeMap;
use std::fmt;

use vrr_core::Value;

/// A fast-read storage implementation under test.
pub trait FastReadSpec {
    /// The value domain.
    type Value: Value;
    /// Object state (the paper's `σ`).
    type ObjState: Clone + fmt::Debug;
    /// A read reply (`readack` payload).
    type Reply: Clone + Eq + fmt::Debug;

    /// Total number of base objects this deployment uses.
    fn object_count(&self) -> usize;

    /// How many objects may fail (`t`).
    fn max_faulty(&self) -> usize;

    /// The initial state `σ0`.
    fn initial_state(&self) -> Self::ObjState;

    /// Runs the writer's full `WRITE(value)` protocol. Objects with
    /// `reachable[i] == false` receive nothing (their messages stay in
    /// transit); the others process every round. Returns `true` iff the
    /// write completes — wait-freedom demands completion whenever at least
    /// `S − t` objects are reachable.
    fn run_write(
        &self,
        value: Self::Value,
        states: &mut [Self::ObjState],
        reachable: &[bool],
    ) -> bool;

    /// Object `i` (in state `state`) processes the read message of the
    /// (single-round) READ and produces its reply. May mutate the state.
    fn read_reply(&self, i: usize, state: &mut Self::ObjState, reader_ts: u64) -> Self::Reply;

    /// The reader's decision given replies from `S − t` distinct objects.
    ///
    /// `Some(Some(v))` returns a written value, `Some(None)` returns `⊥`,
    /// and `None` means the reader refuses to decide — which disqualifies
    /// the implementation as *fast* (with the remaining `t` objects crashed
    /// it would block forever, violating wait-freedom).
    fn decide(&self, replies: &BTreeMap<usize, Self::Reply>) -> Option<Option<Self::Value>>;
}

/// The block partition of the object set used throughout Figure 1:
/// `T1`, `T2` of size `t` and `B1`, `B2` of size `b` (plus, in the control
/// configuration with `S = 2t + 2b + 1`, one extra correct object `E`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockPartition {
    /// Fault budget `t`.
    pub t: usize,
    /// Byzantine budget `b`.
    pub b: usize,
    /// Indexes of block `T1` (crash-prone, size `t`).
    pub t1: Vec<usize>,
    /// Indexes of block `T2` (crash-prone, size `t`).
    pub t2: Vec<usize>,
    /// Indexes of block `B1` (Byzantine-prone, size `b`).
    pub b1: Vec<usize>,
    /// Indexes of block `B2` (Byzantine-prone, size `b`).
    pub b2: Vec<usize>,
    /// Extra correct objects beyond `2t + 2b` (empty at the impossibility
    /// boundary; size ≥ 1 in the control configuration).
    pub extra: Vec<usize>,
}

impl BlockPartition {
    /// Partitions `s` objects into the Figure-1 blocks.
    ///
    /// # Panics
    ///
    /// Panics if `s < 2t + 2b` or `b == 0` or `t < b`.
    pub fn new(s: usize, t: usize, b: usize) -> Self {
        assert!(b > 0, "the construction needs b > 0");
        assert!(t >= b, "b <= t");
        assert!(
            s >= 2 * t + 2 * b,
            "partition needs at least 2t + 2b objects"
        );
        let mut idx = 0..s;
        let mut take = |n: usize| -> Vec<usize> { idx.by_ref().take(n).collect() };
        let t1 = take(t);
        let t2 = take(t);
        let b1 = take(b);
        let b2 = take(b);
        let extra: Vec<usize> = idx.collect();
        BlockPartition {
            t,
            b,
            t1,
            t2,
            b1,
            b2,
            extra,
        }
    }

    /// Total object count.
    pub fn s(&self) -> usize {
        2 * self.t + 2 * self.b + self.extra.len()
    }

    /// The write reach of run 2: everyone except `T1`. Exactly `S − t`
    /// objects.
    pub fn write_reach(&self) -> Vec<bool> {
        let mut reach = vec![true; self.s()];
        for &i in &self.t1 {
            reach[i] = false;
        }
        reach
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_at_boundary_has_no_extra() {
        let p = BlockPartition::new(6, 2, 1);
        assert_eq!(p.t1, vec![0, 1]);
        assert_eq!(p.t2, vec![2, 3]);
        assert_eq!(p.b1, vec![4]);
        assert_eq!(p.b2, vec![5]);
        assert!(p.extra.is_empty());
        assert_eq!(p.s(), 6);
    }

    #[test]
    fn control_partition_has_extra() {
        let p = BlockPartition::new(7, 2, 1);
        assert_eq!(p.extra, vec![6]);
        assert_eq!(p.s(), 7);
    }

    #[test]
    fn write_reach_excludes_exactly_t1() {
        let p = BlockPartition::new(6, 2, 1);
        let reach = p.write_reach();
        assert_eq!(reach.iter().filter(|r| !**r).count(), 2);
        assert!(!reach[0] && !reach[1]);
    }

    #[test]
    #[should_panic(expected = "at least 2t + 2b")]
    fn rejects_too_few_objects() {
        let _ = BlockPartition::new(5, 2, 1);
    }
}
