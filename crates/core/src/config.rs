//! System sizing: `S` base objects, `t` faults, `b` Byzantine.

use std::fmt;

/// Failure and sizing parameters of a storage deployment.
///
/// The paper's model (§2.1): `S` base objects, at most `t` faulty, of which
/// at most `b` malicious, `b > 0`. An implementation using
/// `S = 2t + b + 1` objects is *optimally resilient*.
///
/// # Examples
///
/// ```
/// use vrr_core::StorageConfig;
///
/// let cfg = StorageConfig::optimal(2, 1, 1); // t=2, b=1, one reader
/// assert_eq!(cfg.s, 6);                      // 2t + b + 1
/// assert_eq!(cfg.quorum(), 4);               // S - t
/// assert_eq!(cfg.b_plus_1(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct StorageConfig {
    /// Total number of base objects `S`.
    pub s: usize,
    /// Maximum number of faulty objects `t`.
    pub t: usize,
    /// Maximum number of malicious objects `b` (`b ≤ t`).
    pub b: usize,
    /// Number of reader clients `R`.
    pub readers: usize,
}

impl StorageConfig {
    /// An optimally resilient configuration: `S = 2t + b + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `b > t` or `readers == 0`. `b == 0` is accepted although
    /// the paper assumes `b > 0`: it sizes a crash-only group, `S = 2t + 1`.
    pub fn optimal(t: usize, b: usize, readers: usize) -> Self {
        Self::with_objects(2 * t + b + 1, t, b, readers)
    }

    /// A crash-only configuration (`b = 0`, `S = 2t + 1`), the setting of
    /// the ABD baseline \[ABD95\]. The paper's own protocols assume `b > 0`.
    pub fn crash_only(t: usize, readers: usize) -> Self {
        Self::with_objects(2 * t + 1, t, 0, readers)
    }

    /// A configuration with an explicit object count (used by the
    /// lower-bound and resilience experiments, which deliberately go below
    /// optimal resilience, and by the crash-only baseline with `b = 0`).
    ///
    /// # Panics
    ///
    /// Panics if `b > t`, `readers == 0`, or `s ≤ t + b` (with so few
    /// objects no quorum intersection survives even crash faults; no
    /// experiment is meaningful there).
    pub fn with_objects(s: usize, t: usize, b: usize, readers: usize) -> Self {
        assert!(b <= t, "Byzantine faults are a subset of faults: b <= t");
        assert!(readers > 0, "at least one reader");
        assert!(s > t + b, "need s > t + b for any quorum reasoning");
        StorageConfig { s, t, b, readers }
    }

    /// Whether this is the optimal-resilience size `S = 2t + b + 1`.
    pub fn is_optimal(&self) -> bool {
        self.s == 2 * self.t + self.b + 1
    }

    /// The quorum a client can safely wait for: `S − t` replies.
    pub fn quorum(&self) -> usize {
        self.s - self.t
    }

    /// The Byzantine-evidence threshold `b + 1`: at least one correct object
    /// is behind any `b + 1` identical reports.
    pub fn b_plus_1(&self) -> usize {
        self.b + 1
    }

    /// The elimination threshold `t + b + 1` used by the reader's candidate
    /// removal rule (Figure 4, lines 27–28).
    pub fn t_plus_b_plus_1(&self) -> usize {
        self.t + self.b + 1
    }

    /// Whether every READ not concurrent with a write returns on round 1:
    /// `S ≥ 2t + 2b + 1`, one object above the Proposition 1 boundary.
    ///
    /// There the `S − t − b` correct holders of the last completed write
    /// put at least `b + 1` exact confirmations into any round-1 quorum,
    /// and the quorum's at least `t + b + 1` correct members eliminate any
    /// forged higher tuple before it closes (see the `reader` module docs).
    /// Below it a READ returns on round 1 only when round 1 happens to
    /// prove the answer; Proposition 1 says no rule can do better.
    ///
    /// # Examples
    ///
    /// ```
    /// use vrr_core::StorageConfig;
    ///
    /// // At and below the Prop. 1 boundary S = 2t + 2b: no guarantee.
    /// assert!(!StorageConfig::optimal(1, 1, 1).guarantees_one_round_reads());
    /// assert!(!StorageConfig::with_objects(4, 1, 1, 1).guarantees_one_round_reads());
    ///
    /// // S = 2t + 2b + 1 = 5 and above: guaranteed.
    /// assert!(StorageConfig::fast(1, 1, 1).guarantees_one_round_reads());
    /// assert!(StorageConfig::with_objects(6, 1, 1, 1).guarantees_one_round_reads());
    /// ```
    pub fn guarantees_one_round_reads(&self) -> bool {
        self.s > 2 * self.t + 2 * self.b
    }

    /// The cheapest sizing at which one-round reads are guaranteed:
    /// `S = 2t + 2b + 1`, one object above the Proposition 1 boundary.
    ///
    /// Compared to [`StorageConfig::optimal`] this buys the guarantee with
    /// `b` extra base objects.
    ///
    /// # Panics
    ///
    /// Panics if `b > t` or `readers == 0`.
    pub fn fast(t: usize, b: usize, readers: usize) -> Self {
        let cfg = Self::with_objects(2 * t + 2 * b + 1, t, b, readers);
        debug_assert!(cfg.guarantees_one_round_reads());
        cfg
    }
}

impl fmt::Debug for StorageConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "S={} t={} b={} R={}{}",
            self.s,
            self.t,
            self.b,
            self.readers,
            if self.is_optimal() { " (optimal)" } else { "" }
        )
    }
}

impl fmt::Display for StorageConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_sizing() {
        let cfg = StorageConfig::optimal(1, 1, 1);
        assert_eq!(cfg.s, 4);
        assert!(cfg.is_optimal());
        assert_eq!(cfg.quorum(), 3);
        assert_eq!(cfg.b_plus_1(), 2);
        assert_eq!(cfg.t_plus_b_plus_1(), 3);
        assert!(!cfg.guarantees_one_round_reads(), "2t+b+1 = 4 <= 2t+2b = 4");
    }

    #[test]
    fn one_round_guarantee_starts_one_above_the_boundary() {
        // S = 2t+2b: impossible (Proposition 1). S = 2t+2b+1: guaranteed,
        // and so is every larger S.
        for t in 1..5 {
            for b in 1..=t {
                let boundary = 2 * t + 2 * b;
                let at = StorageConfig::with_objects(boundary, t, b, 1);
                assert!(!at.guarantees_one_round_reads(), "{at}");
                assert!(!StorageConfig::optimal(t, b, 1).guarantees_one_round_reads());
                for s in boundary + 1..boundary + 5 {
                    let cfg = StorageConfig::with_objects(s, t, b, 1);
                    assert!(cfg.guarantees_one_round_reads(), "{cfg}");
                }
            }
        }
    }

    #[test]
    fn fast_sizing_constructor() {
        let cfg = StorageConfig::fast(2, 1, 3);
        assert_eq!(cfg.s, 7);
        assert_eq!(cfg.readers, 3);
        assert!(!cfg.is_optimal());
        assert!(cfg.guarantees_one_round_reads());
    }

    #[test]
    fn crash_only_is_abd_sized() {
        let cfg = StorageConfig::crash_only(2, 1);
        assert_eq!(cfg.s, 5);
        assert_eq!(cfg.b, 0);
        assert_eq!(cfg.quorum(), 3);
        assert_eq!(cfg.b_plus_1(), 1);
    }

    #[test]
    #[should_panic(expected = "b <= t")]
    fn rejects_b_above_t() {
        let _ = StorageConfig::with_objects(9, 1, 2, 1);
    }

    #[test]
    #[should_panic(expected = "s > t + b")]
    fn rejects_tiny_s() {
        let _ = StorageConfig::with_objects(2, 1, 1, 1);
    }

    #[test]
    fn debug_marks_optimal() {
        assert!(format!("{:?}", StorageConfig::optimal(1, 1, 2)).contains("optimal"));
        assert!(!format!("{:?}", StorageConfig::with_objects(5, 1, 1, 2)).contains("optimal"));
    }
}
