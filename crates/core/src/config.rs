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

    /// Round-1 confirmations a sound **one-round fast-path read** needs, or
    /// `None` where Proposition 1 forbids fast reads (`S ≤ 2t + 2b`).
    ///
    /// The count is `2b + 1 + (S − 2t − 2b − 1) = S − 2t`: take the
    /// `2b + 1` matching replies that guarantee a correct, non-Byzantine
    /// majority witness, plus one more for every object provisioned beyond
    /// the `S = 2t + 2b + 1` minimum, so that *any* quorum of `S − t`
    /// replies a later read collects must intersect the confirming set in
    /// at least `b + 1` objects — one of them correct.
    ///
    /// # Examples
    ///
    /// Proposition 1 says single-round reads are impossible with
    /// `S ≤ 2t + 2b` objects, and in particular at optimal resilience
    /// `S = 2t + b + 1` (since `b ≥ 1`); one object above the boundary the
    /// fast path engages with a `2b + 1`-strength confirmation rule:
    ///
    /// ```
    /// use vrr_core::StorageConfig;
    ///
    /// // At and below the Prop. 1 boundary: no fast read, ever.
    /// assert_eq!(StorageConfig::optimal(1, 1, 1).fast_read_quorum(), None);
    /// assert_eq!(StorageConfig::with_objects(4, 1, 1, 1).fast_read_quorum(), None);
    ///
    /// // S = 2t + 2b + 1 = 5: fast reads need S - 2t = 2b + 1 = 3 confirmations.
    /// let fast = StorageConfig::fast(1, 1, 1);
    /// assert_eq!(fast.s, 5);
    /// assert_eq!(fast.fast_read_quorum(), Some(3));
    ///
    /// // Each extra object raises the bar by one, keeping the intersection
    /// // argument intact.
    /// assert_eq!(StorageConfig::with_objects(6, 1, 1, 1).fast_read_quorum(), Some(4));
    /// ```
    pub fn fast_read_quorum(&self) -> Option<usize> {
        (self.s > 2 * self.t + 2 * self.b).then(|| self.s - 2 * self.t)
    }

    /// The cheapest sizing at which one-round fast-path reads are sound:
    /// `S = 2t + 2b + 1`, one object above the Proposition 1 boundary.
    ///
    /// Compared to [`StorageConfig::optimal`] this buys the fast path with
    /// `b` extra base objects.
    ///
    /// # Panics
    ///
    /// Panics if `b > t` or `readers == 0`.
    pub fn fast(t: usize, b: usize, readers: usize) -> Self {
        let cfg = Self::with_objects(2 * t + 2 * b + 1, t, b, readers);
        debug_assert_eq!(cfg.fast_read_quorum(), Some(2 * b + 1));
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
        assert_eq!(cfg.fast_read_quorum(), None, "2t+b+1 = 4 <= 2t+2b = 4");
    }

    #[test]
    fn fast_read_boundary() {
        // S = 2t+2b: impossible. S = 2t+2b+1: possible.
        let at = StorageConfig::with_objects(4, 1, 1, 1);
        let above = StorageConfig::with_objects(5, 1, 1, 1);
        assert_eq!(at.fast_read_quorum(), None);
        assert_eq!(above.fast_read_quorum(), Some(3));
    }

    #[test]
    fn fast_quorum_matches_issue_arithmetic() {
        // The spec formula 2b + 1 + (S - 2t - 2b - 1) must equal S - 2t
        // wherever the fast path engages.
        for t in 1..5 {
            for b in 1..=t {
                for s in (2 * t + 2 * b + 1)..(2 * t + 2 * b + 5) {
                    let cfg = StorageConfig::with_objects(s, t, b, 1);
                    let spec = 2 * b + 1 + (s - 2 * t - 2 * b - 1);
                    assert_eq!(cfg.fast_read_quorum(), Some(spec), "{cfg}");
                    // Strong enough to out-vote the liars, and always
                    // satisfiable by a fault-free quorum.
                    assert!(spec >= cfg.b_plus_1());
                    assert!(spec <= cfg.quorum());
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
        assert_eq!(cfg.fast_read_quorum(), Some(3));
    }

    #[test]
    fn optimal_is_impossible_for_fast_reads_iff_b_le_t() {
        // 2t+b+1 <= 2t+2b  <=>  b >= 1, always true here.
        for t in 1..5 {
            for b in 1..=t {
                assert_eq!(StorageConfig::optimal(t, b, 1).fast_read_quorum(), None);
            }
        }
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
