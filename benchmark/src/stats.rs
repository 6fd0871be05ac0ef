//! Percentiles, medians and the seeded generator the op stream draws from.

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of the values (mean of the middle two when even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method) — the spread the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: usize| {
        let pos = (q * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// SplitMix64: the op-mix and seed-derivation stream.
#[derive(Clone, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
