//! Off-line statistics: summary statistics and request-size distributions.
//!
//! The paper's general statistics (§3.1: "means, variances, minima, maxima,
//! and distributions of file operation durations and sizes") are computed
//! here. [`SizeHistogram`] uses exactly the bins of Tables 2, 4, and 6:
//! `< 4 KB`, `< 64 KB`, `< 256 KB`, `≥ 256 KB`.

use serde::{Deserialize, Serialize};

/// Streaming summary statistics (Welford's algorithm), mergeable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SummaryStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl SummaryStats {
    /// Empty accumulator.
    pub fn new() -> SummaryStats {
        SummaryStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one (parallel combination).
    pub fn merge(&mut self, other: &SummaryStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Minimum observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

/// The paper's request-size bins: `< 4 KB`, `< 64 KB`, `< 256 KB`, `≥ 256 KB`.
///
/// Bins are half-open and mutually exclusive, exactly as in Tables 2/4/6:
/// a 3 KB request counts only in the `< 4 KB` column.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SizeHistogram {
    /// Requests with size < 4 KB.
    pub under_4k: u64,
    /// Requests with 4 KB ≤ size < 64 KB.
    pub under_64k: u64,
    /// Requests with 64 KB ≤ size < 256 KB.
    pub under_256k: u64,
    /// Requests with size ≥ 256 KB.
    pub over_256k: u64,
}

/// 4 KB boundary.
pub const KB4: u64 = 4 * 1024;
/// 64 KB boundary.
pub const KB64: u64 = 64 * 1024;
/// 256 KB boundary.
pub const KB256: u64 = 256 * 1024;

impl SizeHistogram {
    /// Empty histogram.
    pub fn new() -> SizeHistogram {
        SizeHistogram::default()
    }

    /// Count one request of `bytes`.
    pub fn push(&mut self, bytes: u64) {
        if bytes < KB4 {
            self.under_4k += 1;
        } else if bytes < KB64 {
            self.under_64k += 1;
        } else if bytes < KB256 {
            self.under_256k += 1;
        } else {
            self.over_256k += 1;
        }
    }

    /// Total requests counted.
    pub fn total(&self) -> u64 {
        self.under_4k + self.under_64k + self.under_256k + self.over_256k
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &SizeHistogram) {
        self.under_4k += other.under_4k;
        self.under_64k += other.under_64k;
        self.under_256k += other.under_256k;
        self.over_256k += other.over_256k;
    }

    /// Bin counts in table-column order.
    pub fn as_row(&self) -> [u64; 4] {
        [
            self.under_4k,
            self.under_64k,
            self.under_256k,
            self.over_256k,
        ]
    }

    /// The paper's notion of a *bimodal* size distribution (§5.1, §6.1):
    /// substantial mass in a small-size bin and in a large-size bin with a
    /// sparse middle. We test: smallest bin and one of the two largest bins
    /// each hold ≥ `frac` of requests.
    pub fn is_bimodal(&self, frac: f64) -> bool {
        let total = self.total();
        if total == 0 {
            return false;
        }
        let t = total as f64;
        let small = self.under_4k as f64 / t;
        let large = (self.under_256k.max(self.over_256k)) as f64 / t;
        small >= frac && large >= frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = SummaryStats::new();
        for x in xs {
            s.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn welford_merge_matches_single_stream() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64) * 0.7 - 3.0).collect();
        let mut whole = SummaryStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = SummaryStats::new();
        let mut b = SummaryStats::new();
        for (i, &x) in xs.iter().enumerate() {
            if i % 3 == 0 {
                a.push(x)
            } else {
                b.push(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = SummaryStats::new();
        a.push(2.0);
        let before = a;
        a.merge(&SummaryStats::new());
        assert_eq!(a, before);
        let mut e = SummaryStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = SummaryStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn size_bins_are_half_open_and_exclusive() {
        let mut h = SizeHistogram::new();
        h.push(0);
        h.push(KB4 - 1);
        h.push(KB4);
        h.push(KB64 - 1);
        h.push(KB64);
        h.push(KB256 - 1);
        h.push(KB256);
        h.push(10 * 1024 * 1024);
        assert_eq!(h.as_row(), [2, 2, 2, 2]);
        assert_eq!(h.total(), 8);
    }

    #[test]
    fn bimodal_detection() {
        // ESCAT-like reads: many tiny, many ~128 KB, almost nothing between.
        let mut h = SizeHistogram::new();
        for _ in 0..297 {
            h.push(2048);
        }
        for _ in 0..3 {
            h.push(30 * 1024);
        }
        for _ in 0..260 {
            h.push(128 * 1024);
        }
        assert!(h.is_bimodal(0.25));
        // Uniformly small is not bimodal.
        let mut u = SizeHistogram::new();
        for _ in 0..100 {
            u.push(1024);
        }
        assert!(!u.is_bimodal(0.25));
        assert!(!SizeHistogram::new().is_bimodal(0.25));
    }

    #[test]
    fn histogram_merge_adds() {
        let mut a = SizeHistogram::new();
        a.push(1);
        a.push(KB256);
        let mut b = SizeHistogram::new();
        b.push(KB4);
        a.merge(&b);
        assert_eq!(a.as_row(), [1, 1, 0, 1]);
    }
}
