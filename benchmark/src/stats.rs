//! Order statistics and the pass/fail tally. The benchmark owns these so
//! its numbers cannot shift when the program's own statistics code does.

/// Nearest-rank percentile (`p` in `[0, 100]`) of an ascending sample:
/// the smallest value with at least `p`% of the sample at or below it.
/// NaN for an empty sample (every operation failed).
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; fewer, and it is one slow outlier, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Whether the `p`-th percentile of `n` samples has [`MIN_BEYOND`] samples
/// beyond it.
#[must_use]
pub fn tail_resolved(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// Sort ascending (total order; the benchmark never produces NaN).
#[must_use]
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// Operations attempted and failed in one run. A failure is a typed error,
/// a wrong answer, or a panic.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; `ok` says whether its output matched the oracle.
    pub fn check(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0, "rank clamps to the first sample");
        // Nearest rank rounds up: the 50th percentile of 3 is the 2nd.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples is rank 990: exactly ten beyond it.
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(tail_resolved(1000, 99.0));
        assert!(!tail_resolved(999, 99.0), "rank 990 of 999 leaves 9");
        // p95 needs 200 samples, p50 needs 20.
        assert!(tail_resolved(200, 95.0));
        assert!(!tail_resolved(199, 95.0));
        assert!(tail_resolved(20, 50.0));
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        assert!(t.check(true));
        assert!(!t.check(false));
        assert_eq!((t.attempted, t.failed), (2, 1));
    }
}
