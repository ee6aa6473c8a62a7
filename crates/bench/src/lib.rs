//! Experiment harness shared by the `paper` binary (which regenerates
//! every table and figure of the paper) and the criterion benches.

#[cfg(feature = "fault-injection")]
pub mod chaos;
pub mod engines;
pub mod limits;
pub mod report;
pub mod serve;
pub mod study;

use std::time::Instant;

/// Time one closure invocation in milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Median of a sample (not in-place; small vectors only).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Geometric mean of positive samples.
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    let log_sum: f64 = xs.iter().map(|&x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Millions of traversed edges per second.
#[must_use]
pub fn mteps(edges: usize, ms: f64) -> f64 {
    edges as f64 / (ms * 1e3).max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn mteps_units() {
        // 1M edges in 1000 ms = 1 MTEPS.
        assert!((mteps(1_000_000, 1000.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn time_ms_returns_value() {
        let (v, ms) = time_ms(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
    }
}
