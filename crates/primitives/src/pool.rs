//! Grain-controlled parallel iteration helpers.
//!
//! All data-parallel loops in the workspace go through these helpers rather
//! than calling rayon ad hoc, so the sequential/parallel cutover policy is
//! in one place. Kernels in this workspace are bandwidth-bound; below a few
//! thousand elements the fork/join overhead dominates, so every helper
//! takes (or derives) a grain size and falls back to the sequential path for
//! small inputs.
//!
//! **Chunk counts derive from the problem size only, never from the thread
//! count** (capped at [`MAX_CHUNKS`]). The worker pool distributes a fixed
//! chunk list by index stealing, so more threads drain the same chunks
//! faster — and every reduction grouping (including floating-point
//! parenthesization) is identical at 1, 2, or 64 threads. This is what
//! makes algorithm output bit-identical across `PUSH_PULL_THREADS`
//! settings, which the determinism suite asserts.

use rayon::prelude::*;
use std::ops::Range;

/// Default minimum number of elements each spawned task should own.
pub const DEFAULT_GRAIN: usize = 4096;

/// Upper bound on chunks per parallel region. Plenty for productive
/// stealing at any realistic lane count while keeping per-chunk overhead
/// negligible; independent of the thread count by design (see module doc).
pub const MAX_CHUNKS: usize = 128;

/// Number of worker threads rayon will use.
#[must_use]
pub fn num_threads() -> usize {
    rayon::current_num_threads()
}

/// Split `0..n` into at most `pieces` contiguous ranges of near-equal size.
///
/// Returns fewer than `pieces` ranges when `n < pieces`. Never returns an
/// empty range.
#[must_use]
pub fn split_ranges(n: usize, pieces: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let pieces = pieces.clamp(1, n);
    let base = n / pieces;
    let extra = n % pieces;
    let mut out = Vec::with_capacity(pieces);
    let mut start = 0;
    for i in 0..pieces {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

/// Run `body` over every index in `0..n`, in parallel when `n` is large
/// enough to amortize the fork/join cost.
pub fn par_for_each_index<F>(n: usize, grain: usize, body: F)
where
    F: Fn(usize) + Sync + Send,
{
    if n <= grain.max(1) {
        for i in 0..n {
            body(i);
        }
    } else {
        (0..n)
            .into_par_iter()
            .with_min_len(grain.max(1))
            .for_each(body);
    }
}

/// The standard size-derived chunk list over `0..n`: one chunk per `grain`
/// items, at most [`MAX_CHUNKS`], never empty ranges. This is the shared
/// chunking rule of [`par_for_ranges`], the row (pull) kernels and the
/// lane-group pull sweep — boundaries depend on `n` and `grain` only,
/// never on the lane count, so
/// per-chunk results recombined in list order are deterministic.
#[must_use]
pub fn index_chunks(n: usize, grain: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let pieces = (n / grain.max(1)).clamp(1, MAX_CHUNKS);
    split_ranges(n, pieces)
}

/// Run `body` once per contiguous chunk of `0..n`, in parallel.
///
/// Chunking (rather than per-index work items) lets the body keep per-chunk
/// scratch state, which is how the scatter phases of radix sort and the
/// boundary-fix phase of segmented reduce are written.
pub fn par_for_ranges<F>(n: usize, grain: usize, body: F)
where
    F: Fn(Range<usize>) + Sync + Send,
{
    if n == 0 {
        return;
    }
    if n <= grain.max(1) {
        body(0..n);
        return;
    }
    index_chunks(n, grain).into_par_iter().for_each(body);
}

/// Map each contiguous chunk of `0..n` through `body` and collect the
/// results in chunk order.
pub fn par_map_ranges<T, F>(n: usize, pieces: usize, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync + Send + Clone,
{
    split_ranges(n, pieces).into_par_iter().map(body).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn split_ranges_covers_everything_exactly_once() {
        for n in [0usize, 1, 2, 7, 100, 1023] {
            for pieces in [1usize, 2, 3, 8, 200] {
                let ranges = split_ranges(n, pieces);
                let mut seen = vec![false; n];
                for r in &ranges {
                    assert!(!r.is_empty(), "empty range for n={n} pieces={pieces}");
                    for i in r.clone() {
                        assert!(!seen[i]);
                        seen[i] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "n={n} pieces={pieces}");
            }
        }
    }

    #[test]
    fn split_ranges_of_zero_is_empty() {
        assert!(split_ranges(0, 4).is_empty());
    }

    #[test]
    fn par_for_each_index_touches_each_index_once() {
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_for_each_index(n, 64, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_ranges_partitions_domain() {
        let n = 50_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_for_ranges(n, 1000, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_map_ranges_preserves_chunk_order() {
        let sums = par_map_ranges(100, 7, |r| r.sum::<usize>());
        let total: usize = sums.iter().sum();
        assert_eq!(total, 99 * 100 / 2);
        // Chunk order: starts must be increasing.
        let starts = par_map_ranges(100, 7, |r| r.start);
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }
}
