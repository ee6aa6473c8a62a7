//! LSD radix sort, key-only and key-value (the CUB radix-sort substitute).
//!
//! Column-based matvec resolves its multiway merge by concatenating all
//! neighbor lists and radix-sorting them (paper §6.2): complexity
//! `O(nnz(m_f⁺) · log M)` because the sort width is `log M` bits, where `M`
//! is the number of matrix rows. Two entry points matter to the paper:
//!
//! * [`sort_pairs`] — (key, value) sort, used by the generic semiring path;
//! * [`sort_keys`] — key-only sort. The paper's *structure-only*
//!   optimization (§5.5) sorts bare keys because BFS never reads values;
//!   dropping the payload roughly halves the sort's memory traffic, which
//!   the paper measures as a 1.62× end-to-end speedup. Here the
//!   structure-only push goes further and sorts only the vertices it
//!   claimed, not every expanded edge.
//!
//! The implementation is a stable LSD radix sort with 8-bit digits and a
//! chunked parallel counting/scatter phase per digit. The number of passes
//! adapts to the largest key (the "log M-bit sort" of §6.2).

use crate::pool;
use rayon::prelude::*;

const RADIX_BITS: usize = 8;
const BUCKETS: usize = 1 << RADIX_BITS;
/// Below this size `slice::sort_unstable` (pattern-defeating quicksort) wins.
const SMALL_SORT: usize = 1 << 12;

/// Number of 8-bit digit passes needed to cover keys `<= max_key`.
#[must_use]
pub fn passes_for(max_key: u32) -> usize {
    if max_key == 0 {
        1
    } else {
        (32 - max_key.leading_zeros() as usize).div_ceil(RADIX_BITS)
    }
}

/// Sort `keys` ascending. `max_key` bounds the key domain (pass count).
///
/// Stable (irrelevant for bare keys, but the pair variant shares the code
/// shape and must be stable for deterministic semiring reductions).
pub fn sort_keys(keys: &mut [u32], max_key: u32) {
    if keys.len() <= SMALL_SORT {
        keys.sort_unstable();
        return;
    }
    let passes = passes_for(max_key);
    let mut buf = vec![0u32; keys.len()];
    let mut src_is_keys = true;
    for pass in 0..passes {
        let shift = pass * RADIX_BITS;
        if src_is_keys {
            radix_pass_keys(keys, &mut buf, shift);
        } else {
            radix_pass_keys(&buf, keys, shift);
        }
        src_is_keys = !src_is_keys;
    }
    if !src_is_keys {
        keys.copy_from_slice(&buf);
    }
}

/// Sort `(keys, vals)` ascending by key, stably. The two slices must have
/// equal length; `max_key` bounds the key domain.
pub fn sort_pairs<V: Copy + Send + Sync>(keys: &mut [u32], vals: &mut [V], max_key: u32) {
    assert_eq!(keys.len(), vals.len(), "key/value length mismatch");
    if keys.len() <= SMALL_SORT {
        // Index sort + permute keeps stability for the small path.
        let mut perm: Vec<u32> = (0..keys.len() as u32).collect();
        perm.sort_by_key(|&i| keys[i as usize]);
        let old_keys = keys.to_vec();
        let old_vals = vals.to_vec();
        for (slot, &i) in perm.iter().enumerate() {
            keys[slot] = old_keys[i as usize];
            vals[slot] = old_vals[i as usize];
        }
        return;
    }
    let passes = passes_for(max_key);
    let mut kbuf = vec![0u32; keys.len()];
    let mut vbuf = vals.to_vec();
    let mut src_is_orig = true;
    for pass in 0..passes {
        let shift = pass * RADIX_BITS;
        if src_is_orig {
            radix_pass_pairs(keys, vals, &mut kbuf, &mut vbuf, shift);
        } else {
            radix_pass_pairs(&kbuf, &vbuf, keys, vals, shift);
        }
        src_is_orig = !src_is_orig;
    }
    if !src_is_orig {
        keys.copy_from_slice(&kbuf);
        vals.copy_from_slice(&vbuf);
    }
}

/// One stable counting pass over an 8-bit digit, keys only.
fn radix_pass_keys(src: &[u32], dst: &mut [u32], shift: usize) {
    let offsets = digit_offsets(src, shift);
    scatter_chunks(src, dst, shift, &offsets, |_, _| {});
}

/// One stable counting pass over an 8-bit digit, carrying values.
fn radix_pass_pairs<V: Copy + Send + Sync>(
    skeys: &[u32],
    svals: &[V],
    dkeys: &mut [u32],
    dvals: &mut [V],
    shift: usize,
) {
    let offsets = digit_offsets(skeys, shift);
    // The scatter closure writes the paired value at the same position.
    let dvals_ptr = SendPtr(dvals.as_mut_ptr());
    scatter_chunks(skeys, dkeys, shift, &offsets, |src_idx, dst_idx| {
        // SAFETY: each dst_idx is written exactly once per pass (offsets are
        // disjoint across chunks and strictly increasing within a chunk).
        unsafe { *dvals_ptr.get().add(dst_idx) = svals[src_idx] };
    });
}

/// Per-chunk digit histograms scanned into global scatter offsets.
/// Layout: `offsets[bucket * n_chunks + chunk]` = first output slot for that
/// (bucket, chunk) pair; bucket-major order preserves stability.
fn digit_offsets(src: &[u32], shift: usize) -> Vec<usize> {
    let n_chunks = chunk_count(src.len());
    let ranges = pool::split_ranges(src.len(), n_chunks);
    let histograms: Vec<[usize; BUCKETS]> = ranges
        .par_iter()
        .map(|r| {
            let mut h = [0usize; BUCKETS];
            for &k in &src[r.clone()] {
                h[digit(k, shift)] += 1;
            }
            h
        })
        .collect();
    let mut offsets = vec![0usize; BUCKETS * n_chunks];
    let mut running = 0usize;
    for bucket in 0..BUCKETS {
        for (chunk, h) in histograms.iter().enumerate() {
            offsets[bucket * n_chunks + chunk] = running;
            running += h[bucket];
        }
    }
    debug_assert_eq!(running, src.len());
    offsets
}

/// Scatter each chunk's elements to their destination slots in parallel.
fn scatter_chunks<F>(src: &[u32], dst: &mut [u32], shift: usize, offsets: &[usize], extra: F)
where
    F: Fn(usize, usize) + Sync + Send,
{
    let n_chunks = chunk_count(src.len());
    let ranges = pool::split_ranges(src.len(), n_chunks);
    let dst_ptr = SendPtr(dst.as_mut_ptr());
    ranges.par_iter().enumerate().for_each(|(chunk, r)| {
        let mut cursors = [0usize; BUCKETS];
        for b in 0..BUCKETS {
            cursors[b] = offsets[b * n_chunks + chunk];
        }
        for i in r.clone() {
            let k = src[i];
            let b = digit(k, shift);
            let pos = cursors[b];
            cursors[b] += 1;
            // SAFETY: (bucket, chunk) output windows are disjoint by
            // construction of `offsets`, so no two threads write one slot.
            unsafe { *dst_ptr.get().add(pos) = k };
            extra(i, pos);
        }
    });
}

#[inline]
fn digit(k: u32, shift: usize) -> usize {
    ((k >> shift) as usize) & (BUCKETS - 1)
}

fn chunk_count(n: usize) -> usize {
    // Size-derived (not thread-derived) so the counting/scatter layout is
    // identical at every lane count; see `pool` module doc.
    (n / SMALL_SORT).clamp(1, pool::MAX_CHUNKS)
}

/// Raw pointer wrapper asserting cross-thread send safety for disjoint writes.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}
impl<T> SendPtr<T> {
    /// Accessor method (rather than field access) so closures capture the
    /// Sync wrapper, not the raw pointer field.
    #[inline]
    fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn passes_for_bounds() {
        assert_eq!(passes_for(0), 1);
        assert_eq!(passes_for(255), 1);
        assert_eq!(passes_for(256), 2);
        assert_eq!(passes_for(65_535), 2);
        assert_eq!(passes_for(65_536), 3);
        assert_eq!(passes_for(u32::MAX), 4);
    }

    #[test]
    fn sort_keys_small_and_empty() {
        let mut v: Vec<u32> = vec![];
        sort_keys(&mut v, 0);
        assert!(v.is_empty());
        let mut v = vec![5, 3, 3, 1, 9];
        sort_keys(&mut v, 9);
        assert_eq!(v, vec![1, 3, 3, 5, 9]);
    }

    #[test]
    fn sort_keys_large_random() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let n = 200_000;
        let max_key = (1 << 21) - 1;
        let mut v: Vec<u32> = (0..n)
            .map(|_| (xorshift(&mut state) as u32) & max_key)
            .collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        sort_keys(&mut v, max_key);
        assert_eq!(v, expect);
    }

    #[test]
    fn sort_keys_odd_pass_count() {
        // max_key forcing 3 passes leaves the result in the buffer after an
        // odd number of ping-pongs; verify the copy-back.
        let mut state = 42u64;
        let n = 100_000;
        let max_key = (1 << 20) - 1; // 20 bits -> 3 passes
        let mut v: Vec<u32> = (0..n)
            .map(|_| (xorshift(&mut state) as u32) & max_key)
            .collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        sort_keys(&mut v, max_key);
        assert_eq!(v, expect);
    }

    #[test]
    fn sort_pairs_matches_stable_reference() {
        let mut state = 7u64;
        let n = 150_000;
        let max_key = (1 << 14) - 1;
        let keys: Vec<u32> = (0..n)
            .map(|_| (xorshift(&mut state) as u32) & max_key)
            .collect();
        let vals: Vec<u64> = (0..n as u64).collect();
        let mut reference: Vec<(u32, u64)> =
            keys.iter().copied().zip(vals.iter().copied()).collect();
        reference.sort_by_key(|&(k, _)| k); // stable

        let (mut k2, mut v2) = (keys, vals);
        sort_pairs(&mut k2, &mut v2, max_key);
        let got: Vec<(u32, u64)> = k2.into_iter().zip(v2).collect();
        assert_eq!(got, reference);
    }

    #[test]
    fn sort_pairs_small_path_is_stable() {
        let mut keys = vec![2u32, 1, 2, 1, 2];
        let mut vals = vec!["a", "b", "c", "d", "e"];
        sort_pairs(&mut keys, &mut vals, 2);
        assert_eq!(keys, vec![1, 1, 2, 2, 2]);
        assert_eq!(vals, vec!["b", "d", "a", "c", "e"]);
    }

    #[test]
    fn sort_pairs_with_duplicate_heavy_keys() {
        // Supervertex-like distribution: a few keys dominate.
        let mut state = 99u64;
        let n = 80_000;
        let keys: Vec<u32> = (0..n)
            .map(|_| {
                if xorshift(&mut state) % 10 < 8 {
                    7
                } else {
                    (xorshift(&mut state) % 1000) as u32
                }
            })
            .collect();
        let vals: Vec<u32> = (0..n as u32).collect();
        let mut reference: Vec<(u32, u32)> =
            keys.iter().copied().zip(vals.iter().copied()).collect();
        reference.sort_by_key(|&(k, _)| k);
        let (mut k2, mut v2) = (keys, vals);
        sort_pairs(&mut k2, &mut v2, 1000);
        let got: Vec<(u32, u32)> = k2.into_iter().zip(v2).collect();
        assert_eq!(got, reference);
    }
}
