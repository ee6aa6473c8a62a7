//! Plain and atomic bit vectors.
//!
//! The visited set of a BFS and the dense part of a mask are bit vectors.
//! The atomic variant supports the concurrent "claim a vertex" operation the
//! push phase needs (`set` returns whether the bit was newly set, which is a
//! single `fetch_or`), mirroring the global bitmask Gunrock uses for culling.

use std::sync::atomic::{AtomicU64, Ordering};

const BITS: usize = 64;

/// A fixed-size, single-threaded bit vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Create an all-zero bit vector of `len` bits.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(BITS)],
            len,
        }
    }

    /// Number of bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the vector holds zero bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / BITS] >> (i % BITS)) & 1 == 1
    }

    /// Set bit `i`; returns `true` when the bit was previously clear.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let word = &mut self.words[i / BITS];
        let mask = 1u64 << (i % BITS);
        let was_clear = *word & mask == 0;
        *word |= mask;
        was_clear
    }

    /// Clear bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / BITS] &= !(1u64 << (i % BITS));
    }

    /// Reset every bit to zero, keeping the allocation.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The backing `u64` words, least-significant bit first. Bits at
    /// positions `>= len` (the tail of the last word) are always zero —
    /// every mutator preserves this, so word-wise kernels may AND/OR/popcount
    /// whole words without re-masking the tail.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the backing words. Callers must keep the invariant
    /// that bits at positions `>= len` stay zero (see [`BitVec::words`]).
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Build a bit vector of `len` bits from raw words, truncating or
    /// zero-extending the word list and masking any tail bits beyond `len`.
    #[must_use]
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        words.resize(len.div_ceil(BITS), 0);
        if !len.is_multiple_of(BITS) {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (len % BITS)) - 1;
            }
        }
        Self { words, len }
    }

    /// Iterate over the indices of set bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * BITS + tz)
                }
            })
        })
    }
}

/// A fixed-size bit vector supporting concurrent set/test.
#[derive(Debug)]
pub struct AtomicBitVec {
    words: Vec<AtomicU64>,
    len: usize,
}

impl AtomicBitVec {
    /// Create an all-zero atomic bit vector of `len` bits.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self {
            words: (0..len.div_ceil(BITS)).map(|_| AtomicU64::new(0)).collect(),
            len,
        }
    }

    /// Number of bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the vector holds zero bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i` (relaxed).
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / BITS].load(Ordering::Relaxed) >> (i % BITS)) & 1 == 1
    }

    /// Atomically set bit `i`; returns `true` when this call flipped it,
    /// i.e. the caller won the claim on vertex `i`.
    #[inline]
    pub fn set(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % BITS);
        let prev = self.words[i / BITS].fetch_or(mask, Ordering::Relaxed);
        prev & mask == 0
    }

    /// Set bit `i` with a plain load and store instead of a `fetch_or`;
    /// returns `true` when this call flipped it. Cheaper than
    /// [`AtomicBitVec::set`], but a claim only while no other thread
    /// writes the same word — e.g. when the caller thread owns the set.
    #[inline]
    pub fn set_unshared(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let word = &self.words[i / BITS];
        let mask = 1u64 << (i % BITS);
        let prev = word.load(Ordering::Relaxed);
        word.store(prev | mask, Ordering::Relaxed);
        prev & mask == 0
    }

    /// Clear bit `i` with a plain load and store (not thread-safe against
    /// concurrent setters of the same word).
    #[inline]
    pub fn clear(&self, i: usize) {
        debug_assert!(i < self.len);
        let word = &self.words[i / BITS];
        word.store(
            word.load(Ordering::Relaxed) & !(1u64 << (i % BITS)),
            Ordering::Relaxed,
        );
    }

    /// Reset every bit to zero (not thread-safe against concurrent setters).
    pub fn clear_all(&mut self) {
        for w in &mut self.words {
            *w = AtomicU64::new(0);
        }
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Snapshot into a plain [`BitVec`].
    #[must_use]
    pub fn to_bitvec(&self) -> BitVec {
        BitVec {
            words: self
                .words
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect(),
            len: self.len,
        }
    }
}

impl From<&BitVec> for AtomicBitVec {
    fn from(b: &BitVec) -> Self {
        Self {
            words: b.words.iter().map(|&w| AtomicU64::new(w)).collect(),
            len: b.len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_roundtrip() {
        let mut b = BitVec::new(200);
        assert!(!b.get(0));
        assert!(b.set(63));
        assert!(b.set(64));
        assert!(b.set(199));
        assert!(!b.set(63), "second set reports already-set");
        assert!(b.get(63) && b.get(64) && b.get(199));
        assert_eq!(b.count_ones(), 3);
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 2);
        b.clear_all();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn iter_ones_in_order() {
        let mut b = BitVec::new(300);
        for i in [0usize, 5, 63, 64, 65, 128, 299] {
            b.set(i);
        }
        let ones: Vec<usize> = b.iter_ones().collect();
        assert_eq!(ones, vec![0, 5, 63, 64, 65, 128, 299]);
    }

    #[test]
    fn word_surface_roundtrip_masks_tail() {
        // 70 bits = 2 words; from_words must mask bits 70..128 and
        // truncate/extend the word list to exactly div_ceil(len, 64).
        let b = BitVec::from_words(vec![u64::MAX, u64::MAX, 0xdead], 70);
        assert_eq!(b.len(), 70);
        assert_eq!(b.words().len(), 2);
        assert_eq!(b.count_ones(), 70, "tail bits beyond len are zero");
        assert_eq!(b.words()[1], (1u64 << 6) - 1);
        // Word-exact length: no masking, no extra word.
        let c = BitVec::from_words(vec![1u64 << 63], 64);
        assert_eq!((c.len(), c.count_ones()), (64, 1));
        // Zero-extension when too few words are given.
        let d = BitVec::from_words(vec![], 65);
        assert_eq!(d.words().len(), 2);
        assert_eq!(d.count_ones(), 0);
        // words_mut writes are visible through the bit API.
        let mut e = BitVec::new(128);
        e.words_mut()[1] = 0b101;
        assert_eq!(e.iter_ones().collect::<Vec<_>>(), vec![64, 66]);
    }

    #[test]
    fn empty_bitvec() {
        let b = BitVec::new(0);
        assert!(b.is_empty());
        assert_eq!(b.iter_ones().count(), 0);
    }

    #[test]
    fn atomic_claim_semantics() {
        let b = AtomicBitVec::new(128);
        assert!(b.set(100));
        assert!(!b.set(100));
        assert!(b.get(100));
        assert_eq!(b.count_ones(), 1);
        b.clear(100);
        assert!(!b.get(100));
        assert!(b.set_unshared(100), "a cleared bit can be claimed again");
        assert!(!b.set_unshared(100) && !b.set(100));
        assert_eq!(b.count_ones(), 1);
    }

    #[test]
    fn atomic_concurrent_claims_unique() {
        use rayon::prelude::*;
        let n = 1 << 14;
        let b = AtomicBitVec::new(n);
        // Each index claimed by 8 racing attempts; exactly one must win.
        let wins: usize = (0..n * 8)
            .into_par_iter()
            .map(|k| usize::from(b.set(k % n)))
            .sum();
        assert_eq!(wins, n);
        assert_eq!(b.count_ones(), n);
    }

    #[test]
    fn snapshot_matches() {
        let ab = AtomicBitVec::new(70);
        ab.set(1);
        ab.set(69);
        let b = ab.to_bitvec();
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![1, 69]);
        let ab2 = AtomicBitVec::from(&b);
        assert!(ab2.get(1) && ab2.get(69) && !ab2.get(2));
    }
}
