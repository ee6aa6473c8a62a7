//! Masks: the paper's formalism for output sparsity (§3.2).
//!
//! A masked matvec `f' = (Af) .∗ m` only materializes outputs where the
//! mask allows. The *structural complement* `¬m` (§3.2) flips the rule —
//! BFS pulls into the complement of the visited set. Masks here are
//! structural Booleans over a bit vector, and the masked row kernels read
//! the allowed rows straight from its words, 64 rows per word (`!word` for
//! a complement): `O(M/64 + d·nnz(m))` instead of the `O(dM)` unmasked
//! scan. That word scan stands in for the paper's amortized "list of
//! zeroes", so a traversal keeps no index list of its unvisited vertices.
//! A caller that already holds the exact allowed list (PageRank's active
//! set, MIS's candidates) may attach it with [`Mask::with_active_list`]
//! and skip the word scan.
//!
//! The push face has its own amortized companion: a **claim set**, an
//! all-clear atomic bit vector over the output dimension that the
//! structure-only column kernel claims survivors in (see
//! [`Mask::with_claim_set`]). A traversal allocates it once per run, so no
//! push level pays for an `O(M)` buffer.

use graphblas_matrix::VertexId;
use graphblas_primitives::{pool, AtomicBitVec, BitVec};
use std::ops::Range;

/// Indices per mask word.
const WORD: usize = 64;

/// A structural Boolean mask over vertex indices.
#[derive(Clone, Copy, Debug)]
pub struct Mask<'a> {
    bits: &'a BitVec,
    complement: bool,
    active_list: Option<&'a [VertexId]>,
    claim_set: Option<&'a AtomicBitVec>,
}

impl<'a> Mask<'a> {
    /// Mask allowing indices whose bit is set.
    #[must_use]
    pub fn new(bits: &'a BitVec) -> Self {
        Self {
            bits,
            complement: false,
            active_list: None,
            claim_set: None,
        }
    }

    /// Structural complement `¬m`: allow indices whose bit is clear.
    #[must_use]
    pub fn complement(bits: &'a BitVec) -> Self {
        Self {
            bits,
            complement: true,
            active_list: None,
            claim_set: None,
        }
    }

    /// Attach the sorted list of exactly the allowed indices, for a caller
    /// that already holds one. The masked row kernels then walk this list
    /// instead of scanning the mask's words; results and charges are the
    /// same either way, so a traversal need not keep such a list.
    ///
    /// Contract: the list is **strictly ascending** — so duplicate-free —
    /// and every entry is below [`Mask::dim`] (both asserted here, in
    /// release too), and every entry satisfies [`Mask::allows`]
    /// (debug-asserted). The first two are load-bearing: the row kernels
    /// (and the fused pipeline's `assign_into`, which writes caller state)
    /// partition the list across parallel workers and write each listed
    /// row's output slot without synchronization or bounds checks, which
    /// is only sound when no row appears twice and every row exists.
    ///
    /// # Panics
    /// If the list is not strictly ascending or names an index `>= dim()`.
    #[must_use]
    pub fn with_active_list(mut self, list: &'a [VertexId]) -> Self {
        assert!(
            list.windows(2).all(|w| w[0] < w[1]),
            "mask active list must be strictly ascending (unique)"
        );
        assert!(
            list.last().is_none_or(|&i| (i as usize) < self.dim()),
            "mask active list entry out of range"
        );
        debug_assert!(
            list.iter().all(|&i| self.allows(i as usize)),
            "active list disagrees with mask"
        );
        self.active_list = Some(list);
        self
    }

    /// Lend the structure-only push kernel a claim set: an **all-clear**
    /// atomic bit vector of the mask's dimension. The kernel claims each
    /// mask-passing output vertex in it, sorts only the winners, and
    /// clears exactly those bits again before it returns, so the set
    /// comes back all-clear and the call does no `O(M)` work.
    /// Without one, the kernel allocates (and charges) a fresh set per
    /// call.
    ///
    /// Contract: the set's length equals [`Mask::dim`] (asserted here);
    /// it is all-clear whenever it is lent (debug-asserted on use); and it
    /// serves one call at a time. A call that panicked may leave claims
    /// behind, so a set must not outlive the run it was lent to — a
    /// traversal allocates its own once per run.
    ///
    /// # Panics
    /// If the set's length differs from the mask's dimension.
    #[must_use]
    pub fn with_claim_set(mut self, set: &'a AtomicBitVec) -> Self {
        assert_eq!(set.len(), self.dim(), "claim set must cover the mask");
        self.claim_set = Some(set);
        self
    }

    /// Whether the mask passes index `i` through to the output.
    #[inline]
    #[must_use]
    pub fn allows(&self, i: usize) -> bool {
        self.bits.get(i) ^ self.complement
    }

    /// Whether this mask is complemented.
    #[must_use]
    pub fn is_complement(&self) -> bool {
        self.complement
    }

    /// The attached active list, when present.
    #[must_use]
    pub fn active_list(&self) -> Option<&'a [VertexId]> {
        self.active_list
    }

    /// The lent claim set, when present.
    #[must_use]
    pub fn claim_set(&self) -> Option<&'a AtomicBitVec> {
        self.claim_set
    }

    /// Number of allowed indices: `nnz(m)` in the Table 1 cost model.
    /// `O(1)` with an active list attached; otherwise a popcount over the
    /// mask's words, `O(M/64)`.
    #[must_use]
    pub fn active_count(&self) -> usize {
        if let Some(list) = self.active_list {
            list.len()
        } else if self.complement {
            self.bits.len() - self.bits.count_ones()
        } else {
            self.bits.count_ones()
        }
    }

    /// Dimension the mask covers.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.bits.len()
    }

    /// Cut the allowed indices into the row kernels' chunks: one chunk per
    /// `grain` allowed indices, at most [`pool::MAX_CHUNKS`], exactly as
    /// [`pool::index_chunks`] cuts a list of [`Mask::active_count`]
    /// entries. With an active list a chunk is a range of list positions.
    /// Without one it is a range of indices that holds the same allowed
    /// indices as that list chunk, found in one pass over the words, so
    /// both forms run the same rows in the same chunks. Hand each chunk to
    /// [`Mask::for_each_allowed`]. No chunk is empty of allowed indices.
    pub(crate) fn allowed_chunks(&self, grain: usize) -> Vec<Range<usize>> {
        let ranks = pool::index_chunks(self.active_count(), grain);
        if self.active_list.is_some() || ranks.is_empty() {
            return ranks;
        }
        // Each later chunk starts at the index holding its first rank.
        let mut starts = ranks[1..].iter().map(|r| r.start).peekable();
        let mut bounds = Vec::with_capacity(ranks.len() + 1);
        bounds.push(0);
        let mut seen = 0;
        for w in 0..self.dim().div_ceil(WORD) {
            if starts.peek().is_none() {
                break;
            }
            let word = self.word(w);
            let ones = word.count_ones() as usize;
            while let Some(rank) = starts.next_if(|&r| r < seen + ones) {
                bounds.push(w * WORD + select(word, rank - seen));
            }
            seen += ones;
        }
        bounds.push(self.dim());
        bounds.windows(2).map(|b| b[0]..b[1]).collect()
    }

    /// Call `f` on every allowed index of one chunk from
    /// [`Mask::allowed_chunks`], ascending. Without an active list the
    /// chunk's words are read whole and their set bits taken one by one;
    /// the words cut by the chunk's edges (the tail word among them) are
    /// masked first.
    #[inline]
    pub(crate) fn for_each_allowed(&self, chunk: Range<usize>, mut f: impl FnMut(usize)) {
        if let Some(list) = self.active_list {
            list[chunk].iter().for_each(|&i| f(i as usize));
            return;
        }
        if chunk.is_empty() {
            return;
        }
        let (first, last) = (chunk.start / WORD, (chunk.end - 1) / WORD);
        let head = u64::MAX << (chunk.start % WORD);
        let tail = u64::MAX >> (WORD - 1 - (chunk.end - 1) % WORD);
        for w in first..=last {
            let mut word = self.word(w);
            if w == first {
                word &= head;
            }
            if w == last {
                word &= tail;
            }
            while word != 0 {
                f(w * WORD + word.trailing_zeros() as usize);
                word &= word - 1;
            }
        }
    }

    /// Word `w` with its allowed indices set: the stored word, flipped for
    /// a complement. A complement's tail word also sets the indices past
    /// [`Mask::dim`], which no caller reaches: every chunk ends at or
    /// before `dim`, and only ranks below the allowed count are selected.
    #[inline]
    fn word(&self, w: usize) -> u64 {
        let word = self.bits.words()[w];
        if self.complement {
            !word
        } else {
            word
        }
    }
}

/// Position of the `k`-th set bit (0-based) of `word`; `k` must be below
/// its popcount.
#[inline]
fn select(mut word: u64, k: usize) -> usize {
    for _ in 0..k {
        word &= word - 1;
    }
    word.trailing_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits_with(set: &[usize], len: usize) -> BitVec {
        let mut b = BitVec::new(len);
        for &i in set {
            b.set(i);
        }
        b
    }

    #[test]
    fn plain_mask_allows_set_bits() {
        let b = bits_with(&[1, 3], 5);
        let m = Mask::new(&b);
        assert!(m.allows(1) && m.allows(3));
        assert!(!m.allows(0) && !m.allows(2) && !m.allows(4));
        assert_eq!(m.active_count(), 2);
        assert!(!m.is_complement());
    }

    #[test]
    fn complement_mask_inverts() {
        let b = bits_with(&[1, 3], 5);
        let m = Mask::complement(&b);
        assert!(!m.allows(1) && !m.allows(3));
        assert!(m.allows(0) && m.allows(2) && m.allows(4));
        assert_eq!(m.active_count(), 3);
        assert!(m.is_complement());
    }

    #[test]
    fn active_list_overrides_count() {
        let b = bits_with(&[0, 1, 2], 6);
        let list = [0u32, 1, 2];
        let m = Mask::new(&b).with_active_list(&list);
        assert_eq!(m.active_count(), 3);
        assert_eq!(m.active_list(), Some(&list[..]));
    }

    #[test]
    #[should_panic(expected = "claim set must cover the mask")]
    fn claim_set_of_another_dimension_is_rejected() {
        let b = bits_with(&[1], 5);
        let set = AtomicBitVec::new(4);
        let _ = Mask::complement(&b).with_claim_set(&set);
    }

    #[test]
    fn bfs_unvisited_mask_shape() {
        // visited = {0,1}; the pull mask ¬visited allows {2,3,4} with no
        // list attached.
        let visited = bits_with(&[0, 1], 5);
        let m = Mask::complement(&visited);
        assert!(m.allows(2) && !m.allows(0));
        assert_eq!(m.active_count(), 3);
        assert_eq!(m.dim(), 5);
        let mut rows = Vec::new();
        for chunk in m.allowed_chunks(512) {
            m.for_each_allowed(chunk, |i| rows.push(i));
        }
        assert_eq!(rows, vec![2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn active_list_with_a_duplicate_is_rejected() {
        let b = bits_with(&[], 8);
        let _ = Mask::complement(&b).with_active_list(&[2, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn active_list_past_the_dimension_is_rejected() {
        let b = bits_with(&[], 8);
        let _ = Mask::complement(&b).with_active_list(&[1, 8]);
    }

    /// A 200-index mask (three full words and an 8-bit tail word) with an
    /// irregular pattern, so runs of set and clear bits cross word edges.
    fn word_scan_bits() -> BitVec {
        let set: Vec<usize> = (0..200).filter(|i| (i * 7 + i / 13) % 5 < 2).collect();
        bits_with(&set, 200)
    }

    #[test]
    fn word_scan_ranges_cut_mid_word_and_at_the_tail() {
        let b = word_scan_bits();
        let edges = [
            0, 1, 5, 63, 64, 65, 100, 127, 128, 129, 191, 192, 193, 199, 200,
        ];
        for m in [Mask::new(&b), Mask::complement(&b)] {
            for &lo in &edges {
                for &hi in edges.iter().filter(|&&hi| hi >= lo) {
                    let mut got = Vec::new();
                    m.for_each_allowed(lo..hi, |i| got.push(i));
                    let expect: Vec<usize> = (lo..hi).filter(|&i| m.allows(i)).collect();
                    assert_eq!(got, expect, "{lo}..{hi}, complement {}", m.is_complement());
                }
            }
        }
    }

    #[test]
    fn word_scan_chunks_hold_the_list_chunks() {
        // Every grain from one index per chunk (capped at MAX_CHUNKS) to a
        // single chunk: the list-less chunks hold exactly the allowed
        // indices the exact list's chunks hold, in order.
        for bits in [
            word_scan_bits(),
            bits_with(&[], 200),
            bits_with(&[199], 200),
        ] {
            for m in [Mask::new(&bits), Mask::complement(&bits)] {
                let list: Vec<u32> = (0..200u32).filter(|&i| m.allows(i as usize)).collect();
                let listed = m.with_active_list(&list);
                for grain in [1, 2, 3, 7, 64, 100, 512] {
                    let scan = |mask: &Mask<'_>| -> Vec<Vec<usize>> {
                        let chunks = mask.allowed_chunks(grain);
                        chunks
                            .into_iter()
                            .map(|c| {
                                let mut rows = Vec::new();
                                mask.for_each_allowed(c, |i| rows.push(i));
                                rows
                            })
                            .collect()
                    };
                    let by_words = scan(&m);
                    assert_eq!(by_words, scan(&listed), "grain {grain}");
                    assert!(by_words.iter().all(|rows| !rows.is_empty()));
                    assert_eq!(by_words.len(), pool::index_chunks(list.len(), grain).len());
                }
            }
        }
    }
}
