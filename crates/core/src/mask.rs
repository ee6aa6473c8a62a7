//! Masks: the paper's formalism for output sparsity (§3.2).
//!
//! A masked matvec `f' = (Af) .∗ m` only materializes outputs where the
//! mask allows. The *structural complement* `¬m` (§3.2) flips the rule —
//! BFS pulls into the complement of the visited set. Masks here are
//! structural Booleans over a bit vector; a pre-computed **active list**
//! (the sorted indices the mask allows) gives the row kernel its
//! `O(d·nnz(m))` bound instead of `O(dM + work)`: the paper's SPA trick of
//! keeping "a sparse vector containing indices where the zeroes are
//! located", built once and amortized across BFS iterations.
//!
//! The push face has its own amortized companion: a **claim set**, an
//! all-clear atomic bit vector over the output dimension that the
//! structure-only column kernel claims survivors in (see
//! [`Mask::with_claim_set`]). A traversal allocates it once per run, so no
//! push level pays for an `O(M)` buffer.

use graphblas_matrix::VertexId;
use graphblas_primitives::{AtomicBitVec, BitVec};

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

    /// Attach a sorted list of exactly the allowed indices. The masked row
    /// kernel then iterates this list instead of scanning all `M` rows.
    ///
    /// Correctness contract (debug-asserted on use): the list must be
    /// **strictly ascending** — so in particular duplicate-free — and
    /// every listed index must satisfy [`Mask::allows`]. Uniqueness is
    /// load-bearing, not just tidiness: the row kernels (and the fused
    /// pipeline's `assign_into`, which writes caller state) partition the
    /// list across parallel workers and write each listed row's output
    /// slot without synchronization, which is only race-free when no row
    /// appears twice.
    #[must_use]
    pub fn with_active_list(mut self, list: &'a [VertexId]) -> Self {
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
    /// O(1) words when no active list is attached (popcount); O(1) when
    /// attached.
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
        // visited = {0,1}; pull mask = ¬visited with active list {2,3,4}.
        let visited = bits_with(&[0, 1], 5);
        let unvisited: Vec<u32> = vec![2, 3, 4];
        let m = Mask::complement(&visited).with_active_list(&unvisited);
        assert!(m.allows(2) && !m.allows(0));
        assert_eq!(m.active_count(), 3);
        assert_eq!(m.dim(), 5);
    }
}
