//! Sparse accumulator (SPA) of Gilbert, Moler & Schreiber.
//!
//! The SPA is a dense value array + dense occupancy flags + a sparse list of
//! occupied indices, giving O(1) random insert/accumulate and O(nnz) harvest
//! into a sorted sparse vector. The paper uses a SPA-like structure in two
//! places: Gustavson SpGEMM rows (our `mxm`), and the §3.2 trick where the
//! mask keeps a *sparse list of its zero positions* so the masked row-based
//! matvec touches `O(nnz(m))` rows instead of `M`. This workspace's masked
//! row kernels get that bound by scanning the mask's bit words instead
//! (`graphblas_core::Mask`), so no such list is kept.

/// Dense-backed sparse accumulator over value type `V`.
#[derive(Debug)]
pub struct Spa<V> {
    values: Vec<V>,
    occupied: Vec<bool>,
    nonzeros: Vec<u32>,
    fill: V,
}

impl<V: Copy> Spa<V> {
    /// Create a SPA of logical dimension `n`; `fill` is returned for absent
    /// entries and used to reset slots on `clear`.
    #[must_use]
    pub fn new(n: usize, fill: V) -> Self {
        Self {
            values: vec![fill; n],
            occupied: vec![false; n],
            nonzeros: Vec::new(),
            fill,
        }
    }

    /// Logical dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Number of occupied slots.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.nonzeros.len()
    }

    /// Accumulate `v` into slot `i` with `op`, or insert it when the slot is
    /// empty.
    #[inline]
    pub fn accumulate<F: FnOnce(V, V) -> V>(&mut self, i: u32, v: V, op: F) {
        let idx = i as usize;
        if self.occupied[idx] {
            self.values[idx] = op(self.values[idx], v);
        } else {
            self.occupied[idx] = true;
            self.values[idx] = v;
            self.nonzeros.push(i);
        }
    }

    /// Insert `v` at `i`, overwriting any existing value.
    #[inline]
    pub fn insert(&mut self, i: u32, v: V) {
        let idx = i as usize;
        if !self.occupied[idx] {
            self.occupied[idx] = true;
            self.nonzeros.push(i);
        }
        self.values[idx] = v;
    }

    /// Value at slot `i`, or `None` when unoccupied.
    #[inline]
    #[must_use]
    pub fn get(&self, i: u32) -> Option<V> {
        self.occupied[i as usize].then(|| self.values[i as usize])
    }

    /// `true` when slot `i` holds a value.
    #[inline]
    #[must_use]
    pub fn contains(&self, i: u32) -> bool {
        self.occupied[i as usize]
    }

    /// Drain into `(sorted indices, values)` and reset for reuse.
    ///
    /// Harvest cost is `O(nnz log nnz)` for the sort plus `O(nnz)` to reset —
    /// independent of the dense dimension, which is the point of the SPA.
    pub fn drain_sorted(&mut self) -> (Vec<u32>, Vec<V>) {
        self.nonzeros.sort_unstable();
        let ids = std::mem::take(&mut self.nonzeros);
        let vals = ids.iter().map(|&i| self.values[i as usize]).collect();
        for &i in &ids {
            self.occupied[i as usize] = false;
            self.values[i as usize] = self.fill;
        }
        (ids, vals)
    }

    /// Reset without harvesting.
    pub fn clear(&mut self) {
        for &i in &self.nonzeros {
            self.occupied[i as usize] = false;
            self.values[i as usize] = self.fill;
        }
        self.nonzeros.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_and_harvest_sorted() {
        let mut spa = Spa::new(10, 0u32);
        spa.accumulate(7, 1, |a, b| a + b);
        spa.accumulate(2, 5, |a, b| a + b);
        spa.accumulate(7, 2, |a, b| a + b);
        assert_eq!(spa.nnz(), 2);
        assert_eq!(spa.get(7), Some(3));
        assert_eq!(spa.get(0), None);
        let (ids, vals) = spa.drain_sorted();
        assert_eq!(ids, vec![2, 7]);
        assert_eq!(vals, vec![5, 3]);
        // Reusable after drain.
        assert_eq!(spa.nnz(), 0);
        assert_eq!(spa.get(7), None);
        spa.accumulate(7, 9, |a, b| a + b);
        assert_eq!(spa.get(7), Some(9), "fill value restored between uses");
    }

    #[test]
    fn insert_overwrites() {
        let mut spa = Spa::new(4, -1i64);
        spa.insert(3, 10);
        spa.insert(3, 20);
        assert_eq!(spa.get(3), Some(20));
        assert_eq!(spa.nnz(), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut spa = Spa::new(8, 0u8);
        spa.insert(1, 1);
        spa.insert(5, 5);
        spa.clear();
        assert_eq!(spa.nnz(), 0);
        assert!(!spa.contains(1) && !spa.contains(5));
        let (ids, _) = spa.drain_sorted();
        assert!(ids.is_empty());
    }

    #[test]
    fn boolean_or_accumulation() {
        // BFS child-claiming with OR: duplicates collapse to one true.
        let mut spa = Spa::new(6, false);
        for i in [4u32, 4, 4, 1] {
            spa.accumulate(i, true, |a, b| a || b);
        }
        let (ids, vals) = spa.drain_sorted();
        assert_eq!(ids, vec![1, 4]);
        assert_eq!(vals, vec![true, true]);
    }
}
