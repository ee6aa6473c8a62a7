//! Compressed sparse row storage.
//!
//! CSR of `A` is simultaneously CSC of `Aᵀ`: row `i` of the structure holds
//! the out-neighbors of vertex `i` when it stores `A`, and the in-neighbors
//! when it stores `Aᵀ`. Every kernel in `graphblas_core` reads a `Csr` and
//! nothing else; a flag at the dispatch layer says which orientation (`A`
//! or `Aᵀ`) it reads. `Csr` is also the format every graph is born in and
//! the oracle the alternate stores of [`crate::storage`] are tested
//! against.
//!
//! Column indices within each row are kept sorted — the paper's sparse
//! vectors and matrix slices are "sorted lists of indices and values" (§3),
//! which the multiway-merge analysis relies on.

use crate::mmio::MmError;
use crate::{Coo, VertexId};
use graphblas_primitives::scan;
use rayon::prelude::*;

/// Sparse matrix in CSR form with values of type `V`.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr<V> {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_ind: Vec<VertexId>,
    values: Vec<V>,
}

impl<V: Copy + Send + Sync> Csr<V> {
    /// Build from a COO. Duplicates must already be collapsed (use
    /// [`Coo::dedup`] or [`Coo::clean_undirected`]); this is debug-asserted.
    /// Loaders handling untrusted input should use [`Csr::try_from_coo`],
    /// which performs the duplicate check in release builds too.
    #[must_use]
    pub fn from_coo(coo: &Coo<V>) -> Self {
        let me = Self::build_from_coo(coo);
        debug_assert!(me.rows_strictly_sorted(), "duplicate entries in COO");
        me
    }

    /// Checked [`Csr::from_coo`]: refuses a COO whose duplicates were not
    /// collapsed instead of debug-asserting, so release-mode loaders (the
    /// `mmio` path) cannot silently build a CSR whose rows carry repeated
    /// columns — a structure the kernels' sorted-row invariants assume
    /// away.
    pub fn try_from_coo(coo: &Coo<V>) -> Result<Self, MmError> {
        let me = Self::build_from_coo(coo);
        for i in 0..me.n_rows {
            if let Some(w) = me.row(i).windows(2).find(|w| w[0] >= w[1]) {
                return Err(MmError::Parse(format!(
                    "duplicate entry at ({i}, {}): collapse duplicates before building a CSR",
                    w[0]
                )));
            }
        }
        Ok(me)
    }

    fn build_from_coo(coo: &Coo<V>) -> Self {
        let entries = || coo.entries().iter().map(|&(r, c, v)| (r as usize, c, v));
        // Entries may arrive unsorted within a row.
        let mut me = Self::bucket_by_row(coo.n_rows(), coo.n_cols(), entries);
        me.sort_rows();
        me
    }

    /// Counting sort of `entries` into CSR by row, each row keeping the
    /// order its entries arrive in. `entries` is walked twice, to count
    /// and to place. Row `r`'s entries are counted into `row_ptr[r + 1]`;
    /// after the prefix sum `row_ptr[r]` is row `r`'s write cursor, and once
    /// every entry is placed each cursor stands at its row's end, so one
    /// shift by a slot restores the row starts. No array besides the
    /// output is allocated.
    fn bucket_by_row<I>(n_rows: usize, n_cols: usize, entries: impl Fn() -> I) -> Self
    where
        I: Iterator<Item = (usize, VertexId, V)>,
    {
        // `for_each` rather than `for`: internal iteration runs a nested
        // iterator (`transpose`'s `flat_map`) as plain nested loops.
        let mut row_ptr = vec![0usize; n_rows + 1];
        entries().for_each(|(r, _, _)| row_ptr[r + 1] += 1);
        let nnz = scan::inclusive_scan_in_place(&mut row_ptr);
        let mut col_ind = vec![0 as VertexId; nnz];
        // Any entry's value fills the slots; each is overwritten below.
        let mut values = entries()
            .next()
            .map_or_else(Vec::new, |(_, _, v)| vec![v; nnz]);
        entries().for_each(|(r, c, v)| {
            let slot = row_ptr[r];
            row_ptr[r] += 1;
            col_ind[slot] = c;
            values[slot] = v;
        });
        row_ptr.copy_within(..n_rows, 1);
        row_ptr[0] = 0;
        Self {
            n_rows,
            n_cols,
            row_ptr,
            col_ind,
            values,
        }
    }

    /// Build directly from raw parts (used by generators that construct
    /// CSR without materializing a COO). Rows are sorted on entry.
    ///
    /// # Panics
    /// When `row_ptr` does not hold `n_rows + 1` non-decreasing offsets
    /// ending at the length of `col_ind` and of `values`: the row sort's
    /// unsafe slicing relies on every row window lying inside the arrays.
    #[must_use]
    pub fn from_parts(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_ind: Vec<VertexId>,
        values: Vec<V>,
    ) -> Self {
        assert_eq!(row_ptr.len(), n_rows + 1);
        assert!(
            row_ptr.windows(2).all(|w| w[0] <= w[1]),
            "row_ptr decreases"
        );
        assert_eq!(col_ind.len(), row_ptr.last().copied().unwrap_or(0));
        assert_eq!(col_ind.len(), values.len());
        let mut me = Self {
            n_rows,
            n_cols,
            row_ptr,
            col_ind,
            values,
        };
        me.sort_rows();
        me
    }

    fn sort_rows(&mut self) {
        let row_ptr = &self.row_ptr;
        let n = self.n_rows;
        // Split (col_ind, values) into per-row slices for parallel sorting.
        let col_ptr = SendPtr(self.col_ind.as_mut_ptr());
        let val_ptr = SendPtr(self.values.as_mut_ptr());
        (0..n).into_par_iter().with_min_len(256).for_each(|i| {
            let (start, end) = (row_ptr[i], row_ptr[i + 1]);
            if end - start < 2 {
                return;
            }
            // SAFETY: `start..end` lies inside `col_ind` (`row_ptr` rises to
            // its length), and row windows are disjoint, so no other task
            // touches these elements.
            let cols =
                unsafe { std::slice::from_raw_parts_mut(col_ptr.get().add(start), end - start) };
            // SAFETY: as above; `values` has `col_ind`'s length.
            let vals =
                unsafe { std::slice::from_raw_parts_mut(val_ptr.get().add(start), end - start) };
            if cols.windows(2).all(|w| w[0] < w[1]) {
                return;
            }
            let mut perm: Vec<u32> = (0..cols.len() as u32).collect();
            perm.sort_unstable_by_key(|&k| cols[k as usize]);
            let old_cols = cols.to_vec();
            let old_vals = vals.to_vec();
            for (slot, &k) in perm.iter().enumerate() {
                cols[slot] = old_cols[k as usize];
                vals[slot] = old_vals[k as usize];
            }
        });
    }

    fn rows_strictly_sorted(&self) -> bool {
        (0..self.n_rows).all(|i| self.row(i).windows(2).all(|w| w[0] < w[1]))
    }

    /// Number of rows.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[must_use]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.col_ind.len()
    }

    /// Average entries per row — the `d` of the Table 1 cost model.
    #[must_use]
    pub fn avg_degree(&self) -> f64 {
        if self.n_rows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.n_rows as f64
        }
    }

    /// Row pointers (length `n_rows + 1`).
    #[must_use]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// All column indices, row-major.
    #[must_use]
    pub fn col_ind(&self) -> &[VertexId] {
        &self.col_ind
    }

    /// All values, row-major.
    #[must_use]
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// Column indices of row `i`.
    #[inline]
    #[must_use]
    pub fn row(&self, i: usize) -> &[VertexId] {
        &self.col_ind[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Values of row `i`.
    #[inline]
    #[must_use]
    pub fn row_values(&self, i: usize) -> &[V] {
        &self.values[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Out-degree of row `i`.
    #[inline]
    #[must_use]
    pub fn degree(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Explicit transpose. `Aᵀ` in CSR form (= CSC of `A`). A serial
    /// counting sort by column; within-row column order comes out sorted
    /// because rows of `A` are visited in order.
    #[must_use]
    pub fn transpose(&self) -> Self {
        Self::bucket_by_row(self.n_cols, self.n_rows, || {
            (0..self.n_rows).flat_map(move |r| {
                self.row(r)
                    .iter()
                    .zip(self.row_values(r))
                    .map(move |(&c, &v)| (c as usize, r as VertexId, v))
            })
        })
    }

    /// `true` when the sparsity pattern and values equal the transpose's,
    /// exactly as `*self == self.transpose()` would say, but found by one
    /// serial, read-only O(nnz) merge that builds no transpose and stops at
    /// the first mismatch. A non-square matrix is not symmetric, and
    /// neither is one holding a value unequal to itself (a float NaN).
    ///
    /// Rows are visited in order with one cursor per row, starting at the
    /// row's first entry. Every entry must equal its mirror: an upper entry
    /// `(i, j)` must be the entry at row `j`'s cursor, with column `i`,
    /// which advances that cursor over row `j`'s lower entries in column
    /// order; a diagonal entry is its own mirror. When row `i`'s turn comes
    /// its cursor must stand at its first column ≥ `i`, i.e. every lower
    /// entry was some upper entry's mirror.
    #[must_use]
    pub fn is_symmetric(&self) -> bool
    where
        V: PartialEq,
    {
        if self.n_rows != self.n_cols {
            return false;
        }
        let mut cursor = self.row_ptr[..self.n_rows].to_vec();
        for i in 0..self.n_rows {
            let end = self.row_ptr[i + 1];
            let first_upper = cursor[i];
            if first_upper < end && (self.col_ind[first_upper] as usize) < i {
                return false;
            }
            for k in first_upper..end {
                let j = self.col_ind[k] as usize;
                let mirror = if j == i {
                    k
                } else {
                    let m = cursor[j];
                    if m == self.row_ptr[j + 1] || self.col_ind[m] as usize != i {
                        return false;
                    }
                    cursor[j] = m + 1;
                    m
                };
                if self.values[mirror] != self.values[k] {
                    return false;
                }
            }
        }
        true
    }

    /// GrB_select-style structural filter: keep entry `(i, j, v)` iff
    /// `pred(i, j, v)` holds. The paper's generality examples build their
    /// masks this way — e.g. the strictly-lower triangle for triangle
    /// counting is `select(|i, j, _| j < i)`.
    #[must_use]
    pub fn select<F: Fn(usize, VertexId, V) -> bool>(&self, pred: F) -> Csr<V> {
        let mut row_ptr = Vec::with_capacity(self.n_rows + 1);
        let mut col_ind = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0usize);
        for i in 0..self.n_rows {
            for (idx, &j) in self.row(i).iter().enumerate() {
                let v = self.row_values(i)[idx];
                if pred(i, j, v) {
                    col_ind.push(j);
                    values.push(v);
                }
            }
            row_ptr.push(col_ind.len());
        }
        Csr {
            n_rows: self.n_rows,
            n_cols: self.n_cols,
            row_ptr,
            col_ind,
            values,
        }
    }

    /// Map values through `f`, preserving structure.
    #[must_use]
    pub fn map_values<W: Copy + Send + Sync, F: Fn(V) -> W>(&self, f: F) -> Csr<W> {
        Csr {
            n_rows: self.n_rows,
            n_cols: self.n_cols,
            row_ptr: self.row_ptr.clone(),
            col_ind: self.col_ind.clone(),
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }
}

/// A raw pointer into one of a CSR's arrays, shared by the tasks of
/// `Csr::sort_rows`, each of which writes only its own row window.
struct SendPtr<T>(*mut T);
// SAFETY: the pointer field is only dereferenced in `sort_rows`, where the
// task that receives it writes `T`s (hence `T: Send`) inside its own row
// window, disjoint from every other task's, while the owning `Vec` is
// borrowed mutably for the whole parallel loop.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: a shared `&SendPtr` only hands out a copy of the pointer field
// (`get`); writes through it obey the same disjoint-window rule as above,
// so no two threads ever touch one element.
unsafe impl<T: Send> Sync for SendPtr<T> {}
impl<T> SendPtr<T> {
    #[inline]
    fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4-vertex digraph: 0->1, 0->2, 1->2, 2->3, 3->0.
    fn sample_csr() -> Csr<f32> {
        let mut coo = Coo::new(4, 4);
        for &(r, c) in &[(0u32, 1u32), (0, 2), (1, 2), (2, 3), (3, 0)] {
            coo.push(r, c, (r * 10 + c) as f32);
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn from_coo_layout() {
        let m = sample_csr();
        assert_eq!(m.n_rows(), 4);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.row_ptr(), &[0, 2, 3, 4, 5]);
        assert_eq!(m.row(0), &[1, 2]);
        assert_eq!(m.row_values(0), &[1.0, 2.0]);
        assert_eq!(m.row(3), &[0]);
        assert_eq!(m.degree(0), 2);
        assert_eq!(m.degree(1), 1);
    }

    #[test]
    fn from_coo_sorts_rows() {
        let mut coo = Coo::new(2, 5);
        coo.push(0, 4, 4.0f32);
        coo.push(0, 1, 1.0);
        coo.push(0, 3, 3.0);
        let m = Csr::from_coo(&coo);
        assert_eq!(m.row(0), &[1, 3, 4]);
        assert_eq!(m.row_values(0), &[1.0, 3.0, 4.0]);
    }

    #[test]
    fn empty_rows_supported() {
        let coo: Coo<f32> = Coo::new(3, 3);
        let m = Csr::from_coo(&coo);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.row(1), &[] as &[u32]);
        assert_eq!(m.avg_degree(), 0.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample_csr();
        let t = m.transpose();
        assert_eq!(t.n_rows(), 4);
        // 0->1 in A means 1->0 in Aᵀ.
        assert_eq!(t.row(1), &[0]);
        assert_eq!(t.row(2), &[0, 1]);
        let tt = t.transpose();
        assert_eq!(tt, m);
    }

    #[test]
    fn transpose_preserves_values() {
        let m = sample_csr();
        let t = m.transpose();
        // Value of (0,2) in A is 2.0 and must appear at (2,0) in Aᵀ.
        let pos = t
            .row(2)
            .iter()
            .position(|&c| c == 0)
            .expect("entry present");
        assert_eq!(t.row_values(2)[pos], 2.0);
    }

    #[test]
    fn symmetry_detection() {
        let m = sample_csr();
        assert!(!m.is_symmetric());
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, 1.0f32);
        coo.push(1, 2, 1.0);
        coo.clean_undirected();
        let u = Csr::from_coo(&coo);
        assert!(u.is_symmetric());

        // Each verdict agrees with transpose equality: two symmetric
        // inputs, then asymmetric values, an unmatched pair, a lone lower
        // entry, a NaN on the diagonal, a NaN pair, and a non-square shape.
        type Cells = &'static [(u32, u32, f32)];
        let cases: [(Cells, usize, bool); 8] = [
            (&[], 3, true),
            (&[(0, 2, 1.0), (2, 0, 1.0), (1, 1, 5.0)], 3, true),
            (&[(0, 2, 1.0), (2, 0, 2.0)], 3, false),
            (&[(0, 2, 1.0), (2, 1, 1.0)], 3, false),
            (&[(2, 0, 1.0)], 3, false),
            (&[(1, 1, f32::NAN)], 3, false),
            (&[(0, 1, f32::NAN), (1, 0, f32::NAN)], 3, false),
            (&[], 4, false),
        ];
        for (cells, n_cols, want) in cases {
            let mut coo = Coo::new(3, n_cols);
            for &(r, c, v) in cells {
                coo.push(r, c, v);
            }
            let m = Csr::from_coo(&coo);
            assert_eq!(m.is_symmetric(), want, "{cells:?}");
            assert_eq!(m == m.transpose(), want, "{cells:?}");
        }
    }

    #[test]
    fn map_values_preserves_structure() {
        let m = sample_csr();
        let b = m.map_values(|_| true);
        assert_eq!(b.row_ptr(), m.row_ptr());
        assert_eq!(b.col_ind(), m.col_ind());
        assert!(b.values().iter().all(|&v| v));
    }

    #[test]
    fn from_parts_sorts() {
        let m = Csr::from_parts(2, 4, vec![0, 3, 4], vec![2, 0, 1, 3], vec![20, 0, 10, 13]);
        assert_eq!(m.row(0), &[0, 1, 2]);
        assert_eq!(m.row_values(0), &[0, 10, 20]);
    }

    #[test]
    fn avg_degree_matches() {
        let m = sample_csr();
        assert!((m.avg_degree() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn select_lower_triangle() {
        let m = sample_csr();
        let lower = m.select(|i, j, _| (j as usize) < i);
        // Entries: (2,..)? rows: 0->{1,2} none kept; 1->{2} none; 2->{3}
        // none; 3->{0} kept.
        assert_eq!(lower.nnz(), 1);
        assert_eq!(lower.row(3), &[0]);
        assert_eq!(lower.n_rows(), m.n_rows());
    }

    #[test]
    fn select_by_value() {
        let m = sample_csr();
        let big = m.select(|_, _, v| v >= 10.0);
        assert!(big.values().iter().all(|&v| v >= 10.0));
        let total = m.nnz();
        let small = m.select(|_, _, v| v < 10.0);
        assert_eq!(big.nnz() + small.nnz(), total);
    }

    #[test]
    fn try_from_coo_accepts_clean_and_rejects_duplicates() {
        let mut clean = Coo::new(3, 3);
        clean.push(0, 1, 1.0f32);
        clean.push(0, 2, 2.0);
        let m = Csr::try_from_coo(&clean).expect("clean COO builds");
        assert_eq!(m, Csr::from_coo(&clean));

        let mut dup = Coo::new(3, 3);
        dup.push(0, 1, 1.0f32);
        dup.push(0, 1, 5.0);
        let err = Csr::try_from_coo(&dup).expect_err("duplicate must be refused");
        assert!(err.to_string().contains("duplicate entry at (0, 1)"));
        // After collapsing, the same COO builds fine.
        dup.dedup(|a, _| a);
        assert!(Csr::try_from_coo(&dup).is_ok());
    }

    #[test]
    fn select_everything_and_nothing() {
        let m = sample_csr();
        assert_eq!(m.select(|_, _, _| true), m);
        assert_eq!(m.select(|_, _, _| false).nnz(), 0);
    }
}
