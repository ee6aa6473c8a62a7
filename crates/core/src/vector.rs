//! Sparse and dense vectors.
//!
//! The paper's backend keeps the frontier in a `SparseVector` (sorted index
//! and value lists) while it is small and converts it to a `DenseVector`
//! when it grows past 1% of the dimension, because row-based matvec wants
//! O(1) random access into the input and column-based matvec wants the
//! nonzero list. Storage *is* the direction signal: `mxv` runs the column
//! kernel (push) on sparse inputs and the row kernel (pull) on dense
//! inputs. The algorithms decide the switch with the §6.3 hysteresis of
//! [`crate::plan::DirectionPolicy`] and convert with
//! [`Vector::make_sparse`] / [`Vector::make_dense`].

use crate::ops::Scalar;
use graphblas_matrix::VertexId;

/// A sparse vector: sorted unique indices with explicit values.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseVector<T> {
    ids: Vec<VertexId>,
    vals: Vec<T>,
}

impl<T: Scalar> SparseVector<T> {
    /// Build from parallel (indices, values) arrays; indices must be sorted
    /// ascending and unique (debug-asserted).
    #[must_use]
    pub fn from_sorted(ids: Vec<VertexId>, vals: Vec<T>) -> Self {
        assert_eq!(ids.len(), vals.len());
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids must be sorted unique"
        );
        Self { ids, vals }
    }

    /// Indices of explicit entries.
    #[must_use]
    pub fn ids(&self) -> &[VertexId] {
        &self.ids
    }

    /// Values of explicit entries.
    #[must_use]
    pub fn vals(&self) -> &[T] {
        &self.vals
    }

    /// Number of explicit entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.ids.len()
    }

    /// Value at `i`, when explicit.
    #[must_use]
    pub fn get(&self, i: VertexId) -> Option<T> {
        self.ids.binary_search(&i).ok().map(|pos| self.vals[pos])
    }
}

/// A dense vector with an explicit `fill` element standing for the implicit
/// zeros (the semiring's ⊕ identity): entries equal to `fill` are treated
/// as absent by `nnz` and the kernels.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseVector<T> {
    vals: Vec<T>,
    fill: T,
}

impl<T: Scalar> DenseVector<T> {
    /// A vector of `dim` copies of `fill`.
    #[must_use]
    pub fn new(dim: usize, fill: T) -> Self {
        Self {
            vals: vec![fill; dim],
            fill,
        }
    }

    /// Wrap existing values.
    #[must_use]
    pub fn from_values(vals: Vec<T>, fill: T) -> Self {
        Self { vals, fill }
    }

    /// Dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.vals.len()
    }

    /// The implicit-zero element.
    #[must_use]
    pub fn fill(&self) -> T {
        self.fill
    }

    /// All slots, including fill entries.
    #[must_use]
    pub fn values(&self) -> &[T] {
        &self.vals
    }

    /// Mutable access to all slots.
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.vals
    }

    /// Read slot `i`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> T {
        self.vals[i]
    }

    /// Write slot `i`.
    #[inline]
    pub fn set(&mut self, i: usize, v: T) {
        self.vals[i] = v;
    }

    /// `true` when slot `i` differs from the fill element.
    #[inline]
    #[must_use]
    pub fn is_explicit(&self, i: usize) -> bool {
        self.vals[i] != self.fill
    }

    /// Count of non-fill entries (O(dim) scan).
    #[must_use]
    pub fn nnz(&self) -> usize {
        let fill = self.fill;
        self.vals.iter().filter(|&&v| v != fill).count()
    }
}

/// Storage-adaptive vector: the GraphBLAS object user code holds.
///
/// Storage *is* the direction signal (§6.3): `mxv` runs the column (push)
/// kernel on sparse inputs and the row (pull) kernel on dense ones.
///
/// ```
/// use graphblas_core::Vector;
///
/// // A frontier of 3 explicit vertices in a 100-vertex graph.
/// let mut f = Vector::from_sparse(100, false, vec![2, 5, 9], vec![true; 3]);
/// assert!(f.is_sparse());
/// assert_eq!(f.nnz(), 3);
/// assert!(f.get(5) && !f.get(6));
///
/// // Storage conversions preserve the explicit set exactly.
/// f.make_dense();
/// assert!(!f.is_sparse());
/// assert_eq!(f.iter_explicit().collect::<Vec<_>>(),
///            vec![(2, true), (5, true), (9, true)]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum Vector<T> {
    /// Sorted-list storage; `mxv` runs the column (push) kernel on it.
    Sparse {
        /// Logical dimension.
        dim: usize,
        /// The implicit-zero element.
        fill: T,
        /// Explicit entries.
        data: SparseVector<T>,
    },
    /// Dense storage; `mxv` runs the row (pull) kernel on it.
    Dense(DenseVector<T>),
}

impl<T: Scalar> Vector<T> {
    /// An empty sparse vector.
    #[must_use]
    pub fn new_sparse(dim: usize, fill: T) -> Self {
        Vector::Sparse {
            dim,
            fill,
            data: SparseVector::from_sorted(Vec::new(), Vec::new()),
        }
    }

    /// An all-fill dense vector.
    #[must_use]
    pub fn new_dense(dim: usize, fill: T) -> Self {
        Vector::Dense(DenseVector::new(dim, fill))
    }

    /// A sparse vector holding a single explicit entry — the BFS source
    /// frontier of Algorithm 1 line 3.
    #[must_use]
    pub fn singleton(dim: usize, fill: T, id: VertexId, value: T) -> Self {
        assert!((id as usize) < dim);
        Vector::Sparse {
            dim,
            fill,
            data: SparseVector::from_sorted(vec![id], vec![value]),
        }
    }

    /// Build sparse storage from sorted (ids, values).
    #[must_use]
    pub fn from_sparse(dim: usize, fill: T, ids: Vec<VertexId>, vals: Vec<T>) -> Self {
        if let Some(&max) = ids.last() {
            assert!((max as usize) < dim, "index beyond dimension");
        }
        Vector::Sparse {
            dim,
            fill,
            data: SparseVector::from_sorted(ids, vals),
        }
    }

    /// Logical dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        match self {
            Vector::Sparse { dim, .. } => *dim,
            Vector::Dense(d) => d.dim(),
        }
    }

    /// The implicit-zero element.
    #[must_use]
    pub fn fill(&self) -> T {
        match self {
            Vector::Sparse { fill, .. } => *fill,
            Vector::Dense(d) => d.fill(),
        }
    }

    /// Number of explicit (non-fill) entries. O(1) for sparse, O(dim) for
    /// dense.
    #[must_use]
    pub fn nnz(&self) -> usize {
        match self {
            Vector::Sparse { data, .. } => data.nnz(),
            Vector::Dense(d) => d.nnz(),
        }
    }

    /// `true` when held in sparse storage.
    #[must_use]
    pub fn is_sparse(&self) -> bool {
        matches!(self, Vector::Sparse { .. })
    }

    /// Value at `i` (fill when implicit).
    #[must_use]
    pub fn get(&self, i: VertexId) -> T {
        match self {
            Vector::Sparse { data, fill, .. } => data.get(i).unwrap_or(*fill),
            Vector::Dense(d) => d.get(i as usize),
        }
    }

    /// Iterate explicit entries as `(id, value)` in index order.
    pub fn iter_explicit(&self) -> Box<dyn Iterator<Item = (VertexId, T)> + '_> {
        match self {
            Vector::Sparse { data, .. } => {
                Box::new(data.ids.iter().copied().zip(data.vals.iter().copied()))
            }
            Vector::Dense(d) => {
                let fill = d.fill();
                Box::new(
                    d.values()
                        .iter()
                        .enumerate()
                        .filter(move |&(_, &v)| v != fill)
                        .map(|(i, &v)| (i as VertexId, v)),
                )
            }
        }
    }

    /// Force sparse storage (`dense2sparse` of §6.3).
    pub fn make_sparse(&mut self) {
        if let Vector::Dense(d) = self {
            let fill = d.fill();
            let mut ids = Vec::new();
            let mut vals = Vec::new();
            for (i, &v) in d.values().iter().enumerate() {
                if v != fill {
                    ids.push(i as VertexId);
                    vals.push(v);
                }
            }
            *self = Vector::Sparse {
                dim: d.dim(),
                fill,
                data: SparseVector::from_sorted(ids, vals),
            };
        }
    }

    /// Force dense storage (`sparse2dense` of §6.3).
    pub fn make_dense(&mut self) {
        if let Vector::Sparse { dim, fill, data } = self {
            let mut d = DenseVector::new(*dim, *fill);
            for (&i, &v) in data.ids.iter().zip(data.vals.iter()) {
                d.set(i as usize, v);
            }
            *self = Vector::Dense(d);
        }
    }

    /// Borrow the dense storage, when dense.
    #[must_use]
    pub fn as_dense(&self) -> Option<&DenseVector<T>> {
        match self {
            Vector::Dense(d) => Some(d),
            Vector::Sparse { .. } => None,
        }
    }

    /// Mutably borrow the dense storage, when dense. Lets long-lived dense
    /// state (e.g. the visited vector that operand reuse feeds to pull
    /// iterations) be updated in place instead of rebuilt.
    pub fn as_dense_mut(&mut self) -> Option<&mut DenseVector<T>> {
        match self {
            Vector::Dense(d) => Some(d),
            Vector::Sparse { .. } => None,
        }
    }

    /// Borrow the sparse storage, when sparse.
    #[must_use]
    pub fn as_sparse(&self) -> Option<&SparseVector<T>> {
        match self {
            Vector::Sparse { data, .. } => Some(data),
            Vector::Dense(_) => None,
        }
    }

    /// A dense copy of this vector (the original is untouched).
    #[must_use]
    pub fn to_dense(&self) -> DenseVector<T> {
        let mut c = self.clone();
        c.make_dense();
        match c {
            Vector::Dense(d) => d,
            Vector::Sparse { .. } => unreachable!(),
        }
    }

    /// A sparse copy of this vector (the original is untouched).
    #[must_use]
    pub fn to_sparse(&self) -> SparseVector<T> {
        let mut c = self.clone();
        c.make_sparse();
        match c {
            Vector::Sparse { data, .. } => data,
            Vector::Dense(_) => unreachable!(),
        }
    }
}

/// A batch of `k` vectors over the same dimension — the `k × n` frontier
/// object of a batched traversal (multi-source BFS, batched Brandes BC).
///
/// Each row is an independent [`Vector`], so each source's frontier is
/// sparse or dense on its own: one source can be mid-supervertex (dense,
/// pull) while another is still a thin wave (sparse, push). The batched
/// kernels in [`crate::ops_mxv_batch`] dispatch per row on exactly this
/// storage, generalizing the paper's Optimization 1 from one frontier to a
/// batch.
#[derive(Clone, Debug, PartialEq)]
pub struct MultiVector<T> {
    dim: usize,
    fill: T,
    rows: Vec<Vector<T>>,
}

impl<T: Scalar> MultiVector<T> {
    /// A `k × dim` batch of empty sparse rows.
    #[must_use]
    pub fn new_sparse(k: usize, dim: usize, fill: T) -> Self {
        Self {
            dim,
            fill,
            rows: (0..k).map(|_| Vector::new_sparse(dim, fill)).collect(),
        }
    }

    /// Wrap existing rows; all must share `dim` and `fill`.
    #[must_use]
    pub fn from_rows(rows: Vec<Vector<T>>) -> Self {
        let first = rows.first().expect("batch needs at least one row");
        let (dim, fill) = (first.dim(), first.fill());
        for r in &rows {
            assert_eq!(r.dim(), dim, "all batch rows must share the dimension");
            assert_eq!(r.fill(), fill, "all batch rows must share the fill");
        }
        Self { dim, fill, rows }
    }

    /// One singleton row per `(id, value)` entry — the batch analogue of
    /// [`Vector::singleton`], seeding a multi-source traversal (duplicate
    /// ids allowed: each gets its own independent row).
    #[must_use]
    pub fn singletons(dim: usize, fill: T, entries: &[(VertexId, T)]) -> Self {
        let rows = entries
            .iter()
            .map(|&(id, v)| Vector::singleton(dim, fill, id, v))
            .collect();
        Self { dim, fill, rows }
    }

    /// Number of rows (`k`).
    #[must_use]
    pub fn k(&self) -> usize {
        self.rows.len()
    }

    /// Shared row dimension (`n`).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The shared implicit-zero element.
    #[must_use]
    pub fn fill(&self) -> T {
        self.fill
    }

    /// Borrow row `r`.
    #[must_use]
    pub fn row(&self, r: usize) -> &Vector<T> {
        &self.rows[r]
    }

    /// Mutably borrow row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut Vector<T> {
        &mut self.rows[r]
    }

    /// All rows in order.
    #[must_use]
    pub fn rows(&self) -> &[Vector<T>] {
        &self.rows
    }

    /// Consume the batch into its rows.
    #[must_use]
    pub fn into_rows(self) -> Vec<Vector<T>> {
        self.rows
    }

    /// Total explicit entries across the batch (`nnz` of the k × n object).
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vector::nnz).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_frontier() {
        let f = Vector::singleton(8, false, 3, true);
        assert_eq!(f.dim(), 8);
        assert_eq!(f.nnz(), 1);
        assert!(f.is_sparse());
        assert!(f.get(3));
        assert!(!f.get(0));
    }

    #[test]
    fn sparse_dense_roundtrip() {
        let mut v = Vector::from_sparse(6, 0i32, vec![1, 4], vec![10, 40]);
        v.make_dense();
        assert!(!v.is_sparse());
        assert_eq!(v.get(1), 10);
        assert_eq!(v.get(2), 0);
        assert_eq!(v.nnz(), 2);
        v.make_sparse();
        assert!(v.is_sparse());
        assert_eq!(v.as_sparse().unwrap().ids(), &[1, 4]);
        assert_eq!(v.as_sparse().unwrap().vals(), &[10, 40]);
    }

    #[test]
    fn dense_nnz_ignores_fill() {
        let d = DenseVector::from_values(vec![7, 0, 7, 3], 7);
        assert_eq!(d.nnz(), 2);
        assert!(d.is_explicit(1));
        assert!(!d.is_explicit(0));
    }

    #[test]
    fn iter_explicit_same_for_both_storages() {
        let v = Vector::from_sparse(5, 0u32, vec![0, 2, 4], vec![1, 2, 3]);
        let sparse_items: Vec<_> = v.iter_explicit().collect();
        let mut vd = v.clone();
        vd.make_dense();
        let dense_items: Vec<_> = vd.iter_explicit().collect();
        assert_eq!(sparse_items, dense_items);
        assert_eq!(sparse_items, vec![(0, 1), (2, 2), (4, 3)]);
    }

    #[test]
    fn get_out_of_band_returns_fill() {
        let v = Vector::from_sparse(10, -1i64, vec![5], vec![55]);
        assert_eq!(v.get(5), 55);
        assert_eq!(v.get(6), -1);
    }

    #[test]
    #[should_panic(expected = "index beyond dimension")]
    fn from_sparse_checks_bounds() {
        let _ = Vector::from_sparse(4, 0u8, vec![9], vec![1]);
    }

    #[test]
    fn multivector_singletons_and_accessors() {
        let mv = MultiVector::singletons(10, false, &[(3, true), (7, true), (3, true)]);
        assert_eq!(mv.k(), 3);
        assert_eq!(mv.dim(), 10);
        assert_eq!(mv.nnz(), 3);
        assert!(mv.row(0).get(3));
        assert!(mv.row(2).get(3), "duplicate sources get independent rows");
        assert!(mv.rows().iter().all(Vector::is_sparse));
    }

    #[test]
    #[should_panic(expected = "share the dimension")]
    fn multivector_rejects_mixed_dims() {
        let _ = MultiVector::from_rows(vec![
            Vector::<bool>::new_sparse(4, false),
            Vector::<bool>::new_sparse(5, false),
        ]);
    }
}
