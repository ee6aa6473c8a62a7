//! Dual-orientation graph handle.
//!
//! `Graph` owns CSR of `A` (rows = out-neighbors/children) and CSR of `Aᵀ`
//! (rows = in-neighbors/parents). The BFS recurrence `f' = Aᵀf .∗ ¬v`
//! operates on `Aᵀ`; its *column-based* kernel fetches columns of `Aᵀ`,
//! which are rows of `A`, while its *row-based* kernel walks rows of `Aᵀ`.
//! Keeping both orientations resident is what lets the backend switch
//! direction per iteration without any transposition cost (§4.4).
//!
//! For undirected (symmetric) graphs — all datasets in the paper's
//! evaluation — the two orientations are identical and the CSR is shared
//! via `Arc`, halving memory. Symmetry is found by [`Csr::is_symmetric`], a
//! read-only O(nnz) merge that builds no transpose, so a symmetric graph's
//! set-up never holds more than one CSR; a directed graph pays the merge up
//! to its first mismatch, then the transpose.
//!
//! The `graphblas_core` kernels read only these two CSRs. Each orientation
//! additionally carries a lazy cache of alternate storage formats
//! ([`crate::storage::BitmapStore`], [`crate::storage::Dcsr`]):
//! [`Graph::store`] serves any orientation in any format, converting on
//! first request and reusing the cached store afterwards. No core call
//! reads those stores; they remain for the benchmark, which times their
//! builds (`matrix.bitmap_build_ms`, `matrix.dcsr_build_ms`).

use crate::storage::{BitmapPlan, BitmapStore, Dcsr, StorageFormat};
use crate::{Coo, Csr, VertexId};
use std::sync::{Arc, OnceLock};

/// Lazily-built alternate-format representations of one orientation. Shared via
/// `Arc` so clones of a [`Graph`] (and its symmetric orientation aliases)
/// convert at most once per format. The tiled-bitmap [`BitmapPlan`] is
/// memoized here too, so the feasibility verdict for one orientation is
/// computed once per graph — not re-derived (and re-charged) per call.
#[derive(Debug)]
struct FormatCache<V> {
    bitmap: OnceLock<Option<Arc<BitmapStore<V>>>>,
    bitmap_plan: OnceLock<BitmapPlan>,
    dcsr: OnceLock<Arc<Dcsr<V>>>,
}

impl<V> Default for FormatCache<V> {
    fn default() -> Self {
        Self {
            bitmap: OnceLock::new(),
            bitmap_plan: OnceLock::new(),
            dcsr: OnceLock::new(),
        }
    }
}

/// A borrowed view of one orientation of a [`Graph`] in a concrete
/// storage format; match on it to read the store through
/// [`crate::RowAccess`].
#[derive(Debug)]
pub enum StoreRef<'a, V> {
    /// The baseline CSR (always resident).
    Csr(&'a Csr<V>),
    /// The cached bitmap store.
    Bitmap(&'a BitmapStore<V>),
    /// The cached hypersparse DCSR store.
    Dcsr(&'a Dcsr<V>),
}

/// A graph held as both `A` and `Aᵀ` in CSR form.
///
/// ```
/// use graphblas_matrix::{Coo, Graph};
///
/// // Directed triangle 0 → 1 → 2 → 0.
/// let mut coo = Coo::new(3, 3);
/// coo.push(0, 1, true);
/// coo.push(1, 2, true);
/// coo.push(2, 0, true);
/// let g = Graph::from_coo(&coo);
///
/// assert_eq!(g.n_vertices(), 3);
/// assert_eq!(g.children(0), &[1]); // row of A
/// assert_eq!(g.parents(0), &[2]);  // row of Aᵀ — no transpose computed
/// assert!(!g.is_symmetric());
///
/// // Symmetrized, the two orientations share one CSR allocation.
/// coo.clean_undirected();
/// let und = Graph::from_coo(&coo);
/// assert!(und.is_symmetric());
/// assert_eq!(und.children(1), und.parents(1));
/// ```
#[derive(Debug)]
pub struct Graph<V> {
    a: Arc<Csr<V>>,
    at: Arc<Csr<V>>,
    a_cache: Arc<FormatCache<V>>,
    at_cache: Arc<FormatCache<V>>,
}

impl<V> Clone for Graph<V> {
    fn clone(&self) -> Self {
        Self {
            a: Arc::clone(&self.a),
            at: Arc::clone(&self.at),
            a_cache: Arc::clone(&self.a_cache),
            at_cache: Arc::clone(&self.at_cache),
        }
    }
}

impl<V: Copy + Send + Sync + PartialEq> Graph<V> {
    /// Build from CSR of `A`. When `A` is symmetric (checked by
    /// [`Csr::is_symmetric`]'s read-only merge, which builds no transpose)
    /// both orientations share its storage; otherwise `Aᵀ` is computed, so
    /// a directed graph pays the merge up to its first mismatch plus the
    /// transpose.
    #[must_use]
    pub fn from_csr(a: Csr<V>) -> Self {
        let a = Arc::new(a);
        let a_cache = Arc::new(FormatCache::default());
        let (at, at_cache) = if a.is_symmetric() {
            (Arc::clone(&a), Arc::clone(&a_cache))
        } else {
            (Arc::new(a.transpose()), Arc::new(FormatCache::default()))
        };
        Self {
            a,
            at,
            a_cache,
            at_cache,
        }
    }

    /// Build from a cleaned COO (see [`Coo::clean_undirected`]).
    #[must_use]
    pub fn from_coo(coo: &Coo<V>) -> Self {
        Self::from_csr(Csr::from_coo(coo))
    }

    /// CSR of `A`: row `u` lists children (out-neighbors) of `u`.
    #[inline]
    #[must_use]
    pub fn csr(&self) -> &Csr<V> {
        &self.a
    }

    /// CSR of `Aᵀ`: row `v` lists parents (in-neighbors) of `v`.
    #[inline]
    #[must_use]
    pub fn csr_t(&self) -> &Csr<V> {
        &self.at
    }

    /// Number of vertices.
    #[must_use]
    pub fn n_vertices(&self) -> usize {
        self.a.n_rows()
    }

    /// Number of stored directed edges (2× the undirected edge count).
    #[must_use]
    pub fn n_edges(&self) -> usize {
        self.a.nnz()
    }

    /// Average out-degree — `d` in the Table 1 cost model.
    #[must_use]
    pub fn avg_degree(&self) -> f64 {
        self.a.avg_degree()
    }

    /// Whether the two orientations share storage (symmetric graph).
    #[must_use]
    pub fn is_symmetric(&self) -> bool {
        Arc::ptr_eq(&self.a, &self.at)
    }

    /// Out-neighbors of `u`.
    #[inline]
    #[must_use]
    pub fn children(&self, u: VertexId) -> &[VertexId] {
        self.a.row(u as usize)
    }

    /// In-neighbors of `v`.
    #[inline]
    #[must_use]
    pub fn parents(&self, v: VertexId) -> &[VertexId] {
        self.at.row(v as usize)
    }

    fn side(&self, transposed: bool) -> (&Arc<Csr<V>>, &FormatCache<V>) {
        if transposed {
            (&self.at, &self.at_cache)
        } else {
            (&self.a, &self.a_cache)
        }
    }

    /// One orientation of the graph in the requested storage format:
    /// `transposed == false` is `A` (children / row-based over `A`),
    /// `transposed == true` is `Aᵀ`. Alternate formats are built lazily on
    /// first request and cached for the graph's lifetime, so an iterative
    /// algorithm pays each conversion at most once. A bitmap request whose
    /// tiling plan is infeasible ([`BitmapPlan::feasible`]) degrades to
    /// the resident CSR.
    #[must_use]
    pub fn store(&self, transposed: bool, format: StorageFormat) -> StoreRef<'_, V> {
        let (csr, cache) = self.side(transposed);
        match format {
            StorageFormat::Csr => StoreRef::Csr(csr),
            StorageFormat::Bitmap => {
                let plan = self.bitmap_plan(transposed);
                match cache
                    .bitmap
                    .get_or_init(|| BitmapStore::from_plan(Arc::clone(csr), plan).map(Arc::new))
                {
                    Some(b) => StoreRef::Bitmap(b),
                    None => StoreRef::Csr(csr),
                }
            }
            StorageFormat::Dcsr => {
                StoreRef::Dcsr(cache.dcsr.get_or_init(|| Arc::new(Dcsr::from_csr(csr))))
            }
        }
    }

    /// The cached tiled-bitmap allocation plan for one orientation — the
    /// feasibility verdict and byte cost of a bitmap build (computed once
    /// per orientation, O(n_rows), without building the bitmap).
    #[must_use]
    pub fn bitmap_plan(&self, transposed: bool) -> &BitmapPlan {
        let (csr, cache) = self.side(transposed);
        cache.bitmap_plan.get_or_init(|| BitmapPlan::from_csr(csr))
    }
}

impl<V: Copy + Send + Sync + PartialEq> From<Csr<V>> for Graph<V> {
    fn from(a: Csr<V>) -> Self {
        Self::from_csr(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn directed_graph() -> Graph<bool> {
        // 0->1, 0->2, 1->2, 2->3, 3->0
        let mut coo = Coo::new(4, 4);
        for &(r, c) in &[(0u32, 1u32), (0, 2), (1, 2), (2, 3), (3, 0)] {
            coo.push(r, c, true);
        }
        Graph::from_coo(&coo)
    }

    #[test]
    fn children_and_parents() {
        let g = directed_graph();
        assert_eq!(g.children(0), &[1, 2]);
        assert_eq!(g.parents(2), &[0, 1]);
        assert_eq!(g.parents(0), &[3]);
        assert_eq!(g.n_vertices(), 4);
        assert_eq!(g.n_edges(), 5);
    }

    #[test]
    fn directed_graph_has_two_orientations() {
        let g = directed_graph();
        assert!(!g.is_symmetric());
    }

    #[test]
    fn undirected_graph_shares_storage() {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, true);
        coo.push(1, 2, true);
        coo.clean_undirected();
        let g = Graph::from_coo(&coo);
        assert!(g.is_symmetric());
        assert_eq!(g.children(1), g.parents(1));
        assert_eq!(g.n_edges(), 4);

        // A valued symmetric CSR shares too, and serves the right parents.
        let mut coo = Coo::new(3, 3);
        coo.push(0, 2, 1.0f32);
        coo.push(1, 2, 1.0);
        coo.clean_undirected();
        let g = Graph::from_csr(Csr::from_coo(&coo));
        assert!(g.is_symmetric());
        assert_eq!(g.parents(2), &[0, 1]);
    }

    #[test]
    fn store_serves_and_caches_every_format() {
        let g = directed_graph();
        for transposed in [false, true] {
            let oracle = if transposed { g.csr_t() } else { g.csr() };
            for format in StorageFormat::all() {
                let store = g.store(transposed, format);
                let rows: Vec<Vec<u32>> = (0..4)
                    .map(|i| match &store {
                        StoreRef::Csr(m) => m.row(i).to_vec(),
                        StoreRef::Bitmap(m) => m.as_csr().row(i).to_vec(),
                        StoreRef::Dcsr(m) => {
                            use crate::storage::RowAccess;
                            RowAccess::<bool>::row(*m, i).to_vec()
                        }
                    })
                    .collect();
                let expect: Vec<Vec<u32>> = (0..4).map(|i| oracle.row(i).to_vec()).collect();
                assert_eq!(rows, expect, "{format} transposed={transposed}");
            }
        }
        // Cached stores are shared across clones (conversion happens once).
        let c = g.clone();
        assert_eq!(
            dcsr_addr(g.store(false, StorageFormat::Dcsr)),
            dcsr_addr(c.store(false, StorageFormat::Dcsr)),
            "clone shares the format cache"
        );
    }

    /// Address of a served DCSR store (`None` when another format was
    /// served) — lets cache-sharing tests compare identity without a
    /// panicking match arm.
    fn dcsr_addr(s: StoreRef<'_, bool>) -> Option<*const Dcsr<bool>> {
        match s {
            StoreRef::Dcsr(x) => Some(std::ptr::from_ref(x)),
            StoreRef::Csr(_) | StoreRef::Bitmap(_) => None,
        }
    }

    #[test]
    fn symmetric_graph_shares_format_cache() {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, true);
        coo.clean_undirected();
        let g = Graph::from_coo(&coo);
        assert!(g.is_symmetric());
        let a = dcsr_addr(g.store(false, StorageFormat::Dcsr));
        let b = dcsr_addr(g.store(true, StorageFormat::Dcsr));
        assert!(a.is_some(), "Dcsr request serves a Dcsr store");
        assert_eq!(a, b, "one conversion serves both orientations");
    }
}
