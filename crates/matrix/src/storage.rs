//! Multi-format sparse matrix storage: CSR, bitmap, and hypersparse DCSR
//! behind one row-access abstraction.
//!
//! The paper's push/pull switch is a *data-structure* decision on the
//! vector side (sparse list ↔ dense array, §6.3); SuiteSparse:GraphBLAS
//! and GraphBLAST extend the same decision to the *matrix* side by keeping
//! several storage formats and picking per operation. This crate does not:
//! every `graphblas_core` kernel reads the [`Csr`] of `A` or `Aᵀ` and
//! takes it as that concrete type. The bitmap and DCSR stores below remain
//! only because the benchmark times their builds
//! (`matrix.bitmap_build_ms`, `matrix.dcsr_build_ms`) through
//! [`crate::Graph::store`]; no core call reads them. The three formats:
//!
//! * [`Csr`] — the baseline: dense `row_ptr` over all rows. O(1) row
//!   lookup, `O(n)` pointer memory, every full-matrix scan walks all `n`
//!   rows even when almost all are empty.
//! * [`BitmapStore`] — CSR payload plus a **tiled** row×col membership
//!   bitmap: rows are partitioned into [`TILE_ROWS`]-row tiles and each
//!   occupied tile allocates only the column word window its edges span,
//!   so memory scales with occupancy ([`BitmapPlan`]) instead of the dense
//!   `n_rows·n_cols` grid. O(1) `has(i, j)` edge probes; feasibility is
//!   the *allocated* bit count against
//!   [`BitmapStore::MAX_BITS`], not a global shape cliff.
//! * [`Dcsr`] — hypersparse doubly-compressed CSR: only non-empty rows
//!   carry pointers, so full scans touch `O(nnz_rows)` rows, not `O(n)` —
//!   the k-source batched-frontier regime where most of a scale-free
//!   graph's embedding is empty rows.
//!
//! Every format implements [`RowAccess`] (`row`, `row_values`, `degree`,
//! dims), so the stores can be read — and tested against their CSR —
//! through one surface.

use crate::{Coo, Csr, VertexId};

/// The storage backends a [`crate::Graph`] can serve an orientation in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum StorageFormat {
    /// Compressed sparse row — the baseline every graph is born in.
    #[default]
    Csr,
    /// CSR payload + dense membership bitmap ([`BitmapStore`]).
    Bitmap,
    /// Doubly-compressed (hypersparse) CSR ([`Dcsr`]).
    Dcsr,
}

impl StorageFormat {
    /// Stable lowercase name for reports and JSON artifacts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StorageFormat::Csr => "csr",
            StorageFormat::Bitmap => "bitmap",
            StorageFormat::Dcsr => "dcsr",
        }
    }

    /// All formats, in a fixed order for reports.
    #[must_use]
    pub fn all() -> [StorageFormat; 3] {
        [
            StorageFormat::Csr,
            StorageFormat::Bitmap,
            StorageFormat::Dcsr,
        ]
    }
}

impl std::fmt::Display for StorageFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The row-read surface every storage backend implements. The
/// `graphblas_core` kernels do not use it — they read [`Csr`] directly —
/// so it serves the stores' own tests and callers that read a
/// [`crate::StoreRef`] generically.
pub trait RowAccess<V>: Sync {
    /// Number of rows.
    fn n_rows(&self) -> usize;
    /// Number of columns.
    fn n_cols(&self) -> usize;
    /// Number of stored entries.
    fn nnz(&self) -> usize;
    /// Stored entries in row `i`.
    fn degree(&self, i: usize) -> usize;
    /// Column indices of row `i`, ascending.
    fn row(&self, i: usize) -> &[VertexId];
    /// Values of row `i`, aligned with [`RowAccess::row`].
    fn row_values(&self, i: usize) -> &[V];
    /// Average entries per row — the `d` of the Table 1 cost model.
    fn avg_degree(&self) -> f64 {
        if self.n_rows() == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.n_rows() as f64
        }
    }
}

impl<V: Copy + Send + Sync> RowAccess<V> for Csr<V> {
    fn n_rows(&self) -> usize {
        Csr::n_rows(self)
    }
    fn n_cols(&self) -> usize {
        Csr::n_cols(self)
    }
    fn nnz(&self) -> usize {
        Csr::nnz(self)
    }
    fn degree(&self, i: usize) -> usize {
        Csr::degree(self, i)
    }
    fn row(&self, i: usize) -> &[VertexId] {
        Csr::row(self, i)
    }
    fn row_values(&self, i: usize) -> &[V] {
        Csr::row_values(self, i)
    }
}

// ---------------------------------------------------------------------------
// Tiled bitmap store
// ---------------------------------------------------------------------------

/// Rows per bitmap tile: the tiled store partitions rows into stripes of
/// this height and sizes each stripe's column window independently.
pub const TILE_ROWS: usize = 64;

/// The allocation plan of a tiled bitmap over one CSR: per-tile column
/// word windows and the total word count they cost, computed in one O(n)
/// pass *without* building anything. [`Graph`](crate::Graph) caches one
/// plan per orientation, so the feasibility verdict
/// ([`BitmapPlan::feasible`]) and the byte charge ([`BitmapPlan::bytes`])
/// are each computed at most once per graph — not once per operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitmapPlan {
    /// `(start_word, width_words)` per [`TILE_ROWS`]-row tile; width 0
    /// marks a tile with no stored entries (nothing allocated).
    windows: Vec<(u32, u32)>,
    /// Arena `u64` words a build would allocate (sum of
    /// `rows_in_tile · width` over occupied tiles).
    words: u64,
    /// Number of tiles with at least one stored entry.
    occupied: usize,
}

impl BitmapPlan {
    /// Plan the tiled bitmap for a CSR: per tile, the window spans from
    /// the smallest to the largest column word any of its rows stores —
    /// O(1) per row (CSR rows are sorted, so only the endpoints matter).
    #[must_use]
    pub fn from_csr<V: Copy + Send + Sync>(csr: &Csr<V>) -> Self {
        let n_tiles = csr.n_rows().div_ceil(TILE_ROWS);
        let mut windows = vec![(0u32, 0u32); n_tiles];
        let mut words = 0u64;
        let mut occupied = 0usize;
        for (t, win) in windows.iter_mut().enumerate() {
            let r0 = t * TILE_ROWS;
            let r1 = (r0 + TILE_ROWS).min(csr.n_rows());
            let mut lo = u32::MAX;
            let mut hi = 0u32;
            let mut any = false;
            for i in r0..r1 {
                let cols = csr.row(i);
                if let (Some(&first), Some(&last)) = (cols.first(), cols.last()) {
                    any = true;
                    lo = lo.min(first / 64);
                    hi = hi.max(last / 64);
                }
            }
            if any {
                let width = hi - lo + 1;
                *win = (lo, width);
                words += (r1 - r0) as u64 * u64::from(width);
                occupied += 1;
            }
        }
        Self {
            windows,
            words,
            occupied,
        }
    }

    /// Whether the planned allocation stays under
    /// [`BitmapStore::MAX_BITS`] — the per-occupancy feasibility rule that
    /// replaced the old dense `n_rows·n_cols ≤ MAX_BITS` shape cliff.
    #[must_use]
    pub fn feasible(&self) -> bool {
        self.words
            .checked_mul(64)
            .is_some_and(|bits| bits <= BitmapStore::<bool>::MAX_BITS as u64)
    }

    /// Arena `u64` words a build allocates.
    #[must_use]
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Bytes a build allocates (the tiled membership arena; the CSR
    /// payload is shared, not copied) — what the execution layer charges
    /// against a bytes budget before converting.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.words * 8
    }

    /// Number of tiles holding at least one stored entry.
    #[must_use]
    pub fn occupied_tiles(&self) -> usize {
        self.occupied
    }

    /// Total number of tiles (`⌈n_rows / TILE_ROWS⌉`).
    #[must_use]
    pub fn tiles(&self) -> usize {
        self.windows.len()
    }
}

/// Where one tile's rows live in the arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TileLoc {
    /// First column word the window covers.
    start: u32,
    /// Window width in words (0 = tile holds no entries, nothing stored).
    width: u32,
    /// Arena offset of the tile's first row.
    offset: usize,
}

/// CSR payload plus a **tiled** membership bitmap.
///
/// The bitmap answers `has(i, j)` in O(1) — the probe dense algebra
/// (masking by matrix pattern, triangle-style membership checks) wants
/// when `nnz/n` is high — while the CSR-ordered payload keeps the row
/// slices the matvec kernels iterate, so the kernels run unchanged.
///
/// Rows are partitioned into [`TILE_ROWS`]-row tiles. Each tile with at
/// least one stored entry allocates a `rows × width` word grid covering
/// only the column word window `[start, start + width)` its edges span
/// (banded and clustered graphs allocate narrow windows; empty tiles
/// allocate nothing). Every row still starts on a word boundary inside
/// its tile ([`BitmapStore::row_word_span`]). Tail bits beyond `n_cols`,
/// and all bits outside a row's window, are zero.
///
/// Memory: `nnz` payload + 64·[`BitmapPlan::words`] bits; construction
/// refuses plans whose *allocated* bits exceed [`BitmapStore::MAX_BITS`]
/// (a forced bitmap whose plan does not fit is served as CSR).
#[derive(Clone, Debug, PartialEq)]
pub struct BitmapStore<V> {
    // Shared, not copied: `Graph`'s format cache already holds the same
    // CSR behind an `Arc`, so the bitmap store costs only the bitmap.
    csr: std::sync::Arc<Csr<V>>,
    arena: Vec<u64>,
    tiles: Vec<TileLoc>,
}

impl<V: Copy + Send + Sync> BitmapStore<V> {
    /// Bitmap ceiling on *allocated* bits (16 GiB of arena). Because tiles
    /// only pay for the column windows they occupy, every banded or
    /// moderately-sized dense graph fits; what this refuses is a huge
    /// scale-free graph whose every tile spans the full column range.
    pub const MAX_BITS: usize = 1 << 37;

    /// Build from a shared CSR and a precomputed plan (payload is shared,
    /// never copied), or `None` when the plan is infeasible. Callers with
    /// a [`Graph`](crate::Graph) get the cached plan for free; others can
    /// compute one with [`BitmapPlan::from_csr`].
    #[must_use]
    pub fn from_plan(csr: std::sync::Arc<Csr<V>>, plan: &BitmapPlan) -> Option<Self> {
        if !plan.feasible() {
            return None;
        }
        debug_assert_eq!(plan.tiles(), csr.n_rows().div_ceil(TILE_ROWS));
        let mut tiles = Vec::with_capacity(plan.windows.len());
        let mut offset = 0usize;
        for (t, &(start, width)) in plan.windows.iter().enumerate() {
            tiles.push(TileLoc {
                start,
                width,
                offset,
            });
            if width > 0 {
                let r0 = t * TILE_ROWS;
                let r1 = (r0 + TILE_ROWS).min(csr.n_rows());
                offset += (r1 - r0) * width as usize;
            }
        }
        let mut arena = vec![0u64; offset];
        for (t, loc) in tiles.iter().enumerate() {
            if loc.width == 0 {
                continue;
            }
            let r0 = t * TILE_ROWS;
            let r1 = (r0 + TILE_ROWS).min(csr.n_rows());
            for i in r0..r1 {
                let base = loc.offset + (i - r0) * loc.width as usize;
                for &j in csr.row(i) {
                    let w = (j / 64 - loc.start) as usize;
                    arena[base + w] |= 1u64 << (j % 64);
                }
            }
        }
        Some(Self { csr, arena, tiles })
    }

    /// Build from a shared CSR (payload is shared, never copied), planning
    /// the tiling on the fly, or `None` when the allocation would exceed
    /// [`BitmapStore::MAX_BITS`].
    #[must_use]
    pub fn try_from_shared(csr: std::sync::Arc<Csr<V>>) -> Option<Self> {
        let plan = BitmapPlan::from_csr(&csr);
        Self::from_plan(csr, &plan)
    }

    /// Build from a borrowed CSR (clones the payload into a fresh `Arc`),
    /// or `None` when the bitmap would not fit. Callers that already hold
    /// an `Arc` should use [`BitmapStore::try_from_shared`].
    #[must_use]
    pub fn try_from_csr(csr: &Csr<V>) -> Option<Self> {
        Self::try_from_shared(std::sync::Arc::new(csr.clone()))
    }

    /// O(1) membership: is `(i, j)` a stored entry?
    #[inline]
    #[must_use]
    pub fn has(&self, i: usize, j: usize) -> bool {
        debug_assert!(j < self.csr.n_cols());
        let loc = self.tiles[i / TILE_ROWS];
        let w = j / 64;
        if loc.width == 0 || w < loc.start as usize || w >= (loc.start + loc.width) as usize {
            return false;
        }
        let base = loc.offset + (i % TILE_ROWS) * loc.width as usize;
        self.arena[base + (w - loc.start as usize)] & (1u64 << (j % 64)) != 0
    }

    /// Total arena words allocated across all tiles.
    #[inline]
    #[must_use]
    pub fn arena_words(&self) -> usize {
        self.arena.len()
    }

    /// Row `i`'s membership window as `(start_word, words)`: bit `j % 64`
    /// of `words[j/64 - start_word]` is set iff `(i, j)` is stored, and
    /// every stored column falls inside the window. `None` when row `i`'s
    /// tile holds no entries at all (nothing was allocated for it).
    #[inline]
    #[must_use]
    pub fn row_word_span(&self, i: usize) -> Option<(usize, &[u64])> {
        let loc = self.tiles[i / TILE_ROWS];
        if loc.width == 0 {
            return None;
        }
        let base = loc.offset + (i % TILE_ROWS) * loc.width as usize;
        Some((
            loc.start as usize,
            &self.arena[base..base + loc.width as usize],
        ))
    }

    /// Value at `(i, j)`: an O(1) bitmap probe, then a binary search of
    /// the (short) row only when the entry exists.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> Option<V> {
        if !self.has(i, j) {
            return None;
        }
        // Bitmap and payload are built from the same CSR, so the search
        // succeeds; an impossible disagreement reads as absent, not a panic.
        let pos = self.csr.row(i).binary_search(&(j as VertexId)).ok()?;
        Some(self.csr.row_values(i)[pos])
    }

    /// The CSR payload this store wraps.
    #[must_use]
    pub fn as_csr(&self) -> &Csr<V> {
        &self.csr
    }

    /// Convert back to plain CSR (drops the bitmap).
    #[must_use]
    pub fn to_csr(&self) -> Csr<V> {
        (*self.csr).clone()
    }
}

impl<V: Copy + Send + Sync> RowAccess<V> for BitmapStore<V> {
    fn n_rows(&self) -> usize {
        self.csr.n_rows()
    }
    fn n_cols(&self) -> usize {
        self.csr.n_cols()
    }
    fn nnz(&self) -> usize {
        self.csr.nnz()
    }
    fn degree(&self, i: usize) -> usize {
        self.csr.degree(i)
    }
    fn row(&self, i: usize) -> &[VertexId] {
        self.csr.row(i)
    }
    fn row_values(&self, i: usize) -> &[V] {
        self.csr.row_values(i)
    }
}

// ---------------------------------------------------------------------------
// Hypersparse DCSR
// ---------------------------------------------------------------------------

/// Doubly-compressed sparse row: pointers exist only for non-empty rows.
///
/// `rows[p]` names the `p`-th non-empty row; `row_ptr[p]..row_ptr[p+1]`
/// is its slice of `col_ind`/`values`. Looking up an arbitrary row costs
/// a binary search over the non-empty list — O(log nnz_rows) instead of
/// CSR's O(1) — but a full-matrix scan touches `nnz_rows` rows instead of
/// `n`, which is the asymptotic win when the matrix is hypersparse
/// (a k-source batch embedded in a large vertex space, a frontier slice
/// of a scale-free graph).
#[derive(Clone, Debug, PartialEq)]
pub struct Dcsr<V> {
    n_rows: usize,
    n_cols: usize,
    rows: Vec<VertexId>,
    row_ptr: Vec<usize>,
    col_ind: Vec<VertexId>,
    values: Vec<V>,
}

impl<V: Copy + Send + Sync> Dcsr<V> {
    /// Compress a CSR: one pass over `row_ptr`, dropping empty rows.
    #[must_use]
    pub fn from_csr(csr: &Csr<V>) -> Self {
        let mut rows = Vec::new();
        let mut row_ptr = vec![0usize];
        let mut total = 0usize;
        for i in 0..csr.n_rows() {
            if csr.degree(i) > 0 {
                rows.push(i as VertexId);
                total += csr.degree(i);
                row_ptr.push(total);
            }
        }
        Self {
            n_rows: csr.n_rows(),
            n_cols: csr.n_cols(),
            rows,
            row_ptr,
            col_ind: csr.col_ind().to_vec(),
            values: csr.values().to_vec(),
        }
    }

    /// Expand back to plain CSR.
    #[must_use]
    pub fn to_csr(&self) -> Csr<V> {
        let mut row_ptr = vec![0usize; self.n_rows + 1];
        for (p, &i) in self.rows.iter().enumerate() {
            row_ptr[i as usize + 1] = self.row_ptr[p + 1] - self.row_ptr[p];
        }
        for i in 0..self.n_rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        Csr::from_parts(
            self.n_rows,
            self.n_cols,
            row_ptr,
            self.col_ind.clone(),
            self.values.clone(),
        )
    }

    /// Number of non-empty rows.
    #[must_use]
    pub fn n_nonempty(&self) -> usize {
        self.rows.len()
    }

    /// Fraction of rows that are non-empty (`nnz_rows / n_rows`).
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        if self.n_rows == 0 {
            0.0
        } else {
            self.rows.len() as f64 / self.n_rows as f64
        }
    }

    /// Position of row `i` in the compressed list, when non-empty.
    #[inline]
    fn find(&self, i: usize) -> Option<usize> {
        self.rows.binary_search(&(i as VertexId)).ok()
    }

    /// Column indices of the `p`-th *non-empty* row (positional access —
    /// no binary search).
    #[inline]
    #[must_use]
    pub fn compressed_row(&self, p: usize) -> &[VertexId] {
        &self.col_ind[self.row_ptr[p]..self.row_ptr[p + 1]]
    }

    /// Values of the `p`-th non-empty row.
    #[inline]
    #[must_use]
    pub fn compressed_row_values(&self, p: usize) -> &[V] {
        &self.values[self.row_ptr[p]..self.row_ptr[p + 1]]
    }
}

impl<V: Copy + Send + Sync> RowAccess<V> for Dcsr<V> {
    fn n_rows(&self) -> usize {
        self.n_rows
    }
    fn n_cols(&self) -> usize {
        self.n_cols
    }
    fn nnz(&self) -> usize {
        self.col_ind.len()
    }
    fn degree(&self, i: usize) -> usize {
        self.find(i)
            .map_or(0, |p| self.row_ptr[p + 1] - self.row_ptr[p])
    }
    fn row(&self, i: usize) -> &[VertexId] {
        self.find(i).map_or(&[], |p| self.compressed_row(p))
    }
    fn row_values(&self, i: usize) -> &[V] {
        self.find(i).map_or(&[], |p| self.compressed_row_values(p))
    }
}

// ---------------------------------------------------------------------------
// Storage enum
// ---------------------------------------------------------------------------

/// A matrix in one of the three storage formats, with cheap conversions.
///
/// This is the owned object; [`crate::Graph`] caches one per requested
/// format per orientation so iterative algorithms convert at most once.
#[derive(Clone, Debug, PartialEq)]
pub enum Storage<V> {
    /// Plain CSR.
    Csr(Csr<V>),
    /// CSR payload + membership bitmap.
    Bitmap(BitmapStore<V>),
    /// Hypersparse doubly-compressed rows.
    Dcsr(Dcsr<V>),
}

impl<V: Copy + Send + Sync> Storage<V> {
    /// Wrap a CSR in the requested format. A bitmap request whose plan is
    /// infeasible ([`BitmapPlan::feasible`]) degrades to [`Storage::Csr`]
    /// — the same fallback [`crate::Graph::store`] applies, so requested
    /// and effective formats only diverge on infeasible bitmaps.
    #[must_use]
    pub fn from_csr(csr: Csr<V>, format: StorageFormat) -> Self {
        match format {
            StorageFormat::Csr => Storage::Csr(csr),
            StorageFormat::Bitmap => {
                let shared = std::sync::Arc::new(csr);
                match BitmapStore::try_from_shared(std::sync::Arc::clone(&shared)) {
                    Some(b) => Storage::Bitmap(b),
                    None => Storage::Csr(
                        std::sync::Arc::try_unwrap(shared).unwrap_or_else(|a| (*a).clone()),
                    ),
                }
            }
            StorageFormat::Dcsr => Storage::Dcsr(Dcsr::from_csr(&csr)),
        }
    }

    /// Build straight from a deduplicated COO.
    #[must_use]
    pub fn from_coo(coo: &Coo<V>, format: StorageFormat) -> Self {
        Self::from_csr(Csr::from_coo(coo), format)
    }

    /// The format this storage currently holds.
    #[must_use]
    pub fn format(&self) -> StorageFormat {
        match self {
            Storage::Csr(_) => StorageFormat::Csr,
            Storage::Bitmap(_) => StorageFormat::Bitmap,
            Storage::Dcsr(_) => StorageFormat::Dcsr,
        }
    }

    /// Convert to the requested format (no-op when already there; bitmap
    /// degrades to CSR when infeasible, as in [`Storage::from_csr`]).
    #[must_use]
    pub fn convert(self, format: StorageFormat) -> Self {
        if self.format() == format {
            return self;
        }
        Storage::from_csr(self.into_csr(), format)
    }

    /// Unwrap to plain CSR, converting if needed.
    #[must_use]
    pub fn into_csr(self) -> Csr<V> {
        match self {
            Storage::Csr(c) => c,
            Storage::Bitmap(b) => b.to_csr(),
            Storage::Dcsr(d) => d.to_csr(),
        }
    }
}

impl<V: Copy + Send + Sync> RowAccess<V> for Storage<V> {
    fn n_rows(&self) -> usize {
        match self {
            Storage::Csr(c) => RowAccess::<V>::n_rows(c),
            Storage::Bitmap(b) => b.n_rows(),
            Storage::Dcsr(d) => RowAccess::<V>::n_rows(d),
        }
    }
    fn n_cols(&self) -> usize {
        match self {
            Storage::Csr(c) => RowAccess::<V>::n_cols(c),
            Storage::Bitmap(b) => b.n_cols(),
            Storage::Dcsr(d) => RowAccess::<V>::n_cols(d),
        }
    }
    fn nnz(&self) -> usize {
        match self {
            Storage::Csr(c) => RowAccess::<V>::nnz(c),
            Storage::Bitmap(b) => RowAccess::<V>::nnz(b),
            Storage::Dcsr(d) => RowAccess::<V>::nnz(d),
        }
    }
    fn degree(&self, i: usize) -> usize {
        match self {
            Storage::Csr(c) => RowAccess::<V>::degree(c, i),
            Storage::Bitmap(b) => RowAccess::<V>::degree(b, i),
            Storage::Dcsr(d) => RowAccess::<V>::degree(d, i),
        }
    }
    fn row(&self, i: usize) -> &[VertexId] {
        match self {
            Storage::Csr(c) => RowAccess::<V>::row(c, i),
            Storage::Bitmap(b) => RowAccess::<V>::row(b, i),
            Storage::Dcsr(d) => RowAccess::<V>::row(d, i),
        }
    }
    fn row_values(&self, i: usize) -> &[V] {
        match self {
            Storage::Csr(c) => RowAccess::<V>::row_values(c, i),
            Storage::Bitmap(b) => RowAccess::<V>::row_values(b, i),
            Storage::Dcsr(d) => RowAccess::<V>::row_values(d, i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 rows, rows 1 and 3 empty: 0→{1,2}, 2→{0,3}.
    fn gappy_csr() -> Csr<f32> {
        let mut coo = Coo::new(4, 4);
        for &(r, c) in &[(0u32, 1u32), (0, 2), (2, 0), (2, 3)] {
            coo.push(r, c, (r * 10 + c) as f32);
        }
        Csr::from_coo(&coo)
    }

    fn same_rows<V: Copy + Send + Sync + PartialEq + std::fmt::Debug>(
        a: &dyn RowAccess<V>,
        b: &dyn RowAccess<V>,
    ) {
        assert_eq!(a.n_rows(), b.n_rows());
        assert_eq!(a.n_cols(), b.n_cols());
        assert_eq!(a.nnz(), b.nnz());
        for i in 0..a.n_rows() {
            assert_eq!(a.row(i), b.row(i), "row {i}");
            assert_eq!(a.row_values(i), b.row_values(i), "row values {i}");
            assert_eq!(a.degree(i), b.degree(i), "degree {i}");
        }
    }

    #[test]
    fn dcsr_roundtrip_preserves_everything() {
        let csr = gappy_csr();
        let d = Dcsr::from_csr(&csr);
        assert_eq!(d.n_nonempty(), 2);
        assert!((d.occupancy() - 0.5).abs() < 1e-12);
        same_rows(&csr, &d);
        assert_eq!(d.to_csr(), csr);
    }

    #[test]
    fn dcsr_empty_rows_read_empty() {
        let d = Dcsr::from_csr(&gappy_csr());
        assert_eq!(RowAccess::<f32>::row(&d, 1), &[] as &[u32]);
        assert_eq!(RowAccess::<f32>::degree(&d, 3), 0);
        assert_eq!(d.compressed_row(1), &[0, 3]);
    }

    #[test]
    fn bitmap_membership_and_values() {
        let csr = gappy_csr();
        let b = BitmapStore::try_from_csr(&csr).expect("4×4 fits");
        same_rows(&csr, &b);
        assert!(b.has(0, 1));
        assert!(!b.has(1, 0));
        assert_eq!(b.get(2, 3), Some(23.0));
        assert_eq!(b.get(3, 3), None);
        assert_eq!(b.to_csr(), csr);
    }

    /// One 64-row tile whose single stored row spans the full `u32` column
    /// range: the window is `2^26` words wide, the tile allocates
    /// `64 · 2^26` words = `2^38` bits — over the `2^37` budget.
    fn infeasible_wide_csr() -> Csr<bool> {
        Csr::<bool>::from_parts(
            64,
            1usize << 32,
            {
                let mut ptr = vec![0usize; 65];
                for p in ptr.iter_mut().skip(1) {
                    *p = 2;
                }
                ptr
            },
            vec![0, u32::MAX],
            vec![true, true],
        )
    }

    #[test]
    fn bitmap_plan_gates_on_allocated_bits_not_shape() {
        // Occupancy-based: a huge diagonal graph plans one narrow window
        // per tile and stays feasible even though n² is astronomical.
        let n = 1 << 20;
        let mut coo = Coo::new(n, n);
        for i in (0..n).step_by(TILE_ROWS) {
            coo.push(i as VertexId, i as VertexId, true);
        }
        let diag = Csr::from_coo(&coo);
        let plan = BitmapPlan::from_csr(&diag);
        assert!(plan.feasible());
        assert_eq!(plan.tiles(), n / TILE_ROWS);
        assert_eq!(plan.occupied_tiles(), n / TILE_ROWS);
        // Each occupied tile: 64 rows × 1-word window.
        assert_eq!(plan.words(), (n as u64 / TILE_ROWS as u64) * 64);
        assert_eq!(plan.bytes(), plan.words() * 8);

        // A single tile whose window spans the full u32 column range blows
        // the allocated-bit budget even with only one nonempty row.
        let wide = infeasible_wide_csr();
        let plan = BitmapPlan::from_csr(&wide);
        assert!(!plan.feasible());
        assert!(BitmapStore::try_from_csr(&wide).is_none());
    }

    #[test]
    fn bitmap_row_spans_are_windowed_and_tail_masked() {
        // 3 rows × 70 cols: the tile's window covers words 0..2, every row
        // starts word-aligned inside the tile.
        let mut coo = Coo::new(3, 70);
        for &(r, c) in &[(0u32, 0u32), (0, 63), (0, 64), (1, 69), (2, 1)] {
            coo.push(r, c, true);
        }
        let csr = Csr::from_coo(&coo);
        let b = BitmapStore::try_from_csr(&csr).expect("fits");
        assert_eq!(b.arena_words(), 6);
        assert_eq!(b.row_word_span(0), Some((0, &[(1u64 << 63) | 1, 1][..])));
        assert_eq!(b.row_word_span(1), Some((0, &[0, 1u64 << 5][..])));
        assert_eq!(b.row_word_span(2), Some((0, &[2, 0][..])));
        // Membership agrees with the word layout across the pad boundary.
        assert!(b.has(0, 63) && b.has(0, 64) && b.has(1, 69));
        assert!(!b.has(1, 63) && !b.has(2, 69));
    }

    #[test]
    fn bitmap_windows_start_past_word_zero() {
        // A tile whose edges all live in high column words: the window
        // starts at word 2 and bits below it are implicitly absent.
        let mut coo = Coo::new(2, 300);
        for &(r, c) in &[(0u32, 130u32), (0, 200), (1, 191)] {
            coo.push(r, c, true);
        }
        let csr = Csr::from_coo(&coo);
        let b = BitmapStore::try_from_csr(&csr).expect("fits");
        // Window words 2..=3 (cols 128..256): width 2, start 2.
        assert_eq!(b.arena_words(), 4);
        let (start, words) = b.row_word_span(0).expect("occupied tile");
        assert_eq!(start, 2);
        assert_eq!(words, &[(1u64 << (130 - 128)), 1u64 << (200 - 192)]);
        let (start, words) = b.row_word_span(1).expect("occupied tile");
        assert_eq!(start, 2);
        assert_eq!(words, &[1u64 << 63, 0]);
        assert!(b.has(0, 130) && b.has(0, 200) && b.has(1, 191));
        assert!(!b.has(0, 0) && !b.has(1, 64) && !b.has(0, 299));
        same_rows(&csr, &b);
    }

    #[test]
    fn bitmap_tiles_straddle_boundaries_and_skip_empty_tiles() {
        // Rows straddle two tiles (n = TILE_ROWS + 1) with the second tile
        // holding exactly one edge; the span surface stays exact.
        let n = TILE_ROWS + 1;
        let mut coo = Coo::new(n, n);
        coo.push(0, 3, true);
        coo.push((TILE_ROWS - 1) as VertexId, 0, true);
        coo.push(TILE_ROWS as VertexId, (n - 1) as VertexId, true);
        let csr = Csr::from_coo(&coo);
        let b = BitmapStore::try_from_csr(&csr).expect("fits");
        assert!(b.has(0, 3) && b.has(TILE_ROWS - 1, 0) && b.has(TILE_ROWS, n - 1));
        assert!(!b.has(1, 3) && !b.has(TILE_ROWS, 0));
        let (s0, w0) = b.row_word_span(0).expect("tile 0 occupied");
        assert_eq!((s0, w0), (0, &[8u64][..]));
        let (s1, w1) = b.row_word_span(TILE_ROWS).expect("tile 1 occupied");
        assert_eq!((s1, w1), (1, &[1u64][..]));
        same_rows(&csr, &b);

        // Middle tile empty: nothing allocated for it, spans return None.
        let n = 3 * TILE_ROWS;
        let mut coo = Coo::new(n, n);
        coo.push(1, 1, true);
        coo.push((2 * TILE_ROWS) as VertexId, 2, true);
        let csr = Csr::from_coo(&coo);
        let b = BitmapStore::try_from_csr(&csr).expect("fits");
        let plan = BitmapPlan::from_csr(&csr);
        assert_eq!(plan.tiles(), 3);
        assert_eq!(plan.occupied_tiles(), 2);
        assert!(b.row_word_span(TILE_ROWS).is_none());
        assert!(b.row_word_span(TILE_ROWS + 5).is_none());
        assert!(b.row_word_span(1).is_some());
        assert!(b.row_word_span(2 * TILE_ROWS).is_some());
        assert!(!b.has(TILE_ROWS, 1), "empty tile reads absent");
        same_rows(&csr, &b);
    }

    #[test]
    fn storage_conversion_cycle() {
        let csr = gappy_csr();
        let mut s = Storage::from_csr(csr.clone(), StorageFormat::Csr);
        for f in [
            StorageFormat::Bitmap,
            StorageFormat::Dcsr,
            StorageFormat::Csr,
            StorageFormat::Dcsr,
            StorageFormat::Bitmap,
        ] {
            s = s.convert(f);
            assert_eq!(s.format(), f);
            same_rows(&csr, &s);
        }
        assert_eq!(s.into_csr(), csr);
    }

    #[test]
    fn infeasible_bitmap_storage_falls_back_to_csr() {
        // A tile spanning the full u32 column range: bitmap cannot fit.
        let s = Storage::from_csr(infeasible_wide_csr(), StorageFormat::Bitmap);
        assert_eq!(s.format(), StorageFormat::Csr, "fallback to CSR");
    }

    #[test]
    fn format_names_are_stable() {
        assert_eq!(StorageFormat::Csr.name(), "csr");
        assert_eq!(StorageFormat::Bitmap.to_string(), "bitmap");
        assert_eq!(StorageFormat::all().len(), 3);
        assert_eq!(StorageFormat::default(), StorageFormat::Csr);
    }

    #[test]
    fn all_empty_matrix_is_fully_hypersparse() {
        let csr = Csr::<bool>::from_coo(&Coo::new(8, 8));
        let d = Dcsr::from_csr(&csr);
        assert_eq!(d.n_nonempty(), 0);
        assert_eq!(d.occupancy(), 0.0);
        assert_eq!(d.to_csr(), csr);
    }
}
