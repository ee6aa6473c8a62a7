//! Table 1's four matvec kernels behind the push-pull dispatcher.
//!
//! [`mxv`] is the public entry point (GrB_mxv) and the one way into the
//! kernels: it resolves the operand orientation from the descriptor's
//! transpose flag, picks row vs. column by the input vector's storage (or
//! [`Descriptor::force`]), and applies the mask inside the kernel. That
//! resolution is one function, which the fused pipeline and every row of a
//! batched call go through too. Each face reads the graph's CSR of `op(A)`
//! or of its transpose.
//!
//! | `mxv` call                       | paper name                | cost (Table 1)                  |
//! |----------------------------------|---------------------------|---------------------------------|
//! | pull (dense `v`), no mask        | row-based, no mask        | `O(dM)`                         |
//! | pull (dense `v`), mask           | row-based, mask (Alg. 2)  | `O(M/64 + d·nnz(m))`            |
//! | push (sparse `v`), no mask       | column-based, no mask     | `O(d·nnz(f)·log nnz(f))`        |
//! | push (sparse `v`), mask          | column-based, mask (Alg.3)| `O(d·nnz(f)·log nnz(f))`        |
//!
//! Figure 4 shows the paper's asymmetry: the mask prunes the row kernel's
//! rows but only filters the column kernel's merged output. This crate
//! closes that gap for structure-only semirings (BFS's
//! [`BoolStructure`](crate::ops::BoolStructure)): every product is the same
//! constant, so the column kernel becomes a **claim kernel**. Each
//! expanded edge tests the mask, a survivor is claimed in an atomic bit
//! set, and only the winners are sorted — the masked
//! product `q⟨¬v⟩ = Aᵀq` costs the frontier's edges plus its discoveries,
//! not a sort of every edge. Valued semirings keep Algorithm 3's merge —
//! concatenate, radix sort, segmented reduce (§6.2) — and its post-filter.

use crate::descriptor::{Descriptor, Direction};
use crate::error::{GrbError, GrbResult};
use crate::mask::Mask;
use crate::ops::{Monoid, Scalar, Semiring};
use crate::vector::{DenseVector, SparseVector, Vector};
use graphblas_matrix::{Csr, Graph};
use graphblas_primitives::counters::AccessCounters;
use graphblas_primitives::{gather, pool, scan, segreduce, sort, AtomicBitVec};
use rayon::prelude::*;
use std::borrow::Cow;
use std::ops::Range;

/// Row grain for parallel row-kernel loops (shared with the fused pull and
/// the lane kernel's pull sweep).
pub(crate) const ROW_GRAIN: usize = 512;

// ---------------------------------------------------------------------------
// Row-based (pull) kernels
// ---------------------------------------------------------------------------

/// Row-based matvec without a mask: `w(i) = ⊕_j op(i,j) ⊗ v(j)` for every
/// row. Touches every stored entry regardless of input sparsity — the
/// `O(dM)` row of Table 1.
pub(crate) fn row_mxv<A, X, Y, S>(
    s: S,
    op: &Csr<A>,
    v: &DenseVector<X>,
    counters: Option<&AccessCounters>,
) -> DenseVector<Y>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
{
    assert_eq!(op.n_cols(), v.dim(), "operand columns must match input dim");
    let add = s.add_monoid();
    let identity = add.identity();
    if !crate::exec::charge_alloc(counters, output_bytes::<Y>(op.n_rows())) {
        return DenseVector::from_values(Vec::new(), identity);
    }
    let mut vals = vec![identity; op.n_rows()];
    let out = SendPtr(vals.as_mut_ptr());
    par_rows(PullRows::All(op.n_rows()), counters, |i, tally| {
        let y = reduce_row(s, op, v, i, identity, false, tally);
        // SAFETY: the visited rows are unique and in bounds, and chunks
        // partition them, so writes are disjoint.
        unsafe { *out.get().add(i) = y };
    });
    DenseVector::from_values(vals, identity)
}

/// Row-based **masked** matvec — Algorithm 2. Only rows the mask allows are
/// computed; with `early_exit`, a row's reduction stops at the monoid's
/// annihilator (the short-circuit OR of line 8).
///
/// The allowed rows come from the mask's bit words, 64 rows per word, cut
/// into size-derived chunks by their count, so the kernel costs
/// `O(M/64 + d·nnz(m))` and never tests a blocked row; an attached active
/// list is walked instead (`O(d·nnz(m))`). Either way the `mask` counter
/// is charged one access per allowed row.
pub(crate) fn row_masked_mxv<A, X, Y, S>(
    s: S,
    op: &Csr<A>,
    v: &DenseVector<X>,
    mask: &Mask<'_>,
    early_exit: bool,
    counters: Option<&AccessCounters>,
) -> DenseVector<Y>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
{
    assert_eq!(op.n_cols(), v.dim(), "operand columns must match input dim");
    assert_eq!(op.n_rows(), mask.dim(), "mask must cover output dim");
    let add = s.add_monoid();
    let identity = add.identity();
    if !crate::exec::charge_alloc(counters, output_bytes::<Y>(op.n_rows())) {
        return DenseVector::from_values(Vec::new(), identity);
    }

    let mut vals = vec![identity; op.n_rows()];
    let out = SendPtr(vals.as_mut_ptr());
    par_rows(PullRows::Masked(*mask), counters, |i, tally| {
        let y = reduce_row(s, op, v, i, identity, early_exit, tally);
        // SAFETY: allowed rows are unique and below the mask's dimension
        // (an active list is checked when attached), and chunks partition
        // them, so writes are disjoint and in bounds.
        unsafe { *out.get().add(i) = y };
    });
    DenseVector::from_values(vals, identity)
}

/// Row-kernel charges tallied on the worker and added to the counters
/// once per chunk. Totals equal a per-row charge (matrix: one per examined
/// entry; vector: one per examined entry plus the row's output write), but
/// workers do not make two atomic adds per row on one shared counter set —
/// a cache line every lane would otherwise fight over. An unmetered run
/// tallies nothing.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RowTally {
    metered: bool,
    examined: u64,
    rows: u64,
}

impl RowTally {
    /// An empty tally for one chunk of a run metered through `counters`.
    #[inline]
    pub(crate) fn new(counters: Option<&AccessCounters>) -> Self {
        Self {
            metered: counters.is_some(),
            examined: 0,
            rows: 0,
        }
    }

    #[inline]
    pub(crate) fn row(&mut self, examined: u64) {
        if self.metered {
            self.examined += examined;
            self.rows += 1;
        }
    }

    /// Add this chunk's tally to the counters (one add per category).
    pub(crate) fn flush(self, counters: Option<&AccessCounters>) {
        if let (Some(c), true) = (counters, self.rows > 0) {
            c.add_matrix(self.examined);
            c.add_vector(self.examined + self.rows);
        }
    }
}

/// The rows one row-kernel call visits. Every row kernel — unfused and
/// fused — walks one of these, so they all visit, chunk and charge the
/// same rows.
#[derive(Clone, Copy, Debug)]
pub(crate) enum PullRows<'a> {
    /// A mask's allowed rows, read from its bit words or its active list.
    Masked(Mask<'a>),
    /// Every row `0..n`.
    All(usize),
}

impl PullRows<'_> {
    /// The charges a call makes before visiting any row: one `mask`
    /// access per allowed row.
    pub(crate) fn charge(&self, counters: Option<&AccessCounters>) {
        if let (Some(c), Self::Masked(m)) = (counters, self) {
            c.add_mask(m.active_count() as u64);
        }
    }

    /// Size-derived chunks of [`ROW_GRAIN`] visited rows
    /// ([`pool::index_chunks`] over their count), never the lane count.
    pub(crate) fn chunks(&self) -> Vec<Range<usize>> {
        match self {
            Self::Masked(m) => m.allowed_chunks(ROW_GRAIN),
            Self::All(n) => pool::index_chunks(*n, ROW_GRAIN),
        }
    }

    /// Call `f` on every row of one chunk from [`PullRows::chunks`],
    /// ascending.
    #[inline]
    pub(crate) fn for_each(&self, chunk: Range<usize>, mut f: impl FnMut(usize)) {
        // `f` is lent, not moved: moved into `for_each_allowed`, the fused
        // pull's row closure was compiled out of line, one call per row.
        match self {
            Self::Masked(m) => m.for_each_allowed(chunk, &mut f),
            Self::All(_) => chunk.for_each(&mut f),
        }
    }
}

/// Charge `rows`, then run `body(i, tally)` on each of them in their
/// chunks, each chunk with its own [`RowTally`] flushed to `counters` when
/// it ends. Each chunk polls the limits once before its first row.
fn par_rows<F>(rows: PullRows<'_>, counters: Option<&AccessCounters>, body: F)
where
    F: Fn(usize, &mut RowTally) + Sync + Send,
{
    rows.charge(counters);
    rows.chunks().into_par_iter().for_each(|chunk| {
        // Per-chunk checkpoint: a tripped run skips the chunk, whose rows
        // keep the ⊕ identity — never observed, because the dispatcher
        // converts the sticky trip into an error.
        if !crate::exec::live(counters) {
            return;
        }
        let mut tally = RowTally::new(counters);
        rows.for_each(chunk, |i| body(i, &mut tally));
        tally.flush(counters);
    });
}

/// Reduce one operand row against a dense input vector. Shared with the
/// fused pull, so per-row work and counter bookkeeping are identical
/// between fused and unfused pulls. The row's charges go to the chunk's
/// `tally`; the limits are polled per chunk, not here.
#[inline]
pub(crate) fn reduce_row<A, X, Y, S>(
    s: S,
    op: &Csr<A>,
    v: &DenseVector<X>,
    i: usize,
    identity: Y,
    early_exit: bool,
    tally: &mut RowTally,
) -> Y
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
{
    let add = s.add_monoid();
    let annihilator = add.annihilator();
    let cols = op.row(i);
    let avals = op.row_values(i);
    let mut acc = identity;
    let mut examined = 0u64;
    for (idx, &j) in cols.iter().enumerate() {
        examined += 1;
        if v.is_explicit(j as usize) {
            acc = add.op(acc, s.mult(avals[idx], v.get(j as usize)));
            if early_exit && annihilator == Some(acc) {
                break;
            }
        }
    }
    tally.row(examined);
    acc
}

// ---------------------------------------------------------------------------
// Column-based (push) kernels
// ---------------------------------------------------------------------------

/// The column kernel — Algorithm 3 and §6.2 — up to (but not including)
/// output materialization: gathers the rows of `op_t` (the operand's
/// columns, which is how CSC access is realized, §3) selected by the
/// sparse input's nonzeros, and returns the raw sorted `(ids, vals)` pair
/// lists. `O(d·nnz(f)·log nnz(f))`.
///
/// For a valued semiring the mask is the final filter (lines 17–24, Fig.
/// 4d): expansion, radix sort and segmented reduce happen first, then the
/// mask filter and identity drop. For a structure-only semiring (a
/// constant [`Semiring::product_hint`]) the mask is tested *before* any
/// merge work, in the claim kernel. Lend the claim set through
/// [`Mask::with_claim_set`] to keep a call free of `O(M)` work.
///
/// The `mxv` dispatch (so every push row of [`crate::mxv_batch`]) wraps
/// the parts into a sparse output; the fused pipeline
/// ([`crate::fused::FusedMxv`]) consumes them directly so the applied/
/// assigned chain never materializes an intermediate vector. Counter
/// bookkeeping is identical in both.
pub(crate) fn col_kernel_parts<A, X, Y, S>(
    s: S,
    op_t: &Csr<A>,
    v: &SparseVector<X>,
    mask: Option<&Mask<'_>>,
    counters: Option<&AccessCounters>,
) -> (Vec<u32>, Vec<Y>)
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
{
    let add = s.add_monoid();
    let identity = add.identity();
    // Entry checkpoint: the column kernel's pre-expansion boundary.
    if !crate::exec::live(counters) {
        return (Vec::new(), Vec::new());
    }
    if let Some(c) = counters {
        c.add_vector(v.nnz() as u64);
    }

    // Structure-only: every product is the known constant, so the output
    // pattern is the set of mask-passing expanded rows (§5.5) — claim it.
    if let Some(hint) = s.product_hint() {
        let mut ids = claim_kernel(op_t, v, mask, counters);
        if hint == identity {
            ids.clear();
        }
        let vals = vec![hint; ids.len()];
        return (ids, vals);
    }

    let (mut keys, mut prods) = expand_pairs(s, op_t, v, counters);
    let max_key = op_t.n_cols().max(1) as u32 - 1;
    if let Some(c) = counters {
        // A key-value sort moves two words per product.
        c.add_sort(2 * keys.len() as u64 * sort::passes_for(max_key) as u64);
    }
    sort::sort_pairs(&mut keys, &mut prods, max_key);
    let (mut ids, mut vals) =
        segreduce::segmented_reduce_by_key(&keys, &prods, |a, b| add.op(a, b));

    filter_col_output(&mut ids, &mut vals, mask, identity, counters);
    (ids, vals)
}

/// Expanded products one claim-kernel chunk owns. A push level that
/// expands no more is one chunk, run on the caller thread.
const CLAIM_GRAIN: usize = pool::DEFAULT_GRAIN;

/// The structure-only push: the output pattern of `Aᵀf .∗ m`, ascending.
///
/// Every expanded row index is tested against the mask, and a survivor is
/// claimed in the claim set; the claimant keeps the index. Only the
/// winners — each output vertex once — are sorted, and their bits are
/// cleared again, so a lent set comes back all-clear. A level expanding at
/// most [`CLAIM_GRAIN`] products runs on the caller thread, which owns the
/// set and claims without atomic read-modify-writes. A larger level is cut
/// into size-derived chunks of [`CLAIM_GRAIN`] positions (a hub's row may
/// span several), which claim with a `fetch_or`. The output is the sorted
/// set of mask-passing rows whichever chunk won each claim, so results and
/// charges are identical at every lane count.
///
/// Charges: `matrix` one per expanded product, `mask` one test per product
/// when masked, `vector` one claim-set access per product that passes the
/// mask, `sort` the winners' radix passes. Both buffers — the winners (at
/// most `min(expanded, M)` keys) and, when no set is lent, a per-call
/// claim set — are charged on the caller thread before any chunk runs.
fn claim_kernel<A: Scalar, X: Scalar>(
    op_t: &Csr<A>,
    v: &SparseVector<X>,
    mask: Option<&Mask<'_>>,
    counters: Option<&AccessCounters>,
) -> Vec<u32> {
    // Output ids are the columns of `op_t`.
    let n = op_t.n_cols();
    let ids = v.ids();
    let total: usize = ids.iter().map(|&u| op_t.degree(u as usize)).sum();
    let lent = mask.and_then(Mask::claim_set);
    let set_bytes = if lent.is_some() {
        0
    } else {
        output_bytes::<u64>(n.div_ceil(64))
    };
    if !crate::exec::charge_alloc(counters, output_bytes::<u32>(total.min(n)) + set_bytes) {
        return Vec::new();
    }
    let owned;
    let claims = match lent {
        Some(set) => set,
        None => {
            owned = AtomicBitVec::new(n);
            &owned
        }
    };
    debug_assert_eq!(claims.len(), n, "claim set must cover the output");
    debug_assert_eq!(claims.count_ones(), 0, "claim set must be all-clear");

    let (mut winners, passed) = if total <= CLAIM_GRAIN {
        let mut won = Vec::with_capacity(total.min(n));
        let mut passed = 0;
        // One chunk's work: a single checkpoint, then every frontier row.
        if crate::exec::live(counters) {
            for &u in ids {
                let row = op_t.row(u as usize);
                passed += claim_row(row, mask, |i| claims.set_unshared(i), &mut won);
            }
        }
        (won, passed)
    } else {
        let (offsets, _) = expansion_offsets(op_t, v);
        let parts: Vec<(Vec<u32>, u64)> = pool::index_chunks(total, CLAIM_GRAIN)
            .into_par_iter()
            .map(|range| {
                let mut won = Vec::new();
                let mut passed = 0;
                // Per-chunk checkpoint: a tripped run claims nothing more.
                if !crate::exec::live(counters) {
                    return (won, passed);
                }
                // The segment holding the chunk's first position (past any
                // empty segments that share its offset).
                let mut seg = offsets.partition_point(|&o| o <= range.start) - 1;
                let mut p = range.start;
                while p < range.end {
                    while offsets[seg + 1] <= p {
                        seg += 1;
                    }
                    let hi = offsets[seg + 1].min(range.end);
                    let row = &op_t.row(ids[seg] as usize)[p - offsets[seg]..hi - offsets[seg]];
                    // Test before the `fetch_or`: most repeats find the
                    // bit already set and skip the atomic write.
                    let claim = |i| !claims.get(i) && claims.set(i);
                    passed += claim_row(row, mask, claim, &mut won);
                    p = hi;
                }
                (won, passed)
            })
            .collect();
        let mut winners = Vec::with_capacity(parts.iter().map(|(w, _)| w.len()).sum());
        let mut passed = 0;
        for (won, k) in parts {
            winners.extend(won);
            passed += k;
        }
        (winners, passed)
    };

    let max_key = n.max(1) as u32 - 1;
    if let Some(c) = counters {
        c.add_matrix(total as u64);
        if mask.is_some() {
            c.add_mask(total as u64);
        }
        c.add_vector(passed);
        c.add_sort(winners.len() as u64 * sort::passes_for(max_key) as u64);
    }
    sort::sort_keys(&mut winners, max_key);
    for &j in &winners {
        claims.clear(j as usize);
    }
    winners
}

/// Claim the mask-passing indices of one row slice through `claim`,
/// appending the ones this call won to `won`; returns how many passed.
#[inline]
fn claim_row(
    cols: &[u32],
    mask: Option<&Mask<'_>>,
    claim: impl Fn(usize) -> bool,
    won: &mut Vec<u32>,
) -> u64 {
    let mut passed = 0;
    for &j in cols {
        let i = j as usize;
        if mask.is_none_or(|m| m.allows(i)) {
            passed += 1;
            if claim(i) {
                won.push(j);
            }
        }
    }
    passed
}

/// Mask filter (lines 17–24 of Algorithm 3) and identity drop, in place.
/// Entries whose reduced value equals the ⊕ identity are implicit zeros
/// and are not materialized.
fn filter_col_output<Y: Scalar>(
    ids: &mut Vec<u32>,
    vals: &mut Vec<Y>,
    mask: Option<&Mask<'_>>,
    identity: Y,
    counters: Option<&AccessCounters>,
) {
    if let Some(c) = counters {
        if mask.is_some() {
            c.add_mask(ids.len() as u64);
        }
    }
    let mut write = 0usize;
    for read in 0..ids.len() {
        let keep = vals[read] != identity && mask.is_none_or(|m| m.allows(ids[read] as usize));
        if keep {
            ids[write] = ids[read];
            vals[write] = vals[read];
            write += 1;
        }
    }
    ids.truncate(write);
    vals.truncate(write);
}

/// The expansion preamble of both column kernels: scatter offsets over the
/// frontier's selected columns (CSR-style, trailing total) and the expanded
/// product count.
fn expansion_offsets<A: Scalar, X: Scalar>(
    op_t: &Csr<A>,
    v: &SparseVector<X>,
) -> (Vec<usize>, usize) {
    let lengths: Vec<usize> = v.ids().iter().map(|&k| op_t.degree(k as usize)).collect();
    let offsets = scan::exclusive_scan_offsets(&lengths);
    let total = *offsets.last().expect("non-empty offsets");
    (offsets, total)
}

/// Expand the selected columns into a flat (row-index, product) pair list.
fn expand_pairs<A, X, Y, S>(
    s: S,
    op_t: &Csr<A>,
    v: &SparseVector<X>,
    counters: Option<&AccessCounters>,
) -> (Vec<u32>, Vec<Y>)
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
{
    let (offsets, total) = expansion_offsets(op_t, v);
    if let Some(c) = counters {
        c.add_matrix(total as u64);
    }
    // Caller-thread charge for both expansion buffers (keys + products).
    let bytes = output_bytes::<u32>(total) + output_bytes::<Y>(total);
    if !crate::exec::charge_alloc(counters, bytes) {
        return (Vec::new(), Vec::new());
    }
    let mut keys = vec![0u32; total];
    let mut prods: Vec<Y> = vec![s.add_monoid().identity(); total];
    let kp = SendPtr(keys.as_mut_ptr());
    let pp = SendPtr(prods.as_mut_ptr());
    let ids = v.ids();
    let xs = v.vals();
    gather::interval_gather(&offsets, pool::DEFAULT_GRAIN, |seg, within, pos| {
        let src = ids[seg] as usize;
        let j = op_t.row(src)[within];
        let a = op_t.row_values(src)[within];
        // SAFETY: positions partition 0..total; writes are disjoint.
        unsafe {
            *kp.get().add(pos) = j;
            *pp.get().add(pos) = s.mult(a, xs[seg]);
        }
    });
    (keys, prods)
}

// ---------------------------------------------------------------------------
// Dispatch (GrB_mxv)
// ---------------------------------------------------------------------------

/// The operands a call's two kernel faces walk, by the descriptor's
/// transpose flag: the pull face reads the rows of `op(A)`, the push face
/// the rows of its transpose — the columns of `op(A)` (§3).
pub(crate) fn operands<'g, A: Scalar>(
    graph: &'g Graph<A>,
    desc: &Descriptor,
) -> (&'g Csr<A>, &'g Csr<A>) {
    if desc.transpose {
        (graph.csr_t(), graph.csr())
    } else {
        (graph.csr(), graph.csr_t())
    }
}

/// One call's resolved plan: the kernel face, the operand it walks, and
/// the input in that face's storage — borrowed when the vector is stored
/// that way already, converted otherwise.
pub(crate) enum Face<'a, A, X: Clone> {
    /// The column kernel over the rows of `op(A)ᵀ`.
    Push(&'a Csr<A>, Cow<'a, SparseVector<X>>),
    /// The row kernel over the rows of `op(A)`.
    Pull(&'a Csr<A>, Cow<'a, DenseVector<X>>),
}

/// Resolve the face of one `mxv`-shaped call. [`mxv`],
/// [`FusedMxv`](crate::FusedMxv) and every [`mxv_batch`](crate::mxv_batch)
/// row dispatch through here: the operand orientation, the direction by
/// the §6.3 storage rule or the descriptor's force (charged to `counters`
/// as a push or pull step), and the input in that face's storage.
pub(crate) fn face<'a, A: Scalar, X: Scalar>(
    graph: &'a Graph<A>,
    v: &'a Vector<X>,
    desc: &Descriptor,
    counters: Option<&AccessCounters>,
) -> Face<'a, A, X> {
    let (op, op_t) = operands(graph, desc);
    match crate::plan::resolve_direction(v, desc) {
        Direction::Push => {
            if let Some(c) = counters {
                c.add_push_step();
            }
            let sv = v
                .as_sparse()
                .map_or_else(|| Cow::Owned(v.to_sparse()), Cow::Borrowed);
            Face::Push(op_t, sv)
        }
        Direction::Pull => {
            if let Some(c) = counters {
                c.add_pull_step();
            }
            let dv = v
                .as_dense()
                .map_or_else(|| Cow::Owned(v.to_dense()), Cow::Borrowed);
            Face::Pull(op, dv)
        }
    }
}

impl<A: Scalar, X: Scalar> Face<'_, A, X> {
    /// Run this face's unfused kernel — the body of `mxv` and of every
    /// `mxv_batch` row. A push returns the column kernel's sorted output as
    /// a sparse vector; a pull returns the row kernel's dense output,
    /// masked when a mask is given (early exit applies to masked pulls
    /// only).
    pub(crate) fn mxv<Y, S>(
        &self,
        s: S,
        mask: Option<&Mask<'_>>,
        desc: &Descriptor,
        counters: Option<&AccessCounters>,
    ) -> Vector<Y>
    where
        Y: Scalar,
        S: Semiring<A, X, Y>,
    {
        match self {
            Face::Push(op_t, sv) => {
                let (ids, vals) = col_kernel_parts(s, op_t, sv, mask, counters);
                let identity = s.add_monoid().identity();
                Vector::from_sparse(op_t.n_cols(), identity, ids, vals)
            }
            Face::Pull(op, dv) => Vector::Dense(match mask {
                Some(m) => row_masked_mxv(s, op, dv, m, desc.early_exit, counters),
                None => row_mxv(s, op, dv, counters),
            }),
        }
    }
}

/// GrB_mxv: `w = op(A) · v` under a semiring, with optional mask.
///
/// Both push and pull compute the same expression; which kernel runs is an
/// implementation decision (§4.4, §6.3):
///
/// * **Push** (sparse `v`): column kernel over the operand's transpose.
/// * **Pull** (dense `v`): row kernel; masked when a mask is supplied.
///
/// The output's storage matches the kernel (push → sparse, pull → dense),
/// so a DOBFS loop alternating directions naturally hands each iteration
/// the representation the next one wants.
///
/// ```
/// use graphblas_core::{mxv, BoolOrAnd, Descriptor, Vector};
/// use graphblas_matrix::{Coo, Graph};
///
/// // 0 → 1 → 2: one BFS step from {0} over Aᵀ lands on {1}.
/// let mut coo = Coo::new(3, 3);
/// coo.push(0, 1, true);
/// coo.push(1, 2, true);
/// let g = Graph::from_coo(&coo);
/// let f = Vector::singleton(3, false, 0, true);
/// let desc = Descriptor::new().transpose(true);
///
/// let next: Vector<bool> = mxv(None, BoolOrAnd, &g, &f, &desc, None).unwrap();
/// assert_eq!(next.iter_explicit().collect::<Vec<_>>(), vec![(1, true)]);
/// ```
pub fn mxv<A, X, Y, S>(
    mask: Option<&Mask<'_>>,
    s: S,
    graph: &Graph<A>,
    v: &Vector<X>,
    desc: &Descriptor,
    counters: Option<&AccessCounters>,
) -> GrbResult<Vector<Y>>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
{
    let (operand, _) = operands(graph, desc);
    if operand.n_cols() != v.dim() {
        return Err(GrbError::DimensionMismatch {
            context: "mxv input vector",
            expected: operand.n_cols(),
            actual: v.dim(),
        });
    }
    if let Some(m) = mask {
        if m.dim() != operand.n_rows() {
            return Err(GrbError::DimensionMismatch {
                context: "mxv mask",
                expected: operand.n_rows(),
                actual: m.dim(),
            });
        }
    }

    // Pre-flight stop poll: a limit tripped by an earlier operation in the
    // same guarded run aborts before any kernel work.
    crate::exec::check_stop(counters)?;
    let out = face(graph, v, desc, counters).mxv(s, mask, desc, counters);
    // Post-kernel poll: a checkpoint bail inside the kernel left an
    // identity-shaped partial result that must not escape.
    crate::exec::check_stop(counters)?;
    Ok(out)
}

/// GrB_vxm: `w = v · op(A)`, the row-vector form. Equivalent to `mxv` with
/// the transpose flag flipped; provided for API fidelity with the C spec.
pub fn vxm<A, X, Y, S>(
    mask: Option<&Mask<'_>>,
    s: S,
    v: &Vector<X>,
    graph: &Graph<A>,
    desc: &Descriptor,
    counters: Option<&AccessCounters>,
) -> GrbResult<Vector<Y>>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
{
    let flipped = Descriptor {
        transpose: !desc.transpose,
        ..*desc
    };
    mxv(mask, s, graph, v, &flipped, counters)
}

/// Bytes of a buffer of `n` elements of `T` — the caller-thread
/// allocation charge the kernels assess before materializing outputs and
/// expansion buffers.
#[inline]
fn output_bytes<T>(n: usize) -> u64 {
    (n as u64) * (std::mem::size_of::<T>() as u64)
}

pub(crate) struct SendPtr<T>(pub(crate) *mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}
impl<T> SendPtr<T> {
    #[inline]
    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{BoolOrAnd, BoolStructure, MinPlus, PlusTimes};
    use crate::plan::resolve_direction;
    use graphblas_matrix::Coo;
    use graphblas_primitives::BitVec;

    /// The 8-vertex example of Figure 3: frontier {B, C, D}, visited
    /// {A, B, C, D}; push/pull must both discover exactly {E, F}.
    ///
    /// Vertices: A=0, B=1, C=2, D=3, E=4, F=5, G=6, H=7.
    /// Edges (directed, child lists): B->A, B->E, C->F, D->A, D->F,
    /// E->G(reverse discovered later)… we keep it minimal: the asserted
    /// behaviour is discovery of {E=4, F=5} and exclusion of A=0.
    fn fig3_graph() -> Graph<bool> {
        let mut coo = Coo::new(8, 8);
        for &(u, c) in &[(1u32, 0u32), (1, 4), (2, 5), (3, 0), (3, 5), (6, 7)] {
            coo.push(u, c, true);
        }
        Graph::from_coo(&coo)
    }

    fn frontier_bcd() -> Vector<bool> {
        Vector::from_sparse(8, false, vec![1, 2, 3], vec![true; 3])
    }

    fn visited_abcd() -> BitVec {
        let mut b = BitVec::new(8);
        for i in 0..4 {
            b.set(i);
        }
        b
    }

    fn desc_bfs() -> Descriptor {
        // BFS multiplies by Aᵀ: children of the frontier.
        Descriptor::new().transpose(true)
    }

    #[test]
    fn push_discovers_children_with_mask() {
        let g = fig3_graph();
        let f = frontier_bcd();
        let visited = visited_abcd();
        let mask = Mask::complement(&visited);
        let desc = desc_bfs().force(Direction::Push);
        let out: Vector<bool> = mxv(Some(&mask), BoolOrAnd, &g, &f, &desc, None).expect("mxv");
        let found: Vec<u32> = out.iter_explicit().map(|(i, _)| i).collect();
        assert_eq!(found, vec![4, 5], "push finds E and F, filters A");
        assert!(out.is_sparse(), "push output stays sparse");
    }

    #[test]
    fn pull_matches_push() {
        let g = fig3_graph();
        let mut f = frontier_bcd();
        f.make_dense();
        let visited = visited_abcd();
        let mask = Mask::complement(&visited);
        let desc = desc_bfs().force(Direction::Pull);
        let out: Vector<bool> = mxv(Some(&mask), BoolOrAnd, &g, &f, &desc, None).expect("mxv");
        let found: Vec<u32> = out.iter_explicit().map(|(i, _)| i).collect();
        assert_eq!(found, vec![4, 5], "pull finds the same frontier");
        assert!(!out.is_sparse(), "pull output is dense");
    }

    #[test]
    fn auto_direction_follows_storage() {
        let g = fig3_graph();
        let desc = desc_bfs();
        let sparse_f = frontier_bcd();
        assert_eq!(resolve_direction(&sparse_f, &desc), Direction::Push);
        let mut dense_f = frontier_bcd();
        dense_f.make_dense();
        assert_eq!(resolve_direction(&dense_f, &desc), Direction::Pull);
        // And both give identical explicit sets through the full dispatcher.
        let visited = visited_abcd();
        let mask = Mask::complement(&visited);
        let a: Vector<bool> = mxv(Some(&mask), BoolOrAnd, &g, &sparse_f, &desc, None).unwrap();
        let b: Vector<bool> = mxv(Some(&mask), BoolOrAnd, &g, &dense_f, &desc, None).unwrap();
        let ea: Vec<_> = a.iter_explicit().collect();
        let eb: Vec<_> = b.iter_explicit().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn unmasked_push_includes_already_visited() {
        let g = fig3_graph();
        let f = frontier_bcd();
        let desc = desc_bfs().force(Direction::Push);
        let out: Vector<bool> = mxv(None, BoolOrAnd, &g, &f, &desc, None).expect("mxv");
        let found: Vec<u32> = out.iter_explicit().map(|(i, _)| i).collect();
        assert_eq!(found, vec![0, 4, 5], "without the mask, A re-appears");
    }

    #[test]
    fn structure_only_path_matches_generic() {
        let g = fig3_graph();
        let f = frontier_bcd();
        let visited = visited_abcd();
        let mask = Mask::complement(&visited);
        let generic: Vector<bool> = mxv(
            Some(&mask),
            BoolOrAnd,
            &g,
            &f,
            &desc_bfs().force(Direction::Push),
            None,
        )
        .unwrap();
        let structural: Vector<bool> = mxv(
            Some(&mask),
            BoolStructure,
            &g,
            &f,
            &desc_bfs().force(Direction::Push),
            None,
        )
        .unwrap();
        let a: Vec<_> = generic.iter_explicit().collect();
        let b: Vec<_> = structural.iter_explicit().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn claim_kernel_charges_follow_the_contract() {
        // Frontier {B, C, D} expands five edges: B→A, B→E, C→F, D→A, D→F.
        // ¬visited passes E, C→F and D→F (three products); two distinct
        // vertices win their claims.
        let g = fig3_graph();
        let f = frontier_bcd();
        let visited = visited_abcd();
        let claims = AtomicBitVec::new(8);
        let run = |mask: Option<&Mask<'_>>| {
            let c = AccessCounters::new();
            let out: Vector<bool> = mxv(
                mask,
                BoolStructure,
                &g,
                &f,
                &desc_bfs().force(Direction::Push),
                Some(&c),
            )
            .unwrap();
            let found: Vec<u32> = out.iter_explicit().map(|(i, _)| i).collect();
            (found, c.snapshot())
        };
        let passes = sort::passes_for(7) as u64;
        let masked = Mask::complement(&visited);
        for mask in [masked, masked.with_claim_set(&claims)] {
            let (found, charges) = run(Some(&mask));
            assert_eq!(found, vec![4, 5]);
            assert_eq!(charges.matrix, 5, "one per expanded product");
            assert_eq!(charges.mask, 5, "one test per expanded product");
            assert_eq!(charges.vector, 3 + 3, "nnz(f) + one claim per survivor");
            assert_eq!(charges.sort, 2 * passes, "only the winners are sorted");
            assert_eq!(claims.count_ones(), 0, "a lent claim set comes back clear");
        }
        // Unmasked: every product claims, no mask tests; A, E, F win.
        let (found, charges) = run(None);
        assert_eq!(found, vec![0, 4, 5]);
        assert_eq!((charges.mask, charges.vector), (0, 3 + 5));
        assert_eq!(charges.sort, 3 * passes);
    }

    #[test]
    fn min_plus_single_step_relaxation() {
        // Weighted digraph: 0 -2.0-> 1, 0 -5.0-> 2, 1 -1.0-> 2.
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, 2.0f64);
        coo.push(0, 2, 5.0);
        coo.push(1, 2, 1.0);
        let g = Graph::from_coo(&coo);
        // Distance vector after init: d(0)=0.
        let d = Vector::singleton(3, f64::INFINITY, 0, 0.0);
        // One relaxation step: d' = Aᵀ d (min-plus) gives 1: 2.0, 2: 5.0.
        let desc = Descriptor::new().transpose(true);
        let out: Vector<f64> = mxv(None, MinPlus, &g, &d, &desc, None).unwrap();
        assert_eq!(out.get(1), 2.0);
        assert_eq!(out.get(2), 5.0);
        assert_eq!(out.get(0), f64::INFINITY, "no in-edges to 0");
    }

    #[test]
    fn plus_times_row_kernel_is_standard_spmv() {
        // [[1,2],[0,3]] * [10, 100] = [210, 300]
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 1.0f64);
        coo.push(0, 1, 2.0);
        coo.push(1, 1, 3.0);
        let g = Graph::from_coo(&coo);
        let x = Vector::Dense(DenseVector::from_values(vec![10.0, 100.0], 0.0));
        let out: Vector<f64> = mxv(None, PlusTimes, &g, &x, &Descriptor::new(), None).unwrap();
        assert_eq!(out.get(0), 210.0);
        assert_eq!(out.get(1), 300.0);
    }

    #[test]
    fn early_exit_does_not_change_results() {
        let g = fig3_graph();
        let mut f = frontier_bcd();
        f.make_dense();
        let visited = visited_abcd();
        let mask = Mask::complement(&visited);
        let with: Vector<bool> = mxv(
            Some(&mask),
            BoolOrAnd,
            &g,
            &f,
            &desc_bfs().force(Direction::Pull).early_exit(true),
            None,
        )
        .unwrap();
        let without: Vector<bool> = mxv(
            Some(&mask),
            BoolOrAnd,
            &g,
            &f,
            &desc_bfs().force(Direction::Pull).early_exit(false),
            None,
        )
        .unwrap();
        let a: Vec<_> = with.iter_explicit().collect();
        let b: Vec<_> = without.iter_explicit().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn early_exit_reduces_matrix_accesses() {
        // Row with many parents, all in the frontier: early exit stops at 1.
        let n = 100;
        let mut coo = Coo::new(n, n);
        for p in 0..n - 1 {
            coo.push(p as u32, (n - 1) as u32, true); // everyone -> last
        }
        let g = Graph::from_coo(&coo);
        let mut f = Vector::from_sparse(n, false, (0..(n - 1) as u32).collect(), vec![true; n - 1]);
        f.make_dense();
        let visited = {
            let mut b = BitVec::new(n);
            for i in 0..n - 1 {
                b.set(i);
            }
            b
        };
        let mask = Mask::complement(&visited);
        let count = |ee: bool| {
            let c = AccessCounters::new();
            let _: Vector<bool> = mxv(
                Some(&mask),
                BoolOrAnd,
                &g,
                &f,
                &desc_bfs().force(Direction::Pull).early_exit(ee),
                Some(&c),
            )
            .unwrap();
            c.snapshot().matrix
        };
        let with = count(true);
        let without = count(false);
        assert_eq!(with, 1, "first parent found immediately");
        assert_eq!(without, (n - 1) as u64, "no early exit scans all parents");
    }

    #[test]
    fn word_scan_charges_what_the_active_list_charges() {
        // One mask access per allowed row (E, F, G, H) with or without the
        // list: the word scan never tests the four blocked rows.
        let g = fig3_graph();
        let mut f = frontier_bcd();
        f.make_dense();
        let visited = visited_abcd();
        let unvisited: Vec<u32> = vec![4, 5, 6, 7];
        let with_list = {
            let c = AccessCounters::new();
            let mask = Mask::complement(&visited).with_active_list(&unvisited);
            let _: Vector<bool> = mxv(
                Some(&mask),
                BoolOrAnd,
                &g,
                &f,
                &desc_bfs().force(Direction::Pull),
                Some(&c),
            )
            .unwrap();
            c.snapshot().mask
        };
        let without_list = {
            let c = AccessCounters::new();
            let mask = Mask::complement(&visited);
            let _: Vector<bool> = mxv(
                Some(&mask),
                BoolOrAnd,
                &g,
                &f,
                &desc_bfs().force(Direction::Pull),
                Some(&c),
            )
            .unwrap();
            c.snapshot().mask
        };
        assert_eq!(with_list, 4);
        assert_eq!(without_list, 4);
    }

    #[test]
    fn work_budget_overshoot_is_at_most_one_chunk_per_lane() {
        use graphblas_primitives::{ExecLimits, StopReason};
        // Uneven rows over a dozen chunks: every third row is blocked and
        // every fifth column is in the input.
        let n = 9_000;
        let mut coo = Coo::new(n, n);
        let mut x = 7u64;
        for i in 0..n {
            for _ in 0..(i * 7_919) % 23 {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                coo.push(i as u32, (x >> 33) as u32 % n as u32, true);
            }
        }
        coo.dedup(|a, _| a);
        let g = Graph::from_coo(&coo);
        let mut visited = BitVec::new(n);
        for i in (0..n).step_by(3) {
            visited.set(i);
        }
        let mask = Mask::complement(&visited);
        let ids: Vec<u32> = (0..n as u32).step_by(5).collect();
        let mut f = Vector::from_sparse(n, false, ids.clone(), vec![true; ids.len()]);
        f.make_dense();
        let desc = Descriptor::new().force(Direction::Pull).early_exit(false);

        // Charges from the CSR: the up-front mask charge, then per chunk
        // one matrix and one vector access per entry plus the row's write.
        let rows = PullRows::Masked(mask);
        let mask_charge = mask.active_count() as u64;
        let chunk_charges: Vec<u64> = rows
            .chunks()
            .into_iter()
            .map(|chunk| {
                let mut charge = 0;
                rows.for_each(chunk, |i| charge += 2 * g.csr().degree(i) as u64 + 1);
                charge
            })
            .collect();
        assert!(chunk_charges.len() >= 10, "the rows span many chunks");
        let max_chunk = *chunk_charges.iter().max().expect("chunks");
        let total = mask_charge + chunk_charges.iter().sum::<u64>();

        for lanes in [1u64, 4] {
            rayon::with_num_threads(lanes as usize, || {
                for budget in [
                    0,
                    1,
                    mask_charge,
                    mask_charge + 1,
                    total / 3,
                    total / 2,
                    total - 1,
                ] {
                    let c = AccessCounters::new();
                    c.install_limits(&ExecLimits::none().with_work_budget(budget));
                    let out: GrbResult<Vector<bool>> =
                        mxv(Some(&mask), BoolOrAnd, &g, &f, &desc, Some(&c));
                    let spent = c.total();
                    let tripped = c.stop_reason() == Some(StopReason::WorkBudget);
                    c.uninstall_limits();
                    assert_eq!(out.is_err(), tripped, "budget {budget}, {lanes} lanes");
                    // A chunk starts only while the spent work is below the
                    // budget, and at most one chunk per lane is in flight.
                    assert!(
                        spent.saturating_sub(budget) <= lanes * max_chunk + mask_charge,
                        "budget {budget}: spent {spent} at {lanes} lanes"
                    );
                    if budget <= total.saturating_sub(lanes * max_chunk) {
                        assert!(tripped, "budget {budget} must trip at {lanes} lanes");
                    }
                    if budget <= mask_charge {
                        assert_eq!(spent, mask_charge, "no chunk runs past the mask charge");
                    }
                }
            });
        }
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let g = fig3_graph();
        let short = Vector::new_sparse(5, false);
        let r: GrbResult<Vector<bool>> = mxv(None, BoolOrAnd, &g, &short, &Descriptor::new(), None);
        assert!(matches!(r, Err(GrbError::DimensionMismatch { .. })));
        let bad_bits = BitVec::new(3);
        let bad_mask = Mask::new(&bad_bits);
        let f = frontier_bcd();
        let r: GrbResult<Vector<bool>> =
            mxv(Some(&bad_mask), BoolOrAnd, &g, &f, &Descriptor::new(), None);
        assert!(matches!(r, Err(GrbError::DimensionMismatch { .. })));
    }

    #[test]
    fn vxm_equals_mxv_on_transpose() {
        let g = fig3_graph();
        let f = frontier_bcd();
        // vxm(f, A) = mxv(Aᵀ, f).
        let a: Vector<bool> = vxm(None, BoolOrAnd, &f, &g, &Descriptor::new(), None).unwrap();
        let b: Vector<bool> = mxv(
            None,
            BoolOrAnd,
            &g,
            &f,
            &Descriptor::new().transpose(true),
            None,
        )
        .unwrap();
        let ea: Vec<_> = a.iter_explicit().collect();
        let eb: Vec<_> = b.iter_explicit().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn empty_frontier_yields_empty_output() {
        let g = fig3_graph();
        let f = Vector::new_sparse(8, false);
        let out: Vector<bool> = mxv(
            None,
            BoolOrAnd,
            &g,
            &f,
            &desc_bfs().force(Direction::Push),
            None,
        )
        .unwrap();
        assert_eq!(out.nnz(), 0);
    }
}
