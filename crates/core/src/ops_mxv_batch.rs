//! Batched (multi-vector) matvec kernels: the paper's push/pull machinery
//! applied to a `k × n` frontier batch, one direction decision per row.
//!
//! GraphBLAST (Yang et al.) observes that direction optimization
//! generalizes from SpMV/SpMSpV to multi-vector operands, and Besta et
//! al.'s push-pull analysis shows the density tradeoff holds independently
//! per source: in a batched traversal one source can sit mid-supervertex
//! (dense frontier → row-based pull) while another is still a thin wave
//! (sparse frontier → column-based push). [`mxv_batch`] is therefore
//! `GrB_mxv` over a [`MultiVector`]: it resolves a [`Direction`] *per
//! row* (from a per-source [`DirectionPolicy`], or from each row's storage,
//! or forced by the descriptor), then runs
//!
//! * the pull face: every pull row's allowed output rows, cut into the
//!   single-source row kernel's chunks, flattened into one
//!   `(source, row-chunk)` list the worker pool drains by index stealing,
//!   so lanes stay busy even when one source's frontier is tiny;
//! * the push face: the single-source column kernel once per push row —
//!   the claim kernel for a structure-only semiring, the sort-based merge
//!   otherwise. Rows run in parallel with each other; a row's own parallel
//!   regions run inline on the worker that took it.
//!
//! **Equivalence contract** (pinned by `tests/prop_core.rs`): a batched
//! call produces bit-identical values *and access counters* to `k`
//! independent single-source [`mxv`](crate::mxv) calls under the same
//! descriptor, for every semiring — because the per-row work, chunk
//! boundaries, and counter bookkeeping are shared code (a push row *is*
//! the single-source column kernel), and chunk layouts derive from sizes
//! only (never the lane count), so results are also identical at every
//! thread count.
//!
//! Each row still reads the matrix on its own, so the consumers are the
//! traversals whose rows carry values a bit lane cannot: batched Brandes
//! BC (σ/δ sums) and coalesced SSSP (distances). The BFS family runs the
//! lane kernel of [`crate::ops_mxv_lanes`] instead, where one sweep per
//! face serves every source.

use crate::descriptor::{Descriptor, Direction, DirectionChoice};
use crate::error::{GrbError, GrbResult};
use crate::mask::Mask;
use crate::ops::{Monoid, Scalar, Semiring};
use crate::ops_mxv::{col_kernel_parts, reduce_row, PullRows, RowTally, SendPtr};
use crate::plan::DirectionPolicy;
use crate::vector::{DenseVector, MultiVector, Vector};
use graphblas_matrix::{Graph, RowAccess};
use graphblas_primitives::counters::AccessCounters;
use rayon::prelude::*;

/// Resolve the counters row `j` of an attributed batch charges: its own
/// per-row set when attribution is on, the shared set otherwise.
#[inline]
fn row_charge<'a>(
    counters: Option<&'a AccessCounters>,
    row_counters: Option<&'a [&'a AccessCounters]>,
    j: usize,
) -> Option<&'a AccessCounters> {
    match row_counters {
        Some(rc) => Some(rc[j]),
        None => counters,
    }
}

/// The pull face: one dense input and (optionally) one mask per source,
/// outputs computed over a flat `(source, row-chunk)` grid. Per-source
/// semantics and counter bookkeeping are identical to
/// [`crate::ops_mxv::row_masked_mxv`] (whether or not a mask carries an
/// active list) / [`crate::ops_mxv::row_mxv`] (when `masks` is `None`).
///
/// When `row_counters` is present (one per source), each source's
/// row-scoped charges — output-buffer allocation, mask/vector traffic, and
/// every `reduce_row` — land on that source's counters instead of the
/// shared set, and each source's chunks poll *its* checkpoints, so one
/// source's tripped limit stops only its own rows.
fn pull_face<A, X, Y, S, M>(
    s: S,
    op: &M,
    vs: &[&DenseVector<X>],
    masks: Option<&[Mask<'_>]>,
    early_exit: bool,
    counters: Option<&AccessCounters>,
    row_counters: Option<&[&AccessCounters]>,
) -> Vec<DenseVector<Y>>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
    M: RowAccess<A>,
{
    if let Some(ms) = masks {
        assert_eq!(ms.len(), vs.len(), "one mask per batch row");
        for m in ms {
            assert_eq!(m.dim(), op.n_rows(), "mask must cover output dim");
        }
    }
    for v in vs {
        assert_eq!(op.n_cols(), v.dim(), "operand columns must match input dim");
    }
    if let Some(rc) = row_counters {
        assert_eq!(rc.len(), vs.len(), "one counter set per batch row");
    }
    let add = s.add_monoid();
    let identity = add.identity();
    let n = op.n_rows();
    // Caller-thread charge for the batch's dense output buffers; the
    // per-row checkpoints below stop the sweep itself. Attributed batches
    // charge each source for its own buffer (same aggregate bytes): a
    // denied row trips only its own counters and its chunks then bail
    // with identity results while siblings proceed.
    match row_counters {
        None => {
            if !crate::exec::charge_alloc(counters, crate::ops_mxv::output_bytes::<Y>(vs.len() * n))
            {
                return vs
                    .iter()
                    .map(|_| DenseVector::from_values(Vec::new(), identity))
                    .collect();
            }
        }
        Some(rc) => {
            for c in rc {
                let _ = c.try_charge_alloc(crate::ops_mxv::output_bytes::<Y>(n));
            }
        }
    }

    // Each source visits, chunks and charges the rows its single-source
    // row kernel would: a mask's allowed rows, or (with no masks) every
    // row — only the non-empty rows on a hypersparse store.
    let mut sources = Vec::with_capacity(vs.len());
    let mut grid = Vec::new();
    for j in 0..vs.len() {
        let rows = masks.map_or(PullRows::unmasked(op), |ms| PullRows::Masked(ms[j]));
        rows.charge(row_charge(counters, row_counters, j));
        grid.extend(rows.chunks().into_iter().map(|chunk| (j, chunk)));
        sources.push(rows);
    }

    let mut outs: Vec<Vec<Y>> = vs.iter().map(|_| vec![identity; n]).collect();
    let ptrs: Vec<SendPtr<Y>> = outs.iter_mut().map(|o| SendPtr(o.as_mut_ptr())).collect();

    // One flat `(source, chunk)` list the pool drains by index stealing,
    // so lanes stay busy even when one source's work is tiny.
    grid.into_par_iter().for_each(|(j, chunk)| {
        let v = vs[j];
        let c = row_charge(counters, row_counters, j);
        let mut tally = RowTally::new(c);
        sources[j].for_each(chunk, |i| {
            let y = reduce_row(s, op, v, i, identity, early_exit, c, &mut tally);
            // SAFETY: within a source, chunks partition its visited rows,
            // which are unique and in bounds; across sources the output
            // buffers are distinct.
            unsafe { *ptrs[j].get().add(i) = y };
        });
        tally.flush(c);
    });

    outs.into_iter()
        .map(|vals| DenseVector::from_values(vals, identity))
        .collect()
}

/// GrB_mxv over a `k × n` batch: `W(r, :) = op(A) · input(r, :)` with an
/// optional per-row mask, each row's kernel chosen independently.
///
/// Direction resolution per row `r`:
///
/// * `desc.direction == Force(d)` — every row runs `d` (ablation arms);
/// * `policies == Some(ps)` — `ps[r].update(nnz(row r), n)` decides, so
///   each source carries its own §6.3 hysteresis (or two-phase) state
///   across iterations;
/// * otherwise — each row's *storage* decides, the same
///   [`resolve_direction`](crate::resolve_direction) rule as `mxv`.
///
/// Every resolved decision is recorded in the counters
/// (`push_steps`/`pull_steps`), making per-source switch behaviour
/// observable. Output rows adopt the kernel's natural storage: push rows
/// come back sparse, pull rows dense — so a direction-optimized batched
/// loop hands each source the representation its next iteration wants.
///
/// Push rows run concurrently, so a mask that lends a claim set
/// ([`Mask::with_claim_set`]) must lend one no other row's mask lends.
///
/// ```
/// use graphblas_core::{mxv_batch, BoolOrAnd, Descriptor, MultiVector};
/// use graphblas_matrix::{Coo, Graph};
///
/// // Diamond 0 → {1, 2} → 3: one BFS step for two sources at once.
/// let mut coo = Coo::new(4, 4);
/// for &(u, v) in &[(0u32, 1u32), (0, 2), (1, 3), (2, 3)] {
///     coo.push(u, v, true);
/// }
/// let g = Graph::from_coo(&coo);
/// let batch = MultiVector::singletons(4, false, &[(0, true), (1, true)]);
/// let desc = Descriptor::new().transpose(true);
///
/// let next: MultiVector<bool> =
///     mxv_batch(None, BoolOrAnd, &g, &batch, &desc, None, None).unwrap();
/// let frontier = |r: usize| next.row(r).iter_explicit().map(|(i, _)| i).collect::<Vec<_>>();
/// assert_eq!(frontier(0), vec![1, 2], "source 0 reaches 1 and 2");
/// assert_eq!(frontier(1), vec![3], "source 1 reaches 3");
/// ```
pub fn mxv_batch<A, X, Y, S>(
    masks: Option<&[Mask<'_>]>,
    s: S,
    graph: &Graph<A>,
    input: &MultiVector<X>,
    desc: &Descriptor,
    policies: Option<&mut [DirectionPolicy]>,
    counters: Option<&AccessCounters>,
) -> GrbResult<MultiVector<Y>>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
{
    mxv_batch_attributed(masks, s, graph, input, desc, policies, counters, None)
}

/// [`mxv_batch`] with **per-row counter attribution**: `row_counters[r]`
/// (one set per batch row) receives every charge row `r`'s work causes —
/// its direction step, output-buffer allocation, mask/vector/matrix
/// traffic, expansion and merge (or claims) — and row `r`'s
/// kernel chunks poll *those* counters' checkpoints, so per-row
/// [`ExecLimits`](crate::ExecLimits) installed on `row_counters[r]` stop
/// only row `r` (its chunks bail with identity results; siblings are
/// untouched). This is what lets a query service coalesce independent
/// requests into one batch while each request keeps its own counter
/// snapshot, deadline, and budget.
///
/// At the end of the call every row counter's growth is folded into
/// `counters` via
/// [`AccessCounters::absorb`], so the shared aggregate is identical to an
/// unattributed `mxv_batch` of the same batch (the callers' existing
/// batch ≡ k-singles counter contract is preserved; pinned by this
/// module's tests).
///
/// `row_counters` must be disjoint from `counters` (folding into an
/// aliased set would double-charge). With `row_counters = None` this is
/// exactly [`mxv_batch`].
#[allow(clippy::too_many_arguments)]
pub fn mxv_batch_attributed<A, X, Y, S>(
    masks: Option<&[Mask<'_>]>,
    s: S,
    graph: &Graph<A>,
    input: &MultiVector<X>,
    desc: &Descriptor,
    mut policies: Option<&mut [DirectionPolicy]>,
    counters: Option<&AccessCounters>,
    row_counters: Option<&[&AccessCounters]>,
) -> GrbResult<MultiVector<Y>>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
{
    // Operand orientation, as in `mxv`: pull rows walk `operand`'s rows,
    // push rows walk `operand_t`'s.
    let (operand, operand_t) = if desc.transpose {
        (graph.csr_t(), graph.csr())
    } else {
        (graph.csr(), graph.csr_t())
    };
    let k = input.k();
    if operand.n_cols() != input.dim() {
        return Err(GrbError::DimensionMismatch {
            context: "mxv_batch input batch",
            expected: operand.n_cols(),
            actual: input.dim(),
        });
    }
    if let Some(ms) = masks {
        if ms.len() != k {
            return Err(GrbError::DimensionMismatch {
                context: "mxv_batch mask count",
                expected: k,
                actual: ms.len(),
            });
        }
        for m in ms {
            if m.dim() != operand.n_rows() {
                return Err(GrbError::DimensionMismatch {
                    context: "mxv_batch mask",
                    expected: operand.n_rows(),
                    actual: m.dim(),
                });
            }
        }
    }
    if let Some(ps) = policies.as_deref() {
        if ps.len() != k {
            return Err(GrbError::DimensionMismatch {
                context: "mxv_batch policies",
                expected: k,
                actual: ps.len(),
            });
        }
    }
    if let Some(rc) = row_counters {
        if rc.len() != k {
            return Err(GrbError::DimensionMismatch {
                context: "mxv_batch row counters",
                expected: k,
                actual: rc.len(),
            });
        }
    }

    // Pre-flight stop poll, as in `mxv`.
    crate::exec::check_stop(counters)?;

    // Attribution baselines: each row counter's growth over this call is
    // folded into the shared set before returning, keeping the shared
    // aggregate identical to an unattributed run.
    let baselines: Option<Vec<graphblas_primitives::counters::CounterSnapshot>> =
        row_counters.map(|rc| rc.iter().map(|c| c.snapshot()).collect());

    // Per-row direction resolution.
    let n = input.dim();
    let dirs: Vec<Direction> = (0..k)
        .map(|r| match desc.direction {
            DirectionChoice::Force(d) => d,
            DirectionChoice::Auto => match policies.as_deref_mut() {
                Some(ps) => ps[r].update(input.row(r).nnz(), n),
                None => {
                    if input.row(r).is_sparse() {
                        Direction::Push
                    } else {
                        Direction::Pull
                    }
                }
            },
        })
        .collect();
    for (r, d) in dirs.iter().enumerate() {
        if let Some(c) = row_charge(counters, row_counters, r) {
            match d {
                Direction::Push => c.add_push_step(),
                Direction::Pull => c.add_pull_step(),
            }
        }
    }
    let push_rows: Vec<usize> = (0..k).filter(|&r| dirs[r] == Direction::Push).collect();
    let pull_rows: Vec<usize> = (0..k).filter(|&r| dirs[r] == Direction::Pull).collect();

    let identity = s.add_monoid().identity();
    let mut out_rows: Vec<Option<Vector<Y>>> = (0..k).map(|_| None).collect();

    // Push face: each row runs the single-source column kernel on its own
    // counters (converting a dense row as `mxv` does), one row per worker.
    let pushed: Vec<(Vec<u32>, Vec<Y>)> = push_rows
        .par_iter()
        .map(|&r| {
            let sparse_input;
            let sv = match input.row(r).as_sparse() {
                Some(sv) => sv,
                None => {
                    sparse_input = input.row(r).to_sparse();
                    &sparse_input
                }
            };
            let mask = masks.map(|ms| &ms[r]);
            let c = row_charge(counters, row_counters, r);
            col_kernel_parts(s, operand_t, sv, mask, desc, c)
        })
        .collect();
    for (&r, (ids, vals)) in push_rows.iter().zip(pushed) {
        out_rows[r] = Some(Vector::from_sparse(operand.n_rows(), identity, ids, vals));
    }

    // Pull face: dense inputs; early-exit only applies to masked pulls,
    // exactly as in the single-source dispatch.
    if !pull_rows.is_empty() {
        let owned: Vec<Option<DenseVector<X>>> = pull_rows
            .iter()
            .map(|&r| match input.row(r).as_dense() {
                Some(_) => None,
                None => Some(input.row(r).to_dense()),
            })
            .collect();
        let dvs: Vec<&DenseVector<X>> = pull_rows
            .iter()
            .zip(&owned)
            .map(|(&r, o)| {
                o.as_ref()
                    .unwrap_or_else(|| input.row(r).as_dense().expect("dense by construction"))
            })
            .collect();
        let sub_masks: Option<Vec<Mask<'_>>> =
            masks.map(|ms| pull_rows.iter().map(|&r| ms[r]).collect());
        let sub_rc: Option<Vec<&AccessCounters>> =
            row_counters.map(|rc| pull_rows.iter().map(|&r| rc[r]).collect());
        let early_exit = masks.is_some() && desc.early_exit;
        let outs = pull_face(
            s,
            operand,
            &dvs,
            sub_masks.as_deref(),
            early_exit,
            counters,
            sub_rc.as_deref(),
        );
        for (&r, dv) in pull_rows.iter().zip(outs) {
            out_rows[r] = Some(Vector::Dense(dv));
        }
    }

    // Fold each row's attributed work into the shared aggregate (before
    // the stop poll, so even an aborting batch accounts the work it did).
    // A row that tripped its own limits keeps its partial tallies here;
    // the caller restores that row's counters when it retires the row.
    if let (Some(rc), Some(base)) = (row_counters, baselines.as_ref()) {
        if let Some(shared) = counters {
            for (c, b) in rc.iter().zip(base) {
                shared.absorb(&c.snapshot().delta_since(b));
            }
        }
    }

    // Post-kernel poll: a checkpoint bail inside either face left
    // identity-shaped partial rows that must not escape. Per-row trips are
    // *not* batch errors: the caller inspects each row counter's
    // `stop_reason` and retires tripped rows individually.
    crate::exec::check_stop(counters)?;
    Ok(MultiVector::from_rows(
        out_rows
            .into_iter()
            .map(|r| r.expect("every row dispatched"))
            .collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{BoolOrAnd, PlusSecond};
    use crate::{mxv, resolve_direction};
    use graphblas_matrix::Coo;
    use graphblas_primitives::BitVec;

    fn diamond() -> Graph<bool> {
        // 0 → {1, 2} → 3, plus 4 isolated.
        let mut coo = Coo::new(5, 5);
        for &(u, v) in &[(0u32, 1u32), (0, 2), (1, 3), (2, 3)] {
            coo.push(u, v, true);
        }
        Graph::from_coo(&coo)
    }

    fn desc_bfs() -> Descriptor {
        Descriptor::new().transpose(true)
    }

    fn explicit(v: &Vector<bool>) -> Vec<u32> {
        v.iter_explicit().map(|(i, _)| i).collect()
    }

    #[test]
    fn batch_matches_per_row_mxv_both_directions() {
        let g = diamond();
        let batch = MultiVector::singletons(5, false, &[(0, true), (1, true), (4, true)]);
        let bits: Vec<BitVec> = (0..3).map(|_| BitVec::new(5)).collect();
        let masks: Vec<Mask<'_>> = bits.iter().map(Mask::complement).collect();
        for dir in [Direction::Push, Direction::Pull] {
            let desc = desc_bfs().force(dir);
            let out: MultiVector<bool> =
                mxv_batch(Some(&masks), BoolOrAnd, &g, &batch, &desc, None, None).unwrap();
            for (r, mask) in masks.iter().enumerate() {
                let single: Vector<bool> =
                    mxv(Some(mask), BoolOrAnd, &g, batch.row(r), &desc, None).unwrap();
                assert_eq!(explicit(out.row(r)), explicit(&single), "{dir:?} row {r}");
            }
        }
    }

    #[test]
    fn per_row_policies_switch_independently() {
        let g = diamond();
        // Row 0: dense-ish frontier (3 of 5 > threshold, rising) → pull.
        // Row 1: singleton (1/5 < threshold with high bar) → push.
        let rows = vec![
            Vector::from_sparse(5, false, vec![0, 1, 2], vec![true; 3]),
            Vector::singleton(5, false, 4, true),
        ];
        let batch = MultiVector::from_rows(rows);
        let mut policies = vec![DirectionPolicy::hysteresis(0.25); 2];
        let c = AccessCounters::new();
        let out: MultiVector<bool> = mxv_batch(
            None,
            BoolOrAnd,
            &g,
            &batch,
            &desc_bfs(),
            Some(&mut policies),
            Some(&c),
        )
        .unwrap();
        assert_eq!(policies[0].current(), Direction::Pull);
        assert_eq!(policies[1].current(), Direction::Push);
        let snap = c.snapshot();
        assert_eq!(snap.pull_steps, 1, "one row pulled");
        assert_eq!(snap.push_steps, 1, "one row pushed");
        // Output storage follows the per-row kernel.
        assert!(!out.row(0).is_sparse());
        assert!(out.row(1).is_sparse());
    }

    #[test]
    fn storage_dispatch_mirrors_resolve_direction() {
        let g = diamond();
        let mut dense_row = Vector::singleton(5, false, 0, true);
        dense_row.make_dense();
        let sparse_row = Vector::singleton(5, false, 1, true);
        assert_eq!(
            resolve_direction(&dense_row, &desc_bfs()),
            Direction::Pull,
            "sanity: same rule as mxv"
        );
        let batch = MultiVector::from_rows(vec![dense_row, sparse_row]);
        let c = AccessCounters::new();
        let _: MultiVector<bool> =
            mxv_batch(None, BoolOrAnd, &g, &batch, &desc_bfs(), None, Some(&c)).unwrap();
        let snap = c.snapshot();
        assert_eq!((snap.pull_steps, snap.push_steps), (1, 1));
    }

    #[test]
    fn weighted_batch_matches_single_runs() {
        // PlusSecond over f64: σ-style accumulation, the BC forward step.
        let mut coo = Coo::new(4, 4);
        for &(u, v) in &[(0u32, 2u32), (1, 2), (0, 3), (2, 3)] {
            coo.push(u, v, true);
        }
        let g = Graph::from_coo(&coo);
        let rows = vec![
            Vector::from_sparse(4, 0.0f64, vec![0, 1], vec![1.0, 2.0]),
            Vector::from_sparse(4, 0.0f64, vec![2], vec![5.0]),
        ];
        let batch = MultiVector::from_rows(rows);
        let desc = desc_bfs().force(Direction::Push);
        let out: MultiVector<f64> =
            mxv_batch(None, PlusSecond, &g, &batch, &desc, None, None).unwrap();
        assert_eq!(out.row(0).get(2), 3.0, "σ(2) = 1 + 2");
        assert_eq!(out.row(0).get(3), 1.0);
        assert_eq!(out.row(1).get(3), 5.0);
    }

    #[test]
    fn batch_dimension_mismatches_reported() {
        let g = diamond();
        let wrong = MultiVector::<bool>::new_sparse(2, 4, false);
        let r: GrbResult<MultiVector<bool>> =
            mxv_batch(None, BoolOrAnd, &g, &wrong, &desc_bfs(), None, None);
        assert!(matches!(r, Err(GrbError::DimensionMismatch { .. })));

        let ok = MultiVector::<bool>::new_sparse(2, 5, false);
        let bits = BitVec::new(5);
        let one_mask = [Mask::new(&bits)];
        let r: GrbResult<MultiVector<bool>> =
            mxv_batch(Some(&one_mask), BoolOrAnd, &g, &ok, &desc_bfs(), None, None);
        assert!(matches!(r, Err(GrbError::DimensionMismatch { .. })));

        let mut short_policies = vec![DirectionPolicy::hysteresis(0.01)];
        let r: GrbResult<MultiVector<bool>> = mxv_batch(
            None,
            BoolOrAnd,
            &g,
            &ok,
            &desc_bfs(),
            Some(&mut short_policies),
            None,
        );
        assert!(matches!(r, Err(GrbError::DimensionMismatch { .. })));
    }

    #[test]
    fn empty_rows_cost_nothing_and_stay_empty() {
        let g = diamond();
        let batch = MultiVector::<bool>::new_sparse(3, 5, false);
        let c = AccessCounters::new();
        let desc = desc_bfs().force(Direction::Push);
        let out: MultiVector<bool> =
            mxv_batch(None, BoolOrAnd, &g, &batch, &desc, None, Some(&c)).unwrap();
        assert_eq!(out.nnz(), 0);
        let snap = c.snapshot();
        assert_eq!(snap.matrix, 0, "no expansion for empty frontiers");
        assert_eq!(snap.sort, 0);
    }

    /// A mixed-direction batch (row 0 dense → pull, rows 1–2 sparse → push).
    fn attribution_batch() -> MultiVector<bool> {
        let mut dense_row = Vector::from_sparse(5, false, vec![0, 1, 2], vec![true; 3]);
        dense_row.make_dense();
        MultiVector::from_rows(vec![
            dense_row,
            Vector::singleton(5, false, 0, true),
            Vector::singleton(5, false, 2, true),
        ])
    }

    #[test]
    fn attributed_rows_match_their_solo_runs() {
        let batch = attribution_batch();
        let rows: Vec<AccessCounters> = (0..3).map(|_| AccessCounters::new()).collect();
        let row_refs: Vec<&AccessCounters> = rows.iter().collect();
        let shared = AccessCounters::new();
        let out: MultiVector<bool> = mxv_batch_attributed(
            None,
            BoolOrAnd,
            &diamond(),
            &batch,
            &desc_bfs(),
            None,
            Some(&shared),
            Some(&row_refs),
        )
        .unwrap();
        for (r, row) in rows.iter().enumerate() {
            // Solo = the same row as a k=1 attributed batch.
            let solo_row = AccessCounters::new();
            let solo_shared = AccessCounters::new();
            let single = MultiVector::from_rows(vec![batch.row(r).clone()]);
            let solo: MultiVector<bool> = mxv_batch_attributed(
                None,
                BoolOrAnd,
                &diamond(),
                &single,
                &desc_bfs(),
                None,
                Some(&solo_shared),
                Some(&[&solo_row]),
            )
            .unwrap();
            assert_eq!(
                explicit(out.row(r)),
                explicit(solo.row(0)),
                "row {r} values"
            );
            assert_eq!(
                row.snapshot(),
                solo_row.snapshot(),
                "row {r} attributed counters ≠ solo run"
            );
        }
    }

    #[test]
    fn attribution_fold_keeps_the_shared_aggregate_identical() {
        let batch = attribution_batch();
        let rows: Vec<AccessCounters> = (0..3).map(|_| AccessCounters::new()).collect();
        let row_refs: Vec<&AccessCounters> = rows.iter().collect();
        let attributed_shared = AccessCounters::new();
        let a: MultiVector<bool> = mxv_batch_attributed(
            None,
            BoolOrAnd,
            &diamond(),
            &batch,
            &desc_bfs(),
            None,
            Some(&attributed_shared),
            Some(&row_refs),
        )
        .unwrap();
        let plain_shared = AccessCounters::new();
        let b: MultiVector<bool> = mxv_batch(
            None,
            BoolOrAnd,
            &diamond(),
            &batch,
            &desc_bfs(),
            None,
            Some(&plain_shared),
        )
        .unwrap();
        for r in 0..3 {
            assert_eq!(explicit(a.row(r)), explicit(b.row(r)), "row {r}");
        }
        assert_eq!(
            attributed_shared.snapshot(),
            plain_shared.snapshot(),
            "fold-at-end must keep the aggregate identical to an unattributed run"
        );
        let total_rows: u64 = rows.iter().map(|c| c.snapshot().matrix).sum();
        assert_eq!(total_rows, plain_shared.snapshot().matrix);
    }

    #[test]
    fn tripped_row_counter_stops_only_its_row() {
        use crate::{ExecLimits, StopReason};

        let batch = attribution_batch();
        let rows: Vec<AccessCounters> = (0..3).map(|_| AccessCounters::new()).collect();
        // Row 1 carries an already-expired deadline; its chunks bail at the
        // first checkpoint while siblings run to completion.
        rows[1].install_limits(&ExecLimits::none().with_deadline(std::time::Duration::ZERO));
        let row_refs: Vec<&AccessCounters> = rows.iter().collect();
        let shared = AccessCounters::new();
        let out: MultiVector<bool> = mxv_batch_attributed(
            None,
            BoolOrAnd,
            &diamond(),
            &batch,
            &desc_bfs(),
            None,
            Some(&shared),
            Some(&row_refs),
        )
        .unwrap();
        assert_eq!(rows[1].stop_reason(), Some(StopReason::Deadline));
        assert_eq!(rows[0].stop_reason(), None);
        assert_eq!(rows[2].stop_reason(), None);

        // Siblings are bit-identical to an untripped run.
        let clean: MultiVector<bool> =
            mxv_batch(None, BoolOrAnd, &diamond(), &batch, &desc_bfs(), None, None).unwrap();
        assert_eq!(explicit(out.row(0)), explicit(clean.row(0)));
        assert_eq!(explicit(out.row(2)), explicit(clean.row(2)));
    }

    #[test]
    fn row_counter_count_mismatch_reported() {
        let g = diamond();
        let batch = MultiVector::<bool>::new_sparse(2, 5, false);
        let one = AccessCounters::new();
        let r: GrbResult<MultiVector<bool>> = mxv_batch_attributed(
            None,
            BoolOrAnd,
            &g,
            &batch,
            &desc_bfs(),
            None,
            None,
            Some(&[&one]),
        );
        assert!(matches!(r, Err(GrbError::DimensionMismatch { .. })));
    }
}
