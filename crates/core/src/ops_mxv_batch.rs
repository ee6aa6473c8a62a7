//! Batched matvec: the paper's push/pull machinery applied to a batch of
//! `k` frontiers, one direction decision per row.
//!
//! GraphBLAST (Yang et al.) observes that direction optimization
//! generalizes from SpMV/SpMSpV to multi-vector operands, and Besta et
//! al.'s push-pull analysis shows the density tradeoff holds independently
//! per source: in a batched traversal one source can sit mid-supervertex
//! (dense frontier → row-based pull) while another is still a thin wave
//! (sparse frontier → column-based push). [`mxv_batch`] is therefore
//! `GrB_mxv` over a slice of row vectors, each stored sparse or dense on
//! its own, and each row runs `mxv`'s dispatch: the function that resolves
//! a single call's face resolves the row's (its storage or the
//! descriptor's force), charges its push or pull step and hands over its
//! input in that face's storage. Then the row runs the single-source
//! kernel of that face on its own counters:
//!
//! * push rows side by side, one row per worker; a row's own parallel
//!   regions run inline on the worker that took it;
//! * pull rows one at a time, each across every lane: a single pull's row
//!   chunks already fill the pool.
//!
//! The kernel holds no traversal state. A loop that steers each source
//! with its own [`DirectionPolicy`](crate::DirectionPolicy) calls those
//! policies itself and hands each row over in the chosen direction's
//! storage, as batched BC and coalesced SSSP do.
//!
//! **Equivalence contract** (pinned by `tests/prop_core.rs`): a batched
//! call produces bit-identical values *and access counters* to `k`
//! independent single-source [`mxv`](crate::mxv) calls under the same
//! descriptor, for every semiring — by construction, since each row *is*
//! such a call's dispatch and kernel. Chunk layouts derive from sizes only
//! (never the lane count), so results are also identical at every thread
//! count.
//!
//! Each row still reads the matrix on its own, so the consumers are the
//! traversals whose rows carry values a bit lane cannot: batched Brandes
//! BC (σ/δ sums) and coalesced SSSP (distances). The BFS family runs the
//! lane kernel of [`crate::ops_mxv_lanes`] instead, where one sweep per
//! face serves every source.

use crate::descriptor::Descriptor;
use crate::error::{GrbError, GrbResult};
use crate::mask::Mask;
use crate::ops::{Monoid, Scalar, Semiring};
use crate::ops_mxv::{face, operands, Face};
use crate::vector::Vector;
use graphblas_matrix::Graph;
use graphblas_primitives::counters::AccessCounters;
use rayon::prelude::*;

/// GrB_mxv over a batch: `w[r] = op(A) · rows[r]` with an optional
/// per-row mask, each row dispatched as [`mxv`](crate::mxv) dispatches
/// one call:
///
/// * `desc.direction == Force(d)` — every row runs `d` (ablation arms);
/// * otherwise — each row's *storage* decides, the
///   [`resolve_direction`](crate::resolve_direction) rule of `mxv`. A loop
///   with a [`DirectionPolicy`](crate::DirectionPolicy) per source updates
///   it itself and converts the row to the chosen direction's storage.
///
/// Every resolved decision is recorded in the counters
/// (`push_steps`/`pull_steps`), making per-source switch behaviour
/// observable. Output rows adopt the kernel's natural storage: push rows
/// come back sparse, pull rows dense — so a direction-optimized batched
/// loop hands each source the representation its next iteration wants.
/// Every row must match the operand's column count; a row that does not
/// is a [`GrbError::DimensionMismatch`].
///
/// Push rows run concurrently, so a mask that lends a claim set
/// ([`Mask::with_claim_set`]) must lend one no other row's mask lends.
///
/// **Per-row attribution.** With `row_counters`, `row_counters[r]` (one
/// set per row) receives every charge row `r`'s work causes — its
/// direction step, output-buffer allocation, mask/vector/matrix traffic,
/// expansion and merge (or claims) — and row `r`'s kernel chunks poll
/// *those* counters' checkpoints, so per-row
/// [`ExecLimits`](crate::ExecLimits) installed on `row_counters[r]` stop
/// only row `r` (it comes back empty; siblings are untouched). This is
/// what lets a query service coalesce independent requests into one batch
/// while each request keeps its own counter snapshot, deadline, and
/// budget. At the end of the call every row counter's growth is folded
/// into `counters` via [`AccessCounters::absorb`], so the shared aggregate
/// is identical to an unattributed call on the same rows.
/// `row_counters` must be disjoint from `counters` (folding into an
/// aliased set would double-charge).
///
/// ```
/// use graphblas_core::{mxv_batch, BoolOrAnd, Descriptor, Vector};
/// use graphblas_matrix::{Coo, Graph};
///
/// // Diamond 0 → {1, 2} → 3: one BFS step for two sources at once.
/// let mut coo = Coo::new(4, 4);
/// for &(u, v) in &[(0u32, 1u32), (0, 2), (1, 3), (2, 3)] {
///     coo.push(u, v, true);
/// }
/// let g = Graph::from_coo(&coo);
/// let rows = [
///     Vector::singleton(4, false, 0, true),
///     Vector::singleton(4, false, 1, true),
/// ];
/// let desc = Descriptor::new().transpose(true);
///
/// let next: Vec<Vector<bool>> = mxv_batch(None, BoolOrAnd, &g, &rows, &desc, None, None).unwrap();
/// let frontier = |r: usize| next[r].iter_explicit().map(|(i, _)| i).collect::<Vec<_>>();
/// assert_eq!(frontier(0), vec![1, 2], "source 0 reaches 1 and 2");
/// assert_eq!(frontier(1), vec![3], "source 1 reaches 3");
/// ```
pub fn mxv_batch<A, X, Y, S>(
    masks: Option<&[Mask<'_>]>,
    s: S,
    graph: &Graph<A>,
    rows: &[Vector<X>],
    desc: &Descriptor,
    counters: Option<&AccessCounters>,
    row_counters: Option<&[&AccessCounters]>,
) -> GrbResult<Vec<Vector<Y>>>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
{
    let (operand, _) = operands(graph, desc);
    let k = rows.len();
    for row in rows {
        if row.dim() != operand.n_cols() {
            return Err(GrbError::DimensionMismatch {
                context: "mxv_batch input row",
                expected: operand.n_cols(),
                actual: row.dim(),
            });
        }
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

    // Each row's plan, resolved and charged as `mxv` resolves one call's,
    // and its kernel, run on the row's own counters (its attributed set,
    // or the shared one).
    let charge = |r: usize| row_counters.map_or(counters, |rc| Some(rc[r]));
    let faces: Vec<Face<'_, A, X>> = rows
        .iter()
        .enumerate()
        .map(|(r, row)| face(graph, row, desc, charge(r)))
        .collect();
    let run = |r: usize| faces[r].mxv(s, masks.map(|ms| &ms[r]), desc, charge(r));

    // Push rows side by side, one row per worker; then each pull row in
    // turn, across every lane.
    let is_push = |r: usize| matches!(faces[r], Face::Push(..));
    let push_rows: Vec<usize> = (0..k).filter(|&r| is_push(r)).collect();
    let pushed: Vec<Vector<Y>> = push_rows.par_iter().map(|&r| run(r)).collect();
    let mut pushed = pushed.into_iter();
    let identity = s.add_monoid().identity();
    let out: Vec<Vector<Y>> = (0..k)
        .map(|r| {
            let row = if is_push(r) {
                pushed.next().expect("one output per push row")
            } else {
                run(r)
            };
            // A row stopped by its own limits comes back empty: its partial
            // output (a denied pull buffer has no slots at all) must not
            // escape, and the caller retires the row.
            if charge(r).is_some_and(|c| c.stop_reason().is_some()) {
                Vector::new_sparse(operand.n_rows(), identity)
            } else {
                row
            }
        })
        .collect();

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

    // Post-kernel poll: a checkpoint bail inside a shared-counter row left
    // an identity-shaped partial result that must not escape. Per-row
    // trips are *not* batch errors: the caller inspects each row counter's
    // `stop_reason` and retires tripped rows individually.
    crate::exec::check_stop(counters)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{BoolOrAnd, PlusSecond};
    use crate::{mxv, resolve_direction, Direction};
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
        let batch: Vec<Vector<bool>> = [0, 1, 4]
            .map(|s| Vector::singleton(5, false, s, true))
            .to_vec();
        let bits: Vec<BitVec> = (0..3).map(|_| BitVec::new(5)).collect();
        let masks: Vec<Mask<'_>> = bits.iter().map(Mask::complement).collect();
        for dir in [Direction::Push, Direction::Pull] {
            let desc = desc_bfs().force(dir);
            let out: Vec<Vector<bool>> =
                mxv_batch(Some(&masks), BoolOrAnd, &g, &batch, &desc, None, None).unwrap();
            for (r, mask) in masks.iter().enumerate() {
                let single: Vector<bool> =
                    mxv(Some(mask), BoolOrAnd, &g, &batch[r], &desc, None).unwrap();
                assert_eq!(explicit(&out[r]), explicit(&single), "{dir:?} row {r}");
            }
        }
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
        let batch = [dense_row, sparse_row];
        let c = AccessCounters::new();
        let out: Vec<Vector<bool>> =
            mxv_batch(None, BoolOrAnd, &g, &batch, &desc_bfs(), Some(&c), None).unwrap();
        let snap = c.snapshot();
        assert_eq!((snap.pull_steps, snap.push_steps), (1, 1));
        // Output storage follows each row's kernel.
        assert!(!out[0].is_sparse(), "the pulled row comes back dense");
        assert!(out[1].is_sparse(), "the pushed row comes back sparse");
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
        let desc = desc_bfs().force(Direction::Push);
        let out: Vec<Vector<f64>> =
            mxv_batch(None, PlusSecond, &g, &rows, &desc, None, None).unwrap();
        assert_eq!(out[0].get(2), 3.0, "σ(2) = 1 + 2");
        assert_eq!(out[0].get(3), 1.0);
        assert_eq!(out[1].get(3), 5.0);
    }

    #[test]
    fn batch_dimension_mismatches_reported() {
        let g = diamond();
        let empty = |dim: usize| Vector::<bool>::new_sparse(dim, false);
        let bits = BitVec::new(5);
        let one_mask = [Mask::new(&bits)];
        let run = |rows: &[Vector<bool>], masks: Option<&[Mask<'_>]>| {
            mxv_batch::<bool, bool, bool, _>(masks, BoolOrAnd, &g, rows, &desc_bfs(), None, None)
        };
        for r in [
            run(&[empty(4), empty(4)], None),
            run(&[empty(5), empty(4)], None),
            run(&[empty(5), empty(5)], Some(&one_mask)),
        ] {
            assert!(matches!(r, Err(GrbError::DimensionMismatch { .. })));
        }
    }

    #[test]
    fn empty_rows_cost_nothing_and_stay_empty() {
        let g = diamond();
        let batch = vec![Vector::<bool>::new_sparse(5, false); 3];
        let c = AccessCounters::new();
        let desc = desc_bfs().force(Direction::Push);
        let out: Vec<Vector<bool>> =
            mxv_batch(None, BoolOrAnd, &g, &batch, &desc, Some(&c), None).unwrap();
        assert!(out.iter().all(|row| row.nnz() == 0));
        let snap = c.snapshot();
        assert_eq!(snap.matrix, 0, "no expansion for empty frontiers");
        assert_eq!(snap.sort, 0);
    }

    /// A mixed-direction batch (row 0 dense → pull, rows 1–2 sparse → push).
    fn attribution_batch() -> Vec<Vector<bool>> {
        let mut dense_row = Vector::from_sparse(5, false, vec![0, 1, 2], vec![true; 3]);
        dense_row.make_dense();
        vec![
            dense_row,
            Vector::singleton(5, false, 0, true),
            Vector::singleton(5, false, 2, true),
        ]
    }

    #[test]
    fn attributed_rows_match_their_solo_runs() {
        let batch = attribution_batch();
        let rows: Vec<AccessCounters> = (0..3).map(|_| AccessCounters::new()).collect();
        let row_refs: Vec<&AccessCounters> = rows.iter().collect();
        let shared = AccessCounters::new();
        let out: Vec<Vector<bool>> = mxv_batch(
            None,
            BoolOrAnd,
            &diamond(),
            &batch,
            &desc_bfs(),
            Some(&shared),
            Some(&row_refs),
        )
        .unwrap();
        for (r, row) in rows.iter().enumerate() {
            // Solo = the same row as a k=1 attributed batch.
            let solo_row = AccessCounters::new();
            let solo_shared = AccessCounters::new();
            let solo: Vec<Vector<bool>> = mxv_batch(
                None,
                BoolOrAnd,
                &diamond(),
                &batch[r..=r],
                &desc_bfs(),
                Some(&solo_shared),
                Some(&[&solo_row]),
            )
            .unwrap();
            assert_eq!(explicit(&out[r]), explicit(&solo[0]), "row {r} values");
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
        let a: Vec<Vector<bool>> = mxv_batch(
            None,
            BoolOrAnd,
            &diamond(),
            &batch,
            &desc_bfs(),
            Some(&attributed_shared),
            Some(&row_refs),
        )
        .unwrap();
        let plain_shared = AccessCounters::new();
        let b: Vec<Vector<bool>> = mxv_batch(
            None,
            BoolOrAnd,
            &diamond(),
            &batch,
            &desc_bfs(),
            Some(&plain_shared),
            None,
        )
        .unwrap();
        for r in 0..3 {
            assert_eq!(explicit(&a[r]), explicit(&b[r]), "row {r}");
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
        let out: Vec<Vector<bool>> = mxv_batch(
            None,
            BoolOrAnd,
            &diamond(),
            &batch,
            &desc_bfs(),
            Some(&shared),
            Some(&row_refs),
        )
        .unwrap();
        assert_eq!(rows[1].stop_reason(), Some(StopReason::Deadline));
        assert_eq!(rows[0].stop_reason(), None);
        assert_eq!(rows[2].stop_reason(), None);

        // Siblings are bit-identical to an untripped run.
        let clean: Vec<Vector<bool>> =
            mxv_batch(None, BoolOrAnd, &diamond(), &batch, &desc_bfs(), None, None).unwrap();
        assert_eq!(explicit(&out[0]), explicit(&clean[0]));
        assert_eq!(explicit(&out[2]), explicit(&clean[2]));
    }

    #[test]
    fn denied_pull_buffer_stops_only_its_row() {
        use crate::{ExecLimits, StopReason};

        // Row 0 pulls (dense input) under a bytes budget its output buffer
        // overruns: the kernel allocates nothing and the row comes back
        // empty, at full dimension, while its siblings run as if alone.
        let batch = attribution_batch();
        let rows: Vec<AccessCounters> = (0..3).map(|_| AccessCounters::new()).collect();
        rows[0].install_limits(&ExecLimits::none().with_bytes_budget(1));
        let row_refs: Vec<&AccessCounters> = rows.iter().collect();
        let out: Vec<Vector<bool>> = mxv_batch(
            None,
            BoolOrAnd,
            &diamond(),
            &batch,
            &desc_bfs(),
            None,
            Some(&row_refs),
        )
        .unwrap();
        assert_eq!(rows[0].stop_reason(), Some(StopReason::BytesBudget));
        assert_eq!((out[0].dim(), out[0].nnz()), (5, 0));
        let clean: Vec<Vector<bool>> =
            mxv_batch(None, BoolOrAnd, &diamond(), &batch, &desc_bfs(), None, None).unwrap();
        for r in [1, 2] {
            assert_eq!(explicit(&out[r]), explicit(&clean[r]), "row {r}");
        }
    }

    #[test]
    fn row_counter_count_mismatch_reported() {
        let g = diamond();
        let batch = vec![Vector::<bool>::new_sparse(5, false); 2];
        let one = AccessCounters::new();
        let r: GrbResult<Vec<Vector<bool>>> = mxv_batch(
            None,
            BoolOrAnd,
            &g,
            &batch,
            &desc_bfs(),
            None,
            Some(&[&one]),
        );
        assert!(matches!(r, Err(GrbError::DimensionMismatch { .. })));
    }
}
