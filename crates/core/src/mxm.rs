//! Masked sparse matrix-matrix multiply (GrB_mxm).
//!
//! §5.6 claims masking generalizes "to any algorithm where the output
//! sparsity is known before the operation", naming triangle counting first.
//! There the mask is a *matrix* pattern: triangles are counted by
//! `C⟨L⟩ = L·L` — only entries of `C` that coincide with an edge of the
//! lower triangle `L` are wanted, so the masked Gustavson row product can
//! skip accumulating everything else. This module provides exactly that
//! kernel and is what `graphblas_algo::tricount` builds on.

use crate::ops::{Monoid, Scalar, Semiring};
use graphblas_matrix::Csr;
use graphblas_primitives::counters::AccessCounters;
use graphblas_primitives::Spa;
use rayon::prelude::*;

/// `C = A·B` (optionally `C⟨M⟩ = A·B`) over a semiring, Gustavson row-wise
/// with a SPA. When `mask` is given, row `i` of the output is restricted to
/// the column pattern of `mask.row(i)` (structural; mask values ignored).
///
/// With a mask whose rows are short, the per-row cost drops from
/// "all reachable columns" to "mask row length" probes — the matrix-level
/// analog of Table 1's `O(dM) → O(d·nnz(m))`.
///
/// `counters` charges the same categories as the matvec kernels, making
/// the SpGEMM face of batching measurable alongside `mxv`/`mxv_batch`:
/// `matrix` counts the expanded `(A-entry, B-entry)` products examined,
/// `mask` the per-product mask-row probes, and `vector` the SPA scatters
/// plus harvests. Counting is bulk per row, never per element in the hot
/// loop, so instrumented runs stay exact and cheap under concurrency.
#[must_use]
pub fn mxm<A, B, Y, S, M>(
    mask: Option<&Csr<M>>,
    s: S,
    a: &Csr<A>,
    b: &Csr<B>,
    counters: Option<&AccessCounters>,
) -> Csr<Y>
where
    A: Scalar,
    B: Scalar,
    Y: Scalar,
    M: Scalar,
    S: Semiring<A, B, Y>,
{
    assert_eq!(a.n_cols(), b.n_rows(), "inner dimensions must agree");
    if let Some(m) = mask {
        assert_eq!(m.n_rows(), a.n_rows(), "mask rows must match output");
        assert_eq!(m.n_cols(), b.n_cols(), "mask cols must match output");
    }
    let add = s.add_monoid();
    let identity = add.identity();

    // Each worker owns a SPA sized to the output width; rows are processed
    // in parallel and assembled in row order afterwards.
    let rows: Vec<(Vec<u32>, Vec<Y>)> = (0..a.n_rows())
        .into_par_iter()
        .map_init(
            || Spa::new(b.n_cols(), identity),
            |spa, i| match mask {
                Some(m) => masked_row(s, add, a, b, m, i, spa, counters),
                None => unmasked_row(s, add, a, b, i, spa, counters),
            },
        )
        .collect();

    let mut row_ptr = Vec::with_capacity(a.n_rows() + 1);
    row_ptr.push(0usize);
    let mut total = 0usize;
    for (ids, _) in &rows {
        total += ids.len();
        row_ptr.push(total);
    }
    let mut col_ind = Vec::with_capacity(total);
    let mut values = Vec::with_capacity(total);
    for (ids, vals) in rows {
        col_ind.extend(ids);
        values.extend(vals);
    }
    Csr::from_parts(a.n_rows(), b.n_cols(), row_ptr, col_ind, values)
}

#[allow(clippy::too_many_arguments)]
fn unmasked_row<A, B, Y, S, Add>(
    s: S,
    add: Add,
    a: &Csr<A>,
    b: &Csr<B>,
    i: usize,
    spa: &mut Spa<Y>,
    counters: Option<&AccessCounters>,
) -> (Vec<u32>, Vec<Y>)
where
    A: Scalar,
    B: Scalar,
    Y: Scalar,
    S: Semiring<A, B, Y>,
    Add: Monoid<Y>,
{
    let identity = add.identity();
    let mut examined = 0u64;
    for (idx, &k) in a.row(i).iter().enumerate() {
        let av = a.row_values(i)[idx];
        let k = k as usize;
        examined += b.row(k).len() as u64;
        for (jdx, &j) in b.row(k).iter().enumerate() {
            let prod = s.mult(av, b.row_values(k)[jdx]);
            spa.accumulate(j, prod, |x, y| add.op(x, y));
        }
    }
    if let Some(c) = counters {
        c.add_matrix(examined);
        // One SPA scatter per product plus the harvest.
        c.add_vector(2 * examined);
    }
    let (ids, vals) = spa.drain_sorted();
    // Drop identity-valued entries (implicit zeros).
    let mut out_ids = Vec::with_capacity(ids.len());
    let mut out_vals = Vec::with_capacity(vals.len());
    for (id, v) in ids.into_iter().zip(vals) {
        if v != identity {
            out_ids.push(id);
            out_vals.push(v);
        }
    }
    (out_ids, out_vals)
}

#[allow(clippy::too_many_arguments)]
fn masked_row<A, B, Y, S, Add, M>(
    s: S,
    add: Add,
    a: &Csr<A>,
    b: &Csr<B>,
    mask: &Csr<M>,
    i: usize,
    spa: &mut Spa<Y>,
    counters: Option<&AccessCounters>,
) -> (Vec<u32>, Vec<Y>)
where
    A: Scalar,
    B: Scalar,
    Y: Scalar,
    M: Scalar,
    S: Semiring<A, B, Y>,
    Add: Monoid<Y>,
{
    let allowed = mask.row(i);
    if allowed.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let identity = add.identity();
    // Accumulate products, but only into columns the mask row allows.
    // `allowed` is sorted, so membership is a binary search; for the short
    // mask rows of triangle counting this beats accumulating everything.
    let mut examined = 0u64;
    let mut kept = 0u64;
    for (idx, &k) in a.row(i).iter().enumerate() {
        let av = a.row_values(i)[idx];
        let k = k as usize;
        examined += b.row(k).len() as u64;
        for (jdx, &j) in b.row(k).iter().enumerate() {
            if allowed.binary_search(&j).is_ok() {
                let prod = s.mult(av, b.row_values(k)[jdx]);
                spa.accumulate(j, prod, |x, y| add.op(x, y));
                kept += 1;
            }
        }
    }
    if let Some(c) = counters {
        c.add_matrix(examined);
        // Every examined product probes the mask row; only the survivors
        // touch the SPA (scatter + harvest).
        c.add_mask(examined);
        c.add_vector(2 * kept);
    }
    let (ids, vals) = spa.drain_sorted();
    let mut out_ids = Vec::with_capacity(ids.len());
    let mut out_vals = Vec::with_capacity(vals.len());
    for (id, v) in ids.into_iter().zip(vals) {
        if v != identity {
            out_ids.push(id);
            out_vals.push(v);
        }
    }
    (out_ids, out_vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::PlusTimes;
    use graphblas_matrix::Coo;

    fn dense_to_csr(rows: &[&[f64]]) -> Csr<f64> {
        let mut coo = Coo::new(rows.len(), rows[0].len());
        for (i, r) in rows.iter().enumerate() {
            for (j, &v) in r.iter().enumerate() {
                if v != 0.0 {
                    coo.push(i as u32, j as u32, v);
                }
            }
        }
        Csr::from_coo(&coo)
    }

    fn csr_to_dense(c: &Csr<f64>) -> Vec<Vec<f64>> {
        let mut out = vec![vec![0.0; c.n_cols()]; c.n_rows()];
        for (i, row_out) in out.iter_mut().enumerate() {
            for (idx, &j) in c.row(i).iter().enumerate() {
                row_out[j as usize] = c.row_values(i)[idx];
            }
        }
        out
    }

    #[test]
    fn small_dense_product() {
        let a = dense_to_csr(&[&[1.0, 2.0], &[0.0, 3.0]]);
        let b = dense_to_csr(&[&[4.0, 0.0], &[1.0, 5.0]]);
        let c = mxm(None::<&Csr<f64>>, PlusTimes, &a, &b, None);
        assert_eq!(csr_to_dense(&c), vec![vec![6.0, 10.0], vec![3.0, 15.0]]);
    }

    #[test]
    fn product_with_empty_rows() {
        let a = dense_to_csr(&[&[0.0, 0.0], &[1.0, 0.0]]);
        let b = dense_to_csr(&[&[0.0, 2.0], &[0.0, 0.0]]);
        let c = mxm(None::<&Csr<f64>>, PlusTimes, &a, &b, None);
        assert_eq!(csr_to_dense(&c), vec![vec![0.0, 0.0], vec![0.0, 2.0]]);
        assert_eq!(c.nnz(), 1);
    }

    #[test]
    fn masked_product_restricts_pattern() {
        let a = dense_to_csr(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let b = dense_to_csr(&[&[1.0, 1.0], &[1.0, 1.0]]);
        // Mask allows only the diagonal.
        let mask = dense_to_csr(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let c = mxm(Some(&mask), PlusTimes, &a, &b, None);
        assert_eq!(csr_to_dense(&c), vec![vec![2.0, 0.0], vec![0.0, 2.0]]);
    }

    #[test]
    fn masked_matches_unmasked_then_filtered() {
        // Random-ish 6x6: masked product must equal unmasked ∘ mask filter.
        let a = dense_to_csr(&[
            &[0.0, 1.0, 0.0, 2.0, 0.0, 0.0],
            &[1.0, 0.0, 3.0, 0.0, 0.0, 1.0],
            &[0.0, 0.0, 0.0, 1.0, 1.0, 0.0],
            &[2.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, 0.0, 0.0, 1.0],
            &[0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
        ]);
        let mask = dense_to_csr(&[
            &[0.0, 1.0, 1.0, 0.0, 0.0, 0.0],
            &[1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, 0.0, 1.0, 0.0],
            &[0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            &[1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        ]);
        let masked = mxm(Some(&mask), PlusTimes, &a, &a, None);
        let full = mxm(None::<&Csr<f64>>, PlusTimes, &a, &a, None);
        let fd = csr_to_dense(&full);
        let md = csr_to_dense(&masked);
        for i in 0..6 {
            for j in 0..6 {
                let allowed = mask.row(i).binary_search(&(j as u32)).is_ok();
                let expect = if allowed { fd[i][j] } else { 0.0 };
                assert_eq!(md[i][j], expect, "at ({i},{j})");
            }
        }
    }

    #[test]
    fn counters_measure_expansion_and_mask_probes() {
        let a = dense_to_csr(&[
            &[0.0, 1.0, 1.0, 0.0],
            &[1.0, 0.0, 1.0, 1.0],
            &[0.0, 1.0, 0.0, 0.0],
            &[1.0, 0.0, 1.0, 0.0],
        ]);
        // Expected expansion: Σ_i Σ_{k ∈ A(i,:)} |B(k,:)|.
        let expected: u64 = (0..4)
            .flat_map(|i| a.row(i).iter().map(|&k| a.row(k as usize).len() as u64))
            .sum();
        let unmasked = AccessCounters::new();
        let _ = mxm(None::<&Csr<f64>>, PlusTimes, &a, &a, Some(&unmasked));
        let u = unmasked.snapshot();
        assert_eq!(u.matrix, expected);
        assert_eq!(u.vector, 2 * expected, "scatter + harvest per product");
        assert_eq!(u.mask, 0);

        // Diagonal mask: same expansion, every product probes the mask,
        // and far fewer products reach the SPA.
        let mask = dense_to_csr(&[
            &[1.0, 0.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, 0.0],
            &[0.0, 0.0, 0.0, 1.0],
        ]);
        let masked = AccessCounters::new();
        let _ = mxm(Some(&mask), PlusTimes, &a, &a, Some(&masked));
        let m = masked.snapshot();
        assert_eq!(m.matrix, expected, "a mask cannot reduce expansion work");
        assert_eq!(m.mask, expected, "every product probes the mask");
        assert!(m.vector < u.vector, "mask culls SPA traffic");
    }

    #[test]
    fn triangle_count_shape() {
        // Triangle 0-1-2 plus a pendant edge 2-3 (undirected).
        let mut coo = Coo::new(4, 4);
        for &(u, v) in &[(0u32, 1u32), (1, 2), (0, 2), (2, 3)] {
            coo.push(u, v, 1.0);
        }
        coo.clean_undirected();
        let adj = Csr::from_coo(&coo);
        // Lower triangle.
        let mut lcoo = Coo::new(4, 4);
        for i in 0..4 {
            for (idx, &j) in adj.row(i).iter().enumerate() {
                if (j as usize) < i {
                    lcoo.push(i as u32, j, adj.row_values(i)[idx]);
                }
            }
        }
        let l = Csr::from_coo(&lcoo);
        let c = mxm(Some(&l), PlusTimes, &l, &l, None);
        let total: f64 = c.values().iter().sum();
        assert_eq!(total, 1.0, "exactly one triangle");
    }
}
