//! Triangle counting via masked SpGEMM — the first algorithm §1 names when
//! generalizing masking: "this speed-up extends to all algorithms for which
//! there is a priori information regarding the sparsity pattern of the
//! output such as triangle counting and enumeration [Azad, Buluç, Gilbert]".
//!
//! With `L` the strictly-lower triangle of the adjacency matrix, the
//! triangle count is `Σ (L·L) .∗ L` — and because the elementwise mask `L`
//! is known *before* the multiply, the masked kernel only accumulates
//! products that can survive, skipping the (much larger) full wedge set.

use graphblas_core::mxm::mxm;
use graphblas_core::ops::PlusTimes;
use graphblas_matrix::{Csr, Graph};
use graphblas_primitives::counters::AccessCounters;

/// Strictly-lower-triangular part of the adjacency structure, with
/// numeric 1 values (so plus-times counts wedges).
#[must_use]
pub fn lower_triangle(g: &Graph<bool>) -> Csr<u64> {
    let a = g.csr();
    let n = a.n_rows();
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_ind = Vec::new();
    row_ptr.push(0usize);
    for i in 0..n {
        for &j in a.row(i) {
            if (j as usize) < i {
                col_ind.push(j);
            }
        }
        row_ptr.push(col_ind.len());
    }
    let values = vec![1u64; col_ind.len()];
    Csr::from_parts(n, n, row_ptr, col_ind, values)
}

/// Count triangles with the masked SpGEMM formulation.
#[must_use]
pub fn triangle_count(g: &Graph<bool>) -> u64 {
    triangle_count_with_counters(g, None)
}

/// [`triangle_count`] with the SpGEMM's access counters exposed — the
/// measurable face of the masked-mxm claim (mask probes vs SPA traffic).
#[must_use]
pub fn triangle_count_with_counters(g: &Graph<bool>, counters: Option<&AccessCounters>) -> u64 {
    let l = lower_triangle(g);
    let c = mxm(Some(&l), PlusTimes, &l, &l, counters);
    c.values().iter().sum()
}

/// Count triangles the expensive way: full `L·L`, then filter by `L` —
/// the unmasked comparator for the masking-generality ablation bench.
#[must_use]
pub fn triangle_count_unmasked(g: &Graph<bool>) -> u64 {
    let l = lower_triangle(g);
    let full = mxm(None::<&Csr<u64>>, PlusTimes, &l, &l, None);
    let mut total = 0u64;
    for i in 0..full.n_rows() {
        let allowed = l.row(i);
        for (idx, &j) in full.row(i).iter().enumerate() {
            if allowed.binary_search(&j).is_ok() {
                total += full.row_values(i)[idx];
            }
        }
    }
    total
}

/// Brute-force oracle: check every vertex triple adjacency via sorted rows.
/// O(Σ deg²) — test-sized graphs only.
#[must_use]
pub fn triangle_oracle(g: &Graph<bool>) -> u64 {
    let a = g.csr();
    let mut count = 0u64;
    for u in 0..a.n_rows() {
        let nu = a.row(u);
        for &v in nu {
            if (v as usize) >= u {
                continue;
            }
            // Count common neighbors w < v of u and v.
            let nv = a.row(v as usize);
            let (mut i, mut j) = (0usize, 0usize);
            while i < nu.len() && j < nv.len() {
                let (x, y) = (nu[i], nv[j]);
                if x >= v || y >= v {
                    break;
                }
                match x.cmp(&y) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        count += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_gen::erdos::erdos_renyi;
    use graphblas_gen::powerlaw::{chung_lu, PowerLawParams};
    use graphblas_matrix::Coo;

    fn complete_graph(n: usize) -> Graph<bool> {
        let mut coo = Coo::new(n, n);
        for i in 0..n as u32 {
            for j in 0..i {
                coo.push(i, j, true);
            }
        }
        coo.clean_undirected();
        Graph::from_coo(&coo)
    }

    #[test]
    fn complete_graph_has_n_choose_3() {
        for n in [3usize, 4, 5, 8] {
            let g = complete_graph(n);
            let expect = (n * (n - 1) * (n - 2) / 6) as u64;
            assert_eq!(triangle_count(&g), expect, "K_{n}");
        }
    }

    #[test]
    fn triangle_free_graph_counts_zero() {
        // Even cycle is bipartite ⇒ no triangles.
        let n = 10;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i as u32, ((i + 1) % n) as u32, true);
        }
        coo.clean_undirected();
        let g = Graph::from_coo(&coo);
        assert_eq!(triangle_count(&g), 0);
    }

    #[test]
    fn masked_matches_unmasked_and_oracle() {
        let g = erdos_renyi(400, 4000, 13);
        let masked = triangle_count(&g);
        let unmasked = triangle_count_unmasked(&g);
        let oracle = triangle_oracle(&g);
        assert_eq!(masked, oracle);
        assert_eq!(unmasked, oracle);
        assert!(oracle > 0, "dense ER graph should close triangles");
    }

    #[test]
    fn scale_free_counts_match_oracle() {
        let g = chung_lu(1000, 8, PowerLawParams::default(), 3);
        assert_eq!(triangle_count(&g), triangle_oracle(&g));
    }

    #[test]
    fn counters_show_mask_culling_spgemm_traffic() {
        let g = erdos_renyi(300, 2400, 7);
        let c = AccessCounters::new();
        let count = triangle_count_with_counters(&g, Some(&c));
        assert_eq!(count, triangle_oracle(&g));
        let s = c.snapshot();
        assert!(s.matrix > 0, "wedge expansion is charged");
        assert_eq!(s.mask, s.matrix, "every wedge probes the L mask");
        assert!(
            s.vector < 2 * s.matrix,
            "mask culls SPA traffic below the unmasked bound"
        );
    }
}
