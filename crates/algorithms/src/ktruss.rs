//! k-truss decomposition by iterated masked SpGEMM — an extension of the
//! triangle-counting generality claim (§5.6): the support of every edge is
//! `C⟨A⟩ = A·A` (triangles through that edge), output sparsity known a
//! priori to be the edge set itself, so the mask does the heavy lifting on
//! every peeling round.
//!
//! The k-truss of `G` is the maximal subgraph in which every edge
//! participates in at least `k − 2` triangles. Rounds alternate: compute
//! per-edge support with the masked product, drop under-supported edges
//! with `select`, repeat until stable.

use graphblas_core::mxm::mxm;
use graphblas_core::ops::PlusTimes;
use graphblas_matrix::{Csr, Graph};

/// Result of a k-truss run.
#[derive(Clone, Debug)]
pub struct KtrussResult {
    /// Adjacency of the k-truss subgraph (symmetric, unit values).
    pub truss: Csr<u64>,
    /// Peeling rounds until fixpoint.
    pub rounds: usize,
}

/// Compute the k-truss subgraph for `k ≥ 2`.
#[must_use]
pub fn ktruss(g: &Graph<bool>, k: u32) -> KtrussResult {
    assert!(k >= 2, "k-truss defined for k >= 2");
    let need = u64::from(k - 2);
    // Work on the symmetric adjacency with unit weights.
    let mut a: Csr<u64> = g.csr().map_values(|_| 1u64);
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        // Support: s(u,v) = #common neighbors = (A·A)(u,v), masked to A.
        let support = mxm(Some(&a), PlusTimes, &a, &a, None);
        // Keep edges with support ≥ k−2. `support` only holds entries with
        // ≥1 triangle; edges of A absent from `support` have support 0.
        let keep = |i: usize, j: u32| -> bool {
            if need == 0 {
                return true;
            }
            match support.row(i).binary_search(&j) {
                Ok(pos) => support.row_values(i)[pos] >= need,
                Err(_) => false,
            }
        };
        let next = a.select(|i, j, _| keep(i, j));
        if next.nnz() == a.nnz() {
            return KtrussResult { truss: a, rounds };
        }
        a = next;
        if a.nnz() == 0 {
            return KtrussResult { truss: a, rounds };
        }
    }
}

/// Check the k-truss property directly (test helper): every edge of the
/// subgraph closes at least `k − 2` triangles inside the subgraph.
#[must_use]
pub fn verify_ktruss(truss: &Csr<u64>, k: u32) -> bool {
    let need = (k - 2) as usize;
    for u in 0..truss.n_rows() {
        for &v in truss.row(u) {
            let common = intersect_count(truss.row(u), truss.row(v as usize));
            if common < need {
                return false;
            }
        }
    }
    true
}

fn intersect_count(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut c) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_gen::erdos::erdos_renyi;
    use graphblas_matrix::Coo;

    fn complete(n: usize) -> Graph<bool> {
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
    fn complete_graph_survives_up_to_its_order() {
        let g = complete(5); // K5: every edge in 3 triangles.
        let t5 = ktruss(&g, 5);
        assert_eq!(t5.truss.nnz(), 20, "K5 is itself a 5-truss");
        let t6 = ktruss(&g, 6);
        assert_eq!(t6.truss.nnz(), 0, "no 6-truss in K5");
    }

    #[test]
    fn pendant_edges_peel_at_k3() {
        // Triangle 0-1-2 with a tail 2-3.
        let mut coo = Coo::new(4, 4);
        for &(u, v) in &[(0u32, 1u32), (1, 2), (0, 2), (2, 3)] {
            coo.push(u, v, true);
        }
        coo.clean_undirected();
        let g = Graph::from_coo(&coo);
        let r = ktruss(&g, 3);
        assert_eq!(r.truss.nnz(), 6, "only the triangle survives");
        assert!(verify_ktruss(&r.truss, 3));
        assert_eq!(r.truss.row(3), &[] as &[u32]);
    }

    #[test]
    fn k2_is_identity() {
        let g = erdos_renyi(200, 800, 5);
        let r = ktruss(&g, 2);
        assert_eq!(r.truss.nnz(), g.n_edges());
        assert_eq!(r.rounds, 1);
    }

    #[test]
    fn result_satisfies_truss_property() {
        let g = erdos_renyi(150, 2000, 9);
        for k in [3u32, 4, 5] {
            let r = ktruss(&g, k);
            assert!(verify_ktruss(&r.truss, k), "k = {k}");
        }
    }

    #[test]
    fn nested_trusses() {
        let g = erdos_renyi(150, 2000, 11);
        let t3 = ktruss(&g, 3);
        let t4 = ktruss(&g, 4);
        assert!(t4.truss.nnz() <= t3.truss.nnz(), "trusses are nested");
    }
}
