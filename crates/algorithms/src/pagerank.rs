//! PageRank, standard and *adaptive* — the paper's flagship example of
//! masking beyond BFS (§1, §5.6: "when the PageRank value has converged
//! for a particular node" the output sparsity is known a priori).
//!
//! Standard power iteration runs a dense row-based matvec per step
//! (`O(nnz(A))`). Adaptive PageRank (Kamvar, Haveliwala & Golub 2004)
//! freezes vertices whose value has converged; the set of *non-converged*
//! vertices is exactly an output-sparsity mask, so each iteration runs the
//! masked row kernel at `O(d·nnz(m))` — the same Table 1 asymptotics that
//! make pull-BFS fast, transplanted to a numeric algorithm.

use graphblas_core::descriptor::{Descriptor, Direction};
use graphblas_core::mask::Mask;
use graphblas_core::mxv;
use graphblas_core::ops::PlusTimes;
use graphblas_core::vector::{DenseVector, Vector};
use graphblas_core::{run_guarded, ExecLimits, FusedMxv, GrbResult};
use graphblas_matrix::{Csr, Graph, VertexId};
use graphblas_primitives::counters::AccessCounters;
use graphblas_primitives::BitVec;

/// PageRank options.
#[derive(Clone, Copy, Debug)]
pub struct PageRankOpts {
    /// Damping factor α (0.85 standard).
    pub damping: f64,
    /// L1 convergence tolerance on the whole vector.
    pub tol: f64,
    /// Per-entry freeze tolerance for the adaptive variant.
    pub entry_tol: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Run each iteration as one fused mxv·apply·assign pass (default):
    /// the teleport/damping/dangling update (`GrB_apply`) and the write
    /// into the next rank vector fuse into the masked row kernel, so the
    /// per-iteration inflow vector is never materialized. Bit-identical
    /// either way (the fused pipeline assigns every allowed row, matching
    /// how the unfused loop reads its dense intermediate).
    pub fused: bool,
    /// Execution limits enforced by [`try_pagerank_with_counters`]; the
    /// infallible entry points ignore this field.
    pub limits: ExecLimits,
}

impl Default for PageRankOpts {
    fn default() -> Self {
        Self {
            damping: 0.85,
            tol: 1e-7,
            entry_tol: 1e-9,
            max_iters: 200,
            fused: true,
            limits: ExecLimits::none(),
        }
    }
}

/// Result of a PageRank run.
#[derive(Clone, Debug)]
pub struct PageRankResult {
    /// The rank vector (sums to ~1).
    pub ranks: Vec<f64>,
    /// Iterations executed.
    pub iters: usize,
    /// Total row-updates performed (masked runs do fewer — the measurable
    /// win of adaptive masking).
    pub row_updates: usize,
}

/// Build the column-stochastic transition structure: entry (u, v) of `A`
/// holds `1/outdeg(u)`, so row `v` of `Aᵀ` gathers `r(u)/outdeg(u)` from
/// each in-neighbor `u`.
#[must_use]
pub fn transition_matrix(g: &Graph<bool>) -> Graph<f64> {
    let a = g.csr();
    let n = a.n_rows();
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.extend_from_slice(a.row_ptr());
    let col_ind = a.col_ind().to_vec();
    let mut values = Vec::with_capacity(a.nnz());
    for u in 0..n {
        let deg = a.degree(u).max(1);
        values.extend(std::iter::repeat_n(1.0 / deg as f64, a.degree(u)));
    }
    Graph::from_csr(Csr::from_parts(n, a.n_cols(), row_ptr, col_ind, values))
}

/// Standard power-iteration PageRank (dense row-based matvec per step).
#[must_use]
pub fn pagerank(g: &Graph<bool>, opts: &PageRankOpts) -> PageRankResult {
    pagerank_with_counters(g, opts, false, None)
}

/// Adaptive PageRank: converged entries are frozen and masked out of the
/// matvec (Kamvar et al. 2004, via the paper's masking formalism).
#[must_use]
pub fn adaptive_pagerank(g: &Graph<bool>, opts: &PageRankOpts) -> PageRankResult {
    pagerank_with_counters(g, opts, true, None)
}

/// PageRank (standard or adaptive) with optional access counters.
#[must_use]
pub fn pagerank_with_counters(
    g: &Graph<bool>,
    opts: &PageRankOpts,
    adaptive: bool,
    counters: Option<&AccessCounters>,
) -> PageRankResult {
    pagerank_loop(g, opts, adaptive, counters)
        .expect("unlimited PageRank with verified dims cannot abort")
}

/// PageRank under the options' [`ExecLimits`] with full fault isolation
/// (see [`crate::bfs::try_bfs_with_opts`] for the abort/retry contract).
pub fn try_pagerank_with_counters(
    g: &Graph<bool>,
    opts: &PageRankOpts,
    adaptive: bool,
    counters: Option<&AccessCounters>,
) -> GrbResult<PageRankResult> {
    run_guarded(counters, &opts.limits, |c| {
        pagerank_loop(g, opts, adaptive, c)
    })
}

fn pagerank_loop(
    g: &Graph<bool>,
    opts: &PageRankOpts,
    adaptive: bool,
    counters: Option<&AccessCounters>,
) -> GrbResult<PageRankResult> {
    let n = g.n_vertices();
    assert!(n > 0, "empty graph");
    let t = transition_matrix(g);
    let a = g.csr();
    let teleport = (1.0 - opts.damping) / n as f64;

    let mut ranks = vec![1.0 / n as f64; n];
    let mut active = BitVec::new(n);
    for i in 0..n {
        active.set(i);
    }
    let mut active_list: Vec<VertexId> = (0..n as VertexId).collect();
    let mut iters = 0usize;
    let mut row_updates = 0usize;
    let desc = Descriptor::new().transpose(true).force(Direction::Pull);

    while iters < opts.max_iters {
        iters += 1;
        // Dangling mass: vertices with no out-edges leak rank; spread it.
        let dangling: f64 = (0..n)
            .filter(|&u| a.degree(u) == 0)
            .map(|u| ranks[u])
            .sum::<f64>()
            / n as f64;

        let r_vec = Vector::Dense(DenseVector::from_values(ranks.clone(), 0.0));
        let mut l1 = 0.0f64;
        let mut next = ranks.clone();
        if opts.fused {
            // Fused: the rank update (GrB_apply) and the write into `next`
            // happen inside the masked row kernel; the inflow vector is
            // never materialized. `keep_identity` assigns every allowed
            // row — zero-inflow vertices still receive teleport + dangling
            // mass, exactly as the unfused loop reads them from its dense
            // intermediate.
            let damping = opts.damping;
            let rank_update = move |inflow: f64| teleport + damping * (inflow + dangling);
            // The assigned set is known a priori (the active list, or
            // every row), so skip collecting the touched index list.
            if adaptive {
                let mask = Mask::new(&active).with_active_list(&active_list);
                row_updates += active_list.len();
                FusedMxv::new(PlusTimes, &t, &r_vec)
                    .mask(&mask)
                    .descriptor(desc)
                    .counters(counters)
                    .keep_identity(true)
                    .collect_touched(false)
                    .apply(rank_update)
                    .assign_into(&mut next, |_, z| Some(z))
            } else {
                row_updates += n;
                FusedMxv::new(PlusTimes, &t, &r_vec)
                    .descriptor(desc)
                    .counters(counters)
                    .keep_identity(true)
                    .collect_touched(false)
                    .apply(rank_update)
                    .assign_into(&mut next, |_, z| Some(z))
            }?;
            // L1 drift over that same set, in the unfused loop's index
            // order so the f64 sum groups identically.
            if adaptive {
                for &i in &active_list {
                    l1 += (next[i as usize] - ranks[i as usize]).abs();
                }
            } else {
                for i in 0..n {
                    l1 += (next[i] - ranks[i]).abs();
                }
            }
        } else {
            let contrib: Vector<f64> = if adaptive {
                let mask = Mask::new(&active).with_active_list(&active_list);
                row_updates += active_list.len();
                mxv(Some(&mask), PlusTimes, &t, &r_vec, &desc, counters)?
            } else {
                row_updates += n;
                mxv(None, PlusTimes, &t, &r_vec, &desc, counters)?
            };

            let update = |i: usize, next: &mut Vec<f64>, l1: &mut f64| {
                let inflow = contrib.get(i as u32);
                let new = teleport + opts.damping * (inflow + dangling);
                *l1 += (new - next[i]).abs();
                next[i] = new;
            };
            if adaptive {
                for &i in &active_list {
                    update(i as usize, &mut next, &mut l1);
                }
            } else {
                for i in 0..n {
                    update(i, &mut next, &mut l1);
                }
            }
        }

        // Adaptive: freeze entries whose change fell below entry_tol.
        if adaptive {
            active_list.retain(|&i| {
                let changed = (next[i as usize] - ranks[i as usize]).abs() > opts.entry_tol;
                if !changed {
                    active.clear(i as usize);
                }
                changed
            });
        }
        ranks = next;
        if l1 < opts.tol || (adaptive && active_list.is_empty()) {
            break;
        }
    }

    Ok(PageRankResult {
        ranks,
        iters,
        row_updates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_gen::erdos::erdos_renyi;
    use graphblas_gen::powerlaw::{chung_lu, PowerLawParams};
    use graphblas_matrix::Coo;

    #[test]
    fn ranks_sum_to_one() {
        let g = erdos_renyi(500, 3000, 5);
        let r = pagerank(&g, &PageRankOpts::default());
        let total: f64 = r.ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "sum {total}");
    }

    #[test]
    fn symmetric_star_center_dominates() {
        let mut coo = Coo::new(5, 5);
        for leaf in 1..5u32 {
            coo.push(0, leaf, true);
        }
        coo.clean_undirected();
        let g = Graph::from_coo(&coo);
        let r = pagerank(&g, &PageRankOpts::default());
        for leaf in 1..5 {
            assert!(r.ranks[0] > 2.0 * r.ranks[leaf], "center must dominate");
        }
    }

    #[test]
    fn cycle_is_uniform() {
        let n = 8;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i as u32, ((i + 1) % n) as u32, true);
        }
        let g = Graph::from_coo(&coo);
        let r = pagerank(&g, &PageRankOpts::default());
        for &x in &r.ranks {
            assert!((x - 1.0 / n as f64).abs() < 1e-6);
        }
    }

    #[test]
    fn adaptive_matches_standard_within_tolerance() {
        let g = chung_lu(2000, 8, PowerLawParams::default(), 3);
        let opts = PageRankOpts::default();
        let standard = pagerank(&g, &opts);
        let adaptive = adaptive_pagerank(&g, &opts);
        let linf = standard
            .ranks
            .iter()
            .zip(&adaptive.ranks)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(linf < 1e-5, "adaptive deviates by {linf}");
    }

    #[test]
    fn adaptive_does_less_work() {
        let g = chung_lu(2000, 8, PowerLawParams::default(), 3);
        let opts = PageRankOpts::default();
        let standard = pagerank(&g, &opts);
        let adaptive = adaptive_pagerank(&g, &opts);
        assert!(
            adaptive.row_updates < standard.row_updates,
            "masked iterations must shrink: {} vs {}",
            adaptive.row_updates,
            standard.row_updates
        );
    }

    #[test]
    fn dangling_vertices_do_not_lose_mass() {
        // Directed: 0 -> 1, 1 has no out-edges (dangling).
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, true);
        coo.push(2, 0, true);
        let g = Graph::from_coo(&coo);
        let r = pagerank(&g, &PageRankOpts::default());
        let total: f64 = r.ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "sum {total}");
    }
}
