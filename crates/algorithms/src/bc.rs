//! Batched betweenness centrality (Brandes), the "batched BC" of §1/§5.6 —
//! the whole source batch advances through [`mxv_batch`] at once.
//!
//! Brandes' algorithm is two traversals per source: a forward BFS counting
//! shortest paths σ, and a backward sweep accumulating dependencies δ.
//! Both phases are *batched* masked matvecs over the plus-second semiring:
//!
//! * forward — `Σ'(s, :) = (Aᵀ Σ(s, :)) .∗ ¬visited(s, :)` for every live
//!   source in one [`mxv_batch`] call: the multi-source BFS pattern with
//!   counts instead of Booleans;
//! * backward — level by level from the deepest, each live source's row
//!   pulls `(1 + δ_w)/σ_w` from its level-`l+1` children through `A`,
//!   masked by level-`l` membership (output sparsity known a priori), then
//!   scales by `σ_v`.
//!
//! Each source carries one [`DirectionPolicy`] per sweep (§6.3
//! hysteresis), so one source can pull through its supervertex level while
//! another still pushes a thin wave. The loop calls those policies itself
//! and hands the kernel each row in the chosen direction's storage —
//! sparse to push, dense to pull — which the batch kernel's storage rule
//! honours.
//!
//! Per-source work — values and access counters — is bit-identical to `k`
//! independent single-source runs: every batch row is a single-source
//! `mxv` dispatch, and both kernel faces reduce each output vertex's
//! contributions in ascending neighbor order, so even the f64
//! accumulations agree bit-for-bit across direction choices and batch
//! sizes. A batched run's counters are the field-wise sum of its sources'
//! solo runs, steps included (this module's tests pin both;
//! `tests/thread_scaling.rs` additionally pins lane-count invariance).

use graphblas_core::descriptor::{Descriptor, Direction};
use graphblas_core::mask::Mask;
use graphblas_core::ops::PlusSecond;
use graphblas_core::ops_mxv_batch::mxv_batch;
use graphblas_core::vector::Vector;
use graphblas_core::{run_guarded, DirectionPolicy, ExecLimits, GrbResult};
use graphblas_matrix::{Graph, VertexId};
use graphblas_primitives::counters::AccessCounters;
use graphblas_primitives::BitVec;

/// Options for batched betweenness centrality.
#[derive(Clone, Copy, Debug, Default)]
pub struct BcOpts {
    /// Execution limits enforced by [`try_betweenness_with_opts`]; the
    /// infallible entry points run unlimited.
    pub limits: ExecLimits,
}

/// Betweenness scores from a batch of sources (unnormalized, directed
/// counting; for undirected BC halve the scores).
#[must_use]
pub fn betweenness(g: &Graph<bool>, sources: &[VertexId]) -> Vec<f64> {
    betweenness_with_counters(g, sources, None)
}

/// [`betweenness`] with access counters — per-source push/pull switch
/// decisions of both sweeps land in `push_steps`/`pull_steps`.
#[must_use]
pub fn betweenness_with_counters(
    g: &Graph<bool>,
    sources: &[VertexId],
    counters: Option<&AccessCounters>,
) -> Vec<f64> {
    bc_loop(g, sources, counters).expect("unlimited betweenness with verified dims cannot abort")
}

/// Betweenness under the options' [`ExecLimits`] with full fault isolation
/// (see [`crate::bfs::try_bfs_with_opts`] for the abort/retry contract).
pub fn try_betweenness_with_opts(
    g: &Graph<bool>,
    sources: &[VertexId],
    opts: &BcOpts,
    counters: Option<&AccessCounters>,
) -> GrbResult<Vec<f64>> {
    run_guarded(counters, &opts.limits, |c| bc_loop(g, sources, c))
}

fn bc_loop(
    g: &Graph<bool>,
    sources: &[VertexId],
    counters: Option<&AccessCounters>,
) -> GrbResult<Vec<f64>> {
    let n = g.n_vertices();
    let mut bc = vec![0.0f64; n];
    if sources.is_empty() {
        return Ok(bc);
    }
    let k = sources.len();
    for &s in sources {
        assert!((s as usize) < n, "source out of range");
    }
    // One descriptor per sweep: the sweeps iterate opposite orientations.
    let desc_fwd = Descriptor::new().transpose(true);
    // Children direction: A, not Aᵀ.
    let desc_bwd = Descriptor::new();

    // ---- Forward phase: batched per-level σ frontiers. ----
    let mut visited: Vec<BitVec> = sources
        .iter()
        .map(|&s| {
            let mut b = BitVec::new(n);
            b.set(s as usize);
            b
        })
        .collect();
    let mut sigma: Vec<Vec<f64>> = sources
        .iter()
        .map(|&s| {
            let mut sg = vec![0.0f64; n];
            sg[s as usize] = 1.0;
            sg
        })
        .collect();
    let mut levels: Vec<Vec<Vector<f64>>> = sources
        .iter()
        .map(|&s| vec![Vector::singleton(n, 0.0, s, 1.0)])
        .collect();
    let mut policies: Vec<DirectionPolicy> =
        (0..k).map(|_| DirectionPolicy::hysteresis(0.01)).collect();

    let mut alive: Vec<usize> = (0..k).collect();
    while !alive.is_empty() {
        // Move each live source's last level into the batch (mxv_batch
        // only borrows it), stored as its policy steers this level;
        // restored below — no O(n) clone per source per level on the hot
        // path.
        let batch: Vec<Vector<f64>> = alive
            .iter()
            .map(|&s| {
                let mut row = levels[s].pop().expect("non-empty");
                steer(&mut policies[s], &mut row, n);
                row
            })
            .collect();
        let masks: Vec<Mask<'_>> = alive
            .iter()
            .map(|&s| Mask::complement(&visited[s]))
            .collect();
        let next: Vec<Vector<f64>> = mxv_batch(
            Some(&masks),
            PlusSecond,
            g,
            &batch,
            &desc_fwd,
            counters,
            None,
        )?;
        for (row, &s) in batch.into_iter().zip(&alive) {
            levels[s].push(row);
        }

        let mut still_alive = Vec::with_capacity(alive.len());
        for (row, &s) in next.into_iter().zip(&alive) {
            let mut found = false;
            for (i, sg) in row.iter_explicit() {
                visited[s].set(i as usize);
                sigma[s][i as usize] = sg;
                found = true;
            }
            if found {
                levels[s].push(row);
                still_alive.push(s);
            }
        }
        alive = still_alive;
    }

    // ---- Backward phase: batched δ accumulation, deepest level first. ----
    let mut delta: Vec<Vec<f64>> = (0..k).map(|_| vec![0.0f64; n]).collect();
    let mut bwd_policies: Vec<DirectionPolicy> =
        (0..k).map(|_| DirectionPolicy::hysteresis(0.01)).collect();
    let max_levels = levels.iter().map(Vec::len).max().expect("k > 0");
    for l in (0..max_levels.saturating_sub(1)).rev() {
        // Sources deep enough to have a level l+1 participate this step.
        let active: Vec<usize> = (0..k).filter(|&s| levels[s].len() > l + 1).collect();
        if active.is_empty() {
            continue;
        }
        // Weights from each source's deeper level: (1 + δ_w) / σ_w.
        let rows: Vec<Vector<f64>> = active
            .iter()
            .map(|&s| {
                let deeper = &levels[s][l + 1];
                let ids: Vec<VertexId> = deeper.iter_explicit().map(|(i, _)| i).collect();
                let vals: Vec<f64> = ids
                    .iter()
                    .map(|&w| (1.0 + delta[s][w as usize]) / sigma[s][w as usize])
                    .collect();
                let mut row = Vector::from_sparse(n, 0.0, ids, vals);
                steer(&mut bwd_policies[s], &mut row, n);
                row
            })
            .collect();
        // Level-l membership masks: only that level's vertices update.
        let level_bits: Vec<BitVec> = active
            .iter()
            .map(|&s| {
                let mut bits = BitVec::new(n);
                for (i, _) in levels[s][l].iter_explicit() {
                    bits.set(i as usize);
                }
                bits
            })
            .collect();
        let masks: Vec<Mask<'_>> = level_bits.iter().map(Mask::new).collect();
        // Pull from children through A (row v of A lists v's children).
        let contrib: Vec<Vector<f64>> = mxv_batch(
            Some(&masks),
            PlusSecond,
            g,
            &rows,
            &desc_bwd,
            counters,
            None,
        )?;
        for (row, &s) in contrib.iter().zip(&active) {
            for (v, c) in row.iter_explicit() {
                delta[s][v as usize] += sigma[s][v as usize] * c;
            }
        }
    }

    // Accumulate per-source dependencies in source order (the same
    // grouping as k sequential runs).
    for (s_idx, &s) in sources.iter().enumerate() {
        for v in 0..n {
            if v != s as usize {
                bc[v] += delta[s_idx][v];
            }
        }
    }
    Ok(bc)
}

/// Feed a source's policy its row's activity and store the row the way
/// the chosen face reads it (sparse to push, dense to pull), so the batch
/// kernel's storage rule runs that face.
fn steer(policy: &mut DirectionPolicy, row: &mut Vector<f64>, n: usize) {
    match policy.update(row.nnz(), n) {
        Direction::Push => row.make_sparse(),
        Direction::Pull => row.make_dense(),
    }
}

/// Serial Brandes oracle (exact, queue-based).
#[must_use]
pub fn brandes_oracle(g: &Graph<bool>, sources: &[VertexId]) -> Vec<f64> {
    let n = g.n_vertices();
    let mut bc = vec![0.0f64; n];
    for &s in sources {
        let mut stack: Vec<u32> = Vec::new();
        let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut sigma = vec![0.0f64; n];
        let mut dist = vec![-1i64; n];
        sigma[s as usize] = 1.0;
        dist[s as usize] = 0;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            stack.push(v);
            for &w in g.children(v) {
                if dist[w as usize] < 0 {
                    dist[w as usize] = dist[v as usize] + 1;
                    queue.push_back(w);
                }
                if dist[w as usize] == dist[v as usize] + 1 {
                    sigma[w as usize] += sigma[v as usize];
                    preds[w as usize].push(v);
                }
            }
        }
        let mut delta = vec![0.0f64; n];
        while let Some(w) = stack.pop() {
            for &v in &preds[w as usize] {
                delta[v as usize] +=
                    sigma[v as usize] / sigma[w as usize] * (1.0 + delta[w as usize]);
            }
            if w != s {
                bc[w as usize] += delta[w as usize];
            }
        }
    }
    bc
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_gen::erdos::erdos_renyi;
    use graphblas_gen::powerlaw::{chung_lu, PowerLawParams};
    use graphblas_matrix::Coo;

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((x - y).abs() < 1e-6, "at {i}: {x} vs {y}");
        }
    }

    #[test]
    fn path_graph_middle_dominates() {
        // Path 0-1-2-3-4: vertex 2 lies on the most shortest paths.
        let mut coo = Coo::new(5, 5);
        for i in 0..4 {
            coo.push(i as u32, i as u32 + 1, true);
        }
        coo.clean_undirected();
        let g = Graph::from_coo(&coo);
        let sources: Vec<u32> = (0..5).collect();
        let bc = betweenness(&g, &sources);
        assert_close(&bc, &brandes_oracle(&g, &sources));
        assert!(bc[2] > bc[1] && bc[2] > bc[3]);
        assert_eq!(bc[0], 0.0);
        assert_eq!(bc[4], 0.0);
    }

    #[test]
    fn star_center_carries_everything() {
        let n = 7;
        let mut coo = Coo::new(n, n);
        for leaf in 1..n as u32 {
            coo.push(0, leaf, true);
        }
        coo.clean_undirected();
        let g = Graph::from_coo(&coo);
        let sources: Vec<u32> = (0..n as u32).collect();
        let bc = betweenness(&g, &sources);
        assert_close(&bc, &brandes_oracle(&g, &sources));
        // Center: all (n-1)(n-2) ordered leaf pairs route through it.
        assert!((bc[0] - ((n - 1) * (n - 2)) as f64).abs() < 1e-9);
        for &leaf_bc in &bc[1..n] {
            assert_eq!(leaf_bc, 0.0);
        }
    }

    #[test]
    fn batched_matches_oracle_on_random_graph() {
        let g = erdos_renyi(300, 1800, 23);
        let sources: Vec<u32> = vec![0, 5, 17, 100];
        assert_close(&betweenness(&g, &sources), &brandes_oracle(&g, &sources));
    }

    #[test]
    fn batched_matches_oracle_on_scale_free() {
        let g = chung_lu(500, 8, PowerLawParams::default(), 11);
        let sources: Vec<u32> = vec![1, 2, 3];
        assert_close(&betweenness(&g, &sources), &brandes_oracle(&g, &sources));
    }

    #[test]
    fn batch_bitwise_equals_sum_of_single_source_runs() {
        // The batched sweeps must not change a single bit relative to
        // running each source alone — the f64 accumulation grouping is
        // per-source and ascending-neighbor-ordered in both shapes.
        let g = chung_lu(400, 10, PowerLawParams::default(), 29);
        let sources: Vec<u32> = vec![0, 7, 44, 300];
        let batch = betweenness(&g, &sources);
        let mut summed = vec![0.0f64; g.n_vertices()];
        for &s in &sources {
            for (v, x) in betweenness(&g, &[s]).into_iter().enumerate() {
                summed[v] += x;
            }
        }
        let a: Vec<u64> = batch.iter().map(|x| x.to_bits()).collect();
        let b: Vec<u64> = summed.iter().map(|x| x.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn batched_betweenness_bills_the_sum_of_its_sources() {
        // Each batch row is a single-source dispatch, so a batched run
        // bills exactly what its sources bill alone: every access category
        // and both step counts, on a graph whose levels push and pull.
        let g = chung_lu(600, 12, PowerLawParams::default(), 5);
        let sources: Vec<u32> = vec![1, 2, 3, 4, 250];
        let batched = AccessCounters::new();
        let _ = betweenness_with_counters(&g, &sources, Some(&batched));
        let summed = AccessCounters::new();
        for &s in &sources {
            let solo = AccessCounters::new();
            let _ = betweenness_with_counters(&g, &[s], Some(&solo));
            summed.absorb(&solo.snapshot());
        }
        let snap = batched.snapshot();
        assert!(snap.push_steps > 0 && snap.pull_steps > 0, "both faces run");
        assert_eq!(snap, summed.snapshot());
    }

    #[test]
    fn counters_expose_direction_switches() {
        let g = chung_lu(600, 12, PowerLawParams::default(), 5);
        let sources: Vec<u32> = vec![1, 2, 3, 4];
        let c = AccessCounters::new();
        let bc = betweenness_with_counters(&g, &sources, Some(&c));
        assert_close(&bc, &brandes_oracle(&g, &sources));
        let snap = c.snapshot();
        assert!(snap.push_steps > 0, "thin early frontiers push");
        assert!(snap.pull_steps > 0, "supervertex levels pull");
    }

    #[test]
    fn empty_source_batch_is_all_zeros() {
        let g = erdos_renyi(50, 200, 3);
        assert_eq!(betweenness(&g, &[]), vec![0.0; 50]);
    }
}
