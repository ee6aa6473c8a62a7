//! Single-source shortest paths: Bellman-Ford over the min-plus semiring,
//! with the two-phase direction optimization of §5.6.
//!
//! §5.6: "In SSSP … a simple 2-phase direction-optimized traversal can be
//! used where the traversal is begun using unmasked column-based matvec,
//! with a switch to row-based matvec when the frontier becomes large
//! enough." The *frontier* here is the delta set — vertices whose tentative
//! distance improved last round; masking does not apply because the output
//! sparsity is unknown (any vertex might improve).
//!
//! Push rounds relax only edges out of the delta set (column kernel over a
//! sparse distance vector). Pull rounds relax every vertex against the full
//! distance vector (row kernel) — valid because min is idempotent, the same
//! argument that makes operand reuse sound for BFS.

use graphblas_core::descriptor::{Descriptor, Direction};
use graphblas_core::ops::MinPlus;
use graphblas_core::vector::Vector;
use graphblas_core::{mxv, run_guarded, DirectionPolicy, ExecLimits, FusedMxv, GrbResult};
use graphblas_matrix::{Graph, VertexId};
use graphblas_primitives::counters::AccessCounters;

/// Options for the SSSP solver.
#[derive(Clone, Copy, Debug)]
pub struct SsspOpts {
    /// Delta-set ratio at which push switches to pull (once; 2-phase).
    pub switch_threshold: f64,
    /// Disable the switch entirely (push-only Bellman-Ford).
    pub change_of_direction: bool,
    /// Safety cap on rounds (≥ diameter suffices; default |V|).
    pub max_rounds: Option<usize>,
    /// Run each round as one fused mxv·assign pass (default): the
    /// relaxation `dist ← min(dist, candidates)` becomes the fused update
    /// rule and the candidate vector is never materialized. Bit-identical
    /// either way.
    pub fused: bool,
    /// Execution limits enforced by [`try_sssp_with_counters`]; the
    /// infallible entry points ignore this field.
    pub limits: ExecLimits,
}

impl Default for SsspOpts {
    fn default() -> Self {
        Self {
            switch_threshold: 0.01,
            change_of_direction: true,
            max_rounds: None,
            fused: true,
            limits: ExecLimits::none(),
        }
    }
}

/// Result of an SSSP run.
#[derive(Clone, Debug)]
pub struct SsspResult {
    /// Tentative distances; `f32::INFINITY` where unreachable.
    pub dist: Vec<f32>,
    /// Relaxation rounds executed.
    pub rounds: usize,
    /// Rounds executed in the pull (row-based) phase.
    pub pull_rounds: usize,
}

/// Bellman-Ford from `source` on a non-negatively weighted graph.
#[must_use]
pub fn sssp(g: &Graph<f32>, source: VertexId, opts: &SsspOpts) -> SsspResult {
    sssp_with_counters(g, source, opts, None)
}

/// [`sssp`] with optional access counters.
#[must_use]
pub fn sssp_with_counters(
    g: &Graph<f32>,
    source: VertexId,
    opts: &SsspOpts,
    counters: Option<&AccessCounters>,
) -> SsspResult {
    sssp_loop(g, source, opts, counters).expect("unlimited SSSP with verified dims cannot abort")
}

/// SSSP under the options' [`ExecLimits`] with full fault isolation (see
/// [`crate::bfs::try_bfs_with_opts`] for the abort/retry contract).
pub fn try_sssp_with_counters(
    g: &Graph<f32>,
    source: VertexId,
    opts: &SsspOpts,
    counters: Option<&AccessCounters>,
) -> GrbResult<SsspResult> {
    run_guarded(counters, &opts.limits, |c| sssp_loop(g, source, opts, c))
}

fn sssp_loop(
    g: &Graph<f32>,
    source: VertexId,
    opts: &SsspOpts,
    counters: Option<&AccessCounters>,
) -> GrbResult<SsspResult> {
    let n = g.n_vertices();
    assert!((source as usize) < n, "source out of range");
    let max_rounds = opts.max_rounds.unwrap_or(n.max(1));

    let mut dist = vec![f32::INFINITY; n];
    dist[source as usize] = 0.0;
    // Delta set: vertices improved last round, with their distances.
    let mut delta: Vector<f32> = Vector::singleton(n, f32::INFINITY, source, 0.0);
    // 2-phase switch (§5.6): once the delta set crosses the threshold, stay
    // row-based for the remainder.
    let mut policy = if opts.change_of_direction {
        DirectionPolicy::two_phase(opts.switch_threshold)
    } else {
        DirectionPolicy::fixed(Direction::Push)
    };
    let mut rounds = 0usize;
    let mut pull_rounds = 0usize;
    let base = Descriptor::new().transpose(true);

    while rounds < max_rounds {
        rounds += 1;
        let dir = policy.update(delta.nnz(), n);
        if dir == Direction::Pull {
            pull_rounds += 1;
        }
        let desc = base.force(dir);

        // Pull rounds relax against the full distance vector (superset of
        // the delta — idempotent min makes the extra relaxations
        // harmless); push rounds expand only the delta set.
        let touched: Vec<u32> = if opts.fused {
            // dist ← min(dist, candidates) as the fused update rule; the
            // candidate vector never exists.
            let out = if dir == Direction::Pull {
                let full = Vector::Dense(graphblas_core::DenseVector::from_values(
                    dist.clone(),
                    f32::INFINITY,
                ));
                FusedMxv::new(MinPlus, g, &full)
                    .descriptor(desc)
                    .counters(counters)
                    .apply(|d: f32| d)
                    .assign_into(&mut dist, |old, new| (new < old).then_some(new))
            } else {
                FusedMxv::new(MinPlus, g, &delta)
                    .descriptor(desc)
                    .counters(counters)
                    .apply(|d: f32| d)
                    .assign_into(&mut dist, |old, new| (new < old).then_some(new))
            }?;
            out.touched
        } else {
            let candidates: Vector<f32> = if dir == Direction::Pull {
                let full = Vector::Dense(graphblas_core::DenseVector::from_values(
                    dist.clone(),
                    f32::INFINITY,
                ));
                mxv(None, MinPlus, g, &full, &desc, counters)?
            } else {
                mxv(None, MinPlus, g, &delta, &desc, counters)?
            };
            // dist ← min(dist, candidates); next delta = strict improvements.
            let mut ids = Vec::new();
            for (i, c) in candidates.iter_explicit() {
                if c < dist[i as usize] {
                    dist[i as usize] = c;
                    ids.push(i);
                }
            }
            ids
        };
        if touched.is_empty() {
            break;
        }
        let vals: Vec<f32> = touched.iter().map(|&i| dist[i as usize]).collect();
        delta = Vector::from_sparse(n, f32::INFINITY, touched, vals);
    }

    Ok(SsspResult {
        dist,
        rounds,
        pull_rounds,
    })
}

/// Serial Dijkstra used as the correctness oracle in tests and benches.
#[must_use]
pub fn dijkstra_oracle(g: &Graph<f32>, source: VertexId) -> Vec<f32> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n = g.n_vertices();
    let mut dist = vec![f32::INFINITY; n];
    dist[source as usize] = 0.0;
    // f32 is not Ord; order by bit pattern of non-negative floats.
    let key = |d: f32| d.to_bits();
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((key(0.0), source)));
    while let Some(Reverse((k, u))) = heap.pop() {
        if k != key(dist[u as usize]) {
            continue;
        }
        let du = dist[u as usize];
        let a = g.csr();
        for (idx, &v) in a.row(u as usize).iter().enumerate() {
            let w = a.row_values(u as usize)[idx];
            let nd = du + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((key(nd), v)));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_gen::erdos::erdos_renyi;
    use graphblas_gen::grid::{road_mesh, RoadParams};
    use graphblas_gen::rmat::{rmat, RmatParams};
    use graphblas_gen::with_uniform_weights;
    use graphblas_matrix::Coo;

    fn assert_close(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
            if x.is_infinite() || y.is_infinite() {
                assert_eq!(x, y, "at {i}");
            } else {
                assert!((x - y).abs() < 1e-4, "at {i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn tiny_weighted_graph_exact() {
        // 0 -1-> 1 -1-> 2 and 0 -5-> 2: shortest to 2 is 2.0.
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, 1.0f32);
        coo.push(1, 2, 1.0);
        coo.push(0, 2, 5.0);
        let g = Graph::from_coo(&coo);
        let r = sssp(&g, 0, &SsspOpts::default());
        assert_close(&r.dist, &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn matches_dijkstra_on_random_graph() {
        let gb = erdos_renyi(1500, 9000, 21);
        let g = with_uniform_weights(&gb, 4);
        let r = sssp(&g, 3, &SsspOpts::default());
        assert_close(&r.dist, &dijkstra_oracle(&g, 3));
    }

    #[test]
    fn matches_dijkstra_on_scale_free_and_uses_pull() {
        let gb = rmat(11, 16, RmatParams::default(), 6);
        let g = with_uniform_weights(&gb, 8);
        let r = sssp(&g, 0, &SsspOpts::default());
        assert_close(&r.dist, &dijkstra_oracle(&g, 0));
        assert!(
            r.pull_rounds > 0,
            "scale-free delta set must cross the 1% threshold"
        );
    }

    #[test]
    fn push_only_agrees_with_switching() {
        let gb = erdos_renyi(800, 4000, 9);
        let g = with_uniform_weights(&gb, 2);
        let auto = sssp(&g, 1, &SsspOpts::default());
        let push = sssp(
            &g,
            1,
            &SsspOpts {
                change_of_direction: false,
                ..SsspOpts::default()
            },
        );
        assert_close(&auto.dist, &push.dist);
        assert_eq!(push.pull_rounds, 0);
    }

    #[test]
    fn mesh_stays_push() {
        let gb = road_mesh(30, 30, RoadParams::default(), 3);
        let g = with_uniform_weights(&gb, 13);
        let r = sssp(&g, 0, &SsspOpts::default());
        assert_close(&r.dist, &dijkstra_oracle(&g, 0));
    }

    #[test]
    fn unreachable_stays_infinite() {
        let mut coo = Coo::new(4, 4);
        coo.push(0, 1, 1.0f32);
        coo.push(2, 3, 1.0);
        let g = Graph::from_coo(&coo);
        let r = sssp(&g, 0, &SsspOpts::default());
        assert_eq!(r.dist[2], f32::INFINITY);
        assert_eq!(r.dist[3], f32::INFINITY);
    }
}
