//! Ligra-like vertex-centric framework (Shun & Blelloch 2013).
//!
//! Ligra is the fastest multi-threaded CPU framework in the paper's study
//! and the first to generalize push-pull beyond BFS. Its defining
//! abstraction is `edgeMap(G, frontier, update, cond)` with an automatic
//! representation/direction switch: when the frontier (plus its out-edges)
//! exceeds |E|/20, it switches to a *dense* backward traversal over all
//! vertices failing `cond`, with an early break once `update` succeeds —
//! otherwise it runs sparse forward traversal with atomic claims. We
//! reproduce that abstraction (specialized to the BFS functor) including
//! the |E|/20 threshold.

use crate::{BfsEngine, UNREACHED};
use graphblas_matrix::{Graph, VertexId};
use graphblas_primitives::AtomicBitVec;
use rayon::prelude::*;

/// Ligra's edgeMap threshold: dense mode when frontier work > |E| / 20.
const DENSE_FRACTION: usize = 20;

/// Beamer's memoryless rule as Ligra applies it: a level runs dense exactly
/// when the frontier's vertices plus their out-edges exceed `|E| / 20`.
fn dense_mode(activity: usize, n_edges: usize) -> bool {
    activity * DENSE_FRACTION > n_edges
}

/// Vertex-centric push-pull BFS with Ligra's switching rule.
#[derive(Default)]
pub struct LigraLike {
    _private: (),
}

impl BfsEngine for LigraLike {
    fn name(&self) -> &'static str {
        "Ligra-like"
    }

    fn bfs(&self, g: &Graph<bool>, source: VertexId) -> Vec<i32> {
        let n = g.n_vertices();
        assert!((source as usize) < n);
        let a = g.csr();
        let at = g.csr_t();
        let visited = AtomicBitVec::new(n);
        visited.set(source as usize);
        let mut depth = vec![UNREACHED; n];
        depth[source as usize] = 0;
        let mut frontier: Vec<VertexId> = vec![source];
        let mut d = 0i32;

        while !frontier.is_empty() {
            d += 1;
            let frontier_edges: usize = frontier.iter().map(|&u| a.degree(u as usize)).sum();
            let next: Vec<VertexId> = if dense_mode(frontier.len() + frontier_edges, g.n_edges()) {
                // edgeMapDense: every unvisited vertex scans in-neighbors,
                // breaking at the first frontier parent.
                let in_frontier = {
                    let f = AtomicBitVec::new(n);
                    frontier.par_iter().for_each(|&u| {
                        f.set(u as usize);
                    });
                    f
                };
                (0..n as u32)
                    .into_par_iter()
                    .filter(|&v| {
                        if visited.get(v as usize) {
                            return false;
                        }
                        for &p in at.row(v as usize) {
                            if in_frontier.get(p as usize) {
                                // cond satisfied; claim is uncontended in
                                // dense mode (one task per v).
                                visited.set(v as usize);
                                return true;
                            }
                        }
                        false
                    })
                    .collect()
            } else {
                // edgeMapSparse: frontier vertices claim children atomically.
                frontier
                    .par_iter()
                    .flat_map_iter(|&u| {
                        a.row(u as usize)
                            .iter()
                            .copied()
                            .filter(|&v| visited.set(v as usize))
                            .collect::<Vec<_>>()
                    })
                    .collect()
            };
            for &v in &next {
                depth[v as usize] = d;
            }
            frontier = next;
        }
        depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::textbook::bfs_serial;
    use graphblas_gen::grid::{road_mesh, RoadParams};
    use graphblas_gen::rmat::{rmat, RmatParams};

    fn sorted(mut d: Vec<i32>) -> Vec<i32> {
        d.sort_unstable();
        d
    }

    #[test]
    fn dense_mode_boundary_is_strict() {
        assert!(!dense_mode(1, 1000));
        assert!(dense_mode(51, 1000));
        assert!(!dense_mode(50, 1000), "boundary is strict >");
    }

    #[test]
    fn matches_oracle_on_scale_free() {
        // Dense-heavy traversal: must exercise edgeMapDense.
        let g = rmat(12, 16, RmatParams::default(), 8);
        for src in [0u32, 2048] {
            let got = LigraLike::default().bfs(&g, src);
            let expect = bfs_serial(&g, src);
            assert_eq!(got, expect, "depth mismatch from {src}");
        }
    }

    #[test]
    fn matches_oracle_on_mesh() {
        // Sparse-heavy traversal: edgeMapSparse for thousands of levels.
        let g = road_mesh(60, 60, RoadParams::default(), 5);
        let got = LigraLike::default().bfs(&g, 10);
        assert_eq!(got, bfs_serial(&g, 10));
    }

    #[test]
    fn depth_histogram_stable_across_runs() {
        // Parallel claim order varies, but depths are deterministic.
        let g = rmat(10, 8, RmatParams::default(), 4);
        let a = LigraLike::default().bfs(&g, 1);
        let b = LigraLike::default().bfs(&g, 1);
        assert_eq!(sorted(a), sorted(b));
    }
}
