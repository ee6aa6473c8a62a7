//! Parent-pointer BFS — the Graph500 output format (the benchmark 32 of
//! the top 37 entries of which run direction-optimized BFS, per the
//! paper's introduction).
//!
//! Instead of depths, each vertex records *which* parent discovered it.
//! In GraphBLAS form the frontier carries vertex ids and the semiring is
//! (min, second): a child reduces the ids of its frontier parents with
//! `min`, making the tree deterministic in both directions (a plain
//! "any parent" formulation would let push and pull disagree). The
//! *unfused* early-exit of Optimization 3 cannot fire here — `min`'s
//! annihilator is vertex id 0 — the paper's point that Optimization 3 is
//! semiring-specific (§5.6).
//!
//! The **fused** pipeline recovers the exit the semiring forbids: because
//! the frontier carries each vertex's *own id* as its value and neighbor
//! lists are scanned ascending, the first explicit parent a pull row hits
//! *is* the minimum one, so every fused pull row stops there
//! ([`first_hit_exit`](graphblas_core::fused::FusedMxv::first_hit_exit)) —
//! same tree bit-for-bit, strictly less matrix traffic. This per-row exit
//! is expressible only in the fused form: the standalone kernel cannot
//! know the input's values encode its indices.
//!
//! **Direction.** A parent BFS visits exactly BFS's level sets, and the
//! min-id parent does not depend on the face that found it, so it runs
//! BFS's edge rule ([`mod@crate::bfs`]) on the same inputs — the frontier
//! count, the unvisited count, and the frontier's out-edges on a level
//! that could switch — and makes BFS's push/pull decision at every level.

use graphblas_core::descriptor::{Descriptor, Direction};
use graphblas_core::mask::Mask;
use graphblas_core::ops::MinSecond;
use graphblas_core::vector::Vector;
use graphblas_core::{mxv, run_guarded, ExecLimits, FusedMxv, GrbResult};
use graphblas_matrix::{Graph, VertexId};
use graphblas_primitives::counters::AccessCounters;
use graphblas_primitives::BitVec;

use crate::bfs::bfs_policy;

/// Parent label for unreached vertices.
pub const NO_PARENT: u32 = u32::MAX;

/// Options for parent BFS.
#[derive(Clone, Copy, Debug)]
pub struct ParentBfsOpts {
    /// Pin every level to one direction (ablation arms). `None` runs BFS's
    /// edge rule, so each level takes default BFS's direction.
    pub force: Option<Direction>,
    /// Run each level as one fused mxv·assign pass (default) instead of
    /// the separate-operation composition. Identical parents either way;
    /// the fused pull stops each row at its first frontier parent, so it
    /// reads the matrix less.
    pub fused: bool,
    /// Execution limits enforced by [`try_bfs_parents_with_opts`]; the
    /// infallible entry points ignore this field.
    pub limits: ExecLimits,
}

impl Default for ParentBfsOpts {
    fn default() -> Self {
        Self {
            force: None,
            fused: true,
            limits: ExecLimits::none(),
        }
    }
}

/// Result of a parent BFS.
#[derive(Clone, Debug)]
pub struct ParentBfsResult {
    /// `parent[v]` = minimum-id BFS parent of `v`; the source points to
    /// itself; [`NO_PARENT`] where unreached.
    pub parent: Vec<u32>,
    /// Levels executed.
    pub levels: usize,
}

/// Direction-optimized parent BFS (min-parent tie-breaking) with default
/// options.
///
/// The third argument is not read: parent BFS runs BFS's edge rule, which
/// has no threshold. It stays only because the benchmark package's input
/// test (`benchmark/src/input.rs`) calls this function with three
/// arguments; once that call moves to [`bfs_parents_with_opts`], the
/// argument can go.
#[must_use]
pub fn bfs_parents(g: &Graph<bool>, source: VertexId, _switch_threshold: f64) -> ParentBfsResult {
    bfs_parents_with_opts(g, source, &ParentBfsOpts::default(), None)
}

/// Parent BFS with explicit options and optional access counters.
#[must_use]
pub fn bfs_parents_with_opts(
    g: &Graph<bool>,
    source: VertexId,
    opts: &ParentBfsOpts,
    counters: Option<&AccessCounters>,
) -> ParentBfsResult {
    parent_bfs_loop(g, source, opts, counters)
        .expect("unlimited parent BFS with verified dims cannot abort")
}

/// Parent BFS under the options' [`ExecLimits`] with full fault isolation
/// (see [`crate::bfs::try_bfs_with_opts`] for the abort/retry contract).
pub fn try_bfs_parents_with_opts(
    g: &Graph<bool>,
    source: VertexId,
    opts: &ParentBfsOpts,
    counters: Option<&AccessCounters>,
) -> GrbResult<ParentBfsResult> {
    run_guarded(counters, &opts.limits, |c| {
        parent_bfs_loop(g, source, opts, c)
    })
}

fn parent_bfs_loop(
    g: &Graph<bool>,
    source: VertexId,
    opts: &ParentBfsOpts,
    counters: Option<&AccessCounters>,
) -> GrbResult<ParentBfsResult> {
    let n = g.n_vertices();
    assert!((source as usize) < n, "source out of range");
    let mut parent = vec![NO_PARENT; n];
    parent[source as usize] = source;
    let mut visited = BitVec::new(n);
    visited.set(source as usize);

    // Frontier carries each frontier vertex's own id as its value — the
    // invariant the fused first-hit exit relies on.
    let mut f: Vector<u32> = Vector::singleton(n, NO_PARENT, source, source);
    let mut unvisited = n - 1;
    let csr = g.csr();
    let mut policy = bfs_policy(opts.force, g);
    let mut levels = 0usize;
    let base = Descriptor::new().transpose(true);

    loop {
        levels += 1;
        // BFS's edge rule on BFS's inputs; the frontier's out-edges are
        // summed only on a level that could switch.
        let dir = policy.update_edges(f.nnz(), n, unvisited, || {
            f.iter_explicit().map(|(i, _)| csr.degree(i as usize)).sum()
        });
        let desc = base.force(dir);
        match dir {
            Direction::Pull => f.make_dense(),
            Direction::Push => f.make_sparse(),
        }

        let mask = Mask::complement(&visited);
        let discovered: Vec<u32> = if opts.fused {
            // min-parent reduce, identity apply, and the parent-array
            // assign as one kernel pass, each pull row stopping at its
            // first (minimum) parent; the mask guarantees unvisited
            // outputs, so the update rule always writes.
            let out = FusedMxv::new(MinSecond, g, &f)
                .mask(&mask)
                .descriptor(desc)
                .counters(counters)
                .first_hit_exit(true)
                .apply(|p: u32| p)
                .assign_into(&mut parent, |_, p| Some(p))?;
            out.touched
        } else {
            let w: Vector<u32> = mxv(Some(&mask), MinSecond, g, &f, &desc, counters)?;
            let mut ids = Vec::new();
            for (v, p) in w.iter_explicit() {
                debug_assert!(!visited.get(v as usize));
                parent[v as usize] = p;
                ids.push(v);
            }
            ids
        };
        for &v in &discovered {
            visited.set(v as usize);
        }
        unvisited -= discovered.len();
        if discovered.is_empty() {
            break;
        }
        // Next frontier: the discovered vertices, carrying their own ids.
        let vals = discovered.clone();
        f = Vector::from_sparse(n, NO_PARENT, discovered, vals);
    }

    Ok(ParentBfsResult { parent, levels })
}

/// Validate a parent array against the graph, Graph500-style: the source
/// is its own parent, every reached vertex's parent is reached, adjacent,
/// and exactly one level shallower.
#[must_use]
pub fn verify_parents(g: &Graph<bool>, source: VertexId, parent: &[u32]) -> bool {
    let depths = crate::bfs::bfs(g, source).depths;
    if parent[source as usize] != source {
        return false;
    }
    for v in 0..g.n_vertices() {
        let p = parent[v];
        if p == NO_PARENT {
            if depths[v] >= 0 {
                return false; // reached but no parent recorded
            }
            continue;
        }
        if v == source as usize {
            continue;
        }
        // Parent must be adjacent (edge p → v) and one level above.
        if !g.children(p).contains(&(v as u32)) {
            return false;
        }
        if depths[p as usize] + 1 != depths[v] {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::{bfs_with_opts, BfsOpts};
    use graphblas_baselines::textbook::bfs_serial;
    use graphblas_gen::grid::{road_mesh, RoadParams};
    use graphblas_gen::rmat::{rmat, RmatParams};
    use graphblas_gen::suite::{dataset, DATASET_NAMES};
    use graphblas_matrix::Coo;

    /// Parent BFS with `force` (fused or not), its counters' push and pull
    /// steps, and its matrix reads.
    fn run(
        g: &Graph<bool>,
        source: VertexId,
        force: Option<Direction>,
        fused: bool,
    ) -> (ParentBfsResult, (u64, u64), u64) {
        let c = AccessCounters::new();
        let opts = ParentBfsOpts {
            force,
            fused,
            ..ParentBfsOpts::default()
        };
        let r = bfs_parents_with_opts(g, source, &opts, Some(&c));
        let s = c.snapshot();
        (r, (s.push_steps, s.pull_steps), s.matrix)
    }

    #[test]
    fn path_parents_are_predecessors() {
        let mut coo = Coo::new(4, 4);
        for i in 0..3 {
            coo.push(i as u32, i as u32 + 1, true);
        }
        coo.clean_undirected();
        let g = Graph::from_coo(&coo);
        let r = bfs_parents(&g, 0, 0.01);
        assert_eq!(r.parent, vec![0, 0, 1, 2]);
        assert!(verify_parents(&g, 0, &r.parent));
    }

    #[test]
    fn parents_valid_on_scale_free() {
        let g = rmat(11, 16, RmatParams::default(), 3);
        for src in [0u32, 99] {
            let r = bfs_parents(&g, src, 0.01);
            assert!(verify_parents(&g, src, &r.parent), "source {src}");
        }
    }

    #[test]
    fn parents_valid_on_mesh() {
        let g = road_mesh(40, 40, RoadParams::default(), 8);
        let r = bfs_parents(&g, 5, 0.01);
        assert!(verify_parents(&g, 5, &r.parent));
    }

    #[test]
    fn min_parent_is_deterministic_across_directions() {
        // Diamond: 0 -> {1,2} -> 3. Both 1 and 2 can parent 3; min wins.
        let mut coo = Coo::new(4, 4);
        for &(u, v) in &[(0u32, 1u32), (0, 2), (1, 3), (2, 3)] {
            coo.push(u, v, true);
        }
        coo.clean_undirected();
        let g = Graph::from_coo(&coo);
        let (push, push_steps, _) = run(&g, 0, Some(Direction::Push), true);
        let (pull, pull_steps, _) = run(&g, 0, Some(Direction::Pull), true);
        assert_eq!((push_steps.1, pull_steps.0), (0, 0), "each face pinned");
        assert_eq!(push.parent, pull.parent);
        assert_eq!(push.parent[3], 1, "minimum-id parent");
    }

    #[test]
    fn unreached_have_no_parent() {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, true);
        coo.clean_undirected();
        let g = Graph::from_coo(&coo);
        let r = bfs_parents(&g, 0, 0.01);
        assert_eq!(r.parent[2], NO_PARENT);
        assert!(verify_parents(&g, 0, &r.parent));
    }

    #[test]
    fn fused_first_hit_and_unfused_agree_everywhere() {
        let g = rmat(10, 16, RmatParams::default(), 14);
        for force in [None, Some(Direction::Push), Some(Direction::Pull)] {
            let (unfused, unfused_steps, _) = run(&g, 7, force, false);
            let (fused, fused_steps, _) = run(&g, 7, force, true);
            assert_eq!(fused.parent, unfused.parent, "{force:?}");
            assert_eq!(fused.levels, unfused.levels, "{force:?}");
            assert_eq!(fused_steps, unfused_steps, "{force:?}");
        }
    }

    #[test]
    fn first_hit_exit_cuts_pull_matrix_traffic() {
        // All-pull runs: the fused rows stop at their first frontier
        // parent, the unfused rows reduce every in-neighbour.
        let g = rmat(11, 24, RmatParams::default(), 5);
        let (full, _, m_full) = run(&g, 0, Some(Direction::Pull), false);
        let (hit, _, m_hit) = run(&g, 0, Some(Direction::Pull), true);
        assert_eq!(hit.parent, full.parent, "identical trees");
        assert!(
            m_hit < m_full,
            "first-hit must reduce matrix accesses: {m_hit} vs {m_full}"
        );
    }

    #[test]
    fn parent_bfs_edge_rule_steps_match_bfs() {
        // A parent BFS visits BFS's level sets and runs BFS's edge rule on
        // the same inputs, so it takes default BFS's direction at every
        // level; its parents are the min-id tree of the serial depths.
        for name in DATASET_NAMES {
            let g = dataset(name, 9, 7).expect("known dataset").graph;
            let n = g.n_vertices();
            for source in [0, n / 3, 2 * n / 3].map(|s| s as VertexId) {
                let (p, p_steps, _) = run(&g, source, None, true);
                let c = AccessCounters::new();
                let b = bfs_with_opts(&g, source, &BfsOpts::default(), Some(&c));
                let b_steps = (c.snapshot().push_steps, c.snapshot().pull_steps);
                assert_eq!(p_steps, b_steps, "{name} from {source}: steps");
                assert_eq!(p.levels, b.levels, "{name} from {source}: levels");
                let depths = bfs_serial(&g, source);
                for (v, &d) in depths.iter().enumerate() {
                    let want = match d {
                        -1 => NO_PARENT,
                        0 => source,
                        d => *g
                            .parents(v as VertexId)
                            .iter()
                            .find(|&&u| depths[u as usize] == d - 1)
                            .expect("a reached vertex has a parent one level up"),
                    };
                    assert_eq!(p.parent[v], want, "{name} from {source}: vertex {v}");
                }
            }
        }
    }

    #[test]
    fn parent_bfs_edge_rule_keeps_a_mid_mesh_road_source_all_push() {
        // roadnet (suite shrink 6, seed 1) from source 16715: frontiers of
        // 316–362 vertices, just over 1% of |V|, that §6.3 hysteresis
        // pulled on 35 of 194 levels; their edges stay under the edge
        // rule's |V|/8 floor, as in default BFS.
        let g = dataset("roadnet", 6, 1).expect("known dataset").graph;
        let (r, steps, _) = run(&g, 16715, None, true);
        assert_eq!(r.levels, 194);
        assert_eq!(steps, (194, 0), "every level pushes");
        assert!(verify_parents(&g, 16715, &r.parent));
    }
}
