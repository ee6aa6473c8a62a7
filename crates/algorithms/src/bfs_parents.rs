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
//! *is* the minimum one, so
//! [`first_hit_exit`](graphblas_core::fused::FusedMxv::first_hit_exit)
//! stops the row there — same tree bit-for-bit, strictly less matrix
//! traffic. This per-row exit is expressible only in the fused form: the
//! standalone kernel cannot know the input's values encode its indices.

use graphblas_core::descriptor::{Descriptor, Direction};
use graphblas_core::mask::Mask;
use graphblas_core::ops::MinSecond;
use graphblas_core::vector::Vector;
use graphblas_core::{mxv, run_guarded, DirectionPolicy, ExecLimits, FusedMxv, GrbResult};
use graphblas_matrix::{Graph, VertexId};
use graphblas_primitives::counters::AccessCounters;
use graphblas_primitives::BitVec;

/// Parent label for unreached vertices.
pub const NO_PARENT: u32 = u32::MAX;

/// Options for parent BFS.
#[derive(Clone, Copy, Debug)]
pub struct ParentBfsOpts {
    /// The §6.3 hysteresis switch ratio (α = β). Paper default 0.01.
    pub switch_threshold: f64,
    /// Run each level as one fused mxv·assign pass (default) instead of
    /// the separate-operation composition. Bit-identical either way.
    pub fused: bool,
    /// Fused pull rows stop at the first frontier parent (the minimum one,
    /// by the ascending-scan argument in the module doc). Only meaningful
    /// with `fused`; identical parents either way, less matrix traffic.
    pub first_hit_exit: bool,
    /// Execution limits enforced by [`try_bfs_parents_with_opts`]; the
    /// infallible entry points ignore this field.
    pub limits: ExecLimits,
}

impl Default for ParentBfsOpts {
    fn default() -> Self {
        Self {
            switch_threshold: 0.01,
            fused: true,
            first_hit_exit: true,
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
/// options except the given switch threshold.
#[must_use]
pub fn bfs_parents(g: &Graph<bool>, source: VertexId, switch_threshold: f64) -> ParentBfsResult {
    let opts = ParentBfsOpts {
        switch_threshold,
        ..ParentBfsOpts::default()
    };
    bfs_parents_with_opts(g, source, &opts, None)
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
    let mut policy = DirectionPolicy::hysteresis(opts.switch_threshold);
    let mut levels = 0usize;
    let base = Descriptor::new().transpose(true);

    loop {
        levels += 1;
        let dir = policy.update(f.nnz(), n);
        let desc = base.force(dir);
        match dir {
            Direction::Pull => f.make_dense(),
            Direction::Push => f.make_sparse(),
        }

        let mask = Mask::complement(&visited);
        let discovered: Vec<u32> = if opts.fused {
            // min-parent reduce, identity apply, and the parent-array
            // assign as one kernel pass; the mask guarantees unvisited
            // outputs, so the update rule always writes.
            let out = FusedMxv::new(MinSecond, g, &f)
                .mask(&mask)
                .descriptor(desc)
                .counters(counters)
                .first_hit_exit(opts.first_hit_exit)
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
    use graphblas_gen::grid::{road_mesh, RoadParams};
    use graphblas_gen::rmat::{rmat, RmatParams};
    use graphblas_matrix::Coo;

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
        // Push-only (threshold 2.0 never crosses) and pull-heavy
        // (threshold 0.0 crosses immediately) must agree exactly.
        let push = bfs_parents(&g, 0, 2.0);
        let pull = bfs_parents(&g, 0, 0.0);
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
        for threshold in [0.0, 0.01, 2.0] {
            let run = |fused: bool, first_hit: bool| {
                let opts = ParentBfsOpts {
                    switch_threshold: threshold,
                    fused,
                    first_hit_exit: first_hit,
                    ..ParentBfsOpts::default()
                };
                bfs_parents_with_opts(&g, 7, &opts, None).parent
            };
            let reference = run(false, false);
            assert_eq!(run(true, false), reference, "fused, t={threshold}");
            assert_eq!(run(true, true), reference, "first-hit, t={threshold}");
        }
    }

    #[test]
    fn first_hit_exit_cuts_pull_matrix_traffic() {
        // Pull-heavy run (threshold 0 switches immediately): first-hit
        // rows stop at their first frontier parent.
        let g = rmat(11, 24, RmatParams::default(), 5);
        let run = |first_hit: bool| {
            let c = AccessCounters::new();
            let opts = ParentBfsOpts {
                switch_threshold: 0.0,
                fused: true,
                first_hit_exit: first_hit,
                ..ParentBfsOpts::default()
            };
            let r = bfs_parents_with_opts(&g, 0, &opts, Some(&c));
            (r.parent, c.snapshot().matrix)
        };
        let (p_full, m_full) = run(false);
        let (p_hit, m_hit) = run(true);
        assert_eq!(p_hit, p_full, "identical trees");
        assert!(
            m_hit < m_full,
            "first-hit must reduce matrix accesses: {m_hit} vs {m_full}"
        );
    }
}
