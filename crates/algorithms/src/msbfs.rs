//! Multi-source (batched) BFS — `k` frontiers advanced simultaneously as a
//! [`MultiVector`], each step one **batched masked matvec**:
//! `F'(s, :) = (Aᵀ F(s, :)) .∗ ¬V(s, :)` for every live source `s`, in a
//! single [`mxv_batch`] call.
//!
//! This is the batched face of the paper's thesis: each source's row keeps
//! its own sparse/dense storage and its own §6.3 [`DirectionPolicy`]
//! hysteresis state, so within one batch step some sources run the
//! column-based push kernel while others run the row-based masked pull
//! kernel — the per-source direction switching that GraphBLAST observes
//! generalizes to multi-vector operands. The kernels execute over a flat
//! `(source, chunk)` work grid, so the pool's lanes stay busy even when
//! one source's frontier is a thin wave and another's is mid-supervertex.
//! The batched betweenness-centrality workload of §1 is the canonical
//! consumer ([`crate::bc`] runs its Brandes forward sweeps through exactly
//! this path); `tests/prop_core.rs` pins that a batch is bit-identical —
//! depths *and* access counters — to `k` independent single-source runs.

use graphblas_core::descriptor::{Descriptor, Direction};
use graphblas_core::mask::Mask;
use graphblas_core::ops::BoolStructure;
use graphblas_core::ops_mxv_batch::mxv_batch;
use graphblas_core::vector::{MultiVector, Vector};
use graphblas_core::{run_guarded, DirectionPolicy, ExecLimits, FormatChoice, GrbResult};
use graphblas_matrix::{Csr, Graph, VertexId};
use graphblas_primitives::counters::AccessCounters;
use graphblas_primitives::BitVec;

/// Depth label for unreached (source, vertex) pairs.
pub const UNREACHED: i32 = -1;

/// Options for a batched traversal.
#[derive(Clone, Copy, Debug)]
pub struct MsBfsOpts {
    /// The §6.3 switch ratio (α = β) each source's policy runs under.
    pub switch_threshold: f64,
    /// Pin every source to one direction (ablation arms). `None` lets each
    /// source's hysteresis policy switch independently.
    pub force: Option<Direction>,
    /// Matrix storage format for the batch (default auto). The batch rule
    /// depends on the graph alone, so one store serves every step while
    /// per-row directions stay independent.
    pub format: FormatChoice,
    /// Execution limits enforced by [`try_multi_source_bfs_with_opts`];
    /// the infallible entry points ignore this field.
    pub limits: ExecLimits,
}

impl Default for MsBfsOpts {
    fn default() -> Self {
        Self {
            switch_threshold: 0.01,
            force: None,
            format: FormatChoice::Auto,
            limits: ExecLimits::none(),
        }
    }
}

/// Result of a batched BFS.
#[derive(Clone, Debug)]
pub struct MsBfsResult {
    /// `depths[s][v]` = depth of `v` from `sources[s]`.
    pub depths: Vec<Vec<i32>>,
    /// Levels executed (maximum over the batch).
    pub levels: usize,
}

/// Batched BFS from `sources` (duplicates allowed) with default options.
#[must_use]
pub fn multi_source_bfs(g: &Graph<bool>, sources: &[VertexId]) -> MsBfsResult {
    multi_source_bfs_with_opts(g, sources, &MsBfsOpts::default(), None)
}

/// Batched BFS with explicit options and optional access counters — the
/// counters record, besides the usual traffic, each source's per-level
/// push/pull decision (`push_steps`/`pull_steps`).
#[must_use]
pub fn multi_source_bfs_with_opts(
    g: &Graph<bool>,
    sources: &[VertexId],
    opts: &MsBfsOpts,
    counters: Option<&AccessCounters>,
) -> MsBfsResult {
    msbfs_loop(g, sources, opts, counters)
        .expect("unlimited batched BFS with verified dims cannot abort")
}

/// Batched BFS under the options' [`ExecLimits`] with full fault isolation
/// (see [`crate::bfs::try_bfs_with_opts`] for the abort/retry contract).
pub fn try_multi_source_bfs_with_opts(
    g: &Graph<bool>,
    sources: &[VertexId],
    opts: &MsBfsOpts,
    counters: Option<&AccessCounters>,
) -> GrbResult<MsBfsResult> {
    run_guarded(counters, &opts.limits, |c| msbfs_loop(g, sources, opts, c))
}

fn msbfs_loop(
    g: &Graph<bool>,
    sources: &[VertexId],
    opts: &MsBfsOpts,
    counters: Option<&AccessCounters>,
) -> GrbResult<MsBfsResult> {
    let n = g.n_vertices();
    let k = sources.len();
    assert!(k > 0, "need at least one source");
    for &s in sources {
        assert!((s as usize) < n, "source out of range");
    }

    // Per-source traversal state: frontier row, visited bitmap, depths,
    // and an independent direction policy.
    let mut frontiers: Vec<Vector<bool>> = sources
        .iter()
        .map(|&s| Vector::singleton(n, false, s, true))
        .collect();
    let mut visited: Vec<BitVec> = sources
        .iter()
        .map(|&s| {
            let mut b = BitVec::new(n);
            b.set(s as usize);
            b
        })
        .collect();
    let mut depths: Vec<Vec<i32>> = sources
        .iter()
        .map(|&s| {
            let mut d = vec![UNREACHED; n];
            d[s as usize] = 0;
            d
        })
        .collect();
    let mut policies: Vec<DirectionPolicy> = (0..k)
        .map(|_| match opts.force {
            Some(d) => DirectionPolicy::fixed(d),
            None => DirectionPolicy::hysteresis(opts.switch_threshold),
        })
        .collect();

    // Algorithm 1's descriptor: multiply by Aᵀ; direction stays Auto so
    // each row follows its own policy (a forced run pins the descriptor).
    let desc = match opts.force {
        Some(d) => Descriptor::new().transpose(true).force(d),
        None => Descriptor::new().transpose(true),
    }
    .format_choice(opts.format);

    let mut alive: Vec<usize> = (0..k).collect();
    let mut level = 0usize;
    while !alive.is_empty() {
        level += 1;
        // Assemble the live sub-batch by moving rows out of the state
        // (restored or replaced below), with one mask and one policy per
        // live source.
        let batch = MultiVector::from_rows(
            alive
                .iter()
                .map(|&r| std::mem::replace(&mut frontiers[r], Vector::new_sparse(n, false)))
                .collect(),
        );
        let masks: Vec<Mask<'_>> = alive
            .iter()
            .map(|&r| Mask::complement(&visited[r]))
            .collect();
        let mut live_policies: Vec<DirectionPolicy> =
            alive.iter().map(|&r| policies[r].clone()).collect();

        let next: MultiVector<bool> = mxv_batch(
            Some(&masks),
            BoolStructure,
            g,
            &batch,
            &desc,
            Some(&mut live_policies),
            counters,
        )?;

        for (p, &r) in live_policies.iter().zip(&alive) {
            policies[r] = p.clone();
        }

        // GrB_assign per live source: record depths, fold the discoveries
        // into the visited set, retire sources whose frontier emptied.
        let mut still_alive = Vec::with_capacity(alive.len());
        for (row, &r) in next.into_rows().into_iter().zip(&alive) {
            let mut found = false;
            for (v, _) in row.iter_explicit() {
                depths[r][v as usize] = level as i32;
                visited[r].set(v as usize);
                found = true;
            }
            if found {
                frontiers[r] = row;
                still_alive.push(r);
            }
        }
        alive = still_alive;
    }

    Ok(MsBfsResult {
        depths,
        levels: level,
    })
}

/// The batch frontier after `steps` synchronous steps, materialized as a
/// `k × n` Boolean CSR — the matrix-form object the formulation advances.
/// Exposed for tests and for algorithms that want the intermediate state.
#[must_use]
pub fn frontier_matrix(g: &Graph<bool>, sources: &[VertexId], steps: usize) -> Csr<bool> {
    let r = multi_source_bfs(g, sources);
    let n = g.n_vertices();
    let k = sources.len();
    let mut row_ptr = Vec::with_capacity(k + 1);
    let mut col_ind: Vec<VertexId> = Vec::new();
    row_ptr.push(0usize);
    for s in 0..k {
        for v in 0..n {
            if r.depths[s][v] == steps as i32 {
                col_ind.push(v as VertexId);
            }
        }
        row_ptr.push(col_ind.len());
    }
    let values = vec![true; col_ind.len()];
    Csr::from_parts(k, n, row_ptr, col_ind, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_baselines::textbook::bfs_serial;
    use graphblas_gen::grid::{road_mesh, RoadParams};
    use graphblas_gen::rmat::{rmat, RmatParams};

    #[test]
    fn batch_matches_per_source_oracle() {
        let g = rmat(10, 12, RmatParams::default(), 3);
        let sources = [0u32, 17, 300, 17]; // includes a duplicate
        let r = multi_source_bfs(&g, &sources);
        assert_eq!(r.depths.len(), 4);
        for (s, &src) in sources.iter().enumerate() {
            assert_eq!(r.depths[s], bfs_serial(&g, src), "source {src}");
        }
    }

    #[test]
    fn batch_on_mesh() {
        let g = road_mesh(30, 30, RoadParams::default(), 2);
        let sources = [0u32, 450, 899];
        let r = multi_source_bfs(&g, &sources);
        for (s, &src) in sources.iter().enumerate() {
            assert_eq!(r.depths[s], bfs_serial(&g, src), "source {src}");
        }
    }

    #[test]
    fn frontier_matrix_rows_are_level_sets() {
        let g = rmat(9, 8, RmatParams::default(), 5);
        let sources = [0u32, 7];
        let f2 = frontier_matrix(&g, &sources, 2);
        assert_eq!(f2.n_rows(), 2);
        let oracle0 = bfs_serial(&g, 0);
        let expect: Vec<u32> = (0..g.n_vertices())
            .filter(|&v| oracle0[v] == 2)
            .map(|v| v as u32)
            .collect();
        assert_eq!(f2.row(0), expect.as_slice());
    }

    #[test]
    fn single_source_batch_degenerates_to_bfs() {
        let g = rmat(9, 8, RmatParams::default(), 7);
        let r = multi_source_bfs(&g, &[42]);
        assert_eq!(r.depths[0], bfs_serial(&g, 42));
    }

    #[test]
    fn forced_directions_match_auto() {
        let g = rmat(9, 10, RmatParams::default(), 4);
        let sources = [0u32, 3, 250];
        let auto = multi_source_bfs(&g, &sources);
        for dir in [Direction::Push, Direction::Pull] {
            let opts = MsBfsOpts {
                force: Some(dir),
                ..MsBfsOpts::default()
            };
            let forced = multi_source_bfs_with_opts(&g, &sources, &opts, None);
            assert_eq!(forced.depths, auto.depths, "{dir:?}");
            assert_eq!(forced.levels, auto.levels, "{dir:?}");
        }
    }

    #[test]
    fn batch_counters_equal_sum_of_single_source_runs() {
        // The equivalence contract at the algorithm level: a k-batch costs
        // exactly what k independent runs cost (depths AND counters), and
        // its per-source direction decisions are visible.
        let g = rmat(10, 16, RmatParams::default(), 19);
        let sources = [0u32, 5, 123];
        let opts = MsBfsOpts::default();
        let batch_c = AccessCounters::new();
        let batch = multi_source_bfs_with_opts(&g, &sources, &opts, Some(&batch_c));

        let single_c = AccessCounters::new();
        for (s, &src) in sources.iter().enumerate() {
            let r = multi_source_bfs_with_opts(&g, &[src], &opts, Some(&single_c));
            assert_eq!(r.depths[0], batch.depths[s], "source {src}");
        }
        assert_eq!(batch_c.snapshot(), single_c.snapshot());
        let snap = batch_c.snapshot();
        assert!(snap.push_steps > 0, "early thin frontiers push");
        assert!(
            snap.pull_steps > 0,
            "the scale-free supervertex phase must pull"
        );
    }
}
