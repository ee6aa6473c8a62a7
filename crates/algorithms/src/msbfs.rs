//! Multi-source (batched) BFS — up to 64 sources share one traversal.
//!
//! Sources run in groups of at most [`MAX_LANES`]; each group keeps one
//! `u64` lane word of frontier bits and one of visited bits per vertex
//! ([`LaneGroup`]), an `n × k` bit-packed Boolean matrix, and advances all
//! of its lanes with one masked pull sweep and one push sweep per level:
//! `F' = (Aᵀ F) .∗ ¬V`, the MS-BFS formulation (Then et al., VLDB 2015)
//! that GraphBLAST writes as a masked mxm. The paper's three optimizations
//! carry over lane by lane:
//!
//! * **change of direction** — every lane, depth or parent, runs its own
//!   copy of BFS's edge rule on exactly its solo run's inputs: its frontier
//!   count, its own unvisited count, and its frontier's out-edges, which
//!   one pass over the group frontier sums for exactly the lanes on a
//!   growing push level. One level may pull some lanes and push others,
//!   each lane's push/pull sequence equals its solo run's, and a group
//!   runs one rule whatever it records;
//! * **masking** — a pull row is scanned only for the lanes that have not
//!   seen it, and a push ORs its lanes only into unseen slots;
//! * **early exit** — a pull row stops once every wanted lane has a hit.
//!
//! A group of one runs the single-source fused path instead
//! ([`crate::bfs::bfs_with_opts`]), and a larger source set runs as
//! consecutive groups. `run_group` is the one traversal behind this
//! module's entry points and the BFS-family entries functions
//! ([`crate::entries`]); batched BC ([`crate::bc`]) and coalesced SSSP keep
//! the per-row [`mxv_batch`](graphblas_core::mxv_batch) kernels.
//!
//! **Counters.** Each lane's values and push/pull steps equal its solo
//! run's. A group's charges are the sweeps' charges: a pull row scans the
//! maximum of what its lanes would scan alone, and a push vertex is
//! expanded once for all of its lanes, so a group's `matrix` accesses are
//! at most the sum of its members' solo runs (`tests/prop_core.rs` pins
//! this rule next to the step rule).

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::AtomicU32;

use graphblas_core::descriptor::Direction;
use graphblas_core::exec::{panic_message, stop_error};
use graphblas_core::ops_mxv_lanes::lanes;
use graphblas_core::{
    run_guarded, ExecLimits, GrbError, GrbResult, LaneCharges, LaneGroup, StopReason, MAX_LANES,
};
use graphblas_matrix::{Csr, Graph, VertexId};
use graphblas_primitives::counters::{AccessCounters, CounterSnapshot};

use crate::bfs::{bfs_policy, dispatch_bfs, BfsOpts};
use crate::bfs_parents::NO_PARENT;

/// Depth label for unreached (source, vertex) pairs.
pub const UNREACHED: i32 = -1;

/// Options for a batched traversal.
#[derive(Clone, Copy, Debug)]
pub struct MsBfsOpts {
    /// Pin every source to one direction (ablation arms). `None` lets each
    /// source's edge rule switch independently.
    pub force: Option<Direction>,
    /// Execution limits enforced by [`try_multi_source_bfs_with_opts`];
    /// the infallible entry points ignore this field.
    pub limits: ExecLimits,
}

impl Default for MsBfsOpts {
    fn default() -> Self {
        Self {
            force: None,
            limits: ExecLimits::none(),
        }
    }
}

impl MsBfsOpts {
    /// The single-source options a group of one runs under.
    #[must_use]
    pub fn solo(&self) -> BfsOpts {
        BfsOpts {
            force: self.force,
            limits: self.limits,
            ..BfsOpts::default()
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
/// counters record, besides the groups' traffic, each source's per-level
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
/// Limits are polled at every level boundary, so a run overshoots its
/// deadline or work budget by at most one level of its group.
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
    assert!(!sources.is_empty(), "need at least one source");
    let mut result = MsBfsResult {
        depths: Vec::with_capacity(sources.len()),
        levels: 0,
    };
    for group in sources.chunks(MAX_LANES) {
        if let [source] = group {
            let r = dispatch_bfs(g, *source, &opts.solo(), counters)?;
            result.levels = result.levels.max(r.levels);
            result.depths.push(r.depths);
            continue;
        }
        let spec = GroupSpec {
            sources: group,
            force: opts.force,
            record: Record::Depths,
            bills: None,
            shared: counters,
        };
        for lane in run_group(g, &spec) {
            let lane = lane?;
            result.levels = result.levels.max(lane.levels);
            let LaneValues::Depths(d) = lane.values else {
                unreachable!("a depth group records depths")
            };
            result.depths.push(d);
        }
    }
    Ok(result)
}

/// What a lane group records for each lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Record {
    /// BFS depths ([`UNREACHED`] where unreached).
    Depths,
    /// Min-id BFS parents ([`NO_PARENT`] where unreached).
    Parents,
}

/// One lane's recorded values.
#[derive(Debug)]
pub(crate) enum LaneValues {
    Depths(Vec<i32>),
    Parents(Vec<u32>),
}

/// A lane whose frontier emptied.
#[derive(Debug)]
pub(crate) struct LaneDone {
    pub values: LaneValues,
    /// Levels this lane executed (its frontier emptied at this level).
    pub levels: usize,
}

/// One lane group's traversal.
pub(crate) struct GroupSpec<'a> {
    /// Lane `l` starts at `sources[l]`; at most [`MAX_LANES`].
    pub sources: &'a [VertexId],
    /// The direction every lane is pinned to; `None` runs BFS's edge rule
    /// in each lane.
    pub force: Option<Direction>,
    pub record: Record,
    /// Per-lane counter sets with their limits installed (the `*_entries`
    /// functions): each receives its lane's bill and is polled at every
    /// level boundary. `None` bills `shared` alone.
    pub bills: Option<&'a [&'a AccessCounters]>,
    /// The group's batch scope: the group buffers' bytes and the fold of
    /// every bill. Polled at every level boundary; a trip there aborts
    /// every live lane.
    pub shared: Option<&'a AccessCounters>,
}

/// Run one lane group to completion. Each lane resolves exactly once: `Ok`
/// when its frontier empties, or the typed error of its own tripped
/// limits, a `shared` trip, or a pool-chunk panic ([`GrbError::WorkerPanicked`]
/// for every lane still live). Limits are polled at level boundaries, so a
/// lane overshoots its deadline by at most one level of its group; a lane
/// that leaves never changes its siblings' values.
///
/// Each sweep's charges are split evenly among the lanes it served, the
/// remainder going to the lowest lane indices, so the bills sum exactly to
/// the group's total; every lane is billed its own push/pull steps.
pub(crate) fn run_group(g: &Graph<bool>, spec: &GroupSpec<'_>) -> Vec<GrbResult<LaneDone>> {
    let n = g.n_vertices();
    let k = spec.sources.len();
    let mut out: Vec<Option<GrbResult<LaneDone>>> = (0..k).map(|_| None).collect();
    let out_bytes = (n * std::mem::size_of::<u32>()) as u64;

    // Each entry charges its own output array before the first level; the
    // group buffers (three lane words per vertex) go to the batch scope.
    if let Some(bills) = spec.bills {
        for (l, c) in bills.iter().enumerate() {
            if !c.try_charge_alloc(out_bytes) {
                out[l] = Some(Err(stop_error(StopReason::BytesBudget)));
            }
        }
    }
    let group_bytes = 3 * (n * std::mem::size_of::<u64>()) as u64
        + if spec.bills.is_none() {
            k as u64 * out_bytes
        } else {
            0
        };
    if let Some(c) = spec.shared {
        if !c.try_charge_alloc(group_bytes) {
            return abort_unresolved(out, &stop_error(StopReason::BytesBudget));
        }
    }

    let mut group = LaneGroup::new(n, spec.sources);
    let mut policies = vec![bfs_policy(spec.force, g); k];
    let mut counts = vec![1usize; k];
    // Each lane's unvisited count and frontier out-edges: its solo run's
    // edge-rule inputs.
    let mut unvisited = vec![n - 1; k];
    let mut edges = vec![0usize; k];
    let mut depths: Vec<Vec<i32>> = Vec::new();
    let mut parents: Vec<Vec<AtomicU32>> = Vec::new();
    for &s in spec.sources {
        match spec.record {
            Record::Depths => {
                let mut d = vec![UNREACHED; n];
                d[s as usize] = 0;
                depths.push(d);
            }
            Record::Parents => {
                let p: Vec<AtomicU32> = (0..n as u32)
                    .map(|v| AtomicU32::new(if v == s { s } else { NO_PARENT }))
                    .collect();
                parents.push(p);
            }
        }
    }

    let mut level = 0usize;
    loop {
        // Level boundary: the batch scope first, then each lane's own
        // limits; lanes whose frontier emptied complete.
        if let Some(reason) = spec.shared.and_then(tripped) {
            return abort_unresolved(out, &stop_error(reason));
        }
        let mut leaving = 0u64;
        for l in lanes(group.live()) {
            let stop = spec.bills.and_then(|b| tripped(b[l]));
            if out[l].is_none() && stop.is_none() && counts[l] > 0 {
                continue;
            }
            leaving |= 1 << l;
            if out[l].is_none() {
                out[l] = Some(match stop {
                    Some(reason) => Err(stop_error(reason)),
                    None => Ok(LaneDone {
                        values: match spec.record {
                            Record::Depths => LaneValues::Depths(std::mem::take(&mut depths[l])),
                            Record::Parents => LaneValues::Parents(
                                std::mem::take(&mut parents[l])
                                    .into_iter()
                                    .map(AtomicU32::into_inner)
                                    .collect(),
                            ),
                        },
                        levels: level,
                    }),
                });
            }
        }
        group.retire(leaving);
        let live = group.live();
        if live == 0 {
            break;
        }

        level += 1;
        let priced = lanes(live).fold(0u64, |m, l| {
            m | u64::from(policies[l].wants_edges(counts[l])) << l
        });
        if priced != 0 {
            frontier_edges(g, &group, priced, &mut edges);
        }
        let (mut pull, mut push) = (0u64, 0u64);
        for l in lanes(live) {
            let dir = policies[l].update_edges(counts[l], n, unvisited[l], || edges[l]);
            let bill = spec.bills.map(|b| b[l]);
            for c in bill.into_iter().chain(spec.shared) {
                match dir {
                    Direction::Push => c.add_push_step(),
                    Direction::Pull => c.add_pull_step(),
                }
            }
            match dir {
                Direction::Push => push |= 1 << l,
                Direction::Pull => pull |= 1 << l,
            }
        }
        let slots = (spec.record == Record::Parents).then_some(parents.as_slice());
        let step = panic::catch_unwind(AssertUnwindSafe(|| group.step(g, pull, push, slots)));
        let charges: LaneCharges = match step {
            Ok(c) => c,
            Err(payload) => {
                let Some(chunk) = rayon::take_last_panic_chunk() else {
                    panic::resume_unwind(payload)
                };
                let err = GrbError::WorkerPanicked {
                    chunk,
                    message: panic_message(payload.as_ref()),
                };
                return abort_unresolved(out, &err);
            }
        };
        bill(&charges.pull, pull, spec);
        bill(&charges.push, push, spec);

        for l in lanes(live) {
            counts[l] = 0;
        }
        let (ids, words) = group.frontier();
        for (&v, &w) in ids.iter().zip(words) {
            for l in lanes(w) {
                counts[l] += 1;
                if spec.record == Record::Depths {
                    depths[l][v as usize] = level as i32;
                }
            }
        }
        for l in lanes(live) {
            unvisited[l] -= counts[l];
        }
    }
    out.into_iter()
        .map(|r| r.expect("every lane resolved"))
        .collect()
}

/// Sum the out-edges of the group frontier into `edges[l]` for each lane
/// `l` in `priced`: what the lane's solo run sums over its own frontier.
fn frontier_edges(g: &Graph<bool>, group: &LaneGroup, priced: u64, edges: &mut [usize]) {
    for l in lanes(priced) {
        edges[l] = 0;
    }
    let csr = g.csr();
    let (ids, words) = group.frontier();
    for (&v, &w) in ids.iter().zip(words) {
        let w = w & priced;
        if w != 0 {
            let d = csr.degree(v as usize);
            for l in lanes(w) {
                edges[l] += d;
            }
        }
    }
}

/// A counter set's poll at a level boundary: its trip reason, if any.
fn tripped(c: &AccessCounters) -> Option<StopReason> {
    if c.checkpoint() {
        None
    } else {
        c.stop_reason()
    }
}

/// Resolve every lane still unresolved with `err`.
fn abort_unresolved(
    out: Vec<Option<GrbResult<LaneDone>>>,
    err: &GrbError,
) -> Vec<GrbResult<LaneDone>> {
    out.into_iter()
        .map(|r| r.unwrap_or_else(|| Err(err.clone())))
        .collect()
}

/// Split one sweep's charges among the lanes it `served`: evenly, the
/// remainder to the lowest lane indices, so the bills sum to the total.
/// `shared` receives the total.
fn bill(total: &CounterSnapshot, served: u64, spec: &GroupSpec<'_>) {
    if served == 0 {
        return;
    }
    if let Some(bills) = spec.bills {
        let m = u64::from(served.count_ones());
        for (i, l) in lanes(served).enumerate() {
            let share = |x: u64| x / m + u64::from((i as u64) < x % m);
            bills[l].absorb(&CounterSnapshot {
                matrix: share(total.matrix),
                vector: share(total.vector),
                mask: share(total.mask),
                sort: share(total.sort),
                ..CounterSnapshot::default()
            });
        }
    }
    if let Some(c) = spec.shared {
        c.absorb(total);
    }
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
    use crate::bfs::bfs_with_opts;
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
    fn batch_steps_equal_solo_runs_and_matrix_stays_under_their_sum() {
        // The shared-traversal contract at the algorithm level: a k-batch
        // returns each source's solo depths, makes exactly the solo runs'
        // push/pull decisions, and reads the matrix at most as often as
        // the k solo runs together.
        let g = rmat(10, 16, RmatParams::default(), 19);
        let sources = [0u32, 5, 123];
        let opts = MsBfsOpts::default();
        let batch_c = AccessCounters::new();
        let batch = multi_source_bfs_with_opts(&g, &sources, &opts, Some(&batch_c));

        let single_c = AccessCounters::new();
        for (s, &src) in sources.iter().enumerate() {
            let r = bfs_with_opts(&g, src, &opts.solo(), Some(&single_c));
            assert_eq!(r.depths, batch.depths[s], "source {src}");
        }
        let (b, s) = (batch_c.snapshot(), single_c.snapshot());
        assert_eq!((b.push_steps, b.pull_steps), (s.push_steps, s.pull_steps));
        assert!(b.matrix <= s.matrix, "{} > {}", b.matrix, s.matrix);
        assert!(b.push_steps > 0, "early thin frontiers push");
        assert!(
            b.pull_steps > 0,
            "the scale-free supervertex phase must pull"
        );
    }
}
