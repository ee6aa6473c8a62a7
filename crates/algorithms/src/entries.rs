//! Batch entries — coalescing independent single-source queries into one
//! batched traversal while each query keeps its own counters and limits.
//!
//! A [`BatchEntry`] couples a source vertex with its own [`ExecLimits`]
//! and [`AccessCounters`]. The BFS-family functions
//! ([`multi_source_bfs_entries`], [`bfs_parents_entries`]) run entries in
//! lane groups of at most 64: one shared traversal over bit-packed lane
//! words ([`crate::msbfs`]), one pull sweep and one push sweep per level
//! for every lane, each lane under its own copy of BFS's edge rule, depth
//! and parent lanes alike. A group of one runs the single-source fused
//! path instead, with the entry's counters and limits. [`sssp_entries`]
//! advances its entries through one [`mxv_batch`] call per round with
//! per-row counters, each row's charges landing on its entry.
//!
//! **Counter contract.** Every entry's values, level count and push/pull
//! steps are identical to its solo run. In a shared group of two or more,
//! each sweep's charges are split evenly among the lanes that sweep
//! served, the remainder to the lowest entry indices, so the entries'
//! bills sum exactly to the group's total; that total reads the matrix at
//! most as often as the members' solo runs together. An SSSP entry's bill
//! equals its solo [`try_sssp_with_counters`](crate::sssp::try_sssp_with_counters)
//! run's: each batch row runs the single-source kernel
//! of the face its phase chose, charged to that entry alone.
//!
//! Each entry resolves independently:
//!
//! * **Completed** entries return `Ok` with their result; their counters
//!   keep the run's tallies (limits uninstalled).
//! * **Tripped** entries (their own deadline or budget) abort with the
//!   typed error ([`GrbError::Cancelled`] / [`GrbError::BudgetExceeded`]);
//!   their counters are restored to the entry baseline so an immediate
//!   retry is bit-identical to a fresh run, and their siblings' values are
//!   untouched. Each entry charges its own output array to its bytes
//!   budget before the first level; a shared group polls deadline and work
//!   budget on each entry's counters at every level boundary, so a
//!   coalesced entry overshoots its deadline by at most one level of its
//!   group. A lone entry and every SSSP entry run the single-source
//!   kernels, which poll once per chunk of a pull and on entry to a valued
//!   push: such an entry overshoots by at most one chunk per lane of a
//!   pull, or one whole push step.
//! * A **worker-chunk panic** or a batch-wide error (shared-counter trip,
//!   dimension mismatch) aborts every still-live entry with the same
//!   typed error ([`GrbError::WorkerPanicked`] carries the chunk); the
//!   caller decides whether to de-coalesce and retry solo.
//!
//! The `shared` counters are the batch's scope: they receive the bytes of
//! a lane group's buffers and the fold of every entry's bill.

use std::panic::{self, AssertUnwindSafe};

use graphblas_core::descriptor::Direction;
use graphblas_core::exec::{panic_message, stop_error};
use graphblas_core::vector::Vector;
use graphblas_core::{
    mxv_batch, DenseVector, Descriptor, DirectionPolicy, ExecLimits, GrbError, GrbResult, MinPlus,
    MAX_LANES,
};
use graphblas_matrix::{Graph, VertexId};
use graphblas_primitives::counters::{AccessCounters, CounterSnapshot};

use crate::bfs::{try_bfs_with_opts, BfsOpts};
use crate::bfs_parents::{try_bfs_parents_with_opts, ParentBfsOpts};
use crate::msbfs::{run_group, GroupSpec, LaneDone, LaneValues, MsBfsOpts, Record};
use crate::sssp::SsspOpts;

/// One coalesced query: a source plus its own limits and counter set.
///
/// Counter sets must be pairwise distinct across a batch and disjoint
/// from the driver's `shared` counters — attribution folds per-entry
/// growth into `shared` at each level, so aliasing would double-charge.
#[derive(Clone, Copy, Debug)]
pub struct BatchEntry<'a> {
    /// Source vertex of this query.
    pub source: VertexId,
    /// Per-request limits, installed on `counters` for the run's duration.
    pub limits: ExecLimits,
    /// This request's private counter set; holds the request's snapshot
    /// after completion (tallies kept, limits uninstalled).
    pub counters: &'a AccessCounters,
}

impl<'a> BatchEntry<'a> {
    /// An unlimited entry over the given counter set.
    #[must_use]
    pub fn new(source: VertexId, counters: &'a AccessCounters) -> Self {
        Self {
            source,
            limits: ExecLimits::none(),
            counters,
        }
    }

    /// Attach per-request limits.
    #[must_use]
    pub fn with_limits(mut self, limits: ExecLimits) -> Self {
        self.limits = limits;
        self
    }
}

/// Per-entry BFS result (one source's slice of
/// [`MsBfsResult`](crate::msbfs::MsBfsResult)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EntryBfs {
    /// `depths[v]` = depth of `v`; [`UNREACHED`](crate::msbfs::UNREACHED)
    /// where unreached.
    pub depths: Vec<i32>,
    /// Levels this source executed (its frontier emptied at this level).
    pub levels: usize,
}

/// Per-entry parent-BFS result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EntryParents {
    /// `parent[v]` = minimum-id BFS parent;
    /// [`NO_PARENT`](crate::bfs_parents::NO_PARENT) where unreached.
    pub parent: Vec<u32>,
    /// Levels this source executed.
    pub levels: usize,
}

/// Per-entry SSSP result.
#[derive(Clone, Debug, PartialEq)]
pub struct EntrySssp {
    /// Tentative distances; `f32::INFINITY` where unreachable.
    pub dist: Vec<f32>,
    /// Relaxation rounds this source executed.
    pub rounds: usize,
    /// Rounds in the pull (row-based) phase.
    pub pull_rounds: usize,
}

/// Scoreboard: installs limits on construction, resolves each entry
/// exactly once (abort restores the baseline; completion keeps tallies),
/// and guarantees uninstallation on every path.
struct Board<'a, 'b, R> {
    entries: &'b [BatchEntry<'a>],
    baselines: Vec<CounterSnapshot>,
    results: Vec<Option<GrbResult<R>>>,
}

impl<'a, 'b, R> Board<'a, 'b, R> {
    fn new(entries: &'b [BatchEntry<'a>]) -> Self {
        for e in entries {
            e.counters.install_limits(&e.limits);
        }
        Self {
            entries,
            baselines: entries.iter().map(|e| e.counters.snapshot()).collect(),
            results: (0..entries.len()).map(|_| None).collect(),
        }
    }

    /// Abort entry `i`: restore its counters to the entry baseline (retry
    /// is bit-identical to fresh) and record the typed error.
    fn abort(&mut self, i: usize, err: GrbError) {
        self.entries[i].counters.restore(&self.baselines[i]);
        self.entries[i].counters.uninstall_limits();
        self.results[i] = Some(Err(err));
    }

    /// Complete entry `i`: keep its tallies, drop its limits.
    fn complete(&mut self, i: usize, value: R) {
        self.entries[i].counters.uninstall_limits();
        self.results[i] = Some(Ok(value));
    }

    /// Abort every unresolved entry in `live` with clones of `err`.
    fn abort_all(&mut self, live: &[usize], err: &GrbError) {
        for &i in live {
            if self.results[i].is_none() {
                self.abort(i, err.clone());
            }
        }
    }

    /// If entry `i` tripped its own limits, abort it and report `true`.
    fn retire_if_tripped(&mut self, i: usize) -> bool {
        match self.entries[i].counters.stop_reason() {
            Some(reason) => {
                self.abort(i, stop_error(reason));
                true
            }
            None => false,
        }
    }

    fn finish(self) -> Vec<GrbResult<R>> {
        self.results
            .into_iter()
            .map(|r| r.expect("every entry resolved"))
            .collect()
    }
}

/// One batched kernel call with the `run_guarded` panic contract: a pool
/// chunk panic becomes a typed batch-wide error; any other panic cleans
/// up the still-live entries and re-throws (caller bug).
fn catch_batch<R, T>(
    board: &mut Board<'_, '_, R>,
    live: &[usize],
    f: impl FnOnce() -> GrbResult<T>,
) -> GrbResult<T> {
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            if let Some(chunk) = rayon::take_last_panic_chunk() {
                Err(GrbError::WorkerPanicked {
                    chunk,
                    message: panic_message(payload.as_ref()),
                })
            } else {
                let bug = GrbError::InvalidValue("entry batch panicked outside the pool");
                board.abort_all(live, &bug);
                panic::resume_unwind(payload);
            }
        }
    }
}

/// Run BFS-family entries in consecutive lane groups of at most
/// [`MAX_LANES`]. A group of one runs `solo` — the single-source fused
/// path under the entry's own limits and counters — and its bill folds
/// into `shared`; a larger group runs one shared traversal (`run_group`)
/// with each entry's limits installed on its counters for the duration.
fn run_entries<R>(
    g: &Graph<bool>,
    entries: &[BatchEntry<'_>],
    spec: &GroupSpec<'_>,
    solo: impl Fn(&BatchEntry<'_>) -> GrbResult<R>,
    finish: impl Fn(LaneDone) -> R,
) -> Vec<GrbResult<R>> {
    let n = g.n_vertices();
    for e in entries {
        assert!((e.source as usize) < n, "source out of range");
    }
    let mut out = Vec::with_capacity(entries.len());
    for chunk in entries.chunks(MAX_LANES) {
        if let [e] = chunk {
            let before = e.counters.snapshot();
            out.push(solo(e));
            if let Some(c) = spec.shared {
                c.absorb(&e.counters.snapshot().delta_since(&before));
            }
            continue;
        }
        let mut board: Board<'_, '_, R> = Board::new(chunk);
        let sources: Vec<VertexId> = chunk.iter().map(|e| e.source).collect();
        let bills: Vec<&AccessCounters> = chunk.iter().map(|e| e.counters).collect();
        let all: Vec<usize> = (0..chunk.len()).collect();
        let group = GroupSpec {
            sources: &sources,
            bills: Some(&bills),
            ..*spec
        };
        let lanes = match catch_batch(&mut board, &all, || Ok(run_group(g, &group))) {
            Ok(lanes) => lanes,
            Err(e) => all.iter().map(|_| Err(e.clone())).collect(),
        };
        for (i, lane) in lanes.into_iter().enumerate() {
            match lane {
                Ok(done) => board.complete(i, finish(done)),
                Err(e) => board.abort(i, e),
            }
        }
        out.extend(board.finish());
    }
    out
}

/// Coalesced multi-source BFS: each entry's depths, levels and push/pull
/// steps equal its solo run's ([`crate::bfs::try_bfs_with_opts`] under
/// `opts.solo()` and the entry's limits). In a group of two or more, the
/// entries share one traversal and split its charges (see the module doc).
///
/// # Panics
/// If an entry's source is out of range (the service validates first).
pub fn multi_source_bfs_entries(
    g: &Graph<bool>,
    entries: &[BatchEntry<'_>],
    opts: &MsBfsOpts,
    shared: Option<&AccessCounters>,
) -> Vec<GrbResult<EntryBfs>> {
    let spec = GroupSpec {
        sources: &[],
        force: opts.force,
        record: Record::Depths,
        bills: None,
        shared,
    };
    run_entries(
        g,
        entries,
        &spec,
        |e| {
            let solo = BfsOpts {
                limits: e.limits,
                ..opts.solo()
            };
            try_bfs_with_opts(g, e.source, &solo, Some(e.counters)).map(|r| EntryBfs {
                depths: r.depths,
                levels: r.levels,
            })
        },
        |done| match done.values {
            LaneValues::Depths(depths) => EntryBfs {
                depths,
                levels: done.levels,
            },
            LaneValues::Parents(_) => unreachable!("a depth group records depths"),
        },
    )
}

/// Coalesced parent BFS (min-parent tie-breaking): each entry's parents,
/// levels and push/pull steps equal its solo run's
/// ([`crate::bfs_parents::try_bfs_parents_with_opts`] under `opts` and the
/// entry's limits), which are a BFS's from the same source. `opts.fused`
/// shapes only that solo path; a shared group takes the first (ascending)
/// in-neighbour on pull and the minimum frontier id on push, the same
/// tree.
///
/// # Panics
/// If an entry's source is out of range (the service validates first).
pub fn bfs_parents_entries(
    g: &Graph<bool>,
    entries: &[BatchEntry<'_>],
    opts: &ParentBfsOpts,
    shared: Option<&AccessCounters>,
) -> Vec<GrbResult<EntryParents>> {
    let spec = GroupSpec {
        sources: &[],
        force: opts.force,
        record: Record::Parents,
        bills: None,
        shared,
    };
    run_entries(
        g,
        entries,
        &spec,
        |e| {
            let solo = ParentBfsOpts {
                limits: e.limits,
                ..*opts
            };
            try_bfs_parents_with_opts(g, e.source, &solo, Some(e.counters)).map(|r| EntryParents {
                parent: r.parent,
                levels: r.levels,
            })
        },
        |done| match done.values {
            LaneValues::Parents(parent) => EntryParents {
                parent,
                levels: done.levels,
            },
            LaneValues::Depths(_) => unreachable!("a parent group records parents"),
        },
    )
}

/// Coalesced SSSP (Bellman-Ford over min-plus with the §5.6 two-phase
/// switch). Direction is resolved *outside* the kernel, per entry: a pull
/// round ships that entry's full distance vector as a dense row, a push
/// round ships the sparse delta set, and the batch kernel's storage rule
/// (dense → row-based, sparse → column-based) dispatches each row to the
/// face its phase chose. `opts.fused` only shapes the solo pipeline.
pub fn sssp_entries(
    g: &Graph<f32>,
    entries: &[BatchEntry<'_>],
    opts: &SsspOpts,
    shared: Option<&AccessCounters>,
) -> Vec<GrbResult<EntrySssp>> {
    let n = g.n_vertices();
    let k = entries.len();
    for e in entries {
        assert!((e.source as usize) < n, "source out of range");
    }
    let max_rounds = opts.max_rounds.unwrap_or(n.max(1));
    let mut board: Board<'_, '_, EntrySssp> = Board::new(entries);

    let mut dists: Vec<Vec<f32>> = entries
        .iter()
        .map(|e| {
            let mut d = vec![f32::INFINITY; n];
            d[e.source as usize] = 0.0;
            d
        })
        .collect();
    let mut deltas: Vec<Vector<f32>> = entries
        .iter()
        .map(|e| Vector::singleton(n, f32::INFINITY, e.source, 0.0))
        .collect();
    let mut policies: Vec<DirectionPolicy> = (0..k)
        .map(|_| {
            if opts.change_of_direction {
                DirectionPolicy::two_phase(opts.switch_threshold)
            } else {
                DirectionPolicy::fixed(Direction::Push)
            }
        })
        .collect();
    let mut rounds = vec![0usize; k];
    let mut pull_rounds = vec![0usize; k];

    let desc = Descriptor::new().transpose(true);

    let mut alive: Vec<usize> = (0..k).collect();
    while !alive.is_empty() {
        // External per-entry direction resolution: the row's storage
        // encodes the phase and the kernel's storage rule honors it.
        let rows: Vec<Vector<f32>> = alive
            .iter()
            .map(|&r| {
                rounds[r] += 1;
                match policies[r].update(deltas[r].nnz(), n) {
                    Direction::Pull => {
                        pull_rounds[r] += 1;
                        Vector::Dense(DenseVector::from_values(dists[r].clone(), f32::INFINITY))
                    }
                    Direction::Push => {
                        std::mem::replace(&mut deltas[r], Vector::new_sparse(n, f32::INFINITY))
                    }
                }
            })
            .collect();
        let row_refs: Vec<&AccessCounters> = alive.iter().map(|&r| entries[r].counters).collect();

        let out = catch_batch(&mut board, &alive, || {
            mxv_batch(None, MinPlus, g, &rows, &desc, shared, Some(&row_refs))
        });
        let out: Vec<Vector<f32>> = match out {
            Ok(v) => v,
            Err(e) => {
                board.abort_all(&alive, &e);
                return board.finish();
            }
        };

        let mut still_alive = Vec::with_capacity(alive.len());
        for (row, &r) in out.into_iter().zip(&alive) {
            if board.retire_if_tripped(r) {
                continue;
            }
            // dist ← min(dist, candidates); next delta = strict improvements.
            let mut touched: Vec<u32> = Vec::new();
            for (i, c) in row.iter_explicit() {
                if c < dists[r][i as usize] {
                    dists[r][i as usize] = c;
                    touched.push(i);
                }
            }
            if touched.is_empty() || rounds[r] >= max_rounds {
                board.complete(
                    r,
                    EntrySssp {
                        dist: std::mem::take(&mut dists[r]),
                        rounds: rounds[r],
                        pull_rounds: pull_rounds[r],
                    },
                );
            } else {
                let vals: Vec<f32> = touched.iter().map(|&i| dists[r][i as usize]).collect();
                deltas[r] = Vector::from_sparse(n, f32::INFINITY, touched, vals);
                still_alive.push(r);
            }
        }
        alive = still_alive;
    }
    board.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs_parents::verify_parents;
    use crate::msbfs::multi_source_bfs_with_opts;
    use crate::sssp::{dijkstra_oracle, try_sssp_with_counters};
    use graphblas_baselines::textbook::bfs_serial;
    use graphblas_gen::rmat::{rmat, RmatParams};
    use graphblas_gen::with_uniform_weights;

    fn counters(k: usize) -> Vec<AccessCounters> {
        (0..k).map(|_| AccessCounters::new()).collect()
    }

    /// Run one entry solo through the same driver — the equivalence
    /// baseline the service uses (a group of one runs the fused solo path).
    fn solo_bfs(g: &Graph<bool>, source: VertexId) -> (EntryBfs, CounterSnapshot) {
        let c = AccessCounters::new();
        let shared = AccessCounters::new();
        let r = multi_source_bfs_entries(
            g,
            &[BatchEntry::new(source, &c)],
            &MsBfsOpts::default(),
            Some(&shared),
        )
        .pop()
        .unwrap()
        .unwrap();
        assert_eq!(
            shared.snapshot(),
            c.snapshot(),
            "a solo bill folds into shared"
        );
        (r, c.snapshot())
    }

    fn steps(s: &CounterSnapshot) -> (u64, u64) {
        (s.push_steps, s.pull_steps)
    }

    /// Field-wise sum of snapshots.
    fn sum(snaps: impl IntoIterator<Item = CounterSnapshot>) -> CounterSnapshot {
        let total = AccessCounters::new();
        for s in snaps {
            total.absorb(&s);
        }
        total.snapshot()
    }

    #[test]
    fn coalesced_bfs_entries_match_solo_runs_and_oracle() {
        let g = rmat(10, 14, RmatParams::default(), 23);
        let sources = [0u32, 17, 300];
        let cs = counters(3);
        let entries: Vec<BatchEntry<'_>> = sources
            .iter()
            .zip(&cs)
            .map(|(&s, c)| BatchEntry::new(s, c))
            .collect();
        let shared = AccessCounters::new();
        let rs = multi_source_bfs_entries(&g, &entries, &MsBfsOpts::default(), Some(&shared));
        let mut solo_total = CounterSnapshot::default();
        for ((r, &src), c) in rs.iter().zip(&sources).zip(&cs) {
            let r = r.as_ref().unwrap();
            assert_eq!(r.depths, bfs_serial(&g, src), "source {src}");
            let (solo, solo_snap) = solo_bfs(&g, src);
            assert_eq!(r.depths, solo.depths);
            assert_eq!(r.levels, solo.levels);
            assert_eq!(
                steps(&c.snapshot()),
                steps(&solo_snap),
                "source {src} steps"
            );
            solo_total = sum([solo_total, solo_snap]);
        }
        // The bills sum exactly to the group total, which shared holds,
        // and the group reads the matrix at most as often as the solo runs.
        let bills = sum(cs.iter().map(AccessCounters::snapshot));
        assert_eq!(bills, shared.snapshot());
        assert!(bills.matrix <= solo_total.matrix);
        // And the whole-batch result matches plain msbfs, whose
        // counters hold the same group total.
        let plain_c = AccessCounters::new();
        let plain = multi_source_bfs_with_opts(&g, &sources, &MsBfsOpts::default(), Some(&plain_c));
        for (r, d) in rs.iter().zip(&plain.depths) {
            assert_eq!(&r.as_ref().unwrap().depths, d);
        }
        assert_eq!(plain_c.snapshot(), bills);
    }

    #[test]
    fn tripped_entry_aborts_typed_and_spares_siblings() {
        let g = rmat(10, 14, RmatParams::default(), 23);
        let cs = counters(3);
        let entries = [
            BatchEntry::new(0, &cs[0]),
            BatchEntry::new(17, &cs[1])
                .with_limits(ExecLimits::none().with_deadline(std::time::Duration::ZERO)),
            BatchEntry::new(300, &cs[2]),
        ];
        let shared = AccessCounters::new();
        let rs = multi_source_bfs_entries(&g, &entries, &MsBfsOpts::default(), Some(&shared));
        assert_eq!(rs[1], Err(GrbError::Cancelled));
        for (i, src) in [(0usize, 0u32), (2, 300)] {
            let r = rs[i].as_ref().unwrap();
            let (solo, solo_snap) = solo_bfs(&g, src);
            assert_eq!(r.depths, solo.depths, "sibling {src}");
            assert_eq!(r.levels, solo.levels, "sibling {src}");
            assert_eq!(
                steps(&cs[i].snapshot()),
                steps(&solo_snap),
                "sibling {src} steps"
            );
        }
        // Aborted entry's counters restored: an immediate retry is fresh.
        assert_eq!(cs[1].snapshot(), CounterSnapshot::default());
        let retry = multi_source_bfs_entries(
            &g,
            &[BatchEntry::new(17, &cs[1])],
            &MsBfsOpts::default(),
            Some(&AccessCounters::new()),
        )
        .pop()
        .unwrap()
        .unwrap();
        let (solo, solo_snap) = solo_bfs(&g, 17);
        assert_eq!(retry.depths, solo.depths);
        assert_eq!(cs[1].snapshot(), solo_snap);
    }

    #[test]
    fn coalesced_parents_match_solo_and_verify() {
        let g = rmat(10, 14, RmatParams::default(), 29);
        let sources = [3u32, 99, 500];
        let cs = counters(3);
        let entries: Vec<BatchEntry<'_>> = sources
            .iter()
            .zip(&cs)
            .map(|(&s, c)| BatchEntry::new(s, c))
            .collect();
        let shared = AccessCounters::new();
        let rs = bfs_parents_entries(&g, &entries, &ParentBfsOpts::default(), Some(&shared));
        let mut solo_total = CounterSnapshot::default();
        for ((r, &src), c) in rs.iter().zip(&sources).zip(&cs) {
            let r = r.as_ref().unwrap();
            assert!(verify_parents(&g, src, &r.parent), "source {src}");
            let solo_c = AccessCounters::new();
            let solo = bfs_parents_entries(
                &g,
                &[BatchEntry::new(src, &solo_c)],
                &ParentBfsOpts::default(),
                None,
            )
            .pop()
            .unwrap()
            .unwrap();
            assert_eq!(r, &solo, "source {src}");
            assert_eq!(
                steps(&c.snapshot()),
                steps(&solo_c.snapshot()),
                "source {src}"
            );
            solo_total = sum([solo_total, solo_c.snapshot()]);
        }
        let bills = sum(cs.iter().map(AccessCounters::snapshot));
        assert_eq!(bills, shared.snapshot());
        assert!(bills.matrix <= solo_total.matrix);
    }

    #[test]
    fn coalesced_sssp_matches_solo_and_dijkstra() {
        let gb = rmat(10, 14, RmatParams::default(), 31);
        let g = with_uniform_weights(&gb, 7);
        let sources = [0u32, 42, 777];
        let cs = counters(3);
        let entries: Vec<BatchEntry<'_>> = sources
            .iter()
            .zip(&cs)
            .map(|(&s, c)| BatchEntry::new(s, c))
            .collect();
        let rs = sssp_entries(&g, &entries, &SsspOpts::default(), None);
        for ((r, &src), c) in rs.iter().zip(&sources).zip(&cs) {
            let r = r.as_ref().unwrap();
            let oracle = dijkstra_oracle(&g, src);
            for (i, (&x, &y)) in r.dist.iter().zip(&oracle).enumerate() {
                if x.is_infinite() || y.is_infinite() {
                    assert_eq!(x, y, "source {src} at {i}");
                } else {
                    assert!((x - y).abs() < 1e-4, "source {src} at {i}: {x} vs {y}");
                }
            }
            let solo_c = AccessCounters::new();
            let solo = sssp_entries(
                &g,
                &[BatchEntry::new(src, &solo_c)],
                &SsspOpts::default(),
                None,
            )
            .pop()
            .unwrap()
            .unwrap();
            assert_eq!(r, &solo, "source {src} (values bit-identical)");
            assert_eq!(c.snapshot(), solo_c.snapshot(), "source {src} counters");
            // The bill of a plain solo SSSP run (the fused default).
            let plain_c = AccessCounters::new();
            let plain =
                try_sssp_with_counters(&g, src, &SsspOpts::default(), Some(&plain_c)).unwrap();
            assert_eq!(
                (r.rounds, r.pull_rounds),
                (plain.rounds, plain.pull_rounds),
                "source {src} rounds"
            );
            assert_eq!(
                c.snapshot(),
                plain_c.snapshot(),
                "source {src} bill ≠ its solo SSSP run's"
            );
        }
    }

    #[test]
    fn zero_work_budget_trips_every_entry_but_leaves_counters_fresh() {
        let g = rmat(9, 10, RmatParams::default(), 5);
        let cs = counters(2);
        let entries = [
            BatchEntry::new(0, &cs[0]).with_limits(ExecLimits::none().with_work_budget(0)),
            BatchEntry::new(1, &cs[1]),
        ];
        let rs = multi_source_bfs_entries(&g, &entries, &MsBfsOpts::default(), None);
        assert!(
            matches!(rs[0], Err(GrbError::BudgetExceeded { .. })),
            "{:?}",
            rs[0]
        );
        assert!(rs[1].is_ok());
        assert_eq!(cs[0].snapshot(), CounterSnapshot::default());
    }
}
