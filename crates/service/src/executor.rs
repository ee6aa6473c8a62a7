//! Batch execution: same-kind single-source queries coalesce into one
//! batched traversal (the `*_entries` functions: BFS and parent BFS share one
//! bit-lane traversal per group of up to 64, SSSP one attributed
//! `mxv_batch` per round), everything else runs solo under `run_guarded`
//! — in both paths each request is metered and limited through its own
//! counter set. Every vertex id a query carries is checked before
//! grouping: an out-of-range id answers its request alone with
//! `GrbError::IndexOutOfBounds` and zero counters.

use graphblas_algo::bc::{try_betweenness_with_opts, BcOpts};
use graphblas_algo::bfs_parents::ParentBfsOpts;
use graphblas_algo::msbfs::MsBfsOpts;
use graphblas_algo::pagerank::{try_pagerank_with_counters, PageRankOpts};
use graphblas_algo::sssp::SsspOpts;
use graphblas_algo::{bfs_parents_entries, multi_source_bfs_entries, sssp_entries, BatchEntry};
use graphblas_core::{GrbError, GrbResult};
use graphblas_matrix::{Graph, VertexId};
use graphblas_primitives::counters::AccessCounters;

use crate::request::{Query, QueryKind, QueryOutput, Request, Response};

/// The shared operands every query runs against: one Boolean structure
/// (BFS / parent BFS / PageRank / BC) and one weighted view of the same
/// topology (SSSP). Both are read-only and shared across all concurrent
/// queries — a tripped request never poisons them.
#[derive(Debug)]
pub struct ServiceGraphs {
    pub boolean: Graph<bool>,
    pub weighted: Graph<f32>,
}

impl ServiceGraphs {
    /// # Panics
    /// If the two views disagree on vertex count.
    #[must_use]
    pub fn new(boolean: Graph<bool>, weighted: Graph<f32>) -> Self {
        assert_eq!(
            boolean.n_vertices(),
            weighted.n_vertices(),
            "boolean and weighted views must share the vertex set"
        );
        Self { boolean, weighted }
    }

    #[must_use]
    pub fn n_vertices(&self) -> usize {
        self.boolean.n_vertices()
    }
}

/// Per-algorithm options the service dispatches under (defaults match
/// the solo entry points).
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecOpts {
    pub bfs: MsBfsOpts,
    pub parents: ParentBfsOpts,
    pub sssp: SsspOpts,
    pub pagerank: PageRankOpts,
    pub bc: BcOpts,
}

/// Execute one admitted batch. A request carrying an out-of-range vertex
/// id is answered with `GrbError::IndexOutOfBounds` and zero counters and
/// joins no group. Coalescible kinds run as one entries batch per kind; a
/// request whose coalesced group hit a worker-chunk panic is de-coalesced
/// and retried solo once (transient chunk faults don't condemn innocent
/// passengers); its retry failure is returned typed. `shared` receives
/// the batch-scoped charges (lane-group buffers) plus the fold of all
/// coalescible per-request work.
pub fn execute_batch(
    graphs: &ServiceGraphs,
    opts: &ExecOpts,
    batch: &[Request],
    shared: Option<&AccessCounters>,
) -> Vec<Response> {
    let k = batch.len();
    let counters: Vec<AccessCounters> = (0..k).map(|_| AccessCounters::new()).collect();
    let mut results: Vec<Option<GrbResult<QueryOutput>>> = (0..k).map(|_| None).collect();
    let mut group_sizes = vec![1usize; k];
    let mut retried = vec![false; k];
    for (i, req) in batch.iter().enumerate() {
        if let Err(e) = check_vertices(&req.query, graphs.n_vertices()) {
            results[i] = Some(Err(e));
        }
    }

    for kind in [
        QueryKind::Bfs,
        QueryKind::Parents,
        QueryKind::Sssp,
        QueryKind::PageRank,
        QueryKind::Bc,
    ] {
        let idxs: Vec<usize> = (0..k)
            .filter(|&i| results[i].is_none() && batch[i].query.kind() == kind)
            .collect();
        if idxs.is_empty() {
            continue;
        }
        match kind {
            QueryKind::Bfs => run_group(
                &idxs,
                batch,
                &counters,
                &mut results,
                &mut group_sizes,
                &mut retried,
                |entries| {
                    multi_source_bfs_entries(&graphs.boolean, entries, &opts.bfs, shared)
                        .into_iter()
                        .map(|r| r.map(QueryOutput::Bfs))
                        .collect()
                },
            ),
            QueryKind::Parents => run_group(
                &idxs,
                batch,
                &counters,
                &mut results,
                &mut group_sizes,
                &mut retried,
                |entries| {
                    bfs_parents_entries(&graphs.boolean, entries, &opts.parents, shared)
                        .into_iter()
                        .map(|r| r.map(QueryOutput::Parents))
                        .collect()
                },
            ),
            QueryKind::Sssp => run_group(
                &idxs,
                batch,
                &counters,
                &mut results,
                &mut group_sizes,
                &mut retried,
                |entries| {
                    sssp_entries(&graphs.weighted, entries, &opts.sssp, shared)
                        .into_iter()
                        .map(|r| r.map(QueryOutput::Sssp))
                        .collect()
                },
            ),
            QueryKind::PageRank => {
                for &i in &idxs {
                    let mut o = opts.pagerank;
                    o.limits = batch[i].limits;
                    let r =
                        try_pagerank_with_counters(&graphs.boolean, &o, false, Some(&counters[i]));
                    results[i] = Some(r.map(|pr| QueryOutput::PageRank {
                        ranks: pr.ranks,
                        iters: pr.iters,
                    }));
                }
            }
            QueryKind::Bc => {
                for &i in &idxs {
                    let Query::Bc { sources } = &batch[i].query else {
                        unreachable!("kind-filtered")
                    };
                    let mut o = opts.bc;
                    o.limits = batch[i].limits;
                    let r =
                        try_betweenness_with_opts(&graphs.boolean, sources, &o, Some(&counters[i]));
                    results[i] = Some(r.map(QueryOutput::Bc));
                }
            }
        }
    }

    batch
        .iter()
        .enumerate()
        .map(|(i, req)| Response {
            id: req.id,
            result: results[i].take().expect("every request resolved"),
            counters: counters[i].snapshot(),
            batch_size: k,
            group_size: group_sizes[i],
            retried_solo: retried[i],
        })
        .collect()
}

/// Reject a query carrying a vertex id outside `0..n` with the typed
/// error, before it can reach a range assertion in the algorithms crate.
fn check_vertices(q: &Query, n: usize) -> GrbResult<()> {
    let ids: &[VertexId] = match q {
        Query::Bfs { source } | Query::Parents { source } | Query::Sssp { source } => {
            std::slice::from_ref(source)
        }
        Query::Bc { sources } => sources,
        Query::PageRank => &[],
    };
    match ids.iter().find(|&&v| v as usize >= n) {
        Some(&v) => Err(GrbError::IndexOutOfBounds {
            index: v as usize,
            dim: n,
        }),
        None => Ok(()),
    }
}

/// Source vertex of a coalescible query.
fn source_of(q: &Query) -> VertexId {
    match q {
        Query::Bfs { source } | Query::Parents { source } | Query::Sssp { source } => *source,
        Query::PageRank | Query::Bc { .. } => unreachable!("not coalescible"),
    }
}

/// Run one coalesced same-kind group through `run`, de-coalescing any
/// request whose group aborted on a worker panic for one solo retry.
fn run_group(
    idxs: &[usize],
    batch: &[Request],
    counters: &[AccessCounters],
    results: &mut [Option<GrbResult<QueryOutput>>],
    group_sizes: &mut [usize],
    retried: &mut [bool],
    run: impl Fn(&[BatchEntry<'_>]) -> Vec<GrbResult<QueryOutput>>,
) {
    let entries: Vec<BatchEntry<'_>> = idxs
        .iter()
        .map(|&i| {
            BatchEntry::new(source_of(&batch[i].query), &counters[i]).with_limits(batch[i].limits)
        })
        .collect();
    let rs = run(&entries);
    for (&i, r) in idxs.iter().zip(rs) {
        group_sizes[i] = idxs.len();
        results[i] = Some(match r {
            Err(GrbError::WorkerPanicked { .. }) if idxs.len() > 1 => {
                // The entry's counters were restored on abort, so the
                // solo retry runs from a fresh baseline.
                retried[i] = true;
                let solo = [BatchEntry::new(source_of(&batch[i].query), &counters[i])
                    .with_limits(batch[i].limits)];
                run(&solo).pop().expect("one entry, one result")
            }
            other => other,
        });
    }
}
