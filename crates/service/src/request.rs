//! Request/response vocabulary of the query service.

use graphblas_algo::{EntryBfs, EntryParents, EntrySssp};
use graphblas_core::{ExecLimits, GrbResult};
use graphblas_matrix::VertexId;
use graphblas_primitives::counters::CounterSnapshot;

/// One graph query. Single-source kinds (BFS / parent BFS / SSSP) are
/// coalescible: same-kind queries admitted together run as one batched
/// traversal. PageRank and BC are whole-graph/multi-source and dispatch
/// solo.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Query {
    /// Depths from `source` (direction-optimized BFS).
    Bfs { source: VertexId },
    /// Min-id parent tree from `source` (Graph500 output).
    Parents { source: VertexId },
    /// Shortest distances from `source` over the weighted graph.
    Sssp { source: VertexId },
    /// Whole-graph PageRank (power iteration).
    PageRank,
    /// Batched Brandes betweenness from the given sources.
    Bc { sources: Vec<VertexId> },
}

/// Coalescing key: queries of the same kind share a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryKind {
    Bfs,
    Parents,
    Sssp,
    PageRank,
    Bc,
}

impl QueryKind {
    /// Kinds the executor coalesces into one batched traversal: BFS and
    /// parent BFS share one bit-lane traversal per group of up to 64,
    /// SSSP runs one attributed `mxv_batch` per round.
    #[must_use]
    pub fn coalescible(self) -> bool {
        matches!(self, Self::Bfs | Self::Parents | Self::Sssp)
    }
}

impl Query {
    #[must_use]
    pub fn kind(&self) -> QueryKind {
        match self {
            Self::Bfs { .. } => QueryKind::Bfs,
            Self::Parents { .. } => QueryKind::Parents,
            Self::Sssp { .. } => QueryKind::Sssp,
            Self::PageRank => QueryKind::PageRank,
            Self::Bc { .. } => QueryKind::Bc,
        }
    }
}

/// A submitted query with its identity, limits, and (for traces) the
/// arrival tick the admission plan is derived from.
#[derive(Clone, Debug)]
pub struct Request {
    /// Caller-assigned id, echoed on the response.
    pub id: u64,
    pub query: Query,
    /// Per-request limits: installed on this request's private counter
    /// set for the duration of its (possibly coalesced) execution.
    pub limits: ExecLimits,
    /// Arrival time in abstract ticks (0 for directly-submitted queries;
    /// the admission plan of a trace run depends only on these).
    pub arrival_tick: u64,
}

impl Request {
    #[must_use]
    pub fn new(id: u64, query: Query) -> Self {
        Self {
            id,
            query,
            limits: ExecLimits::none(),
            arrival_tick: 0,
        }
    }

    #[must_use]
    pub fn with_limits(mut self, limits: ExecLimits) -> Self {
        self.limits = limits;
        self
    }

    #[must_use]
    pub fn at_tick(mut self, tick: u64) -> Self {
        self.arrival_tick = tick;
        self
    }
}

/// A successful query's payload.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryOutput {
    Bfs(EntryBfs),
    Parents(EntryParents),
    Sssp(EntrySssp),
    PageRank { ranks: Vec<f64>, iters: usize },
    Bc(Vec<f64>),
}

/// The service's answer to one request: the typed result, this request's
/// own counter snapshot (per-request attribution even inside a coalesced
/// batch), and how the request was scheduled.
#[derive(Clone, Debug)]
pub struct Response {
    pub id: u64,
    /// `Ok` payload, or the request's own typed abort
    /// (`Cancelled` / `BudgetExceeded` / `WorkerPanicked`).
    pub result: GrbResult<QueryOutput>,
    /// This request's private counter snapshot.
    pub counters: CounterSnapshot,
    /// Size of the admitted batch this request rode in.
    pub batch_size: usize,
    /// Size of the same-kind coalesced group it executed in (> 1 means
    /// the request shared a batched traversal).
    pub group_size: usize,
    /// The request was re-run solo after its coalesced group hit a
    /// worker panic.
    pub retried_solo: bool,
}
