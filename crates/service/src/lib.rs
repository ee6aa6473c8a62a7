//! Concurrent graph-query service — the production shape the paper's
//! batched kernels were built for: many independent traversal queries
//! against one shared graph, coalesced into batched push-pull matvecs.
//!
//! The pipeline, layer by layer:
//!
//! * [`request`] — the vocabulary: [`Query`] / [`Request`] / [`Response`].
//!   Every request carries its own [`ExecLimits`](graphblas_core::ExecLimits)
//!   and gets back its own counter snapshot, even when it executed inside
//!   a shared batch.
//! * [`admission`] — windowed micro-batching. The plan is a pure function
//!   of arrival ticks, so a fixed trace admits identically at any lane
//!   count.
//! * [`executor`] — same-kind single-source queries (BFS / parent BFS /
//!   SSSP) coalesce into one batched traversal through the algorithms
//!   crate's entry functions ([`graphblas_algo::entries`]): BFS and parent
//!   BFS share one bit-lane traversal per group of up to 64 sources, SSSP
//!   one attributed `mxv_batch` per round. PageRank and BC dispatch solo
//!   under `run_guarded`. A query carrying an out-of-range vertex id is
//!   answered `IndexOutOfBounds` before grouping. A tripped request aborts
//!   with its typed error without touching siblings; a worker-chunk panic
//!   de-coalesces the survivors for a solo retry.
//! * [`trace`] / [`stats`] — deterministic trace replay on a virtual
//!   clock, reduced to queries/sec, latency percentiles, batch-size
//!   histogram, and coalescing rate (the `BENCH_serve.json` artifact).
//! * [`loadgen`] — seeded open-loop arrivals; no wall-clock randomness
//!   reaches the results.
//! * [`service`] — the live front: a `Mutex`/`Condvar` queue and a
//!   dispatcher thread admitting under a real-time window.
//!
//! `tests/service_equivalence.rs` pins the core contract at 1/2/8 lanes:
//! a coalesced request's values and push/pull steps are bit-identical to
//! its solo run; a BFS-family group's bills sum to the group's total and
//! read the matrix at most as often as the members' solo runs together;
//! SSSP, PageRank and BC requests keep their solo run's full counter
//! snapshot.

pub mod admission;
pub mod executor;
pub mod loadgen;
pub mod request;
pub mod service;
pub mod stats;
pub mod trace;

pub use admission::{plan_admission, AdmissionConfig};
pub use executor::{execute_batch, ExecOpts, ServiceGraphs};
pub use loadgen::{generate_trace, LoadGenConfig, QueryMix};
pub use request::{Query, QueryKind, QueryOutput, Request, Response};
pub use service::{Service, ServiceConfig, Ticket};
pub use stats::{compute, percentile_ns, ServeStats};
pub use trace::{run_trace, TraceOutcome};
