//! Graph algorithms written against the GraphBLAS core — the paper's
//! Algorithm 1 (BFS) plus the §5.6 generality set.
//!
//! * [`bfs()`](bfs::bfs) — direction-optimized BFS, a direct transcription of
//!   Algorithm 1 with each of the five optimizations independently
//!   toggleable ([`bfs::BfsOpts`]); the Table 2 ablation ladder lives here.
//! * [`sssp`] — Bellman-Ford over min-plus with the 2-phase direction
//!   optimization §5.6 describes.
//! * [`pagerank`] — power iteration over plus-times, and *adaptive*
//!   PageRank (Kamvar et al.) where converged vertices drop out through a
//!   mask — the paper's flagship example of output-sparsity generality.
//! * [`cc`] — connected components by min-label propagation.
//! * [`mis`] — Luby's maximal independent set (masked candidate updates).
//! * [`tricount`] — triangle counting via masked SpGEMM `C⟨L⟩ = L·L`.
//! * [`msbfs`] — multi-source BFS as one shared traversal per group of up
//!   to 64 sources: bit-packed lane words, one masked pull sweep and one
//!   push sweep per level for every source, direction switched per source.
//! * [`bc`] — batched Brandes betweenness centrality riding the same
//!   batched kernels (masked forward σ sweeps, level-masked backward δ
//!   accumulation, per-source push/pull switching in both phases).
//! * [`mod@entries`] — coalesced query batches: BFS / parent-BFS entries
//!   sharing the msbfs lane traversal, SSSP entries advanced together
//!   through `mxv_batch_attributed`, each with its own
//!   [`ExecLimits`](graphblas_core::ExecLimits) and counter set (the
//!   service layer's algorithm face).
//!
//! BFS, parent BFS ([`mod@bfs_parents`]), CC, SSSP, and PageRank all run their
//! per-iteration `mxv · apply · assign` chain as a **fused pipeline**
//! (`graphblas_core::fused::FusedMxv`) by default — no intermediate vector
//! per step, bit-identical results and counters to the unfused
//! composition (each keeps a `fused: false` opt as the tested oracle).
//! Parent BFS additionally uses the fused-only first-hit pull exit.

pub mod bc;
pub mod bfs;
pub mod bfs_parents;
pub mod cc;
pub mod entries;
pub mod ktruss;
pub mod mis;
pub mod msbfs;
pub mod pagerank;
pub mod sssp;
pub mod tricount;

pub use bfs::{bfs, bfs_with_opts, BfsOpts, BfsResult, IterRecord};
pub use bfs_parents::{bfs_parents, bfs_parents_with_opts, ParentBfsOpts, ParentBfsResult};
pub use entries::{
    bfs_parents_entries, multi_source_bfs_entries, sssp_entries, BatchEntry, EntryBfs,
    EntryParents, EntrySssp,
};
