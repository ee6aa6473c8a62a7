//! # push-pull — direction-optimized graph traversal in GraphBLAS form
//!
//! A from-scratch Rust reproduction of *"Implementing Push-Pull Efficiently
//! in GraphBLAS"* (Yang, Buluç, Owens; ICPP 2018): a linear-algebra graph
//! framework in which breadth-first search is the one-line recurrence
//! `f' = Aᵀf .∗ ¬v`, and the backend decides per iteration whether to
//! evaluate it with a column-based (push) or row-based masked (pull)
//! matrix-vector product.
//!
//! ## Quickstart
//!
//! ```
//! use push_pull::prelude::*;
//!
//! // A scale-free graph (the paper's `kron` stand-in, scaled down).
//! let g = push_pull::gen::rmat::rmat(12, 16, Default::default(), 42);
//!
//! // Direction-optimized BFS with all five paper optimizations enabled.
//! let result = bfs(&g, 0);
//! println!("reached {} vertices in {} levels", result.reached(), result.levels);
//!
//! // The same traversal, one optimization at a time (Table 2's ladder):
//! for (name, opts) in BfsOpts::ladder() {
//!     let r = bfs_with_opts(&g, 0, &opts, None);
//!     assert_eq!(r.reached(), result.reached(), "{name} changed the answer");
//! }
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`primitives`] | scan, radix sort, gather, segmented reduce, the SPA of `mxm`'s Gustavson rows, bit vectors, access counters, limits |
//! | [`matrix`] | COO/CSR storage, the dual-orientation [`matrix::Graph`], Matrix Market I/O, stats |
//! | [`core`] | semirings, vectors, masks, descriptors, `mxv` (Table 1's four kernels over CSR, picked by the input's storage or a forced direction)/`vxm`/`mxm`, the push/pull `DirectionPolicy` (BFS's edge rule, §6.3 hysteresis), batched `mxv_batch` over a slice of frontiers (each row one `mxv` dispatch), the bit-lane multi-source BFS kernel, fused `FusedMxv` pipelines |
//! | [`algo`] | BFS (Algorithm 1 + Table 2 ladder), SSSP, PageRank (+adaptive), CC, MIS, triangle counting, multi-source BFS, batched BC |
//! | [`gen`] | R-MAT/Kronecker, Chung-Lu power-law, RGG, road meshes, the Table 3 dataset suite |
//! | [`baselines`] | reimplemented comparators: SuiteSparse-like, CuSha-like, Ligra-like, Gunrock-like, push baseline, serial oracle |
//! | [`service`] | concurrent query service: windowed admission, same-kind coalescing into batched traversals, per-request limits/counters, seeded load generator |

pub use graphblas_algo as algo;
pub use graphblas_baselines as baselines;
pub use graphblas_core as core;
pub use graphblas_gen as gen;
pub use graphblas_matrix as matrix;
pub use graphblas_primitives as primitives;
pub use graphblas_service as service;

/// The names most programs need.
pub mod prelude {
    pub use graphblas_algo::bc::betweenness;
    pub use graphblas_algo::bfs::{bfs, bfs_with_opts, BfsOpts, BfsResult};
    pub use graphblas_algo::bfs_parents::{bfs_parents, bfs_parents_with_opts, ParentBfsOpts};
    pub use graphblas_algo::msbfs::{multi_source_bfs, MsBfsOpts, MsBfsResult};
    pub use graphblas_algo::pagerank::{adaptive_pagerank, pagerank, PageRankOpts};
    pub use graphblas_algo::sssp::{sssp, SsspOpts};
    pub use graphblas_core::{
        mxv, mxv_batch, resolve_direction, BoolOrAnd, Descriptor, Direction, DirectionPolicy,
        FusedMxv, FusedOutput, Mask, MinPlus, PlusTimes, Vector,
    };
    pub use graphblas_matrix::{Coo, Csr, Graph, GraphStats, VertexId};
}
