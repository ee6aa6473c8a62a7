//! GraphBLAS-style core: generalized semirings, sparse/dense vectors, masks
//! with structural complement, and the
//! four matvec kernels of Table 1 behind a single `mxv` entry point that
//! performs the paper's push-pull direction optimization at runtime.
//!
//! Every kernel reads the graph's CSR of `A` or of `Aᵀ` — the paper's
//! storage (§3) — and takes it as a concrete [`graphblas_matrix::Csr`].
//! The matrix crate's alternate stores (bitmap, DCSR) are built only for
//! the benchmark's build-time metrics; no core call reads them.
//!
//! The library follows the paper's central isomorphism (§4): *push* is
//! column-based matvec over a sparse input vector, *pull* is row-based
//! masked matvec over a dense input vector, and both are the same GraphBLAS
//! expression `f' = Aᵀf .∗ ¬v`. User code writes the expression once
//! (see `graphblas_algo`'s BFS, a direct transcription of Algorithm 1);
//! the backend here picks the kernel.
//!
//! Each of the paper's five optimizations can be switched off on its own,
//! so the Table 2 ablation can be reproduced — through [`Descriptor`], the
//! algorithm layer, or the choice of semiring:
//!
//! 1. **Change of direction** — [`ops_mxv::mxv`] dispatches on the input
//!    vector's storage or a forced direction; [`plan::DirectionPolicy`]
//!    decides each level of an iterative algorithm: BFS prices both
//!    directions by the edges they read (`m_f` against `d̄·|unvisited|/α`),
//!    the other traversals keep the paper's `nnz(f)/|V| >< 0.01`
//!    hysteresis or its two-phase variant.
//! 2. **Masking** — [`mask::Mask`], applied inside the row and column
//!    kernels of a masked `mxv`.
//! 3. **Early-exit** — row-based masked kernel breaks out of a row when the
//!    ⊕ monoid hits its annihilator (`OR` saturating at `true`).
//! 4. **Operand reuse** — enabled by the algorithm layer, which may pass the
//!    visited vector in place of the frontier (Gunrock's trick, §5.4).
//! 5. **Structure-only** — when the semiring declares a constant product
//!    (§5.5, [`ops::Semiring::product_hint`]), the column kernel claims
//!    mask-passing outputs in a bit set and sorts only the winners instead
//!    of merging (key, value) pairs.
//!
//! [`ops_mxv_batch`] generalizes the direction machinery to frontier
//! *batches* (a slice of `k` vectors): [`ops_mxv_batch::mxv_batch`]
//! runs every row through `mxv`'s own dispatch and single-source kernel,
//! push rows side by side and pull rows one at a time across every lane —
//! the batched Brandes BC and multi-source SSSP workloads.
//! [`ops_mxv_lanes`] serves the BFS family instead: up to 64 sources share
//! one `u64` lane word per vertex, and one pull sweep plus one push sweep
//! per level serve every lane.
//!
//! [`fused`] adds the kernel-fusion layer on top of the same dispatch: the
//! lazy [`fused::FusedMxv`] builder compiles a masked `mxv` + elementwise
//! `apply` + `assign` chain into a single pass over either kernel face, so
//! iterative algorithms update their long-lived state (depths, parents,
//! labels, distances, ranks) without materializing an intermediate vector
//! per step — GraphBLAST's co-equal optimization next to masking.

#![warn(missing_docs)]

pub mod descriptor;
pub mod error;
pub mod exec;
pub mod fused;
pub mod mask;
pub mod matrix_ops;
pub mod mxm;
pub mod ops;
pub mod ops_mxv;
pub mod ops_mxv_batch;
pub mod ops_mxv_lanes;
pub mod plan;
pub mod vector;
pub mod vector_ops;

pub use descriptor::{Descriptor, Direction, DirectionChoice};
pub use error::{BudgetResource, GrbError, GrbResult};
pub use exec::{check_stop, run_guarded, ExecLimits, StopReason};
pub use fused::{FusedMxv, FusedOutput, FusedPipeline};
pub use mask::Mask;
pub use ops::{BoolOrAnd, MinPlus, Monoid, PlusTimes, Scalar, Semiring, SemiringNum};
pub use ops_mxv::mxv;
pub use ops_mxv_batch::mxv_batch;
pub use ops_mxv_lanes::{LaneCharges, LaneGroup, MAX_LANES};
pub use plan::{resolve_direction, resolve_plan, DirectionPolicy};
pub use vector::{DenseVector, SparseVector, Vector};
