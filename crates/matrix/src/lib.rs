//! Sparse matrix storage for the push-pull GraphBLAS reproduction.
//!
//! The paper stores the graph's adjacency matrix twice: once row-major (CSR
//! of `A`, giving children / outgoing edges) and once as the transpose (CSR
//! of `Aᵀ`, i.e. CSC of `A`, giving parents / incoming edges). Row-based
//! matvec walks rows of the operand; column-based matvec fetches columns,
//! which are rows of the transpose (§3). [`Graph`] bundles both orientations
//! so the runtime direction switch never *computes* a transpose on the fly —
//! a `Descriptor::transpose` request is satisfied by swapping which of the
//! two prebuilt CSRs plays the `operand`/`operand_t` role (see the operand
//! resolution in `graphblas_core`'s `mxv` dispatch, which `FusedMxv` and
//! `mxv_batch` share), so honoring the flag costs a pointer swap, not a
//! rebuild.
//!
//! * [`coo`] — triplet builder with the paper's §7.1 dataset cleaning
//!   (self-loop removal, duplicate removal, symmetrization).
//! * [`csr`] — compressed sparse row storage with parallel construction.
//! * [`storage`] — the multi-format layer: [`storage::RowAccess`] (the
//!   stores' shared read surface), [`storage::BitmapStore`] and
//!   [`storage::Dcsr`] alternate backends, and the [`Storage`] enum with
//!   conversions. `graphblas_core` reads CSR only; the alternate stores
//!   remain for the benchmark's build-time metrics.
//! * [`graph`] — the dual-orientation [`Graph`] handle with a lazy
//!   per-orientation format cache ([`Graph::store`]).
//! * [`mmio`] — Matrix Market I/O so real datasets can be dropped in.
//! * [`stats`] — the Table 3 columns: |V|, |E|, max degree, pseudo-diameter.

#![warn(missing_docs)]
// Robustness line-holder: user input reaches this crate (Matrix Market
// loaders, raw-part constructors), so non-test code must surface failures
// as typed errors, never unwrap/expect panics.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod coo;
pub mod csr;
pub mod graph;
pub mod mmio;
pub mod stats;
pub mod storage;

pub use coo::Coo;
pub use csr::Csr;
pub use graph::{Graph, StoreRef};
pub use stats::GraphStats;
pub use storage::{BitmapPlan, BitmapStore, Dcsr, RowAccess, Storage, StorageFormat, TILE_ROWS};

/// Vertex index type. `u32` bounds graphs at ~4.29 B vertices, which covers
/// every dataset in the paper (largest: road_usa, 23.9 M vertices) while
/// halving index bandwidth versus `usize` — the same choice GPU frameworks
/// make.
pub type VertexId = u32;
