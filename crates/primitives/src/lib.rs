//! Parallel primitives substrate for the push-pull GraphBLAS reproduction.
//!
//! The paper implements its column-based masked matvec (Algorithm 3) on the
//! GPU out of four library primitives: prefix-sum (ModernGPU `Scan`),
//! load-balanced gather (ModernGPU `IntervalGather`), radix sort (CUB), and
//! segmented reduction (CUB). This crate provides CPU equivalents of those
//! primitives with the same operator contracts, plus the supporting data
//! structures the paper relies on:
//!
//! * [`scan`] — sequential and parallel exclusive/inclusive prefix sums.
//! * [`gather`] — load-balanced interval gather over CSR-style segments.
//! * [`sort`] — LSD radix sort, key-only and key-value. The key-only /
//!   key-value distinction is the paper's *structure-only* optimization
//!   (§5.5): dropping the value payload halves sort traffic.
//! * [`segreduce`] — segmented reduction under an arbitrary monoid.
//! * [`merge`] — heap-based multiway merge, `O(n log k)`; combines the
//!   per-chunk SPA harvests of the `SpaMerge` column kernel in chunk order.
//! * [`spa`] — the sparse accumulator of Gilbert, Moler & Schreiber.
//! * [`bitvec`] — plain and atomic bit vectors for visited sets and masks.
//! * [`counters`] — memory-access counters used to *measure* the Table 1
//!   cost model directly instead of inferring it from wall clock.
//! * [`pool`] — grain-controlled parallel-for helpers.
//! * [`limits`] — cooperative deadlines and work/bytes budgets enforced at
//!   the kernels' chunk boundaries through [`counters`].
//! * `fault` (behind the `fault-injection` cargo feature) — deterministic
//!   seeded fault injection for the chaos/robustness suite.

#![warn(missing_docs)]

pub mod bitvec;
pub mod counters;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod gather;
pub mod limits;
pub mod merge;
pub mod pool;
pub mod scan;
pub mod segreduce;
pub mod sort;
pub mod spa;

pub use bitvec::{AtomicBitVec, BitVec};
pub use counters::{AccessCounters, CounterSnapshot};
pub use limits::{ExecLimits, StopReason};
pub use spa::Spa;
