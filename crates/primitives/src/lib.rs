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
//! * [`sort`] — LSD radix sort, key-only and key-value: a valued push's
//!   merge sorts (key, product) pairs (§6.2), a structure-only push sorts
//!   only the vertices it claimed (§5.5).
//! * [`segreduce`] — segmented reduction under an arbitrary monoid; with
//!   the key-value sort it is the one merge a valued push runs.
//! * [`spa`] — the sparse accumulator of Gilbert, Moler & Schreiber, which
//!   `mxm`'s Gustavson rows accumulate into.
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
pub mod pool;
pub mod scan;
pub mod segreduce;
pub mod sort;
pub mod spa;

pub use bitvec::{AtomicBitVec, BitVec};
pub use counters::{AccessCounters, CounterSnapshot};
pub use limits::{ExecLimits, StopReason};
pub use spa::Spa;
