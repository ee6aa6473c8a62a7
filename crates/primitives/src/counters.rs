//! Memory-access counters for validating the Table 1 cost model.
//!
//! The paper's central theoretical claim (Table 1) is stated in *memory
//! accesses into the matrix*, not milliseconds. Wall clock on a different
//! machine cannot falsify that model, so the matvec kernels in
//! `graphblas_core` report their access counts through this structure and
//! the `table1` experiment checks the measured counts against the
//! `O(dM)` / `O(d·nnz(m))` / `O(d·nnz(f)·log nnz(f))` predictions.
//!
//! Counting is coarse-grained (one bulk add per row/segment processed, never
//! per element in a hot loop) so enabling it does not distort the timed
//! benches that run with counting disabled.
//!
//! The counters are `AtomicU64`-backed (relaxed ordering — these are pure
//! tallies with no synchronization role), so instrumented kernels stay
//! exact when the worker pool runs them on many lanes concurrently: the
//! cost model feeding `DirectionPolicy` reports identical totals at every
//! thread count, which `tests/thread_scaling.rs` pins.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::limits::{ExecLimits, StopReason};

/// Tallies of memory accesses by category, shared across worker threads.
///
/// Besides the four Table 1 access classes, the dispatchers record each
/// resolved kernel direction ([`AccessCounters::add_push_step`] /
/// [`AccessCounters::add_pull_step`]), so a traversal's push/pull switch
/// decisions — per source, in the batched kernels — are visible in the
/// same snapshot as the traffic they caused.
///
/// Aligned to a cache line: the batched kernels charge one counter set
/// per source, and callers keep those sets side by side in a `Vec`, so
/// without the alignment workers charging neighbouring sources would
/// write to a shared line (throughput then tracks the struct's size).
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct AccessCounters {
    /// Reads of matrix storage (row pointers, column indices, values).
    pub matrix: AtomicU64,
    /// Reads/writes of the input and output vectors.
    pub vector: AtomicU64,
    /// Reads of the mask.
    pub mask: AtomicU64,
    /// Elements moved through sort passes (the multiway-merge cost).
    pub sort: AtomicU64,
    /// Matvec steps resolved to the column-based (push) kernel.
    pub push_steps: AtomicU64,
    /// Matvec steps resolved to the row-based (pull) kernel.
    pub pull_steps: AtomicU64,

    // ---- limit-enforcement state (not counters; never snapshotted) ----
    // Installed by `install_limits`, polled by `checkpoint` at the kernels'
    // size-derived chunk boundaries. Kept inside AccessCounters because
    // every kernel already threads `Option<&AccessCounters>`, so limits
    // reach every chunk boundary with zero signature changes. The polls
    // load these fields `Relaxed`: they publish no other data, and the
    // guard installs them before the run's kernels hand out any chunk.
    /// Sticky first-trip reason (`StopReason::code`); 0 = not tripped.
    tripped: AtomicU8,
    /// Fast-path gate: true only while limits are installed.
    limit_active: AtomicBool,
    /// Charged-access budget for this run; `u64::MAX` = unlimited.
    work_budget: AtomicU64,
    /// `total()` at install time — the budget meters accesses *since* then.
    base_work: AtomicU64,
    /// Kernel-allocation bytes budget; `u64::MAX` = unlimited.
    bytes_budget: AtomicU64,
    /// Bytes charged against `bytes_budget` so far this run.
    bytes_charged: AtomicU64,
    /// Absolute deadline in [`now_ns`] nanoseconds; `u64::MAX` = none.
    deadline_ns: AtomicU64,
}

/// Nanoseconds since a process-wide monotonic epoch (the first call), the
/// clock the deadline is stored and polled in.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl AccessCounters {
    /// Fresh zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` reads of matrix storage.
    #[inline]
    pub fn add_matrix(&self, n: u64) {
        self.matrix.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` reads/writes of the input and output vectors.
    #[inline]
    pub fn add_vector(&self, n: u64) {
        self.vector.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` reads of the mask.
    #[inline]
    pub fn add_mask(&self, n: u64) {
        self.mask.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` elements moved through sort passes.
    #[inline]
    pub fn add_sort(&self, n: u64) {
        self.sort.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one matvec step resolved to the column-based (push) kernel.
    #[inline]
    pub fn add_push_step(&self) {
        self.push_steps.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one matvec step resolved to the row-based (pull) kernel.
    #[inline]
    pub fn add_pull_step(&self) {
        self.pull_steps.fetch_add(1, Ordering::Relaxed);
    }

    /// Sum of all access categories (direction steps are decisions, not
    /// accesses, and are excluded).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.matrix.load(Ordering::Relaxed)
            + self.vector.load(Ordering::Relaxed)
            + self.mask.load(Ordering::Relaxed)
            + self.sort.load(Ordering::Relaxed)
    }

    /// Snapshot as plain integers.
    #[must_use]
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            matrix: self.matrix.load(Ordering::Relaxed),
            vector: self.vector.load(Ordering::Relaxed),
            mask: self.mask.load(Ordering::Relaxed),
            sort: self.sort.load(Ordering::Relaxed),
            push_steps: self.push_steps.load(Ordering::Relaxed),
            pull_steps: self.pull_steps.load(Ordering::Relaxed),
        }
    }

    /// Overwrite every counter category from a snapshot. The abort path of
    /// a guarded run uses this to roll the tallies back to their pre-run
    /// values, so a retry starts from exactly the state a fresh process
    /// would see.
    pub fn restore(&self, s: &CounterSnapshot) {
        self.matrix.store(s.matrix, Ordering::Relaxed);
        self.vector.store(s.vector, Ordering::Relaxed);
        self.mask.store(s.mask, Ordering::Relaxed);
        self.sort.store(s.sort, Ordering::Relaxed);
        self.push_steps.store(s.push_steps, Ordering::Relaxed);
        self.pull_steps.store(s.pull_steps, Ordering::Relaxed);
    }

    /// Add every category of `delta` into these counters (one relaxed
    /// atomic add per field). The attributed batch kernels use this to
    /// fold each row's privately-charged work back into the shared
    /// aggregate at the end of the call, so an attributed batch's shared
    /// totals stay identical to an unattributed run of the same batch.
    pub fn absorb(&self, delta: &CounterSnapshot) {
        self.matrix.fetch_add(delta.matrix, Ordering::Relaxed);
        self.vector.fetch_add(delta.vector, Ordering::Relaxed);
        self.mask.fetch_add(delta.mask, Ordering::Relaxed);
        self.sort.fetch_add(delta.sort, Ordering::Relaxed);
        self.push_steps
            .fetch_add(delta.push_steps, Ordering::Relaxed);
        self.pull_steps
            .fetch_add(delta.pull_steps, Ordering::Relaxed);
    }

    // ---- limit enforcement ----

    /// Arm the given limits on these counters. The deadline clock starts
    /// now; the work budget meters accesses charged from this point on.
    /// Replaces any previously installed limits and clears a stale trip.
    pub fn install_limits(&self, limits: &ExecLimits) {
        self.tripped.store(0, Ordering::SeqCst);
        self.work_budget
            .store(limits.work_budget.unwrap_or(u64::MAX), Ordering::SeqCst);
        self.base_work.store(self.total(), Ordering::SeqCst);
        self.bytes_budget
            .store(limits.bytes_budget.unwrap_or(u64::MAX), Ordering::SeqCst);
        self.bytes_charged.store(0, Ordering::SeqCst);
        let deadline = limits.deadline.map_or(u64::MAX, |d| {
            now_ns().saturating_add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        });
        self.deadline_ns.store(deadline, Ordering::SeqCst);
        self.limit_active
            .store(limits.is_limited(), Ordering::SeqCst);
    }

    /// Disarm limits and clear any trip, returning the counters to the
    /// zero-overhead unlimited state. The guard on a limited run calls this
    /// on every exit path (including aborts), so a tripped state can never
    /// leak into the next run.
    pub fn uninstall_limits(&self) {
        self.limit_active.store(false, Ordering::SeqCst);
        self.tripped.store(0, Ordering::SeqCst);
        self.work_budget.store(u64::MAX, Ordering::SeqCst);
        self.bytes_budget.store(u64::MAX, Ordering::SeqCst);
        self.bytes_charged.store(0, Ordering::SeqCst);
        self.deadline_ns.store(u64::MAX, Ordering::SeqCst);
    }

    /// Why this run was stopped, if a limit has tripped.
    #[must_use]
    pub fn stop_reason(&self) -> Option<StopReason> {
        StopReason::from_code(self.tripped.load(Ordering::SeqCst))
    }

    /// Poll the installed limits. Returns `true` when execution may
    /// continue, `false` once any limit has tripped (kernels then bail out
    /// with a cheap identity result and the dispatcher maps the sticky
    /// [`StopReason`] to a typed error).
    ///
    /// The unlimited fast path is two relaxed loads. An armed poll reads
    /// the deadline clock (when a deadline is set) and compares the work
    /// spent since install with the budget, every call. The kernels poll
    /// once per size-derived chunk, so an armed run overruns a tripped
    /// limit by at most:
    ///
    /// * one chunk per lane for the row kernels (`ROW_GRAIN` visited rows)
    ///   and the claim kernel (`CLAIM_GRAIN` expanded products), whose
    ///   charges land when the chunk ends;
    /// * one whole step for a valued push, which polls once on entry and
    ///   then expands, sorts and reduces without a poll;
    /// * one level for a lane group, polled at each level boundary.
    #[inline]
    #[must_use]
    pub fn checkpoint(&self) -> bool {
        if self.tripped.load(Ordering::Relaxed) != 0 {
            return false;
        }
        if !self.limit_active.load(Ordering::Relaxed) {
            return true;
        }
        self.checkpoint_slow()
    }

    #[cold]
    fn checkpoint_slow(&self) -> bool {
        let deadline = self.deadline_ns.load(Ordering::Relaxed);
        if deadline != u64::MAX && now_ns() >= deadline {
            self.trip(StopReason::Deadline);
            return false;
        }
        let budget = self.work_budget.load(Ordering::Relaxed);
        if budget != u64::MAX {
            let spent = self
                .total()
                .saturating_sub(self.base_work.load(Ordering::Relaxed));
            if spent >= budget {
                self.trip(StopReason::WorkBudget);
                return false;
            }
        }
        true
    }

    /// Charge `bytes` of kernel buffer allocation against the bytes budget
    /// (and give the fault-injection harness its allocation hook). Returns
    /// `false` — after tripping [`StopReason::BytesBudget`] — when the
    /// charge is denied; the caller must then abort before allocating.
    #[must_use]
    pub fn try_charge_alloc(&self, bytes: u64) -> bool {
        #[cfg(feature = "fault-injection")]
        if crate::fault::alloc_fault_fires() {
            self.trip(StopReason::BytesBudget);
            return false;
        }
        if self.tripped.load(Ordering::Relaxed) != 0 {
            return false;
        }
        if !self.limit_active.load(Ordering::Relaxed) {
            return true;
        }
        let budget = self.bytes_budget.load(Ordering::Relaxed);
        if budget == u64::MAX {
            return true;
        }
        let charged = self.bytes_charged.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if charged > budget {
            self.trip(StopReason::BytesBudget);
            return false;
        }
        true
    }

    /// Record the first trip reason; later trips keep the original.
    fn trip(&self, reason: StopReason) {
        let _ = self
            .tripped
            .compare_exchange(0, reason.code(), Ordering::SeqCst, Ordering::SeqCst);
    }
}

/// Plain-integer snapshot of [`AccessCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    /// Reads of matrix storage (row pointers, column indices, values).
    pub matrix: u64,
    /// Reads/writes of the input and output vectors.
    pub vector: u64,
    /// Reads of the mask.
    pub mask: u64,
    /// Elements moved through sort passes (the multiway-merge cost).
    pub sort: u64,
    /// Steps the dispatcher resolved to push (column kernel).
    pub push_steps: u64,
    /// Steps the dispatcher resolved to pull (row kernel).
    pub pull_steps: u64,
}

impl CounterSnapshot {
    /// Sum of all access categories (direction steps excluded, as in
    /// [`AccessCounters::total`]).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.matrix + self.vector + self.mask + self.sort
    }

    /// Field-wise difference `self − earlier` (saturating), for folding a
    /// counter's growth since a baseline into another set of counters via
    /// [`AccessCounters::absorb`].
    #[must_use]
    pub fn delta_since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            matrix: self.matrix.saturating_sub(earlier.matrix),
            vector: self.vector.saturating_sub(earlier.vector),
            mask: self.mask.saturating_sub(earlier.mask),
            sort: self.sort.saturating_sub(earlier.sort),
            push_steps: self.push_steps.saturating_sub(earlier.push_steps),
            pull_steps: self.pull_steps.saturating_sub(earlier.pull_steps),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let c = AccessCounters::new();
        c.add_matrix(10);
        c.add_matrix(5);
        c.add_vector(2);
        c.add_mask(3);
        c.add_sort(7);
        c.add_push_step();
        c.add_push_step();
        c.add_pull_step();
        let s = c.snapshot();
        assert_eq!(
            s,
            CounterSnapshot {
                matrix: 15,
                vector: 2,
                mask: 3,
                sort: 7,
                push_steps: 2,
                pull_steps: 1,
            }
        );
        assert_eq!(s.total(), 27, "direction steps are not accesses");
        assert_eq!(c.total(), 27);
    }

    #[test]
    fn restore_rolls_counters_back() {
        let c = AccessCounters::new();
        c.add_matrix(10);
        c.add_push_step();
        let before = c.snapshot();
        c.add_matrix(99);
        c.add_vector(3);
        assert_ne!(c.snapshot(), before);
        c.restore(&before);
        assert_eq!(c.snapshot(), before);
    }

    #[test]
    fn absorb_folds_a_delta_into_another_counter_set() {
        let private = AccessCounters::new();
        let base = private.snapshot();
        private.add_matrix(10);
        private.add_push_step();
        let shared = AccessCounters::new();
        shared.add_matrix(5);
        shared.absorb(&private.snapshot().delta_since(&base));
        let s = shared.snapshot();
        assert_eq!(s.matrix, 15);
        assert_eq!(s.push_steps, 1);
        // Saturating: a restored (rolled-back) private counter folds as 0.
        private.restore(&base);
        shared.absorb(&private.snapshot().delta_since(&base));
        assert_eq!(shared.snapshot(), s, "empty delta absorbs as a no-op");
    }

    #[test]
    fn unlimited_checkpoint_always_continues() {
        let c = AccessCounters::new();
        assert!(c.checkpoint());
        c.install_limits(&ExecLimits::none());
        assert!(c.checkpoint());
        assert_eq!(c.stop_reason(), None);
        assert!(c.try_charge_alloc(1 << 40));
    }

    #[test]
    fn zero_deadline_trips_at_first_checkpoint() {
        let c = AccessCounters::new();
        c.install_limits(&ExecLimits::none().with_deadline(std::time::Duration::ZERO));
        assert!(!c.checkpoint());
        assert_eq!(c.stop_reason(), Some(StopReason::Deadline));
        // Sticky: later checkpoints keep refusing.
        assert!(!c.checkpoint());
        c.uninstall_limits();
        assert_eq!(c.stop_reason(), None);
        assert!(c.checkpoint());
    }

    #[test]
    fn every_poll_reads_the_deadline_clock() {
        let c = AccessCounters::new();
        c.install_limits(&ExecLimits::none().with_deadline(std::time::Duration::from_millis(1)));
        assert!(c.checkpoint(), "the first poll comes before the deadline");
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(!c.checkpoint(), "the next poll sees the expiry");
        assert_eq!(c.stop_reason(), Some(StopReason::Deadline));
        c.uninstall_limits();
        assert!(c.checkpoint(), "uninstalled limits no longer trip");
    }

    #[test]
    fn work_budget_meters_accesses_since_install() {
        let c = AccessCounters::new();
        c.add_matrix(1_000); // pre-existing traffic must not count
        c.install_limits(&ExecLimits::none().with_work_budget(10));
        assert!(c.checkpoint());
        c.add_matrix(4);
        assert!(c.checkpoint(), "4 < 10");
        c.add_vector(6);
        assert!(!c.checkpoint(), "10 >= 10");
        assert_eq!(c.stop_reason(), Some(StopReason::WorkBudget));
        c.uninstall_limits();
    }

    #[test]
    fn bytes_budget_denies_alloc_and_trips() {
        let c = AccessCounters::new();
        c.install_limits(&ExecLimits::none().with_bytes_budget(100));
        assert!(c.try_charge_alloc(60));
        assert!(c.try_charge_alloc(40), "exactly on budget is allowed");
        assert!(!c.try_charge_alloc(1));
        assert_eq!(c.stop_reason(), Some(StopReason::BytesBudget));
        assert!(!c.checkpoint());
        c.uninstall_limits();
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        use rayon::prelude::*;
        // Force real lanes regardless of the machine/env so the adds
        // genuinely race; atomics must not drop any.
        rayon::with_num_threads(8, || {
            let c = AccessCounters::new();
            (0..100_000u64)
                .into_par_iter()
                .with_min_len(64)
                .for_each(|_| c.add_matrix(1));
            assert_eq!(c.snapshot().matrix, 100_000);
        });
    }
}
