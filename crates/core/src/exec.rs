//! The guarded-execution layer: deadlines, budgets, and panic isolation
//! around any GraphBLAS computation.
//!
//! [`run_guarded`] is the single robustness boundary. It installs an
//! [`ExecLimits`] on the run's [`AccessCounters`] (creating private
//! counters when the caller passed none), snapshots the counter state,
//! executes the computation under a panic catch, and classifies every
//! abnormal outcome into a typed [`GrbError`]:
//!
//! * a tripped limit → [`GrbError::Cancelled`] /
//!   [`GrbError::BudgetExceeded`] (see [`stop_error`]);
//! * a caught worker-chunk panic → [`GrbError::WorkerPanicked`] with the
//!   chunk index reported by the pool's side channel;
//! * any other panic is re-thrown untouched (it did not come from a pool
//!   chunk, so it is a caller bug, not an isolated worker fault).
//!
//! On *every* error path the guard restores the counters to their pre-run
//! snapshot and uninstalls the limits, so an aborted run leaves no trace:
//! an immediate retry observes exactly the state a fresh process would —
//! the poison-freedom contract the robustness suite pins at 1/2/8 lanes.
//!
//! Kernels participate by polling
//! [`AccessCounters::checkpoint`](graphblas_primitives::AccessCounters::checkpoint)
//! once per size-derived chunk and bailing with cheap identity results
//! once it returns `false`; the dispatchers then convert the sticky stop
//! reason into the typed error via [`check_stop`]. Because those
//! boundaries never depend on the lane count, a run that *completes* under
//! limits is still bit-identical across threads. Every armed poll reads
//! the deadline clock and the work spent, so a run overruns a tripped
//! limit by at most:
//!
//! * one chunk per lane in the row kernels (unfused and fused pulls, every
//!   `ROW_GRAIN` visited rows) and in the claim kernel (every
//!   `CLAIM_GRAIN` expanded products);
//! * one whole step in a valued push (parent BFS's min-second, SSSP's
//!   min-plus), which polls once on entry and then expands, sorts and
//!   reduces without a poll;
//! * one level in a lane group, which polls each lane at level
//!   boundaries.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};

use graphblas_primitives::AccessCounters;
pub use graphblas_primitives::{ExecLimits, StopReason};

use crate::error::{BudgetResource, GrbError, GrbResult};

/// Kernel-side checkpoint poll: `true` while the run may continue. Cheap
/// (two relaxed loads) and always `true` without counters, so kernels can
/// call it unconditionally at their chunk boundaries.
#[inline]
pub(crate) fn live(counters: Option<&AccessCounters>) -> bool {
    counters.is_none_or(AccessCounters::checkpoint)
}

/// Caller-thread allocation charge: `true` if the allocation may proceed.
/// Denial trips the bytes budget; the kernel should bail with an empty
/// result and let the dispatcher's [`check_stop`] surface the typed error.
/// Only ever called from the dispatching thread so fail-Nth-allocation
/// fault injection counts allocations in a deterministic order.
#[inline]
pub(crate) fn charge_alloc(counters: Option<&AccessCounters>, bytes: u64) -> bool {
    counters.is_none_or(|c| c.try_charge_alloc(bytes))
}

/// Map a sticky [`StopReason`] to its typed error.
#[must_use]
pub fn stop_error(reason: StopReason) -> GrbError {
    match reason {
        StopReason::Deadline => GrbError::Cancelled,
        StopReason::WorkBudget => GrbError::BudgetExceeded {
            resource: BudgetResource::Work,
        },
        StopReason::BytesBudget => GrbError::BudgetExceeded {
            resource: BudgetResource::Bytes,
        },
    }
}

/// Dispatcher-side poll: turn a tripped limit into its typed error. Cheap
/// when no limits are installed (one relaxed load).
#[inline]
pub fn check_stop(counters: Option<&AccessCounters>) -> GrbResult<()> {
    match counters.and_then(AccessCounters::stop_reason) {
        Some(reason) => Err(stop_error(reason)),
        None => Ok(()),
    }
}

/// Best-effort rendering of a panic payload for [`GrbError::WorkerPanicked`].
#[must_use]
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f` under the given limits with full fault isolation.
///
/// `f` receives the counters the run is metered through: the caller's, or
/// — when limits are set and the caller passed `None` — a private set
/// created for the run (limits are enforced *through* counters, so a
/// limited run always has them). Completed runs return `f`'s value
/// unchanged; aborted runs (tripped limit, worker-chunk panic, or an
/// error from `f` itself) restore the counters to their entry snapshot
/// and uninstall the limits before returning the typed error.
///
/// ```
/// use graphblas_core::exec::{run_guarded, ExecLimits};
/// use graphblas_core::GrbError;
/// use std::time::Duration;
///
/// // A zero deadline trips at the first checkpoint the computation polls;
/// // here the closure simply observes the trip via its counters.
/// let out: Result<(), GrbError> =
///     run_guarded(None, &ExecLimits::none().with_deadline(Duration::ZERO), |c| {
///         let c = c.expect("limited runs always have counters");
///         assert!(!c.checkpoint(), "deadline already expired");
///         Ok(())
///     });
/// assert_eq!(out, Err(GrbError::Cancelled));
/// ```
pub fn run_guarded<T>(
    counters: Option<&AccessCounters>,
    limits: &ExecLimits,
    f: impl FnOnce(Option<&AccessCounters>) -> GrbResult<T>,
) -> GrbResult<T> {
    let private;
    let active: Option<&AccessCounters> = if counters.is_none() && limits.is_limited() {
        private = AccessCounters::new();
        Some(&private)
    } else {
        counters
    };
    let baseline = active.map(AccessCounters::snapshot);
    if let Some(c) = active {
        c.install_limits(limits);
    }
    // Uninstall on every exit path — including a re-thrown panic — so a
    // tripped or armed limit can never leak into a later run.
    struct Uninstall<'a>(Option<&'a AccessCounters>);
    impl Drop for Uninstall<'_> {
        fn drop(&mut self) {
            if let Some(c) = self.0 {
                c.uninstall_limits();
            }
        }
    }
    let _uninstall = Uninstall(active);

    let result = panic::catch_unwind(AssertUnwindSafe(|| f(active)));
    let outcome = match result {
        // A kernel may have bailed at a checkpoint without the dispatcher
        // noticing (identity results look like values): the sticky trip
        // outranks an apparent success.
        Ok(Ok(value)) => match active.and_then(AccessCounters::stop_reason) {
            Some(reason) => Err(stop_error(reason)),
            None => Ok(value),
        },
        Ok(Err(e)) => Err(e),
        Err(payload) => {
            // A tripped limit is the root cause even if the abort surfaced
            // as a panic somewhere above the dispatcher.
            if let Some(reason) = active.and_then(AccessCounters::stop_reason) {
                Err(stop_error(reason))
            } else if let Some(chunk) = rayon::take_last_panic_chunk() {
                Err(GrbError::WorkerPanicked {
                    chunk,
                    message: panic_message(payload.as_ref()),
                })
            } else {
                // Not a pool chunk: restore and re-throw (caller bug).
                if let (Some(c), Some(s)) = (active, baseline.as_ref()) {
                    c.restore(s);
                }
                panic::resume_unwind(payload);
            }
        }
    };
    if outcome.is_err() {
        if let (Some(c), Some(s)) = (active, baseline.as_ref()) {
            c.restore(s);
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_guard_is_transparent() {
        let c = AccessCounters::new();
        let out = run_guarded(Some(&c), &ExecLimits::none(), |c| {
            c.expect("caller counters forwarded").add_matrix(7);
            Ok(41 + 1)
        });
        assert_eq!(out, Ok(42));
        assert_eq!(c.snapshot().matrix, 7, "completed runs keep their tallies");
    }

    #[test]
    fn tripped_limit_outranks_apparent_success_and_restores_counters() {
        let c = AccessCounters::new();
        c.add_matrix(100);
        let before = c.snapshot();
        let limits = ExecLimits::none().with_work_budget(5);
        let out = run_guarded(Some(&c), &limits, |c| {
            let c = c.expect("counters");
            c.add_matrix(50); // over budget
            assert!(!c.checkpoint());
            Ok(()) // kernel bailed silently; guard must still error
        });
        assert_eq!(
            out,
            Err(GrbError::BudgetExceeded {
                resource: BudgetResource::Work
            })
        );
        assert_eq!(c.snapshot(), before, "aborted run rolled back");
        assert_eq!(c.stop_reason(), None, "limits uninstalled");
        // Retry with the same counters and no limits: clean.
        let out = run_guarded(Some(&c), &ExecLimits::none(), |_| Ok(1));
        assert_eq!(out, Ok(1));
    }

    #[test]
    fn worker_chunk_panic_is_typed_and_pool_stays_usable() {
        use rayon::prelude::*;
        let c = AccessCounters::new();
        let out: GrbResult<Vec<u64>> = rayon::with_num_threads(4, || {
            run_guarded(Some(&c), &ExecLimits::none(), |_| {
                Ok((0..64u64)
                    .into_par_iter()
                    .with_min_len(2)
                    .map(|i| {
                        assert!(i != 33, "injected");
                        i
                    })
                    .collect())
            })
        });
        match out {
            Err(GrbError::WorkerPanicked { message, .. }) => {
                assert!(message.contains("injected"), "payload preserved: {message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // Pool and counters unpoisoned: a clean run works immediately.
        let ok: GrbResult<u64> = rayon::with_num_threads(4, || {
            run_guarded(Some(&c), &ExecLimits::none(), |_| {
                Ok((0..64u64).into_par_iter().with_min_len(2).sum())
            })
        });
        assert_eq!(ok, Ok(63 * 64 / 2));
    }

    #[test]
    fn non_pool_panics_are_rethrown() {
        let caught = panic::catch_unwind(|| {
            let _ = run_guarded(None, &ExecLimits::none(), |_| -> GrbResult<()> {
                panic!("caller bug")
            });
        });
        assert!(caught.is_err(), "guard must not swallow non-chunk panics");
    }

    #[test]
    fn private_counters_are_created_for_limited_runs() {
        let out = run_guarded(
            None,
            &ExecLimits::none().with_deadline(Duration::from_secs(3600)),
            |c| {
                assert!(c.is_some(), "limited run gets private counters");
                assert!(c.expect("counters").checkpoint());
                Ok(())
            },
        );
        assert_eq!(out, Ok(()));
    }
}
