//! Execution limits: deadlines and resource budgets for one guarded run.
//!
//! A production service sharing one graph across many tenants needs every
//! query to be *bounded*: a wall-clock deadline, a cap on charged memory
//! accesses (the same measured-work currency the push/pull cost model
//! already uses), and a cap on bytes the run may spend on kernel buffers.
//! [`ExecLimits`] is the caller-facing description of those
//! bounds; the enforcement state lives inside
//! [`AccessCounters`](crate::counters::AccessCounters), which every kernel
//! already threads, so installing limits changes no kernel signatures.
//!
//! Enforcement is cooperative and chunk-grained: kernels poll
//! [`AccessCounters::checkpoint`](crate::counters::AccessCounters::checkpoint)
//! at their existing size-derived chunk boundaries (per pull chunk, per
//! claim chunk, per expansion preamble), which bounds how far a run
//! overruns a tripped limit (see `checkpoint`). Because those boundaries
//! never depend on the lane count, a run that completes under limits is
//! bit-identical to an unlimited run; a run that trips aborts with a typed
//! error and leaves caller state and (after the guard restores them) the
//! counters untouched.

use std::time::Duration;

/// Why a limited run was stopped — the sticky trip reason recorded by the
/// first checkpoint that observed a limit violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The wall-clock deadline expired.
    Deadline,
    /// The charged-access work budget was exhausted.
    WorkBudget,
    /// The bytes budget for kernel allocations was exhausted (or an
    /// injected allocation failure fired).
    BytesBudget,
}

impl StopReason {
    pub(crate) const fn code(self) -> u8 {
        match self {
            StopReason::Deadline => 1,
            StopReason::WorkBudget => 2,
            StopReason::BytesBudget => 3,
        }
    }

    pub(crate) const fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(StopReason::Deadline),
            2 => Some(StopReason::WorkBudget),
            3 => Some(StopReason::BytesBudget),
            _ => None,
        }
    }
}

/// Resource limits for one guarded execution. The default is unlimited —
/// installing it is free and trips nothing.
///
/// ```
/// use graphblas_primitives::limits::ExecLimits;
/// use std::time::Duration;
///
/// let limits = ExecLimits::none()
///     .with_deadline(Duration::from_millis(50))
///     .with_work_budget(1_000_000);
/// assert!(limits.is_limited());
/// assert!(!ExecLimits::none().is_limited());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecLimits {
    /// Wall-clock deadline, measured from the moment the limits are
    /// installed. `None` = no deadline.
    pub deadline: Option<Duration>,
    /// Budget on charged accesses (the [`total`] of the four Table 1
    /// access classes) this run may spend. `None` = unlimited.
    ///
    /// [`total`]: crate::counters::AccessCounters::total
    pub work_budget: Option<u64>,
    /// Budget on bytes the run may spend on kernel buffer allocations
    /// (outputs, expansion buffers, claim sets). `None` = unlimited.
    pub bytes_budget: Option<u64>,
}

impl ExecLimits {
    /// No limits at all (the default).
    #[must_use]
    pub const fn none() -> Self {
        Self {
            deadline: None,
            work_budget: None,
            bytes_budget: None,
        }
    }

    /// Builder: set the wall-clock deadline.
    #[must_use]
    pub const fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Builder: set the charged-access work budget.
    #[must_use]
    pub const fn with_work_budget(mut self, accesses: u64) -> Self {
        self.work_budget = Some(accesses);
        self
    }

    /// Builder: set the kernel-allocation bytes budget.
    #[must_use]
    pub const fn with_bytes_budget(mut self, bytes: u64) -> Self {
        self.bytes_budget = Some(bytes);
        self
    }

    /// Whether any limit is actually set.
    #[must_use]
    pub const fn is_limited(&self) -> bool {
        self.deadline.is_some() || self.work_budget.is_some() || self.bytes_budget.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_reason_codes_round_trip() {
        for r in [
            StopReason::Deadline,
            StopReason::WorkBudget,
            StopReason::BytesBudget,
        ] {
            assert_eq!(StopReason::from_code(r.code()), Some(r));
        }
        assert_eq!(StopReason::from_code(0), None);
    }
}
