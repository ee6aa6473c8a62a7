//! Deterministic fault injection (compiled only with the `fault-injection`
//! cargo feature).
//!
//! A [`FaultPlan`] arms a fixed, seeded set of process-global trigger
//! points so robustness tests and the `paper -- chaos` study can exercise
//! every failure class on demand:
//!
//! * **allocation failure** — the Nth charged kernel allocation (see
//!   [`AccessCounters::try_charge_alloc`]) reports failure, surfacing as a
//!   typed `BudgetExceeded`;
//! * **worker-chunk panic** — the Kth pool chunk executed after arming
//!   panics inside the pool's per-chunk catch (installed into the vendored
//!   `rayon` via [`rayon::set_chunk_fault_countdown`]), surfacing as
//!   `WorkerPanicked { chunk }`;
//! * **cost inflation** — the frontier out-edges that default BFS's edge
//!   direction rule prices are multiplied by a factor, exercising graceful
//!   survival of a wildly wrong planner (direction choices never change
//!   results).
//!
//! All trigger state is plain atomics: arming the same plan before two
//! runs injects the same faults at the same logical points, which is what
//! lets the chaos study assert that a post-fault retry is bit-identical to
//! a clean run.
//!
//! [`AccessCounters::try_charge_alloc`]: crate::counters::AccessCounters::try_charge_alloc

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A seeded, deterministic set of faults to inject into the next run(s).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed recorded with the plan (reported by the chaos study so a
    /// failing scenario can be replayed exactly).
    pub seed: u64,
    /// Fail the Nth charged allocation (1-based). `None` = off.
    pub fail_alloc_nth: Option<u64>,
    /// Panic in the Kth worker-pool chunk executed (1-based). `None` = off.
    pub panic_chunk_nth: Option<u64>,
    /// Multiply the out-edges `m_f` that BFS's edge direction rule reads
    /// off a growing push frontier by this factor. `None` = off.
    pub cost_inflation: Option<f64>,
}

/// Remaining charged allocations until the armed failure fires; negative
/// means disarmed.
static ALLOC_COUNTDOWN: AtomicI64 = AtomicI64::new(-1);
/// Bit pattern of the cost-inflation factor; 0 means disarmed.
static COST_INFLATION_BITS: AtomicU64 = AtomicU64::new(0);

/// Arm a fault plan process-wide. Replaces any previously armed plan.
pub fn install(plan: &FaultPlan) {
    ALLOC_COUNTDOWN.store(
        plan.fail_alloc_nth.map_or(-1, |n| n.max(1) as i64 - 1),
        Ordering::SeqCst,
    );
    COST_INFLATION_BITS.store(
        plan.cost_inflation.map_or(0, f64::to_bits),
        Ordering::SeqCst,
    );
    rayon::set_chunk_fault_countdown(plan.panic_chunk_nth);
}

/// Disarm all injected faults.
pub fn clear() {
    ALLOC_COUNTDOWN.store(-1, Ordering::SeqCst);
    COST_INFLATION_BITS.store(0, Ordering::SeqCst);
    rayon::set_chunk_fault_countdown(None);
}

/// Called by every charged allocation: returns `true` exactly
/// when the armed Nth-allocation failure fires (and disarms it).
#[must_use]
pub fn alloc_fault_fires() -> bool {
    if ALLOC_COUNTDOWN.load(Ordering::Relaxed) < 0 {
        return false;
    }
    ALLOC_COUNTDOWN.fetch_sub(1, Ordering::SeqCst) == 0
}

/// The armed edge-rule inflation factor (1.0 when disarmed).
#[must_use]
pub fn cost_inflation() -> f64 {
    match COST_INFLATION_BITS.load(Ordering::Relaxed) {
        0 => 1.0,
        bits => f64::from_bits(bits),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_countdown_fires_exactly_once_at_nth() {
        install(&FaultPlan {
            fail_alloc_nth: Some(3),
            ..FaultPlan::default()
        });
        assert!(!alloc_fault_fires(), "1st charge survives");
        assert!(!alloc_fault_fires(), "2nd charge survives");
        assert!(alloc_fault_fires(), "3rd charge fails");
        assert!(!alloc_fault_fires(), "fault is one-shot");
        clear();
        assert!(!alloc_fault_fires(), "disarmed");
    }

    #[test]
    fn cost_inflation_defaults_to_identity() {
        clear();
        assert_eq!(cost_inflation(), 1.0);
        install(&FaultPlan {
            cost_inflation: Some(8.0),
            ..FaultPlan::default()
        });
        assert_eq!(cost_inflation(), 8.0);
        clear();
        assert_eq!(cost_inflation(), 1.0);
    }
}
