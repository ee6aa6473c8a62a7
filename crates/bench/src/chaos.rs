//! Chaos study (compiled only with the `fault-injection` feature): drive
//! every injected fault class through the guarded BFS entry point and
//! check the two robustness contracts —
//!
//! * **survival** — the faulted run surfaces as the expected typed
//!   [`GrbError`] (or, for cost inflation, completes with the clean
//!   run's depths); the process never aborts;
//! * **recovery** — an immediate retry with the fault cleared is
//!   bit-identical (depths *and* counter snapshot) to an uninterrupted
//!   clean run, proving the abort left no poison behind.
//!
//! Each scenario runs clean → faulted → retry under an explicit lane
//! count, so the suite exercises the panic-isolated pool at 1/2/8 lanes.

use graphblas_algo::bfs::{try_bfs_with_opts, BfsOpts};
use graphblas_core::descriptor::Direction;
use graphblas_core::{ExecLimits, GrbError};
use graphblas_matrix::{Graph, VertexId};
use graphblas_primitives::counters::AccessCounters;
use graphblas_primitives::fault::{self, FaultPlan};
use std::time::Duration;

/// Every injected fault class the chaos study exercises.
pub const FAULT_CLASSES: [FaultClass; 5] = [
    FaultClass::Deadline,
    FaultClass::WorkBudget,
    FaultClass::AllocFail,
    FaultClass::ChunkPanic,
    FaultClass::CostInflate,
];

/// One injected failure mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// Zero wall-clock deadline: trips at the first checkpoint.
    Deadline,
    /// Tiny charged-access work budget: trips mid-traversal.
    WorkBudget,
    /// The first charged kernel allocation reports failure: typed
    /// `BudgetExceeded { Bytes }` at a site with no fallback.
    AllocFail,
    /// The first worker-pool chunk panics: caught at the chunk boundary
    /// and surfaced as `WorkerPanicked`; the pool stays usable.
    ChunkPanic,
    /// The frontier out-edges default BFS's edge rule prices are inflated
    /// 64×: direction choices may flip but results must not change.
    CostInflate,
}

impl FaultClass {
    /// Stable name used in the report table and `BENCH_chaos.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Deadline => "deadline",
            FaultClass::WorkBudget => "work-budget",
            FaultClass::AllocFail => "alloc-fail",
            FaultClass::ChunkPanic => "chunk-panic",
            FaultClass::CostInflate => "cost-inflate",
        }
    }
}

/// Outcome of one (fault class, lane count) scenario.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// Which fault was injected.
    pub fault: FaultClass,
    /// Lane count the scenario ran under.
    pub threads: usize,
    /// What the faulted run produced (typed error or completion note).
    pub observed: String,
    /// The faulted run surfaced as the expected typed outcome.
    pub survived: bool,
    /// Retry after clearing the fault was bit-identical to the clean run
    /// (depths and counter snapshot) and the faulted run's counters were
    /// rolled back.
    pub recovered: bool,
}

/// Options for one fault class: the alloc-fail scenario runs unfused (the
/// separate-op kernels charge their output buffers on the caller thread),
/// the chunk-panic scenario forces the row kernel (whose per-row loop
/// always chunks through the pool — a mesh's thin push frontiers can stay
/// under the column kernel's chunk grain and never arm a pool chunk), and
/// every other scenario, inflation included, runs default BFS.
fn scenario_opts(fault: FaultClass) -> BfsOpts {
    let base = BfsOpts::default();
    match fault {
        FaultClass::AllocFail => BfsOpts {
            fused: false,
            ..base
        },
        FaultClass::ChunkPanic => BfsOpts {
            force: Some(Direction::Pull),
            ..base
        },
        _ => base,
    }
}

/// Limits and fault plan that arm the scenario's failure.
fn scenario_fault(fault: FaultClass, seed: u64) -> (ExecLimits, FaultPlan) {
    let plan = FaultPlan {
        seed,
        ..FaultPlan::default()
    };
    match fault {
        FaultClass::Deadline => (ExecLimits::none().with_deadline(Duration::ZERO), plan),
        FaultClass::WorkBudget => (ExecLimits::none().with_work_budget(512), plan),
        FaultClass::AllocFail => (
            ExecLimits::none(),
            FaultPlan {
                fail_alloc_nth: Some(1),
                ..plan
            },
        ),
        FaultClass::ChunkPanic => (
            ExecLimits::none(),
            FaultPlan {
                panic_chunk_nth: Some(1),
                ..plan
            },
        ),
        FaultClass::CostInflate => (
            ExecLimits::none(),
            FaultPlan {
                cost_inflation: Some(64.0),
                ..plan
            },
        ),
    }
}

/// Run clean → faulted → retry for every fault class at every lane count.
#[must_use]
pub fn chaos_study(
    g: &Graph<bool>,
    source: VertexId,
    seed: u64,
    thread_counts: &[usize],
) -> Vec<ChaosOutcome> {
    let mut out = Vec::new();
    for &lanes in thread_counts {
        for fc in FAULT_CLASSES {
            out.push(rayon::with_num_threads(lanes, || {
                run_scenario(g, source, seed, lanes, fc)
            }));
        }
    }
    out
}

fn run_scenario(
    g: &Graph<bool>,
    source: VertexId,
    seed: u64,
    threads: usize,
    fc: FaultClass,
) -> ChaosOutcome {
    fault::clear();
    let clean_opts = scenario_opts(fc);

    // 1. Uninterrupted clean run — the bit-identity reference.
    let clean_c = AccessCounters::new();
    let clean =
        try_bfs_with_opts(g, source, &clean_opts, Some(&clean_c)).expect("clean run cannot abort");
    let clean_snap = clean_c.snapshot();

    // 2. Faulted run.
    let (limits, plan) = scenario_fault(fc, seed);
    let fault_opts = BfsOpts {
        limits,
        ..clean_opts
    };
    let fault_c = AccessCounters::new();
    let baseline = fault_c.snapshot();
    fault::install(&plan);
    // The injected chunk panic unwinds through the pool's catch; silence
    // the default "thread panicked" banner for exactly that window.
    let silenced = fc == FaultClass::ChunkPanic;
    let prev_hook = silenced.then(std::panic::take_hook);
    if silenced {
        std::panic::set_hook(Box::new(|_| {}));
    }
    let faulted = try_bfs_with_opts(g, source, &fault_opts, Some(&fault_c));
    if let Some(hook) = prev_hook {
        std::panic::set_hook(hook);
    }
    fault::clear();
    let fault_snap = fault_c.snapshot();

    // 3. Survival: the expected typed outcome, and (on error) counters
    // rolled back to the pre-run snapshot.
    let (survived, observed) = classify(fc, &faulted, &clean.depths);
    let rolled_back = match &faulted {
        Err(_) => fault_snap == baseline,
        Ok(_) => true,
    };

    // 4. Recovery: an immediate retry with the fault cleared must be
    // bit-identical to the clean run — depths and counter snapshot.
    let retry_c = AccessCounters::new();
    let retry = try_bfs_with_opts(g, source, &clean_opts, Some(&retry_c));
    let recovered = rolled_back
        && matches!(&retry, Ok(r) if r.depths == clean.depths)
        && retry_c.snapshot() == clean_snap;

    ChaosOutcome {
        fault: fc,
        threads,
        observed,
        survived,
        recovered,
    }
}

/// Expected-outcome check per fault class.
fn classify(
    fc: FaultClass,
    faulted: &Result<graphblas_algo::bfs::BfsResult, GrbError>,
    clean_depths: &[i32],
) -> (bool, String) {
    use graphblas_core::BudgetResource;
    match (fc, faulted) {
        (FaultClass::Deadline, Err(e @ GrbError::Cancelled)) => (true, e.to_string()),
        (
            FaultClass::WorkBudget,
            Err(
                e @ GrbError::BudgetExceeded {
                    resource: BudgetResource::Work,
                },
            ),
        ) => (true, e.to_string()),
        (
            FaultClass::AllocFail,
            Err(
                e @ GrbError::BudgetExceeded {
                    resource: BudgetResource::Bytes,
                },
            ),
        ) => (true, e.to_string()),
        (FaultClass::ChunkPanic, Err(e @ GrbError::WorkerPanicked { .. })) => (true, e.to_string()),
        (FaultClass::CostInflate, Ok(r)) => (
            r.depths == clean_depths,
            "completed under 64x inflated frontier edges".to_string(),
        ),
        (_, Ok(_)) => (false, "unexpected completion".to_string()),
        (_, Err(e)) => (false, format!("unexpected error: {e}")),
    }
}
