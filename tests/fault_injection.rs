//! Hardened-execution contract, injected-fault half (compiled only with
//! the `fault-injection` cargo feature): for **every** deterministic
//! injected fault — Nth-allocation failure, Kth-chunk worker panic,
//! edge-rule inflation — the guarded entry points must surface a typed
//! [`GrbError`] (never a process abort), roll shared counters back to
//! their entry snapshot, and leave the pool and the counters so
//! unpoisoned that an immediate retry is **bit-identical** —
//! values and counter snapshot — to an uninterrupted clean run, at 1, 2,
//! and 8 lanes.
//!
//! Fault triggers are process-global atomics, so every test serializes on
//! [`FAULT_LOCK`]; panic-hook silencing for the injected chunk panics
//! lives inside the same critical section.

#![cfg(feature = "fault-injection")]

use proptest::prelude::*;
use push_pull::algo::bfs::{try_bfs_with_opts, BfsOpts};
use push_pull::core::descriptor::Direction;
use push_pull::core::{BudgetResource, GrbError};
use push_pull::gen::rmat::{rmat, RmatParams};
use push_pull::matrix::Graph;
use push_pull::primitives::counters::{AccessCounters, CounterSnapshot};
use push_pull::primitives::fault::{self, FaultPlan};
use std::sync::{Mutex, PoisonError};

const LANES: [usize; 3] = [1, 2, 8];

/// Serializes every test in this binary: the fault triggers are
/// process-global, so two concurrently running tests would steal each
/// other's armed faults.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn test_graph() -> Graph<bool> {
    rmat(10, 16, RmatParams::default(), 23)
}

/// Clean reference run: depths plus counter snapshot.
fn clean_run(g: &Graph<bool>, opts: &BfsOpts) -> (Vec<i32>, CounterSnapshot) {
    fault::clear();
    let c = AccessCounters::new();
    let r = try_bfs_with_opts(g, 0, opts, Some(&c)).expect("clean run cannot abort");
    (r.depths, c.snapshot())
}

/// Faulted run under an armed `plan`, then a disarmed retry. Asserts the
/// three contract clauses and returns the faulted outcome for the
/// caller's fault-specific expectation.
fn faulted_then_retry(
    g: &Graph<bool>,
    opts: &BfsOpts,
    plan: &FaultPlan,
    silence_panics: bool,
) -> Result<Vec<i32>, GrbError> {
    let (clean_depths, clean_snap) = clean_run(g, opts);

    let c = AccessCounters::new();
    c.add_matrix(77); // pre-existing tallies must survive a rollback
    let baseline = c.snapshot();
    fault::install(plan);
    let prev_hook = silence_panics.then(std::panic::take_hook);
    if silence_panics {
        std::panic::set_hook(Box::new(|_| {}));
    }
    let faulted = try_bfs_with_opts(g, 0, opts, Some(&c));
    if let Some(hook) = prev_hook {
        std::panic::set_hook(hook);
    }
    fault::clear();

    match &faulted {
        // Clause 1+2: a surfaced fault is typed (the signature already
        // guarantees that) and rolled the counters back.
        Err(_) => assert_eq!(c.snapshot(), baseline, "aborted run left residue"),
        // A fault that never fired (plan point beyond the run) must be
        // fully transparent.
        Ok(r) => {
            assert_eq!(r.depths, clean_depths, "unfired fault changed values");
        }
    }

    // Clause 3: the disarmed retry is bit-identical to the clean run.
    let retry_c = AccessCounters::new();
    let retry = try_bfs_with_opts(g, 0, opts, Some(&retry_c)).expect("retry cannot abort");
    assert_eq!(retry.depths, clean_depths, "retry values diverged");
    assert_eq!(retry_c.snapshot(), clean_snap, "retry counters diverged");

    faulted.map(|r| r.depths)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Failing the Nth charged allocation either surfaces as the typed
    /// bytes-budget error (with rollback) or — when the run charges fewer
    /// than N allocations — never fires; the retry is bit-identical
    /// either way, at every lane count.
    #[test]
    fn nth_allocation_failure_is_typed_and_recoverable(
        nth in 1u64..48,
        lane_idx in 0usize..3,
    ) {
        let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let g = test_graph();
        // Unfused: the separate-operation kernels charge their output
        // buffers, giving the countdown real allocation sites to hit.
        let opts = BfsOpts { fused: false, ..BfsOpts::default() };
        let plan = FaultPlan { fail_alloc_nth: Some(nth), ..FaultPlan::default() };
        rayon::with_num_threads(LANES[lane_idx], || {
            match faulted_then_retry(&g, &opts, &plan, false) {
                Err(GrbError::BudgetExceeded { resource: BudgetResource::Bytes }) | Ok(_) => {}
                Err(other) => panic!("wrong error type: {other}"),
            }
        });
    }

    /// A worker chunk that panics mid-pool is caught at the chunk
    /// boundary and surfaced as `WorkerPanicked` with its chunk index;
    /// the pool and counters stay usable and the retry is bit-identical.
    #[test]
    fn kth_chunk_panic_is_isolated_and_recoverable(
        kth in 1u64..6,
        lane_idx in 0usize..3,
    ) {
        let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        // Scale 12 ⇒ every pull level chunks ≥ 8 rows-grain chunks, so any
        // armed K below 6 is guaranteed to land inside the first level.
        let g = rmat(12, 16, RmatParams::default(), 23);
        // Force pull over the CSR row kernel, which always chunks through
        // the pool (a thin push frontier can stay under the column
        // kernel's grain).
        let opts = BfsOpts {
            force: Some(Direction::Pull),
            ..BfsOpts::default()
        };
        let plan = FaultPlan { panic_chunk_nth: Some(kth), ..FaultPlan::default() };
        rayon::with_num_threads(LANES[lane_idx], || {
            match faulted_then_retry(&g, &opts, &plan, true) {
                Err(GrbError::WorkerPanicked { message, .. }) => {
                    assert!(
                        message.contains("injected fault"),
                        "panic payload preserved: {message}"
                    );
                }
                Ok(_) => panic!("armed chunk panic never fired"),
                Err(other) => panic!("wrong error type: {other}"),
            }
        });
    }

    /// Inflating the edge rule's frontier edges must never change results:
    /// default BFS may pick worse directions, but the run completes with
    /// values identical to the clean run at every lane count.
    #[test]
    fn edge_rule_inflation_is_value_neutral(
        factor in 2.0f64..256.0,
        lane_idx in 0usize..3,
    ) {
        let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let g = test_graph();
        let opts = BfsOpts::default();
        let plan = FaultPlan { cost_inflation: Some(factor), ..FaultPlan::default() };
        rayon::with_num_threads(LANES[lane_idx], || {
            match faulted_then_retry(&g, &opts, &plan, false) {
                Ok(_) => {} // value equality asserted inside the helper
                Err(e) => panic!("skewed planner must still complete: {e}"),
            }
        });
    }
}

/// An armed allocation fault inside a coalesced service batch fells
/// exactly one request with the typed bytes error and restored counters;
/// every sibling's values and push/pull steps are bit-identical to a
/// disarmed solo run, and the disarmed re-dispatch of the full batch is
/// clean.
#[test]
fn alloc_fault_in_coalesced_batch_fells_exactly_one_request() {
    use push_pull::core::ExecLimits;
    use push_pull::service::{execute_batch, ExecOpts, Query, Request, ServiceGraphs};
    let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let g = test_graph();
    let gs = ServiceGraphs::new(g.clone(), push_pull::gen::with_uniform_weights(&g, 7));
    // Every entry of a shared group charges its parent array before the
    // first level, giving the allocation countdown one site per request;
    // unfused parent BFS also charges per-level buffers on solo runs.
    let opts = ExecOpts {
        parents: push_pull::algo::bfs_parents::ParentBfsOpts {
            fused: false,
            ..Default::default()
        },
        ..Default::default()
    };
    let sources = [0u32, 17, 513];
    let batch: Vec<Request> = sources
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            // Real (roomy) budgets on every request: the fault must
            // surface through the limits machinery, not around it.
            Request::new(i as u64, Query::Parents { source: s })
                .with_limits(ExecLimits::none().with_bytes_budget(u64::MAX / 2))
        })
        .collect();
    for lanes in LANES {
        rayon::with_num_threads(lanes, || {
            fault::clear();
            let plan = FaultPlan {
                fail_alloc_nth: Some(2),
                ..FaultPlan::default()
            };
            fault::install(&plan);
            let rs = execute_batch(&gs, &opts, &batch, None);
            fault::clear();

            let felled: Vec<usize> = (0..rs.len()).filter(|&i| rs[i].result.is_err()).collect();
            assert_eq!(felled.len(), 1, "exactly one victim at {lanes} lanes");
            let v = felled[0];
            assert_eq!(
                rs[v].result,
                Err(GrbError::BudgetExceeded {
                    resource: BudgetResource::Bytes
                }),
                "typed bytes abort at {lanes} lanes"
            );
            assert_eq!(
                rs[v].counters,
                CounterSnapshot::default(),
                "victim's counters restored at {lanes} lanes"
            );

            let solo_disarmed = |s: u32| {
                execute_batch(
                    &gs,
                    &opts,
                    &[Request::new(9, Query::Parents { source: s })],
                    None,
                )
                .pop()
                .expect("one request, one response")
            };
            for (i, &s) in sources.iter().enumerate() {
                if i == v {
                    continue;
                }
                let alone = solo_disarmed(s);
                assert_eq!(rs[i].result, alone.result, "sibling {i} at {lanes} lanes");
                assert_eq!(
                    (rs[i].counters.push_steps, rs[i].counters.pull_steps),
                    (alone.counters.push_steps, alone.counters.pull_steps),
                    "sibling {i} steps at {lanes} lanes"
                );
            }

            // Disarmed re-dispatch of the identical batch: all clean.
            let retry = execute_batch(&gs, &opts, &batch, None);
            for (i, r) in retry.iter().enumerate() {
                assert!(r.result.is_ok(), "retry request {i} at {lanes} lanes");
            }
        });
    }
}

/// An injected worker-chunk panic inside a coalesced group triggers the
/// executor's de-coalescing path: every passenger is re-run solo (the
/// one-shot fault is spent), flagged `retried_solo`, and returns values
/// and counters identical to a disarmed solo dispatch.
#[test]
fn chunk_panic_decoalesces_group_and_solo_retries_succeed() {
    use push_pull::algo::msbfs::MsBfsOpts;
    use push_pull::service::{execute_batch, ExecOpts, Query, Request, ServiceGraphs};
    let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    // Scale 12 with forced pull over CSR: every level chunks through the
    // pool, so a low armed K lands inside the coalesced traversal.
    let g = rmat(12, 16, RmatParams::default(), 23);
    let gs = ServiceGraphs::new(g.clone(), push_pull::gen::with_uniform_weights(&g, 7));
    let opts = ExecOpts {
        bfs: MsBfsOpts {
            force: Some(Direction::Pull),
            ..Default::default()
        },
        ..Default::default()
    };
    let sources = [0u32, 17, 1234];
    let batch: Vec<Request> = sources
        .iter()
        .enumerate()
        .map(|(i, &s)| Request::new(i as u64, Query::Bfs { source: s }))
        .collect();
    for lanes in LANES {
        rayon::with_num_threads(lanes, || {
            fault::clear();
            let disarmed: Vec<_> = batch
                .iter()
                .map(|req| {
                    let r = execute_batch(&gs, &opts, std::slice::from_ref(req), None)
                        .pop()
                        .expect("one request, one response");
                    (r.result, r.counters)
                })
                .collect();

            let plan = FaultPlan {
                panic_chunk_nth: Some(2),
                ..FaultPlan::default()
            };
            fault::install(&plan);
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let rs = execute_batch(&gs, &opts, &batch, None);
            std::panic::set_hook(prev);
            fault::clear();

            assert!(
                rs.iter().any(|r| r.retried_solo),
                "the group must have de-coalesced at {lanes} lanes"
            );
            for (i, r) in rs.iter().enumerate() {
                assert!(r.retried_solo, "request {i} retried solo at {lanes} lanes");
                assert_eq!(
                    r.result, disarmed[i].0,
                    "request {i} values after retry at {lanes} lanes"
                );
                assert_eq!(
                    r.counters, disarmed[i].1,
                    "request {i} counters after retry at {lanes} lanes"
                );
            }
        });
    }
}

/// Arming the same plan twice injects the same fault at the same logical
/// point: at one lane the surfaced chunk index is identical run-to-run,
/// which is what makes a failing chaos scenario replayable.
#[test]
fn identical_plans_inject_identically_at_one_lane() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let g = test_graph();
    let opts = BfsOpts {
        force: Some(Direction::Pull),
        ..BfsOpts::default()
    };
    let plan = FaultPlan {
        panic_chunk_nth: Some(2),
        ..FaultPlan::default()
    };
    let run = || {
        rayon::with_num_threads(1, || {
            fault::install(&plan);
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let out = try_bfs_with_opts(&g, 0, &opts, None);
            std::panic::set_hook(prev);
            fault::clear();
            out.map(|r| r.depths)
        })
    };
    let (first, second) = (run(), run());
    assert!(
        matches!(first, Err(GrbError::WorkerPanicked { .. })),
        "got {first:?}"
    );
    assert_eq!(first, second, "same plan, same injection point");
}
