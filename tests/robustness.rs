//! Hardened-execution contract, always-on half: every guarded `try_*`
//! entry point must (1) surface tripped limits as **typed** errors, never
//! process aborts; (2) roll counters back so an aborted run leaves no
//! trace; and (3) make an immediate retry **bit-identical** — values and
//! counter snapshot — to an uninterrupted clean run, at 1, 2, and 8 lanes.
//! The injected-fault half (allocation failures, chunk panics, edge-rule
//! skew) lives in `tests/fault_injection.rs` behind the `fault-injection`
//! feature.

use proptest::prelude::*;
use push_pull::algo::bc::try_betweenness_with_opts;
use push_pull::algo::bfs::{try_bfs_with_opts, BfsOpts};
use push_pull::algo::bfs_parents::{try_bfs_parents_with_opts, ParentBfsOpts};
use push_pull::algo::cc::{try_connected_components_with_opts, CcOpts};
use push_pull::algo::msbfs::{try_multi_source_bfs_with_opts, MsBfsOpts};
use push_pull::algo::pagerank::{try_pagerank_with_counters, PageRankOpts};
use push_pull::algo::sssp::{try_sssp_with_counters, SsspOpts};
use push_pull::core::{run_guarded, BudgetResource, ExecLimits, GrbError, GrbResult};
use push_pull::gen::rmat::{rmat, RmatParams};
use push_pull::gen::with_uniform_weights;
use push_pull::matrix::Graph;
use push_pull::primitives::counters::AccessCounters;
use std::time::Duration;

const LANES: [usize; 3] = [1, 2, 8];

fn test_graph() -> Graph<bool> {
    rmat(11, 16, RmatParams::default(), 11)
}

/// A deadline that already expired trips at the first checkpoint of every
/// guarded algorithm entry point and surfaces as `GrbError::Cancelled`.
#[test]
fn zero_deadline_cancels_every_algorithm() {
    let g = test_graph();
    let dead = ExecLimits::none().with_deadline(Duration::ZERO);
    let cancelled = Err(GrbError::Cancelled);

    let bfs_opts = BfsOpts {
        limits: dead,
        ..BfsOpts::default()
    };
    assert_eq!(
        try_bfs_with_opts(&g, 0, &bfs_opts, None).map(|r| r.levels),
        cancelled
    );

    let parent_opts = ParentBfsOpts {
        limits: dead,
        ..ParentBfsOpts::default()
    };
    assert_eq!(
        try_bfs_parents_with_opts(&g, 0, &parent_opts, None).map(|r| r.levels),
        cancelled
    );

    let cc_opts = CcOpts {
        limits: dead,
        ..CcOpts::default()
    };
    assert_eq!(
        try_connected_components_with_opts(&g, &cc_opts, None).map(|r| r.rounds),
        cancelled
    );

    let pr_opts = PageRankOpts {
        limits: dead,
        ..PageRankOpts::default()
    };
    assert_eq!(
        try_pagerank_with_counters(&g, &pr_opts, false, None).map(|r| r.iters),
        cancelled
    );

    let ms_opts = MsBfsOpts {
        limits: dead,
        ..MsBfsOpts::default()
    };
    assert_eq!(
        try_multi_source_bfs_with_opts(&g, &[0, 1, 2], &ms_opts, None).map(|r| r.levels),
        cancelled
    );

    let bc_opts = push_pull::algo::bc::BcOpts { limits: dead };
    assert_eq!(
        try_betweenness_with_opts(&g, &[0, 1], &bc_opts, None).map(|b| b.len()),
        cancelled
    );

    let gw = with_uniform_weights(&g, 7);
    let sssp_opts = SsspOpts {
        limits: dead,
        ..SsspOpts::default()
    };
    assert_eq!(
        try_sssp_with_counters(&gw, 0, &sssp_opts, None).map(|r| r.rounds),
        cancelled
    );
}

/// A generous (never-tripping) limit set must be completely transparent:
/// results and counter tallies identical to the unlimited run.
#[test]
fn untripped_limits_are_transparent() {
    let g = test_graph();
    let clean_c = AccessCounters::new();
    let clean = try_bfs_with_opts(&g, 0, &BfsOpts::default(), Some(&clean_c))
        .expect("unlimited run cannot abort");

    let roomy = BfsOpts {
        limits: ExecLimits::none()
            .with_deadline(Duration::from_secs(3600))
            .with_work_budget(u64::MAX)
            .with_bytes_budget(u64::MAX),
        ..BfsOpts::default()
    };
    let limited_c = AccessCounters::new();
    let limited =
        try_bfs_with_opts(&g, 0, &roomy, Some(&limited_c)).expect("roomy limits cannot trip");
    assert_eq!(limited.depths, clean.depths);
    assert_eq!(limited_c.snapshot(), clean_c.snapshot());
}

/// A tiny work budget aborts mid-traversal with a typed error, rolls the
/// shared counters back to their entry snapshot, and an immediate retry is
/// bit-identical to a clean run — values and counter snapshot — at every
/// lane count.
#[test]
fn work_budget_abort_then_retry_is_bit_identical() {
    let g = test_graph();
    for lanes in LANES {
        rayon::with_num_threads(lanes, || {
            let clean_c = AccessCounters::new();
            let clean = try_bfs_with_opts(&g, 0, &BfsOpts::default(), Some(&clean_c))
                .expect("clean run cannot abort");
            let clean_snap = clean_c.snapshot();

            // Shared counters carry pre-existing tallies that must survive
            // the rollback untouched.
            let c = AccessCounters::new();
            c.add_matrix(123);
            let baseline = c.snapshot();
            let starved = BfsOpts {
                limits: ExecLimits::none().with_work_budget(512),
                ..BfsOpts::default()
            };
            let aborted = try_bfs_with_opts(&g, 0, &starved, Some(&c));
            assert_eq!(
                aborted.map(|r| r.levels),
                Err(GrbError::BudgetExceeded {
                    resource: BudgetResource::Work
                }),
                "at {lanes} lanes"
            );
            assert_eq!(c.snapshot(), baseline, "abort rolled back at {lanes} lanes");

            let retry_c = AccessCounters::new();
            let retry = try_bfs_with_opts(&g, 0, &BfsOpts::default(), Some(&retry_c))
                .expect("retry cannot abort");
            assert_eq!(retry.depths, clean.depths, "retry values at {lanes} lanes");
            assert_eq!(
                retry_c.snapshot(),
                clean_snap,
                "retry counters at {lanes} lanes"
            );
        });
    }
}

/// The work budget also stops the first-hit reducer parent BFS runs by
/// default: an all-pull parent BFS over a budget smaller than one pull
/// level's mask charge aborts with the typed work error at its first pull
/// chunk, and rolls its counters back, at 1, 2 and 4 lanes.
#[test]
fn work_budget_stops_an_all_pull_parent_bfs() {
    let g = rmat(10, 16, RmatParams::default(), 14);
    let opts = ParentBfsOpts {
        switch_threshold: 0.0,
        limits: ExecLimits::none().with_work_budget(64),
        ..ParentBfsOpts::default()
    };
    for lanes in [1, 2, 4] {
        rayon::with_num_threads(lanes, || {
            let c = AccessCounters::new();
            c.add_matrix(5);
            let entry = c.snapshot();
            assert_eq!(
                try_bfs_parents_with_opts(&g, 7, &opts, Some(&c)).map(|r| r.levels),
                Err(GrbError::BudgetExceeded {
                    resource: BudgetResource::Work
                }),
                "at {lanes} lanes"
            );
            assert_eq!(c.snapshot(), entry, "abort rolled back at {lanes} lanes");
        });
    }
}

/// The bytes budget meters every kernel allocation. A budget below the
/// first level's output buffer aborts a solo traversal — BFS fused and
/// unfused, parent BFS — with the typed bytes error, rolls its counters
/// back to the entry snapshot, and leaves an immediate unlimited retry on
/// the same counters bit-identical to a clean run, at 1 and 4 lanes.
#[test]
fn bytes_budget_aborts_a_solo_traversal_and_retry_is_clean() {
    let g = &test_graph();
    let degree = g.csr().degree(0) as u64;
    assert!(degree > 0, "the source has out-edges");
    // Level 1 pushes from the source: its output buffer holds at least one
    // u32 per expanded edge.
    let pinched = ExecLimits::none().with_bytes_budget(4 * degree - 1);
    let bytes = GrbError::BudgetExceeded {
        resource: BudgetResource::Bytes,
    };
    // One closure per traversal: run it under the given limits and
    // counters, returning its values as one comparable list.
    type Run<'a> = Box<dyn Fn(ExecLimits, &AccessCounters) -> GrbResult<Vec<u32>> + 'a>;
    let bfs = |fused: bool| -> Run<'_> {
        Box::new(move |limits, c| {
            let opts = BfsOpts {
                fused,
                limits,
                ..BfsOpts::default()
            };
            try_bfs_with_opts(g, 0, &opts, Some(c))
                .map(|r| r.depths.iter().map(|&d| d as u32).collect())
        })
    };
    let parents: Run<'_> = Box::new(|limits, c| {
        let opts = ParentBfsOpts {
            limits,
            ..ParentBfsOpts::default()
        };
        try_bfs_parents_with_opts(g, 0, &opts, Some(c)).map(|r| r.parent)
    });
    let runs = [
        ("fused BFS", bfs(true)),
        ("unfused BFS", bfs(false)),
        ("parent BFS", parents),
    ];
    for lanes in [1, 4] {
        rayon::with_num_threads(lanes, || {
            for (name, run) in &runs {
                let clean_c = AccessCounters::new();
                let clean = run(ExecLimits::none(), &clean_c).expect("unlimited run cannot abort");

                let c = AccessCounters::new();
                let entry = c.snapshot();
                assert_eq!(
                    run(pinched, &c),
                    Err(bytes.clone()),
                    "{name} at {lanes} lanes"
                );
                assert_eq!(
                    c.snapshot(),
                    entry,
                    "{name}: abort rolled back at {lanes} lanes"
                );

                let retry = run(ExecLimits::none(), &c).expect("retry cannot abort");
                assert_eq!(retry, clean, "{name}: retry values at {lanes} lanes");
                assert_eq!(
                    c.snapshot(),
                    clean_c.snapshot(),
                    "{name}: retry counters at {lanes} lanes"
                );
            }
        });
    }
}

/// A panicking worker chunk is caught at the chunk boundary, surfaces as
/// `WorkerPanicked` with the payload preserved, and leaves the pool and
/// the shared counters immediately usable.
#[test]
fn pool_panic_is_isolated_and_pool_stays_usable() {
    use rayon::prelude::*;
    let c = AccessCounters::new();
    c.add_matrix(9);
    let before = c.snapshot();
    let out: GrbResult<Vec<u64>> = rayon::with_num_threads(8, || {
        run_guarded(Some(&c), &ExecLimits::none(), |_| {
            Ok((0..256u64)
                .into_par_iter()
                .with_min_len(4)
                .map(|i| {
                    assert!(i != 130, "injected worker bug");
                    i
                })
                .collect())
        })
    });
    match out {
        Err(GrbError::WorkerPanicked { message, .. }) => {
            assert!(
                message.contains("injected worker bug"),
                "payload: {message}"
            );
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    assert_eq!(c.snapshot(), before, "panicked run rolled back");

    // The pool is unpoisoned: the same computation without the bug runs
    // clean right away, on the same counters.
    let ok: GrbResult<u64> = rayon::with_num_threads(8, || {
        run_guarded(Some(&c), &ExecLimits::none(), |_| {
            Ok((0..256u64).into_par_iter().with_min_len(4).sum())
        })
    });
    assert_eq!(ok, Ok(255 * 256 / 2));
}

/// Guarded aborts compose across algorithms: CC under a tiny budget
/// aborts typed and its retry matches the clean labels and counters.
#[test]
fn cc_abort_then_retry_matches_clean_run() {
    let g = test_graph();
    let clean_c = AccessCounters::new();
    let clean = try_connected_components_with_opts(&g, &CcOpts::default(), Some(&clean_c))
        .expect("clean run cannot abort");

    let starved = CcOpts {
        limits: ExecLimits::none().with_work_budget(256),
        ..CcOpts::default()
    };
    let c = AccessCounters::new();
    let baseline = c.snapshot();
    let aborted = try_connected_components_with_opts(&g, &starved, Some(&c));
    assert_eq!(
        aborted.map(|r| r.rounds),
        Err(GrbError::BudgetExceeded {
            resource: BudgetResource::Work
        })
    );
    assert_eq!(c.snapshot(), baseline);

    let retry_c = AccessCounters::new();
    let retry = try_connected_components_with_opts(&g, &CcOpts::default(), Some(&retry_c))
        .expect("retry cannot abort");
    assert_eq!(retry.labels, clean.labels);
    assert_eq!(retry_c.snapshot(), clean_c.snapshot());
}

/// Service-layer isolation: one request with an expired deadline inside
/// a coalesced batch aborts with its typed error and restored counters
/// while every sibling's values and push/pull steps are bit-identical to
/// its solo run — and the victim's immediate unlimited retry is
/// bit-identical to a fresh dispatch. At every lane count.
#[test]
fn coalesced_batch_isolates_tripped_request_and_retry_is_fresh() {
    use push_pull::service::{execute_batch, ExecOpts, Query, Request, ServiceGraphs};
    let g = test_graph();
    let gs = ServiceGraphs::new(g.clone(), with_uniform_weights(&g, 7));
    let opts = ExecOpts::default();
    let sources = [0u32, 17, 1234];
    for lanes in LANES {
        rayon::with_num_threads(lanes, || {
            let batch: Vec<Request> = sources
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    let r = Request::new(i as u64, Query::Bfs { source: s });
                    if i == 1 {
                        r.with_limits(ExecLimits::none().with_deadline(Duration::ZERO))
                    } else {
                        r
                    }
                })
                .collect();
            let rs = execute_batch(&gs, &opts, &batch, None);
            assert_eq!(
                rs[1].result,
                Err(GrbError::Cancelled),
                "victim aborts typed at {lanes} lanes"
            );
            assert_eq!(
                rs[1].counters,
                push_pull::primitives::counters::CounterSnapshot::default(),
                "victim's counters restored at {lanes} lanes"
            );

            let solo = |id: u64, s: u32| {
                execute_batch(
                    &gs,
                    &opts,
                    &[Request::new(id, Query::Bfs { source: s })],
                    None,
                )
                .pop()
                .expect("one request, one response")
            };
            // Siblings share one traversal and split its charges, so their
            // bills differ from solo runs; values and push/pull steps do not.
            for i in [0usize, 2] {
                let alone = solo(9, sources[i]);
                assert_eq!(rs[i].result, alone.result, "sibling {i} at {lanes} lanes");
                assert_eq!(
                    (rs[i].counters.push_steps, rs[i].counters.pull_steps),
                    (alone.counters.push_steps, alone.counters.pull_steps),
                    "sibling {i} steps at {lanes} lanes"
                );
            }

            // The victim's immediate unlimited retry carries no residue.
            let retry = solo(10, sources[1]);
            let fresh = solo(11, sources[1]);
            assert!(retry.result.is_ok(), "retry completes at {lanes} lanes");
            assert_eq!(retry.result, fresh.result, "retry values at {lanes} lanes");
            assert_eq!(
                retry.counters, fresh.counters,
                "retry counters at {lanes} lanes"
            );
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For an arbitrary work budget, the guarded BFS either completes
    /// bit-identically to the unlimited run or aborts with the typed
    /// budget error and a full counter rollback — and in both cases the
    /// follow-up unlimited retry is bit-identical to the clean run. Swept
    /// at 1/2/8 lanes so the abort point interacts with real chunking.
    #[test]
    fn any_work_budget_aborts_clean_or_completes_identically(
        budget in 1u64..2_000_000,
        lane_idx in 0usize..3,
    ) {
        let g = test_graph();
        let lanes = LANES[lane_idx];
        rayon::with_num_threads(lanes, || {
            let clean_c = AccessCounters::new();
            let clean = try_bfs_with_opts(&g, 0, &BfsOpts::default(), Some(&clean_c))
                .expect("clean run cannot abort");
            let clean_snap = clean_c.snapshot();

            let limited = BfsOpts {
                limits: ExecLimits::none().with_work_budget(budget),
                ..BfsOpts::default()
            };
            let c = AccessCounters::new();
            let baseline = c.snapshot();
            match try_bfs_with_opts(&g, 0, &limited, Some(&c)) {
                Ok(r) => {
                    assert_eq!(r.depths, clean.depths, "completed run diverged");
                    assert_eq!(c.snapshot(), clean_snap, "completed counters diverged");
                }
                Err(GrbError::BudgetExceeded { resource: BudgetResource::Work }) => {
                    assert_eq!(c.snapshot(), baseline, "abort left residue");
                }
                Err(other) => panic!("untyped outcome: {other}"),
            }

            let retry_c = AccessCounters::new();
            let retry = try_bfs_with_opts(&g, 0, &BfsOpts::default(), Some(&retry_c))
                .expect("retry cannot abort");
            assert_eq!(retry.depths, clean.depths);
            assert_eq!(retry_c.snapshot(), clean_snap);
        });
    }
}
