//! Serve study: the concurrent query service under deterministic
//! open-loop load, against a sequential-dispatch baseline.
//!
//! Each scenario replays the *same* seeded trace twice — once under a
//! windowed admission plan targeting batches of `target_k`, once with a
//! zero window (every request its own batch) — so the speedup isolates
//! coalescing, not workload luck. Composition, values, and per-request
//! counters are trace-deterministic; only the clock readings move.

use graphblas_core::ExecLimits;
use graphblas_gen::with_uniform_weights;
use graphblas_matrix::Graph;
use graphblas_service::{
    compute, execute_batch, generate_trace, run_trace, AdmissionConfig, ExecOpts, LoadGenConfig,
    Query, QueryMix, Request, ServeStats, ServiceGraphs, TraceOutcome,
};

/// Nanoseconds per arrival tick in the virtual clock (1 µs: request
/// gaps are small against millisecond-scale traversals, so admission
/// windows actually coalesce).
pub const TICK_NS: u64 = 1_000;

/// One load scenario's measurements.
#[derive(Clone, Debug)]
pub struct ServeScenario {
    /// Workload label: `"mixed"` (the standard BFS-heavy mix) or `"bfs"`
    /// (pure single-source BFS traffic, the batched-frontier path).
    pub mix: &'static str,
    /// Intended batch size (admission cap; the window is sized to fill it).
    pub target_k: usize,
    pub window_ticks: u64,
    pub stats: ServeStats,
    /// Same trace, zero window, batch cap 1.
    pub sequential_qps: f64,
    /// `stats.qps / sequential_qps`.
    pub qps_speedup: f64,
    /// Requests de-coalesced and retried solo (worker panics; 0 here).
    pub retried: usize,
}

/// A measurement arm: one trace under one admission plan. `target_k` is
/// `None` for a workload's sequential baseline.
struct Arm {
    mix: &'static str,
    workload: usize,
    adm: AdmissionConfig,
    target_k: Option<usize>,
}

/// Replay two workloads at increasing coalescing targets: the standard
/// BFS-heavy mix (where solo PageRank/BC and dense SSSP rows dilute the
/// coalescing win) and a pure-BFS trace that isolates the shared
/// multi-source traversal coalesced BFS requests run through.
///
/// One warm-up replay warms caches and the worker pool before anything
/// is timed; the arms (per-workload sequential baselines
/// and scenarios) then replay in rotating order and each reports its
/// best pass, so run-to-run jitter and position bias don't masquerade as
/// coalescing effects. Composition, values, and per-request counters are
/// identical across passes — only the clock readings move.
#[must_use]
pub fn serve_study(graph: &Graph<bool>, seed: u64, n_requests: usize) -> Vec<ServeScenario> {
    let graphs = ServiceGraphs::new(graph.clone(), with_uniform_weights(graph, seed ^ 0x5e));
    let opts = ExecOpts::default();
    let mixed_lg = LoadGenConfig {
        seed,
        n_requests,
        ..LoadGenConfig::default()
    };
    let bfs_lg = LoadGenConfig {
        mix: QueryMix {
            bfs: 1,
            parents: 0,
            sssp: 0,
            pagerank: 0,
            bc: 0,
        },
        ..mixed_lg
    };
    let mean_gap = mixed_lg.mean_gap_ticks;
    let traces = [
        generate_trace(&mixed_lg, graphs.n_vertices()),
        generate_trace(&bfs_lg, graphs.n_vertices()),
    ];

    let seq_adm = AdmissionConfig {
        window_ticks: 0,
        max_batch: 1,
    };
    let coalesced = |target_k: usize| AdmissionConfig {
        // Window long enough that arrivals (mean gap `mean_gap` ticks)
        // usually fill the cap.
        window_ticks: 2 * mean_gap * target_k as u64,
        max_batch: target_k,
    };
    let mut arms: Vec<Arm> = Vec::new();
    for (workload, (mix, targets)) in [("mixed", &[1usize, 4, 16][..]), ("bfs", &[4, 16][..])]
        .into_iter()
        .enumerate()
    {
        arms.push(Arm {
            mix,
            workload,
            adm: seq_adm,
            target_k: None,
        });
        arms.extend(targets.iter().map(|&k| Arm {
            mix,
            workload,
            adm: if k == 1 { seq_adm } else { coalesced(k) },
            target_k: Some(k),
        }));
    }

    // Warm-up: first contact with the shared graphs warms caches and the
    // worker pool before any replay is timed.
    let _ = run_trace(&graphs, &opts, &traces[0], &seq_adm, TICK_NS, None);

    // Rotate which arm leads each pass, so slow drift, turbo decay, and
    // scheduler warm-up hit all arms alike instead of whichever arm
    // always ran first. Each arm keeps its best pass.
    let passes = 3;
    let mut picked: Vec<Option<(TraceOutcome, ServeStats)>> =
        (0..arms.len()).map(|_| None).collect();
    for pass in 0..passes {
        for j in 0..arms.len() {
            let i = (pass + j) % arms.len();
            let arm = &arms[i];
            let outcome = run_trace(
                &graphs,
                &opts,
                &traces[arm.workload],
                &arm.adm,
                TICK_NS,
                None,
            );
            let stats = compute(&outcome);
            if picked[i].as_ref().is_none_or(|(_, b)| stats.qps > b.qps) {
                picked[i] = Some((outcome, stats));
            }
        }
    }

    let mut baseline_qps = [0.0f64; 2];
    for (arm, slot) in arms.iter().zip(&picked) {
        if arm.target_k.is_none() {
            baseline_qps[arm.workload] = slot.as_ref().expect("passes >= 1").1.qps;
        }
    }

    arms.iter()
        .zip(picked)
        .filter_map(|(arm, slot)| {
            let target_k = arm.target_k?;
            let (outcome, stats) = slot.expect("passes >= 1");
            let seq_qps = baseline_qps[arm.workload];
            let retried = outcome.responses.iter().filter(|r| r.retried_solo).count();
            Some(ServeScenario {
                mix: arm.mix,
                target_k,
                window_ticks: arm.adm.window_ticks,
                qps_speedup: stats.qps / seq_qps.max(1e-12),
                sequential_qps: seq_qps,
                stats,
                retried,
            })
        })
        .collect()
}

/// The isolation claim, executed: a coalesced batch where one request
/// carries an expired deadline. The probe records whether the victim
/// aborted with its typed error and whether every sibling's values and
/// push/pull steps are bit-identical to its solo run (coalesced BFS
/// requests share one traversal and split its charges, so the rest of a
/// sibling's bill differs from a solo run by design).
#[derive(Clone, Copy, Debug)]
pub struct AbortProbe {
    pub aborted_typed: bool,
    pub siblings_unchanged: bool,
}

#[must_use]
pub fn abort_probe(graph: &Graph<bool>, seed: u64) -> AbortProbe {
    let graphs = ServiceGraphs::new(graph.clone(), with_uniform_weights(graph, seed ^ 0x5e));
    let opts = ExecOpts::default();
    let n = graphs.n_vertices() as u32;
    let sources = [0u32, n / 3, n / 2, 2 * n / 3];
    let batch: Vec<Request> = sources
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let r = Request::new(i as u64, Query::Bfs { source: s });
            if i == 1 {
                r.with_limits(ExecLimits::none().with_deadline(std::time::Duration::ZERO))
            } else {
                r
            }
        })
        .collect();
    let rs = execute_batch(&graphs, &opts, &batch, None);
    let aborted_typed = matches!(rs[1].result, Err(graphblas_core::GrbError::Cancelled));
    let siblings_unchanged = [0usize, 2, 3].iter().all(|&i| {
        let solo = execute_batch(
            &graphs,
            &opts,
            &[Request::new(99, Query::Bfs { source: sources[i] })],
            None,
        )
        .pop()
        .expect("one response");
        match (&rs[i].result, &solo.result) {
            (Ok(a), Ok(b)) => {
                let steps = |c: &graphblas_primitives::counters::CounterSnapshot| {
                    (c.push_steps, c.pull_steps)
                };
                a == b && steps(&rs[i].counters) == steps(&solo.counters)
            }
            _ => false,
        }
    });
    AbortProbe {
        aborted_typed,
        siblings_unchanged,
    }
}
