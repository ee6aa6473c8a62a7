//! The end-to-end run (`--trace 0`): set-up, then the closed BFS loop or
//! the two request-stream phases, timed from outside with tracing and
//! counters off.
//!
//! Every timed item — one source's BFS, one request of the replayed
//! open-loop stream, one saturated batch — is repeated as often as the
//! budget allows, and its fastest repetition is its sample. On a shared
//! host, co-tenant load only ever adds time, in bursts lasting seconds;
//! the per-item minimum filters those bursts, while each metric still
//! spans every item. A failed repetition counts as +∞ (and fails the run).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use graphblas_algo::{bfs_with_opts, BfsOpts};
use graphblas_matrix::Graph;
use graphblas_service::{execute_batch, ExecOpts, Query, Request, ServiceGraphs};

use crate::input::{fingerprint, request_stream, Input, Source, Spec};
use crate::serve::{correct, replay, saturated, ADMISSION};
use crate::stats::{median, percentile, sorted, tail_resolved, Tally};
use crate::{alloc, Metrics};

/// Set-ups per run: at least `SETUP_MIN`, then more while under
/// `SETUP_SECS` in total (cheap set-ups are noisy), at most `SETUP_MAX`.
/// `setup_s` is their median.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 25;
const SETUP_SECS: f64 = 0.5;

/// Share of a serve run's budget spent in the open-loop phase; the rest
/// goes to the saturation phase.
const OPEN_LOOP_SHARE: f64 = 0.6;
/// Requests of the open-loop stream: enough that its p99 has ten
/// requests beyond it.
const OPEN_LOOP_REQUESTS: usize = 1200;
/// Batches of the saturation phase (each `ADMISSION.max_batch` requests).
const SATURATED_BATCHES: usize = 32;

/// One checked BFS: its wall time in ms, or +∞ when it panicked or
/// answered wrongly.
fn checked_bfs(g: &Graph<bool>, src: &Source, tally: &mut Tally) -> f64 {
    let t = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(|| {
        bfs_with_opts(g, src.vertex, &BfsOpts::default(), None)
    }));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if tally.check(r.is_ok_and(|r| fingerprint(&r.depths) == src.depths)) {
        ms
    } else {
        f64::INFINITY
    }
}

/// Build the program's view of the input and answer one query, which
/// builds the lazy format caches the first query needs. Returns the
/// set-up wall time in seconds.
fn setup_bfs(input: &Input, tally: &mut Tally) -> (Graph<bool>, f64) {
    let t = Instant::now();
    let g = Graph::from_coo(&input.coo);
    checked_bfs(&g, &input.sources[0], tally);
    (g, t.elapsed().as_secs_f64())
}

fn setup_service(input: &Input, tally: &mut Tally) -> (ServiceGraphs, f64) {
    let t = Instant::now();
    let weights = input
        .weights
        .as_ref()
        .expect("service inputs carry weights");
    let graphs = ServiceGraphs::new(Graph::from_coo(&input.coo), Graph::from_coo(weights));
    let src = &input.sources[0];
    let req = Request::new(0, Query::Bfs { source: src.vertex });
    let r = catch_unwind(AssertUnwindSafe(|| {
        execute_batch(
            &graphs,
            &ExecOpts::default(),
            std::slice::from_ref(&req),
            None,
        )
    }));
    let s = t.elapsed().as_secs_f64();
    tally.check(r.is_ok_and(|rs| rs.first().is_some_and(|resp| correct(&req, resp, src))));
    (graphs, s)
}

/// Run `setup` repeatedly (dropping each result before the next, so only
/// one copy is ever resident); keep the last result and the median time.
fn repeated_setup<T>(mut setup: impl FnMut() -> (T, f64)) -> (T, f64, usize) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN
        || (times.len() < SETUP_MAX && start.elapsed().as_secs_f64() < SETUP_SECS)
    {
        drop(last.take());
        let (x, s) = setup();
        times.push(s);
        last = Some(x);
    }
    (last.expect("SETUP_MIN > 0"), median(&times), times.len())
}

/// Repeat `pass` (which returns one sample per item) until `budget` has
/// passed, at least once; returns each item's fastest sample and the
/// number of passes.
fn fastest(budget: Duration, mut pass: impl FnMut() -> Vec<f64>) -> (Vec<f64>, usize) {
    let start = Instant::now();
    let mut best = pass();
    let mut passes = 1;
    while start.elapsed() < budget {
        for (b, s) in best.iter_mut().zip(pass()) {
            *b = b.min(s);
        }
        passes += 1;
    }
    (best, passes)
}

/// Measure every end-to-end metric of one workload.
pub fn end_to_end(
    spec: &Spec,
    input: &Input,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    alloc::reset_peak();
    let (latency_ms, per_s, edges_per_s) = if spec.serve {
        let (graphs, setup_s, setups) = repeated_setup(|| setup_service(input, tally));
        m.put("setup_s", setup_s);
        m.meta("setups", setups);
        let pool = &input.sources;
        let stream = request_stream(seed, pool, spec.gap_us, OPEN_LOOP_REQUESTS);
        let budget_a = Duration::from_secs_f64(seconds * OPEN_LOOP_SHARE);
        let (latency_ms, passes_a) = fastest(budget_a, || {
            let run = replay(&graphs, &stream, pool, Duration::MAX, tally, None);
            run.latency_ns.iter().map(|ns| ns / 1e6).collect()
        });
        let sat = saturated(&stream[..SATURATED_BATCHES * ADMISSION.max_batch]);
        let budget_b = Duration::from_secs_f64(seconds * (1.0 - OPEN_LOOP_SHARE));
        let mut edges = 0;
        let (batch_s, passes_b) = fastest(budget_b, || {
            let run = replay(&graphs, &sat, pool, Duration::MAX, tally, None);
            edges = run.edges;
            run.batch_ns.iter().map(|ns| ns / 1e9).collect()
        });
        let secs: f64 = batch_s.iter().sum();
        m.meta("open_loop_requests", stream.len());
        m.meta("open_loop_passes", passes_a);
        m.meta("saturated_requests", sat.len());
        m.meta("saturated_passes", passes_b);
        (latency_ms, sat.len() as f64 / secs, edges as f64 / secs)
    } else {
        let (g, setup_s, setups) = repeated_setup(|| setup_bfs(input, tally));
        m.put("setup_s", setup_s);
        m.meta("setups", setups);
        let (latency_ms, passes) = fastest(Duration::from_secs_f64(seconds), || {
            input
                .sources
                .iter()
                .map(|src| checked_bfs(&g, src, tally))
                .collect()
        });
        let secs = latency_ms.iter().sum::<f64>() / 1e3;
        let edges: u64 = input.sources.iter().map(|s| s.reached_edges).sum();
        m.meta("bfs_passes", passes);
        (
            latency_ms,
            input.sources.len() as f64 / secs,
            edges as f64 / secs,
        )
    };
    let lat = sorted(latency_ms);
    if !tail_resolved(lat.len(), 99.0) {
        eprintln!(
            "benchmark: only {} latency samples; p99 has fewer than 10 beyond it",
            lat.len()
        );
    }
    m.meta("latency_samples", lat.len());
    m.put("latency_ms_p50", percentile(&lat, 50.0));
    m.put("latency_ms_p99", percentile(&lat, 99.0));
    m.put("throughput_per_s", per_s);
    m.put("mteps", edges_per_s / 1e6);
    m.put("mem_peak_mb", alloc::peak_mib());
}
