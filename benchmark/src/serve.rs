//! The request-stream replay: windowed admission and batch execution on a
//! virtual clock, stopped by a wall-clock budget.
//!
//! This follows `graphblas_service::run_trace` step for step (the same
//! `plan_admission` / `admit_tick` / `execute_batch` calls, the same clock
//! rule: a batch starts at `max(previous completion, admission tick)` and
//! advances the clock by its measured execution time). It is driven from
//! here instead because a run must stop after `--seconds`, and because the
//! traced run times each batch, which `run_trace` does not expose.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use graphblas_service::admission::admit_tick;
use graphblas_service::{
    execute_batch, plan_admission, AdmissionConfig, ExecOpts, Query, QueryOutput, Request,
    Response, ServiceGraphs,
};

use crate::input::{fingerprint, Arrival, Source};
use crate::spans::Tracer;
use crate::stats::Tally;

/// An 8 ms admission window, batches of at most 16.
pub const ADMISSION: AdmissionConfig = AdmissionConfig {
    window_ticks: 8_000,
    max_batch: 16,
};

/// Arrival ticks are µs.
const TICK_NS: u128 = 1_000;

/// What one stream replay measured.
#[derive(Debug, Default)]
pub struct ServeRun {
    /// Per request, in stream order: completion − due time, virtual ns;
    /// +∞ when the answer was wrong or missing.
    pub latency_ns: Vec<f64>,
    /// Per request: batch start − due time, virtual ns.
    pub wait_ns: Vec<f64>,
    /// Per batch: measured execution ns.
    pub batch_ns: Vec<f64>,
    /// Requests answered (correct or not).
    pub done: usize,
    /// Requests that shared a same-kind coalesced group.
    pub coalesced: usize,
    /// Σ TEPS numerators of the correctly answered requests.
    pub edges: u64,
    /// Virtual clock at the end of the last batch.
    pub makespan_ns: f64,
}

impl ServeRun {
    /// Σ batch execution time over the makespan.
    #[must_use]
    pub fn utilisation(&self) -> f64 {
        self.batch_ns.iter().sum::<f64>() / self.makespan_ns
    }
}

/// Whether a response matches the oracle for its query.
pub fn correct(req: &Request, resp: &Response, src: &Source) -> bool {
    match (&req.query, &resp.result) {
        (Query::Bfs { .. }, Ok(QueryOutput::Bfs(e))) => fingerprint(&e.depths) == src.depths,
        (Query::Parents { .. }, Ok(QueryOutput::Parents(p))) => {
            fingerprint(&p.parent) == src.parents
        }
        _ => false,
    }
}

/// Replay `stream` (arrival-ordered) until it ends or `budget` of wall
/// time has passed; at least one batch always runs. With a tracer, each
/// `execute_batch` call is recorded as a `service.batch` span.
pub fn replay(
    graphs: &ServiceGraphs,
    stream: &[Arrival],
    pool: &[Source],
    budget: Duration,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> ServeRun {
    let arrivals: Vec<u64> = stream.iter().map(|a| a.request.arrival_tick).collect();
    let opts = ExecOpts::default();
    let wall = Instant::now();
    let mut run = ServeRun::default();
    let mut now_ns: u128 = 0;
    for idxs in plan_admission(&arrivals, &ADMISSION) {
        let batch: Vec<Request> = idxs.iter().map(|&i| stream[i].request.clone()).collect();
        let start_ns = now_ns.max(u128::from(admit_tick(&arrivals, &idxs, &ADMISSION)) * TICK_NS);
        let exec = || {
            catch_unwind(AssertUnwindSafe(|| {
                execute_batch(graphs, &opts, &batch, None)
            }))
        };
        let t = Instant::now();
        let responses = match tracer.as_deref_mut() {
            Some(tr) => tr.time("service.batch", None, None, exec).0,
            None => exec(),
        };
        let exec_ns = t.elapsed().as_nanos();
        now_ns = start_ns + exec_ns;
        run.batch_ns.push(exec_ns as f64);
        for (k, &i) in idxs.iter().enumerate() {
            let arrival = &stream[i];
            let due_ns = u128::from(arrival.request.arrival_tick) * TICK_NS;
            let src = &pool[arrival.source];
            let resp = responses.as_ref().ok().and_then(|rs| rs.get(k));
            run.done += 1;
            run.wait_ns.push((start_ns - due_ns) as f64);
            let ok = resp
                .is_some_and(|r| r.id == arrival.request.id && correct(&arrival.request, r, src));
            if tally.check(ok) {
                run.latency_ns.push((now_ns - due_ns) as f64);
                run.edges += src.reached_edges;
            } else {
                run.latency_ns.push(f64::INFINITY);
            }
            if resp.is_some_and(|r| r.group_size > 1) {
                run.coalesced += 1;
            }
        }
        if wall.elapsed() >= budget {
            break;
        }
    }
    run.makespan_ns = now_ns as f64;
    run
}

/// The same requests, all due at once: the saturation phase.
#[must_use]
pub fn saturated(stream: &[Arrival]) -> Vec<Arrival> {
    stream
        .iter()
        .map(|a| Arrival {
            request: a.request.clone().at_tick(0),
            source: a.source,
        })
        .collect()
}
