//! The traced run (`--trace 1`): spans around each layer's public calls,
//! reduced to the per-layer metrics.
//!
//! * `graphblas_matrix::Graph` — `from_coo`, the first bitmap and DCSR
//!   conversions of a fresh graph, and the first query against a warm one.
//! * `graphblas_algo::bfs` — a traced BFS per source; its `IterRecord`s
//!   become level spans (their µs durations laid end to end from the BFS
//!   start, as the record carries no start time).
//! * `graphblas_core` — each level replayed in isolation: `resolve_plan`
//!   on the level's input, then `mxv` forced push and forced pull with the
//!   level's real frontier and `¬visited` mask, each metered by its own
//!   counters and checked against the oracle's level size.
//! * `graphblas_service` — solo and 16-request `execute_batch` calls, then
//!   the open-loop stream with one span per batch.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use graphblas_algo::{bfs_with_opts, BfsOpts, IterRecord};
use graphblas_core::ops::BoolStructure;
use graphblas_core::{mxv, resolve_plan, Descriptor, Direction, GrbResult, Mask, Vector};
use graphblas_matrix::{Graph, StorageFormat, VertexId};
use graphblas_primitives::{AccessCounters, BitVec};
use graphblas_service::{execute_batch, ExecOpts, Query, Request, ServiceGraphs};

use crate::input::{fingerprint, request_stream, Input, Source, Spec};
use crate::serve::{correct, replay};
use crate::spans::{Charges, Span, Tracer};
use crate::stats::{median, percentile, sorted, Tally};
use crate::Metrics;

/// Set-ups the matrix layer is timed over (medians reported).
const SETUP_REPS: usize = 3;
/// Sources whose BFS is traced and replayed level by level.
pub const TRACED_SOURCES: usize = 32;
/// Sources of the solo / 16-request service probes.
const PROBE: usize = 16;
/// A level counts as misplanned when its chosen arm ran this much slower
/// than the other.
const MISPLAN_MARGIN: f64 = 1.1;
/// Share of the run's budget given to the traced open-loop stream.
const STREAM_SHARE: f64 = 0.5;

fn level_name(d: Direction) -> &'static str {
    match d {
        Direction::Push => "algo.level.push",
        Direction::Pull => "algo.level.pull",
    }
}

fn arm_name(d: Direction) -> &'static str {
    match d {
        Direction::Push => "mxv.push",
        Direction::Pull => "mxv.pull",
    }
}

/// Record every per-layer metric of one workload; returns the spans.
pub fn per_layer(
    spec: &Spec,
    input: &Input,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Tracer {
    let mut tr = Tracer::new();
    let g = matrix_layer(&mut tr, input, tally, m);
    for src in input.sources.iter().take(TRACED_SOURCES) {
        algo_layer(&mut tr, &g, src, tally);
    }
    algo_metrics(&tr, m);
    let graphs = ServiceGraphs::new(
        g,
        Graph::from_coo(input.weights.as_ref().expect("service inputs")),
    );
    service_layer(
        &mut tr,
        spec,
        &graphs,
        input,
        seed,
        seconds * STREAM_SHARE,
        tally,
        m,
    );
    tr
}

fn matrix_layer(tr: &mut Tracer, input: &Input, tally: &mut Tally, m: &mut Metrics) -> Graph<bool> {
    let src = &input.sources[0];
    let opts = BfsOpts::default();
    let mut g = None;
    for _ in 0..SETUP_REPS {
        drop(g.take());
        {
            // A second fresh graph, converted before any query builds its
            // caches, so each conversion is timed alone.
            let fresh = Graph::from_coo(&input.coo);
            for (name, format) in [
                ("matrix.bitmap_build", StorageFormat::Bitmap),
                ("matrix.dcsr_build", StorageFormat::Dcsr),
            ] {
                tr.time(name, None, None, || {
                    black_box(fresh.store(true, format));
                });
            }
        }
        let (fresh, _) = tr.time("matrix.from_coo", None, None, || {
            Graph::from_coo(&input.coo)
        });
        for name in ["matrix.first_query", "matrix.warm_query"] {
            let (r, _) = tr.time(name, None, None, || {
                catch_unwind(AssertUnwindSafe(|| {
                    bfs_with_opts(&fresh, src.vertex, &opts, None)
                }))
            });
            tally.check(r.is_ok_and(|r| fingerprint(&r.depths) == src.depths));
        }
        g = Some(fresh);
    }
    let first = tr.ms("matrix.first_query");
    let extra: Vec<f64> = first
        .iter()
        .zip(tr.ms("matrix.warm_query"))
        .map(|(f, w)| f - w)
        .collect();
    m.put("matrix.from_coo_ms", median(&tr.ms("matrix.from_coo")));
    m.put(
        "matrix.bitmap_build_ms",
        median(&tr.ms("matrix.bitmap_build")),
    );
    m.put("matrix.dcsr_build_ms", median(&tr.ms("matrix.dcsr_build")));
    m.put("matrix.first_query_extra_ms", median(&extra));
    g.expect("SETUP_REPS > 0")
}

/// One source: a metered BFS (which also warms the caches for the timed
/// calls), an untraced one, a traced one (per-level records on), and a
/// replay of each level. Counters stay off in every timed call; the
/// counters' determinism contract makes the metered call's charges those
/// of the timed ones.
fn algo_layer(tr: &mut Tracer, g: &Graph<bool>, src: &Source, tally: &mut Tally) {
    let opts = BfsOpts::default();
    let bfs_call = |o: &BfsOpts, c: Option<&AccessCounters>| {
        catch_unwind(AssertUnwindSafe(|| bfs_with_opts(g, src.vertex, o, c))).ok()
    };
    let c = AccessCounters::new();
    tally.check(bfs_call(&opts, Some(&c)).is_some_and(|r| fingerprint(&r.depths) == src.depths));
    let (r, _) = tr.time("algo.bfs.untraced", None, None, || bfs_call(&opts, None));
    tally.check(r.is_some_and(|r| fingerprint(&r.depths) == src.depths));
    let (r, bfs) = tr.time("algo.bfs", None, None, || bfs_call(&opts.traced(), None));
    let Some(r) = r.filter(|r| tally.check(fingerprint(&r.depths) == src.depths)) else {
        return;
    };
    tr.spans[bfs].charges = c.snapshot().into();
    let mut t = tr.spans[bfs].start_ns;
    for rec in &r.trace {
        let ns = u64::try_from(rec.micros * 1000).expect("a level lasts under 584 years");
        let level = tr.push(Span {
            name: level_name(rec.direction),
            parent: Some(bfs),
            replays: None,
            start_ns: t,
            end_ns: t + ns,
            charges: Charges::default(),
        });
        t += ns;
        tr.spans[level].charges = replay_level(tr, g, &r.depths, src, rec, level, tally);
    }
}

/// Re-run one BFS level through the core layer with both kernels; returns
/// the charges of the arm the BFS chose.
fn replay_level(
    tr: &mut Tracer,
    g: &Graph<bool>,
    depths: &[i32],
    src: &Source,
    rec: &IterRecord,
    level: usize,
    tally: &mut Tally,
) -> Charges {
    let n = depths.len();
    let depth = i32::try_from(rec.level).expect("BFS depth fits i32");
    // The state entering the level: visited = depth < level, frontier =
    // depth == level − 1, and the pull kernel's amortized unvisited list.
    let mut visited = BitVec::new(n);
    let mut visited_vec: Vector<bool> = Vector::new_dense(n, false);
    let dense = visited_vec.as_dense_mut().expect("dense by construction");
    let mut frontier = Vec::new();
    let mut unvisited = Vec::new();
    for (v, &d) in depths.iter().enumerate() {
        if (0..depth).contains(&d) {
            visited.set(v);
            dense.set(v, true);
            if d == depth - 1 {
                frontier.push(v as VertexId);
            }
        } else {
            unvisited.push(v as VertexId);
        }
    }
    let ones = vec![true; frontier.len()];
    let f = Vector::from_sparse(n, false, frontier, ones);
    // BFS's inputs per direction: the sparse frontier for push, the dense
    // visited vector for pull (operand reuse).
    let input = |d: Direction| {
        if d == Direction::Push {
            &f
        } else {
            &visited_vec
        }
    };
    let desc = Descriptor::new().transpose(true);
    tr.time("plan.resolve", None, Some(level), || {
        black_box(resolve_plan(g, input(rec.direction), &desc));
    });

    let expect = src.level_sizes.get(rec.level).copied().unwrap_or(0);
    let mut chosen = Charges::default();
    for dir in [Direction::Push, Direction::Pull] {
        let mask = match dir {
            Direction::Push => Mask::complement(&visited),
            Direction::Pull => Mask::complement(&visited).with_active_list(&unvisited),
        };
        let call = |c: Option<&AccessCounters>| {
            catch_unwind(AssertUnwindSafe(|| -> GrbResult<Vector<bool>> {
                mxv(
                    Some(&mask),
                    BoolStructure,
                    g,
                    input(dir),
                    &desc.force(dir),
                    c,
                )
            }))
        };
        let (out, id) = tr.time(arm_name(dir), None, Some(level), || call(None));
        tally.check(out.is_ok_and(|w| {
            w.is_ok_and(|w| {
                w.nnz() == expect && w.iter_explicit().all(|(v, _)| depths[v as usize] == depth)
            })
        }));
        let c = AccessCounters::new();
        tally.check(call(Some(&c)).is_ok_and(|w| w.is_ok()));
        let charges = Charges::from(c.snapshot());
        tr.spans[id].charges = charges;
        if dir == rec.direction {
            chosen = charges;
        }
    }
    chosen
}

fn algo_metrics(tr: &Tracer, m: &mut Metrics) {
    let runs = tr.named("algo.bfs").count().max(1) as f64;
    let bfs_ns: f64 = tr.named("algo.bfs").map(|s| s.ns() as f64).sum();
    // [push, pull] replay ns per level span id.
    let mut arms = vec![[0.0f64; 2]; tr.spans.len()];
    let mut arm_charges = [0u64; 2];
    for s in &tr.spans {
        if let Some(l) = s.replays {
            let k = match s.name {
                "mxv.push" => 0,
                "mxv.pull" => 1,
                _ => continue,
            };
            arms[l][k] = s.ns() as f64;
            arm_charges[k] += s.charges.total();
        }
    }
    let (mut levels, mut pulls, mut level_ns, mut pull_ns) = (0.0, 0.0, 0.0, 0.0);
    let (mut chosen_ns, mut best_ns, mut misplanned) = (0.0, 0.0, 0.0);
    let mut charges = Charges::default();
    for (id, s) in tr.spans.iter().enumerate() {
        let pull = match s.name {
            "algo.level.push" => false,
            "algo.level.pull" => true,
            _ => continue,
        };
        let [push_arm, pull_arm] = arms[id];
        let (chosen, other) = if pull {
            (pull_arm, push_arm)
        } else {
            (push_arm, pull_arm)
        };
        levels += 1.0;
        level_ns += s.ns() as f64;
        if pull {
            pulls += 1.0;
            pull_ns += s.ns() as f64;
        }
        chosen_ns += chosen;
        best_ns += chosen.min(other);
        if chosen > MISPLAN_MARGIN * other {
            misplanned += 1.0;
        }
        charges.add(&s.charges);
    }
    let arm_ns = |name| tr.named(name).map(|s| s.ns() as f64).sum::<f64>();
    let (push_ns, pull_arm_ns) = (arm_ns("mxv.push"), arm_ns("mxv.pull"));
    let per_run_ms = |ns: f64| ns / runs / 1e6;
    let resolve: Vec<f64> = tr.named("plan.resolve").map(|s| s.ns() as f64).collect();

    m.put("algo.levels", levels / runs);
    m.put("algo.push_levels", (levels - pulls) / runs);
    m.put("algo.pull_levels", pulls / runs);
    m.put("algo.level_ms", per_run_ms(level_ns));
    // Levels that all rounded down to 0 µs have no share to split.
    m.put(
        "algo.pull_share",
        if level_ns > 0.0 {
            pull_ns / level_ns
        } else {
            0.0
        },
    );
    m.put("algo.self_ms", per_run_ms(bfs_ns - level_ns));
    m.put("algo.level_overhead_ms", per_run_ms(level_ns - chosen_ns));
    let traced = median(&tr.ms("algo.bfs"));
    let untraced = median(&tr.ms("algo.bfs.untraced"));
    m.put("algo.trace_overhead", traced / untraced);
    m.meta("tracing_overhead_ms", traced - untraced);
    m.put(
        "plan.resolve_ns",
        resolve.iter().sum::<f64>() / resolve.len().max(1) as f64,
    );
    m.put("plan.oracle_ratio", chosen_ns / best_ns);
    m.put("plan.misplanned_levels", misplanned / runs);
    m.put("mxv.push_ms", per_run_ms(push_ns));
    m.put("mxv.pull_ms", per_run_ms(pull_arm_ns));
    m.put("mxv.matrix_accesses", charges.matrix as f64 / runs);
    m.put("mxv.vector_accesses", charges.vector as f64 / runs);
    m.put("mxv.mask_accesses", charges.mask as f64 / runs);
    m.put("mxv.sort_accesses", charges.sort as f64 / runs);
    m.put(
        "mxv.push_ns_per_access",
        push_ns / arm_charges[0].max(1) as f64,
    );
    m.put(
        "mxv.pull_ns_per_access",
        pull_arm_ns / arm_charges[1].max(1) as f64,
    );
}

#[allow(clippy::too_many_arguments)]
fn service_layer(
    tr: &mut Tracer,
    spec: &Spec,
    graphs: &ServiceGraphs,
    input: &Input,
    seed: u64,
    stream_secs: f64,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    let opts = ExecOpts::default();
    let probe: Vec<&Source> = input.sources.iter().take(PROBE).collect();
    let mut exec = |tr: &mut Tracer, name, reqs: Vec<Request>, srcs: &[&Source]| {
        let (rs, _) = tr.time(name, None, None, || {
            catch_unwind(AssertUnwindSafe(|| {
                execute_batch(graphs, &opts, &reqs, None)
            }))
        });
        for (k, (req, src)) in reqs.iter().zip(srcs).enumerate() {
            let resp = rs.as_ref().ok().and_then(|rs| rs.get(k));
            tally.check(resp.is_some_and(|r| correct(req, r, src)));
        }
    };
    for src in &probe {
        let bfs = Request::new(0, Query::Bfs { source: src.vertex });
        exec(tr, "service.solo_bfs", vec![bfs], &[src]);
        let parents = Request::new(0, Query::Parents { source: src.vertex });
        exec(tr, "service.solo_parents", vec![parents], &[src]);
    }
    let batch = probe
        .iter()
        .enumerate()
        .map(|(i, s)| Request::new(i as u64, Query::Bfs { source: s.vertex }))
        .collect();
    exec(tr, "service.batch16", batch, &probe);

    let solo = tr.ms("service.solo_bfs");
    m.put("service.bfs_ms_per_request", median(&solo));
    m.put(
        "service.parents_ms_per_request",
        median(&tr.ms("service.solo_parents")),
    );
    let untraced: Vec<f64> = tr
        .ms("algo.bfs.untraced")
        .into_iter()
        .take(probe.len())
        .collect();
    m.put(
        "service.solo_entry_ratio",
        median(&solo) / median(&untraced),
    );
    m.put(
        "service.batch16_gain",
        solo.iter().sum::<f64>() / tr.ms("service.batch16")[0],
    );

    // Enough arrivals for ten times the phase's wall time in virtual time:
    // the stream outlasts the budget down to a utilisation of 0.1.
    let count = (stream_secs * 1e7 / spec.gap_us as f64).ceil() as usize + 64;
    let stream = request_stream(seed, &input.sources, spec.gap_us, count);
    let run = replay(
        graphs,
        &stream,
        &input.sources,
        Duration::from_secs_f64(stream_secs),
        tally,
        Some(tr),
    );
    let batch_ms = sorted(run.batch_ns.iter().map(|ns| ns / 1e6).collect());
    let wait_ms = sorted(run.wait_ns.iter().map(|ns| ns / 1e6).collect());
    m.put("service.batch_exec_ms_p50", percentile(&batch_ms, 50.0));
    m.put("service.batch_exec_ms_p99", percentile(&batch_ms, 99.0));
    m.put(
        "service.queue_wait_ms_mean",
        wait_ms.iter().sum::<f64>() / wait_ms.len() as f64,
    );
    m.put("service.queue_wait_ms_p99", percentile(&wait_ms, 99.0));
    m.put("service.utilisation", run.utilisation());
    m.put(
        "service.batch_size_mean",
        run.done as f64 / run.batch_ns.len() as f64,
    );
    m.put(
        "service.coalescing_rate",
        run.coalesced as f64 / run.done as f64,
    );
    m.meta("traced_requests", run.done);
}
