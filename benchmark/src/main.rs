//! End-to-end and per-layer benchmark of the push-pull GraphBLAS workspace.
//!
//! One invocation runs one workload (see `README.md` for the workloads and
//! what each metric should move):
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload bfs-kron --seed 1 --seconds 15 --trace 0 [--spans spans.jsonl]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing and counters
//! off; `--trace 1` records spans around each layer's public calls and
//! reports the per-layer metrics (`--spans` writes the spans as JSON
//! lines). Every output is checked against an oracle. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! and `metrics` (each `{"value", "unit"}`). The exit code is 0 only when
//! every output was correct.

mod alloc;
mod input;
mod measure;
mod serve;
mod spans;
mod stats;
mod traced;

use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use input::{Input, Spec};
use stats::Tally;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Every end-to-end metric with its unit, as declared in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p99", "ms"),
    ("throughput_per_s", "1/s"),
    ("mteps", "MTEPS"),
    ("mem_peak_mb", "MiB"),
];

/// Every per-layer metric with its unit, as declared in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("matrix.from_coo_ms", "ms"),
    ("matrix.bitmap_build_ms", "ms"),
    ("matrix.dcsr_build_ms", "ms"),
    ("matrix.first_query_extra_ms", "ms"),
    ("algo.levels", "count"),
    ("algo.push_levels", "count"),
    ("algo.pull_levels", "count"),
    ("algo.level_ms", "ms"),
    ("algo.pull_share", "fraction"),
    ("algo.self_ms", "ms"),
    ("algo.level_overhead_ms", "ms"),
    ("algo.trace_overhead", "ratio"),
    ("plan.resolve_ns", "ns"),
    ("plan.oracle_ratio", "ratio"),
    ("plan.misplanned_levels", "count"),
    ("mxv.push_ms", "ms"),
    ("mxv.pull_ms", "ms"),
    ("mxv.matrix_accesses", "count"),
    ("mxv.vector_accesses", "count"),
    ("mxv.mask_accesses", "count"),
    ("mxv.sort_accesses", "count"),
    ("mxv.push_ns_per_access", "ns"),
    ("mxv.pull_ns_per_access", "ns"),
    ("service.bfs_ms_per_request", "ms"),
    ("service.parents_ms_per_request", "ms"),
    ("service.solo_entry_ratio", "ratio"),
    ("service.batch16_gain", "ratio"),
    ("service.batch_exec_ms_p50", "ms"),
    ("service.batch_exec_ms_p99", "ms"),
    ("service.queue_wait_ms_mean", "ms"),
    ("service.queue_wait_ms_p99", "ms"),
    ("service.utilisation", "fraction"),
    ("service.batch_size_mean", "count"),
    ("service.coalescing_rate", "fraction"),
];

/// The metrics and run metadata of one run. `put` accepts only declared
/// names, so the binary cannot emit a metric `BENCHMARK.json` lacks.
pub struct Metrics {
    declared: &'static [(&'static str, &'static str)],
    values: Vec<(&'static str, &'static str, f64)>,
    meta: Vec<(String, String)>,
}

impl Metrics {
    fn new(declared: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            declared,
            values: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Record a declared metric once.
    ///
    /// # Panics
    /// On an undeclared or repeated name (a bug in this binary).
    pub fn put(&mut self, name: &'static str, value: f64) {
        let &(_, unit) = self
            .declared
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(
            self.values.iter().all(|(n, ..)| *n != name),
            "metric {name} recorded twice"
        );
        self.values.push((name, unit, value));
    }

    /// Record run metadata (printed, not part of the result object).
    pub fn meta(&mut self, key: &str, value: impl Display) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// Every declared metric was recorded, with a finite value.
    fn complete(&self) -> Result<(), String> {
        for (name, _) in self.declared {
            match self.values.iter().find(|(n, ..)| n == name) {
                None => return Err(format!("metric {name} was not measured")),
                Some((.., v)) if !v.is_finite() => return Err(format!("metric {name} is {v}")),
                Some(_) => {}
            }
        }
        Ok(())
    }

    fn json(&self, correct: bool, tally: &Tally) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(name, unit, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.attempted,
            tally.failed,
            metrics.join(", ")
        )
    }
}

const USAGE: &str = "usage: benchmark --workload <bfs-kron|bfs-social|bfs-road|serve-traversal> \
--seed <n> [--seconds <s>] [--trace <0|1>] [--spans <file>]";

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut spec, mut seed, mut seconds, mut trace, mut spans) = (None, None, 15.0, false, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => {
                spec =
                    Some(input::spec(&value).ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        spans,
    })
}

/// One run: generate the inputs, then measure either layer.
fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> (Metrics, Tally, Option<spans::Tracer>) {
    let mut m = Metrics::new(if trace { &PER_LAYER } else { &END_TO_END });
    let mut tally = Tally::default();
    let t = Instant::now();
    let input = Input::generate(spec, seed, spec.serve || trace);
    m.meta("workload", spec.name);
    m.meta("seed", seed);
    m.meta("tracing", trace);
    m.meta("graph", format!("{} shrink {}", spec.dataset, spec.shrink));
    m.meta("n", input.n);
    m.meta("m", input.m);
    m.meta("sources", input.sources.len());
    m.meta("generate_s", t.elapsed().as_secs_f64());
    let tracer = if trace {
        Some(traced::per_layer(
            spec, &input, seed, seconds, &mut tally, &mut m,
        ))
    } else {
        measure::end_to_end(spec, &input, seed, seconds, &mut tally, &mut m);
        None
    };
    (m, tally, tracer)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The kernel pool runs at its default lane count; on a machine with
    // fewer cores than lanes the timings would measure oversubscription.
    let machine = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let lanes = rayon::current_num_threads();
    if lanes > machine {
        eprintln!("benchmark: {lanes} kernel lanes exceed the machine's {machine}; unset PUSH_PULL_THREADS");
        return ExitCode::from(2);
    }

    let (mut m, tally, tracer) = run(&args.spec, args.seed, args.seconds, args.trace);
    m.meta("machine_parallelism", machine);
    m.meta("lanes", lanes);
    let mut correct = tally.failed == 0 && tally.attempted > 0;
    if let Err(e) = m.complete() {
        eprintln!("benchmark: {e}");
        correct = false;
    }
    if let (Some(path), Some(tr)) = (&args.spans, &tracer) {
        let written =
            std::fs::File::create(path).and_then(|f| tr.write_jsonl(std::io::BufWriter::new(f)));
        if let Err(e) = written {
            eprintln!("benchmark: writing spans to {}: {e}", path.display());
            correct = false;
        }
    }
    for (k, v) in &m.meta {
        println!("meta {k} = {v}");
    }
    for (name, unit, v) in &m.values {
        println!("metric {name} = {v} {unit}");
    }
    println!("{}", m.json(correct, &tally));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests;
