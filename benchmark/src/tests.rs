//! Contract tests: the declared metric set, and smoke runs of every
//! workload at a tiny size, untraced and traced.

use super::*;
use crate::input::WORKLOADS;
use crate::spans::Charges;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// The string value of `"key": "..."` in one flat JSON object body.
fn field(obj: &str, key: &str) -> String {
    let at = obj
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} in {obj}"));
    let rest = &obj[at + key.len() + 2..];
    let rest = &rest[rest.find('"').expect("string value") + 1..];
    rest[..rest.find('"').expect("closing quote")].to_string()
}

/// `(name, unit or why)` of each object in one top-level array of
/// BENCHMARK.json (whose values hold no brackets or braces).
fn section(json: &str, key: &str, second: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array end")];
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, second)))
        .collect()
}

fn owned(decl: &[(&str, &str)]) -> Vec<(String, String)> {
    decl.iter()
        .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
        .collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn emitted_metrics_are_exactly_the_declared_ones() {
    let json = benchmark_json();
    assert_eq!(section(&json, "end_to_end", "unit"), owned(&END_TO_END));
    assert_eq!(section(&json, "per_layer", "unit"), owned(&PER_LAYER));
    let workloads: Vec<String> = section(&json, "workloads", "why")
        .into_iter()
        .map(|w| w.0)
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, ours);
    for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_name(name), "{name}");
    }
    assert!(!valid_name(".hidden") && !valid_name("a b"));
}

/// A workload shrunk to ~1k vertices and a handful of sources.
fn tiny(spec: Spec) -> Spec {
    Spec {
        shrink: 11,
        sources: 8,
        ..spec
    }
}

#[test]
fn every_workload_runs_end_to_end_at_tiny_size() {
    for spec in WORKLOADS {
        let (m, tally, tracer) = run(&tiny(spec), 3, 0.2, false);
        assert!(tracer.is_none());
        assert_eq!(tally.failed, 0, "{}", spec.name);
        assert!(tally.attempted > 0);
        m.complete()
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let names: Vec<&str> = m.values.iter().map(|v| v.0).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|d| d.0).collect();
        assert_eq!(names.len(), declared.len());
        for (name, _, v) in &m.values {
            assert!(*v > 0.0, "{}: {name} = {v}", spec.name);
        }
        let line = m.json(true, &tally);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
}

#[test]
fn traced_run_spans_nest_and_charges_add_up() {
    for spec in WORKLOADS {
        let (m, tally, tracer) = run(&tiny(spec), 5, 0.2, true);
        assert_eq!(tally.failed, 0, "{}", spec.name);
        m.complete()
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let tr = tracer.expect("traced run keeps its spans");
        let spans = &tr.spans;
        let mut child_ns = vec![0u64; spans.len()];
        let mut child_charges = vec![Charges::default(); spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                assert!(spans[p].start_ns <= s.start_ns && s.end_ns <= spans[p].end_ns);
                child_ns[p] += s.ns();
                child_charges[p].add(&s.charges);
            }
        }
        let mut bfs = 0;
        for (id, s) in spans.iter().enumerate() {
            assert!(
                child_ns[id] <= s.ns(),
                "{}: children outlast {}",
                spec.name,
                s.name
            );
            if s.name == "algo.bfs" {
                bfs += 1;
                assert_eq!(
                    child_charges[id], s.charges,
                    "{}: replayed levels must charge exactly what the BFS charged",
                    spec.name
                );
            }
        }
        assert_eq!(bfs, tiny(spec).sources.min(crate::traced::TRACED_SOURCES));
        let mut jsonl = Vec::new();
        tr.write_jsonl(&mut jsonl).expect("writing to memory");
        let lines: Vec<&str> = std::str::from_utf8(&jsonl)
            .expect("utf-8")
            .lines()
            .collect();
        assert_eq!(lines.len(), spans.len());
        assert!(lines
            .iter()
            .all(|l| l.starts_with("{\"id\":") && l.ends_with('}')));
    }
}

#[test]
fn args_parse_and_reject() {
    let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
    let a = parse("--workload bfs-road --seed 9 --seconds 5 --trace 1").unwrap();
    assert_eq!(
        (a.spec.name, a.seed, a.seconds, a.trace),
        ("bfs-road", 9, 5.0, true)
    );
    assert!(parse("--workload nope --seed 1").is_err());
    assert!(parse("--workload bfs-road").is_err(), "seed is required");
    assert!(parse("--workload bfs-road --seed 1 --trace 2").is_err());
    assert!(parse("--workload bfs-road --seed 1 --seconds 0").is_err());
    assert!(parse("--workload bfs-road --seed").is_err());
}
