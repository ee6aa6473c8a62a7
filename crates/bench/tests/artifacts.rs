//! Assertions over the committed bench artifacts in `results/`.
//!
//! The serve artifact (`BENCH_serve.json`) is pinned in two tiers. Its
//! deterministic fields — batch composition follows from the seeded trace
//! alone — are pinned exactly: at k ≥ 4 the service must coalesce (batches
//! bigger than one, positive coalescing rate), and its abort probe (one
//! expired-deadline request inside a coalesced batch) must report a typed
//! abort with siblings bit-identical to solo. Its machine fields (qps,
//! latency) move with the host, so they only get sanity checks.
//!
//! The batched artifact (`BENCH_batched.json`, `paper -- batched --shrink 6
//! --seed 42`) is pinned exactly on its deterministic fields: per dataset
//! and batch size, the levels and the push/pull steps of the multi-source
//! traversal. Its wall-clock speedups are reported, never gated.
//!
//! Every `BENCH_*.json` the `paper` binary writes must be committed under
//! `results/`; a guard test fails when one is missing.
//!
//! If an artifact is stale, regenerate it with `paper -- bench-all`.

use std::path::PathBuf;

/// One serve scenario scraped out of `BENCH_serve.json`.
#[derive(Debug, Default)]
struct ServeScenario {
    dataset: String,
    mix: String,
    target_k: u64,
    coalescing_rate: f64,
    max_batch_size: u64,
    qps_speedup: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

/// Scrape scenarios plus the per-dataset abort-probe booleans.
fn scrape_serve(text: &str) -> (Vec<ServeScenario>, Vec<(bool, bool)>) {
    let mut scenarios: Vec<ServeScenario> = Vec::new();
    let mut probes: Vec<(bool, bool)> = Vec::new();
    let mut dataset = String::new();
    let parse_f = |v: &str| v.parse::<f64>().ok();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        let value = value.trim();
        match key {
            "name" => dataset = value.trim_matches('"').to_string(),
            "mix" => scenarios.push(ServeScenario {
                dataset: dataset.clone(),
                mix: value.trim_matches('"').to_string(),
                ..ServeScenario::default()
            }),
            "target_k" => {
                if let (Some(s), Ok(v)) = (scenarios.last_mut(), value.parse()) {
                    s.target_k = v;
                }
            }
            "coalescing_rate" => {
                if let (Some(s), Some(v)) = (scenarios.last_mut(), parse_f(value)) {
                    s.coalescing_rate = v;
                }
            }
            "max_batch_size" => {
                if let (Some(s), Ok(v)) = (scenarios.last_mut(), value.parse()) {
                    s.max_batch_size = v;
                }
            }
            "qps_speedup" => {
                if let (Some(s), Some(v)) = (scenarios.last_mut(), parse_f(value)) {
                    s.qps_speedup = v;
                }
            }
            "p50_ms" => {
                if let (Some(s), Some(v)) = (scenarios.last_mut(), parse_f(value)) {
                    s.p50_ms = v;
                }
            }
            "p95_ms" => {
                if let (Some(s), Some(v)) = (scenarios.last_mut(), parse_f(value)) {
                    s.p95_ms = v;
                }
            }
            "p99_ms" => {
                if let (Some(s), Some(v)) = (scenarios.last_mut(), parse_f(value)) {
                    s.p99_ms = v;
                }
            }
            "aborted_typed" => probes.push((value == "true", false)),
            "siblings_unchanged" => {
                if let Some(p) = probes.last_mut() {
                    p.1 = value == "true";
                }
            }
            _ => {}
        }
    }
    (scenarios, probes)
}

/// Read one committed artifact from `results/`.
fn read_artifact(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn committed_serve_artifact_pins_coalescing_and_isolation() {
    let (scenarios, probes) = scrape_serve(&read_artifact("BENCH_serve.json"));
    assert!(
        scenarios.len() >= 4,
        "artifact should cover multiple scenarios per dataset, scraped {scenarios:?}"
    );
    for s in scenarios.iter().filter(|s| s.target_k >= 4) {
        assert!(
            s.max_batch_size > 1,
            "{}/{} k={}: admission never formed a batch bigger than one",
            s.dataset,
            s.mix,
            s.target_k
        );
        assert!(
            s.coalescing_rate > 0.0,
            "{}/{} k={}: no request ever shared a coalesced traversal",
            s.dataset,
            s.mix,
            s.target_k
        );
    }
    assert!(
        probes.len() >= 2,
        "every dataset should carry an abort probe, scraped {probes:?}"
    );
    for (i, &(typed, unchanged)) in probes.iter().enumerate() {
        assert!(
            typed,
            "abort probe {i}: the expired-deadline request must abort typed"
        );
        assert!(
            unchanged,
            "abort probe {i}: siblings of the aborted request must be \
             bit-identical to their solo runs"
        );
    }
}

#[test]
fn committed_serve_artifact_machine_fields_are_sane() {
    let (scenarios, _) = scrape_serve(&read_artifact("BENCH_serve.json"));
    assert!(!scenarios.is_empty(), "no serve scenarios scraped");
    for s in &scenarios {
        let fields = [s.qps_speedup, s.p50_ms, s.p95_ms, s.p99_ms];
        assert!(
            fields.iter().all(|v| v.is_finite() && *v > 0.0),
            "{}/{} k={}: machine fields must be finite and positive, got {fields:?}",
            s.dataset,
            s.mix,
            s.target_k
        );
        assert!(
            s.p50_ms <= s.p95_ms && s.p95_ms <= s.p99_ms,
            "{}/{} k={}: latency percentiles must be monotone \
             (p50 {} / p95 {} / p99 {})",
            s.dataset,
            s.mix,
            s.target_k,
            s.p50_ms,
            s.p95_ms,
            s.p99_ms
        );
    }
}

/// `(dataset, k, levels, push_steps, pull_steps)` of the fixed-seed
/// regeneration (`paper -- batched --shrink 6 --seed 42`): each source's
/// steps equal its solo run's, so these follow from the graphs and the
/// §6.3 rule alone.
const BATCHED_PIN: [(&str, u64, u64, u64, u64); 33] = [
    ("soc-orkut", 1, 4, 2, 2),
    ("soc-orkut", 4, 5, 9, 8),
    ("soc-orkut", 16, 5, 35, 32),
    ("soc-lj", 1, 6, 3, 3),
    ("soc-lj", 4, 6, 12, 12),
    ("soc-lj", 16, 7, 58, 44),
    ("h09", 1, 4, 2, 2),
    ("h09", 4, 4, 8, 8),
    ("h09", 16, 4, 32, 32),
    ("i04", 1, 5, 3, 2),
    ("i04", 4, 6, 15, 8),
    ("i04", 16, 6, 59, 36),
    ("kron", 1, 5, 2, 3),
    ("kron", 4, 6, 14, 10),
    ("kron", 16, 6, 52, 39),
    ("rmat-22", 1, 5, 3, 2),
    ("rmat-22", 4, 6, 10, 11),
    ("rmat-22", 16, 5, 43, 37),
    ("rmat-23", 1, 6, 3, 3),
    ("rmat-23", 4, 7, 17, 9),
    ("rmat-23", 16, 6, 52, 42),
    ("rmat-24", 1, 6, 3, 3),
    ("rmat-24", 4, 6, 14, 10),
    ("rmat-24", 16, 6, 53, 43),
    ("rgg", 1, 235, 235, 0),
    ("rgg", 4, 309, 1194, 0),
    ("rgg", 16, 346, 4464, 0),
    ("roadnet", 1, 292, 292, 0),
    ("roadnet", 4, 310, 1068, 0),
    ("roadnet", 16, 298, 3821, 0),
    ("road_usa", 1, 809, 809, 0),
    ("road_usa", 4, 864, 3032, 0),
    ("road_usa", 16, 996, 13183, 0),
];

/// `(dataset, k, levels, push_steps, pull_steps)` of one batched sample.
type BatchedSample = (String, u64, u64, u64, u64);

/// Scrape every sample, plus the artifact's `shrink` and `seed`.
fn scrape_batched(text: &str) -> (Vec<BatchedSample>, u64, u64) {
    let (mut samples, mut shrink, mut seed) = (Vec::new(), 0, 0);
    let mut dataset = String::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        let int = || value.parse::<u64>().ok();
        match key.trim().trim_matches('"') {
            "name" => dataset = value.trim_matches('"').to_string(),
            "shrink" => shrink = int().unwrap_or(0),
            "seed" => seed = int().unwrap_or(0),
            "k" => samples.push((dataset.clone(), int().unwrap_or(0), 0, 0, 0)),
            "levels" => {
                if let (Some(s), Some(v)) = (samples.last_mut(), int()) {
                    s.2 = v;
                }
            }
            "push_steps" => {
                if let (Some(s), Some(v)) = (samples.last_mut(), int()) {
                    s.3 = v;
                }
            }
            "pull_steps" => {
                if let (Some(s), Some(v)) = (samples.last_mut(), int()) {
                    s.4 = v;
                }
            }
            _ => {}
        }
    }
    (samples, shrink, seed)
}

#[test]
fn committed_batched_artifact_pins_levels_and_steps() {
    let (samples, shrink, seed) = scrape_batched(&read_artifact("BENCH_batched.json"));
    assert_eq!((shrink, seed), (6, 42), "pinned against shrink 6, seed 42");
    let pinned: Vec<BatchedSample> = BATCHED_PIN
        .iter()
        .map(|&(d, k, l, push, pull)| (d.to_string(), k, l, push, pull))
        .collect();
    assert_eq!(
        samples, pinned,
        "levels and push/pull steps per dataset and k"
    );
    for (d, k, levels, push, pull) in &samples {
        // One source takes one step per level; a batch's sources each take
        // one per level they ran, the longest running every level.
        if *k == 1 {
            assert_eq!(push + pull, *levels, "{d}: k = 1 steps once per level");
        } else {
            assert!(push + pull >= *levels, "{d} k={k}: fewer steps than levels");
            assert!(
                push + pull <= k * levels,
                "{d} k={k}: more steps than k × levels"
            );
        }
    }
}

/// Every `"BENCH_*.json"` literal in the `paper` binary names an artifact
/// some subcommand writes; each must be committed under `results/`.
#[test]
fn every_artifact_the_paper_binary_writes_is_committed() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let paper = std::fs::read_to_string(root.join("src/bin/paper.rs")).expect("read paper.rs");
    let mut names: Vec<&str> = paper
        .split('"')
        .filter(|tok| tok.starts_with("BENCH_") && tok.ends_with(".json"))
        .collect();
    names.sort_unstable();
    names.dedup();
    assert!(
        names.len() >= 5,
        "expected the paper binary to name its artifacts, found {names:?}"
    );
    let missing: Vec<&str> = names
        .into_iter()
        .filter(|n| !root.join("../../results").join(n).is_file())
        .collect();
    assert!(
        missing.is_empty(),
        "artifacts written by `paper` but not committed under results/: {missing:?}; \
         regenerate with `paper -- bench-all` and commit them"
    );
}
