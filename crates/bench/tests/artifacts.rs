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
//! and batch size, the levels, the push/pull steps and the four contract
//! charges (matrix, vector, mask, sort) of the multi-source traversal. Its
//! wall-clock speedups are reported, never gated.
//!
//! The limits artifact (`BENCH_limits.json`, `paper -- limits --shrink 6
//! --seed 42`) holds only machine fields: its armed-to-unguarded ratios
//! must be finite and positive, and its cancelled and late runs at most
//! its sources. Its milliseconds are reported, never gated.
//!
//! The direction artifact (`BENCH_direction.json`, `paper -- heuristic`)
//! holds replayed rules over timed levels: its ratios to the per-level
//! oracle must be finite and at least 1, and BFS's edge rule must sit
//! within 1.1× the oracle with at most 2 switches per BFS on every suite
//! dataset. Its milliseconds are reported, never gated.
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

/// `(dataset, k, levels, push_steps, pull_steps, [matrix, vector, mask,
/// sort])` of the fixed-seed regeneration (`paper -- batched --shrink 6
/// --seed 42`). Each source's steps equal its solo run's, so the steps
/// follow from the graphs and BFS's edge rule alone. The four contract
/// charges are the counted pass's: a k = 1 row is a solo BFS (claim-kernel
/// push levels), a larger k one shared lane traversal; both are identical
/// at every lane count.
const BATCHED_PIN: [PinnedSample; 33] = [
    ("soc-orkut", 1, 4, 2, 2, [50018, 87877, 49976, 17956]),
    ("soc-orkut", 4, 5, 8, 9, [483344, 574937, 172941, 9704]),
    ("soc-orkut", 16, 5, 35, 32, [396191, 443597, 395275, 93550]),
    ("soc-lj", 1, 6, 3, 3, [159436, 242422, 86498, 9477]),
    ("soc-lj", 4, 6, 12, 12, [387290, 494575, 128561, 45648]),
    ("soc-lj", 16, 7, 55, 47, [763985, 902889, 227179, 81996]),
    ("h09", 1, 4, 2, 2, [21802, 31373, 21802, 15076]),
    ("h09", 4, 4, 8, 8, [84712, 98644, 84712, 32546]),
    ("h09", 16, 4, 32, 32, [288147, 305748, 288143, 36796]),
    ("i04", 1, 5, 2, 3, [373410, 524164, 150910, 222]),
    ("i04", 4, 6, 14, 9, [696034, 922817, 324643, 24138]),
    ("i04", 16, 6, 61, 34, [539640, 670109, 497741, 276675]),
    ("kron", 1, 5, 3, 2, [35730, 66062, 45251, 15310]),
    ("kron", 4, 6, 15, 9, [163075, 215186, 132497, 33400]),
    ("kron", 16, 6, 52, 39, [300668, 378226, 208201, 2190]),
    ("rmat-22", 1, 5, 3, 2, [104769, 157705, 122104, 42546]),
    ("rmat-22", 4, 6, 12, 9, [316996, 409329, 316135, 69752]),
    ("rmat-22", 16, 5, 43, 37, [766232, 919929, 656308, 3898]),
    ("rmat-23", 1, 6, 4, 2, [129534, 271922, 186272, 60423]),
    ("rmat-23", 4, 7, 16, 10, [686122, 945576, 551171, 124194]),
    ("rmat-23", 16, 6, 56, 38, [1220538, 1569897, 847165, 12954]),
    ("rmat-24", 1, 6, 4, 2, [215919, 550758, 382632, 69159]),
    ("rmat-24", 4, 6, 14, 10, [743061, 1286951, 634734, 124875]),
    (
        "rmat-24",
        16,
        6,
        57,
        39,
        [1494122, 2046310, 1361695, 308934],
    ),
    ("rgg", 1, 235, 235, 0, [4181044, 1340209, 4181044, 787497]),
    (
        "rgg",
        4,
        309,
        1194,
        0,
        [16635929, 17680314, 16635929, 3133143],
    ),
    (
        "rgg",
        16,
        346,
        4464,
        0,
        [64620313, 68677863, 64620313, 12172602],
    ),
    ("roadnet", 1, 292, 292, 0, [117712, 85587, 117712, 62656]),
    ("roadnet", 4, 310, 1068, 0, [467788, 592287, 467788, 248990]),
    (
        "roadnet",
        16,
        298,
        3821,
        0,
        [1792056, 2269034, 1792056, 953924],
    ),
    (
        "road_usa",
        1,
        809,
        809,
        0,
        [1408796, 985709, 1408796, 1119912],
    ),
    (
        "road_usa",
        4,
        864,
        3032,
        0,
        [5627463, 7118643, 5627463, 4473528],
    ),
    (
        "road_usa",
        16,
        996,
        13183,
        0,
        [22289568, 28195973, 22289568, 17719167],
    ),
];

/// `(dataset, k, levels, push_steps, pull_steps, [matrix, vector, mask,
/// sort])` of one batched sample.
type BatchedSample = (String, u64, u64, u64, u64, [u64; 4]);

/// A [`BatchedSample`] as pinned in source.
type PinnedSample = (&'static str, u64, u64, u64, u64, [u64; 4]);

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
            "k" => samples.push((dataset.clone(), int().unwrap_or(0), 0, 0, 0, [0; 4])),
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
            charge
            @ ("matrix_accesses" | "vector_accesses" | "mask_accesses" | "sort_accesses") => {
                let slot = match charge {
                    "matrix_accesses" => 0,
                    "vector_accesses" => 1,
                    "mask_accesses" => 2,
                    _ => 3,
                };
                if let (Some(s), Some(v)) = (samples.last_mut(), int()) {
                    s.5[slot] = v;
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
        .map(|&(d, k, l, push, pull, charges)| (d.to_string(), k, l, push, pull, charges))
        .collect();
    assert_eq!(
        samples, pinned,
        "levels, push/pull steps and contract charges per dataset and k"
    );
    for (d, k, levels, push, pull, _) in &samples {
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

/// One overshoot row of `BENCH_limits.json`: dataset, algorithm, sources,
/// cancelled runs and runs that completed past their deadline.
type OvershootRow = (String, String, u64, u64, u64);

/// Scrape the arms' ratio fields (dataset, field, value) and the
/// overshoot rows, plus `machine_parallelism`.
fn scrape_limits(text: &str) -> (Vec<(String, String, f64)>, Vec<OvershootRow>, u64) {
    let (mut ratios, mut rows, mut machine) = (Vec::new(), Vec::<OvershootRow>::new(), 0);
    let mut dataset = String::new();
    let mut in_row = false;
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let (key, value) = (key.trim().trim_matches('"'), value.trim());
        let int = || value.parse::<u64>().unwrap_or(u64::MAX);
        match key {
            "machine_parallelism" => machine = int(),
            "name" => {
                dataset = value.trim_matches('"').to_string();
                in_row = false;
            }
            "ratio" | "ratio_min" | "ratio_max" => ratios.push((
                dataset.clone(),
                key.to_string(),
                value.parse().unwrap_or(f64::NAN),
            )),
            "algorithm" => {
                rows.push((
                    dataset.clone(),
                    value.trim_matches('"').to_string(),
                    0,
                    0,
                    0,
                ));
                in_row = true;
            }
            "sources" if in_row => rows.last_mut().expect("row").2 = int(),
            "cancelled" => rows.last_mut().expect("row").3 = int(),
            "completed_late" => rows.last_mut().expect("row").4 = int(),
            _ => {}
        }
    }
    (ratios, rows, machine)
}

#[test]
fn committed_limits_artifact_is_sane() {
    let (ratios, rows, machine) = scrape_limits(&read_artifact("BENCH_limits.json"));
    assert!(machine >= 1, "machine_parallelism recorded");
    // Three graphs, each with three arms of three ratio fields and three
    // algorithms under three deadlines.
    assert_eq!(ratios.len(), 27, "ratio fields scraped: {ratios:?}");
    assert_eq!(rows.len(), 27, "overshoot rows scraped: {rows:?}");
    for (d, field, v) in &ratios {
        assert!(v.is_finite() && *v > 0.0, "{d} {field} = {v}");
    }
    for (d, algo, sources, cancelled, late) in &rows {
        assert!(
            *sources >= 8,
            "{d} {algo}: at least 8 sources, got {sources}"
        );
        assert!(
            cancelled + late <= *sources,
            "{d} {algo}: {cancelled} cancelled and {late} late of {sources}"
        );
    }
}

/// One rule row of `BENCH_direction.json`: dataset, rule, ratio to the
/// per-level oracle, switches per BFS.
type DirectionRow = (String, String, f64, f64);

/// Scrape every rule row, plus each dataset's source count.
fn scrape_direction(text: &str) -> (Vec<DirectionRow>, Vec<(String, u64)>) {
    let (mut rows, mut sources) = (Vec::new(), Vec::new());
    let mut dataset = String::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let (key, value) = (key.trim().trim_matches('"'), value.trim());
        let num = || value.parse::<f64>().unwrap_or(f64::NAN);
        match key {
            "name" => dataset = value.trim_matches('"').to_string(),
            "sources" => sources.push((dataset.clone(), value.parse().unwrap_or(0))),
            "rule" => rows.push((
                dataset.clone(),
                value.trim_matches('"').to_string(),
                f64::NAN,
                f64::NAN,
            )),
            "vs_oracle" => rows.last_mut().expect("rule row").2 = num(),
            "switches_per_bfs" => rows.last_mut().expect("rule row").3 = num(),
            _ => {}
        }
    }
    (rows, sources)
}

/// The direction artifact (`paper -- heuristic`): every suite dataset with
/// at least 8 sources, every rule's row finite and no faster than the
/// per-level oracle, and BFS's edge rule within 1.1× the oracle with at
/// most 2 switches per BFS.
#[test]
fn committed_direction_artifact_holds_the_edge_rule_near_the_oracle() {
    let (rows, sources) = scrape_direction(&read_artifact("BENCH_direction.json"));
    assert_eq!(sources.len(), 11, "every suite dataset: {sources:?}");
    for (d, k) in &sources {
        assert!(*k >= 8, "{d}: at least 8 sources, got {k}");
    }
    // Oracle, push-only, pull-only, five hysteresis thresholds, edge rule.
    assert_eq!(rows.len(), 11 * 9, "rule rows scraped: {rows:?}");
    for (d, rule, ratio, switches) in &rows {
        assert!(
            ratio.is_finite() && *ratio >= 1.0 - 1e-9,
            "{d} {rule}: {ratio}x the oracle"
        );
        assert!(switches.is_finite(), "{d} {rule}: {switches} switches");
        if rule == "edge rule" {
            assert!(*ratio <= 1.1, "{d}: edge rule at {ratio}x the oracle");
            assert!(*switches <= 2.0, "{d}: {switches} switches per BFS");
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
        names.len() >= 4,
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
