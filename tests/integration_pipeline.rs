//! Cross-crate integration tests: the full pipeline from generator (or
//! Matrix Market text) through the GraphBLAS core to algorithms and
//! comparator engines, on each dataset class of Table 3.

use push_pull::algo::bfs::{bfs, bfs_with_opts, BfsOpts};
use push_pull::algo::pagerank::{pagerank, PageRankOpts};
use push_pull::algo::sssp::{dijkstra_oracle, sssp, SsspOpts};
use push_pull::baselines::textbook::bfs_serial;
use push_pull::core::Direction;
use push_pull::gen::suite::{dataset, DATASET_NAMES};
use push_pull::gen::with_uniform_weights;
use push_pull::matrix::mmio;
use push_pull::matrix::{Csr, Graph, GraphStats};

/// Small but structurally faithful suite: shrink 9 keeps every dataset at
/// a few thousand vertices.
const TEST_SHRINK: u32 = 9;

#[test]
fn dobfs_matches_oracle_on_every_dataset_class() {
    for name in DATASET_NAMES {
        let d = dataset(name, TEST_SHRINK, 7).expect("known dataset");
        let sources = [0u32, (d.graph.n_vertices() / 2) as u32];
        for &s in &sources {
            let got = bfs(&d.graph, s);
            let expect = bfs_serial(&d.graph, s);
            assert_eq!(got.depths, expect, "dataset {name}, source {s}");
        }
    }
}

#[test]
fn forced_directions_agree_on_every_dataset_class() {
    for name in ["kron", "rgg", "roadnet", "soc-lj"] {
        let d = dataset(name, TEST_SHRINK, 11).expect("known dataset");
        let auto = bfs(&d.graph, 1).depths;
        for dir in [Direction::Push, Direction::Pull] {
            let forced = bfs_with_opts(&d.graph, 1, &BfsOpts::default().forced(dir), None);
            assert_eq!(forced.depths, auto, "dataset {name}, {dir:?}");
        }
    }
}

#[test]
fn default_bfs_direction_plans_match_golden_sequences() {
    // Default BFS's per-level directions on three suite graphs. `P`/`L` =
    // push/pull, `*k` = k levels in a row. Under the edge rule a road mesh
    // never pulls: its thin frontiers stay under the `|V|/8` edge floor.
    let golden = [
        (
            "kron",
            [(0, "P L*2 P"), (1365, "P*2 L*2 P"), (2730, "P*2 L*2 P")],
        ),
        (
            "soc-lj",
            [(0, "P L*3"), (3125, "P*2 L*3 P"), (6250, "P*2 L*3")],
        ),
        ("roadnet", [(0, "P*104"), (1281, "P*83"), (2562, "P*83")]),
    ];
    for (name, cases) in golden {
        let g = dataset(name, TEST_SHRINK, 7).expect("known dataset").graph;
        for (source, expect) in cases {
            let r = bfs_with_opts(&g, source, &BfsOpts::default().traced(), None);
            let codes: Vec<char> = r
                .trace
                .iter()
                .map(|t| match t.direction {
                    Direction::Push => 'P',
                    Direction::Pull => 'L',
                })
                .collect();
            let runs: Vec<String> = codes
                .chunk_by(|a, b| a == b)
                .map(|group| match group.len() {
                    1 => group[0].to_string(),
                    k => format!("{}*{k}", group[0]),
                })
                .collect();
            assert_eq!(runs.join(" "), expect, "{name} from source {source}");
        }
    }
}

#[test]
fn matrix_market_roundtrip_feeds_the_full_stack() {
    // Write a kron stand-in out as Matrix Market, read it back, and check
    // BFS + stats agree with the original — the drop-in-real-datasets path.
    let d = dataset("kron", 10, 3).expect("known dataset");
    let a = d.graph.csr();
    let mut coo = push_pull::matrix::Coo::new(a.n_rows(), a.n_cols());
    for i in 0..a.n_rows() {
        for &j in a.row(i) {
            coo.push(i as u32, j, 1.0f64);
        }
    }
    let mut text = Vec::new();
    mmio::write_coo(&mut text, &coo).expect("writes");

    let back = mmio::read_coo(std::io::Cursor::new(text)).expect("reads");
    let mut bool_coo = push_pull::matrix::Coo::new(back.n_rows(), back.n_cols());
    for &(r, c, _) in back.entries() {
        bool_coo.push(r, c, true);
    }
    let g2 = Graph::from_coo(&bool_coo);

    assert_eq!(g2.n_edges(), d.graph.n_edges());
    assert_eq!(bfs(&g2, 0).depths, bfs_serial(&d.graph, 0));
    let s1 = GraphStats::compute(d.graph.csr());
    let s2 = GraphStats::compute(g2.csr());
    assert_eq!(s1.max_degree, s2.max_degree);
}

#[test]
fn weighted_pipeline_generator_to_sssp() {
    let d = dataset("soc-lj", TEST_SHRINK, 5).expect("known dataset");
    let w = with_uniform_weights(&d.graph, 77);
    let r = sssp(&w, 0, &SsspOpts::default());
    let expect = dijkstra_oracle(&w, 0);
    for (i, (&a, &b)) in r.dist.iter().zip(expect.iter()).enumerate() {
        if b.is_infinite() {
            assert!(a.is_infinite(), "vertex {i}");
        } else {
            assert!((a - b).abs() < 1e-3, "vertex {i}: {a} vs {b}");
        }
    }
}

#[test]
fn pagerank_mass_conserved_on_scale_free_and_mesh() {
    for name in ["kron", "roadnet"] {
        let d = dataset(name, TEST_SHRINK, 13).expect("known dataset");
        let r = pagerank(&d.graph, &PageRankOpts::default());
        let total: f64 = r.ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-5, "dataset {name}: mass {total}");
    }
}

#[test]
fn stats_reflect_dataset_classes() {
    let kron = dataset("kron", TEST_SHRINK, 3).unwrap();
    let road = dataset("road_usa", TEST_SHRINK, 3).unwrap();
    let ks = GraphStats::compute(kron.graph.csr());
    let rs = GraphStats::compute(road.graph.csr());
    assert!(ks.max_degree > 50, "kron must have hubs");
    assert!(rs.max_degree <= 12, "roads must not");
    assert!(rs.pseudo_diameter > ks.pseudo_diameter * 5);
}

#[test]
fn smallworld_beta_sweep_keeps_bfs_correct_and_moves_the_crossover() {
    // Watts-Strogatz dials between the paper's mesh and random regimes;
    // the direction heuristic must stay correct across the whole dial and
    // pull usage must not decrease as shortcuts shrink the diameter.
    use push_pull::core::Direction;
    use push_pull::gen::smallworld::watts_strogatz;
    let mut pull_levels_at = Vec::new();
    for &beta in &[0.0, 0.05, 0.5] {
        let g = watts_strogatz(20_000, 4, beta, 11);
        let r = bfs_with_opts(&g, 0, &BfsOpts::default().traced(), None);
        assert_eq!(r.depths, bfs_serial(&g, 0), "beta {beta}");
        let pulls = r
            .trace
            .iter()
            .filter(|t| t.direction == Direction::Pull)
            .count();
        pull_levels_at.push((beta, pulls, r.levels));
    }
    let (_, pulls_lattice, levels_lattice) = pull_levels_at[0];
    let (_, pulls_random, levels_random) = pull_levels_at[2];
    assert_eq!(pulls_lattice, 0, "pure lattice stays push-only");
    assert!(
        pulls_random > 0,
        "heavily rewired graph goes wide enough to pull"
    );
    assert!(
        levels_random * 10 < levels_lattice,
        "shortcuts collapse the level count: {levels_random} vs {levels_lattice}"
    );
}

#[test]
fn csr_from_mtx_pattern_text() {
    // End-to-end: parse a literal .mtx snippet and traverse it.
    let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                5 5 4\n\
                2 1\n\
                3 2\n\
                4 3\n\
                5 4\n";
    let coo = mmio::read_coo(std::io::Cursor::new(text)).expect("parses");
    let mut bool_coo = push_pull::matrix::Coo::new(5, 5);
    for &(r, c, _) in coo.entries() {
        bool_coo.push(r, c, true);
    }
    let g = Graph::from_csr(Csr::from_coo(&bool_coo));
    let r = bfs(&g, 0);
    assert_eq!(r.depths, vec![0, 1, 2, 3, 4]);
}
