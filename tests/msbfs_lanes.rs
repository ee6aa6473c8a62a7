//! The shared multi-source traversal — lane groups of up to 64 sources,
//! one pull sweep and one push sweep per level — against solo runs of the
//! fastest single-source path, case by case:
//!
//! * every source's values and level count equal its solo run;
//! * every source's push/pull steps equal its solo run's;
//! * a group reads the matrix at most as often as its members' solo runs
//!   together, and its bills sum exactly to the group total;
//! * values and every counter are identical at 1, 2 and 8 lanes (and at 4
//!   for the edge-rule case).
//!
//! The test names carry `msbfs` so the CI batched suite runs them at each
//! pinned lane count.

use proptest::prelude::*;
use push_pull::algo::bfs::bfs_with_opts;
use push_pull::algo::bfs_parents::{bfs_parents_with_opts, verify_parents, ParentBfsOpts};
use push_pull::algo::msbfs::{multi_source_bfs_with_opts, MsBfsOpts};
use push_pull::algo::{bfs_parents_entries, multi_source_bfs_entries, BatchEntry};
use push_pull::baselines::textbook::bfs_serial;
use push_pull::core::descriptor::Direction;
use push_pull::core::MAX_LANES;
use push_pull::gen::erdos::erdos_renyi;
use push_pull::gen::powerlaw::{chung_lu, PowerLawParams};
use push_pull::gen::rmat::{rmat, RmatParams};
use push_pull::matrix::{Coo, Graph};
use push_pull::primitives::counters::{AccessCounters, CounterSnapshot};

const LANES: [usize; 2] = [2, 8];

/// Everything a case observes: per source its depths, levels and bill,
/// plus the batch scope's total.
#[derive(Debug, PartialEq)]
struct Outcome {
    depths: Vec<Vec<i32>>,
    levels: Vec<usize>,
    bills: Vec<CounterSnapshot>,
    shared: CounterSnapshot,
}

fn steps(s: &CounterSnapshot) -> (u64, u64) {
    (s.push_steps, s.pull_steps)
}

fn sum(snaps: &[CounterSnapshot]) -> CounterSnapshot {
    let total = AccessCounters::new();
    for s in snaps {
        total.absorb(s);
    }
    total.snapshot()
}

/// Run `sources` as BFS entries (one bill each) and as one msbfs call; the
/// two run the same traversal, so they must agree on values and totals.
fn run_case(g: &Graph<bool>, sources: &[u32], opts: &MsBfsOpts) -> Outcome {
    let cs: Vec<AccessCounters> = sources.iter().map(|_| AccessCounters::new()).collect();
    let entries: Vec<BatchEntry<'_>> = sources
        .iter()
        .zip(&cs)
        .map(|(&s, c)| BatchEntry::new(s, c))
        .collect();
    let shared = AccessCounters::new();
    let rs = multi_source_bfs_entries(g, &entries, opts, Some(&shared));
    let plain_c = AccessCounters::new();
    let plain = multi_source_bfs_with_opts(g, sources, opts, Some(&plain_c));
    let mut out = Outcome {
        depths: Vec::new(),
        levels: Vec::new(),
        bills: cs.iter().map(AccessCounters::snapshot).collect(),
        shared: shared.snapshot(),
    };
    for (r, d) in rs.into_iter().zip(&plain.depths) {
        let r = r.expect("unlimited entries complete");
        assert_eq!(&r.depths, d, "entries and msbfs disagree");
        out.depths.push(r.depths);
        out.levels.push(r.levels);
    }
    assert_eq!(plain.levels, out.levels.iter().copied().max().unwrap_or(0));
    assert_eq!(
        plain_c.snapshot(),
        out.shared,
        "msbfs total = entries total"
    );
    assert_eq!(
        sum(&out.bills),
        out.shared,
        "bills sum exactly to the group total"
    );
    out
}

/// The value, step and matrix rules against solo `bfs_with_opts` runs.
fn check_against_solo(g: &Graph<bool>, sources: &[u32], opts: &MsBfsOpts, out: &Outcome) {
    for (gi, group) in sources.chunks(MAX_LANES).enumerate() {
        let (mut group_matrix, mut solo_matrix) = (0u64, 0u64);
        for (j, &s) in group.iter().enumerate() {
            let i = gi * MAX_LANES + j;
            let c = AccessCounters::new();
            let solo = bfs_with_opts(g, s, &opts.solo(), Some(&c));
            assert_eq!(out.depths[i], solo.depths, "source {s} (#{i}) values");
            assert_eq!(out.depths[i], bfs_serial(g, s), "source {s} (#{i}) oracle");
            assert_eq!(out.levels[i], solo.levels, "source {s} (#{i}) levels");
            assert_eq!(
                steps(&out.bills[i]),
                steps(&c.snapshot()),
                "source {s} (#{i}) push/pull steps"
            );
            group_matrix += out.bills[i].matrix;
            solo_matrix += c.snapshot().matrix;
        }
        assert!(
            group_matrix <= solo_matrix,
            "group {gi} read the matrix {group_matrix} times, its solo runs {solo_matrix}"
        );
    }
}

/// Every rule, with the outcome pinned identical at 1, 2 and 8 lanes.
fn check(g: &Graph<bool>, sources: &[u32], opts: &MsBfsOpts) -> Outcome {
    let reference = rayon::with_num_threads(1, || run_case(g, sources, opts));
    check_against_solo(g, sources, opts, &reference);
    for lanes in LANES {
        let got = rayon::with_num_threads(lanes, || run_case(g, sources, opts));
        assert_eq!(got, reference, "diverged at {lanes} lanes");
    }
    reference
}

/// `k` deterministic, spread-out sources over `n` vertices.
fn spread(n: usize, k: usize) -> Vec<u32> {
    (0..k).map(|i| ((i * 7919 + 13) % n) as u32).collect()
}

/// Two copies of a small scale-free graph side by side, plus 8 isolated
/// vertices at the end.
fn two_components() -> Graph<bool> {
    let a = rmat(8, 6, RmatParams::default(), 3);
    let n = a.n_vertices();
    let mut coo = Coo::new(2 * n + 8, 2 * n + 8);
    for u in 0..n as u32 {
        for &v in a.children(u) {
            coo.push(u, v, true);
            coo.push(u + n as u32, v + n as u32, true);
        }
    }
    Graph::from_coo(&coo)
}

/// Each undirected edge of a scale-free graph kept one way only.
fn directed() -> Graph<bool> {
    let a = rmat(9, 8, RmatParams::default(), 21);
    let mut coo = Coo::new(a.n_vertices(), a.n_vertices());
    for u in 0..a.n_vertices() as u32 {
        for &v in a.children(u) {
            if (u ^ v) & 1 == u32::from(u < v) {
                coo.push(u, v, true);
            }
        }
    }
    Graph::from_coo(&coo)
}

#[test]
fn msbfs_lane_groups_at_boundaries_match_solo() {
    let g = rmat(9, 8, RmatParams::default(), 5);
    for k in [2usize, 63, 64, 65, 130] {
        check(&g, &spread(g.n_vertices(), k), &MsBfsOpts::default());
    }
}

#[test]
fn msbfs_duplicate_and_isolated_sources_match_solo() {
    let g = two_components();
    let n = g.n_vertices() as u32;
    // Duplicates of one source, isolated vertices, and both together.
    let sources = [5u32, 5, n - 1, 5, n - 2, n - 1, 40, 40];
    let out = check(&g, &sources, &MsBfsOpts::default());
    assert_eq!(out.depths[0], out.depths[1]);
    assert_eq!(out.levels[2], 1, "an isolated source finishes at level 1");
}

#[test]
fn msbfs_sources_in_different_components_match_solo() {
    let g = two_components();
    let half = (g.n_vertices() - 8) / 2;
    let sources: Vec<u32> = (0..12)
        .map(|i| (i * 37 % half + (i % 2) * half) as u32)
        .collect();
    check(&g, &sources, &MsBfsOpts::default());
}

#[test]
fn msbfs_directed_graph_matches_solo() {
    let g = directed();
    check(&g, &spread(g.n_vertices(), 20), &MsBfsOpts::default());
}

#[test]
fn msbfs_forced_push_and_pull_match_solo() {
    let g = rmat(9, 10, RmatParams::default(), 4);
    let sources = spread(g.n_vertices(), 17);
    for d in [Direction::Push, Direction::Pull] {
        let opts = MsBfsOpts {
            force: Some(d),
            ..MsBfsOpts::default()
        };
        let out = check(&g, &sources, &opts);
        let levels: u64 = out.levels.iter().map(|&l| l as u64).sum();
        let (push, pull) = steps(&sum(&out.bills));
        let want = if d == Direction::Push {
            (levels, 0)
        } else {
            (0, levels)
        };
        assert_eq!((push, pull), want, "{d:?}: every level on the forced face");
    }
}

#[test]
fn msbfs_edge_rule_lanes_match_solo_at_1_2_and_4_lanes() {
    // rmat(12, 16) from source 31 pulls its level-2 hub burst while the
    // frontier holds 16 of 4,096 vertices; the other sources reach their
    // bursts at other levels and sizes. Each lane prices its own frontier
    // edges and unvisited count, so its steps equal its solo run's.
    let g = rmat(12, 16, RmatParams::default(), 4);
    let mut sources = spread(g.n_vertices(), 11);
    sources.push(31);
    let opts = MsBfsOpts::default();
    let out = check(&g, &sources, &opts);
    let at4 = rayon::with_num_threads(4, || run_case(&g, &sources, &opts));
    assert_eq!(at4, out, "diverged at 4 lanes");
    let solo = bfs_with_opts(&g, 31, &opts.solo().traced(), None);
    assert_eq!(solo.trace[1].direction, Direction::Pull, "the burst pulls");
    let (push, pull) = steps(&sum(&out.bills));
    assert!(push > 0 && pull > 0, "lanes push and pull: {push} / {pull}");
}

#[test]
fn msbfs_parent_lanes_match_solo_parents() {
    for (g, k) in [
        (rmat(9, 8, RmatParams::default(), 9), 65usize),
        (directed(), 10),
    ] {
        let sources = spread(g.n_vertices(), k);
        let opts = ParentBfsOpts::default();
        let run = || {
            let cs: Vec<AccessCounters> = sources.iter().map(|_| AccessCounters::new()).collect();
            let entries: Vec<BatchEntry<'_>> = sources
                .iter()
                .zip(&cs)
                .map(|(&s, c)| BatchEntry::new(s, c))
                .collect();
            let rs: Vec<_> = bfs_parents_entries(&g, &entries, &opts, None)
                .into_iter()
                .map(|r| r.expect("unlimited entries complete"))
                .collect();
            (
                rs,
                cs.iter().map(AccessCounters::snapshot).collect::<Vec<_>>(),
            )
        };
        let (rs, bills) = rayon::with_num_threads(1, run);
        for group in 0..k.div_ceil(MAX_LANES) {
            let (mut group_matrix, mut solo_matrix) = (0u64, 0u64);
            for i in group * MAX_LANES..((group + 1) * MAX_LANES).min(k) {
                let s = sources[i];
                let c = AccessCounters::new();
                let solo = bfs_parents_with_opts(&g, s, &opts, Some(&c));
                assert_eq!(rs[i].parent, solo.parent, "source {s} parents");
                assert_eq!(rs[i].levels, solo.levels, "source {s} levels");
                assert!(verify_parents(&g, s, &rs[i].parent), "source {s} tree");
                assert_eq!(steps(&bills[i]), steps(&c.snapshot()), "source {s} steps");
                group_matrix += bills[i].matrix;
                solo_matrix += c.snapshot().matrix;
            }
            assert!(
                group_matrix <= solo_matrix,
                "{group_matrix} > {solo_matrix}"
            );
        }
        for lanes in LANES {
            let got = rayon::with_num_threads(lanes, run);
            assert_eq!(
                got,
                (rs.clone(), bills.clone()),
                "diverged at {lanes} lanes"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random graphs (Erdős–Rényi, power-law, or one-way edges), random
    /// source sets across the group boundary, optionally forced: the
    /// value, step and matrix rules hold for every source.
    #[test]
    fn msbfs_lanes_match_solo_on_random_graphs(
        seed in 0u64..5_000,
        family in 0u8..3,
        n_raw in 24usize..160,
        k in 2usize..72,
        force in 0u8..3,
    ) {
        let g = match family {
            0 => erdos_renyi(n_raw, n_raw * 3, seed),
            1 => chung_lu(n_raw, 5, PowerLawParams::default(), seed),
            _ => {
                let a = erdos_renyi(n_raw, n_raw * 3, seed);
                let mut coo = Coo::new(a.n_vertices(), a.n_vertices());
                for u in 0..a.n_vertices() as u32 {
                    for &v in a.children(u) {
                        if u < v {
                            coo.push(u, v, true);
                        }
                    }
                }
                Graph::from_coo(&coo)
            }
        };
        let n = g.n_vertices();
        let sources: Vec<u32> = (0..k)
            .map(|i| ((seed as usize).wrapping_mul(31).wrapping_add(i * 17) % n) as u32)
            .collect();
        let opts = MsBfsOpts {
            force: [None, Some(Direction::Push), Some(Direction::Pull)][force as usize],
            ..MsBfsOpts::default()
        };
        let out = run_case(&g, &sources, &opts);
        check_against_solo(&g, &sources, &opts, &out);
    }
}
