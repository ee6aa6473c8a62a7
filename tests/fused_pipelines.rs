//! The fused-pipeline equivalence contract: every algorithm rewritten on
//! `FusedMxv` must produce **bit-identical results and access counters**
//! against its unfused separate-operation composition — on arbitrary
//! graphs, under every direction regime, and at 1, 2, and 8 worker lanes.
//! Parent BFS's counters differ by exactly the reads its fused pull's
//! first-hit exit saves.

use proptest::prelude::*;
use push_pull::algo::bfs::{bfs_with_opts, BfsOpts};
use push_pull::algo::bfs_parents::{bfs_parents_with_opts, ParentBfsOpts};
use push_pull::algo::cc::{connected_components_with_opts, CcOpts};
use push_pull::algo::pagerank::{pagerank_with_counters, PageRankOpts};
use push_pull::algo::sssp::{sssp_with_counters, SsspOpts};
use push_pull::core::Direction;
use push_pull::gen::rmat::{rmat, RmatParams};
use push_pull::gen::with_uniform_weights;
use push_pull::matrix::{Coo, Graph};
use push_pull::primitives::counters::{AccessCounters, CounterSnapshot};

const LANES: [usize; 3] = [1, 2, 8];

/// The reads a fused parent BFS's first-hit exit saved against its unfused
/// composition, which reduces every row in full. The exit skips the rest of
/// a pull row, one matrix and one vector read per skipped entry, and moves
/// no other counter.
fn first_hit_savings(fused: &CounterSnapshot, unfused: &CounterSnapshot) -> u64 {
    let saved = unfused
        .matrix
        .checked_sub(fused.matrix)
        .expect("the first-hit exit never reads more");
    let restored = CounterSnapshot {
        matrix: fused.matrix + saved,
        vector: fused.vector + saved,
        ..*fused
    };
    assert_eq!(
        &restored, unfused,
        "only matrix and vector reads move, equally"
    );
    saved
}

fn arb_undirected(n: usize, max_edges: usize) -> impl Strategy<Value = Graph<bool>> {
    (
        2..n,
        prop::collection::vec((0usize..n, 0usize..n), 0..max_edges),
    )
        .prop_map(move |(dim, edges)| {
            let mut coo = Coo::new(dim, dim);
            for (u, v) in edges {
                if u < dim && v < dim {
                    coo.push(u as u32, v as u32, true);
                }
            }
            coo.clean_undirected();
            Graph::from_coo(&coo)
        })
}

fn arb_directed(n: usize, max_edges: usize) -> impl Strategy<Value = Graph<bool>> {
    (
        2..n,
        prop::collection::vec((0usize..n, 0usize..n), 0..max_edges),
    )
        .prop_map(move |(dim, edges)| {
            let mut coo = Coo::new(dim, dim);
            for (u, v) in edges {
                if u < dim && v < dim && u != v {
                    coo.push(u as u32, v as u32, true);
                }
            }
            coo.dedup(|a, _| a);
            Graph::from_coo(&coo)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bfs_fused_equals_unfused(
        g in arb_directed(60, 400),
        source_raw in 0usize..60,
        bits in 0u32..32,
        forced in prop::sample::select(vec![None, Some(Direction::Push), Some(Direction::Pull)]),
    ) {
        let source = (source_raw % g.n_vertices()) as u32;
        let base = BfsOpts {
            change_of_direction: bits & 1 != 0,
            masking: bits & 2 != 0,
            early_exit: bits & 4 != 0,
            operand_reuse: bits & 8 != 0,
            structure_only: bits & 16 != 0,
            force: forced,
            ..BfsOpts::default()
        };
        let cu = AccessCounters::new();
        let unfused = bfs_with_opts(&g, source, &base.fused(false), Some(&cu));
        let cf = AccessCounters::new();
        let fused = bfs_with_opts(&g, source, &base.fused(true), Some(&cf));
        prop_assert_eq!(&fused.depths, &unfused.depths, "depths, bits {:05b}", bits);
        prop_assert_eq!(fused.levels, unfused.levels);
        prop_assert_eq!(cf.snapshot(), cu.snapshot(), "counters, bits {:05b}", bits);
    }

    #[test]
    fn parent_bfs_fused_equals_unfused(
        g in arb_undirected(60, 300),
        source_raw in 0usize..60,
        force in prop::sample::select(vec![None, Some(Direction::Push), Some(Direction::Pull)]),
    ) {
        let source = (source_raw % g.n_vertices()) as u32;
        let cu = AccessCounters::new();
        let unfused_opts = ParentBfsOpts { force, fused: false, ..ParentBfsOpts::default() };
        let unfused = bfs_parents_with_opts(&g, source, &unfused_opts, Some(&cu));
        let cf = AccessCounters::new();
        let fused_opts = ParentBfsOpts { fused: true, ..unfused_opts };
        let fused = bfs_parents_with_opts(&g, source, &fused_opts, Some(&cf));
        prop_assert_eq!(&fused.parent, &unfused.parent);
        prop_assert_eq!(fused.levels, unfused.levels);
        // Only the first-hit exit's savings differ, and a push has no rows
        // to cut short.
        let saved = first_hit_savings(&cf.snapshot(), &cu.snapshot());
        if force == Some(Direction::Push) {
            prop_assert_eq!(saved, 0);
        }
    }

    #[test]
    fn cc_fused_equals_unfused(
        g in arb_undirected(80, 300),
        threshold in prop::sample::select(vec![0.0, 0.01, 0.5]),
    ) {
        let cu = AccessCounters::new();
        let unfused = connected_components_with_opts(
            &g, &CcOpts { switch_threshold: threshold, fused: false, ..CcOpts::default() }, Some(&cu));
        let cf = AccessCounters::new();
        let fused = connected_components_with_opts(
            &g, &CcOpts { switch_threshold: threshold, fused: true, ..CcOpts::default() }, Some(&cf));
        prop_assert_eq!(&fused.labels, &unfused.labels);
        prop_assert_eq!(fused.rounds, unfused.rounds);
        prop_assert_eq!(cf.snapshot(), cu.snapshot());
    }

    #[test]
    fn sssp_fused_equals_unfused(
        g in arb_undirected(60, 300),
        source_raw in 0usize..60,
        seed in 0u64..32,
    ) {
        let gw = with_uniform_weights(&g, seed);
        let source = (source_raw % gw.n_vertices()) as u32;
        let cu = AccessCounters::new();
        let unfused = sssp_with_counters(
            &gw, source, &SsspOpts { fused: false, ..SsspOpts::default() }, Some(&cu));
        let cf = AccessCounters::new();
        let fused = sssp_with_counters(&gw, source, &SsspOpts::default(), Some(&cf));
        // f32 distances must match bit-for-bit, not approximately.
        prop_assert_eq!(
            unfused.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            fused.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>()
        );
        prop_assert_eq!(fused.rounds, unfused.rounds);
        prop_assert_eq!(fused.pull_rounds, unfused.pull_rounds);
        prop_assert_eq!(cf.snapshot(), cu.snapshot());
    }

    #[test]
    fn pagerank_fused_equals_unfused(
        g in arb_directed(60, 400),
        adaptive in prop::sample::select(vec![false, true]),
    ) {
        let cu = AccessCounters::new();
        let unfused = pagerank_with_counters(
            &g, &PageRankOpts { fused: false, ..PageRankOpts::default() }, adaptive, Some(&cu));
        let cf = AccessCounters::new();
        let fused = pagerank_with_counters(&g, &PageRankOpts::default(), adaptive, Some(&cf));
        // f64 ranks must match bit-for-bit: same reduction order, same
        // apply arithmetic, same L1 accumulation grouping.
        prop_assert_eq!(
            unfused.ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            fused.ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>()
        );
        prop_assert_eq!(fused.iters, unfused.iters);
        prop_assert_eq!(fused.row_updates, unfused.row_updates);
        prop_assert_eq!(cf.snapshot(), cu.snapshot());
    }
}

/// The acceptance pin: fused BFS and parent BFS against their unfused
/// compositions at 1, 2, and 8 lanes — values and counters, which for
/// parent BFS differ only by the reads its first-hit exit saves — on a
/// scale-free graph large enough to cross the push→pull switch.
#[test]
fn bfs_and_parents_fused_identical_at_1_2_8_lanes() {
    let g = rmat(12, 16, RmatParams::default(), 11);
    let unfused_bfs = rayon::with_num_threads(1, || {
        let c = AccessCounters::new();
        let r = bfs_with_opts(&g, 0, &BfsOpts::default().fused(false), Some(&c));
        (r.depths, c.snapshot())
    });
    let unfused_parents = rayon::with_num_threads(1, || {
        let c = AccessCounters::new();
        let opts = ParentBfsOpts {
            fused: false,
            ..ParentBfsOpts::default()
        };
        let r = bfs_parents_with_opts(&g, 0, &opts, Some(&c));
        (r.parent, c.snapshot())
    });
    let mut saved = None;
    for lanes in LANES {
        let fused_bfs = rayon::with_num_threads(lanes, || {
            let c = AccessCounters::new();
            let r = bfs_with_opts(&g, 0, &BfsOpts::default(), Some(&c));
            (r.depths, c.snapshot())
        });
        assert_eq!(fused_bfs.0, unfused_bfs.0, "BFS depths at {lanes} lanes");
        assert_eq!(fused_bfs.1, unfused_bfs.1, "BFS counters at {lanes} lanes");

        let fused_parents = rayon::with_num_threads(lanes, || {
            let c = AccessCounters::new();
            let r = bfs_parents_with_opts(&g, 0, &ParentBfsOpts::default(), Some(&c));
            (r.parent, c.snapshot())
        });
        assert_eq!(
            fused_parents.0, unfused_parents.0,
            "parents at {lanes} lanes"
        );
        // The saving itself is identical at every lane count.
        let s = first_hit_savings(&fused_parents.1, &unfused_parents.1);
        assert_eq!(*saved.get_or_insert(s), s, "savings at {lanes} lanes");
    }
    assert!(
        saved.is_some_and(|s| s > 0),
        "the pull levels stop at first hits"
    );
}

/// Fused and unfused runs agree on the sssp/cc/pagerank trio at every lane
/// count too (single spot-graph; the proptests cover shape diversity).
#[test]
fn relaxation_algorithms_fused_identical_at_1_2_8_lanes() {
    let g = rmat(10, 16, RmatParams::default(), 3);
    let gw = with_uniform_weights(&g, 5);
    let reference = rayon::with_num_threads(1, || {
        let cc = connected_components_with_opts(
            &g,
            &CcOpts {
                fused: false,
                ..CcOpts::default()
            },
            None,
        );
        let ss = sssp_with_counters(
            &gw,
            0,
            &SsspOpts {
                fused: false,
                ..SsspOpts::default()
            },
            None,
        );
        let pr = pagerank_with_counters(
            &g,
            &PageRankOpts {
                fused: false,
                ..PageRankOpts::default()
            },
            true,
            None,
        );
        (
            cc.labels,
            ss.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            pr.ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
        )
    });
    for lanes in LANES {
        let got = rayon::with_num_threads(lanes, || {
            let cc = connected_components_with_opts(&g, &CcOpts::default(), None);
            let ss = sssp_with_counters(&gw, 0, &SsspOpts::default(), None);
            let pr = pagerank_with_counters(&g, &PageRankOpts::default(), true, None);
            (
                cc.labels,
                ss.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                pr.ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            )
        });
        assert_eq!(got, reference, "diverged at {lanes} lanes");
    }
}
