//! Property-based tests at the algorithm layer: on arbitrary graphs, every
//! optimization configuration of the GraphBLAS BFS, every comparator
//! engine, and each §5.6 algorithm must agree with its serial oracle.

use proptest::prelude::*;
use push_pull::algo::bfs::{bfs_with_opts, BfsOpts};
use push_pull::algo::cc::{cc_oracle, connected_components};
use push_pull::algo::mis::{maximal_independent_set, verify_mis};
use push_pull::algo::sssp::{dijkstra_oracle, sssp, SsspOpts};
use push_pull::algo::tricount::{triangle_count, triangle_oracle};
use push_pull::baselines::textbook::bfs_serial;
use push_pull::core::Direction;
use push_pull::matrix::{Coo, Graph};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bfs_matches_oracle_on_arbitrary_directed_graphs(
        g in arb_directed(60, 400),
        source_raw in 0usize..60,
        bits in 0u32..32,
        forced in prop::sample::select(vec![None, Some(Direction::Push), Some(Direction::Pull)]),
    ) {
        let source = (source_raw % g.n_vertices()) as u32;
        let opts = BfsOpts {
            change_of_direction: bits & 1 != 0,
            masking: bits & 2 != 0,
            early_exit: bits & 4 != 0,
            operand_reuse: bits & 8 != 0,
            structure_only: bits & 16 != 0,
            force: forced,
            ..BfsOpts::baseline()
        };
        let got = bfs_with_opts(&g, source, &opts, None);
        prop_assert_eq!(got.depths, bfs_serial(&g, source));
    }

    #[test]
    fn every_engine_matches_oracle(
        g in arb_undirected(50, 300),
        source_raw in 0usize..50,
    ) {
        let source = (source_raw % g.n_vertices()) as u32;
        let oracle = bfs_serial(&g, source);
        for engine in push_pull::baselines::all_engines() {
            let got = engine.bfs(&g, source);
            prop_assert_eq!(&got, &oracle, "engine {}", engine.name());
        }
    }

    #[test]
    fn sssp_matches_dijkstra(
        edges in prop::collection::vec((0usize..40, 0usize..40, 1u32..20), 0..250),
        source_raw in 0usize..40,
    ) {
        let dim = 40;
        let mut coo = Coo::new(dim, dim);
        for &(u, v, w) in &edges {
            if u != v {
                coo.push(u as u32, v as u32, w as f32);
            }
        }
        coo.dedup(|a, _| a);
        let g = Graph::from_coo(&coo);
        let source = (source_raw % dim) as u32;
        let got = sssp(&g, source, &SsspOpts::default());
        let expect = dijkstra_oracle(&g, source);
        for (i, (&got_d, &exp_d)) in got.dist.iter().zip(expect.iter()).enumerate() {
            if exp_d.is_infinite() {
                prop_assert!(got_d.is_infinite(), "vertex {}", i);
            } else {
                prop_assert!((got_d - exp_d).abs() < 1e-3, "vertex {}: {} vs {}", i, got_d, exp_d);
            }
        }
    }

    #[test]
    fn cc_matches_union_find(g in arb_undirected(80, 200)) {
        let r = connected_components(&g, 0.01);
        prop_assert_eq!(r.labels, cc_oracle(&g));
    }

    #[test]
    fn mis_always_valid(g in arb_undirected(60, 300), seed in 0u64..1000) {
        let r = maximal_independent_set(&g, seed);
        prop_assert!(verify_mis(&g, &r.in_set));
    }

    #[test]
    fn tricount_matches_bruteforce(g in arb_undirected(40, 250)) {
        prop_assert_eq!(triangle_count(&g), triangle_oracle(&g));
    }

    #[test]
    fn parent_bfs_always_yields_valid_tree(
        g in arb_undirected(50, 300),
        source_raw in 0usize..50,
        force in prop::sample::select(vec![None, Some(Direction::Push), Some(Direction::Pull)]),
    ) {
        use push_pull::algo::bfs_parents::{bfs_parents_with_opts, verify_parents, ParentBfsOpts};
        let source = (source_raw % g.n_vertices()) as u32;
        let opts = ParentBfsOpts { force, ..ParentBfsOpts::default() };
        let r = bfs_parents_with_opts(&g, source, &opts, None);
        prop_assert!(verify_parents(&g, source, &r.parent));
    }

    #[test]
    fn ktruss_is_nested_and_valid(g in arb_undirected(30, 200)) {
        use push_pull::algo::ktruss::{ktruss, verify_ktruss};
        let t3 = ktruss(&g, 3);
        let t4 = ktruss(&g, 4);
        prop_assert!(verify_ktruss(&t3.truss, 3));
        prop_assert!(verify_ktruss(&t4.truss, 4));
        prop_assert!(t4.truss.nnz() <= t3.truss.nnz());
    }

    #[test]
    fn betweenness_matches_brandes(
        g in arb_undirected(30, 150),
        source_raw in 0usize..30,
    ) {
        use push_pull::algo::bc::{betweenness, brandes_oracle};
        let s = (source_raw % g.n_vertices()) as u32;
        let got = betweenness(&g, &[s]);
        let expect = brandes_oracle(&g, &[s]);
        for (i, (&a, &b)) in got.iter().zip(expect.iter()).enumerate() {
            prop_assert!((a - b).abs() < 1e-6, "vertex {}: {} vs {}", i, a, b);
        }
    }
}
