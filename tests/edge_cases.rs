//! Edge-case and failure-injection tests: degenerate graphs, pathological
//! shapes (stars, supervertices, disconnected dust), boundary masks, and
//! the error paths of the public API.

use push_pull::algo::bfs::{bfs, bfs_with_opts, BfsOpts, UNREACHED as UNREACHED_BFS};
use push_pull::algo::cc::{
    cc_oracle, connected_components, connected_components_with_opts, CcOpts,
};
use push_pull::algo::msbfs::{multi_source_bfs, multi_source_bfs_with_opts, MsBfsOpts, UNREACHED};
use push_pull::algo::pagerank::{pagerank, PageRankOpts};
use push_pull::algo::sssp::{sssp, SsspOpts};
use push_pull::algo::tricount::triangle_count;
use push_pull::baselines::textbook::bfs_serial;
use push_pull::core::descriptor::{Descriptor, Direction};
use push_pull::core::error::GrbError;
use push_pull::core::ops::{BoolOrAnd, BoolStructure, MinSecond, PlusTimes, Scalar, Semiring};
use push_pull::core::{mxv, mxv_batch, FusedMxv, Mask, Vector};
use push_pull::matrix::{Coo, Csr, Graph};
use push_pull::primitives::counters::AccessCounters;
use push_pull::primitives::BitVec;

fn edgeless(n: usize) -> Graph<bool> {
    Graph::from_coo(&Coo::<bool>::new(n, n))
}

fn star(n: usize) -> Graph<bool> {
    let mut coo = Coo::new(n, n);
    for leaf in 1..n as u32 {
        coo.push(0, leaf, true);
    }
    coo.clean_undirected();
    Graph::from_coo(&coo)
}

#[test]
fn bfs_on_edgeless_graph_touches_only_source() {
    let g = edgeless(100);
    for (_, opts) in BfsOpts::ladder() {
        let r = bfs_with_opts(&g, 42, &opts, None);
        assert_eq!(r.reached(), 1);
        assert_eq!(r.depths[42], 0);
    }
}

#[test]
fn single_vertex_graph_works_everywhere() {
    let g = edgeless(1);
    assert_eq!(bfs(&g, 0).depths, vec![0]);
    let labels = connected_components(&g, 0.01).labels;
    assert_eq!(labels, vec![0]);
    assert_eq!(triangle_count(&g), 0);
    let pr = pagerank(&g, &PageRankOpts::default());
    assert!((pr.ranks[0] - 1.0).abs() < 1e-9);
}

#[test]
fn star_graph_pull_handles_supervertex_row() {
    // The center's pull row has n−1 parents; every optimization combo must
    // survive the extreme-degree row.
    let g = star(5000);
    let expect = bfs_serial(&g, 1); // a leaf: depth 0, center 1, others 2
    for dir in [Direction::Push, Direction::Pull] {
        let r = bfs_with_opts(&g, 1, &BfsOpts::default().forced(dir), None);
        assert_eq!(r.depths, expect, "{dir:?}");
    }
    assert_eq!(expect[0], 1);
    assert_eq!(expect[4999], 2);
}

#[test]
fn all_engines_survive_isolated_source() {
    let mut coo = Coo::new(10, 10);
    coo.push(1, 2, true);
    coo.clean_undirected();
    let g = Graph::from_coo(&coo);
    for engine in push_pull::baselines::all_engines() {
        let d = engine.bfs(&g, 0);
        assert_eq!(d[0], 0, "{}", engine.name());
        assert_eq!(
            d.iter().filter(|&&x| x >= 0).count(),
            1,
            "{}",
            engine.name()
        );
    }
}

#[test]
fn mxv_rejects_dimension_mismatches() {
    let g = star(8);
    let wrong = Vector::<bool>::new_sparse(5, false);
    let r: Result<Vector<bool>, _> = mxv(None, BoolOrAnd, &g, &wrong, &Descriptor::new(), None);
    assert!(matches!(r, Err(GrbError::DimensionMismatch { .. })));

    let ok_vec = Vector::<bool>::new_sparse(8, false);
    let wrong_bits = BitVec::new(3);
    let wrong_mask = Mask::new(&wrong_bits);
    let r: Result<Vector<bool>, _> = mxv(
        Some(&wrong_mask),
        BoolOrAnd,
        &g,
        &ok_vec,
        &Descriptor::new(),
        None,
    );
    assert!(matches!(r, Err(GrbError::DimensionMismatch { .. })));
}

/// Forced push and forced pull of one `mxv` over `A` (no transpose): the
/// push output must come out ascending and equal the pull's.
fn push_equals_pull<A, X, Y, S>(s: S, g: &Graph<A>, f: &Vector<X>, mask: Option<&Mask<'_>>)
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
{
    let run = |d: Direction| -> Vec<(u32, Y)> {
        let desc = Descriptor::new().force(d);
        let w: Vector<Y> = mxv(mask, s, g, f, &desc, None).unwrap();
        w.iter_explicit().collect()
    };
    let push = run(Direction::Push);
    assert!(
        push.windows(2).all(|w| w[0].0 < w[1].0),
        "push output ascending"
    );
    assert_eq!(push, run(Direction::Pull), "push equals pull");
}

#[test]
fn push_on_a_non_square_operand_matches_pull() {
    // A is 3,000 × 3: a push walks the three rows of Aᵀ and emits output
    // ids up to 2,999, so its sort keys and claim set span the output
    // dimension, not the input's. The 6,000 expanded products exceed the
    // radix sort's comparison-sort cutoff (4,096 keys), so the valued
    // pushes run the radix passes.
    let (rows, cols) = (3000usize, 3usize);
    let mut pattern = Coo::new(rows, cols);
    let mut weighted = Coo::new(rows, cols);
    for i in 0..rows as u32 {
        for j in 0..cols as u32 {
            if (i + j) % 3 != 0 {
                pattern.push(i, j, true);
                weighted.push(i, j, f64::from(i % 7 + j));
            }
        }
    }
    let g = Graph::from_coo(&pattern);
    let gw = Graph::from_coo(&weighted);
    let mut blocked = BitVec::new(rows);
    for i in (0..rows).step_by(5) {
        blocked.set(i);
    }
    let mask = Mask::complement(&blocked);
    let f = Vector::from_sparse(cols, false, vec![0, 1, 2], vec![true; 3]);
    for m in [None, Some(&mask)] {
        push_equals_pull(BoolOrAnd, &g, &f, m);
        push_equals_pull(BoolStructure, &g, &f, m);
    }
    let fw = Vector::from_sparse(cols, 0.0, vec![0, 1, 2], vec![1.5, 2.0, 0.5]);
    push_equals_pull(PlusTimes, &gw, &fw, None);
}

#[test]
fn all_ones_mask_equals_no_mask() {
    let g = star(50);
    let f = Vector::from_sparse(50, false, vec![0], vec![true]);
    let mut bits = BitVec::new(50);
    for i in 0..50 {
        bits.set(i);
    }
    let mask = Mask::new(&bits);
    let desc = Descriptor::new().transpose(true).force(Direction::Push);
    let masked: Vector<bool> = mxv(Some(&mask), BoolOrAnd, &g, &f, &desc, None).unwrap();
    let unmasked: Vector<bool> = mxv(None, BoolOrAnd, &g, &f, &desc, None).unwrap();
    let a: Vec<_> = masked.iter_explicit().collect();
    let b: Vec<_> = unmasked.iter_explicit().collect();
    assert_eq!(a, b);
}

#[test]
fn all_zeros_mask_blocks_everything() {
    let g = star(50);
    let f = Vector::from_sparse(50, false, vec![0], vec![true]);
    let bits = BitVec::new(50); // nothing set
    let mask = Mask::new(&bits);
    for dir in [Direction::Push, Direction::Pull] {
        let desc = Descriptor::new().transpose(true).force(dir);
        let out: Vector<bool> = mxv(Some(&mask), BoolOrAnd, &g, &f, &desc, None).unwrap();
        assert_eq!(out.nnz(), 0, "{dir:?}");
    }
}

#[test]
fn directed_asymmetry_respected_in_both_directions() {
    // Edge 0→1 only. Frontier {1} must discover nothing through Aᵀ's
    // columns; frontier {0} discovers 1.
    let mut coo = Coo::new(3, 3);
    coo.push(0, 1, true);
    let g = Graph::from_coo(&coo);
    for dir in [Direction::Push, Direction::Pull] {
        let desc = Descriptor::new().transpose(true).force(dir);
        let from1: Vector<bool> = mxv(
            None,
            BoolOrAnd,
            &g,
            &Vector::singleton(3, false, 1, true),
            &desc,
            None,
        )
        .unwrap();
        assert_eq!(from1.nnz(), 0, "{dir:?}: 1 has no out-edges");
        let from0: Vector<bool> = mxv(
            None,
            BoolOrAnd,
            &g,
            &Vector::singleton(3, false, 0, true),
            &desc,
            None,
        )
        .unwrap();
        let hits: Vec<u32> = from0.iter_explicit().map(|(i, _)| i).collect();
        assert_eq!(hits, vec![1], "{dir:?}");
    }
}

#[test]
fn sssp_zero_round_cap_returns_initial_state() {
    let mut coo = Coo::new(3, 3);
    coo.push(0, 1, 1.0f32);
    let g = Graph::from_coo(&coo);
    let r = sssp(
        &g,
        0,
        &SsspOpts {
            max_rounds: Some(0),
            ..SsspOpts::default()
        },
    );
    assert_eq!(r.dist[0], 0.0);
    assert_eq!(r.dist[1], f32::INFINITY, "no rounds ⇒ no relaxations");
}

#[test]
fn cc_on_dust_is_identity_labeling() {
    let g = edgeless(64);
    let r = connected_components(&g, 0.01);
    let expect: Vec<u32> = (0..64).collect();
    assert_eq!(r.labels, expect);
    assert_eq!(r.labels, cc_oracle(&g));
}

#[test]
fn hysteresis_is_stable_on_empty_and_full_frontiers() {
    use push_pull::core::DirectionPolicy;
    // The §6.3 switch at the frontier extremes: an empty frontier stays
    // push, a full one switches to pull…
    let mut empty = DirectionPolicy::hysteresis(0.01);
    assert_eq!(empty.update(0, 100), Direction::Push, "empty stays push");
    let mut full = DirectionPolicy::hysteresis(0.01);
    assert_eq!(
        full.update(100, 100),
        Direction::Pull,
        "full frontier pulls"
    );
    // …and unchanged activity must not flap back.
    assert_eq!(full.update(100, 100), Direction::Pull);
}

#[test]
fn csr_rejects_malformed_parts() {
    let bad = std::panic::catch_unwind(|| {
        // row_ptr length must be n_rows + 1.
        Csr::from_parts(2, 2, vec![0, 1], vec![0], vec![true])
    });
    assert!(bad.is_err());
    let bad = std::panic::catch_unwind(|| {
        // col_ind length must equal the trailing row_ptr total.
        Csr::from_parts(1, 2, vec![0, 2], vec![0], vec![true])
    });
    assert!(bad.is_err());
}

#[test]
fn msbfs_duplicate_sources_get_identical_rows() {
    let g = star(64);
    let sources = [3u32, 3, 3, 0];
    let r = multi_source_bfs(&g, &sources);
    assert_eq!(r.depths[0], r.depths[1]);
    assert_eq!(r.depths[1], r.depths[2]);
    assert_eq!(r.depths[0], bfs_serial(&g, 3));
    assert_eq!(r.depths[3], bfs_serial(&g, 0));
}

#[test]
fn msbfs_k1_degenerates_to_single_source_bfs() {
    let g = star(200);
    for src in [0u32, 1, 199] {
        let batch = multi_source_bfs(&g, &[src]);
        let single = bfs(&g, src);
        assert_eq!(batch.depths[0], single.depths, "source {src}");
        assert_eq!(batch.levels, single.levels, "source {src}");
    }
}

#[test]
fn msbfs_isolated_and_out_of_component_vertices() {
    // Two components {1,2} and {4,5,6}; 0 and 3 isolated. Sources across
    // all three situations in one batch.
    let mut coo = Coo::new(8, 8);
    for &(u, v) in &[(1u32, 2u32), (4, 5), (5, 6)] {
        coo.push(u, v, true);
    }
    coo.clean_undirected();
    let g = Graph::from_coo(&coo);
    let sources = [0u32, 1, 4];
    let r = multi_source_bfs(&g, &sources);
    // Isolated source: only itself, depth 0, nothing else reached.
    assert_eq!(r.depths[0][0], 0);
    assert_eq!(r.depths[0].iter().filter(|&&d| d >= 0).count(), 1);
    // Component sources: the other component and the isolates stay
    // UNREACHED in that source's row.
    assert_eq!(&r.depths[1][1..3], &[0, 1]);
    for v in [0usize, 3, 4, 5, 6, 7] {
        assert_eq!(r.depths[1][v], UNREACHED, "vertex {v} outside component");
    }
    assert_eq!(r.depths[2][4], 0);
    assert_eq!(r.depths[2][5], 1);
    assert_eq!(r.depths[2][6], 2);
    assert_eq!(r.depths[2][1], UNREACHED);
}

#[test]
fn msbfs_empty_frontier_round_terminates_batch() {
    // Directed chain 0→1→2 plus a sink source: the sink's frontier
    // empties in round one while the chain keeps going; the batch must
    // retire the dead source and still finish the live one, under every
    // forced direction.
    let mut coo = Coo::new(4, 4);
    coo.push(0, 1, true);
    coo.push(1, 2, true);
    let g = Graph::from_coo(&coo);
    for force in [None, Some(Direction::Push), Some(Direction::Pull)] {
        let opts = MsBfsOpts {
            force,
            ..MsBfsOpts::default()
        };
        let r = multi_source_bfs_with_opts(&g, &[2, 0], &opts, None);
        assert_eq!(
            r.depths[0],
            vec![UNREACHED, UNREACHED, 0, UNREACHED],
            "{force:?}"
        );
        assert_eq!(r.depths[1], vec![0, 1, 2, UNREACHED], "{force:?}");
        assert_eq!(r.levels, 3, "{force:?}: two live rounds + the empty one");
    }
}

#[test]
fn self_loops_removed_before_traversal_cannot_resurface() {
    let mut coo = Coo::new(4, 4);
    coo.push(0, 0, true);
    coo.push(0, 1, true);
    coo.push(1, 1, true);
    coo.clean_undirected();
    let g = Graph::from_coo(&coo);
    assert_eq!(g.n_edges(), 2);
    let r = bfs(&g, 0);
    assert_eq!(r.depths, vec![0, 1, -1, -1]);
}

// ---------------------------------------------------------------------------
// Fused-pipeline edge cases
// ---------------------------------------------------------------------------

#[test]
fn fused_empty_frontier_assigns_nothing() {
    // A fused chain over an empty frontier must touch no state, charge no
    // matrix traffic, and save no writes on the push face.
    let g = star(16);
    let f = Vector::<bool>::new_sparse(16, false);
    let c = AccessCounters::new();
    let mut state = vec![-1i32; 16];
    let out = FusedMxv::new(BoolOrAnd, &g, &f)
        .descriptor(Descriptor::new().transpose(true).force(Direction::Push))
        .counters(Some(&c))
        .apply(|_: bool| 7i32)
        .assign_into(&mut state, |_, z| Some(z))
        .expect("dims fine");
    assert!(out.touched.is_empty());
    assert!(state.iter().all(|&x| x == -1));
    assert_eq!(c.snapshot().matrix, 0);
    assert_eq!(c.snapshot().fused_saved_writes, 0);
}

#[test]
fn fused_full_mask_blocks_every_assignment() {
    // A mask allowing nothing: no state slot may change, touched stays
    // empty, and the pull face charges nothing — the mask is charged one
    // access per allowed row, and none is allowed.
    let g = star(32);
    let mut f = Vector::from_sparse(32, false, vec![0], vec![true]);
    f.make_dense();
    let all = {
        let mut b = BitVec::new(32);
        for i in 0..32 {
            b.set(i);
        }
        b
    };
    let mask = Mask::complement(&all); // complement of everything = nothing
    let c = AccessCounters::new();
    let mut state = vec![-1i32; 32];
    let out = FusedMxv::new(BoolOrAnd, &g, &f)
        .mask(&mask)
        .descriptor(Descriptor::new().transpose(true).force(Direction::Pull))
        .counters(Some(&c))
        .apply(|_: bool| 1i32)
        .assign_into(&mut state, |_, z| Some(z))
        .expect("dims fine");
    assert!(out.touched.is_empty());
    assert!(state.iter().all(|&x| x == -1));
    assert_eq!(c.snapshot().mask, 0, "no allowed row, no mask charge");
    assert_eq!(c.snapshot().matrix, 0, "no allowed row touches the matrix");
}

/// A forced pull on a 64-vertex graph with one edge (almost every CSR row
/// empty) under `¬{0}` with the given active list, through `mxv` or
/// `mxv_batch`. The row kernels write each listed row's output slot
/// unchecked, so a bad list must be refused where it is attached — before
/// either call can run.
fn pull_with_active_list(list: &[u32], batched: bool) {
    let n = 64;
    let mut coo = Coo::new(n, n);
    coo.push(0, 1, true);
    let g = Graph::from_coo(&coo);
    let mut visited = BitVec::new(n);
    visited.set(0);
    let mut f = Vector::singleton(n, false, 0, true);
    f.make_dense();
    let desc = Descriptor::new().transpose(true).force(Direction::Pull);
    let mask = Mask::complement(&visited).with_active_list(list);
    if batched {
        let _: Vec<Vector<bool>> =
            mxv_batch(Some(&[mask]), BoolOrAnd, &g, &[f], &desc, None, None).unwrap();
    } else {
        let _: Vector<bool> = mxv(Some(&mask), BoolOrAnd, &g, &f, &desc, None).unwrap();
    }
}

#[test]
#[should_panic(expected = "strictly ascending")]
fn mxv_rejects_a_duplicated_active_list() {
    pull_with_active_list(&[1, 1], false);
}

#[test]
#[should_panic(expected = "out of range")]
fn mxv_rejects_an_out_of_range_active_list() {
    pull_with_active_list(&[1, 1 << 28], false);
}

#[test]
#[should_panic(expected = "strictly ascending")]
fn mxv_batch_rejects_a_duplicated_active_list() {
    pull_with_active_list(&[1, 1], true);
}

#[test]
#[should_panic(expected = "out of range")]
fn mxv_batch_rejects_an_out_of_range_active_list() {
    pull_with_active_list(&[1, 1 << 28], true);
}

#[test]
fn fused_first_hit_exit_on_star_graph_stops_at_one_parent() {
    // Star center pulled while every leaf is in the frontier: the full
    // reduction scans all n−1 parents, first-hit stops at leaf 1 — and
    // both give the identical min parent.
    let n = 4096;
    let g = star(n);
    let ids: Vec<u32> = (1..n as u32).collect();
    let mut f = Vector::from_sparse(n, u32::MAX, ids.clone(), ids);
    f.make_dense();
    let visited = {
        let mut b = BitVec::new(n);
        for i in 1..n {
            b.set(i);
        }
        b
    };
    let mask = Mask::complement(&visited);
    let run = |first_hit: bool| {
        let c = AccessCounters::new();
        let mut parent = vec![u32::MAX; n];
        let out = FusedMxv::new(MinSecond, &g, &f)
            .mask(&mask)
            .descriptor(Descriptor::new().transpose(true).force(Direction::Pull))
            .counters(Some(&c))
            .first_hit_exit(first_hit)
            .apply(|p: u32| p)
            .assign_into(&mut parent, |_, p| Some(p))
            .expect("dims fine");
        (out.touched, parent[0], c.snapshot().matrix)
    };
    let (t_full, p_full, m_full) = run(false);
    let (t_hit, p_hit, m_hit) = run(true);
    assert_eq!(t_full, vec![0]);
    assert_eq!(t_hit, t_full);
    assert_eq!(p_hit, p_full);
    assert_eq!(p_hit, 1, "minimum-id parent of the center");
    assert_eq!(m_full, (n - 1) as u64, "full reduction scans every parent");
    assert_eq!(m_hit, 1, "first-hit stops immediately");
}

#[test]
fn fused_algorithms_survive_self_loops() {
    // Self-loops kept in a *directed* graph (clean_undirected would drop
    // them): a fused traversal must not rediscover a vertex through its
    // own loop, and fused ≡ unfused throughout.
    let mut coo = Coo::new(5, 5);
    for &(u, v) in &[(0u32, 0u32), (0, 1), (1, 1), (1, 2), (3, 3)] {
        coo.push(u, v, true);
    }
    let g = Graph::from_coo(&coo);
    for dir in [None, Some(Direction::Push), Some(Direction::Pull)] {
        let base = BfsOpts {
            force: dir,
            ..BfsOpts::default()
        };
        let fused = bfs_with_opts(&g, 0, &base.fused(true), None);
        let unfused = bfs_with_opts(&g, 0, &base.fused(false), None);
        assert_eq!(fused.depths, unfused.depths, "{dir:?}");
        assert_eq!(fused.depths, vec![0, 1, 2, UNREACHED_BFS, UNREACHED_BFS]);
    }
    let fused_cc = connected_components_with_opts(&g, &CcOpts::default(), None);
    let unfused_cc = connected_components_with_opts(
        &g,
        &CcOpts {
            fused: false,
            ..CcOpts::default()
        },
        None,
    );
    assert_eq!(fused_cc.labels, unfused_cc.labels);
}

#[test]
fn fused_state_slice_dimension_mismatch_is_an_error() {
    let g = star(8);
    let f = Vector::from_sparse(8, false, vec![0], vec![true]);
    let mut short = vec![0i32; 4];
    let r = FusedMxv::new(BoolOrAnd, &g, &f)
        .descriptor(Descriptor::new().transpose(true))
        .apply(|_: bool| 1i32)
        .assign_into(&mut short, |_, z| Some(z));
    assert!(matches!(r, Err(GrbError::DimensionMismatch { .. })));
}
