//! Property-based tests for the GraphBLAS core: the central invariant is
//! the paper's §4 isomorphism — push (column kernel) and pull (row kernel)
//! compute the same masked matvec on arbitrary graphs, vectors, and masks,
//! under every optimization configuration.

use proptest::prelude::*;
use push_pull::algo::msbfs::multi_source_bfs_with_opts;
use push_pull::algo::msbfs::MsBfsOpts;
use push_pull::core::descriptor::{Descriptor, Direction};
use push_pull::core::ops::{BoolOrAnd, BoolStructure, MinPlus, Semiring};
use push_pull::core::vector_ops::{ewise_add, ewise_mult, filter_by_mask};
use push_pull::core::{mxv, mxv_batch, Mask, Vector};
use push_pull::gen::erdos::erdos_renyi;
use push_pull::gen::powerlaw::{chung_lu, PowerLawParams};
use push_pull::matrix::{Coo, Graph};
use push_pull::primitives::counters::AccessCounters;
use push_pull::primitives::BitVec;

/// Arbitrary directed Boolean graph with up to `n` vertices.
fn arb_graph(n: usize, max_edges: usize) -> impl Strategy<Value = Graph<bool>> {
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

fn sparse_bool_vector(dim: usize, ids: &[usize]) -> Vector<bool> {
    let mut sorted: Vec<u32> = ids
        .iter()
        .filter(|&&i| i < dim)
        .map(|&i| i as u32)
        .collect();
    sorted.sort_unstable();
    sorted.dedup();
    let k = sorted.len();
    Vector::from_sparse(dim, false, sorted, vec![true; k])
}

fn explicit_set(v: &Vector<bool>) -> Vec<u32> {
    v.iter_explicit().map(|(i, _)| i).collect()
}

/// One `mxv_batch` call under semiring `s` against `k` single-source `mxv`
/// runs. Each batch row carries its direction in its storage (dense to
/// pull, sparse to push) under the `Auto` descriptor; each single run gets
/// the original sparse row with that direction forced. Explicit sets and
/// every counter, steps included, must match.
fn assert_batch_equals_singles<S: Semiring<bool, bool, bool>>(
    s: S,
    g: &Graph<bool>,
    rows: &[Vector<bool>],
    masks: Option<&[Mask<'_>]>,
    dirs: &[Direction],
) {
    let desc = Descriptor::new().transpose(true);
    let stored: Vec<Vector<bool>> = rows
        .iter()
        .zip(dirs)
        .map(|(row, &d)| {
            let mut row = row.clone();
            if d == Direction::Pull {
                row.make_dense();
            }
            row
        })
        .collect();
    let batch_counters = AccessCounters::new();
    let out: Vec<Vector<bool>> =
        mxv_batch(masks, s, g, &stored, &desc, Some(&batch_counters), None).unwrap();

    let single_counters = AccessCounters::new();
    for (r, row) in rows.iter().enumerate() {
        let mask = masks.map(|ms| &ms[r]);
        let single: Vector<bool> = mxv(
            mask,
            s,
            g,
            row,
            &desc.force(dirs[r]),
            Some(&single_counters),
        )
        .unwrap();
        assert_eq!(
            explicit_set(&out[r]),
            explicit_set(&single),
            "row {r} dir {:?}",
            dirs[r]
        );
    }
    assert_eq!(batch_counters.snapshot(), single_counters.snapshot());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Push ≡ pull, masked and unmasked, on `A` and `Aᵀ`, with and
    /// without early exit — the paper's central claim.
    #[test]
    fn push_equals_pull_everywhere(
        g in arb_graph(40, 300),
        f_ids in prop::collection::vec(0usize..40, 0..20),
        m_ids in prop::collection::vec(0usize..40, 0..20),
        complement in any::<bool>(),
        transpose in any::<bool>(),
        early_exit in any::<bool>(),
    ) {
        let n = g.n_vertices();
        let f = sparse_bool_vector(n, &f_ids);
        let mut bits = BitVec::new(n);
        for &i in &m_ids {
            if i < n {
                bits.set(i);
            }
        }
        let mask = if complement { Mask::complement(&bits) } else { Mask::new(&bits) };
        let base = Descriptor::new().transpose(transpose).early_exit(early_exit);

        let push: Vector<bool> =
            mxv(Some(&mask), BoolOrAnd, &g, &f, &base.force(Direction::Push), None).unwrap();
        let pull: Vector<bool> =
            mxv(Some(&mask), BoolOrAnd, &g, &f, &base.force(Direction::Pull), None).unwrap();
        prop_assert_eq!(explicit_set(&push), explicit_set(&pull));

        // Unmasked too.
        let push_u: Vector<bool> =
            mxv(None, BoolOrAnd, &g, &f, &base.force(Direction::Push), None).unwrap();
        let pull_u: Vector<bool> =
            mxv(None, BoolOrAnd, &g, &f, &base.force(Direction::Pull), None).unwrap();
        prop_assert_eq!(explicit_set(&push_u), explicit_set(&pull_u));

        // Masked result = unmasked result filtered by the mask.
        let filtered = filter_by_mask(&push_u, &mask);
        prop_assert_eq!(explicit_set(&push), explicit_set(&filtered));
    }

    /// Parallel kernels ≡ sequential kernels on arbitrary graphs: the same
    /// mxv run at 1 and at 4 lanes must agree entry-for-entry, push and
    /// pull.
    #[test]
    fn parallel_equals_sequential_kernels(
        g in arb_graph(60, 500),
        f_ids in prop::collection::vec(0usize..60, 0..30),
        m_ids in prop::collection::vec(0usize..60, 0..30),
        transpose in any::<bool>(),
    ) {
        let n = g.n_vertices();
        let f = sparse_bool_vector(n, &f_ids);
        let mut bits = BitVec::new(n);
        for &i in &m_ids {
            if i < n {
                bits.set(i);
            }
        }
        let mask = Mask::complement(&bits);
        for dir in [Direction::Push, Direction::Pull] {
            let desc = Descriptor::new().transpose(transpose).force(dir);
            let seq: Vector<bool> = rayon::with_num_threads(1, || {
                mxv(Some(&mask), BoolOrAnd, &g, &f, &desc, None).unwrap()
            });
            let par: Vector<bool> = rayon::with_num_threads(4, || {
                mxv(Some(&mask), BoolOrAnd, &g, &f, &desc, None).unwrap()
            });
            prop_assert_eq!(explicit_set(&seq), explicit_set(&par), "dir {:?}", dir);
        }
    }

    /// The batched-kernel equivalence contract on random Erdős–Rényi and
    /// power-law graphs, for a valued and a structure-only semiring: one
    /// `mxv_batch` call is bit-identical — explicit sets *and* access
    /// counters (including the per-row push/pull step decisions) — to `k`
    /// independent single-source `mxv` runs. A `BoolStructure` push row runs
    /// the claim kernel, a `BoolOrAnd` one the sort-based merge.
    #[test]
    fn batched_kernel_equals_k_single_source_runs(
        seed in 0u64..2000,
        power_law in any::<bool>(),
        n_raw in 30usize..120,
        rows_ids in prop::collection::vec(prop::collection::vec(0usize..120, 0..25), 1..6),
        m_ids in prop::collection::vec(prop::collection::vec(0usize..120, 0..40), 1..6),
        complement in any::<bool>(),
        masked in any::<bool>(),
        dir_bits in 0u32..64,
        structural in any::<bool>(),
    ) {
        let g = if power_law {
            chung_lu(n_raw, 6, PowerLawParams::default(), seed)
        } else {
            erdos_renyi(n_raw, n_raw * 4, seed)
        };
        let n = g.n_vertices();
        let k = rows_ids.len();
        let rows: Vec<Vector<bool>> =
            rows_ids.iter().map(|ids| sparse_bool_vector(n, ids)).collect();
        let dirs: Vec<Direction> = (0..k)
            .map(|r| if dir_bits >> r & 1 == 1 { Direction::Pull } else { Direction::Push })
            .collect();
        let bits: Vec<BitVec> = (0..k)
            .map(|r| {
                let mut b = BitVec::new(n);
                for &i in &m_ids[r % m_ids.len()] {
                    if i < n {
                        b.set(i);
                    }
                }
                b
            })
            .collect();
        let masks: Vec<Mask<'_>> = bits
            .iter()
            .map(|b| if complement { Mask::complement(b) } else { Mask::new(b) })
            .collect();
        let masks = masked.then_some(masks.as_slice());
        if structural {
            assert_batch_equals_singles(BoolStructure, &g, &rows, masks, &dirs);
        } else {
            assert_batch_equals_singles(BoolOrAnd, &g, &rows, masks, &dirs);
        }
    }

    /// The algorithm-level equivalence contract on random graphs: a
    /// k-source batched BFS produces the same depths and the same push/pull
    /// steps as k single-source runs, and reads the matrix at most as often
    /// as those runs together (one shared traversal per group).
    #[test]
    fn batched_bfs_equals_k_single_source_runs(
        seed in 0u64..2000,
        power_law in any::<bool>(),
        n_raw in 30usize..120,
        source_picks in prop::collection::vec(0usize..120, 1..5),
    ) {
        let g = if power_law {
            chung_lu(n_raw, 6, PowerLawParams::default(), seed)
        } else {
            erdos_renyi(n_raw, n_raw * 3, seed)
        };
        let n = g.n_vertices();
        let sources: Vec<u32> = source_picks.iter().map(|&s| (s % n) as u32).collect();
        let opts = MsBfsOpts::default();
        let batch_counters = AccessCounters::new();
        let batch = multi_source_bfs_with_opts(&g, &sources, &opts, Some(&batch_counters));
        let single_counters = AccessCounters::new();
        for (r, &s) in sources.iter().enumerate() {
            let single = multi_source_bfs_with_opts(&g, &[s], &opts, Some(&single_counters));
            prop_assert_eq!(&batch.depths[r], &single.depths[0], "source {}", s);
            // Serial oracle agreement per source.
            prop_assert_eq!(
                &single.depths[0],
                &push_pull::baselines::textbook::bfs_serial(&g, s)
            );
        }
        let (b, s) = (batch_counters.snapshot(), single_counters.snapshot());
        prop_assert_eq!((b.push_steps, b.pull_steps), (s.push_steps, s.pull_steps));
        prop_assert!(b.matrix <= s.matrix, "group matrix {} > solo sum {}", b.matrix, s.matrix);
    }

    /// Boolean mxv against a brute-force dense reference.
    #[test]
    fn bool_mxv_matches_dense_reference(
        g in arb_graph(30, 200),
        f_ids in prop::collection::vec(0usize..30, 0..15),
    ) {
        let n = g.n_vertices();
        let f = sparse_bool_vector(n, &f_ids);
        let desc = Descriptor::new().transpose(true).force(Direction::Push);
        let got: Vector<bool> = mxv(None, BoolOrAnd, &g, &f, &desc, None).unwrap();
        // Reference: child j is reachable iff some explicit f(i) has edge i→j.
        let mut expect: Vec<u32> = Vec::new();
        for j in 0..n as u32 {
            let hit = f.iter_explicit().any(|(i, _)| g.children(i).contains(&j));
            if hit {
                expect.push(j);
            }
        }
        prop_assert_eq!(explicit_set(&got), expect);
    }

    /// Min-plus push ≡ min-plus pull on arbitrary weighted graphs.
    #[test]
    fn min_plus_push_equals_pull(
        edges in prop::collection::vec((0usize..25, 0usize..25, 1u32..100), 0..150),
        seeds in prop::collection::vec((0usize..25, 0u32..50), 1..8),
    ) {
        let dim = 25;
        let mut coo = Coo::new(dim, dim);
        for &(u, v, w) in &edges {
            if u != v {
                coo.push(u as u32, v as u32, w as f32);
            }
        }
        coo.dedup(|a, _| a);
        let g = Graph::from_coo(&coo);
        let mut ids: Vec<u32> = seeds.iter().map(|&(i, _)| i as u32).collect();
        ids.sort_unstable();
        ids.dedup();
        let vals: Vec<f32> = ids.iter().map(|&i| {
            seeds.iter().find(|&&(j, _)| j as u32 == i).map(|&(_, d)| d as f32).unwrap_or(0.0)
        }).collect();
        let d = Vector::from_sparse(dim, f32::INFINITY, ids, vals);
        let base = Descriptor::new().transpose(true);
        let push: Vector<f32> = mxv(None, MinPlus, &g, &d, &base.force(Direction::Push), None).unwrap();
        let pull: Vector<f32> = mxv(None, MinPlus, &g, &d, &base.force(Direction::Pull), None).unwrap();
        for i in 0..dim as u32 {
            prop_assert_eq!(push.get(i), pull.get(i), "vertex {}", i);
        }
    }

    /// Sparse↔dense conversion is lossless.
    #[test]
    fn storage_conversion_roundtrip(
        dim in 1usize..200,
        ids in prop::collection::vec(0usize..200, 0..50),
    ) {
        let v = sparse_bool_vector(dim, &ids);
        let before = explicit_set(&v);
        let mut w = v.clone();
        w.make_dense();
        prop_assert_eq!(&explicit_set(&w), &before);
        prop_assert_eq!(w.nnz(), before.len());
        w.make_sparse();
        prop_assert_eq!(&explicit_set(&w), &before);
    }

    /// Matrix eWise ops against per-cell dense references.
    #[test]
    fn matrix_ewise_matches_dense_reference(
        a_cells in prop::collection::btree_map((0u32..12, 0u32..12), 1i64..50, 0..40),
        b_cells in prop::collection::btree_map((0u32..12, 0u32..12), 1i64..50, 0..40),
    ) {
        use push_pull::core::matrix_ops::{matrix_ewise_add, matrix_ewise_mult};
        use push_pull::matrix::Csr;
        let build = |cells: &std::collections::BTreeMap<(u32, u32), i64>| {
            let mut coo = Coo::new(12, 12);
            for (&(r, c), &v) in cells {
                coo.push(r, c, v);
            }
            Csr::from_coo(&coo)
        };
        let (a, b) = (build(&a_cells), build(&b_cells));
        let mult = matrix_ewise_mult(&a, &b, |x, y| x * y);
        let add = matrix_ewise_add(&a, &b, |x, y| x + y);
        for r in 0..12u32 {
            for c in 0..12u32 {
                let xa = a_cells.get(&(r, c)).copied();
                let xb = b_cells.get(&(r, c)).copied();
                let got_mult = mult
                    .row(r as usize)
                    .binary_search(&c)
                    .ok()
                    .map(|p| mult.row_values(r as usize)[p]);
                let got_add = add
                    .row(r as usize)
                    .binary_search(&c)
                    .ok()
                    .map(|p| add.row_values(r as usize)[p]);
                let want_mult = match (xa, xb) {
                    (Some(x), Some(y)) => Some(x * y),
                    _ => None,
                };
                let want_add = match (xa, xb) {
                    (Some(x), Some(y)) => Some(x + y),
                    (Some(x), None) | (None, Some(x)) => Some(x),
                    (None, None) => None,
                };
                prop_assert_eq!(got_mult, want_mult, "mult at ({}, {})", r, c);
                prop_assert_eq!(got_add, want_add, "add at ({}, {})", r, c);
            }
        }
    }

    /// reduce_rows under + equals per-row sums; extract of everything is
    /// the identity.
    #[test]
    fn matrix_reduce_and_extract_invariants(
        cells in prop::collection::btree_map((0u32..15, 0u32..15), 1i64..100, 0..60),
    ) {
        use push_pull::core::matrix_ops::{extract, reduce_rows};
        use push_pull::core::ops::PlusMonoid;
        use push_pull::matrix::Csr;
        let mut coo = Coo::new(15, 15);
        for (&(r, c), &v) in &cells {
            coo.push(r, c, v);
        }
        let a = Csr::from_coo(&coo);
        let sums = reduce_rows(&a, PlusMonoid);
        for r in 0..15u32 {
            let want: i64 = cells
                .iter()
                .filter(|(&(rr, _), _)| rr == r)
                .map(|(_, &v)| v)
                .sum();
            prop_assert_eq!(sums.get(r), want, "row {}", r);
        }
        let all: Vec<u32> = (0..15).collect();
        prop_assert_eq!(extract(&a, &all, &all), a);
    }

    /// eWiseAdd/eWiseMult against BTreeMap references.
    #[test]
    fn ewise_ops_match_reference(
        a in prop::collection::btree_map(0u32..100, 1i64..50, 0..40),
        b in prop::collection::btree_map(0u32..100, 1i64..50, 0..40),
    ) {
        let dim = 100;
        let mk = |m: &std::collections::BTreeMap<u32, i64>| {
            Vector::from_sparse(
                dim,
                0i64,
                m.keys().copied().collect(),
                m.values().copied().collect(),
            )
        };
        let (u, v) = (mk(&a), mk(&b));
        let mult = ewise_mult(&u, &v, |x, y| x * y);
        let add = ewise_add(&u, &v, |x, y| x + y);
        for i in 0..dim as u32 {
            let (x, y) = (a.get(&i).copied(), b.get(&i).copied());
            let expect_mult = match (x, y) {
                (Some(x), Some(y)) => x * y,
                _ => 0,
            };
            let expect_add = x.unwrap_or(0) + y.unwrap_or(0);
            prop_assert_eq!(mult.get(i), expect_mult);
            prop_assert_eq!(add.get(i), expect_add);
        }
    }
}

// ---------------------------------------------------------------------------
// The transpose-free symmetry check against transpose equality.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// `Csr::is_symmetric`'s transpose-free merge says exactly what
    /// `a == a.transpose()` says — on square and non-square matrices, with
    /// unmirrored cells, mirrors holding another value, and NaNs on and off
    /// the diagonal — and `Graph::from_csr` shares storage exactly then,
    /// holding the true transpose either way.
    #[test]
    fn is_symmetric_matches_transpose_equality(
        n_rows in 1usize..7,
        n_cols in 1usize..7,
        square in prop::sample::select(vec![true, true, true, false]),
        cells in prop::collection::btree_map(
            (0usize..7, 0usize..7),
            prop::sample::select(vec![0.0f32, 1.0, 2.0, f32::NAN]),
            0..8,
        ),
        // Per cell: 0 leaves it unmirrored, 1 mirrors it with the drawn
        // value, anything else mirrors it exactly.
        mirrors in prop::collection::vec(
            (0u8..8, prop::sample::select(vec![0.0f32, 1.0, 2.0, f32::NAN])),
            8..9,
        ),
    ) {
        use push_pull::matrix::Csr;
        let n_cols = if square { n_rows } else { n_cols };
        let mut placed = std::collections::BTreeMap::new();
        for ((&(r, c), &v), &(roll, other)) in cells.iter().zip(&mirrors) {
            let (r, c) = (r % n_rows, c % n_cols);
            placed.insert((r, c), v);
            if r != c && c < n_rows && r < n_cols && roll != 0 {
                placed.insert((c, r), if roll == 1 { other } else { v });
            }
        }
        let mut coo = Coo::new(n_rows, n_cols);
        for (&(r, c), &v) in &placed {
            coo.push(r as u32, c as u32, v);
        }
        let a = Csr::from_coo(&coo);
        let t = a.transpose();
        let symmetric = a == t;
        prop_assert_eq!(a.is_symmetric(), symmetric, "{:?}", placed);
        let g = Graph::from_csr(a.clone());
        prop_assert_eq!(g.is_symmetric(), symmetric, "{:?}", placed);
        // Compared as bit patterns, so a NaN equals itself.
        let bits = |m: &Csr<f32>| m.map_values(f32::to_bits);
        prop_assert!(bits(g.csr_t()) == bits(&t), "{:?}", placed);
    }
}

// ---------------------------------------------------------------------------
// Whole-traversal oracles: BFS and parent BFS against the serial oracle.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// BFS depths under the edge rule equal the serial oracle, fused and
    /// unfused; the min-parent tree is a valid BFS tree, fused and unfused.
    #[test]
    fn bfs_and_parents_match_serial_oracle(
        seed in 0u64..1000,
        power_law in any::<bool>(),
        n_raw in 24usize..96,
        source_bits in 0usize..24,
        fused in any::<bool>(),
    ) {
        use push_pull::algo::bfs::{bfs_with_opts, BfsOpts};
        use push_pull::algo::bfs_parents::{bfs_parents_with_opts, verify_parents, ParentBfsOpts};

        let g = if power_law {
            chung_lu(n_raw, 5, PowerLawParams::default(), seed)
        } else {
            erdos_renyi(n_raw, n_raw * 3, seed)
        };
        let n = g.n_vertices();
        let source = (source_bits % n) as u32;
        let oracle = push_pull::baselines::textbook::bfs_serial(&g, source);

        let r = bfs_with_opts(&g, source, &BfsOpts { fused, ..BfsOpts::default() }, None);
        prop_assert_eq!(&r.depths, &oracle, "BFS depths");

        let opts = ParentBfsOpts { fused, ..ParentBfsOpts::default() };
        let p = bfs_parents_with_opts(&g, source, &opts, None);
        prop_assert!(verify_parents(&g, source, &p.parent), "parent tree");
    }
}
