//! Thread-count determinism: the worker pool distributes a chunk list
//! whose boundaries derive from the problem size only, so every kernel and
//! every algorithm must produce **bit-identical** output at 1, 2, and 8
//! threads. These tests sweep lane counts in-process through
//! `rayon::with_num_threads` (the same override `PUSH_PULL_THREADS` sets
//! process-wide) and pin that property.

use push_pull::algo::bc::betweenness;
use push_pull::algo::bfs::{bfs_with_opts, BfsOpts};
use push_pull::algo::bfs_parents::bfs_parents;
use push_pull::algo::cc::connected_components;
use push_pull::algo::msbfs::multi_source_bfs;
use push_pull::algo::pagerank::{pagerank, PageRankOpts};
use push_pull::algo::sssp::{sssp, SsspOpts};
use push_pull::core::descriptor::{Descriptor, Direction};
use push_pull::core::ops::{BoolOrAnd, MinPlus, PlusTimes};
use push_pull::core::{mxv, mxv_batch, FusedMxv, Mask, Vector};
use push_pull::gen::powerlaw::{chung_lu, PowerLawParams};
use push_pull::gen::rmat::{rmat, RmatParams};
use push_pull::gen::with_uniform_weights;
use push_pull::primitives::counters::AccessCounters;
use push_pull::primitives::BitVec;

const LANES: [usize; 3] = [1, 2, 8];

/// Run `f` at every lane count and assert all results equal the 1-lane one.
fn identical_across_lanes<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) {
    let reference = rayon::with_num_threads(1, &f);
    for lanes in LANES {
        let got = rayon::with_num_threads(lanes, &f);
        assert_eq!(got, reference, "diverged at {lanes} threads");
    }
}

fn test_graph() -> push_pull::matrix::Graph<bool> {
    rmat(12, 16, RmatParams::default(), 11)
}

/// A mid-traversal frontier and visited set on the test graph.
fn frontier_and_visited(n: usize) -> (Vector<bool>, BitVec) {
    let ids: Vec<u32> = (0..n as u32).step_by(5).collect();
    let k = ids.len();
    let f = Vector::from_sparse(n, false, ids, vec![true; k]);
    let mut bits = BitVec::new(n);
    for i in (0..n).step_by(3) {
        bits.set(i);
    }
    (f, bits)
}

#[test]
fn pull_mxv_identical_across_thread_counts() {
    let g = test_graph();
    let n = g.n_vertices();
    let (mut f, bits) = frontier_and_visited(n);
    f.make_dense();
    for transpose in [false, true] {
        for masked in [false, true] {
            for early_exit in [false, true] {
                let desc = Descriptor::new()
                    .transpose(transpose)
                    .force(Direction::Pull)
                    .early_exit(early_exit);
                identical_across_lanes(|| {
                    let mask = Mask::complement(&bits);
                    let w: Vector<bool> =
                        mxv(masked.then_some(&mask), BoolOrAnd, &g, &f, &desc, None).unwrap();
                    w.iter_explicit().collect::<Vec<_>>()
                });
            }
        }
    }
}

#[test]
fn push_mxv_identical_across_thread_counts() {
    let g = test_graph();
    let n = g.n_vertices();
    let (f, bits) = frontier_and_visited(n);
    for transpose in [false, true] {
        for masked in [false, true] {
            let desc = Descriptor::new()
                .transpose(transpose)
                .force(Direction::Push);
            identical_across_lanes(|| {
                let mask = Mask::complement(&bits);
                let w: Vector<bool> =
                    mxv(masked.then_some(&mask), BoolOrAnd, &g, &f, &desc, None).unwrap();
                w.iter_explicit().collect::<Vec<_>>()
            });
        }
    }
}

#[test]
fn weighted_mxv_bitwise_identical_across_thread_counts() {
    // Floating-point reductions are the sharp edge: chunk boundaries fix
    // the grouping, so even f32 min-plus and f64 plus-times must agree
    // bit-for-bit at every lane count.
    let gb = rmat(11, 8, RmatParams::default(), 17);
    let g = with_uniform_weights(&gb, 23);
    let n = g.n_vertices();
    let ids: Vec<u32> = (0..n as u32).step_by(4).collect();
    let vals: Vec<f32> = ids.iter().map(|&i| (i % 17) as f32).collect();
    let d = Vector::from_sparse(n, f32::INFINITY, ids, vals);
    for dir in [Direction::Push, Direction::Pull] {
        let desc = Descriptor::new().transpose(true).force(dir);
        identical_across_lanes(|| {
            let w: Vector<f32> = mxv(None, MinPlus, &g, &d, &desc, None).unwrap();
            w.iter_explicit()
                .map(|(i, x)| (i, x.to_bits()))
                .collect::<Vec<_>>()
        });
    }
}

#[test]
fn bfs_ladder_identical_across_thread_counts() {
    let g = test_graph();
    for (name, opts) in BfsOpts::ladder() {
        identical_across_lanes(|| bfs_with_opts(&g, 3, &opts, None).depths);
        let _ = name;
    }
}

#[test]
fn algorithms_identical_across_thread_counts() {
    let g = chung_lu(4096, 8, PowerLawParams::default(), 13);
    identical_across_lanes(|| bfs_parents(&g, 0, 0.01).parent);
    identical_across_lanes(|| connected_components(&g, 0.01).labels);

    let gw = with_uniform_weights(&rmat(10, 8, RmatParams::default(), 17), 23);
    identical_across_lanes(|| {
        sssp(&gw, 0, &SsspOpts::default())
            .dist
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>()
    });

    identical_across_lanes(|| {
        pagerank(&g, &PageRankOpts::default())
            .ranks
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>()
    });
}

#[test]
fn batched_kernels_identical_across_thread_counts() {
    // Each row runs the single-source kernel of its face, and every kernel
    // chunks by size alone, so a whole batch (values and counters,
    // including per-row direction decisions) is bit-identical at every
    // lane count, forced and storage-driven alike. Under `Auto` the dense
    // rows pull and the sparse rows push.
    let g = test_graph();
    let n = g.n_vertices();
    let rows: Vec<Vector<bool>> = (0..4)
        .map(|r| {
            let ids: Vec<u32> = (r as u32..n as u32).step_by(3 + r).collect();
            let k = ids.len();
            let mut row = Vector::from_sparse(n, false, ids, vec![true; k]);
            if r % 2 == 0 {
                row.make_dense();
            }
            row
        })
        .collect();
    let bits: Vec<BitVec> = (0..4)
        .map(|r| {
            let mut b = BitVec::new(n);
            for i in (r..n).step_by(2 + r) {
                b.set(i);
            }
            b
        })
        .collect();
    for masked in [false, true] {
        for forced in [None, Some(Direction::Push), Some(Direction::Pull)] {
            let desc = match forced {
                Some(d) => Descriptor::new().transpose(true).force(d),
                None => Descriptor::new().transpose(true),
            };
            identical_across_lanes(|| {
                let masks: Vec<Mask<'_>> = bits.iter().map(Mask::complement).collect();
                let c = AccessCounters::new();
                let out: Vec<Vector<bool>> = mxv_batch(
                    masked.then_some(masks.as_slice()),
                    BoolOrAnd,
                    &g,
                    &rows,
                    &desc,
                    Some(&c),
                    None,
                )
                .unwrap();
                let sets: Vec<Vec<(u32, bool)>> =
                    out.iter().map(|r| r.iter_explicit().collect()).collect();
                (sets, c.snapshot())
            });
        }
    }
}

#[test]
fn multi_source_bfs_identical_across_thread_counts() {
    let g = test_graph();
    let sources = [0u32, 7, 7, 1234];
    identical_across_lanes(|| multi_source_bfs(&g, &sources).depths);
}

#[test]
fn betweenness_identical_across_thread_counts() {
    // The f64 σ/δ accumulations go through the batched kernels whose
    // reduction grouping is ascending-neighbor order regardless of chunk
    // assignment — bit-for-bit at every lane count.
    let g = chung_lu(1024, 8, PowerLawParams::default(), 21);
    let sources = [0u32, 5, 99];
    identical_across_lanes(|| {
        betweenness(&g, &sources)
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>()
    });
}

#[test]
fn generated_graphs_identical_across_thread_counts() {
    // RNG chunk streams are laid out by a fixed constant, so the sampled
    // graph cannot depend on the lane count.
    identical_across_lanes(|| {
        let g = rmat(11, 16, RmatParams::default(), 7);
        (g.csr().row_ptr().to_vec(), g.csr().col_ind().to_vec())
    });
}

#[test]
fn access_counters_identical_across_thread_counts() {
    // The cost model feeding DirectionPolicy counts bulk accesses per
    // row/segment; concurrency must not change the totals.
    let g = test_graph();
    let n = g.n_vertices();
    let (f, bits) = frontier_and_visited(n);
    for dir in [Direction::Push, Direction::Pull] {
        let desc = Descriptor::new().transpose(true).force(dir);
        identical_across_lanes(|| {
            let mask = Mask::complement(&bits);
            let c = AccessCounters::new();
            let input = match dir {
                Direction::Push => f.clone(),
                Direction::Pull => {
                    let mut d = f.clone();
                    d.make_dense();
                    d
                }
            };
            let _: Vector<bool> = mxv(Some(&mask), BoolOrAnd, &g, &input, &desc, Some(&c)).unwrap();
            c.snapshot()
        });
    }
}

#[test]
fn pagerank_uses_plus_times_and_stays_deterministic() {
    // Guard against a future "optimization" racing the f64 ⊕ = + reduce:
    // dense pull PageRank exercises PlusTimes through the row kernel.
    let g = test_graph();
    let t = push_pull::algo::pagerank::transition_matrix(&g);
    let n = g.n_vertices();
    let x = Vector::Dense(push_pull::core::DenseVector::from_values(
        vec![1.0 / n as f64; n],
        0.0,
    ));
    let desc = Descriptor::new().transpose(true).force(Direction::Pull);
    identical_across_lanes(|| {
        let w: Vector<f64> = mxv(None, PlusTimes, &t, &x, &desc, None).unwrap();
        w.iter_explicit()
            .map(|(i, v)| (i, v.to_bits()))
            .collect::<Vec<_>>()
    });
}

#[test]
fn current_num_threads_tracks_override() {
    for lanes in LANES {
        rayon::with_num_threads(lanes, || {
            assert_eq!(rayon::current_num_threads(), lanes);
        });
    }
}

#[test]
fn fused_pipeline_identical_across_thread_counts() {
    // The fused mxv·apply·assign kernel must write identical state and
    // return the identical touched list at every lane count, on both
    // faces, masked and unmasked, with and without the first-hit exit.
    let g = test_graph();
    let n = g.n_vertices();
    let (f, bits) = frontier_and_visited(n);
    let mut dense_f = f.clone();
    dense_f.make_dense();
    for (input, dir) in [(&f, Direction::Push), (&dense_f, Direction::Pull)] {
        for masked in [false, true] {
            for first_hit in [false, true] {
                if first_hit && dir == Direction::Push {
                    continue; // push ignores the flag
                }
                let desc = Descriptor::new().transpose(true).force(dir);
                identical_across_lanes(|| {
                    let mask = Mask::complement(&bits);
                    let c = AccessCounters::new();
                    let mut state = vec![-1i32; n];
                    let mut pipe = FusedMxv::new(BoolOrAnd, &g, input)
                        .descriptor(desc)
                        .counters(Some(&c))
                        .first_hit_exit(first_hit);
                    if masked {
                        pipe = pipe.mask(&mask);
                    }
                    let out = pipe
                        .apply(|_: bool| 1i32)
                        .assign_into(&mut state, |old, z| (old == -1).then_some(z))
                        .unwrap();
                    (out.touched, state, c.snapshot())
                });
            }
        }
    }
}

#[test]
fn fused_algorithms_with_counters_identical_across_thread_counts() {
    // Fused parent BFS (production config: first-hit on) and fused
    // adaptive PageRank, state + counters, at 1/2/8 lanes.
    let g = test_graph();
    identical_across_lanes(|| {
        let c = AccessCounters::new();
        let r = push_pull::algo::bfs_parents::bfs_parents_with_opts(
            &g,
            3,
            &push_pull::algo::bfs_parents::ParentBfsOpts::default(),
            Some(&c),
        );
        (r.parent, r.levels, c.snapshot())
    });
    identical_across_lanes(|| {
        let c = AccessCounters::new();
        let r = push_pull::algo::pagerank::pagerank_with_counters(
            &g,
            &PageRankOpts::default(),
            true,
            Some(&c),
        );
        (
            r.ranks.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            r.iters,
            c.snapshot(),
        )
    });
}

#[test]
fn cost_model_bfs_identical_across_thread_counts() {
    // The measured cost-model direction rule: depths and the full counter
    // snapshot pinned at 1/2/8 lanes.
    let g = test_graph();
    identical_across_lanes(|| {
        let c = AccessCounters::new();
        let r = bfs_with_opts(&g, 3, &BfsOpts::default().cost_model(true), Some(&c));
        (r.depths, c.snapshot())
    });
}

#[test]
fn service_trace_identical_across_thread_counts() {
    // The query service replaying a fixed seeded arrival trace: the
    // admission plan is a pure function of arrival ticks, so the batch
    // composition, every response's values, and every request's FULL
    // per-request counter snapshot are bit-identical at 1/2/8 lanes.
    use push_pull::service::{
        generate_trace, run_trace, AdmissionConfig, ExecOpts, LoadGenConfig, ServiceGraphs,
    };
    let g = test_graph();
    let gs = ServiceGraphs::new(g.clone(), with_uniform_weights(&g, 23));
    let opts = ExecOpts::default();
    let trace = generate_trace(
        &LoadGenConfig {
            n_requests: 12,
            ..LoadGenConfig::default()
        },
        gs.n_vertices(),
    );
    let adm = AdmissionConfig {
        window_ticks: 16,
        max_batch: 4,
    };
    identical_across_lanes(|| {
        let out = run_trace(&gs, &opts, &trace, &adm, 1_000, None);
        let per_request: Vec<_> = out
            .responses
            .iter()
            .map(|r| {
                (
                    r.id,
                    r.result.clone(),
                    r.counters,
                    r.batch_size,
                    r.group_size,
                    r.retried_solo,
                )
            })
            .collect();
        (out.batches, per_request)
    });
}
