//! Fused-pipeline bench: each algorithm's fused mxv·apply·assign form vs
//! its unfused separate-operation composition.
//!
//! The two forms compute bit-identical results and access counters (pinned
//! by `tests/fused_pipelines.rs`), so the delta is pure intermediate-vector
//! traffic: the unfused pull face allocates, fills, and re-scans an `O(M)`
//! dense buffer every iteration that fusion never materializes, and the
//! unfused push face builds a sparse vector the caller immediately tears
//! apart. The one exception is parent BFS's fused pull, which also stops
//! each row at its first parent (the first-hit exit only fusion can
//! express) and so reads the matrix less.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphblas_algo::bfs::{bfs_with_opts, BfsOpts};
use graphblas_algo::bfs_parents::{bfs_parents_with_opts, ParentBfsOpts};
use graphblas_algo::cc::{connected_components_with_opts, CcOpts};
use graphblas_algo::pagerank::{pagerank_with_counters, PageRankOpts};
use graphblas_gen::grid::{road_mesh, RoadParams};
use graphblas_gen::rmat::{rmat, RmatParams};
use graphblas_matrix::Graph;
use std::hint::black_box;
use std::time::Duration;

fn graphs() -> Vec<(&'static str, Graph<bool>)> {
    vec![
        ("kron", rmat(13, 16, RmatParams::default(), 11)),
        ("road", road_mesh(90, 90, RoadParams::default(), 6)),
    ]
}

fn configure(group: &mut criterion::BenchmarkGroup<'_>) {
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
}

fn bench_bfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_bfs");
    configure(&mut group);
    for (name, g) in graphs() {
        for fused in [false, true] {
            let label = if fused { "fused" } else { "unfused" };
            let opts = BfsOpts::default().fused(fused);
            group.bench_with_input(BenchmarkId::new(name, label), &opts, |b, opts| {
                b.iter(|| black_box(bfs_with_opts(&g, black_box(0), opts, None)));
            });
        }
    }
    group.finish();
}

fn bench_parent_bfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_parent_bfs");
    configure(&mut group);
    for (name, g) in graphs() {
        for fused in [false, true] {
            let label = if fused { "fused" } else { "unfused" };
            let opts = ParentBfsOpts {
                fused,
                ..ParentBfsOpts::default()
            };
            group.bench_with_input(BenchmarkId::new(name, label), &opts, |b, opts| {
                b.iter(|| black_box(bfs_parents_with_opts(&g, black_box(0), opts, None)));
            });
        }
    }
    group.finish();
}

fn bench_cc(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_cc");
    configure(&mut group);
    for (name, g) in graphs() {
        for fused in [false, true] {
            let label = if fused { "fused" } else { "unfused" };
            let opts = CcOpts {
                fused,
                ..CcOpts::default()
            };
            group.bench_with_input(BenchmarkId::new(name, label), &opts, |b, opts| {
                b.iter(|| black_box(connected_components_with_opts(&g, opts, None)));
            });
        }
    }
    group.finish();
}

fn bench_pagerank(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_pagerank");
    configure(&mut group);
    for (name, g) in graphs() {
        for fused in [false, true] {
            let label = if fused { "fused" } else { "unfused" };
            let opts = PageRankOpts {
                fused,
                max_iters: 30,
                ..PageRankOpts::default()
            };
            group.bench_with_input(BenchmarkId::new(name, label), &opts, |b, opts| {
                b.iter(|| black_box(pagerank_with_counters(&g, opts, true, None)));
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_bfs,
    bench_parent_bfs,
    bench_cc,
    bench_pagerank
);
criterion_main!(benches);
