//! Criterion bench for the §5.6 generality set: every algorithm the paper
//! claims the push-pull/masking machinery extends to, timed on the same
//! scale-free graph so relative costs are comparable.

use criterion::{criterion_group, criterion_main, Criterion};
use graphblas_algo::bc::betweenness;
use graphblas_algo::bfs_parents::{bfs_parents_with_opts, ParentBfsOpts};
use graphblas_algo::cc::connected_components;
use graphblas_algo::ktruss::ktruss;
use graphblas_algo::mis::maximal_independent_set;
use graphblas_algo::msbfs::multi_source_bfs;
use graphblas_algo::pagerank::{adaptive_pagerank, pagerank, PageRankOpts};
use graphblas_algo::sssp::{sssp, SsspOpts};
use graphblas_algo::tricount::triangle_count;
use graphblas_gen::rmat::{rmat, RmatParams};
use graphblas_gen::with_uniform_weights;
use std::hint::black_box;
use std::time::Duration;

fn bench_algorithms(c: &mut Criterion) {
    let g = rmat(12, 12, RmatParams::default(), 7);
    let w = with_uniform_weights(&g, 9);
    let pr_opts = PageRankOpts::default();

    let mut group = c.benchmark_group("algorithms_suite");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    group.bench_function("bfs_parents", |b| {
        let opts = ParentBfsOpts::default();
        b.iter(|| black_box(bfs_parents_with_opts(&g, 0, &opts, None)))
    });
    group.bench_function("multi_source_bfs_8", |b| {
        let sources: Vec<u32> = (0..8).map(|i| i * 37).collect();
        b.iter(|| black_box(multi_source_bfs(&g, &sources)))
    });
    group.bench_function("sssp", |b| {
        b.iter(|| black_box(sssp(&w, 0, &SsspOpts::default())))
    });
    group.bench_function("pagerank", |b| b.iter(|| black_box(pagerank(&g, &pr_opts))));
    group.bench_function("adaptive_pagerank", |b| {
        b.iter(|| black_box(adaptive_pagerank(&g, &pr_opts)))
    });
    group.bench_function("connected_components", |b| {
        b.iter(|| black_box(connected_components(&g, 0.01)))
    });
    group.bench_function("mis", |b| {
        b.iter(|| black_box(maximal_independent_set(&g, 5)))
    });
    group.bench_function("triangle_count", |b| {
        b.iter(|| black_box(triangle_count(&g)))
    });
    group.bench_function("ktruss_k4", |b| b.iter(|| black_box(ktruss(&g, 4))));
    group.bench_function("betweenness_4_sources", |b| {
        b.iter(|| black_box(betweenness(&g, &[0, 11, 222, 3333])))
    });
    group.finish();
}

criterion_group!(benches, bench_algorithms);
criterion_main!(benches);
