//! Batched-frontier bench: `k`-source multi-source BFS through the shared
//! bit-lane traversal vs `k` sequential single-source runs (a one-source
//! batch runs the fused single-source path), at several lane counts.
//!
//! The batch and the sequential loop compute bit-identical depths (pinned
//! by `tests/prop_core.rs` and the msbfs suite), so the delta is the
//! shared traversal: one matrix sweep per face and level serves every
//! source. The machine-readable companion is `results/BENCH_batched.json`
//! (`cargo run --release -p graphblas_bench --bin paper -- batched`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphblas_algo::bc::betweenness;
use graphblas_algo::msbfs::multi_source_bfs;
use graphblas_bench::study::random_sources;
use graphblas_gen::powerlaw::{chung_lu, PowerLawParams};
use graphblas_gen::rmat::{rmat, RmatParams};
use graphblas_matrix::Graph;
use std::hint::black_box;
use std::time::Duration;

const THREAD_COUNTS: [usize; 2] = [1, 4];
const BATCH_SIZES: [usize; 2] = [4, 16];
const SEED: u64 = 17;

fn graphs() -> Vec<(&'static str, Graph<bool>)> {
    vec![
        ("kron", rmat(12, 16, RmatParams::default(), 11)),
        ("chung_lu", chung_lu(4096, 16, PowerLawParams::default(), 7)),
    ]
}

fn bench_msbfs_batched(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched_msbfs");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for (name, g) in graphs() {
        for k in BATCH_SIZES {
            let sources = random_sources(&g, k, SEED);
            for threads in THREAD_COUNTS {
                let id = format!("{name}/k{k}");
                group.bench_with_input(BenchmarkId::new(id, threads), &threads, |b, &threads| {
                    b.iter(|| {
                        rayon::with_num_threads(threads, || {
                            black_box(multi_source_bfs(&g, black_box(&sources)))
                        })
                    })
                });
            }
        }
    }
    group.finish();
}

fn bench_msbfs_sequential(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched_msbfs_kx1");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for (name, g) in graphs() {
        for k in BATCH_SIZES {
            let sources = random_sources(&g, k, SEED);
            for threads in THREAD_COUNTS {
                let id = format!("{name}/k{k}");
                group.bench_with_input(BenchmarkId::new(id, threads), &threads, |b, &threads| {
                    b.iter(|| {
                        rayon::with_num_threads(threads, || {
                            for &s in &sources {
                                black_box(multi_source_bfs(&g, black_box(&[s])));
                            }
                        })
                    })
                });
            }
        }
    }
    group.finish();
}

fn bench_bc_batched(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched_bc");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for (name, g) in graphs() {
        let sources = random_sources(&g, 4, SEED ^ 0xbc);
        for threads in THREAD_COUNTS {
            group.bench_with_input(BenchmarkId::new(name, threads), &threads, |b, &threads| {
                b.iter(|| {
                    rayon::with_num_threads(threads, || {
                        black_box(betweenness(&g, black_box(&sources)))
                    })
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_msbfs_batched,
    bench_msbfs_sequential,
    bench_bc_batched
);
criterion_main!(benches);
