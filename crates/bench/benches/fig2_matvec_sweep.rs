//! Criterion bench for Figure 2: matvec runtime as a function of vector /
//! mask density with *random* vectors (no BFS semantics), exposing the
//! crossovers between the flat row curve and the rising masked/column
//! curves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use graphblas_bench::study::matvec_variant_sweep;
use graphblas_gen::rmat::{rmat, RmatParams};
use std::hint::black_box;
use std::time::Duration;

fn bench_sweep(c: &mut Criterion) {
    let g = rmat(13, 16, RmatParams::default(), 2);
    let n = g.n_vertices();
    let mut group = c.benchmark_group("fig2_matvec_sweep");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for frac in [5usize, 25, 75] {
        let k = n * frac / 100;
        group.throughput(Throughput::Elements(k as u64));
        group.bench_with_input(BenchmarkId::new("all_variants", frac), &k, |b, &k| {
            b.iter(|| black_box(matvec_variant_sweep(&g, &[k], 1, 3)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
