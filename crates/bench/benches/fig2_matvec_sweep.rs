//! Criterion bench for Figure 2: matvec runtime as a function of vector /
//! mask density with *random* vectors (no BFS semantics), exposing the
//! crossovers between the flat row curve and the rising masked/column
//! curves — plus per-storage-format arms (CSR / bitmap / hypersparse
//! DCSR) over the same kernels, including the hypersparse
//! batched-frontier microbench where DCSR's compressed row list beats
//! CSR's O(n) `row_ptr` scan.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use graphblas_bench::study::{hypersparse_embed, matvec_variant_sweep};
use graphblas_core::descriptor::{Descriptor, Direction};
use graphblas_core::ops::BoolOrAnd;
use graphblas_core::{mxv, mxv_batch, DenseVector, MultiVector, StorageFormat, Vector};
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

/// Per-format arms over the same kernels: unmasked pull and push matvec
/// with each storage format forced. Formats are bit-identical in results;
/// only wall clock may move.
fn bench_formats(c: &mut Criterion) {
    let g = rmat(12, 16, RmatParams::default(), 2);
    let n = g.n_vertices();
    let dense_f = Vector::Dense(DenseVector::from_values(vec![true; n], false));
    let ids: Vec<u32> = (0..n as u32).step_by(20).collect();
    let k = ids.len();
    let sparse_f = Vector::from_sparse(n, false, ids, vec![true; k]);

    let mut group = c.benchmark_group("fig2_formats");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for format in StorageFormat::all() {
        let desc_pull = Descriptor::new()
            .transpose(true)
            .force(Direction::Pull)
            .early_exit(false)
            .force_format(format);
        let desc_push = Descriptor::new()
            .transpose(true)
            .force(Direction::Push)
            .force_format(format);
        // Warm the format cache outside the timed region.
        let _: Vector<bool> = mxv(None, BoolOrAnd, &g, &dense_f, &desc_pull, None).unwrap();
        group.bench_function(BenchmarkId::new("pull", format.name()), |b| {
            b.iter(|| {
                let w: Vector<bool> = mxv(None, BoolOrAnd, &g, &dense_f, &desc_pull, None).unwrap();
                black_box(w)
            })
        });
        group.bench_function(BenchmarkId::new("push", format.name()), |b| {
            b.iter(|| {
                let w: Vector<bool> =
                    mxv(None, BoolOrAnd, &g, &sparse_f, &desc_push, None).unwrap();
                black_box(w)
            })
        });
    }
    group.finish();
}

/// The hypersparse batched-frontier microbench: k dense frontiers pulled
/// through an operand whose rows are ~98% empty. DCSR scans only the
/// non-empty rows; CSR walks the full `row_ptr` per source.
fn bench_hypersparse_batch(c: &mut Criterion) {
    let base = rmat(9, 8, RmatParams::default(), 7);
    let g = hypersparse_embed(&base, 64);
    let n = g.n_vertices();
    let k = 8usize;
    let batch = MultiVector::from_rows(
        (0..k)
            .map(|_| Vector::Dense(DenseVector::from_values(vec![true; n], false)))
            .collect(),
    );
    let mut group = c.benchmark_group("fig2_hypersparse_batch");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for format in StorageFormat::all() {
        let desc = Descriptor::new()
            .transpose(true)
            .force(Direction::Pull)
            .force_format(format);
        let _: MultiVector<bool> =
            mxv_batch(None, BoolOrAnd, &g, &batch, &desc, None, None).unwrap();
        group.bench_function(BenchmarkId::new("pull_batch", format.name()), |b| {
            b.iter(|| {
                let out: MultiVector<bool> =
                    mxv_batch(None, BoolOrAnd, &g, &batch, &desc, None, None).unwrap();
                black_box(out)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweep, bench_formats, bench_hypersparse_batch);
criterion_main!(benches);
