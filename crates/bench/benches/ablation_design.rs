//! Ablation benches for the kernel design choices (docs/ARCHITECTURE.md
//! walks through the kernels they compare):
//!
//! 1. key-value sort vs the structure-only claim kernel (§5.5, with
//!    Gunrock's §7.3 culling as the claim);
//! 2. masked row kernel walking an exact active list (§3.2) vs the word
//!    scan, which reads the allowed rows from the mask's bit words, 64
//!    rows per word;
//! 3. α = β switch-threshold sensitivity around the paper's 0.01;
//! 4. masked vs unmasked SpGEMM for triangle counting (§5.6 generality).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphblas_algo::bfs::{bfs_with_opts, BfsOpts};
use graphblas_algo::tricount::{triangle_count, triangle_count_unmasked};
use graphblas_bench::study::random_ids;
use graphblas_core::descriptor::{Descriptor, Direction};
use graphblas_core::mask::Mask;
use graphblas_core::mxv;
use graphblas_core::ops::{BoolOrAnd, BoolStructure};
use graphblas_core::vector::Vector;
use graphblas_gen::rmat::{rmat, RmatParams};
use graphblas_primitives::BitVec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

fn bench_structure_only_sort(c: &mut Criterion) {
    let g = rmat(13, 16, RmatParams::default(), 11);
    let n = g.n_vertices();
    let mut rng = StdRng::seed_from_u64(4);
    let ids = random_ids(n, n / 10, &mut rng);
    let f = Vector::from_sparse(n, false, ids.clone(), vec![true; ids.len()]);

    let mut group = c.benchmark_group("ablation_structure_only");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    // The semiring alone picks the kernel: `BoolOrAnd` merges key-value
    // pairs, `BoolStructure`'s constant product claims.
    let desc = Descriptor::new().transpose(true).force(Direction::Push);
    group.bench_function("key_value_sort", |b| {
        b.iter(|| {
            let w: Vector<bool> = mxv(None, BoolOrAnd, &g, black_box(&f), &desc, None).unwrap();
            black_box(w)
        })
    });
    group.bench_function("claim_kernel", |b| {
        b.iter(|| {
            let w: Vector<bool> = mxv(None, BoolStructure, &g, black_box(&f), &desc, None).unwrap();
            black_box(w)
        })
    });
    group.finish();
}

fn bench_mask_active_list(c: &mut Criterion) {
    let g = rmat(13, 16, RmatParams::default(), 11);
    let n = g.n_vertices();
    let mut rng = StdRng::seed_from_u64(5);
    // Sparse mask: the regime where walking a list should beat reading
    // every mask word.
    let ids = random_ids(n, n / 50, &mut rng);
    let bits = {
        let mut b = BitVec::new(n);
        for &i in &ids {
            b.set(i as usize);
        }
        b
    };
    let full: Vector<bool> = {
        let mut v = Vector::from_sparse(n, false, (0..n as u32).collect(), vec![true; n]);
        v.make_dense();
        v
    };
    let desc = Descriptor::new()
        .transpose(true)
        .force(Direction::Pull)
        .early_exit(false);

    let mut group = c.benchmark_group("ablation_mask_active_list");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    group.bench_function("with_active_list", |b| {
        b.iter(|| {
            let mask = Mask::new(&bits).with_active_list(&ids);
            let w: Vector<bool> =
                mxv(Some(&mask), BoolOrAnd, &g, black_box(&full), &desc, None).unwrap();
            black_box(w)
        })
    });
    // No list: the kernel reads the allowed rows from the mask's words.
    group.bench_function("word_scan", |b| {
        b.iter(|| {
            let mask = Mask::new(&bits);
            let w: Vector<bool> =
                mxv(Some(&mask), BoolOrAnd, &g, black_box(&full), &desc, None).unwrap();
            black_box(w)
        })
    });
    group.finish();
}

fn bench_alpha_sensitivity(c: &mut Criterion) {
    let g = rmat(13, 24, RmatParams::default(), 13);
    let mut group = c.benchmark_group("ablation_alpha");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for alpha in [0.001, 0.01, 0.1] {
        let opts = BfsOpts {
            switch_threshold: alpha,
            ..BfsOpts::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(alpha), &opts, |b, opts| {
            b.iter(|| black_box(bfs_with_opts(&g, 0, opts, None)))
        });
    }
    group.finish();
}

fn bench_masked_tricount(c: &mut Criterion) {
    let g = rmat(11, 8, RmatParams::default(), 17);
    let mut group = c.benchmark_group("ablation_tricount_mask");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    group.bench_function("masked_spgemm", |b| {
        b.iter(|| black_box(triangle_count(&g)))
    });
    group.bench_function("unmasked_then_filter", |b| {
        b.iter(|| black_box(triangle_count_unmasked(&g)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_structure_only_sort,
    bench_mask_active_list,
    bench_alpha_sensitivity,
    bench_masked_tricount
);
criterion_main!(benches);
