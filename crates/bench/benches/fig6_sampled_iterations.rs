//! Criterion bench for Figure 6: per-iteration matvec cost with
//! *BFS-semantic* vectors (sampled mid-traversal) rather than random ones —
//! the distinction that produces the supervertex oval and backwards-L
//! shapes of the figure.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphblas_core::descriptor::{Descriptor, Direction};
use graphblas_core::mask::Mask;
use graphblas_core::mxv;
use graphblas_core::ops::BoolStructure;
use graphblas_core::vector::Vector;
use graphblas_gen::rmat::{rmat, RmatParams};
use graphblas_primitives::BitVec;
use std::hint::black_box;
use std::time::Duration;

/// Capture the frontier + visited state entering each BFS level.
fn bfs_states(g: &graphblas_matrix::Graph<bool>, source: u32) -> Vec<(Vector<bool>, BitVec)> {
    let n = g.n_vertices();
    let mut visited = BitVec::new(n);
    visited.set(source as usize);
    let mut f = Vector::singleton(n, false, source, true);
    let desc = Descriptor::new().transpose(true).force(Direction::Push);
    let mut states = Vec::new();
    loop {
        states.push((f.clone(), visited.clone()));
        let mask = Mask::complement(&visited);
        let w: Vector<bool> = mxv(Some(&mask), BoolStructure, g, &f, &desc, None).unwrap();
        if w.nnz() == 0 {
            break;
        }
        for (i, _) in w.iter_explicit() {
            visited.set(i as usize);
        }
        f = w;
    }
    states
}

fn bench_bfs_semantic_iterations(c: &mut Criterion) {
    let g = rmat(13, 24, RmatParams::default(), 21);
    let states = bfs_states(&g, 0);
    let desc_push = Descriptor::new().transpose(true).force(Direction::Push);
    let desc_pull = Descriptor::new().transpose(true).force(Direction::Pull);

    let mut group = c.benchmark_group("fig6_bfs_semantic");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for (level, (f, visited)) in states.iter().enumerate() {
        let level = level + 1;
        group.bench_with_input(BenchmarkId::new("push", level), &level, |b, _| {
            let mut sf = f.clone();
            sf.make_sparse();
            b.iter(|| {
                let mask = Mask::complement(visited);
                let w: Vector<bool> = mxv(
                    Some(&mask),
                    BoolStructure,
                    &g,
                    black_box(&sf),
                    &desc_push,
                    None,
                )
                .unwrap();
                black_box(w)
            })
        });
        group.bench_with_input(BenchmarkId::new("pull", level), &level, |b, _| {
            let mut df = f.clone();
            df.make_dense();
            b.iter(|| {
                // As in BFS: the pull reads ¬visited from the bit words.
                let mask = Mask::complement(visited);
                let w: Vector<bool> = mxv(
                    Some(&mask),
                    BoolStructure,
                    &g,
                    black_box(&df),
                    &desc_pull,
                    None,
                )
                .unwrap();
                black_box(w)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bfs_semantic_iterations);
criterion_main!(benches);
