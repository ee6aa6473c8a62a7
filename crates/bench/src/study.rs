//! The experiment implementations behind each table/figure, shared by the
//! `paper` binary and the criterion benches.

use crate::{median, time_ms};
use graphblas_algo::bfs::{bfs_with_opts, BfsOpts};
use graphblas_core::descriptor::{Descriptor, Direction};
use graphblas_core::mask::Mask;
use graphblas_core::ops::{BoolOrAnd, BoolStructure};
use graphblas_core::vector::{DenseVector, Vector};
use graphblas_core::{mxv, DirectionPolicy, FusedMxv};
use graphblas_matrix::{Graph, VertexId};
use graphblas_primitives::counters::{AccessCounters, CounterSnapshot};
use graphblas_primitives::{AtomicBitVec, BitVec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Draw `k` distinct vertex ids, sorted.
#[must_use]
pub fn random_ids(n: usize, k: usize, rng: &mut StdRng) -> Vec<VertexId> {
    let k = k.min(n);
    // Partial Fisher-Yates over an index pool for small k; full shuffle
    // when k is a large fraction.
    let mut ids: Vec<VertexId> = if k * 3 >= n {
        let mut all: Vec<VertexId> = (0..n as VertexId).collect();
        all.shuffle(rng);
        all.truncate(k);
        all
    } else {
        let mut set = std::collections::HashSet::with_capacity(k * 2);
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let v = rng.gen_range(0..n) as VertexId;
            if set.insert(v) {
                out.push(v);
            }
        }
        out
    };
    ids.sort_unstable();
    ids
}

/// One measurement of the four matvec variants at a given vector/mask size.
#[derive(Clone, Copy, Debug)]
pub struct VariantSample {
    /// nnz of the input vector (col variants) or of the mask (row-masked).
    pub nnz: usize,
    /// Wall time, ms.
    pub row_ms: f64,
    pub row_masked_ms: f64,
    pub col_ms: f64,
    pub col_masked_ms: f64,
    /// Matrix access counts from the instrumented kernels.
    pub row_accesses: CounterSnapshot,
    pub row_masked_accesses: CounterSnapshot,
    pub col_accesses: CounterSnapshot,
    pub col_masked_accesses: CounterSnapshot,
}

/// The Figure 2 / Table 1 microbenchmark: random vectors and masks of
/// increasing nnz against one matrix, measuring all four variants.
///
/// Protocol follows §3.2: (1) row-based sweeps nnz(f) with no mask (its
/// cost must stay flat); (2) row-based masked fixes nnz(f) = M and sweeps
/// nnz(m); (3) column-based sweeps nnz(f); (4) column-based masked sweeps
/// nnz(f) with the mask at ⅔·nnz(f). Early-exit is disabled — these are
/// *random* vectors, the pure cost-model study.
#[must_use]
pub fn matvec_variant_sweep(
    g: &Graph<bool>,
    sweep: &[usize],
    repeats: usize,
    seed: u64,
) -> Vec<VariantSample> {
    let n = g.n_vertices();
    let mut rng = StdRng::seed_from_u64(seed);
    let desc_pull = Descriptor::new()
        .transpose(true)
        .force(Direction::Pull)
        .early_exit(false);
    let desc_push = Descriptor::new().transpose(true).force(Direction::Push);

    // Full dense input for the row-masked variant (nnz(f) = M).
    let full: Vector<bool> = {
        let mut v = Vector::from_sparse(n, false, (0..n as VertexId).collect(), vec![true; n]);
        v.make_dense();
        v
    };

    sweep
        .iter()
        .map(|&k| {
            let k = k.min(n);
            let ids = random_ids(n, k, &mut rng);
            let sparse_f = Vector::from_sparse(n, false, ids.clone(), vec![true; ids.len()]);
            let mut dense_f = sparse_f.clone();
            dense_f.make_dense();
            let mask_bits = {
                let mut b = BitVec::new(n);
                for &i in &ids {
                    b.set(i as usize);
                }
                b
            };
            let mask_list = ids.clone();
            // Column-masked protocol: mask at ⅔ of nnz(f).
            let col_mask_bits = {
                let mut b = BitVec::new(n);
                for &i in ids.iter().take(k * 2 / 3) {
                    b.set(i as usize);
                }
                b
            };

            let run = |f: &dyn Fn(Option<&AccessCounters>)| -> (f64, CounterSnapshot) {
                // Counted pass (once), then timed passes without counters.
                let c = AccessCounters::new();
                f(Some(&c));
                let times: Vec<f64> = (0..repeats).map(|_| time_ms(|| f(None)).1).collect();
                (median(&times), c.snapshot())
            };

            let (row_ms, row_accesses) = run(&|c| {
                let _: Vector<bool> =
                    mxv(None, BoolOrAnd, g, &dense_f, &desc_pull, c).expect("dims");
            });
            let (row_masked_ms, row_masked_accesses) = run(&|c| {
                let mask = Mask::new(&mask_bits).with_active_list(&mask_list);
                let _: Vector<bool> =
                    mxv(Some(&mask), BoolOrAnd, g, &full, &desc_pull, c).expect("dims");
            });
            let (col_ms, col_accesses) = run(&|c| {
                let _: Vector<bool> =
                    mxv(None, BoolOrAnd, g, &sparse_f, &desc_push, c).expect("dims");
            });
            let (col_masked_ms, col_masked_accesses) = run(&|c| {
                let mask = Mask::new(&col_mask_bits);
                let _: Vector<bool> =
                    mxv(Some(&mask), BoolOrAnd, g, &sparse_f, &desc_push, c).expect("dims");
            });

            VariantSample {
                nnz: k,
                row_ms,
                row_masked_ms,
                col_ms,
                col_masked_ms,
                row_accesses,
                row_masked_accesses,
                col_accesses,
                col_masked_accesses,
            }
        })
        .collect()
}

/// One BFS level with both directions timed on identical state (Figure 5b,
/// and the per-level oracle of the direction study).
#[derive(Clone, Copy, Debug)]
pub struct LevelTiming {
    pub level: usize,
    pub frontier_nnz: usize,
    /// Σ out-degree over the frontier: the edges a push expands (`m_f`).
    pub frontier_edges: usize,
    pub unvisited: usize,
    pub push_ms: f64,
    pub pull_ms: f64,
}

/// Replay a BFS from `source`, timing at every level the two arms default
/// BFS runs on the same traversal state: the fused `BoolStructure` push
/// (the claim kernel, with a claim set lent for the whole run) on the
/// sparse frontier, and the fused pull with early exit over the dense
/// visited vector (operand reuse), both masked by `¬visited`. The arms
/// alternate for `repeats` rounds, each starting with the other arm, and
/// each level keeps each arm's minimum.
///
/// # Panics
/// If the two arms discover different vertex counts at some level.
#[must_use]
pub fn per_level_study(g: &Graph<bool>, source: VertexId, repeats: usize) -> Vec<LevelTiming> {
    let n = g.n_vertices();
    let mut visited = BitVec::new(n);
    visited.set(source as usize);
    let mut visited_vec: Vector<bool> = Vector::new_dense(n, false);
    visited_vec
        .as_dense_mut()
        .expect("dense by construction")
        .set(source as usize, true);
    let claims = AtomicBitVec::new(n);
    let mut depths = vec![-1i32; n];
    depths[source as usize] = 0;
    let mut unvisited = n - 1;
    let mut frontier = Vector::singleton(n, false, source, true);
    let desc = Descriptor::new().transpose(true).early_exit(true);
    let mut out = Vec::new();
    let mut level = 0usize;

    loop {
        level += 1;
        let depth = level as i32;
        let frontier_nnz = frontier.nnz();
        let frontier_edges = frontier
            .iter_explicit()
            .map(|(i, _)| g.csr().degree(i as usize))
            .sum();

        // One fused level into `depths`: repeats rewrite the same slots
        // with the same depth, so every run sees the same state.
        let mut arm = |dir: Direction| -> (Vec<VertexId>, f64) {
            let (input, mask) = match dir {
                Direction::Push => (
                    &frontier,
                    Mask::complement(&visited).with_claim_set(&claims),
                ),
                Direction::Pull => (&visited_vec, Mask::complement(&visited)),
            };
            let (touched, ms) = time_ms(|| {
                FusedMxv::new(BoolStructure, g, input)
                    .descriptor(desc.force(dir))
                    .mask(&mask)
                    .apply(move |_: bool| depth)
                    .assign_into(&mut depths, |_, d| Some(d))
                    .expect("dims")
                    .touched
            });
            (touched, ms)
        };
        let (mut push_ms, mut pull_ms) = (f64::INFINITY, f64::INFINITY);
        let mut next = Vec::new();
        let mut pulled = 0usize;
        for r in 0..repeats.max(1) {
            let order = if r % 2 == 0 {
                [Direction::Push, Direction::Pull]
            } else {
                [Direction::Pull, Direction::Push]
            };
            for dir in order {
                let (touched, ms) = arm(dir);
                match dir {
                    Direction::Push => {
                        push_ms = push_ms.min(ms);
                        next = touched;
                    }
                    Direction::Pull => {
                        pull_ms = pull_ms.min(ms);
                        pulled = touched.len();
                    }
                }
            }
        }
        assert_eq!(
            next.len(),
            pulled,
            "push and pull disagree at level {level}"
        );

        out.push(LevelTiming {
            level,
            frontier_nnz,
            frontier_edges,
            unvisited,
            push_ms,
            pull_ms,
        });

        if next.is_empty() {
            break;
        }
        let vd = visited_vec.as_dense_mut().expect("dense by construction");
        for &i in &next {
            visited.set(i as usize);
            vd.set(i as usize, true);
        }
        unvisited -= next.len();
        let k = next.len();
        frontier = Vector::from_sparse(n, false, next, vec![true; k]);
    }
    out
}

impl LevelTiming {
    /// This level's time in direction `d`.
    #[must_use]
    pub fn ms(&self, d: Direction) -> f64 {
        match d {
            Direction::Push => self.push_ms,
            Direction::Pull => self.pull_ms,
        }
    }
}

/// The directions `policy` picks when fed the levels in order, as BFS
/// feeds it: the frontier's vertex count, `|V|`, the unvisited count and
/// the frontier's out-edges. BFS's levels do not depend on their
/// direction, so this is the rule's run on the same traversal.
#[must_use]
pub fn replay_policy(
    levels: &[LevelTiming],
    n: usize,
    mut policy: DirectionPolicy,
) -> Vec<Direction> {
    levels
        .iter()
        .map(|l| policy.update_edges(l.frontier_nnz, n, l.unvisited, || l.frontier_edges))
        .collect()
}

/// The §6.3 thresholds the direction study sweeps (the paper's 0.01 and
/// the neighbouring values it studied).
pub const HYSTERESIS_ALPHAS: [f64; 5] = [0.002, 0.005, 0.01, 0.02, 0.05];

/// One rule's row in the direction study: its summed time over every
/// source's levels, as a ratio to the per-level oracle, and its mean
/// switches per BFS.
#[derive(Clone, Debug)]
pub struct DirectionRow {
    pub rule: String,
    pub ms: f64,
    pub vs_oracle: f64,
    pub switches_per_bfs: f64,
}

/// The direction study on one graph: each source's levels timed by
/// [`per_level_study`], then the per-level oracle (each level's faster
/// arm), push-only, pull-only, the §6.3 hysteresis at each of
/// [`HYSTERESIS_ALPHAS`] and BFS's edge rule replayed over the same
/// levels. The oracle is the first row.
#[must_use]
pub fn direction_study(g: &Graph<bool>, sources: &[VertexId], repeats: usize) -> Vec<DirectionRow> {
    let n = g.n_vertices();
    let runs: Vec<Vec<LevelTiming>> = sources
        .iter()
        .map(|&s| per_level_study(g, s, repeats))
        .collect();
    let mut rules: Vec<(String, Option<DirectionPolicy>)> = vec![
        ("oracle".into(), None),
        (
            "push-only".into(),
            Some(DirectionPolicy::fixed(Direction::Push)),
        ),
        (
            "pull-only".into(),
            Some(DirectionPolicy::fixed(Direction::Pull)),
        ),
    ];
    for alpha in HYSTERESIS_ALPHAS {
        rules.push((
            format!("hysteresis α = {alpha}"),
            Some(DirectionPolicy::hysteresis(alpha)),
        ));
    }
    rules.push((
        "edge rule".into(),
        Some(DirectionPolicy::edges(g.csr().avg_degree())),
    ));
    let fastest = |l: &LevelTiming| {
        if l.push_ms <= l.pull_ms {
            Direction::Push
        } else {
            Direction::Pull
        }
    };
    let mut rows: Vec<DirectionRow> = rules
        .into_iter()
        .map(|(rule, policy)| {
            let (mut ms, mut switches) = (0.0, 0usize);
            for levels in &runs {
                let dirs = match &policy {
                    Some(p) => replay_policy(levels, n, p.clone()),
                    None => levels.iter().map(fastest).collect(),
                };
                ms += levels.iter().zip(&dirs).map(|(l, &d)| l.ms(d)).sum::<f64>();
                switches += dirs.windows(2).filter(|w| w[0] != w[1]).count();
            }
            DirectionRow {
                rule,
                ms,
                vs_oracle: 1.0,
                switches_per_bfs: switches as f64 / runs.len().max(1) as f64,
            }
        })
        .collect();
    let oracle = rows[0].ms.max(1e-12);
    for r in &mut rows {
        r.vs_oracle = r.ms / oracle;
    }
    rows
}

/// One thread-count sample of the scaling study: median kernel times and
/// edge throughputs for the pull (row, dense input) and push (column,
/// sparse input) matvec at a given lane count.
#[derive(Clone, Copy, Debug)]
pub struct ScalingSample {
    /// Lane count the kernels ran with.
    pub threads: usize,
    /// Median wall time of the unmasked pull matvec (dense input), ms.
    pub pull_ms: f64,
    /// Median wall time of the unmasked push matvec (sparse frontier), ms.
    pub push_ms: f64,
    /// Pull edge throughput, millions of traversed edges per second.
    pub pull_mteps: f64,
    /// Push edge throughput, MTEPS.
    pub push_mteps: f64,
}

/// The fixed workload both the thread-scaling study and the
/// `scaling_threads` criterion bench measure — one definition so the table,
/// the JSON artifact, and the bench can never drift onto different regimes.
pub struct ScalingInputs {
    /// Full dense input for the pull (row) kernel: touches every edge.
    pub dense_f: Vector<bool>,
    /// Random sparse frontier of `n / 20` vertices — a mid-BFS regime.
    pub sparse_f: Vector<bool>,
    /// Edges the push kernel expands (sum of frontier out-degrees).
    pub frontier_edges: usize,
    /// Edges the pull kernel touches (`nnz(A)`).
    pub pull_edges: usize,
    /// Row-kernel descriptor (transposed, early-exit off: pure throughput).
    pub desc_pull: Descriptor,
    /// Column-kernel descriptor (transposed).
    pub desc_push: Descriptor,
}

/// Build the scaling workload for `g` (deterministic in `seed`).
#[must_use]
pub fn scaling_inputs(g: &Graph<bool>, seed: u64) -> ScalingInputs {
    let n = g.n_vertices();
    let mut rng = StdRng::seed_from_u64(seed);
    let dense_f = Vector::Dense(DenseVector::from_values(vec![true; n], false));
    let ids = random_ids(n, (n / 20).max(1), &mut rng);
    let frontier_edges: usize = ids.iter().map(|&v| g.csr_t().degree(v as usize)).sum();
    let sparse_f = Vector::from_sparse(n, false, ids.clone(), vec![true; ids.len()]);
    ScalingInputs {
        dense_f,
        sparse_f,
        frontier_edges,
        pull_edges: g.n_edges(),
        desc_pull: Descriptor::new()
            .transpose(true)
            .force(Direction::Pull)
            .early_exit(false),
        desc_push: Descriptor::new().transpose(true).force(Direction::Push),
    }
}

/// Measure pull and push matvec throughput at each lane count in
/// `thread_counts` (via `rayon::with_num_threads`, the same override
/// `PUSH_PULL_THREADS` sets process-wide).
///
/// The workload is [`scaling_inputs`]. Because chunk layouts are
/// size-derived, every lane count computes the identical result; only the
/// wall clock moves.
#[must_use]
pub fn thread_scaling_study(
    g: &Graph<bool>,
    thread_counts: &[usize],
    repeats: usize,
    seed: u64,
) -> Vec<ScalingSample> {
    let ScalingInputs {
        dense_f,
        sparse_f,
        frontier_edges,
        pull_edges,
        desc_pull,
        desc_push,
    } = scaling_inputs(g, seed);

    thread_counts
        .iter()
        .map(|&threads| {
            rayon::with_num_threads(threads, || {
                let time_median = |f: &dyn Fn()| -> f64 {
                    f(); // warm-up (also first-touch of pool workers)
                    let times: Vec<f64> = (0..repeats.max(1)).map(|_| time_ms(f).1).collect();
                    median(&times)
                };
                let pull_ms = time_median(&|| {
                    let w: Vector<bool> =
                        mxv(None, BoolOrAnd, g, &dense_f, &desc_pull, None).expect("dims");
                    std::hint::black_box(w);
                });
                let push_ms = time_median(&|| {
                    let w: Vector<bool> =
                        mxv(None, BoolOrAnd, g, &sparse_f, &desc_push, None).expect("dims");
                    std::hint::black_box(w);
                });
                ScalingSample {
                    threads,
                    pull_ms,
                    push_ms,
                    pull_mteps: crate::mteps(pull_edges, pull_ms),
                    push_mteps: crate::mteps(frontier_edges, push_ms),
                }
            })
        })
        .collect()
}

/// One batch-size sample of the batched-traversal study: wall time of one
/// `k`-source batched BFS vs `k` independent runs of the fastest
/// single-source path, plus the batch's access profile and its per-source
/// push/pull switch decisions.
#[derive(Clone, Copy, Debug)]
pub struct BatchedSample {
    /// Sources in the batch.
    pub k: usize,
    /// Median wall time of the batched run, ms.
    pub batched_ms: f64,
    /// Median wall time of `k` sequential `bfs_with_opts` runs, ms.
    pub sequential_ms: f64,
    /// Levels the batch executed (max over sources).
    pub levels: usize,
    /// Matvec steps the batch resolved to push (column kernel).
    pub push_steps: u64,
    /// Matvec steps the batch resolved to pull (row kernel).
    pub pull_steps: u64,
    /// Full access profile of one counted batched run.
    pub accesses: CounterSnapshot,
    /// Median wall time of batched Brandes BC on the same sources, ms.
    pub bc_ms: f64,
}

/// The batched-frontier study: for each batch size in `ks`, run the
/// multi-source BFS (and batched BC) from `k` random sources, once counted
/// and `repeats` times timed, against `k` sequential runs of
/// `bfs_with_opts`, the fastest single-source path (fused, masked, early
/// exit, operand reuse) — so the speedup credits only the shared
/// traversal. Batch depths are identical to the sequential runs; only
/// wall clock and matrix traffic differ.
#[must_use]
pub fn batched_study(
    g: &Graph<bool>,
    ks: &[usize],
    repeats: usize,
    seed: u64,
) -> Vec<BatchedSample> {
    use graphblas_algo::bc::betweenness;
    use graphblas_algo::bfs::bfs_with_opts;
    use graphblas_algo::msbfs::{multi_source_bfs_with_opts, MsBfsOpts};

    let opts = MsBfsOpts::default();
    let solo = opts.solo();
    ks.iter()
        .map(|&k| {
            let sources = random_sources(g, k.max(1), seed ^ (k as u64).wrapping_mul(0x9e37));
            // Counted pass (once), then timed passes without counters.
            let c = AccessCounters::new();
            let counted = multi_source_bfs_with_opts(g, &sources, &opts, Some(&c));
            let snapshot = c.snapshot();

            let time_median = |f: &dyn Fn()| -> f64 {
                let times: Vec<f64> = (0..repeats.max(1)).map(|_| time_ms(f).1).collect();
                median(&times)
            };
            let batched_ms = time_median(&|| {
                std::hint::black_box(multi_source_bfs_with_opts(g, &sources, &opts, None));
            });
            let sequential_ms = time_median(&|| {
                for &s in &sources {
                    std::hint::black_box(bfs_with_opts(g, s, &solo, None));
                }
            });
            let bc_ms = time_median(&|| {
                std::hint::black_box(betweenness(g, &sources));
            });

            BatchedSample {
                k: sources.len(),
                batched_ms,
                sequential_ms,
                levels: counted.levels,
                push_steps: snapshot.push_steps,
                pull_steps: snapshot.pull_steps,
                accesses: snapshot,
                bc_ms,
            }
        })
        .collect()
}

/// Time a full BFS under given options, returning (ms, edges traversed).
#[must_use]
pub fn time_bfs(g: &Graph<bool>, sources: &[VertexId], opts: &BfsOpts) -> (f64, usize) {
    let mut total_ms = 0.0;
    let mut total_edges = 0usize;
    for &s in sources {
        let (r, ms) = time_ms(|| bfs_with_opts(g, s, opts, None));
        total_ms += ms;
        total_edges += r
            .depths
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d >= 0)
            .map(|(v, _)| g.csr().degree(v))
            .sum::<usize>();
    }
    (total_ms, total_edges)
}

/// Pick `count` random sources that are not isolated vertices.
#[must_use]
pub fn random_sources(g: &Graph<bool>, count: usize, seed: u64) -> Vec<VertexId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.n_vertices();
    let mut out = Vec::with_capacity(count);
    let mut guard = 0usize;
    while out.len() < count && guard < count * 1000 {
        guard += 1;
        let v = rng.gen_range(0..n);
        if g.csr().degree(v) > 0 {
            out.push(v as VertexId);
        }
    }
    assert!(!out.is_empty(), "graph has no non-isolated vertices");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_gen::rmat::{rmat, RmatParams};

    #[test]
    fn random_ids_distinct_sorted() {
        let mut rng = StdRng::seed_from_u64(1);
        for &k in &[0usize, 5, 100, 900] {
            let ids = random_ids(1000, k, &mut rng);
            assert_eq!(ids.len(), k);
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn sweep_validates_cost_model_shape() {
        let g = rmat(11, 16, RmatParams::default(), 2);
        let samples = matvec_variant_sweep(&g, &[100, 1000], 1, 3);
        assert_eq!(samples.len(), 2);
        // Row unmasked: matrix accesses equal nnz(A), independent of sweep.
        assert_eq!(samples[0].row_accesses.matrix, g.n_edges() as u64);
        assert_eq!(samples[1].row_accesses.matrix, g.n_edges() as u64);
        // Row masked: accesses grow with nnz(m).
        assert!(samples[1].row_masked_accesses.matrix > samples[0].row_masked_accesses.matrix);
        // Col: accesses grow with nnz(f).
        assert!(samples[1].col_accesses.matrix > samples[0].col_accesses.matrix);
        // Col masked does NOT reduce matrix accesses vs col (Table 1).
        assert_eq!(
            samples[1].col_masked_accesses.matrix,
            samples[1].col_accesses.matrix
        );
    }

    #[test]
    fn per_level_study_partitions_vertices() {
        let g = rmat(10, 16, RmatParams::default(), 7);
        let levels = per_level_study(&g, 0, 1);
        assert!(!levels.is_empty());
        let frontier_sum: usize = levels.iter().map(|l| l.frontier_nnz).sum();
        // Frontier sizes over all levels = reached vertex count.
        let reached = graphblas_baselines::textbook::bfs_serial(&g, 0)
            .iter()
            .filter(|&&d| d >= 0)
            .count();
        assert_eq!(frontier_sum, reached);
        // Unvisited is strictly decreasing until the last level.
        assert!(levels.windows(2).all(|w| w[0].unvisited >= w[1].unvisited));
    }

    #[test]
    fn edge_rule_replay_takes_default_bfs_directions() {
        // The direction study replays the edge rule offline over timed
        // levels; it must make exactly default BFS's decisions.
        let graphs = [
            rmat(12, 16, RmatParams::default(), 4),
            graphblas_gen::grid::road_mesh(40, 40, graphblas_gen::grid::RoadParams::default(), 3),
        ];
        for g in &graphs {
            let n = g.n_vertices();
            for source in [0, 31] {
                let levels = per_level_study(g, source, 1);
                let policy = DirectionPolicy::edges(g.csr().avg_degree());
                let replayed = replay_policy(&levels, n, policy);
                let r = bfs_with_opts(g, source, &BfsOpts::default().traced(), None);
                let ran: Vec<Direction> = r.trace.iter().map(|t| t.direction).collect();
                assert_eq!(replayed, ran, "n = {n}, source {source}");
            }
        }
        let rows = direction_study(&graphs[0], &[0, 31], 1);
        let oracle = &rows[0];
        assert_eq!(oracle.rule, "oracle");
        assert!(
            rows.iter().all(|r| r.ms >= oracle.ms * (1.0 - 1e-9)),
            "{rows:?}"
        );
        assert_eq!(rows.len(), 4 + HYSTERESIS_ALPHAS.len());
    }

    #[test]
    fn scaling_study_reports_each_thread_count() {
        let g = rmat(9, 8, RmatParams::default(), 5);
        let samples = thread_scaling_study(&g, &[1, 2], 1, 42);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].threads, 1);
        assert_eq!(samples[1].threads, 2);
        for s in &samples {
            assert!(s.pull_ms >= 0.0 && s.push_ms >= 0.0);
            assert!(s.pull_mteps >= 0.0 && s.push_mteps >= 0.0);
        }
    }

    #[test]
    fn batched_study_reports_each_k() {
        let g = rmat(9, 8, RmatParams::default(), 5);
        let samples = batched_study(&g, &[1, 4], 1, 42);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].k, 1);
        assert_eq!(samples[1].k, 4);
        for s in &samples {
            assert!(s.batched_ms >= 0.0 && s.sequential_ms >= 0.0 && s.bc_ms >= 0.0);
            assert!(s.levels > 0);
            assert_eq!(
                s.push_steps + s.pull_steps,
                s.accesses.push_steps + s.accesses.pull_steps
            );
            assert!(s.push_steps + s.pull_steps > 0, "every level is a decision");
        }
    }

    #[test]
    fn time_bfs_reports_edges() {
        let g = rmat(9, 8, RmatParams::default(), 5);
        let sources = random_sources(&g, 2, 3);
        let (ms, edges) = time_bfs(&g, &sources, &BfsOpts::default());
        assert!(ms >= 0.0);
        assert!(edges > 0);
    }
}
