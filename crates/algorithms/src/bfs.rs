//! Direction-optimized BFS — Algorithm 1 of the paper.
//!
//! ```text
//! procedure GrB_BFS(Vector v, Graph A, Source s)
//!   f(s) ← 1; v ← 0; d ← 1
//!   while c > 0:
//!     v ← f × d + v          ▷ GrB_assign
//!     f ← Aᵀf .∗ ¬v          ▷ GrB_mxv   (push OR pull — backend decides)
//!     c ← Σ f(i)             ▷ GrB_reduce
//!     d ← d + 1
//! ```
//!
//! The whole point of the paper is that this *one* expression covers both
//! traversal directions; everything interesting happens in the options:
//!
//! * **change of direction** — each level's direction comes from the edge
//!   rule ([`DirectionPolicy::edges`]): a growing push frontier turns to
//!   pull once its out-edges `m_f` exceed both `d̄·|unvisited| / 24` (the
//!   edges a pull would scan, over α) and `|V| / 8`, and a shrinking pull
//!   frontier turns back below `|V| / 24` vertices. `m_f` is summed over
//!   the frontier's ids only on growing push levels, the only ones that
//!   can switch; `|unvisited|` is the count the run keeps anyway. The
//!   paper's §6.3 rule (`nnz(f)/|V|` against `α = β = 0.01`) saw neither
//!   side's edges: it pulled road-mesh frontiers just over 1% of `|V|`
//!   that a push expands an order of magnitude faster, and pushed kron's
//!   hub burst. Off ⇒ push-only.
//! * **masking** — `¬v` passed as a kernel mask; off ⇒ unmasked matvec
//!   followed by an elementwise filter. A pull level reads the unvisited
//!   rows straight from the visited bitmap, 64 per word, so the run keeps
//!   no list of unvisited vertices (the §3.2 "list of zeroes") and pays
//!   no compaction before a pull.
//! * **early-exit** — pull rows stop at the first frontier parent.
//! * **operand reuse** — pull iterations feed the dense *visited* vector as
//!   the input (`Aᵀv .∗ ¬v`), so push→pull switches skip the sparse→dense
//!   frontier conversion (§5.4, Gunrock's trick).
//! * **structure-only** — the Boolean semiring ignores matrix values
//!   (§5.5), so a push level is the claim kernel: each frontier edge tests
//!   `¬v`, claims its unvisited endpoint in a bit set the run allocates
//!   once, and only the level's discoveries are sorted. With masking, a
//!   push level does no `O(M)` work.
//!
//! [`BfsOpts::ladder`] reproduces Table 2's cumulative configurations.
//!
//! By default each level runs as a **fused pipeline**
//! ([`graphblas_core::fused::FusedMxv`]): the masked matvec, the depth
//! `apply`, and the `assign` into the depth array execute as one kernel
//! pass with no intermediate frontier-product vector. [`BfsOpts::fused`]
//! toggles back to the separate-operation composition; the two are
//! bit-identical in results *and* access counters (pinned by
//! `tests/fused_pipelines.rs`); fusion just skips the intermediate
//! vector.

use graphblas_core::descriptor::{Descriptor, Direction};
use graphblas_core::mask::Mask;
use graphblas_core::ops::{BoolOrAnd, BoolStructure, Semiring};
use graphblas_core::vector::Vector;
use graphblas_core::vector_ops::filter_by_mask;
use graphblas_core::{mxv, run_guarded, DirectionPolicy, ExecLimits, FusedMxv, GrbResult};
use graphblas_matrix::{Graph, VertexId};
use graphblas_primitives::counters::AccessCounters;
use graphblas_primitives::{AtomicBitVec, BitVec};
use std::time::Instant;

/// Depth label for unreached vertices (matches `graphblas_baselines`).
pub const UNREACHED: i32 = -1;

/// Per-optimization switches; defaults enable everything (the "This Work"
/// configuration of Figure 7).
#[derive(Clone, Copy, Debug)]
pub struct BfsOpts {
    /// Optimization 1 (§5.1): push↔pull switching. Off ⇒ push-only.
    pub change_of_direction: bool,
    /// Optimization 2 (§5.2): `¬v` as a kernel-level mask. Pull levels
    /// find their unvisited rows by scanning the visited bitmap's words;
    /// push levels test `¬v` on each expanded edge.
    pub masking: bool,
    /// Optimization 3 (§5.3): pull rows stop at the first frontier parent.
    pub early_exit: bool,
    /// Optimization 4 (§5.4): pull input is the visited vector.
    pub operand_reuse: bool,
    /// Optimization 5 (§5.5): run the pattern-only `BoolStructure`
    /// semiring instead of `BoolOrAnd`; its constant product makes push
    /// levels claim unvisited vertices instead of sorting every expanded
    /// edge.
    pub structure_only: bool,
    /// Force every iteration into one direction (Figs. 5–6 per-direction
    /// studies). Overrides `change_of_direction`.
    pub force: Option<Direction>,
    /// Record per-iteration telemetry (adds two timer reads per level).
    pub record_trace: bool,
    /// Run each level as one fused mxv·apply·assign pass (default) instead
    /// of the separate-operation composition. Orthogonal to the five paper
    /// optimizations: results and access counters are bit-identical either
    /// way.
    pub fused: bool,
    /// Execution limits (deadline, work budget, bytes budget) enforced by
    /// [`try_bfs_with_opts`]. The infallible entry points ignore this
    /// field — they cannot surface an abort.
    pub limits: ExecLimits,
}

impl Default for BfsOpts {
    fn default() -> Self {
        Self {
            change_of_direction: true,
            masking: true,
            early_exit: true,
            operand_reuse: true,
            structure_only: true,
            force: None,
            record_trace: false,
            fused: true,
            limits: ExecLimits::none(),
        }
    }
}

impl BfsOpts {
    /// Everything off: the push-only, unmasked, key-value-sort
    /// linear-algebra BFS — Table 2's "Baseline" row.
    #[must_use]
    pub fn baseline() -> Self {
        Self {
            change_of_direction: false,
            masking: false,
            early_exit: false,
            operand_reuse: false,
            structure_only: false,
            force: None,
            record_trace: false,
            fused: true,
            limits: ExecLimits::none(),
        }
    }

    /// Builder: toggle the fused pipeline (see [`BfsOpts::fused`]).
    #[must_use]
    pub fn fused(mut self, on: bool) -> Self {
        self.fused = on;
        self
    }

    /// Table 2's cumulative optimization ladder, in paper order. Each row
    /// adds one optimization on top of all previous ones.
    #[must_use]
    pub fn ladder() -> Vec<(&'static str, Self)> {
        let mut cfg = Self::baseline();
        let mut out = vec![("Baseline", cfg)];
        cfg.structure_only = true;
        out.push(("Structure only", cfg));
        cfg.change_of_direction = true;
        out.push(("Change of direction", cfg));
        cfg.masking = true;
        out.push(("Masking", cfg));
        cfg.early_exit = true;
        out.push(("Early exit", cfg));
        cfg.operand_reuse = true;
        out.push(("Operand reuse", cfg));
        out
    }

    /// Builder: force a direction for every iteration.
    #[must_use]
    pub fn forced(mut self, d: Direction) -> Self {
        self.force = Some(d);
        self
    }

    /// Builder: enable per-iteration telemetry.
    #[must_use]
    pub fn traced(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Builder: set the execution limits [`try_bfs_with_opts`] enforces.
    #[must_use]
    pub fn limits(mut self, l: ExecLimits) -> Self {
        self.limits = l;
        self
    }
}

/// One BFS level's telemetry (feeds Figures 5 and 6).
#[derive(Clone, Copy, Debug)]
pub struct IterRecord {
    /// 1-based BFS level.
    pub level: usize,
    /// Kernel family this level ran.
    pub direction: Direction,
    /// `nnz(f)` entering the level.
    pub frontier_nnz: usize,
    /// Unvisited vertex count entering the level (`nnz(¬v)`).
    pub unvisited: usize,
    /// Wall time of the level's matvec + bookkeeping.
    pub micros: u128,
}

/// Output of a BFS run.
#[derive(Clone, Debug)]
pub struct BfsResult {
    /// Per-vertex depth; [`UNREACHED`] where not reachable.
    pub depths: Vec<i32>,
    /// Number of levels executed.
    pub levels: usize,
    /// Per-level telemetry (empty unless `record_trace`).
    pub trace: Vec<IterRecord>,
}

impl BfsResult {
    /// Vertices reached (including the source).
    #[must_use]
    pub fn reached(&self) -> usize {
        self.depths.iter().filter(|&&d| d != UNREACHED).count()
    }
}

/// BFS with all optimizations enabled.
///
/// ```
/// use graphblas_algo::bfs::bfs;
/// use graphblas_matrix::{Coo, Graph};
///
/// // Path 0 – 1 – 2 (undirected).
/// let mut coo = Coo::new(3, 3);
/// coo.push(0, 1, true);
/// coo.push(1, 2, true);
/// coo.clean_undirected();
/// let g = Graph::from_coo(&coo);
///
/// let r = bfs(&g, 0);
/// assert_eq!(r.depths, vec![0, 1, 2]);
/// assert_eq!(r.reached(), 3);
/// ```
#[must_use]
pub fn bfs(g: &Graph<bool>, source: VertexId) -> BfsResult {
    bfs_with_opts(g, source, &BfsOpts::default(), None)
}

/// BFS with explicit options and optional access counters.
#[must_use]
pub fn bfs_with_opts(
    g: &Graph<bool>,
    source: VertexId,
    opts: &BfsOpts,
    counters: Option<&AccessCounters>,
) -> BfsResult {
    dispatch_bfs(g, source, opts, counters).expect("unlimited BFS with verified dims cannot abort")
}

/// BFS under the options' [`ExecLimits`], with full fault isolation: a
/// tripped deadline or budget, or a panicking worker chunk, surfaces as a
/// typed [`GrbError`](graphblas_core::GrbError) with counters rolled back
/// to their entry snapshot, so an immediate retry is bit-identical to a
/// fresh run.
pub fn try_bfs_with_opts(
    g: &Graph<bool>,
    source: VertexId,
    opts: &BfsOpts,
    counters: Option<&AccessCounters>,
) -> GrbResult<BfsResult> {
    run_guarded(counters, &opts.limits, |c| dispatch_bfs(g, source, opts, c))
}

/// The direction policy a BFS under `opts` runs on an operand of average
/// degree `avg_degree`: the forced direction, the edge rule, or push-only
/// with change of direction off. A BFS lane runs the same policy.
pub(crate) fn bfs_policy(opts: &BfsOpts, avg_degree: f64) -> DirectionPolicy {
    match opts.force {
        Some(d) => DirectionPolicy::fixed(d),
        None if opts.change_of_direction => DirectionPolicy::edges(avg_degree),
        None => DirectionPolicy::fixed(Direction::Push),
    }
}

pub(crate) fn dispatch_bfs(
    g: &Graph<bool>,
    source: VertexId,
    opts: &BfsOpts,
    counters: Option<&AccessCounters>,
) -> GrbResult<BfsResult> {
    if opts.structure_only {
        bfs_loop(g, source, opts, BoolStructure, counters)
    } else {
        bfs_loop(g, source, opts, BoolOrAnd, counters)
    }
}

fn bfs_loop<S>(
    g: &Graph<bool>,
    source: VertexId,
    opts: &BfsOpts,
    semiring: S,
    counters: Option<&AccessCounters>,
) -> GrbResult<BfsResult>
where
    S: Semiring<bool, bool, bool>,
{
    let n = g.n_vertices();
    assert!((source as usize) < n, "source out of range");

    let mut depths = vec![UNREACHED; n];
    depths[source as usize] = 0;
    let mut visited = BitVec::new(n);
    visited.set(source as usize);
    // Dense visited vector maintained for operand reuse (cheap: one write
    // per discovered vertex; passed by reference, never cloned).
    let mut visited_vec: Vector<bool> = Vector::new_dense(n, false);
    visited_vec
        .as_dense_mut()
        .expect("dense by construction")
        .set(source as usize, true);
    let mut unvisited_count = n - 1;
    // The structure-only push kernel's claim set, lent to every masked
    // push level: allocated once here, handed back all-clear by each level.
    let claims = (opts.masking && semiring.product_hint().is_some()).then(|| AtomicBitVec::new(n));

    let mut f: Vector<bool> = Vector::singleton(n, false, source, true);
    let mut frontier_nnz = 1usize;
    // Optimization 1's switching rule lives in graphblas_core; BFS only
    // chooses which policy variant runs.
    let csr = g.csr();
    let mut policy = bfs_policy(opts, csr.avg_degree());
    let mut level = 0usize;
    let mut trace = Vec::new();

    // One descriptor per direction, derived from the options. transpose =
    // true: Algorithm 1 multiplies by Aᵀ.
    let base_desc = Descriptor::new()
        .transpose(true)
        .early_exit(opts.early_exit);

    loop {
        let t0 = opts.record_trace.then(Instant::now);
        level += 1;

        // Optimization 1: the policy picks this level's direction, reading
        // the frontier's out-edges (the edges a push expands) only on a
        // level that could switch.
        let dir = policy.update_edges(frontier_nnz, n, unvisited_count, || {
            f.iter_explicit().map(|(i, _)| csr.degree(i as usize)).sum()
        });
        let desc = base_desc.force(dir);

        // Storage follows direction (the convert() of §6.3). With operand
        // reuse the pull input is the dense visited vector, so the frontier
        // itself never needs densifying.
        let use_reuse = dir == Direction::Pull && opts.operand_reuse;
        if !use_reuse {
            match dir {
                Direction::Push => f.make_sparse(),
                Direction::Pull => f.make_dense(),
            }
        }
        // With operand reuse the frontier is not an operand this level, so
        // its storage is left alone — the "free conversion" of §5.4.

        // Optimization 2's kernel mask (¬visited: a pull reads its
        // unvisited rows from the bit words, a push claims in the run's
        // claim set) and the §5.4 operand choice — with reuse, the pull
        // input is the dense visited vector (Aᵀv .∗ ¬v; f ⊂ v makes it
        // equivalent) — shared by both execution forms below.
        let mask = opts.masking.then(|| match (dir, &claims) {
            (Direction::Push, Some(set)) => Mask::complement(&visited).with_claim_set(set),
            _ => Mask::complement(&visited),
        });
        let input = if use_reuse { &visited_vec } else { &f };

        let new_count = if opts.fused {
            // One fused pass: masked mxv, the depth apply, and the assign
            // into `depths` execute inside the kernel — no intermediate
            // frontier-product vector is materialized.
            let mut pipe = FusedMxv::new(semiring, g, input)
                .descriptor(desc)
                .counters(counters);
            if let Some(m) = mask.as_ref() {
                pipe = pipe.mask(m);
            }
            let depth = level as i32;
            let staged = pipe.apply(move |_reached: bool| depth);
            let out = if opts.masking {
                // The mask guarantees unvisited outputs: always assign.
                staged.assign_into(&mut depths, |_, d| Some(d))
            } else {
                // Masking off: the Table 2 post-filter becomes the assign's
                // update rule — only unreached slots accept a depth.
                staged.assign_into(&mut depths, |old, d| (old == UNREACHED).then_some(d))
            }?;
            let vd = visited_vec.as_dense_mut().expect("dense by construction");
            for &i in &out.touched {
                debug_assert!(!visited.get(i as usize), "assigned a visited vertex");
                visited.set(i as usize);
                vd.set(i as usize, true);
            }
            let count = out.touched.len();
            if count > 0 {
                f = Vector::from_sparse(n, false, out.touched, vec![true; count]);
            }
            count
        } else {
            // Unfused composition: separate mxv, (optional) filter, and
            // assign loop — kept both as the Table 2 reference shape and as
            // the equivalence oracle the fused path is tested against.
            let w: Vector<bool> = match mask.as_ref() {
                Some(m) => mxv(Some(m), semiring, g, input, &desc, counters)?,
                None => {
                    let raw: Vector<bool> = mxv(None, semiring, g, input, &desc, counters)?;
                    filter_by_mask(&raw, &Mask::complement(&visited))
                }
            };

            // GrB_assign + GrB_reduce: record depths, update the visited set.
            let mut count = 0usize;
            {
                let vd = visited_vec.as_dense_mut().expect("dense by construction");
                for (i, _) in w.iter_explicit() {
                    let i = i as usize;
                    debug_assert!(!visited.get(i), "mask let a visited vertex through");
                    depths[i] = level as i32;
                    visited.set(i);
                    vd.set(i, true);
                    count += 1;
                }
            }
            f = w;
            count
        };
        unvisited_count -= new_count;

        if let Some(t0) = t0 {
            trace.push(IterRecord {
                level,
                direction: dir,
                frontier_nnz,
                unvisited: unvisited_count + new_count,
                micros: t0.elapsed().as_micros(),
            });
        }
        if new_count == 0 {
            break;
        }
        frontier_nnz = new_count;
    }

    Ok(BfsResult {
        depths,
        levels: level,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_baselines::textbook::bfs_serial;
    use graphblas_core::plan::EDGE_ALPHA;
    use graphblas_gen::grid::{road_mesh, RoadParams};
    use graphblas_gen::powerlaw::{chung_lu, PowerLawParams};
    use graphblas_gen::rmat::{rmat, RmatParams};
    use graphblas_gen::suite::dataset;
    use graphblas_matrix::Coo;

    fn check_against_oracle(g: &Graph<bool>, sources: &[u32], opts: &BfsOpts) {
        for &s in sources {
            let got = bfs_with_opts(g, s, opts, None);
            let expect = bfs_serial(g, s);
            assert_eq!(got.depths, expect, "source {s}, opts {opts:?}");
        }
    }

    #[test]
    fn default_opts_match_oracle_on_scale_free() {
        let g = rmat(12, 16, RmatParams::default(), 5);
        check_against_oracle(&g, &[0, 7, 1000], &BfsOpts::default());
    }

    #[test]
    fn default_opts_match_oracle_on_mesh() {
        let g = road_mesh(50, 50, RoadParams::default(), 6);
        check_against_oracle(&g, &[0, 1249, 2499], &BfsOpts::default());
    }

    #[test]
    fn every_ladder_rung_matches_oracle() {
        let g = rmat(11, 12, RmatParams::default(), 8);
        for (name, opts) in BfsOpts::ladder() {
            let got = bfs_with_opts(&g, 3, &opts, None);
            let expect = bfs_serial(&g, 3);
            assert_eq!(got.depths, expect, "ladder rung `{name}`");
        }
    }

    #[test]
    fn all_32_option_combinations_match_oracle() {
        // The five toggles are claimed separable: every combination must be
        // correct, not just the paper's ladder.
        let g = chung_lu(2048, 10, PowerLawParams::default(), 17);
        let expect = bfs_serial(&g, 11);
        for bits in 0u32..32 {
            let opts = BfsOpts {
                change_of_direction: bits & 1 != 0,
                masking: bits & 2 != 0,
                early_exit: bits & 4 != 0,
                operand_reuse: bits & 8 != 0,
                structure_only: bits & 16 != 0,
                ..BfsOpts::baseline()
            };
            let got = bfs_with_opts(&g, 11, &opts, None);
            assert_eq!(got.depths, expect, "combination {bits:05b}");
        }
    }

    #[test]
    fn forced_push_and_pull_match_oracle() {
        let g = rmat(10, 16, RmatParams::default(), 2);
        let expect = bfs_serial(&g, 0);
        for d in [Direction::Push, Direction::Pull] {
            let got = bfs_with_opts(&g, 0, &BfsOpts::default().forced(d), None);
            assert_eq!(got.depths, expect, "forced {d:?}");
        }
    }

    #[test]
    fn trace_records_three_phase_shape() {
        // Scale-free graph: expect push → pull → push somewhere in the
        // trace (the Figure 5 phenomenon).
        let g = rmat(13, 24, RmatParams::default(), 9);
        let r = bfs_with_opts(&g, 0, &BfsOpts::default().traced(), None);
        assert!(!r.trace.is_empty());
        let dirs: Vec<Direction> = r.trace.iter().map(|t| t.direction).collect();
        assert_eq!(dirs[0], Direction::Push, "level 1 is push");
        assert!(
            dirs.contains(&Direction::Pull),
            "a pull phase must appear on a scale-free graph: {dirs:?}"
        );
        // Frontier counts in the trace match a sane BFS profile.
        let total_frontier: usize = r.trace.iter().map(|t| t.frontier_nnz).sum();
        assert_eq!(
            total_frontier,
            r.reached(),
            "frontiers partition reached vertices"
        );
        // Unvisited is non-increasing.
        assert!(r.trace.windows(2).all(|w| w[0].unvisited >= w[1].unvisited));
    }

    #[test]
    fn road_network_stays_push_only() {
        // Road frontiers are O(side) waves with O(side) out-edges, while
        // the edge rule's floor is |V|/8 = O(side²/8) edges: the floor is
        // never crossed, which is why road networks run push-only (§7.3).
        let g = road_mesh(200, 200, RoadParams::default(), 10);
        let r = bfs_with_opts(&g, 0, &BfsOpts::default().traced(), None);
        assert!(
            r.trace.iter().all(|t| t.direction == Direction::Push),
            "thin frontiers never cross the edge floor on a road mesh"
        );
        assert_eq!(r.depths, bfs_serial(&g, 0));
    }

    #[test]
    fn edge_rule_keeps_a_mid_mesh_road_source_all_push() {
        // roadnet (suite shrink 6, seed 1) from source 16715: its frontiers
        // reach 316–362 vertices, just over 1% of |V| = 31,329, so the §6.3
        // rule pulled 35 of its 194 levels, each scanning the unvisited
        // rows at 10–19× the cost of a push of the same frontier.
        let g = dataset("roadnet", 6, 1).expect("known dataset").graph;
        let r = bfs_with_opts(&g, 16715, &BfsOpts::default().traced(), None);
        assert_eq!(r.levels, 194);
        assert!(
            r.trace.iter().all(|t| t.direction == Direction::Push),
            "a road frontier's edges stay under the |V|/8 floor"
        );
    }

    #[test]
    fn edge_rule_pulls_a_hub_burst_under_one_percent_of_v() {
        // rmat(12, 16) from source 31: level 2's frontier holds 16 of 4,096
        // vertices (0.4%, under §6.3's 1%), but its 5,358 out-edges exceed
        // d̄·|unvisited|/α ≈ 4,027, so the edge rule pulls it.
        let g = rmat(12, 16, RmatParams::default(), 4);
        let n = g.n_vertices();
        let r = bfs_with_opts(&g, 31, &BfsOpts::default().traced(), None);
        assert_eq!(r.depths, bfs_serial(&g, 31));
        let (first, burst) = (&r.trace[0], &r.trace[1]);
        assert_eq!(first.direction, Direction::Push);
        assert!(
            burst.frontier_nnz * 100 < n,
            "{} of {n}",
            burst.frontier_nnz
        );
        let m_f: usize = (0..n)
            .filter(|&v| r.depths[v] == 1)
            .map(|v| g.csr().degree(v))
            .sum();
        let bound = g.csr().avg_degree() * burst.unvisited as f64 / EDGE_ALPHA;
        assert!(m_f as f64 > bound, "m_f {m_f} vs {bound}");
        assert_eq!(burst.direction, Direction::Pull, "the hub burst pulls");
    }

    #[test]
    fn isolated_source_terminates_immediately() {
        let mut coo = Coo::new(5, 5);
        coo.push(1, 2, true);
        coo.clean_undirected();
        let g = Graph::from_coo(&coo);
        let r = bfs(&g, 0);
        assert_eq!(r.reached(), 1);
        assert_eq!(r.depths[0], 0);
        assert_eq!(r.levels, 1);
    }

    #[test]
    fn directed_graph_bfs_follows_edge_direction() {
        // 0 -> 1 -> 2, plus 3 -> 0: from 0 only {0,1,2} reachable.
        let mut coo = Coo::new(4, 4);
        for &(u, v) in &[(0u32, 1u32), (1, 2), (3, 0)] {
            coo.push(u, v, true);
        }
        let g = Graph::from_coo(&coo);
        let r = bfs(&g, 0);
        assert_eq!(r.depths, vec![0, 1, 2, UNREACHED]);
        // And pull must agree on the directed graph too.
        let pulled = bfs_with_opts(&g, 0, &BfsOpts::default().forced(Direction::Pull), None);
        assert_eq!(pulled.depths, r.depths);
    }

    #[test]
    fn counters_show_masking_beats_unmasked_pull() {
        // Pull-only BFS with and without masking: the masked variant must
        // touch far fewer matrix elements (Table 1's O(dM) vs O(d·nnz(m))).
        let g = rmat(12, 16, RmatParams::default(), 4);
        let run = |masking: bool| {
            let c = AccessCounters::new();
            let opts = BfsOpts {
                masking,
                ..BfsOpts::default()
            }
            .forced(Direction::Pull);
            let _ = bfs_with_opts(&g, 0, &opts, Some(&c));
            c.snapshot().matrix
        };
        let masked = run(true);
        let unmasked = run(false);
        assert!(
            masked * 2 < unmasked,
            "masking must cut matrix traffic: {masked} vs {unmasked}"
        );
    }

    #[test]
    fn edge_rule_matches_oracle_and_stays_competitive() {
        // Default BFS must stay exact, and its charged accesses may not
        // lose to the better of the two fixed directions by more than 10%:
        // on a sparse scale-free graph and on a dense Erdős graph (average
        // degree ≈ 64).
        let graphs = [
            rmat(12, 16, RmatParams::default(), 4),
            graphblas_gen::erdos::erdos_renyi(256, 8192, 5),
        ];
        for g in &graphs {
            let expect = bfs_serial(g, 0);
            let run = |opts: BfsOpts| {
                let c = AccessCounters::new();
                let r = bfs_with_opts(g, 0, &opts, Some(&c));
                (r, c.total())
            };
            let (got, rule_total) = run(BfsOpts::default());
            assert_eq!(got.depths, expect, "default BFS must stay exact");
            let (_, push_total) = run(BfsOpts::default().forced(Direction::Push));
            let (_, pull_total) = run(BfsOpts::default().forced(Direction::Pull));
            let best_fixed = push_total.min(pull_total);
            assert!(
                rule_total as f64 <= best_fixed as f64 * 1.1,
                "edge rule lost to best fixed direction on n = {}: {rule_total} vs {best_fixed}",
                g.n_vertices()
            );
        }
    }
}
