//! The execution planner: direction × storage format as one decision.
//!
//! The paper resolves *direction* from the input vector's storage (§6.3);
//! SuiteSparse:GraphBLAS and GraphBLAST additionally resolve the *matrix
//! format* per operation, and the nonblocking-GraphBLAS line of work
//! argues this selection belongs in a planner rather than in each
//! algorithm. This module holds every rule that decides "which kernel,
//! over which store":
//!
//! * **Per call** — [`resolve_plan`]: what `mxv` and the fused pipeline
//!   apply when handed a descriptor. The direction follows the input's
//!   storage ([`resolve_direction`]) unless forced, and the format follows
//!   [`auto_format`] unless forced. [`resolve_format_batch`] is the
//!   `mxv_batch` variant, whose rows pick their directions separately.
//! * **Per traversal** — [`Planner`]: what the single-source loops (BFS,
//!   parent BFS, CC, SSSP) thread through their levels. It feeds each
//!   level's activity to a [`DirectionPolicy`] (the §6.3 hysteresis and
//!   its variants) and takes the store from [`auto_format`], except on the
//!   first level after a direction change, which keeps the previous
//!   level's store. That one hold damps both decisions: a single bounced
//!   level never pays a format conversion.
//!
//! The format rule (documented in `docs/ARCHITECTURE.md`):
//!
//! 1. pull over an operand whose row occupancy is
//!    `< `[`HYPERSPARSE_OCCUPANCY`] ⇒ **DCSR** — full scans then touch
//!    only the non-empty rows;
//! 2. else **CSR**.
//!
//! The bitmap store is served only under `FormatChoice::Force(Bitmap)`,
//! where the same scalar kernels read its CSR rows.
//!
//! Formats never change results or access counters — the kernels are
//! generic over [`graphblas_matrix::RowAccess`] and charge identically on
//! every backend (`tests/prop_core.rs` pins values *and* counters against
//! the `Force(Csr)` oracle) — so the planner is free to chase wall clock.

use crate::descriptor::{Descriptor, Direction, DirectionChoice, FormatChoice};
use crate::ops::Scalar;
use crate::vector::Vector;
use graphblas_matrix::{Graph, StorageFormat};
use graphblas_primitives::counters::AccessCounters;

/// Row-occupancy threshold below which an operand counts as hypersparse
/// and the planner selects DCSR (1/8 of rows non-empty).
pub const HYPERSPARSE_OCCUPANCY: f64 = 0.125;

/// Calibration constants of the measured push/pull cost model — the
/// per-edge charge weights that turn the raw measurements of
/// [`CostModelInputs`] into comparable work estimates:
///
/// * `pushwork = push_edge · nnz(A(:, f))` — each expanded edge pays its
///   matrix read plus the radix-sort passes of the sort-based merge;
/// * `pullwork = pull_edge · d · |unvisited|` — each unvisited row pays an
///   average row scan.
///
/// Defaults come from the charged-access shape of the kernels themselves
/// (an expanded push edge costs its read + ~3 radix passes).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostConstants {
    /// Work per expanded push edge (matrix read + sort traffic).
    pub push_edge: f64,
    /// Work per examined pull edge on a row scan.
    pub pull_edge: f64,
}

impl Default for CostConstants {
    fn default() -> Self {
        Self {
            push_edge: 4.0,
            pull_edge: 1.0,
        }
    }
}

/// Charge the `bitmap_degrades` telemetry event when a format choice asked
/// for the bitmap store but the planner had to serve another format — the
/// silent `MAX_BITS` degrade of [`Graph::effective_format`] made visible.
/// Every plan resolution that degrades charges once.
pub fn note_bitmap_degrade(
    choice: FormatChoice,
    resolved: StorageFormat,
    counters: Option<&AccessCounters>,
) {
    if choice == FormatChoice::Force(StorageFormat::Bitmap) && resolved != StorageFormat::Bitmap {
        if let Some(c) = counters {
            c.add_bitmap_degrade();
        }
    }
}

/// A resolved execution plan: which kernel face runs, over which storage
/// backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecPlan {
    /// The kernel face (push = column-based, pull = row-based).
    pub direction: Direction,
    /// The storage format the face's operand will be served in.
    pub format: StorageFormat,
}

/// Which physical orientation the chosen kernel face iterates rows of:
/// pull walks rows of the operand, push walks rows of its transpose.
/// Returns the `transposed` flag for [`Graph::store`].
#[must_use]
pub fn operand_side(transpose: bool, direction: Direction) -> bool {
    match direction {
        Direction::Pull => transpose,
        Direction::Push => !transpose,
    }
}

/// The memoryless format rule for one orientation of a graph, given the
/// resolved direction — the [`FormatChoice::Auto`] arm of
/// [`resolve_plan`].
#[must_use]
pub fn auto_format<A: Scalar>(
    graph: &Graph<A>,
    transpose: bool,
    direction: Direction,
) -> StorageFormat {
    let side = operand_side(transpose, direction);
    // DCSR only pays off where a full scan happens — the pull face, whose
    // unmasked kernels skip the empty rows. The push face looks up only
    // frontier-selected rows, where CSR's O(1) `row_ptr` beats DCSR's
    // per-row binary search, so hypersparsity never steers push off CSR.
    if direction == Direction::Pull && graph.row_occupancy(side) < HYPERSPARSE_OCCUPANCY {
        StorageFormat::Dcsr
    } else {
        StorageFormat::Csr
    }
}

/// The batched variant of [`auto_format`]: one format serves a whole
/// `mxv_batch` call whose rows may split across both kernel faces, so
/// only the direction-independent hypersparse rule applies (DCSR when
/// *both* orientations are hypersparse, since push and pull rows iterate
/// opposite orientations).
#[must_use]
pub fn auto_format_batch<A: Scalar>(graph: &Graph<A>, transpose: bool) -> StorageFormat {
    let both_hypersparse = graph.row_occupancy(transpose) < HYPERSPARSE_OCCUPANCY
        && graph.row_occupancy(!transpose) < HYPERSPARSE_OCCUPANCY;
    if both_hypersparse {
        StorageFormat::Dcsr
    } else {
        StorageFormat::Csr
    }
}

/// The direction a given call would take under the descriptor: the forced
/// one, or the §6.3 storage rule (sparse input → push, dense → pull).
#[must_use]
pub fn resolve_direction<X: Scalar>(v: &Vector<X>, desc: &Descriptor) -> Direction {
    match desc.direction {
        DirectionChoice::Force(d) => d,
        DirectionChoice::Auto => {
            if v.is_sparse() {
                Direction::Push
            } else {
                Direction::Pull
            }
        }
    }
}

/// Resolve one face's format under a [`FormatChoice`]: a forced format
/// (with an infeasible bitmap degraded to CSR, so the plan always names
/// what executes) or the [`auto_format`] rule. The lane kernels of
/// [`crate::ops_mxv_lanes`] resolve each of their two faces with it.
#[must_use]
pub fn resolve_format<A: Scalar>(
    graph: &Graph<A>,
    transpose: bool,
    direction: Direction,
    choice: FormatChoice,
) -> StorageFormat {
    match choice {
        FormatChoice::Force(f) => graph.effective_format(operand_side(transpose, direction), f),
        FormatChoice::Auto => auto_format(graph, transpose, direction),
    }
}

/// Resolve the full execution plan for a `mxv`-shaped call: the direction
/// by [`resolve_direction`], the format by the descriptor's
/// [`FormatChoice`].
#[must_use]
pub fn resolve_plan<A: Scalar, X: Scalar>(
    graph: &Graph<A>,
    v: &Vector<X>,
    desc: &Descriptor,
) -> ExecPlan {
    let direction = resolve_direction(v, desc);
    let format = resolve_format(graph, desc.transpose, direction, desc.format);
    ExecPlan { direction, format }
}

/// Resolve the format for a batched call (`mxv_batch`), whose per-row
/// directions are decided separately.
#[must_use]
pub fn resolve_format_batch<A: Scalar>(graph: &Graph<A>, desc: &Descriptor) -> StorageFormat {
    match desc.format {
        // Both faces may run; use the operand side for feasibility (the
        // orientations of a graph share their shape, so the check agrees).
        FormatChoice::Force(f) => graph.effective_format(desc.transpose, f),
        FormatChoice::Auto => auto_format_batch(graph, desc.transpose),
    }
}

/// How a [`DirectionPolicy`] reacts to the per-iteration activity ratio.
#[derive(Clone, Copy, Debug, PartialEq)]
enum PolicyMode {
    /// §6.3 hysteresis: switch push→pull while activity is rising above the
    /// threshold, pull→push while falling below it (`α = β`, as the paper).
    Hysteresis { threshold: f64 },
    /// §5.6 two-phase: switch push→pull once the threshold is crossed and
    /// stay there (SSSP's delta-set rule).
    TwoPhase { threshold: f64 },
    /// Memoryless: pull iff the ratio exceeds the threshold this iteration
    /// (Beamer's rule as used by Ligra, `|frontier ∪ its edges| > |E|/20`).
    Memoryless { threshold: f64 },
    /// Never switch.
    Fixed,
    /// Measured work comparison: `pushwork = c_push · nnz(frontier rows)`
    /// vs `pullwork = c_pull · d · |unvisited|`, the per-iteration rule of
    /// the paper's comparator engines. Fed through
    /// [`DirectionPolicy::update_measured`]; the ratio-only
    /// [`DirectionPolicy::update`] keeps the current direction (like
    /// [`PolicyMode::Fixed`]) because it lacks the measured inputs.
    CostModel { constants: CostConstants },
}

/// The measured per-iteration inputs of the `PolicyMode::CostModel`
/// rule: what the traversal actually knows about the next step's work.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModelInputs {
    /// Σ out-degree over the frontier's explicit vertices — exactly the
    /// edges a push step would expand (`nnz(A(:, f))`).
    pub frontier_edges: usize,
    /// Vertices not yet finished — the rows a masked pull step would scan.
    pub unvisited: usize,
    /// Average degree `d` of the operand, so `pullwork ≈ d · unvisited`.
    pub avg_degree: f64,
}

/// The workspace's one stateful push/pull switching rule (§6.3 and its
/// variants).
///
/// [`resolve_direction`] is the *storage→direction* rule `mxv` dispatches
/// on; `DirectionPolicy` is the *activity→direction* heuristic that decides
/// which kernel an iterative algorithm should steer toward next. The
/// single-source loops drive it through a [`Planner`]; the batched loops
/// (one policy per source row) and the Ligra-like / Gunrock-like
/// comparator engines drive it directly, so the Table 2 "change of
/// direction" ablation toggles exactly one rule.
///
/// `update` takes the iteration's *activity* (frontier nnz, delta-set size,
/// frontier-edge count — whatever the traversal's work measure is) and the
/// *capacity* it is measured against (|V| or |E|), and returns the
/// direction to use this iteration.
#[derive(Clone, Debug)]
pub struct DirectionPolicy {
    mode: PolicyMode,
    dir: Direction,
    last_activity: usize,
}

impl DirectionPolicy {
    /// §6.3 hysteresis starting from push (BFS-style traversals).
    #[must_use]
    pub fn hysteresis(threshold: f64) -> Self {
        Self::hysteresis_from(Direction::Push, threshold)
    }

    /// §6.3 hysteresis from an explicit starting direction (label
    /// propagation starts dense, hence pull).
    #[must_use]
    pub fn hysteresis_from(start: Direction, threshold: f64) -> Self {
        DirectionPolicy {
            mode: PolicyMode::Hysteresis { threshold },
            dir: start,
            last_activity: 0,
        }
    }

    /// §5.6 two-phase rule: push until the activity ratio first exceeds the
    /// threshold, pull forever after.
    #[must_use]
    pub fn two_phase(threshold: f64) -> Self {
        DirectionPolicy {
            mode: PolicyMode::TwoPhase { threshold },
            dir: Direction::Push,
            last_activity: 0,
        }
    }

    /// Memoryless threshold rule: pull exactly when `activity / capacity`
    /// exceeds the threshold (Beamer/Ligra's `> |E|/20` with
    /// `threshold = 1/20`).
    #[must_use]
    pub fn memoryless(threshold: f64) -> Self {
        DirectionPolicy {
            mode: PolicyMode::Memoryless { threshold },
            dir: Direction::Push,
            last_activity: 0,
        }
    }

    /// Pinned direction (the "change of direction off" ablation arm).
    #[must_use]
    pub fn fixed(dir: Direction) -> Self {
        DirectionPolicy {
            mode: PolicyMode::Fixed,
            dir,
            last_activity: 0,
        }
    }

    /// Measured cost-model rule, starting from push (frontiers start
    /// small). Drive it with [`DirectionPolicy::update_measured`].
    #[must_use]
    pub fn cost_model(constants: CostConstants) -> Self {
        DirectionPolicy {
            mode: PolicyMode::CostModel { constants },
            dir: Direction::Push,
            last_activity: 0,
        }
    }

    /// Feed this iteration's activity measure; returns the direction to use.
    pub fn update(&mut self, activity: usize, capacity: usize) -> Direction {
        let r = activity as f64 / capacity.max(1) as f64;
        match self.mode {
            PolicyMode::Hysteresis { threshold } => {
                let rising = activity >= self.last_activity;
                match self.dir {
                    Direction::Push if rising && r > threshold => self.dir = Direction::Pull,
                    Direction::Pull if !rising && r < threshold => self.dir = Direction::Push,
                    _ => {}
                }
            }
            PolicyMode::TwoPhase { threshold } => {
                if self.dir == Direction::Push && r > threshold {
                    self.dir = Direction::Pull;
                }
            }
            PolicyMode::Memoryless { threshold } => {
                self.dir = if r > threshold {
                    Direction::Pull
                } else {
                    Direction::Push
                };
            }
            PolicyMode::Fixed => {}
            // The ratio alone cannot price push against pull; hold the
            // direction until measured inputs arrive via update_measured.
            PolicyMode::CostModel { .. } => {}
        }
        self.last_activity = activity;
        self.dir
    }

    /// Feed measured work estimates. Under `PolicyMode::CostModel` this
    /// prices both faces directly — `pushwork = c_push · frontier_edges`
    /// against `pullwork = c_pull · d · unvisited` — and picks the cheaper
    /// one. Every other mode ignores the measurements and delegates to
    /// [`DirectionPolicy::update`], so loops can call this unconditionally.
    pub fn update_measured(
        &mut self,
        activity: usize,
        capacity: usize,
        inputs: CostModelInputs,
    ) -> Direction {
        if let PolicyMode::CostModel { constants } = self.mode {
            // Chaos hook: inflating the push-edge cost lets the fault
            // harness force direction flips without touching the graph.
            #[cfg(feature = "fault-injection")]
            let push_edge = constants.push_edge * graphblas_primitives::fault::cost_inflation();
            #[cfg(not(feature = "fault-injection"))]
            let push_edge = constants.push_edge;
            let pushwork = push_edge * inputs.frontier_edges as f64;
            let pullwork = constants.pull_edge * inputs.avg_degree * inputs.unvisited as f64;
            self.dir = if pushwork < pullwork {
                Direction::Push
            } else {
                Direction::Pull
            };
            self.last_activity = activity;
            self.dir
        } else {
            self.update(activity, capacity)
        }
    }

    /// The direction the last `update` settled on.
    #[must_use]
    pub fn current(&self) -> Direction {
        self.dir
    }
}

/// The per-traversal planner the single-source loops thread through their
/// levels: one [`DirectionPolicy`] for the kernel face, one
/// [`FormatChoice`] for the store, and the previous level's plan.
///
/// Every such loop multiplies by `Aᵀ` (descriptor `transpose = true`,
/// Algorithm 1) and measures its activity against `|V|`, so the planner
/// fixes both: stores are resolved for the transposed orientation and the
/// policy's capacity is the graph's vertex count.
///
/// [`Planner::next`] takes the direction from the policy. Under
/// [`FormatChoice::Auto`] the store is [`auto_format`]'s — DCSR for a
/// hypersparse pull, CSR otherwise — except on the first level after a
/// direction change, which keeps the previous level's store: matrix shape
/// is static, but the direction flaps at phase boundaries, and each format
/// change costs a one-time conversion, so a single bounced level never
/// pays for one — the format-side twin of §6.3's hysteresis. The hold can
/// only change a store on a graph whose pull face prefers DCSR. Under
/// [`FormatChoice::Force`] every level runs the forced store (an
/// infeasible bitmap degrades to CSR and charges `bitmap_degrades` once
/// per level).
#[derive(Clone, Debug)]
pub struct Planner {
    policy: DirectionPolicy,
    format: FormatChoice,
    last: Option<ExecPlan>,
}

impl Planner {
    /// A planner that has not planned a level yet.
    #[must_use]
    pub fn new(policy: DirectionPolicy, format: FormatChoice) -> Self {
        Self {
            policy,
            format,
            last: None,
        }
    }

    /// Plan the next level of a traversal over `graph`. `activity` feeds
    /// [`DirectionPolicy::update`] against a capacity of `|V|`;
    /// `measured`, when supplied, feeds
    /// [`DirectionPolicy::update_measured`] instead.
    pub fn next<A: Scalar>(
        &mut self,
        graph: &Graph<A>,
        activity: usize,
        measured: Option<CostModelInputs>,
        counters: Option<&AccessCounters>,
    ) -> ExecPlan {
        let capacity = graph.n_vertices();
        let direction = match measured {
            Some(inputs) => self.policy.update_measured(activity, capacity, inputs),
            None => self.policy.update(activity, capacity),
        };
        let format = match self.last {
            Some(prev) if self.format == FormatChoice::Auto && prev.direction != direction => {
                prev.format
            }
            _ => resolve_format(graph, true, direction, self.format),
        };
        note_bitmap_degrade(self.format, format, counters);
        let plan = ExecPlan { direction, format };
        self.last = Some(plan);
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_matrix::Coo;

    /// Dense 16-vertex clique: occupancy 1.0, degree 15 — CSR on both
    /// faces.
    fn dense_graph() -> Graph<bool> {
        let n = 16;
        let mut coo = Coo::new(n, n);
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                if u != v {
                    coo.push(u, v, true);
                }
            }
        }
        Graph::from_coo(&coo)
    }

    /// 3 non-empty rows embedded in 64 vertices: occupancy < 1/8.
    fn hypersparse_graph() -> Graph<bool> {
        let mut coo = Coo::new(64, 64);
        for &(u, v) in &[(0u32, 40u32), (1, 41), (2, 42)] {
            coo.push(u, v, true);
            coo.push(v, u, true);
        }
        Graph::from_coo(&coo)
    }

    /// A 64-vertex ring: full occupancy, degree 2 — CSR on both faces.
    fn ring_graph() -> Graph<bool> {
        let n = 64u32;
        let mut coo = Coo::new(n as usize, n as usize);
        for u in 0..n {
            coo.push(u, (u + 1) % n, true);
            coo.push((u + 1) % n, u, true);
        }
        Graph::from_coo(&coo)
    }

    #[test]
    fn auto_rule_picks_dcsr_for_hypersparse_pull_only() {
        let g = hypersparse_graph();
        assert_eq!(
            auto_format(&g, true, Direction::Pull),
            StorageFormat::Dcsr,
            "pull full scans win from the compressed row list"
        );
        assert_eq!(
            auto_format(&g, true, Direction::Push),
            StorageFormat::Csr,
            "push row lookups stay on O(1) CSR"
        );
        assert_eq!(auto_format_batch(&g, true), StorageFormat::Dcsr);
    }

    #[test]
    fn auto_rule_never_plans_the_bitmap_for_a_dense_pull() {
        let g = dense_graph();
        assert_eq!(auto_format(&g, true, Direction::Pull), StorageFormat::Csr);
        assert_eq!(auto_format(&g, true, Direction::Push), StorageFormat::Csr);
        assert_eq!(auto_format_batch(&g, true), StorageFormat::Csr);
    }

    #[test]
    fn resolve_plan_combines_direction_and_format() {
        let g = hypersparse_graph();
        let sparse = Vector::singleton(64, false, 0, true);
        let desc = Descriptor::new().transpose(true);
        let plan = resolve_plan(&g, &sparse, &desc);
        assert_eq!(plan.direction, Direction::Push);
        assert_eq!(plan.format, StorageFormat::Csr);

        let mut dense = sparse.clone();
        dense.make_dense();
        let plan = resolve_plan(&g, &dense, &desc);
        assert_eq!(plan.direction, Direction::Pull);
        assert_eq!(plan.format, StorageFormat::Dcsr);

        // A forced format wins over the auto rule.
        let forced = resolve_plan(&g, &dense, &desc.force_format(StorageFormat::Csr));
        assert_eq!(forced.format, StorageFormat::Csr);
    }

    #[test]
    fn operand_side_maps_face_to_orientation() {
        // BFS (transpose = true): pull walks Aᵀ rows, push walks A rows.
        assert!(operand_side(true, Direction::Pull));
        assert!(!operand_side(true, Direction::Push));
        assert!(!operand_side(false, Direction::Pull));
        assert!(operand_side(false, Direction::Push));
    }

    #[test]
    fn infeasible_bitmap_degrades_to_csr_everywhere() {
        // Allocation too large for a bitmap even under tiling: one row per
        // 64-row tile spans the full column range, so every tile plans a
        // full-width window — 2^13 tiles × 64 rows × 2^13 words = 2^38
        // bits > MAX_BITS, on both orientations (symmetric construction).
        // Force(Bitmap) must degrade identically in the plan and planner.
        let n = 1 << 19;
        let mut coo = Coo::new(n, n);
        for t in (0..n as u32).step_by(64) {
            coo.push(t, 0, true);
            coo.push(t, (n - 1) as u32, true);
            coo.push(0, t, true);
            coo.push((n - 1) as u32, t, true);
        }
        coo.dedup(|a, _| a);
        let g = Graph::from_coo(&coo);
        assert!(!g.bitmap_plan(true).feasible(), "construction over budget");
        assert!(!g.bitmap_plan(false).feasible(), "on both orientations");
        let desc = Descriptor::new()
            .transpose(true)
            .force_format(StorageFormat::Bitmap);
        let mut dense = Vector::singleton(n, false, 0, true);
        dense.make_dense();
        assert_eq!(resolve_plan(&g, &dense, &desc).format, StorageFormat::Csr);

        // The planner charges one degrade per degraded level, on either
        // face: pull serves the Aᵀ side, push the A side.
        let c = AccessCounters::new();
        let mut charged = 0;
        for face in [Direction::Pull, Direction::Push] {
            let mut p = Planner::new(
                DirectionPolicy::fixed(face),
                FormatChoice::Force(StorageFormat::Bitmap),
            );
            for _ in 0..3 {
                let plan = p.next(&g, 1, None, Some(&c));
                assert_eq!((plan.direction, plan.format), (face, StorageFormat::Csr));
                charged += 1;
                assert_eq!(c.snapshot().bitmap_degrades, charged, "one per level");
            }
        }
        // The mxv-level plan note (direct descriptor force) records too.
        note_bitmap_degrade(desc.format, StorageFormat::Csr, Some(&c));
        assert_eq!(c.snapshot().bitmap_degrades, 7);
        // A served bitmap (or a non-bitmap request) records nothing.
        note_bitmap_degrade(desc.format, StorageFormat::Bitmap, Some(&c));
        note_bitmap_degrade(FormatChoice::Auto, StorageFormat::Csr, Some(&c));
        assert_eq!(c.snapshot().bitmap_degrades, 7);
    }

    #[test]
    fn hysteresis_policy_switches_both_ways() {
        let mut p = DirectionPolicy::hysteresis(0.01);
        // Small rising frontier below threshold: stay push.
        assert_eq!(p.update(1, 1000), Direction::Push);
        assert_eq!(p.update(5, 1000), Direction::Push);
        // Rising above threshold: switch to pull.
        assert_eq!(p.update(100, 1000), Direction::Pull);
        // Still large: stay pull even while falling.
        assert_eq!(p.update(90, 1000), Direction::Pull);
        // Falling below threshold: back to push.
        assert_eq!(p.update(5, 1000), Direction::Push);
        // Small but *rising* below threshold: hysteresis keeps push.
        assert_eq!(p.update(8, 1000), Direction::Push);
        assert_eq!(p.current(), Direction::Push);
    }

    #[test]
    fn two_phase_policy_never_returns() {
        let mut p = DirectionPolicy::two_phase(0.01);
        assert_eq!(p.update(1, 1000), Direction::Push);
        assert_eq!(p.update(100, 1000), Direction::Pull);
        // Tiny delta set again — two-phase stays pull (§5.6).
        assert_eq!(p.update(1, 1000), Direction::Pull);
    }

    #[test]
    fn memoryless_policy_follows_ratio_exactly() {
        let mut p = DirectionPolicy::memoryless(1.0 / 20.0);
        assert_eq!(p.update(1, 1000), Direction::Push);
        assert_eq!(p.update(51, 1000), Direction::Pull);
        assert_eq!(p.update(50, 1000), Direction::Push, "boundary is strict >");
    }

    #[test]
    fn fixed_policy_ignores_activity() {
        let mut p = DirectionPolicy::fixed(Direction::Pull);
        assert_eq!(p.update(0, 10), Direction::Pull);
        assert_eq!(p.update(10, 10), Direction::Pull);
    }

    #[test]
    fn hysteresis_from_pull_handles_dense_start() {
        // CC starts with a dense (all-active) delta: first update must not
        // bounce to push even though the ratio is high.
        let mut p = DirectionPolicy::hysteresis_from(Direction::Pull, 0.01);
        assert_eq!(p.update(1000, 1000), Direction::Pull);
        // Delta collapses: falling below threshold switches to push.
        assert_eq!(p.update(3, 1000), Direction::Push);
    }

    #[test]
    fn planner_holds_the_store_for_one_level_after_a_flip() {
        let g = hypersparse_graph();
        // Memoryless at ½: activity |V| pulls, 0 pushes.
        let mut p = Planner::new(DirectionPolicy::memoryless(0.5), FormatChoice::Auto);
        let mut step = |pull: bool| p.next(&g, g.n_vertices() * usize::from(pull), None, None);
        let plan = |direction, format| ExecPlan { direction, format };
        use Direction::{Pull, Push};
        use StorageFormat::{Csr, Dcsr};
        assert_eq!(step(false), plan(Push, Csr), "first level adopts");
        assert_eq!(step(true), plan(Pull, Csr), "flip: store held");
        assert_eq!(step(true), plan(Pull, Dcsr), "second pull level");
        assert_eq!(step(false), plan(Push, Dcsr), "flip back: held");
        assert_eq!(step(false), plan(Push, Csr));
    }

    /// The two-consecutive debounce the planner's hold rule replaced: leave
    /// the current store only when the memoryless rule prefers the same
    /// other store on two consecutive levels.
    fn debounce_reference(prefs: &[StorageFormat]) -> Vec<StorageFormat> {
        let (mut current, mut pending) = (None, None);
        prefs
            .iter()
            .map(|&preferred| {
                let next = match current {
                    None => preferred,
                    Some(cur) if cur == preferred => {
                        pending = None;
                        cur
                    }
                    Some(_) if pending == Some(preferred) => {
                        pending = None;
                        preferred
                    }
                    Some(cur) => {
                        pending = Some(preferred);
                        cur
                    }
                };
                current = Some(next);
                next
            })
            .collect()
    }

    #[test]
    fn planner_hold_rule_equals_two_consecutive_debounce() {
        // The two graphs give the auto rule both pull preferences (DCSR,
        // CSR; push is always CSR). Every direction sequence of 1–10
        // levels must yield the same stores as the reference debounce.
        for g in [hypersparse_graph(), ring_graph()] {
            for len in 1..=10u32 {
                for bits in 0..(1u32 << len) {
                    let dirs: Vec<Direction> = (0..len)
                        .map(|i| {
                            if bits >> i & 1 == 1 {
                                Direction::Pull
                            } else {
                                Direction::Push
                            }
                        })
                        .collect();
                    let prefs: Vec<StorageFormat> =
                        dirs.iter().map(|&d| auto_format(&g, true, d)).collect();
                    let mut p = Planner::new(DirectionPolicy::memoryless(0.5), FormatChoice::Auto);
                    let got: Vec<StorageFormat> = dirs
                        .iter()
                        .map(|&d| {
                            let activity = g.n_vertices() * usize::from(d == Direction::Pull);
                            let plan = p.next(&g, activity, None, None);
                            assert_eq!(plan.direction, d);
                            plan.format
                        })
                        .collect();
                    assert_eq!(got, debounce_reference(&prefs), "directions {dirs:?}");
                }
            }
        }
    }

    #[test]
    fn forced_planner_ignores_direction_flips() {
        let g = hypersparse_graph();
        let mut p = Planner::new(
            DirectionPolicy::memoryless(0.5),
            FormatChoice::Force(StorageFormat::Dcsr),
        );
        for pull in [false, true, false, true, true] {
            let plan = p.next(&g, g.n_vertices() * usize::from(pull), None, None);
            assert_eq!(plan.format, StorageFormat::Dcsr);
        }
    }
}
