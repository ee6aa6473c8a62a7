//! The execution planner: which kernel face runs, push or pull.
//!
//! The paper decides one thing per level — the input vector's storage, and
//! with it the kernel face (§6.3) — over the matrix and its transpose,
//! both held as CSR by [`graphblas_matrix::Graph`]. This module holds the
//! two rules that decide it:
//!
//! * **Per call** — [`resolve_direction`]: what `mxv`, the fused pipeline
//!   and every `mxv_batch` row dispatch on when handed a descriptor. The
//!   direction follows the input's storage (sparse → push, dense → pull)
//!   unless the descriptor forces one.
//! * **Per traversal** — [`DirectionPolicy`]: what the traversal loops
//!   feed each level's activity to, measured against `|V|` — the §6.3
//!   hysteresis and its variants. A single-source loop (BFS, parent BFS,
//!   CC, SSSP) forces the policy's direction on the level's descriptor; a
//!   batched one (BC, coalesced SSSP) keeps one policy per source and
//!   stores that source's row in the chosen direction's storage. No kernel
//!   holds a policy.

use crate::descriptor::{Descriptor, Direction, DirectionChoice};
use crate::ops::Scalar;
use crate::vector::Vector;
use graphblas_matrix::Graph;

/// Calibration constants of the measured push/pull cost model — the
/// per-edge charge weights that turn the raw measurements of
/// [`CostModelInputs`] into comparable work estimates:
///
/// * `pushwork = push_edge · nnz(A(:, f))` — each expanded edge's cost;
/// * `pullwork = pull_edge · d · |unvisited|` — each unvisited row pays an
///   average row scan.
///
/// The defaults come from the charged-access shape the push kernel had
/// before the structure-only claim kernel: an expanded edge paid its
/// matrix read plus ~3 radix passes of the sort-based merge. A
/// structure-only push now sorts only the vertices it claims, so these
/// weights overprice push; they are kept until a fit against measured
/// level times replaces them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostConstants {
    /// Work per expanded push edge.
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

/// The kernel face a `mxv`-shaped call over `graph` runs under the
/// descriptor: the forced direction, or the §6.3 storage rule (sparse
/// input → push, dense → pull). Every face reads the graph's resident CSR
/// for its orientation, so the direction is the whole plan.
///
/// No library code calls this: the dispatch resolves its face through
/// [`resolve_direction`]. It stays, graph argument and all, only for the
/// `plan.resolve` span of the benchmark's traced replay
/// (`benchmark/src/traced.rs`), which times it with three arguments.
#[must_use]
pub fn resolve_plan<A: Scalar, X: Scalar>(
    _graph: &Graph<A>,
    v: &Vector<X>,
    desc: &Descriptor,
) -> Direction {
    resolve_direction(v, desc)
}

/// The forced direction, or the §6.3 storage rule: what `mxv`, `FusedMxv`
/// and every `mxv_batch` row dispatch on ([`resolve_plan`] without the
/// graph).
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

/// How a [`DirectionPolicy`] reacts to the per-iteration activity ratio.
#[derive(Clone, Copy, Debug, PartialEq)]
enum PolicyMode {
    /// §6.3 hysteresis: switch push→pull while activity is rising above the
    /// threshold, pull→push while falling below it (`α = β`, as the paper).
    Hysteresis { threshold: f64 },
    /// §5.6 two-phase: switch push→pull once the threshold is crossed and
    /// stay there (SSSP's delta-set rule).
    TwoPhase { threshold: f64 },
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
/// single-source loops feed it their activity against a capacity of
/// `|V|`, the batched loops (BC, coalesced SSSP) call one policy per
/// source themselves and hand the batch kernel each row in the chosen
/// direction's storage, and the Gunrock-like comparator engine drives it
/// too, so the Table 2 "change of direction" ablation toggles exactly one
/// rule. Four modes:
/// hysteresis, two-phase, fixed and the measured cost model.
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

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_matrix::Coo;

    #[test]
    fn resolve_plan_follows_storage_unless_forced() {
        let mut coo = Coo::new(4, 4);
        coo.push(0, 1, true);
        let g = Graph::from_coo(&coo);
        let sparse = Vector::singleton(4, false, 0, true);
        let desc = Descriptor::new().transpose(true);
        assert_eq!(resolve_plan(&g, &sparse, &desc), Direction::Push);

        let mut dense = sparse.clone();
        dense.make_dense();
        assert_eq!(resolve_plan(&g, &dense, &desc), Direction::Pull);

        // A forced direction wins over the storage rule.
        let forced = desc.force(Direction::Push);
        assert_eq!(resolve_plan(&g, &dense, &forced), Direction::Push);
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
}
