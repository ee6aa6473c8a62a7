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
//!   feed each level's activity to. The BFS family — BFS, parent BFS and
//!   every lane of their lane groups — runs the edge rule, Beamer's switch
//!   priced by the edges each direction reads: a growing push frontier
//!   turns to pull once its out-edges `m_f` exceed both
//!   `d̄·|unvisited| / α` ([`EDGE_ALPHA`]) and `|V| / 8` ([`EDGE_FLOOR`]),
//!   and a shrinking pull frontier turns back once it holds fewer than
//!   `|V| / β` vertices ([`EDGE_BETA`]). A parent BFS visits BFS's level
//!   sets and feeds the rule the same inputs, so it makes BFS's decision at
//!   every level. CC, BC and the Gunrock-like engine keep the §6.3
//!   hysteresis on `nnz(f) / |V|`, and SSSP the §5.6 two-phase rule. A
//!   single-source loop forces the policy's direction on the level's
//!   descriptor; a batched one (BC, coalesced SSSP) keeps one policy per
//!   source and stores that source's row in the chosen direction's
//!   storage. No kernel holds a policy.

use crate::descriptor::{Descriptor, Direction, DirectionChoice};
use crate::ops::Scalar;
use crate::vector::Vector;
use graphblas_matrix::Graph;

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

/// The edge rule's α: a growing push frontier switches to pull once its
/// out-edges `m_f` exceed `d̄·|unvisited| / EDGE_ALPHA`, the edges a pull
/// would scan (estimated from the average degree `d̄`) over α.
pub const EDGE_ALPHA: f64 = 24.0;

/// The edge rule's β: a shrinking pull frontier switches back to push once
/// it holds fewer than `|V| / EDGE_BETA` vertices.
pub const EDGE_BETA: f64 = 24.0;

/// The edge rule's floor: a push→pull switch also needs
/// `m_f > |V| / EDGE_FLOOR`. A pull pays at least its scan of the visited
/// bitmap and of every unvisited row, so late in a mesh BFS, where
/// `d̄·|unvisited| / α` has shrunk below a thin frontier's edges, the
/// frontier stays a push.
pub const EDGE_FLOOR: f64 = 8.0;

/// How a [`DirectionPolicy`] reacts to the per-iteration activity.
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
    /// The edge rule (Beamer's switch, priced by the edges each side
    /// reads): push→pull while the frontier grows once
    /// `m_f > d̄·|unvisited| / EDGE_ALPHA` and `m_f > |V| / EDGE_FLOOR`;
    /// pull→push once it shrinks below `|V| / EDGE_BETA` vertices. Fed
    /// through [`DirectionPolicy::update_edges`]; the activity-only
    /// [`DirectionPolicy::update`] keeps the current direction.
    Edges { avg_degree: f64 },
}

/// The workspace's one stateful push/pull switching rule, in four modes:
/// the edge rule, §6.3 hysteresis, §5.6 two-phase and fixed.
///
/// [`resolve_direction`] is the *storage→direction* rule `mxv` dispatches
/// on; `DirectionPolicy` is the *activity→direction* rule that decides
/// which kernel an iterative algorithm steers toward next.
///
/// * BFS, parent BFS and every lane of their lane groups run the edge rule
///   ([`DirectionPolicy::edges`]), which prices each direction by the
///   edges it reads. Its inputs (frontier count, unvisited count, frontier
///   out-edges) do not depend on what a run records, so a parent BFS makes
///   BFS's decision at every level.
/// * CC, BC and the Gunrock-like comparator engine run §6.3 hysteresis
///   against a capacity of `|V|`.
/// * SSSP (solo and coalesced) runs two-phase on its delta set.
/// * The batched loops (BC, coalesced SSSP) call one policy per source
///   and hand the batch kernel each row in the chosen direction's storage.
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

    /// The edge rule, starting from push. `avg_degree` is the operand's
    /// `d̄ = nnz / |V|`, so `d̄·|unvisited|` estimates the edges a pull
    /// scans. Drive it with [`DirectionPolicy::update_edges`].
    #[must_use]
    pub fn edges(avg_degree: f64) -> Self {
        DirectionPolicy {
            mode: PolicyMode::Edges { avg_degree },
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
            // The activity alone cannot price the edge rule; hold the
            // direction until update_edges brings the edge inputs.
            PolicyMode::Fixed | PolicyMode::Edges { .. } => {}
        }
        self.last_activity = activity;
        self.dir
    }

    /// Whether [`DirectionPolicy::update_edges`] at this activity reads
    /// the frontier's out-edges: only an edge rule on a push level whose
    /// frontier grows can switch. A lane group sums the edges of exactly
    /// these lanes in one pass over its frontier.
    #[must_use]
    pub fn wants_edges(&self, activity: usize) -> bool {
        matches!(self.mode, PolicyMode::Edges { .. })
            && self.dir == Direction::Push
            && activity >= self.last_activity
    }

    /// Feed a level of the edge rule: the frontier's vertex count
    /// (`activity`), `|V|` (`capacity`), the unvisited vertex count, and
    /// the frontier's out-edge count `m_f`, which is read only when
    /// [`DirectionPolicy::wants_edges`] holds. Every other mode ignores the
    /// edge inputs and delegates to [`DirectionPolicy::update`], so a loop
    /// can call this whatever mode it runs.
    pub fn update_edges(
        &mut self,
        activity: usize,
        capacity: usize,
        unvisited: usize,
        frontier_edges: impl FnOnce() -> usize,
    ) -> Direction {
        let PolicyMode::Edges { avg_degree } = self.mode else {
            return self.update(activity, capacity);
        };
        if self.wants_edges(activity) {
            let m_f = frontier_edges() as f64;
            // Chaos hook: inflating m_f lets the fault harness force
            // direction flips without touching the graph.
            #[cfg(feature = "fault-injection")]
            let m_f = m_f * graphblas_primitives::fault::cost_inflation();
            if m_f > avg_degree * unvisited as f64 / EDGE_ALPHA
                && m_f > capacity as f64 / EDGE_FLOOR
            {
                self.dir = Direction::Pull;
            }
        } else if self.dir == Direction::Pull
            && activity < self.last_activity
            && (activity as f64) < capacity as f64 / EDGE_BETA
        {
            self.dir = Direction::Push;
        }
        self.last_activity = activity;
        self.dir
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
    fn edge_rule_pulls_a_growing_frontier_whose_edges_pass_both_bounds() {
        // |V| = 10_000, d̄ = 10, 9_000 unvisited rows: ~90_000 edges a pull
        // would scan, so m_f must pass 90_000/α (over the |V|/8 floor).
        let alpha_bound = (10.0 * 9_000.0 / EDGE_ALPHA) as usize;
        assert!(alpha_bound as f64 > 10_000.0 / EDGE_FLOOR);
        let mut p = DirectionPolicy::edges(10.0);
        assert_eq!(p.update_edges(1, 10_000, 9_000, || 10), Direction::Push);
        assert_eq!(
            p.update_edges(5, 10_000, 9_000, || alpha_bound),
            Direction::Push
        );
        // Under 1% of |V| but over both bounds: a hub burst pulls.
        assert_eq!(
            p.update_edges(50, 10_000, 9_000, || alpha_bound + 1),
            Direction::Pull
        );
        assert_eq!(p.current(), Direction::Pull);
    }

    #[test]
    fn edge_rule_floor_keeps_thin_frontiers_pushing() {
        // Late in a mesh BFS the α bound (d̄·|unvisited|/α, 2.5·400/α) is
        // tiny; the |V|/8 floor keeps a growing frontier a push until its
        // edges pass it.
        let floor = (10_000.0 / EDGE_FLOOR) as usize;
        assert!(floor as f64 > 2.5 * 400.0 / EDGE_ALPHA);
        let mut p = DirectionPolicy::edges(2.5);
        assert_eq!(p.update_edges(300, 10_000, 400, || 800), Direction::Push);
        assert_eq!(p.update_edges(320, 10_000, 400, || floor), Direction::Push);
        assert_eq!(
            p.update_edges(330, 10_000, 400, || floor + 1),
            Direction::Pull
        );
    }

    #[test]
    fn edge_rule_grow_guard_reads_edges_only_on_growing_push_levels() {
        let mut p = DirectionPolicy::edges(10.0);
        assert!(p.wants_edges(1));
        assert_eq!(p.update_edges(100, 10_000, 9_000, || 10), Direction::Push);
        // A shrinking push frontier cannot switch, so m_f is never read.
        assert!(!p.wants_edges(99));
        assert_eq!(
            p.update_edges(99, 10_000, 9_000, || unreachable!(
                "m_f read on a shrinking level"
            )),
            Direction::Push
        );
        // Equal activity counts as growing, as in the hysteresis.
        assert!(p.wants_edges(99));
        assert_eq!(
            p.update_edges(99, 10_000, 9_000, || 100_000),
            Direction::Pull
        );
        // A pull level never reads m_f.
        assert!(!p.wants_edges(5_000));
        // The activity-only update holds the edge rule's direction.
        assert_eq!(p.update(1, 10_000), Direction::Pull);
    }

    #[test]
    fn edge_rule_shrink_guard_returns_to_push_below_v_over_beta() {
        // A pull frontier returns to push once it shrinks below |V|/β.
        let n = 24_000;
        let beta_bound = (n as f64 / EDGE_BETA) as usize;
        let mut p = DirectionPolicy::edges(10.0);
        assert_eq!(p.update_edges(1, n, n - 1, || 10), Direction::Push);
        assert_eq!(
            p.update_edges(beta_bound - 100, n, 23_000, || 200_000),
            Direction::Pull
        );
        // Growing below the bound: stay pull.
        assert_eq!(
            p.update_edges(beta_bound - 50, n, 22_000, || 0),
            Direction::Pull
        );
        // Shrinking, but still at the bound: stay pull.
        assert_eq!(p.update_edges(5_000, n, 17_000, || 0), Direction::Pull);
        assert_eq!(p.update_edges(beta_bound, n, 16_000, || 0), Direction::Pull);
        // Shrinking below the bound: back to push.
        assert_eq!(
            p.update_edges(beta_bound - 1, n, 15_000, || 0),
            Direction::Push
        );
    }

    #[test]
    fn edge_rule_inputs_are_ignored_by_other_modes() {
        let mut h = DirectionPolicy::hysteresis(0.01);
        assert!(!h.wants_edges(1));
        let edges = || unreachable!("only the edge rule reads m_f");
        assert_eq!(h.update_edges(5, 1000, 995, edges), Direction::Push);
        assert_eq!(h.update_edges(100, 1000, 900, edges), Direction::Pull);
        let mut f = DirectionPolicy::fixed(Direction::Push);
        assert_eq!(f.update_edges(1000, 1000, 0, edges), Direction::Push);
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
