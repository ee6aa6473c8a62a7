//! The execution planner: direction × storage format as one decision.
//!
//! The paper resolves *direction* from the input vector's storage (§6.3);
//! SuiteSparse:GraphBLAS and GraphBLAST additionally resolve the *matrix
//! format* per operation, and the nonblocking-GraphBLAS line of work
//! argues this selection belongs in a planner rather than in each
//! algorithm. [`resolve_plan`] generalizes
//! [`resolve_direction`] accordingly: given the
//! operands and a [`Descriptor`], it returns an [`ExecPlan`] naming both
//! the kernel face (push/pull) and the storage backend (CSR / bitmap /
//! hypersparse DCSR) that face should iterate.
//!
//! Two layers, mirroring the direction machinery exactly:
//!
//! * **Memoryless rule** — [`resolve_plan`] / [`auto_format`]: what `mxv`,
//!   `mxv_batch`, and the fused pipeline apply per call when the
//!   descriptor says [`FormatChoice::Auto`]. Pure function of the operand
//!   matrix's static shape and the resolved direction.
//! * **Stateful policy** — [`FormatPolicy`]: what iterative algorithms
//!   thread through their loops (the format analogue of
//!   [`DirectionPolicy`](crate::DirectionPolicy)), with a
//!   `ConvertState`-style debounce so a direction flap cannot thrash
//!   conversions, and with every adopted change charged to the
//!   `format_switches` counter so plan behaviour is observable next to
//!   `push_steps`/`pull_steps`.
//!
//! The selection rule (documented in `docs/ARCHITECTURE.md`):
//!
//! 1. operand row occupancy `< `[`HYPERSPARSE_OCCUPANCY`] ⇒ **DCSR** —
//!    full scans then touch only the non-empty rows;
//! 2. else, pull direction with average degree `≥ `[`BITMAP_MIN_DEGREE`]
//!    and a feasible bitmap ⇒ **bitmap** — dense phases get O(1)
//!    membership at tolerable memory;
//! 3. else **CSR**.
//!
//! Formats never change results or access counters — the kernels are
//! generic over [`graphblas_matrix::RowAccess`] and charge identically on
//! every backend (`tests/prop_core.rs` pins values *and* counters against
//! the `Fixed(Csr)` oracle) — so the planner is free to chase wall clock.

use crate::bitops::FrontierWords;
use crate::descriptor::{Descriptor, Direction, FormatChoice};
use crate::ops::Scalar;
use crate::ops_mxv::resolve_direction;
use crate::vector::Vector;
use graphblas_matrix::{Graph, StorageFormat};
use graphblas_primitives::counters::AccessCounters;

/// Row-occupancy threshold below which an operand counts as hypersparse
/// and the planner selects DCSR (1/8 of rows non-empty).
pub const HYPERSPARSE_OCCUPANCY: f64 = 0.125;

/// Average-degree threshold at or above which a pull-direction operand
/// selects the bitmap store (when it fits).
pub const BITMAP_MIN_DEGREE: f64 = 8.0;

/// Calibration constants of the measured push/pull cost model — the
/// per-edge (and per-word) charge weights that turn the raw measurements
/// of [`crate::CostModelInputs`] into comparable work estimates:
///
/// * `pushwork = push_edge · nnz(A(:, f))` — each expanded edge pays its
///   matrix read plus the radix-sort passes of the sort-based merge;
/// * `pullwork = pull_edge · d · |unvisited|` — each unvisited row pays an
///   average row scan;
/// * `bit_word` prices one `u64` word scanned by the bit-parallel pull
///   kernel, for the format half of the model ([`FormatPolicy::cost_model`]):
///   a bitmap pull scans at most `⌈n/64⌉` words per row, so bitmap wins
///   when `pull_edge · d > bit_word · ⌈n/64⌉`.
///
/// Defaults come from the charged-access shape of the kernels themselves
/// (an expanded push edge costs its read + ~3 radix passes); the bench
/// harness re-derives them from measured runs per format.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostConstants {
    /// Work per expanded push edge (matrix read + sort traffic).
    pub push_edge: f64,
    /// Work per examined pull edge on a scalar (CSR/DCSR) row scan.
    pub pull_edge: f64,
    /// Work per `u64` word scanned by the bit-parallel bitmap pull.
    pub bit_word: f64,
}

impl Default for CostConstants {
    fn default() -> Self {
        Self {
            push_edge: 4.0,
            pull_edge: 1.0,
            bit_word: 1.0,
        }
    }
}

impl CostConstants {
    /// Constants calibrated for a given pull-side storage format: the
    /// bitmap's bit-parallel kernel touches 64 edges per word, so its
    /// effective per-edge pull charge is 1/8 of CSR's per cache line
    /// (8 edges of a `u64` word amortize one read).
    #[must_use]
    pub fn for_format(format: StorageFormat) -> Self {
        let base = Self::default();
        match format {
            StorageFormat::Bitmap => Self {
                pull_edge: base.pull_edge / 8.0,
                ..base
            },
            StorageFormat::Csr | StorageFormat::Dcsr => base,
        }
    }
}

/// Charge the `bitmap_degrades` telemetry event when a descriptor asked
/// for the bitmap store but the planner had to serve another format — the
/// silent `MAX_BITS` degrade of [`Graph::effective_format`] made visible.
pub fn note_bitmap_degrade(
    desc: &Descriptor,
    resolved: StorageFormat,
    counters: Option<&AccessCounters>,
) {
    if desc.format == FormatChoice::Force(StorageFormat::Bitmap)
        && resolved != StorageFormat::Bitmap
    {
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
        return StorageFormat::Dcsr;
    }
    let csr = if side { graph.csr_t() } else { graph.csr() };
    if direction == Direction::Pull
        && csr.avg_degree() >= BITMAP_MIN_DEGREE
        && graph.effective_format(side, StorageFormat::Bitmap) == StorageFormat::Bitmap
    {
        return StorageFormat::Bitmap;
    }
    StorageFormat::Csr
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

/// Resolve the full execution plan for a `mxv`-shaped call: the direction
/// by the storage rule [`resolve_direction`] implements (or the
/// descriptor's force), the format by the descriptor's [`FormatChoice`]
/// (with an infeasible bitmap degraded to CSR so the reported plan always
/// matches what executes).
#[must_use]
pub fn resolve_plan<A: Scalar, X: Scalar>(
    graph: &Graph<A>,
    v: &Vector<X>,
    desc: &Descriptor,
) -> ExecPlan {
    let direction = resolve_direction(v, desc);
    let format = match desc.format {
        FormatChoice::Force(f) => {
            graph.effective_format(operand_side(desc.transpose, direction), f)
        }
        FormatChoice::Auto => auto_format(graph, desc.transpose, direction),
    };
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

#[derive(Clone, Copy, Debug, PartialEq)]
enum FormatMode {
    Auto,
    Fixed(StorageFormat),
    /// Pick the pull-side format from the measured cost constants instead
    /// of the fixed [`BITMAP_MIN_DEGREE`] threshold: bitmap wins exactly
    /// when a row's average scalar scan (`pull_edge · d`) outweighs its
    /// full word scan (`bit_word · ⌈n/64⌉`).
    CostModel(CostConstants),
}

/// The stateful format-selection policy iterative algorithms thread
/// through their loops — the format analogue of
/// [`DirectionPolicy`](crate::DirectionPolicy).
///
/// `update` is called once per iteration with the graph and this
/// iteration's resolved direction; it returns the format to force into
/// the descriptor and charges one `format_switches` counter tick whenever
/// the returned format differs from the previous iteration's (every graph
/// is born CSR, so the baseline before the first call is
/// [`StorageFormat::Csr`]).
///
/// In `Auto` mode the policy wraps [`auto_format`] in a
/// `ConvertState`-style debounce: moving away from the current format
/// requires the memoryless rule to prefer the same new format on two
/// consecutive updates. Matrix shape is static, but the *direction* input
/// flaps at phase boundaries (push↔pull), and each format change an
/// algorithm acts on costs a one-time conversion — the debounce keeps a
/// single bounced iteration from paying it twice, exactly as §6.3's
/// hysteresis keeps the frontier from thrashing sparse↔dense.
#[derive(Clone, Copy, Debug)]
pub struct FormatPolicy {
    mode: FormatMode,
    current: Option<StorageFormat>,
    pending: Option<StorageFormat>,
    /// Per operand side (`[A, Aᵀ]`): whether this policy already recorded
    /// a bitmap→CSR degrade. The feasibility verdict is a per-graph
    /// constant, so `bitmap_degrades` counts *distinct decisions* — one
    /// per policy per side — not one tick per mxv of a long run.
    degraded: [bool; 2],
}

impl Default for FormatPolicy {
    fn default() -> Self {
        Self::auto()
    }
}

impl FormatPolicy {
    /// The planner decides per iteration (the production default).
    #[must_use]
    pub fn auto() -> Self {
        Self {
            mode: FormatMode::Auto,
            current: None,
            pending: None,
            degraded: [false; 2],
        }
    }

    /// Pin every iteration to one format. `Fixed(Csr)` is the tested
    /// oracle every other policy must match bit-for-bit in values and
    /// accesses.
    #[must_use]
    pub fn fixed(f: StorageFormat) -> Self {
        Self {
            mode: FormatMode::Fixed(f),
            current: None,
            pending: None,
            degraded: [false; 2],
        }
    }

    /// Measured cost-model selection (see `FormatMode` docs): the format
    /// half of the planner's `CostModel` variant, sharing the same
    /// debounce as [`FormatPolicy::auto`].
    #[must_use]
    pub fn cost_model(constants: CostConstants) -> Self {
        Self {
            mode: FormatMode::CostModel(constants),
            current: None,
            pending: None,
            degraded: [false; 2],
        }
    }

    /// The format the last `update` settled on (CSR before any update).
    #[must_use]
    pub fn current(&self) -> StorageFormat {
        self.current.unwrap_or(StorageFormat::Csr)
    }

    fn adopt(
        &mut self,
        preferred: StorageFormat,
        counters: Option<&AccessCounters>,
    ) -> StorageFormat {
        let next = match self.mode {
            FormatMode::Fixed(_) => preferred,
            FormatMode::Auto | FormatMode::CostModel(_) => match self.current {
                None => preferred,
                Some(cur) if preferred == cur => {
                    self.pending = None;
                    cur
                }
                Some(cur) => {
                    if self.pending == Some(preferred) {
                        // Second consecutive preference: switch.
                        self.pending = None;
                        preferred
                    } else {
                        self.pending = Some(preferred);
                        cur
                    }
                }
            },
        };
        if next != self.current() {
            if let Some(c) = counters {
                c.add_format_switch();
            }
        }
        self.current = Some(next);
        next
    }

    /// Record a bitmap→CSR degrade decision for one operand side, charging
    /// `bitmap_degrades` only the first time this policy sees it (the
    /// verdict is a per-graph constant — see the `degraded` field).
    fn note_degrade(&mut self, side: bool, counters: Option<&AccessCounters>) {
        let seen = &mut self.degraded[usize::from(side)];
        if !*seen {
            *seen = true;
            if let Some(c) = counters {
                c.add_bitmap_degrade();
            }
        }
    }

    /// Feed one iteration's direction; returns the format to run it with
    /// and charges `format_switches` on change.
    pub fn update<A: Scalar>(
        &mut self,
        graph: &Graph<A>,
        transpose: bool,
        direction: Direction,
        counters: Option<&AccessCounters>,
    ) -> StorageFormat {
        self.update_with_frontier(graph, transpose, direction, None, counters)
    }

    /// [`FormatPolicy::update`] with this iteration's frontier population
    /// supplied, letting the measured cost model price the *compressed*
    /// frontier-word scan: a bit pull intersects each row window with the
    /// frontier's nonzero words only (`FrontierWords` compresses when
    /// they are few), so a sparse frontier caps the scan far below the
    /// dense window stride the shape-only rule assumes. `Auto` and `Fixed`
    /// modes ignore the hint.
    pub fn update_with_frontier<A: Scalar>(
        &mut self,
        graph: &Graph<A>,
        transpose: bool,
        direction: Direction,
        frontier_nnz: Option<usize>,
        counters: Option<&AccessCounters>,
    ) -> StorageFormat {
        let preferred = match self.mode {
            FormatMode::Fixed(f) => {
                let side = operand_side(transpose, direction);
                let eff = graph.effective_format(side, f);
                if f == StorageFormat::Bitmap && eff != StorageFormat::Bitmap {
                    self.note_degrade(side, counters);
                }
                eff
            }
            FormatMode::Auto => auto_format(graph, transpose, direction),
            FormatMode::CostModel(k) => {
                let (fmt, wanted_infeasible) =
                    cost_model_format(graph, transpose, direction, k, frontier_nnz);
                if wanted_infeasible {
                    self.note_degrade(operand_side(transpose, direction), counters);
                }
                fmt
            }
        };
        self.adopt(preferred, counters)
    }

    /// Batched variant of [`FormatPolicy::update`] for `mxv_batch` loops,
    /// whose rows resolve directions independently (see
    /// [`auto_format_batch`]).
    pub fn update_batch<A: Scalar>(
        &mut self,
        graph: &Graph<A>,
        transpose: bool,
        counters: Option<&AccessCounters>,
    ) -> StorageFormat {
        let preferred = match self.mode {
            FormatMode::Fixed(f) => {
                let eff = graph.effective_format(transpose, f);
                if f == StorageFormat::Bitmap && eff != StorageFormat::Bitmap {
                    self.note_degrade(transpose, counters);
                }
                eff
            }
            // The batched kernels never run the bit pull (one store serves
            // both faces), so the measured rule has nothing to price there:
            // fall back to the shape rule, like Auto.
            FormatMode::Auto | FormatMode::CostModel(_) => auto_format_batch(graph, transpose),
        };
        self.adopt(preferred, counters)
    }
}

/// The measured format rule of [`FormatPolicy::cost_model`]: hypersparse
/// operands still take DCSR (the cost model prices scan work, not row
/// lookup structure), then bitmap vs CSR is decided by comparing an
/// average row's scalar scan against its word scan — the word price taken
/// from the tiled allocation plan (`words / n_rows`), so banded graphs
/// with narrow windows price far below the old dense `⌈n/64⌉` stride.
///
/// When the caller supplies the frontier population, the word price is
/// additionally capped at the frontier's *compressed* word count: the bit
/// pull kernel scans the intersection of a row's window with the frontier
/// words, and once the frontier clears [`FrontierWords`]' compression
/// threshold only its nonzero words are visited at all — a few-word
/// frontier makes the bit scan near-free regardless of window width (the
/// mispricing the dense-only rule suffered). Returns the chosen format
/// plus whether the model wanted an infeasible bitmap (the caller
/// memoizes the `bitmap_degrades` charge per side).
fn cost_model_format<A: Scalar>(
    graph: &Graph<A>,
    transpose: bool,
    direction: Direction,
    k: CostConstants,
    frontier_nnz: Option<usize>,
) -> (StorageFormat, bool) {
    if direction != Direction::Pull {
        return (StorageFormat::Csr, false);
    }
    let side = operand_side(transpose, direction);
    if graph.row_occupancy(side) < HYPERSPARSE_OCCUPANCY {
        return (StorageFormat::Dcsr, false);
    }
    let csr = if side { graph.csr_t() } else { graph.csr() };
    let dense_words = graph.bitmap_plan(side).avg_words_per_row(csr.n_rows());
    let words_per_row = effective_words_per_row(dense_words, csr.n_cols(), frontier_nnz);
    if k.pull_edge * csr.avg_degree() > k.bit_word * words_per_row {
        if graph.effective_format(side, StorageFormat::Bitmap) == StorageFormat::Bitmap {
            return (StorageFormat::Bitmap, false);
        }
        return (StorageFormat::Csr, true);
    }
    (StorageFormat::Csr, false)
}

/// Words a bit-parallel pull actually scans per row: the dense window
/// stride, capped at the frontier's nonzero word count when the frontier
/// is sparse enough that [`FrontierWords::from_dense`] would compress it
/// (`nzw · COMPRESS_FACTOR ≤ total words`) — compressed traversals visit
/// only the frontier's populated words that overlap the row window.
fn effective_words_per_row(dense_words: f64, n_cols: usize, frontier_nnz: Option<usize>) -> f64 {
    let Some(nnz) = frontier_nnz else {
        return dense_words;
    };
    let total_words = n_cols.div_ceil(64).max(1);
    // Each frontier nonzero populates at most one word.
    let nzw = nnz.min(total_words).max(1);
    if nzw * FrontierWords::COMPRESS_FACTOR <= total_words {
        dense_words.min(nzw as f64)
    } else {
        dense_words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_matrix::Coo;

    /// Dense-ish 8-vertex clique fragment: occupancy 1.0, degree ≥ 8 via
    /// self-contained construction — pull prefers bitmap, push CSR.
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
    fn auto_rule_picks_bitmap_only_for_dense_pull() {
        let g = dense_graph();
        assert_eq!(
            auto_format(&g, true, Direction::Pull),
            StorageFormat::Bitmap
        );
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
    fn fixed_policy_charges_one_switch_and_holds() {
        let g = hypersparse_graph();
        let c = AccessCounters::new();
        let mut p = FormatPolicy::fixed(StorageFormat::Dcsr);
        assert_eq!(
            p.update(&g, true, Direction::Push, Some(&c)),
            StorageFormat::Dcsr
        );
        assert_eq!(c.snapshot().format_switches, 1, "Csr → Dcsr charged once");
        for _ in 0..3 {
            p.update(&g, true, Direction::Pull, Some(&c));
        }
        assert_eq!(c.snapshot().format_switches, 1, "no further switches");

        let c2 = AccessCounters::new();
        let mut oracle = FormatPolicy::fixed(StorageFormat::Csr);
        oracle.update(&g, true, Direction::Push, Some(&c2));
        assert_eq!(
            c2.snapshot().format_switches,
            0,
            "Csr oracle never switches"
        );
    }

    #[test]
    fn auto_policy_debounces_direction_flaps() {
        let g = dense_graph();
        let c = AccessCounters::new();
        let mut p = FormatPolicy::auto();
        // First call adopts immediately (push on a dense graph → CSR).
        assert_eq!(
            p.update(&g, true, Direction::Push, Some(&c)),
            StorageFormat::Csr
        );
        // One pull iteration prefers bitmap but the debounce holds CSR.
        assert_eq!(
            p.update(&g, true, Direction::Pull, Some(&c)),
            StorageFormat::Csr
        );
        // Second consecutive pull: switch.
        assert_eq!(
            p.update(&g, true, Direction::Pull, Some(&c)),
            StorageFormat::Bitmap
        );
        assert_eq!(c.snapshot().format_switches, 1);
        // A single push bounce does not thrash back…
        assert_eq!(
            p.update(&g, true, Direction::Push, Some(&c)),
            StorageFormat::Bitmap
        );
        // …but a sustained push phase does.
        assert_eq!(
            p.update(&g, true, Direction::Push, Some(&c)),
            StorageFormat::Csr
        );
        assert_eq!(c.snapshot().format_switches, 2);
        assert_eq!(p.current(), StorageFormat::Csr);
    }

    #[test]
    fn infeasible_bitmap_degrades_to_csr_everywhere() {
        // Allocation too large for a bitmap even under tiling: one row per
        // 64-row tile spans the full column range, so every tile plans a
        // full-width window — 2^13 tiles × 64 rows × 2^13 words = 2^38
        // bits > MAX_BITS, on both orientations (symmetric construction).
        // Force(Bitmap) must degrade identically in the plan and policy.
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
        let desc = Descriptor::new()
            .transpose(true)
            .force_format(StorageFormat::Bitmap);
        let mut dense = Vector::singleton(n, false, 0, true);
        dense.make_dense();
        assert_eq!(resolve_plan(&g, &dense, &desc).format, StorageFormat::Csr);
        let mut p = FormatPolicy::fixed(StorageFormat::Bitmap);
        assert_eq!(
            p.update(&g, true, Direction::Pull, None),
            StorageFormat::Csr
        );

        // The silent degrade is recorded once per distinct decision: the
        // verdict is a per-graph constant, so repeated updates of one
        // policy on one side charge a single tick — not one per call.
        let c = AccessCounters::new();
        let mut p2 = FormatPolicy::fixed(StorageFormat::Bitmap);
        p2.update(&g, true, Direction::Pull, Some(&c));
        p2.update(&g, true, Direction::Pull, Some(&c));
        assert_eq!(c.snapshot().bitmap_degrades, 1, "memoized per side");
        // The push face is the other operand side: a fresh decision.
        p2.update(&g, true, Direction::Push, Some(&c));
        p2.update(&g, true, Direction::Push, Some(&c));
        assert_eq!(c.snapshot().bitmap_degrades, 2, "one per side");
        // The mxv-level plan note (direct descriptor force) still records.
        note_bitmap_degrade(&desc, StorageFormat::Csr, Some(&c));
        assert_eq!(c.snapshot().bitmap_degrades, 3);
        // A served bitmap (or a non-bitmap request) records nothing.
        note_bitmap_degrade(&desc, StorageFormat::Bitmap, Some(&c));
        note_bitmap_degrade(&Descriptor::new(), StorageFormat::Csr, Some(&c));
        assert_eq!(c.snapshot().bitmap_degrades, 3);
    }

    #[test]
    fn cost_model_format_prices_bitmap_against_word_scans() {
        // Dense 16-vertex graph: avg degree 15, one word per row — the
        // scalar scan (15 edges) outweighs the word scan (1 word), so the
        // measured rule picks bitmap for pull and CSR for push.
        let g = dense_graph();
        let k = CostConstants::default();
        let mut p = FormatPolicy::cost_model(k);
        assert_eq!(
            p.update(&g, true, Direction::Push, None),
            StorageFormat::Csr
        );
        // Debounced like Auto: one pull prefers bitmap, two adopt it.
        assert_eq!(
            p.update(&g, true, Direction::Pull, None),
            StorageFormat::Csr
        );
        assert_eq!(
            p.update(&g, true, Direction::Pull, None),
            StorageFormat::Bitmap
        );

        // Pricing the word scan up makes CSR win at the same shape.
        let expensive_words = CostConstants {
            bit_word: 16.0,
            ..k
        };
        let mut p2 = FormatPolicy::cost_model(expensive_words);
        assert_eq!(
            p2.update(&g, true, Direction::Pull, None),
            StorageFormat::Csr
        );

        // Hypersparse operands still take DCSR under the cost model.
        let hs = hypersparse_graph();
        let mut p3 = FormatPolicy::cost_model(k);
        assert_eq!(
            p3.update(&hs, true, Direction::Pull, None),
            StorageFormat::Dcsr
        );
    }

    #[test]
    fn cost_model_prices_compressed_frontier_scans() {
        // Every row reaches columns at both ends of a 1024-wide matrix, so
        // each 64-row tile plans a full 16-word window: dense pricing sees
        // 16 words/row against an average degree of 4 and keeps CSR.
        let n = 1024;
        let mut coo = Coo::new(n, n);
        for u in 0..n as u32 {
            for &c in &[0u32, 1, (n - 2) as u32, (n - 1) as u32] {
                coo.push(u, c, true);
            }
        }
        let g = Graph::from_coo(&coo);
        let k = CostConstants::default();
        let mut dense_rule = FormatPolicy::cost_model(k);
        assert_eq!(
            dense_rule.update(&g, false, Direction::Pull, None),
            StorageFormat::Csr,
            "dense-word pricing overprices the scan"
        );
        // A 2-nonzero frontier compresses to ≤2 populated words, so the
        // bit pull scans at most 2 words/row — now bitmap wins.
        let mut sparse_rule = FormatPolicy::cost_model(k);
        assert_eq!(
            sparse_rule.update_with_frontier(&g, false, Direction::Pull, Some(2), None),
            StorageFormat::Bitmap,
            "compressed-frontier pricing sees the real scan cost"
        );
        // A frontier too dense to compress prices exactly like before.
        let mut full_rule = FormatPolicy::cost_model(k);
        assert_eq!(
            full_rule.update_with_frontier(&g, false, Direction::Pull, Some(n), None),
            StorageFormat::Csr
        );
        // The cap never *raises* the price: effective words are monotone.
        assert!(effective_words_per_row(16.0, n, Some(2)) <= 16.0);
        assert_eq!(effective_words_per_row(16.0, n, None), 16.0);
        assert_eq!(effective_words_per_row(0.5, n, Some(1)), 0.5);
    }

    #[test]
    fn cost_constants_per_format_scale_pull_edge() {
        let csr = CostConstants::for_format(StorageFormat::Csr);
        let bm = CostConstants::for_format(StorageFormat::Bitmap);
        assert_eq!(csr, CostConstants::default());
        assert!((bm.pull_edge - csr.pull_edge / 8.0).abs() < f64::EPSILON);
        assert_eq!(bm.push_edge, csr.push_edge);
    }
}
