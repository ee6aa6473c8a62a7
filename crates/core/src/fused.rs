//! Fused masked-mxv pipelines: `mxv · apply · assign` as one kernel pass.
//!
//! Every traversal in this workspace follows the same per-iteration shape —
//! a masked [`mxv`](crate::mxv), an elementwise `apply` on the surviving
//! entries, and a `GrB_assign` that folds them into long-lived algorithm
//! state (depths, parents, labels, distances, ranks). Composed from the
//! separate GraphBLAS operations, every iteration materializes at least one
//! intermediate [`Vector`]: the pull face allocates and fills a dense
//! `O(M)` buffer just so the caller can re-scan it for explicit entries,
//! and the push face builds a sparse vector the caller immediately tears
//! back apart. GraphBLAST (Yang, Buluç & Owens 2019) identifies exactly
//! this *kernel fusion* as the co-equal optimization next to masking, and
//! lazy-evaluation GraphBLAS layers (e.g. nonblocking-mode Julia
//! GraphBLAS) expose it by deferring execution until the whole chain is
//! known.
//!
//! [`FusedMxv`] is that lazy layer, scaled to this workspace: a builder
//! that records the matvec operands, the mask, the unary `apply`, and the
//! `assign` destination, then compiles the chain into a **single pass over
//! the chosen kernel face** when the terminal
//! [`assign_into`](FusedPipeline::assign_into) runs:
//!
//! * **Pull** (row kernel): each row chunk reduces its rows, applies the
//!   unary op, and writes survivors straight into the caller's state slice
//!   — the dense intermediate never exists. With
//!   [`first_hit_exit`](FusedMxv::first_hit_exit), a row's neighbor scan
//!   additionally stops at the *first* explicit input hit — parent-BFS's
//!   per-row early exit, a win the unfused path cannot express because
//!   `min`'s annihilator (vertex id 0) almost never occurs.
//! * **Push** (column kernel): the kernel of a push [`mxv`](crate::mxv)
//!   runs unchanged (the same claim kernel for a structure-only semiring,
//!   the same sort-based merge otherwise, the same counters), but its
//!   output flows through apply + assign instead of being materialized as
//!   a sparse vector.
//!
//! Direction resolution and the [`AccessCounters`] contract are `mxv`'s
//! own: a fused call resolves its face through the function `mxv` uses,
//! charges **exactly** the accesses its unfused composition would (same
//! kernels, same bookkeeping) and records its push/pull decision the same
//! way — so the counter snapshot of a fused run equals the unfused run's
//! bit-for-bit, which `tests/fused_pipelines.rs` pins at 1, 2, and 8
//! lanes. Limits are polled where the unfused kernels poll them: once per
//! pull chunk, and on entry to the push.

use crate::descriptor::Descriptor;
use crate::error::{GrbError, GrbResult};
use crate::mask::Mask;
use crate::ops::{Monoid, Scalar, Semiring};
use crate::ops_mxv::{
    col_kernel_parts, face, operands, reduce_row, Face, PullRows, RowTally, SendPtr,
};
use crate::vector::{DenseVector, SparseVector, Vector};
use graphblas_matrix::{Csr, Graph, VertexId};
use graphblas_primitives::counters::AccessCounters;
use rayon::prelude::*;
use std::marker::PhantomData;

/// Result of a fused pipeline execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FusedOutput {
    /// Indices whose state slot the `assign` stage wrote, ascending — for a
    /// traversal, the next frontier.
    pub touched: Vec<VertexId>,
}

/// Lazy builder for a fused `mxv · apply · assign` chain.
///
/// Nothing executes until the terminal
/// [`assign_into`](FusedPipeline::assign_into); until then the builder just
/// records operands, so constructing one is free and the kernel face (push
/// or pull) is resolved at execution time by the function that resolves
/// [`mxv`](crate::mxv)'s — the paper's Optimization 1 composes with fusion
/// unchanged.
///
/// ```
/// use graphblas_core::{BoolOrAnd, Descriptor, FusedMxv, Mask, Vector};
/// use graphblas_matrix::{Coo, Graph};
/// use graphblas_primitives::BitVec;
///
/// // 0 → 1 → 2; one fused BFS step from {0} writes depth 1 at vertex 1
/// // without materializing the frontier-product vector.
/// let mut coo = Coo::new(3, 3);
/// coo.push(0, 1, true);
/// coo.push(1, 2, true);
/// let g = Graph::from_coo(&coo);
/// let f = Vector::singleton(3, false, 0, true);
/// let mut visited = BitVec::new(3);
/// visited.set(0);
/// let mask = Mask::complement(&visited);
///
/// let mut depth = vec![-1i32; 3];
/// depth[0] = 0;
/// let out = FusedMxv::new(BoolOrAnd, &g, &f)
///     .mask(&mask)
///     .descriptor(Descriptor::new().transpose(true))
///     .apply(|_reached: bool| 1i32)
///     .assign_into(&mut depth, |_old, d| Some(d))
///     .unwrap();
/// assert_eq!(out.touched, vec![1]);
/// assert_eq!(depth, vec![0, 1, -1]);
/// ```
#[derive(Clone, Copy)]
pub struct FusedMxv<'a, A: Scalar, X: Scalar, S> {
    s: S,
    graph: &'a Graph<A>,
    input: &'a Vector<X>,
    mask: Option<&'a Mask<'a>>,
    desc: Descriptor,
    counters: Option<&'a AccessCounters>,
    first_hit_exit: bool,
    keep_identity: bool,
    collect_touched: bool,
}

impl<'a, A: Scalar, X: Scalar, S> FusedMxv<'a, A, X, S> {
    /// Start a pipeline computing `op(graph) · input` under semiring `s`
    /// (orientation and direction come from the [`Descriptor`], exactly as
    /// in [`mxv`](crate::mxv)).
    #[must_use]
    pub fn new(s: S, graph: &'a Graph<A>, input: &'a Vector<X>) -> Self {
        Self {
            s,
            graph,
            input,
            mask: None,
            desc: Descriptor::new(),
            counters: None,
            first_hit_exit: false,
            keep_identity: false,
            collect_touched: true,
        }
    }

    /// Attach an output mask, applied exactly as [`mxv`](crate::mxv)
    /// applies it: it prunes pull rows, gates a structure-only push's
    /// claims, and filters a valued push's merged output.
    #[must_use]
    pub fn mask(mut self, m: &'a Mask<'a>) -> Self {
        self.mask = Some(m);
        self
    }

    /// Set the operation descriptor (transpose, direction, early-exit).
    #[must_use]
    pub fn descriptor(mut self, d: Descriptor) -> Self {
        self.desc = d;
        self
    }

    /// Attach access counters. The fused execution charges exactly what the
    /// unfused `mxv` would.
    #[must_use]
    pub fn counters(mut self, c: Option<&'a AccessCounters>) -> Self {
        self.counters = c;
        self
    }

    /// Stop each pull row's neighbor scan at the **first** explicit input
    /// hit, using that single product as the row's reduction.
    ///
    /// Correctness contract (the caller's obligation): the first hit must
    /// equal the full ⊕-reduction of the row. That holds whenever products
    /// are non-decreasing in neighbor-scan order under a `min` monoid — in
    /// particular for parent BFS, where the frontier carries each vertex's
    /// *own id* as its value and neighbor lists are ascending, so the first
    /// explicit parent *is* the minimum one. Ignored by the push face
    /// (its expansion already touches only frontier columns).
    #[must_use]
    pub fn first_hit_exit(mut self, on: bool) -> Self {
        self.first_hit_exit = on;
        self
    }

    /// Run `apply`/`assign` for **every** mask-allowed pull row, including
    /// rows whose reduction is the ⊕ identity (implicit zeros).
    ///
    /// This mirrors how a dense-output consumer like PageRank reads its
    /// unfused intermediate: `contrib.get(i)` over the active set returns
    /// the fill for zero-inflow rows, and the update still runs. Push
    /// output has no implicit slots, so the flag only affects pull steps.
    #[must_use]
    pub fn keep_identity(mut self, on: bool) -> Self {
        self.keep_identity = on;
        self
    }

    /// Whether to collect the assigned indices into
    /// [`FusedOutput::touched`] (default `true`).
    ///
    /// Turn this off when the assigned set is known a priori — e.g. a
    /// [`keep_identity`](FusedMxv::keep_identity) consumer that assigns
    /// every allowed row — so the pipeline skips building an index list
    /// the caller would discard. With it off, `touched` comes back empty.
    #[must_use]
    pub fn collect_touched(mut self, on: bool) -> Self {
        self.collect_touched = on;
        self
    }

    /// Add the elementwise stage: every surviving matvec output entry is
    /// mapped through `f` before the `assign`. Use the identity closure
    /// when the algorithm consumes raw products (CC and SSSP do).
    #[must_use]
    pub fn apply<Y, Z, F>(self, f: F) -> FusedPipeline<'a, A, X, Y, Z, S, F>
    where
        Y: Scalar,
        Z: Scalar,
        F: Fn(Y) -> Z,
    {
        FusedPipeline {
            base: self,
            apply: f,
            _types: PhantomData,
        }
    }
}

/// A [`FusedMxv`] with its `apply` stage attached; run it with
/// [`assign_into`](FusedPipeline::assign_into).
pub struct FusedPipeline<'a, A: Scalar, X: Scalar, Y, Z, S, F> {
    base: FusedMxv<'a, A, X, S>,
    apply: F,
    _types: PhantomData<fn(Y) -> Z>,
}

impl<A, X, Y, Z, S, F> FusedPipeline<'_, A, X, Y, Z, S, F>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    Z: Scalar,
    S: Semiring<A, X, Y>,
    F: Fn(Y) -> Z + Sync + Send,
{
    /// Execute the chain, assigning into `state` (one slot per output
    /// vertex): for each surviving entry `(i, y)` of the masked matvec,
    /// `update(state[i], apply(y))` decides the write — `Some(z)` stores
    /// `z` and records `i` in [`FusedOutput::touched`], `None` leaves the
    /// slot alone. `update` is the fused `GrB_assign`(-with-accumulator):
    /// always-write for BFS, write-if-smaller for CC/SSSP relaxations.
    ///
    /// Runs the push or pull kernel face `mxv` would run on the same
    /// operands (see [`resolve_direction`](crate::resolve_direction)); pull
    /// chunks write `state` directly in parallel (rows are disjoint across
    /// chunks), push assigns from the column kernel's sorted output —
    /// neither face materializes an intermediate [`Vector`].
    ///
    /// An attached mask's active list has passed the
    /// [`Mask::with_active_list`] checks (strictly ascending and in range),
    /// which is what lets the pull face partition it across workers and
    /// write each listed row's state slot without synchronization.
    pub fn assign_into<U>(self, state: &mut [Z], update: U) -> GrbResult<FusedOutput>
    where
        U: Fn(Z, Z) -> Option<Z> + Sync + Send,
    {
        let FusedPipeline { base, apply, .. } = self;
        let (operand, _) = operands(base.graph, &base.desc);
        if operand.n_cols() != base.input.dim() {
            return Err(GrbError::DimensionMismatch {
                context: "fused mxv input vector",
                expected: operand.n_cols(),
                actual: base.input.dim(),
            });
        }
        if let Some(m) = base.mask {
            if m.dim() != operand.n_rows() {
                return Err(GrbError::DimensionMismatch {
                    context: "fused mxv mask",
                    expected: operand.n_rows(),
                    actual: m.dim(),
                });
            }
        }
        if state.len() != operand.n_rows() {
            return Err(GrbError::DimensionMismatch {
                context: "fused assign state",
                expected: operand.n_rows(),
                actual: state.len(),
            });
        }

        // Pre-flight stop poll, as in `mxv`.
        crate::exec::check_stop(base.counters)?;
        // Same plan as `mxv`, resolved by the same function.
        let out = match face(base.graph, base.input, &base.desc, base.counters) {
            Face::Push(op_t, sv) => fused_push(&base, op_t, &sv, &apply, &update, state),
            Face::Pull(op, dv) => fused_pull(&base, op, &dv, &apply, &update, state),
        };
        // Post-kernel poll: a checkpoint bail upstream must not let a
        // partial assignment masquerade as success.
        crate::exec::check_stop(base.counters)?;
        Ok(out)
    }
}

/// Push face: the column kernel runs unchanged (via [`col_kernel_parts`],
/// so counters match the unfused kernel exactly), then apply + assign
/// consume the harvested parts in one sequential pass — the sparse output
/// vector is never built.
fn fused_push<A, X, Y, Z, S, F, U>(
    base: &FusedMxv<'_, A, X, S>,
    op_t: &Csr<A>,
    v: &SparseVector<X>,
    apply: &F,
    update: &U,
    state: &mut [Z],
) -> FusedOutput
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    Z: Scalar,
    S: Semiring<A, X, Y>,
    F: Fn(Y) -> Z,
    U: Fn(Z, Z) -> Option<Z>,
{
    let (ids, vals): (Vec<u32>, Vec<Y>) =
        col_kernel_parts(base.s, op_t, v, base.mask, base.counters);
    // A trip during the kernel leaves partial parts: skip the assign pass
    // entirely so the caller's state sees as little of the aborted run as
    // possible (the dispatcher converts the sticky trip into an error, and
    // guarded callers discard the state buffer on any error).
    if base.counters.is_some_and(|c| c.stop_reason().is_some()) {
        return FusedOutput {
            touched: Vec::new(),
        };
    }
    let mut touched = Vec::with_capacity(if base.collect_touched { ids.len() } else { 0 });
    for (&i, &y) in ids.iter().zip(vals.iter()) {
        let z = apply(y);
        if let Some(next) = update(state[i as usize], z) {
            state[i as usize] = next;
            if base.collect_touched {
                touched.push(i);
            }
        }
    }
    FusedOutput { touched }
}

/// Pull face: row chunks reduce, apply, and assign in one pass, writing the
/// caller's state slice directly — the `O(M)` dense intermediate of the
/// unfused row kernel is never allocated. It visits, chunks and charges
/// the same rows as the unfused row kernel (a mask's allowed rows read
/// from its bit words or its active list), and polls the limits once per
/// chunk as it does; chunk boundaries derive from the visited-row count
/// only, so `touched` and every state write are identical at any lane
/// count.
fn fused_pull<A, X, Y, Z, S, F, U>(
    base: &FusedMxv<'_, A, X, S>,
    op: &Csr<A>,
    v: &DenseVector<X>,
    apply: &F,
    update: &U,
    state: &mut [Z],
) -> FusedOutput
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    Z: Scalar,
    S: Semiring<A, X, Y>,
    F: Fn(Y) -> Z + Sync + Send,
    U: Fn(Z, Z) -> Option<Z> + Sync + Send,
{
    let s = base.s;
    let identity = s.add_monoid().identity();
    let n = op.n_rows();
    // The unfused row kernels' rows and charges: a mask's allowed rows,
    // or every row of the operand.
    let rows = base.mask.map_or(PullRows::All(n), |m| PullRows::Masked(*m));
    rows.charge(base.counters);
    // Early-exit applies to masked pulls only, mirroring the `mxv`
    // dispatch; first-hit exit is the caller's stronger opt-in.
    let early_exit = base.mask.is_some() && base.desc.early_exit;
    let out = SendPtr(state.as_mut_ptr());
    let parts: Vec<Vec<u32>> = rows
        .chunks()
        .into_par_iter()
        .map(|chunk| {
            let mut touched = Vec::new();
            // Per-chunk checkpoint: a tripped run assigns nothing more.
            if !crate::exec::live(base.counters) {
                return touched;
            }
            let mut tally = RowTally::new(base.counters);
            rows.for_each(chunk, |i| {
                let y = if base.first_hit_exit {
                    reduce_row_first_hit(s, op, v, i, identity, &mut tally)
                } else {
                    reduce_row(s, op, v, i, identity, early_exit, &mut tally)
                };
                if base.keep_identity || y != identity {
                    let z = apply(y);
                    // SAFETY: each output row belongs to exactly one chunk
                    // (chunks partition the visited rows, which are unique
                    // and in bounds — an active list is checked when
                    // attached), so reads/writes of state[i] are disjoint
                    // across workers.
                    let old = unsafe { *out.get().add(i) };
                    if let Some(next) = update(old, z) {
                        unsafe { *out.get().add(i) = next };
                        if base.collect_touched {
                            touched.push(i as u32);
                        }
                    }
                }
            });
            tally.flush(base.counters);
            touched
        })
        .collect();
    let mut touched = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        touched.extend(part);
    }
    debug_assert!(touched.windows(2).all(|w| w[0] < w[1]), "touched sorted");
    FusedOutput { touched }
}

/// Reduce one row stopping at the first explicit input hit (the
/// [`FusedMxv::first_hit_exit`] contract). Counter bookkeeping matches
/// [`reduce_row`]: one matrix access per examined neighbor, tallied on the
/// chunk.
#[inline]
fn reduce_row_first_hit<A, X, Y, S>(
    s: S,
    op: &Csr<A>,
    v: &DenseVector<X>,
    i: usize,
    identity: Y,
    tally: &mut RowTally,
) -> Y
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
{
    let add = s.add_monoid();
    let cols = op.row(i);
    let avals = op.row_values(i);
    let mut acc = identity;
    let mut examined = 0u64;
    for (idx, &j) in cols.iter().enumerate() {
        examined += 1;
        if v.is_explicit(j as usize) {
            acc = add.op(acc, s.mult(avals[idx], v.get(j as usize)));
            break;
        }
    }
    tally.row(examined);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{BoolOrAnd, MinSecond};
    use crate::{mxv, Direction, Mask};
    use graphblas_matrix::Coo;
    use graphblas_primitives::BitVec;

    /// Figure 3's shape: frontier {1,2,3}, visited {0,1,2,3}, children to
    /// discover {4,5}.
    fn fig3_graph() -> Graph<bool> {
        let mut coo = Coo::new(8, 8);
        for &(u, c) in &[(1u32, 0u32), (1, 4), (2, 5), (3, 0), (3, 5), (6, 7)] {
            coo.push(u, c, true);
        }
        Graph::from_coo(&coo)
    }

    fn setup() -> (Vector<bool>, BitVec) {
        let f = Vector::from_sparse(8, false, vec![1, 2, 3], vec![true; 3]);
        let mut visited = BitVec::new(8);
        for i in 0..4 {
            visited.set(i);
        }
        (f, visited)
    }

    fn bfs_desc() -> Descriptor {
        Descriptor::new().transpose(true)
    }

    /// The unfused composition a fused call must match: mxv, then apply +
    /// assign as plain loops over the explicit output entries.
    fn unfused_step(
        g: &Graph<bool>,
        f: &Vector<bool>,
        mask: &Mask<'_>,
        desc: &Descriptor,
        depth: &mut [i32],
        counters: Option<&AccessCounters>,
    ) -> Vec<u32> {
        let w: Vector<bool> = mxv(Some(mask), BoolOrAnd, g, f, desc, counters).unwrap();
        let mut touched = Vec::new();
        for (i, _) in w.iter_explicit() {
            depth[i as usize] = 1;
            touched.push(i);
        }
        touched
    }

    #[test]
    fn fused_matches_unfused_both_faces() {
        let g = fig3_graph();
        let (mut f, visited) = setup();
        for dir in [Direction::Push, Direction::Pull] {
            if dir == Direction::Pull {
                f.make_dense();
            }
            let mask = Mask::complement(&visited);
            let desc = bfs_desc().force(dir);

            let mut d_unfused = vec![-1i32; 8];
            let cu = AccessCounters::new();
            let expect = unfused_step(&g, &f, &mask, &desc, &mut d_unfused, Some(&cu));

            let mut d_fused = vec![-1i32; 8];
            let cf = AccessCounters::new();
            let got = FusedMxv::new(BoolOrAnd, &g, &f)
                .mask(&mask)
                .descriptor(desc)
                .counters(Some(&cf))
                .apply(|_: bool| 1i32)
                .assign_into(&mut d_fused, |_, z| Some(z))
                .unwrap();

            assert_eq!(got.touched, expect, "{dir:?} touched set");
            assert_eq!(d_fused, d_unfused, "{dir:?} state");
            assert_eq!(cf.snapshot(), cu.snapshot(), "{dir:?} counters");
        }
    }

    #[test]
    fn update_rule_rejections_stay_out_of_touched() {
        // No mask; the update rule itself filters already-visited slots —
        // the fused form of the Table 2 "masking off" post-filter.
        let g = fig3_graph();
        let (f, _) = setup();
        let mut d = vec![-1i32; 8];
        d[0] = 0; // 0 is "visited": raw mxv re-discovers it, update rejects.
        let out = FusedMxv::new(BoolOrAnd, &g, &f)
            .descriptor(bfs_desc().force(Direction::Push))
            .apply(|_: bool| 1i32)
            .assign_into(&mut d, |old, z| (old == -1).then_some(z))
            .unwrap();
        assert_eq!(out.touched, vec![4, 5], "0 rejected by the update rule");
        assert_eq!(d[0], 0, "rejected slot untouched");
    }

    #[test]
    fn first_hit_exit_matches_full_reduction_for_min_parent() {
        // Star into vertex 0: every frontier vertex is a candidate parent;
        // the first explicit hit in ascending scan order IS the min parent.
        let n = 64;
        let mut coo = Coo::new(n, n);
        for p in 1..n as u32 {
            coo.push(p, 0, true);
        }
        let g = Graph::from_coo(&coo);
        let ids: Vec<u32> = (3..n as u32).collect();
        let mut f = Vector::from_sparse(n, u32::MAX, ids.clone(), ids);
        f.make_dense();
        let visited = BitVec::new(n);
        let mask = Mask::complement(&visited);
        let run = |first_hit: bool| {
            let c = AccessCounters::new();
            let mut parent = vec![u32::MAX; n];
            let out = FusedMxv::new(MinSecond, &g, &f)
                .mask(&mask)
                .descriptor(bfs_desc().force(Direction::Pull))
                .counters(Some(&c))
                .first_hit_exit(first_hit)
                .apply(|p: u32| p)
                .assign_into(&mut parent, |_, p| Some(p))
                .unwrap();
            (out.touched, parent, c.snapshot().matrix)
        };
        let (t_full, p_full, m_full) = run(false);
        let (t_hit, p_hit, m_hit) = run(true);
        assert_eq!(t_hit, t_full);
        assert_eq!(p_hit, p_full);
        assert_eq!(p_hit[0], 3, "minimum-id parent");
        assert!(
            m_hit < m_full,
            "first-hit exit must cut matrix traffic: {m_hit} vs {m_full}"
        );
    }

    #[test]
    fn keep_identity_assigns_implicit_zero_rows() {
        let g = fig3_graph();
        let mut f = Vector::from_sparse(8, false, vec![1], vec![true]);
        f.make_dense();
        // Unmasked pull with keep_identity: every row is assigned, even
        // rows with no frontier parent (reduction = identity = false).
        let mut hits = vec![-1i32; 8];
        let out = FusedMxv::new(BoolOrAnd, &g, &f)
            .descriptor(bfs_desc().force(Direction::Pull))
            .keep_identity(true)
            .apply(|reached: bool| i32::from(reached))
            .assign_into(&mut hits, |_, z| Some(z))
            .unwrap();
        assert_eq!(out.touched.len(), 8, "every row assigned");
        assert_eq!(hits[0], 1, "child of 1");
        assert_eq!(hits[2], 0, "no frontier parent, identity still applied");
    }

    #[test]
    fn dimension_mismatches_reported() {
        let g = fig3_graph();
        let (f, visited) = setup();
        let mut full_state = [0i32; 8];
        let mut short_state = [0i32; 5];

        let short = Vector::<bool>::new_sparse(5, false);
        let r = FusedMxv::new(BoolOrAnd, &g, &short)
            .apply(|_: bool| 0i32)
            .assign_into(&mut full_state, |_, z| Some(z));
        assert!(matches!(r, Err(GrbError::DimensionMismatch { .. })));

        let bad_bits = BitVec::new(3);
        let bad_mask = Mask::new(&bad_bits);
        let r = FusedMxv::new(BoolOrAnd, &g, &f)
            .mask(&bad_mask)
            .apply(|_: bool| 0i32)
            .assign_into(&mut full_state, |_, z| Some(z));
        assert!(matches!(r, Err(GrbError::DimensionMismatch { .. })));

        let mask = Mask::complement(&visited);
        let r = FusedMxv::new(BoolOrAnd, &g, &f)
            .mask(&mask)
            .apply(|_: bool| 0i32)
            .assign_into(&mut short_state, |_, z| Some(z));
        assert!(matches!(r, Err(GrbError::DimensionMismatch { .. })));
    }

    #[test]
    fn collect_touched_off_still_assigns() {
        let g = fig3_graph();
        let (mut f, visited) = setup();
        f.make_dense();
        let mask = Mask::complement(&visited);
        let mut d = vec![-1i32; 8];
        let out = FusedMxv::new(BoolOrAnd, &g, &f)
            .mask(&mask)
            .descriptor(bfs_desc().force(Direction::Pull))
            .collect_touched(false)
            .apply(|_: bool| 1i32)
            .assign_into(&mut d, |_, z| Some(z))
            .unwrap();
        assert!(out.touched.is_empty(), "index list skipped on request");
        assert_eq!(d[4], 1, "state still assigned");
        assert_eq!(d[5], 1);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn duplicate_active_list_is_rejected_in_release_too() {
        // The unsynchronized caller-state writes rely on list uniqueness;
        // a duplicated row must be refused, not raced on.
        let g = fig3_graph();
        let (mut f, visited) = setup();
        f.make_dense();
        let dup = [4u32, 4];
        let mask = Mask::complement(&visited).with_active_list(&dup);
        let mut d = vec![-1i32; 8];
        let _ = FusedMxv::new(BoolOrAnd, &g, &f)
            .mask(&mask)
            .descriptor(bfs_desc().force(Direction::Pull))
            .apply(|_: bool| 1i32)
            .assign_into(&mut d, |_, z| Some(z));
    }

    #[test]
    fn empty_frontier_is_a_no_op() {
        let g = fig3_graph();
        let f = Vector::<bool>::new_sparse(8, false);
        let c = AccessCounters::new();
        let mut d = vec![-1i32; 8];
        let out = FusedMxv::new(BoolOrAnd, &g, &f)
            .descriptor(bfs_desc().force(Direction::Push))
            .counters(Some(&c))
            .apply(|_: bool| 1i32)
            .assign_into(&mut d, |_, z| Some(z))
            .unwrap();
        assert!(out.touched.is_empty());
        assert!(d.iter().all(|&x| x == -1));
        assert_eq!(c.snapshot().matrix, 0);
    }
}
