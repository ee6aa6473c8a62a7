//! Bit-lane multi-source kernels: one matrix sweep per kernel face serves
//! up to [`MAX_LANES`] BFS traversals at once.
//!
//! A [`LaneGroup`] keeps, for every vertex, one `u64` *lane word* of
//! frontier bits and one of visited ("seen") bits: bit `l` belongs to lane
//! `l`, one source. Together the words form an `n × k` bit-packed Boolean
//! matrix, and a level of multi-source BFS is the masked mxm
//! `F' = (Aᵀ F) .∗ ¬V` over it — the MS-BFS formulation of Then et al.
//! ("The More the Merrier", VLDB 2015) as GraphBLAST writes it.
//! [`LaneGroup::step`] runs one level as at most two sweeps, each serving
//! every lane that chose its face:
//!
//! * **pull** — every row some pulling lane has not seen ORs its
//!   in-neighbours' frontier words, masked to the lanes that still want the
//!   row (the paper's masking, `¬seen`), and stops once every wanted lane
//!   has a hit (its early exit, applied to a lane set);
//! * **push** — every frontier vertex carrying a pushing lane ORs those
//!   lanes, masked by `¬seen`, into its out-neighbours' next words.
//!
//! Each lane picks its own direction, so one level may pull some lanes and
//! push others. A pull row scans the maximum of what its lanes' solo runs
//! would scan (never more than their sum), and a push vertex is expanded
//! once for all of its lanes, so a group's matrix traffic is at most the
//! sum of its members' solo runs.
//!
//! With parent slots attached, a pull row records, for each new lane, the
//! first in-neighbour (ascending) carrying it, and a push keeps the
//! minimum frontier id per (vertex, lane) with an atomic `fetch_min` — both
//! the min-id parent a solo parent BFS returns, with no extra matrix pass.
//!
//! **Determinism.** Chunk boundaries come from sizes only, ORs and mins do
//! not depend on order, and the next frontier is built in ascending vertex
//! order, so results and charges are identical at every lane count.
//!
//! **Charges** (returned per sweep as [`LaneCharges`], never written to
//! shared counters from the workers): pull — `mask` one lane-word read per
//! open row, `matrix` one per examined entry, `vector` one per examined
//! entry plus one next-word write per scanned row; push — `vector` one
//! frontier-word read per expanded vertex plus one next-word OR per
//! product, `matrix` one per product, `mask` one seen-word read per
//! product, `sort` the radix passes that order the touched vertices.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::ops::Scalar;
use crate::ops_mxv::ROW_GRAIN;
use graphblas_matrix::{Graph, RowAccess, VertexId};
use graphblas_primitives::counters::CounterSnapshot;
use graphblas_primitives::{pool, scan, sort};
use rayon::prelude::*;

/// Lanes one group can carry: the bits of a `u64` lane word.
pub const MAX_LANES: usize = 64;

/// The set lanes of a lane word, ascending.
pub fn lanes(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let l = word.trailing_zeros() as usize;
            word &= word - 1;
            l
        })
    })
}

/// What one level's two sweeps charged (zero for a sweep no lane chose).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneCharges {
    /// The pull sweep's charges, served to the pulling lanes.
    pub pull: CounterSnapshot,
    /// The push sweep's charges, served to the pushing lanes.
    pub push: CounterSnapshot,
}

/// The dense lane state of one multi-source traversal group, allocated
/// once and advanced one level per [`LaneGroup::step`]. The group
/// multiplies by `Aᵀ` (Algorithm 1): pull rows are in-neighbour lists,
/// push rows out-neighbour lists.
///
/// ```
/// use graphblas_core::LaneGroup;
/// use graphblas_matrix::{Coo, Graph};
///
/// // 0 → 1 → 2: lane 0 starts at 0, lane 1 at 1; both push one level.
/// let mut coo = Coo::new(3, 3);
/// coo.push(0, 1, true);
/// coo.push(1, 2, true);
/// let g = Graph::from_coo(&coo);
/// let mut group = LaneGroup::new(3, &[0, 1]);
/// let _ = group.step(&g, 0, 0b11, None);
/// assert_eq!(group.frontier(), (&[1u32, 2][..], &[0b01u64, 0b10][..]));
/// ```
#[derive(Debug)]
pub struct LaneGroup {
    /// Lanes still traversing.
    live: u64,
    /// `frontier[v]`: the lanes whose current frontier holds `v`.
    frontier: Vec<u64>,
    /// `seen[v]`: the lanes that have visited `v`.
    seen: Vec<u64>,
    /// `next[v]`: the lanes that discovered `v` this level (zero between
    /// levels).
    next: Vec<AtomicU64>,
    /// The current frontier's vertices, ascending, and their lane words.
    ids: Vec<VertexId>,
    words: Vec<u64>,
    /// Vertices some live lane has not seen, ascending: the pull sweep's
    /// rows. Built on the first pull level, compacted before a pull that
    /// follows discoveries or retirements.
    open: Option<Vec<VertexId>>,
    open_stale: bool,
}

impl LaneGroup {
    /// A group over `n` vertices where lane `l` starts at `sources[l]`
    /// (duplicates allowed).
    ///
    /// # Panics
    /// If there are more than [`MAX_LANES`] sources or one is out of range.
    #[must_use]
    pub fn new(n: usize, sources: &[VertexId]) -> Self {
        assert!(
            sources.len() <= MAX_LANES,
            "a lane group holds at most 64 sources"
        );
        let mut frontier = vec![0u64; n];
        for (l, &s) in sources.iter().enumerate() {
            assert!((s as usize) < n, "source out of range");
            frontier[s as usize] |= 1 << l;
        }
        let mut ids = sources.to_vec();
        ids.sort_unstable();
        ids.dedup();
        let words = ids.iter().map(|&v| frontier[v as usize]).collect();
        let live = match sources.len() {
            0 => 0,
            k => u64::MAX >> (MAX_LANES - k),
        };
        Self {
            live,
            seen: frontier.clone(),
            frontier,
            next: (0..n).map(|_| AtomicU64::new(0)).collect(),
            ids,
            words,
            open: None,
            open_stale: false,
        }
    }

    /// The lanes still traversing.
    #[must_use]
    pub fn live(&self) -> u64 {
        self.live
    }

    /// Take `lanes` out of the group: later sweeps never serve them.
    pub fn retire(&mut self, lanes: u64) {
        self.live &= !lanes;
        self.open_stale = true;
    }

    /// The current frontier: its vertices, ascending, and for each the
    /// lanes whose frontier holds it. After a [`LaneGroup::step`] these are
    /// exactly the level's discoveries.
    #[must_use]
    pub fn frontier(&self) -> (&[VertexId], &[u64]) {
        (&self.ids, &self.words)
    }

    /// Run one level: pull the lanes in `pull`, push the lanes in `push`
    /// (disjoint subsets of [`LaneGroup::live`]), then advance every served
    /// lane's frontier and visited words. The pull sweep reads `Aᵀ` rows
    /// ([`Graph::csr_t`]), the push sweep `A` rows ([`Graph::csr`]).
    /// `parents`, when given, holds one slot array per lane, `u32::MAX`
    /// wherever the lane has not visited; each discovery stores its min-id
    /// parent there.
    pub fn step<A: Scalar>(
        &mut self,
        graph: &Graph<A>,
        pull: u64,
        push: u64,
        parents: Option<&[Vec<AtomicU32>]>,
    ) -> LaneCharges {
        debug_assert_eq!(pull & push, 0, "a lane runs one face per level");
        debug_assert_eq!((pull | push) & !self.live, 0, "only live lanes run");
        let mut charges = LaneCharges::default();
        let mut pulled = Vec::new();
        if pull != 0 {
            self.refresh_open();
            let rows = self.open.as_deref().unwrap_or_default();
            let sweep = PullSweep {
                rows,
                want: pull,
                frontier: &self.frontier,
                seen: &self.seen,
                next: &self.next,
                parents,
            };
            (pulled, charges.pull) = sweep.run(graph.csr_t());
        }
        let mut pushed = Vec::new();
        if push != 0 {
            let sweep = PushSweep {
                ids: &self.ids,
                words: &self.words,
                want: push,
                seen: &self.seen,
                next: &self.next,
                parents,
            };
            (pushed, charges.push) = sweep.run(graph.csr());
        }

        // Advance: the discoveries, ascending, become the next frontier.
        for &u in &self.ids {
            self.frontier[u as usize] = 0;
        }
        self.ids = merge_ascending(&pulled, &pushed);
        self.words.clear();
        for &v in &self.ids {
            let w = std::mem::take(self.next[v as usize].get_mut());
            self.seen[v as usize] |= w;
            self.frontier[v as usize] = w;
            self.words.push(w);
        }
        self.open_stale |= !self.ids.is_empty();
        charges
    }

    /// Build the open-row list on first use, or drop the rows every live
    /// lane has seen since the last pull.
    fn refresh_open(&mut self) {
        let (live, seen) = (self.live, &self.seen);
        let unfinished = |v: &VertexId| live & !seen[*v as usize] != 0;
        match &mut self.open {
            None => self.open = Some((0..seen.len() as VertexId).filter(unfinished).collect()),
            Some(rows) if self.open_stale => rows.retain(unfinished),
            Some(_) => {}
        }
        self.open_stale = false;
    }
}

/// Union of two ascending, disjoint vertex lists.
fn merge_ascending(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// One level's pull sweep over the open rows.
struct PullSweep<'a> {
    rows: &'a [VertexId],
    want: u64,
    frontier: &'a [u64],
    seen: &'a [u64],
    next: &'a [AtomicU64],
    parents: Option<&'a [Vec<AtomicU32>]>,
}

impl PullSweep<'_> {
    /// Scan the open rows in size-derived chunks; returns the rows some
    /// lane discovered (ascending) and the sweep's charges.
    fn run<A, M: RowAccess<A>>(&self, op: &M) -> (Vec<VertexId>, CounterSnapshot) {
        let parts: Vec<(Vec<VertexId>, u64, u64)> = pool::index_chunks(self.rows.len(), ROW_GRAIN)
            .into_par_iter()
            .map(|range| {
                let mut found = Vec::new();
                let (mut examined, mut scanned) = (0u64, 0u64);
                for &v in &self.rows[range] {
                    let v = v as usize;
                    let wanted = self.want & !self.seen[v];
                    if wanted == 0 {
                        continue;
                    }
                    scanned += 1;
                    let mut got = 0u64;
                    for &u in op.row(v) {
                        examined += 1;
                        let hit = self.frontier[u as usize] & wanted & !got;
                        if hit != 0 {
                            got |= hit;
                            if let Some(slots) = self.parents {
                                for l in lanes(hit) {
                                    slots[l][v].store(u, Ordering::Relaxed);
                                }
                            }
                            if got == wanted {
                                break;
                            }
                        }
                    }
                    if got != 0 {
                        // The row is this chunk's alone and no push has run.
                        self.next[v].store(got, Ordering::Relaxed);
                        found.push(v as VertexId);
                    }
                }
                (found, examined, scanned)
            })
            .collect();
        let mut charges = CounterSnapshot {
            mask: self.rows.len() as u64,
            ..CounterSnapshot::default()
        };
        let mut found = Vec::new();
        for (rows, examined, scanned) in parts {
            charges.matrix += examined;
            charges.vector += examined + scanned;
            found.extend(rows);
        }
        (found, charges)
    }
}

/// Expanded products each push-sweep chunk should own.
const PUSH_GRAIN: usize = 8192;

/// Ceiling on push-sweep chunks per level.
const MAX_PUSH_CHUNKS: usize = 16;

/// Expansion-balanced chunk boundaries over the selected frontier vertices,
/// whose degrees `offsets` scans (trailing total): each chunk owns about
/// [`PUSH_GRAIN`] expanded products, at most [`MAX_PUSH_CHUNKS`] chunks,
/// none empty. The bounds come from sizes only, never the lane count.
fn push_chunks(offsets: &[usize], total: usize) -> Vec<(usize, usize)> {
    let pieces = (total / PUSH_GRAIN).clamp(1, MAX_PUSH_CHUNKS);
    let n_seg = offsets.len() - 1;
    let mut bounds = vec![0usize];
    for j in 1..pieces {
        let target = total * j / pieces;
        let idx = offsets.partition_point(|&o| o < target).min(n_seg);
        if idx > *bounds.last().expect("non-empty bounds") {
            bounds.push(idx);
        }
    }
    if *bounds.last().expect("non-empty bounds") != n_seg {
        bounds.push(n_seg);
    }
    bounds.windows(2).map(|w| (w[0], w[1])).collect()
}

/// One level's push sweep over the frontier vertices carrying a pushing
/// lane.
struct PushSweep<'a> {
    ids: &'a [VertexId],
    words: &'a [u64],
    want: u64,
    seen: &'a [u64],
    next: &'a [AtomicU64],
    parents: Option<&'a [Vec<AtomicU32>]>,
}

impl PushSweep<'_> {
    /// Expand the selected frontier in expansion-balanced chunks; returns
    /// the vertices this sweep touched first (ascending) and its charges.
    fn run<A, M: RowAccess<A>>(&self, op_t: &M) -> (Vec<VertexId>, CounterSnapshot) {
        let sel: Vec<usize> = (0..self.ids.len())
            .filter(|&i| self.words[i] & self.want != 0)
            .collect();
        if sel.is_empty() {
            return (Vec::new(), CounterSnapshot::default());
        }
        let lengths: Vec<usize> = sel
            .iter()
            .map(|&i| op_t.degree(self.ids[i] as usize))
            .collect();
        let offsets = scan::exclusive_scan_offsets(&lengths);
        let total = *offsets.last().expect("non-empty offsets") as u64;
        let parts: Vec<Vec<VertexId>> = push_chunks(&offsets, total as usize)
            .into_par_iter()
            .map(|(s0, s1)| {
                let mut touched = Vec::new();
                for &i in &sel[s0..s1] {
                    let u = self.ids[i];
                    let carried = self.words[i] & self.want;
                    for &v in op_t.row(u as usize) {
                        let v = v as usize;
                        let new = carried & !self.seen[v];
                        if new == 0 {
                            continue;
                        }
                        if self.next[v].load(Ordering::Relaxed) & new != new
                            && self.next[v].fetch_or(new, Ordering::Relaxed) == 0
                        {
                            touched.push(v as VertexId);
                        }
                        if let Some(slots) = self.parents {
                            for l in lanes(new) {
                                let slot = &slots[l][v];
                                if slot.load(Ordering::Relaxed) > u {
                                    slot.fetch_min(u, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                }
                touched
            })
            .collect();
        let mut touched: Vec<VertexId> = parts.concat();
        let max_key = self.seen.len().max(1) as u32 - 1;
        sort::sort_keys(&mut touched, max_key);
        let charges = CounterSnapshot {
            matrix: total,
            vector: sel.len() as u64 + total,
            mask: total,
            sort: touched.len() as u64 * sort::passes_for(max_key) as u64,
            ..CounterSnapshot::default()
        };
        (touched, charges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_matrix::Coo;

    /// 0 → {1, 2} → 3 → 4, plus 5 isolated.
    fn chain() -> Graph<bool> {
        let mut coo = Coo::new(6, 6);
        for &(u, v) in &[(0u32, 1u32), (0, 2), (1, 3), (2, 3), (3, 4)] {
            coo.push(u, v, true);
        }
        Graph::from_coo(&coo)
    }

    fn run(pull: bool) -> Vec<(Vec<VertexId>, Vec<u64>)> {
        let g = chain();
        let mut group = LaneGroup::new(6, &[0, 2, 5]);
        let mut levels = Vec::new();
        while group.live() != 0 {
            let live = group.live();
            let (pull_mask, push_mask) = if pull { (live, 0) } else { (0, live) };
            let _ = group.step(&g, pull_mask, push_mask, None);
            let (ids, words) = group.frontier();
            levels.push((ids.to_vec(), words.to_vec()));
            let mut done = live;
            for &w in words {
                done &= !w;
            }
            group.retire(done);
        }
        levels
    }

    #[test]
    fn lane_bits_iterate_ascending() {
        assert_eq!(lanes(0b1010_0001).collect::<Vec<_>>(), vec![0, 5, 7]);
        assert_eq!(lanes(0).count(), 0);
        assert_eq!(lanes(u64::MAX).count(), 64);
    }

    #[test]
    fn pull_and_push_sweeps_discover_the_same_levels() {
        let push = run(false);
        assert_eq!(
            push,
            vec![
                (vec![1, 2, 3], vec![0b001, 0b001, 0b010]),
                (vec![3, 4], vec![0b001, 0b010]),
                (vec![4], vec![0b001]),
                (vec![], vec![]),
            ]
        );
        assert_eq!(run(true), push);
    }

    #[test]
    fn parents_are_min_ids_on_both_faces() {
        // Diamond 0 → {1, 2} → 3: both 1 and 2 can parent 3; min wins.
        let mut coo = Coo::new(4, 4);
        for &(u, v) in &[(0u32, 1u32), (0, 2), (1, 3), (2, 3)] {
            coo.push(u, v, true);
        }
        let g = Graph::from_coo(&coo);
        for pull in [false, true] {
            let slots: Vec<Vec<AtomicU32>> = (0..2)
                .map(|_| (0..4).map(|_| AtomicU32::new(u32::MAX)).collect())
                .collect();
            let mut group = LaneGroup::new(4, &[0, 0]);
            for _ in 0..2 {
                let (p, q) = if pull { (0b11, 0) } else { (0, 0b11) };
                let _ = group.step(&g, p, q, Some(&slots));
            }
            for lane in &slots {
                let got: Vec<u32> = lane.iter().map(|s| s.load(Ordering::Relaxed)).collect();
                assert_eq!(got, vec![u32::MAX, 0, 0, 1], "pull = {pull}");
            }
        }
    }

    #[test]
    fn push_level_charges_only_frontier_edges() {
        let g = chain();
        let mut group = LaneGroup::new(6, &[0, 0]);
        let charges = group.step(&g, 0, 0b11, None);
        assert_eq!(charges.pull, CounterSnapshot::default());
        assert_eq!(
            charges.push.matrix, 2,
            "vertex 0 expanded once for both lanes"
        );
        assert!(
            group.open.is_none(),
            "a push level never builds the row list"
        );
    }
}
