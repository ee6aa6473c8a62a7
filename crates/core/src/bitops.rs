//! Bit-parallel boolean-semiring kernels: `u64` words end to end.
//!
//! The scalar row kernel examines one stored edge per loop iteration. For
//! BFS-style *any/pair* semirings (structure-only products, an idempotent
//! ⊕ that saturates at its annihilator) the per-edge work is pure set
//! algebra, so when the planned operand store is a
//! [`BitmapStore`](graphblas_matrix::BitmapStore) the same reduction can
//! run 64 edges at a time: AND a row's bitmap window against the packed
//! input words, recover the scalar rank for the Table 1 bookkeeping, and
//! stop at the first set word for the early-exit semirings. The tiled
//! [`BitmapStore`](graphblas_matrix::BitmapStore) hands each row a
//! *windowed* word span (`RowAccess::row_word_span`: a start word plus the
//! words its tile actually allocated), so the word loops here run over the
//! window — not `⌈n_cols/64⌉` padded words — and process word groups of
//! up to 4 `u64`s per iteration (autovectorizable). This module holds the
//! pieces the pull face dispatches to:
//!
//! * `FrontierWords` — the kernel-facing packed operand: dense words, or a
//!   compressed sorted `(word_index, word)` list (roaring-lite) when the
//!   frontier is sparse enough that scanning only its nonzero words beats
//!   scanning every window word on a huge graph;
//! * `BitPull` / `bit_pull_ctx` — the per-call context of the bit pull
//!   path: the packed input plus the semiring facts (constant product
//!   hint, break-on-hit) the word loop relies on;
//! * `bit_reduce_row` / `bit_reduce_row_first_hit` — the word-wise row
//!   reductions, value- and counter-equivalent to the scalar `reduce_row`
//!   twins by construction (the CSR rank of the first hit column recovers
//!   exactly the scalar `examined` count). Each is a *hybrid*: rows whose
//!   degree is below their window-overlap word count — and rows whose tile
//!   allocated no words at all — take a scalar probe of the CSR columns
//!   against the frontier bits instead of the word scan, so a missing word
//!   surface degrades gracefully rather than panicking;
//! * `UnvisitedIndex` — one level of summary words over the
//!   (complement-adjusted) mask words, so late-level pull scans skip
//!   64-row regions that are already fully visited.
//!
//! The push face has no bit arm: it runs the scalar column kernel over
//! whichever store the planner serves.
//!
//! **The load-bearing invariant**: every function here charges the same
//! `matrix`/`vector`/`mask`/`sort` access amounts the scalar kernel
//! charges for the same call — the 64× win is *visible only* through the
//! separate `bit_word_ops` telemetry counter (zeroed by both counter
//! projections), because the equivalence tests compare bitmap-format runs
//! against the `Force(Csr)` scalar oracle snapshot-for-snapshot.
//! `Descriptor::bit_kernels(false)` switches all of this off and is the
//! oracle arm of `tests/prop_core.rs`.

use crate::descriptor::Descriptor;
use crate::mask::Mask;
use crate::ops::{Monoid, Scalar, Semiring};
use crate::vector::DenseVector;
use graphblas_matrix::RowAccess;
use graphblas_primitives::counters::AccessCounters;

/// The packed operand a bit kernel scans: `is_explicit` of the input
/// vector, one bit per column, in one of two shapes.
///
/// `Dense` is the flat `⌈dim/64⌉`-word image. `Compressed` is the
/// roaring-lite form — only the nonzero words, as a sorted
/// `(word_index, word)` list — chosen by [`FrontierWords::from_dense`]
/// when the frontier occupies at most 1 word in
/// [`FrontierWords::COMPRESS_FACTOR`]: on a huge graph a one-vertex
/// frontier then costs each row a handful of pair probes instead of a
/// full window scan. Both shapes answer the same queries, and the kernels
/// charge identical `matrix`/`vector` counts either way (only the
/// `bit_word_ops` telemetry sees the difference).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum FrontierWords {
    /// Flat word image, indexed by word number.
    Dense(Vec<u64>),
    /// Sorted `(word_index, word)` pairs, nonzero words only.
    Compressed(Vec<(u32, u64)>),
}

impl FrontierWords {
    /// Compress when nonzero words × this factor still undercuts the
    /// dense word count — i.e. the frontier touches ≤ 1/4 of the words.
    pub(crate) const COMPRESS_FACTOR: usize = 4;

    /// Wrap a dense word image, compressing when sparse enough.
    pub(crate) fn from_dense(words: Vec<u64>) -> Self {
        let nzw = words.iter().filter(|&&w| w != 0).count();
        if nzw * Self::COMPRESS_FACTOR <= words.len() {
            FrontierWords::Compressed(
                words
                    .iter()
                    .enumerate()
                    .filter(|&(_, &w)| w != 0)
                    .map(|(g, &w)| (g as u32, w))
                    .collect(),
            )
        } else {
            FrontierWords::Dense(words)
        }
    }

    /// Whether bit `j` (an input slot / column id) is set.
    #[inline]
    pub(crate) fn contains(&self, j: usize) -> bool {
        let (g, b) = (j / 64, (j % 64) as u32);
        match self {
            FrontierWords::Dense(w) => w.get(g).is_some_and(|&w| w >> b & 1 != 0),
            FrontierWords::Compressed(p) => p
                .binary_search_by_key(&(g as u32), |&(i, _)| i)
                .is_ok_and(|k| p[k].1 >> b & 1 != 0),
        }
    }

    /// How many frontier words a scan of window `[start, start+width)`
    /// would visit — the word-path cost the hybrid row kernels weigh
    /// against a `degree`-probe scalar pass.
    #[inline]
    pub(crate) fn overlap(&self, start: usize, width: usize) -> usize {
        match self {
            FrontierWords::Dense(_) => width,
            FrontierWords::Compressed(p) => {
                let lo = p.partition_point(|&(i, _)| (i as usize) < start);
                let hi = p.partition_point(|&(i, _)| (i as usize) < start + width);
                hi - lo
            }
        }
    }

    /// Scan a row's word window for the first AND hit, in word groups of
    /// up to 4 (the dense inner loop is a plain OR-of-ANDs the compiler
    /// autovectorizes). Returns `(scanned, hit)` where `scanned` counts
    /// frontier words visited up to and including the hit word (the
    /// `bit_word_ops` charge) and `hit` is the first set column, lowest
    /// word then lowest bit — exactly the scalar loop's first explicit
    /// neighbor, because CSR rows are column-sorted.
    #[inline]
    pub(crate) fn scan_window(&self, start: usize, row: &[u64]) -> (u64, Option<usize>) {
        match self {
            FrontierWords::Dense(words) => {
                let vw = &words[start..start + row.len()];
                let mut scanned = 0u64;
                let mut t = 0usize;
                while t < row.len() {
                    let end = (t + 4).min(row.len());
                    let mut any = 0u64;
                    for k in t..end {
                        any |= row[k] & vw[k];
                    }
                    if any != 0 {
                        for (k, (&rw, &fw)) in row[t..end].iter().zip(&vw[t..end]).enumerate() {
                            let and = rw & fw;
                            if and != 0 {
                                scanned += k as u64 + 1;
                                let j = (start + t + k) * 64 + and.trailing_zeros() as usize;
                                return (scanned, Some(j));
                            }
                        }
                        unreachable!("group OR was nonzero");
                    }
                    scanned += (end - t) as u64;
                    t = end;
                }
                (scanned, None)
            }
            FrontierWords::Compressed(p) => {
                let lo = p.partition_point(|&(i, _)| (i as usize) < start);
                let mut scanned = 0u64;
                for &(idx, fw) in &p[lo..] {
                    let idx = idx as usize;
                    if idx >= start + row.len() {
                        break;
                    }
                    scanned += 1;
                    let and = row[idx - start] & fw;
                    if and != 0 {
                        let j = idx * 64 + and.trailing_zeros() as usize;
                        return (scanned, Some(j));
                    }
                }
                (scanned, None)
            }
        }
    }
}

/// Per-call context of the bit pull path: the packed input, plus the two
/// semiring facts the word loop exploits.
pub(crate) struct BitPull<Y> {
    /// `is_explicit` of the input vector, one bit per column.
    pub(crate) words: FrontierWords,
    /// The constant every (stored entry ⊗ explicit input) product equals.
    pub(crate) hint: Y,
    /// Whether ⊕ saturates at `hint` (annihilator), i.e. the scalar loop
    /// would break on the first explicit hit under `early_exit`.
    pub(crate) break_on_hit: bool,
}

/// Build the bit pull context when the call qualifies, else `None` (the
/// caller falls back to the scalar kernel).
///
/// Qualifying means: the descriptor opts in (`bit_kernels` *and*
/// `structure_only`), the served store exposes a word surface
/// (`RowAccess::has_row_words` — only the bitmap store does), the
/// semiring declares a constant product hint `h`, and the ⊕ monoid
/// satisfies `identity ⊕ h = h` and `h ⊕ h = h` — exactly what makes "any
/// explicit hit ⇒ row reduces to `h`, no hit ⇒ identity" the full
/// reduction. Packing the operand charges one `bit_word_ops` per word.
pub(crate) fn bit_pull_ctx<A, X, Y, S, M>(
    s: S,
    op: &M,
    v: &DenseVector<X>,
    desc: &Descriptor,
    counters: Option<&AccessCounters>,
) -> Option<BitPull<Y>>
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
    M: RowAccess<A>,
{
    if !desc.bit_kernels || !desc.structure_only || !op.has_row_words() {
        return None;
    }
    let hint = s.product_hint()?;
    let add = s.add_monoid();
    let identity = add.identity();
    if add.op(identity, hint) != hint || add.op(hint, hint) != hint {
        return None;
    }
    let break_on_hit = add.annihilator() == Some(hint);
    let words = pack_frontier(v, counters);
    Some(BitPull {
        words,
        hint,
        break_on_hit,
    })
}

/// Pack a dense vector into [`FrontierWords`], compressing sparse
/// frontiers — the packing the bit kernels consume. The charge is the
/// dense word count (one `bit_word_ops` per packed word) regardless of
/// the shape chosen, matching [`pack_explicit_words`].
pub(crate) fn pack_frontier<X: Scalar>(
    v: &DenseVector<X>,
    counters: Option<&AccessCounters>,
) -> FrontierWords {
    FrontierWords::from_dense(pack_explicit_words(v, counters))
}

/// Pack `is_explicit` of a dense vector into `u64` words (bit `j` set iff
/// slot `j` is explicit). Charges one `bit_word_ops` per output word.
pub(crate) fn pack_explicit_words<X: Scalar>(
    v: &DenseVector<X>,
    counters: Option<&AccessCounters>,
) -> Vec<u64> {
    let n = v.dim();
    let mut words = vec![0u64; n.div_ceil(64)];
    for (g, w) in words.iter_mut().enumerate() {
        let start = g * 64;
        let end = (start + 64).min(n);
        let mut bits = 0u64;
        for j in start..end {
            if v.is_explicit(j) {
                bits |= 1u64 << (j - start);
            }
        }
        *w = bits;
    }
    if let Some(c) = counters {
        c.add_bit_word_ops(words.len() as u64);
    }
    words
}

/// The first explicit hit of row `i` and the words scanned finding it,
/// via whichever of the two equivalent passes is cheaper:
///
/// * **word path** — when the row has a word window and the frontier
///   overlaps it in at most `degree` words, AND the window against the
///   frontier ([`FrontierWords::scan_window`], word groups of 4); the hit
///   column's CSR rank (`binary_search` of the sorted row) is the scalar
///   loop's 1-based `examined` position;
/// * **scalar probe** — when the window scan would cost more words than
///   the row has edges, or the row's tile allocated no words at all
///   (gating and store state disagreeing is *handled*, not a panic):
///   probe each stored column against the frontier bits. Charges zero
///   `bit_word_ops`; the hit rank is the probe position itself.
///
/// Both passes return the same `(rank, column)` because CSR rows are
/// column-sorted and the word scan hits lowest-word-lowest-bit first.
#[inline]
fn first_hit<A, M>(op: &M, fw: &FrontierWords, i: usize) -> (u64, Option<(u64, usize)>)
where
    A: Scalar,
    M: RowAccess<A>,
{
    if let Some((start, row)) = op.row_word_span(i) {
        if fw.overlap(start, row.len()) <= op.degree(i) {
            let (scanned, hit) = fw.scan_window(start, row);
            let hit = hit.map(|j| {
                let rank = match op.row(i).binary_search(&(j as u32)) {
                    Ok(pos) => pos as u64 + 1,
                    // Bitmap and payload disagree (impossible by
                    // construction): charge the whole row rather than
                    // undercount.
                    Err(_) => op.degree(i) as u64,
                };
                (rank, j)
            });
            return (scanned, hit);
        }
    }
    for (k, &j) in op.row(i).iter().enumerate() {
        if fw.contains(j as usize) {
            return (0, Some((k as u64 + 1, j as usize)));
        }
    }
    (0, None)
}

/// Word-wise reduction of one operand row — the bit twin of the scalar
/// `reduce_row` under a `BitPull` context.
///
/// Finds the first explicit hit via [`first_hit`] (word window or scalar
/// probe, whichever is cheaper for this row); any hit means the row
/// reduces to the hint (the context's monoid laws). The *charged*
/// `examined` count replays the scalar loop exactly:
///
/// * early-exit break (context says ⊕ saturates at the hint, caller says
///   `early_exit`): the scalar loop stops at the first explicit hit, so
///   its CSR rank is charged;
/// * otherwise (or no hit): the scalar loop walks the whole row, so the
///   full `degree(i)` is charged even though the value needed one word.
#[inline]
pub(crate) fn bit_reduce_row<A, Y, M>(
    op: &M,
    ctx: &BitPull<Y>,
    i: usize,
    identity: Y,
    early_exit: bool,
    counters: Option<&AccessCounters>,
) -> Y
where
    A: Scalar,
    Y: Scalar,
    M: RowAccess<A>,
{
    // Per-row checkpoint, mirroring the scalar `reduce_row`.
    if !crate::exec::live(counters) {
        return identity;
    }
    let (scanned, hit) = first_hit(op, &ctx.words, i);
    let examined = match hit {
        Some((rank, _)) if early_exit && ctx.break_on_hit => rank,
        _ => op.degree(i) as u64,
    };
    if let Some(c) = counters {
        c.add_matrix(examined);
        c.add_vector(examined + 1);
        c.add_bit_word_ops(scanned);
    }
    if hit.is_some() {
        ctx.hint
    } else {
        identity
    }
}

/// Word-wise first-hit reduction — the bit twin of the fused pipeline's
/// `reduce_row_first_hit`, and fully generic over the semiring (no hint
/// needed): the CSR rank of the first hit indexes straight into the row's
/// value slice, so the single product `a ⊗ v(j)` is computed exactly as
/// the scalar loop would. `fw` is the packed input from `pack_frontier`.
/// Charges `examined = rank` (the scalar loop breaks unconditionally on
/// the first explicit hit) or `degree(i)` when the row has none.
#[inline]
pub(crate) fn bit_reduce_row_first_hit<A, X, Y, S, M>(
    s: S,
    op: &M,
    fw: &FrontierWords,
    v: &DenseVector<X>,
    i: usize,
    identity: Y,
    counters: Option<&AccessCounters>,
) -> Y
where
    A: Scalar,
    X: Scalar,
    Y: Scalar,
    S: Semiring<A, X, Y>,
    M: RowAccess<A>,
{
    let add = s.add_monoid();
    let (scanned, hit) = first_hit(op, fw, i);
    let (acc, examined) = match hit {
        Some((rank, j)) => {
            // rank is 1-based among the row's stored entries, ascending by
            // column — identical to the CSR order, so rank-1 indexes the
            // stored value of the hit entry.
            let a = op.row_values(i)[(rank - 1) as usize];
            (add.op(identity, s.mult(a, v.get(j))), rank)
        }
        None => (identity, op.degree(i) as u64),
    };
    if let Some(c) = counters {
        c.add_matrix(examined);
        c.add_vector(examined + 1);
        c.add_bit_word_ops(scanned);
    }
    acc
}

/// One level of summary words over a mask's (complement-adjusted) words:
/// bit `j` of `summary[q]` is set iff allowed-word `q*64 + j` has any
/// allowed row. The masked bit pull iterates only the live 64-row groups,
/// so a level-k BFS scan skips regions whose rows are all visited — the
/// *unvisited index* of the bit pull path.
///
/// Counter-neutral by construction: the scalar kernel charges `mask(M)` in
/// bulk for the same information and does no per-row work on disallowed
/// rows, so skipping them wholesale changes `bit_word_ops` telemetry only
/// (one per mask word + one per summary word, charged at build).
pub(crate) struct UnvisitedIndex<'a> {
    words: &'a [u64],
    complement: bool,
    tail_mask: u64,
    summary: Vec<u64>,
}

impl<'a> UnvisitedIndex<'a> {
    /// Build the summary from a mask's word surface.
    pub(crate) fn build(mask: &Mask<'a>, counters: Option<&AccessCounters>) -> Self {
        let (words, complement) = mask.word_view();
        let dim = mask.dim();
        let tail_mask = if dim.is_multiple_of(64) {
            u64::MAX
        } else {
            (1u64 << (dim % 64)) - 1
        };
        let mut summary = vec![0u64; words.len().div_ceil(64)];
        for g in 0..words.len() {
            if allowed_word(words, complement, tail_mask, g) != 0 {
                summary[g / 64] |= 1u64 << (g % 64);
            }
        }
        if let Some(c) = counters {
            c.add_bit_word_ops((words.len() + summary.len()) as u64);
        }
        Self {
            words,
            complement,
            tail_mask,
            summary,
        }
    }

    /// The allowed-row word for 64-row group `g` (complement applied,
    /// tail-masked to the mask's dimension).
    pub(crate) fn allowed_word(&self, g: usize) -> u64 {
        allowed_word(self.words, self.complement, self.tail_mask, g)
    }

    /// Indices of groups with at least one allowed row, ascending.
    pub(crate) fn live_groups(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for (q, &sw) in self.summary.iter().enumerate() {
            let mut bits = sw;
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                out.push(q * 64 + j);
            }
        }
        out
    }
}

fn allowed_word(words: &[u64], complement: bool, tail_mask: u64, g: usize) -> u64 {
    let w = words[g];
    if complement {
        let inv = !w;
        if g + 1 == words.len() {
            inv & tail_mask
        } else {
            inv
        }
    } else {
        // Plain mask words keep their tail zero by the BitVec invariant.
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::BoolStructure;
    use graphblas_matrix::{BitmapStore, Coo, Csr};
    use graphblas_primitives::BitVec;
    use std::sync::Arc;

    fn bitmap_3x70() -> BitmapStore<bool> {
        let mut coo = Coo::new(3, 70);
        for &(i, j) in &[(0u32, 0u32), (0, 63), (0, 64), (1, 69), (2, 1)] {
            coo.push(i, j, true);
        }
        let csr = Arc::new(Csr::from_coo(&coo));
        BitmapStore::try_from_shared(csr).expect("3x70 fits")
    }

    #[test]
    fn packed_words_match_is_explicit() {
        let mut d = DenseVector::new(70, false);
        d.set(0, true);
        d.set(63, true);
        d.set(64, true);
        let c = AccessCounters::new();
        let words = pack_explicit_words(&d, Some(&c));
        assert_eq!(words, vec![(1u64 << 63) | 1, 1]);
        assert_eq!(c.snapshot().bit_word_ops, 2, "one charge per word");
    }

    #[test]
    fn bit_reduce_row_matches_scalar_examined_counts() {
        // Row 0 of the 3x70 store has entries at columns {0, 63, 64}.
        let store = bitmap_3x70();
        let mut d = DenseVector::new(70, false);
        d.set(64, true); // only the third stored entry is explicit
        let ctx = bit_pull_ctx(
            BoolStructure,
            &store,
            &d,
            &Descriptor::new().structure_only(true),
            None,
        )
        .expect("BoolStructure on a bitmap qualifies");
        assert!(ctx.break_on_hit, "OR saturates at true");

        // Early exit: scalar examines entries 1 (col 0), 2 (col 63),
        // 3 (col 64, hit) => examined = 3.
        let c = AccessCounters::new();
        let y = bit_reduce_row(&store, &ctx, 0, false, true, Some(&c));
        assert!(y);
        let s = c.snapshot();
        assert_eq!(s.matrix, 3, "popcount rank = scalar examined");
        assert_eq!(s.vector, 4);
        assert_eq!(s.bit_word_ops, 2, "hit found in the second word");

        // No early exit: the scalar loop walks the full degree.
        let c = AccessCounters::new();
        let y = bit_reduce_row(&store, &ctx, 0, false, false, Some(&c));
        assert!(y);
        assert_eq!(c.snapshot().matrix, 3, "degree(0) = 3");

        // Row with no explicit neighbor reduces to identity, full degree.
        let c = AccessCounters::new();
        let y = bit_reduce_row(&store, &ctx, 2, false, true, Some(&c));
        assert!(!y);
        assert_eq!(c.snapshot().matrix, 1, "degree(2) = 1");
    }

    #[test]
    fn bit_first_hit_recovers_csr_value_by_rank() {
        // Weighted 1x70 row: values 10, 20, 30 at columns 0, 63, 64.
        let mut coo = Coo::new(1, 70);
        coo.push(0, 0, 10i64);
        coo.push(0, 63, 20);
        coo.push(0, 64, 30);
        let store = BitmapStore::try_from_shared(Arc::new(Csr::from_coo(&coo))).unwrap();
        let mut d = DenseVector::new(70, 0i64);
        d.set(63, 7); // first explicit neighbor is the rank-2 entry
        let fw = pack_frontier(&d, None);
        let c = AccessCounters::new();
        // PlusSecond: product = input value (7); first hit only.
        let y =
            bit_reduce_row_first_hit(crate::ops::PlusSecond, &store, &fw, &d, 0, 0i64, Some(&c));
        assert_eq!(y, 7, "product of the first explicit hit");
        assert_eq!(c.snapshot().matrix, 2, "rank of the hit entry");
    }

    #[test]
    fn compressed_and_dense_frontiers_agree() {
        // 1×512 row with entries spread over 8 words; a single-bit
        // frontier compresses (1 nonzero word × 4 ≤ 8 words).
        let mut coo = Coo::new(1, 512);
        for w in 0..8u32 {
            coo.push(0, w * 64 + 3, true);
        }
        let store = BitmapStore::try_from_shared(Arc::new(Csr::from_coo(&coo))).unwrap();
        let mut d = DenseVector::new(512, false);
        d.set(5 * 64 + 3, true);
        let fw = pack_frontier(&d, None);
        assert!(
            matches!(fw, FrontierWords::Compressed(ref p) if p.len() == 1),
            "sparse frontier compresses"
        );
        let dense = FrontierWords::Dense(pack_explicit_words(&d, None));
        for fw in [&fw, &dense] {
            assert!(fw.contains(5 * 64 + 3) && !fw.contains(3));
            let ctx = BitPull {
                words: fw.clone(),
                hint: true,
                break_on_hit: true,
            };
            let c = AccessCounters::new();
            let y = bit_reduce_row(&store, &ctx, 0, false, true, Some(&c));
            assert!(y);
            // Scalar loop examines entries 1..=6 (hit at word 5's entry).
            let s = c.snapshot();
            assert_eq!(s.matrix, 6, "CSR rank of the hit, either shape");
            assert_eq!(s.vector, 7);
        }
        // Dense scan visits words 0..=5 (6 words, in groups of 4); the
        // compressed scan touches only the frontier's single pair.
        assert_eq!(dense.scan_window(0, &[u64::MAX; 8]).0, 6);
        assert_eq!(fw.scan_window(0, &[u64::MAX; 8]).0, 1);
        assert_eq!(
            dense.scan_window(0, &[u64::MAX; 8]).1,
            fw.scan_window(0, &[u64::MAX; 8]).1
        );
    }

    #[test]
    fn probe_fallback_covers_missing_word_surface() {
        // Middle tile of a 192-row store is empty: its rows have no word
        // surface, and the kernels must not panic on them.
        let n = 3 * graphblas_matrix::TILE_ROWS;
        let mut coo = Coo::new(n, n);
        coo.push(0, 1, true);
        coo.push((n - 1) as u32, 0, true);
        let store = BitmapStore::try_from_shared(Arc::new(Csr::from_coo(&coo))).unwrap();
        let empty_row = graphblas_matrix::TILE_ROWS + 7;
        assert!(RowAccess::<bool>::row_word_span(&store, empty_row).is_none());
        let mut d = DenseVector::new(n, false);
        d.set(1, true);
        let ctx = bit_pull_ctx(
            BoolStructure,
            &store,
            &d,
            &Descriptor::new().structure_only(true),
            None,
        )
        .expect("qualifies");
        let c = AccessCounters::new();
        assert!(!bit_reduce_row(
            &store,
            &ctx,
            empty_row,
            false,
            true,
            Some(&c)
        ));
        let s = c.snapshot();
        assert_eq!((s.matrix, s.vector), (0, 1), "degree-0 scalar charges");
        let c = AccessCounters::new();
        let y = bit_reduce_row_first_hit(
            BoolStructure,
            &store,
            &ctx.words,
            &d,
            empty_row,
            false,
            Some(&c),
        );
        assert!(!y);
        assert_eq!(c.snapshot().matrix, 0);
        // Rows with a surface still reduce normally in the same store.
        assert!(bit_reduce_row(&store, &ctx, 0, false, true, None));
    }

    #[test]
    fn sparse_rows_take_the_probe_path() {
        // Degree-1 row under a 2-word window with a dense frontier: the
        // probe (1 edge) undercuts the word scan (2 words), so no
        // bit_word_ops are charged yet the value and rank still match.
        let store = bitmap_3x70();
        let mut d = DenseVector::new(70, false);
        for j in 0..70 {
            d.set(j, true);
        }
        let ctx = bit_pull_ctx(
            BoolStructure,
            &store,
            &d,
            &Descriptor::new().structure_only(true),
            None,
        )
        .expect("qualifies");
        let c = AccessCounters::new();
        // Row 2 has the single entry at column 1.
        assert!(bit_reduce_row(&store, &ctx, 2, false, true, Some(&c)));
        let s = c.snapshot();
        assert_eq!((s.matrix, s.vector), (1, 2), "scalar charges for rank 1");
        assert_eq!(s.bit_word_ops, 0, "probe path scans no words");
    }

    #[test]
    fn unvisited_index_tracks_complement_and_tail() {
        // 70-bit mask, complemented: visited = {0..=63, 69} so the allowed
        // rows are 64..=68 — group 0 is dead, group 1 live.
        let mut visited = BitVec::new(70);
        for i in 0..64 {
            visited.set(i);
        }
        visited.set(69);
        let m = Mask::complement(&visited);
        let c = AccessCounters::new();
        let idx = UnvisitedIndex::build(&m, Some(&c));
        assert_eq!(idx.live_groups(), vec![1]);
        assert_eq!(idx.allowed_word(0), 0);
        assert_eq!(idx.allowed_word(1), 0b01_1111, "bits 64..=68, tail masked");
        assert_eq!(c.snapshot().bit_word_ops, 3, "2 mask words + 1 summary");

        // Plain (non-complement) masks pass their words through.
        let mut few = BitVec::new(70);
        few.set(65);
        let m2 = Mask::new(&few);
        let idx2 = UnvisitedIndex::build(&m2, None);
        assert_eq!(idx2.live_groups(), vec![1]);
        assert_eq!(idx2.allowed_word(1), 2);
    }
}
