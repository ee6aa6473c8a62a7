//! The word-scan masked pull: a mask with no active list hands the row
//! kernels its allowed rows straight from its bit words, 64 rows per word,
//! cut into chunks by the allowed-row count. Every masked row kernel —
//! the unfused `mxv` pull, the fused pipeline's pull and `mxv_batch`'s
//! pull rows — must then compute and charge exactly what the same call
//! computes with the exact active list attached: the same values, the same
//! `touched` order and the same counters, at every lane count. The public
//! `row_masked_mxv` is checked the same way over a hypersparse DCSR store.
//! The dimensions here are never multiples of 64, so every mask has a
//! partial tail word, and the allowed sets run from empty to full.

use proptest::prelude::*;
use push_pull::core::ops::{BoolOrAnd, MinSecond};
use push_pull::core::{mxv, mxv_batch, Descriptor, Direction, FusedMxv, Mask, Vector};
use push_pull::core::{row_masked_mxv, MultiVector};
use push_pull::gen::erdos::erdos_renyi;
use push_pull::matrix::{Coo, Dcsr, Graph};
use push_pull::primitives::counters::{AccessCounters, CounterSnapshot};
use push_pull::primitives::BitVec;

/// "No parent" fill of the id-carrying frontier (parent BFS's shape).
const NONE: u32 = u32::MAX;

/// The allowed sets every case draws from.
#[derive(Clone, Copy, Debug)]
enum Allowed {
    Empty,
    Full,
    Sparse,
    Dense,
}

const ALLOWED: [Allowed; 4] = [
    Allowed::Empty,
    Allowed::Full,
    Allowed::Sparse,
    Allowed::Dense,
];

/// The mask's bits for an allowed set: the set itself for a plain mask,
/// its complement for a complemented one.
fn mask_bits(n: usize, allowed: Allowed, complement: bool, salt: usize) -> BitVec {
    let allows = |i: usize| match allowed {
        Allowed::Empty => false,
        Allowed::Full => true,
        Allowed::Sparse => (i * 7919 + salt) % 100 < 3,
        Allowed::Dense => (i * 7919 + salt) % 100 < 90,
    };
    let mut bits = BitVec::new(n);
    for i in (0..n).filter(|&i| allows(i) != complement) {
        bits.set(i);
    }
    bits
}

fn mask_of(bits: &BitVec, complement: bool) -> Mask<'_> {
    if complement {
        Mask::complement(bits)
    } else {
        Mask::new(bits)
    }
}

/// The exact active list of a mask: every index it allows, ascending.
fn exact_list(mask: &Mask<'_>) -> Vec<u32> {
    (0..mask.dim() as u32)
        .filter(|&i| mask.allows(i as usize))
        .collect()
}

/// A frontier carrying each member's own id, so a `MinSecond` pull
/// computes minimum parents and `first_hit_exit` holds its contract.
fn id_frontier(n: usize, salt: usize, pct: usize) -> Vector<u32> {
    let ids: Vec<u32> = (0..n as u32)
        .filter(|&i| (i as usize * 104_729 + salt) % 100 < pct)
        .collect();
    let mut f = Vector::from_sparse(n, NONE, ids.clone(), ids);
    f.make_dense();
    f
}

fn bool_frontier(ids: &Vector<u32>) -> Vector<bool> {
    let (idx, _): (Vec<u32>, Vec<u32>) = ids.iter_explicit().unzip();
    let k = idx.len();
    let mut f = Vector::from_sparse(ids.dim(), false, idx, vec![true; k]);
    f.make_dense();
    f
}

fn pull_desc() -> Descriptor {
    Descriptor::new().transpose(true).force(Direction::Pull)
}

/// Run `body` at 1 and 4 lanes and require both runs to equal `reference`.
fn at_every_lane_count<T: PartialEq + std::fmt::Debug>(
    reference: &T,
    what: &str,
    body: impl Fn() -> T,
) {
    for lanes in [1, 4] {
        let got = rayon::with_num_threads(lanes, &body);
        assert_eq!(&got, reference, "{what} at {lanes} lanes");
    }
}

/// Unfused pull: values and every counter. `mxv` over the graph's CSR,
/// or, given a DCSR store of `Aᵀ`, the public row kernel over that store.
fn check_mxv_pull(
    g: &Graph<bool>,
    f: &Vector<u32>,
    mask: &Mask<'_>,
    list: &[u32],
    desc: &Descriptor,
    dcsr: Option<&Dcsr<bool>>,
) {
    let fb = bool_frontier(f);
    let fd = Vector::Dense(f.to_dense());
    let listed = mask.with_active_list(list);
    for early_exit in [false, true] {
        let desc = desc.early_exit(early_exit);
        let bool_run = |m: &Mask<'_>| -> (Vec<(u32, bool)>, CounterSnapshot) {
            let c = AccessCounters::new();
            let w: Vector<bool> = match dcsr {
                Some(op) => {
                    let dv = fb.as_dense().expect("dense frontier");
                    Vector::Dense(row_masked_mxv(BoolOrAnd, op, dv, m, early_exit, Some(&c)))
                }
                None => mxv(Some(m), BoolOrAnd, g, &fb, &desc, Some(&c)).unwrap(),
            };
            (w.iter_explicit().collect(), c.snapshot())
        };
        let min_run = |m: &Mask<'_>| -> (Vec<(u32, u32)>, CounterSnapshot) {
            let c = AccessCounters::new();
            let w: Vector<u32> = match dcsr {
                Some(op) => {
                    let dv = fd.as_dense().expect("dense frontier");
                    Vector::Dense(row_masked_mxv(MinSecond, op, dv, m, early_exit, Some(&c)))
                }
                None => mxv(Some(m), MinSecond, g, f, &desc, Some(&c)).unwrap(),
            };
            (w.iter_explicit().collect(), c.snapshot())
        };
        let reference = rayon::with_num_threads(1, || bool_run(&listed));
        at_every_lane_count(&reference, "mxv BoolOrAnd", || bool_run(mask));
        at_every_lane_count(&reference, "mxv BoolOrAnd, listed", || bool_run(&listed));
        let reference = rayon::with_num_threads(1, || min_run(&listed));
        at_every_lane_count(&reference, "mxv MinSecond", || min_run(mask));
        at_every_lane_count(&reference, "mxv MinSecond, listed", || min_run(&listed));
    }
}

/// Fused pull under every `first_hit_exit` × `keep_identity` setting:
/// `touched` (order included), the assigned state and every counter.
fn check_fused_pull(
    g: &Graph<bool>,
    f: &Vector<u32>,
    mask: &Mask<'_>,
    list: &[u32],
    desc: &Descriptor,
) {
    let listed = mask.with_active_list(list);
    for first_hit in [false, true] {
        for keep_identity in [false, true] {
            let run = |m: &Mask<'_>| -> (Vec<u32>, Vec<u32>, CounterSnapshot) {
                let c = AccessCounters::new();
                let mut state = vec![NONE - 1; g.n_vertices()];
                let out = FusedMxv::new(MinSecond, g, f)
                    .mask(m)
                    .descriptor(*desc)
                    .counters(Some(&c))
                    .first_hit_exit(first_hit)
                    .keep_identity(keep_identity)
                    .apply(|p: u32| p)
                    .assign_into(&mut state, |_, p| Some(p))
                    .unwrap();
                (out.touched, state, c.snapshot())
            };
            let what = format!("fused first_hit {first_hit} keep_identity {keep_identity}");
            let reference = rayon::with_num_threads(1, || run(&listed));
            assert!(
                reference.0.windows(2).all(|w| w[0] < w[1]),
                "{what}: touched ascending"
            );
            at_every_lane_count(&reference, &what, || run(mask));
            at_every_lane_count(&reference, &format!("{what}, listed"), || run(&listed));
        }
    }
}

/// `mxv_batch` pull rows: one mask per row, all list-less against all
/// listed, rows and counters.
fn check_batch_pull(
    g: &Graph<bool>,
    rows: &[Vector<u32>],
    masks: &[Mask<'_>],
    lists: &[Vec<u32>],
    desc: &Descriptor,
) {
    let batch = MultiVector::from_rows(rows.to_vec());
    let listed: Vec<Mask<'_>> = masks
        .iter()
        .zip(lists)
        .map(|(m, l)| m.with_active_list(l))
        .collect();
    let run = |ms: &[Mask<'_>]| -> (Vec<Vec<(u32, u32)>>, CounterSnapshot) {
        let c = AccessCounters::new();
        let out: MultiVector<u32> =
            mxv_batch(Some(ms), MinSecond, g, &batch, desc, None, Some(&c)).unwrap();
        let vals = (0..rows.len())
            .map(|r| out.row(r).iter_explicit().collect())
            .collect();
        (vals, c.snapshot())
    };
    let reference = rayon::with_num_threads(1, || run(&listed));
    at_every_lane_count(&reference, "mxv_batch", || run(masks));
    at_every_lane_count(&reference, "mxv_batch, listed", || run(&listed));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random graphs whose vertex count is never a multiple of 64, large
    /// enough for several row chunks: every masked pull kernel computes and
    /// charges the same with and without the exact active list, under
    /// plain and complement masks allowing nothing, everything, a sparse
    /// or a dense set, at 1 and 4 lanes. The `dcsr` arm runs the unfused
    /// leg's public row kernel over a DCSR store of `Aᵀ` instead of `mxv`.
    #[test]
    fn word_scan_pull_equals_the_active_list_pull(
        seed in 0u64..5000,
        words in 0usize..40,
        tail in 1usize..64,
        degree in 1usize..12,
        frontier_pct in 0usize..100,
        allowed in 0usize..4,
        complement in any::<bool>(),
        dcsr in any::<bool>(),
    ) {
        let n = words * 64 + tail;
        let g = erdos_renyi(n, n * degree, seed);
        let allowed = ALLOWED[allowed];
        let bits = mask_bits(n, allowed, complement, seed as usize);
        let mask = mask_of(&bits, complement);
        let list = exact_list(&mask);
        let desc = pull_desc();
        let store = dcsr.then(|| Dcsr::from_csr(g.csr_t()));
        let f = id_frontier(n, seed as usize, frontier_pct);

        check_mxv_pull(&g, &f, &mask, &list, &desc, store.as_ref());
        check_fused_pull(&g, &f, &mask, &list, &desc);

        // A batch of three rows, each with its own allowed set.
        let row_bits: Vec<BitVec> = (0..3)
            .map(|r| mask_bits(n, ALLOWED[(r + seed as usize) % 4], complement, r * 31))
            .collect();
        let masks: Vec<Mask<'_>> = row_bits.iter().map(|b| mask_of(b, complement)).collect();
        let lists: Vec<Vec<u32>> = masks.iter().map(exact_list).collect();
        let rows: Vec<Vector<u32>> =
            (0..3).map(|r| id_frontier(n, r * 17 + seed as usize, frontier_pct)).collect();
        check_batch_pull(&g, &rows, &masks, &lists, &desc);
    }
}

#[test]
fn word_scan_every_allowed_set_on_a_many_chunk_graph() {
    // 6,000 + 17 vertices: a full mask is 11 row chunks, so chunk edges
    // fall inside words; every allowed set, plain and complemented.
    let n = 6_017;
    let g = erdos_renyi(n, n * 6, 41);
    let f = id_frontier(n, 5, 30);
    let desc = pull_desc();
    for allowed in ALLOWED {
        for complement in [false, true] {
            let bits = mask_bits(n, allowed, complement, 9);
            let mask = mask_of(&bits, complement);
            let list = exact_list(&mask);
            check_mxv_pull(&g, &f, &mask, &list, &desc, None);
            check_fused_pull(&g, &f, &mask, &list, &desc);
        }
    }
}

#[test]
fn word_scan_pull_on_a_hypersparse_store() {
    // 64 + 3 vertices and one edge: a hypersparse operand, almost every
    // row empty. The word scan must still visit exactly the allowed rows,
    // through `mxv` on the CSR and through the row kernel on a DCSR store,
    // whose absent rows are empty.
    let n = 67;
    let mut coo = Coo::new(n, n);
    coo.push(0, 66, true);
    let g = Graph::from_coo(&coo);
    let f = id_frontier(n, 0, 100);
    let mut visited = BitVec::new(n);
    visited.set(0);
    let mask = Mask::complement(&visited);
    let list = exact_list(&mask);
    check_mxv_pull(&g, &f, &mask, &list, &pull_desc(), None);
    let dcsr = Dcsr::from_csr(g.csr_t());
    check_mxv_pull(&g, &f, &mask, &list, &pull_desc(), Some(&dcsr));
    check_fused_pull(&g, &f, &mask, &list, &pull_desc());
}
