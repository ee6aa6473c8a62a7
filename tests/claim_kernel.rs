//! The structure-only push contract: under a constant-product semiring
//! (`BoolStructure`) the column kernel is a claim kernel — every expanded
//! edge tests the mask, survivors are claimed in an atomic bit set, and
//! only the winners are sorted. It must compute exactly what the valued
//! Boolean push (`BoolOrAnd`, radix merge + post-filter) and the pull
//! compute, with or without a lent claim set, hand a lent set back
//! all-clear, return strictly ascending output, and charge identically at
//! every lane count. A default BFS lends one set per run, so its push
//! levels allocate nothing of size `O(n)`.

use proptest::prelude::*;
use push_pull::algo::bfs::{try_bfs_with_opts, BfsOpts};
use push_pull::core::ops::{BoolOrAnd, BoolStructure};
use push_pull::core::{mxv, Descriptor, Direction, ExecLimits, Mask, Vector};
use push_pull::gen::erdos::erdos_renyi;
use push_pull::matrix::{Coo, Graph};
use push_pull::primitives::counters::{AccessCounters, CounterSnapshot};
use push_pull::primitives::{AtomicBitVec, BitVec};

/// The mask shapes every case runs under.
#[derive(Clone, Copy, Debug)]
enum MaskKind {
    None,
    Plain,
    Complement,
}

const MASKS: [MaskKind; 3] = [MaskKind::None, MaskKind::Plain, MaskKind::Complement];

/// A directed multigraph-free random graph: `m` splitmix-drawn arcs,
/// duplicates merged.
fn directed_graph(n: usize, m: usize, seed: u64) -> Graph<bool> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as u32
    };
    let mut coo = Coo::new(n, n);
    for _ in 0..m {
        let (u, v) = (next(), next());
        coo.push(u, v, true);
    }
    coo.dedup(|a, _| a);
    Graph::from_coo(&coo)
}

fn sparse_frontier(n: usize, ids: impl IntoIterator<Item = usize>) -> Vector<bool> {
    let mut ids: Vec<u32> = ids
        .into_iter()
        .filter(|&i| i < n)
        .map(|i| i as u32)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    let k = ids.len();
    Vector::from_sparse(n, false, ids, vec![true; k])
}

fn explicit(v: &Vector<bool>) -> Vec<u32> {
    v.iter_explicit().map(|(i, _)| i).collect()
}

/// One claim-kernel push at `lanes` lanes: its output and charges, after
/// checking the output is strictly ascending and the claim set clear.
fn claim_push(
    g: &Graph<bool>,
    f: &Vector<bool>,
    mask: Option<&Mask<'_>>,
    claims: Option<&AtomicBitVec>,
    desc: &Descriptor,
    lanes: usize,
) -> (Vec<u32>, CounterSnapshot) {
    let c = AccessCounters::new();
    let out: Vector<bool> = rayon::with_num_threads(lanes, || {
        mxv(
            mask,
            BoolStructure,
            g,
            f,
            &desc.force(Direction::Push),
            Some(&c),
        )
        .unwrap()
    });
    let ids = explicit(&out);
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "output strictly ascending"
    );
    if let Some(set) = claims {
        assert_eq!(set.count_ones(), 0, "a lent claim set comes back all-clear");
    }
    (ids, c.snapshot())
}

/// Check every mask shape, with and without a lent claim set, against the
/// valued push and the pull, at 1 and 4 lanes.
fn check_claim_contract(g: &Graph<bool>, f: &Vector<bool>, bits: &BitVec, transpose: bool) {
    let n = g.n_vertices();
    let desc = Descriptor::new().transpose(transpose);
    let claims = AtomicBitVec::new(n);
    for kind in MASKS {
        let mask = match kind {
            MaskKind::None => None,
            MaskKind::Plain => Some(Mask::new(bits)),
            MaskKind::Complement => Some(Mask::complement(bits)),
        };
        let valued = |dir: Direction| -> Vec<u32> {
            let w: Vector<bool> =
                mxv(mask.as_ref(), BoolOrAnd, g, f, &desc.force(dir), None).unwrap();
            explicit(&w)
        };
        let expect = valued(Direction::Push);
        assert_eq!(expect, valued(Direction::Pull), "{kind:?}: push ≡ pull");

        let reference = claim_push(g, f, mask.as_ref(), None, &desc, 1);
        assert_eq!(reference.0, expect, "{kind:?}: BoolStructure ≡ BoolOrAnd");
        let lent = mask.map(|m| m.with_claim_set(&claims));
        for lanes in [1, 4] {
            let own = claim_push(g, f, mask.as_ref(), None, &desc, lanes);
            assert_eq!(own, reference, "{kind:?}: per-call set at {lanes} lanes");
            let with_set = claim_push(g, f, lent.as_ref(), Some(&claims), &desc, lanes);
            assert_eq!(with_set, reference, "{kind:?}: lent set at {lanes} lanes");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random graphs from a handful of vertices up to expansions of many
    /// claim chunks, undirected and directed: the claim push equals the
    /// valued push and the pull under no, plain and complement masks,
    /// lent set or not, with identical values and charges at 1 and 4
    /// lanes.
    #[test]
    fn claim_push_matches_valued_push_and_pull(
        seed in 0u64..5000,
        n in 2usize..1500,
        degree in 1usize..24,
        directed in any::<bool>(),
        frontier_pct in 0usize..100,
        mask_pct in 0usize..100,
        transpose in any::<bool>(),
    ) {
        let g = if directed {
            directed_graph(n, n * degree, seed)
        } else {
            erdos_renyi(n, n * degree, seed)
        };
        let pick = |pct: usize, salt: usize| {
            (0..n).filter(move |&i| (i * 7919 + salt) % 100 < pct)
        };
        let f = sparse_frontier(n, pick(frontier_pct, seed as usize));
        let mut bits = BitVec::new(n);
        for i in pick(mask_pct, 31 + seed as usize) {
            bits.set(i);
        }
        check_claim_contract(&g, &f, &bits, transpose);
    }
}

#[test]
fn claim_hub_row_spanning_several_chunks_matches_pull() {
    // Vertex 0 points at every other vertex, so its one row is an
    // expansion several claim chunks long; a few more frontier rows
    // repeat some of its targets.
    let n = 20_000;
    let mut coo = Coo::new(n, n);
    for v in 1..n as u32 {
        coo.push(0, v, true);
        if v % 97 == 0 {
            coo.push(v, v / 2, true);
            coo.push(v, n as u32 - v, true);
        }
    }
    let g = Graph::from_coo(&coo);
    let f = sparse_frontier(n, [0, 97, 194, 9700, 19_982]);
    let mut bits = BitVec::new(n);
    for i in (0..n).step_by(3) {
        bits.set(i);
    }
    for transpose in [false, true] {
        check_claim_contract(&g, &f, &bits, transpose);
    }
}

#[test]
fn claim_set_keeps_default_bfs_free_of_per_level_allocations() {
    // A 2^16-vertex path runs one push level per vertex. Each level's
    // winner buffer charges 8 bytes (two neighbours), about 512 KiB over
    // the run; an n-bit claim set allocated per level would charge 8 KiB
    // a level, 512 MiB in all, and trip this 1 MiB budget within 128
    // levels.
    let n = 1usize << 16;
    let mut coo = Coo::new(n, n);
    for v in 1..n as u32 {
        coo.push(v - 1, v, true);
    }
    coo.clean_undirected();
    let g = Graph::from_coo(&coo);
    let opts = BfsOpts::default().limits(ExecLimits::none().with_bytes_budget(1 << 20));
    let r = try_bfs_with_opts(&g, 0, &opts, None).expect("the run fits the bytes budget");
    assert_eq!(r.levels, n, "n − 1 discovering levels, then an empty one");
    assert!(r.depths.iter().enumerate().all(|(v, &d)| d == v as i32));
}
