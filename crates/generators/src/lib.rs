//! Synthetic graph generators standing in for the paper's datasets.
//!
//! The paper evaluates on 11 graphs (Table 3) in four classes: real
//! scale-free (`rs`: soc-orkut, soc-LiveJournal1, hollywood-09,
//! indochina-04), generated scale-free (`gs`: kron_g500-logn21, rmat-22/23/
//! 24), generated mesh (`gm`: rgg_n_24), and real mesh (`rm`: roadNet_CA,
//! road_USA). The originals are multi-hundred-MB downloads; this crate
//! generates structurally equivalent stand-ins:
//!
//! * [`rmat`] — R-MAT/Kronecker with Graph500 parameters. kron and rmat-*
//!   were generated graphs in the paper too, so these are near-exact.
//! * [`powerlaw`] — Chung-Lu graphs with power-law expected degrees for the
//!   `rs` class (supervertices + low diameter, the two properties the
//!   paper's push-pull analysis keys on).
//! * [`rgg`] — random geometric graph on the unit square (`gm`).
//! * [`grid`] — 2-D road-style mesh with jittered connectivity (`rm`:
//!   bounded degree, thousands-deep BFS).
//! * [`erdos`] — Erdős–Rényi, used by tests as an unstructured control.
//! * [`smallworld`] — Watts-Strogatz, a mesh↔random dial for probing the
//!   direction-switch heuristic between the paper's dataset classes.
//! * [`suite()`](suite::suite) — the named 11-dataset stand-in suite behind Table 3 /
//!   Figure 7, scaled down by default and scalable back up to paper size.
//!
//! All generators are deterministic given a seed, produce cleaned
//! undirected graphs (self-loops and duplicates removed, symmetrized — the
//! paper's §7.1 preparation), and return [`graphblas_matrix::Graph`].

pub mod erdos;
pub mod grid;
pub mod powerlaw;
pub mod rgg;
pub mod rmat;
pub mod smallworld;
pub mod suite;

pub use suite::{suite, Dataset, GraphClass};

use graphblas_matrix::{Coo, Csr, Graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of per-chunk RNG streams the sampling generators draw from.
///
/// A fixed constant — deliberately *not* the thread count — so a given
/// `(generator, seed)` pair produces the same graph whatever
/// `PUSH_PULL_THREADS` says: the worker pool distributes these chunks by
/// index stealing, and the stream layout never moves. 64 chunks keeps
/// every realistic lane count busy.
pub const RNG_CHUNKS: usize = 64;

/// Finish a raw edge list into an undirected Boolean graph: §7.1 cleaning,
/// then CSR conversion through [`Graph::from_coo`], whose read-only O(nnz)
/// symmetry merge (no transpose is built) confirms the cleaned graph is
/// symmetric, so both orientations share the one CSR.
#[must_use]
pub fn finish_undirected(mut coo: Coo<bool>) -> Graph<bool> {
    coo.clean_undirected();
    Graph::from_coo(&coo)
}

/// Attach uniform-random edge weights in `(0, 1]` to a Boolean graph,
/// symmetrically (weight(u,v) = weight(v,u)), for SSSP workloads.
#[must_use]
pub fn with_uniform_weights(g: &Graph<bool>, seed: u64) -> Graph<f32> {
    let a = g.csr();
    let mut rng = StdRng::seed_from_u64(seed);
    // Deterministic symmetric weight: hash the unordered pair via a
    // per-graph random salt mixed with a pair-symmetric combiner.
    let salt: u64 = rng.gen();
    let weight = |u: u32, v: u32| -> f32 {
        let (lo, hi) = if u < v { (u, v) } else { (v, u) };
        let mut h = ((u64::from(lo) << 32) | u64::from(hi)) ^ salt;
        // splitmix64 finalizer.
        h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        // Map to (0, 1].
        ((h >> 11) as f32 / (1u64 << 53) as f32).max(f32::MIN_POSITIVE)
    };
    let mut coo = Coo::new(a.n_rows(), a.n_cols());
    coo.reserve(a.nnz());
    for u in 0..a.n_rows() {
        for &v in a.row(u) {
            coo.push(u as u32, v, weight(u as u32, v));
        }
    }
    Graph::from_csr(Csr::from_coo(&coo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erdos::erdos_renyi;

    #[test]
    fn finish_produces_symmetric_graph() {
        let mut coo = Coo::new(4, 4);
        coo.push(0, 1, true);
        coo.push(1, 1, true); // self loop must vanish
        coo.push(0, 1, true); // duplicate must vanish
        coo.push(2, 3, true);
        let g = finish_undirected(coo);
        assert!(g.is_symmetric());
        assert_eq!(g.n_edges(), 4); // {0,1} and {2,3}, both directions
    }

    #[test]
    fn weights_are_symmetric_and_positive() {
        let g = erdos_renyi(200, 1000, 7);
        let w = with_uniform_weights(&g, 99);
        let a = w.csr();
        for u in 0..a.n_rows() {
            for (idx, &v) in a.row(u).iter().enumerate() {
                let wuv = a.row_values(u)[idx];
                assert!(wuv > 0.0 && wuv <= 1.0);
                let back = w
                    .csr()
                    .row(v as usize)
                    .iter()
                    .position(|&x| x == u as u32)
                    .expect("symmetric edge");
                assert_eq!(w.csr().row_values(v as usize)[back], wuv);
            }
        }
    }

    #[test]
    fn weights_deterministic_per_seed() {
        let g = erdos_renyi(100, 400, 3);
        let w1 = with_uniform_weights(&g, 5);
        let w2 = with_uniform_weights(&g, 5);
        assert_eq!(w1.csr().values(), w2.csr().values());
    }
}
