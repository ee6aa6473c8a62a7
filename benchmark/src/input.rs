//! Workload definitions and seeded input generation.
//!
//! Everything a run feeds the program derives from `--seed`: the graph
//! (through `graphblas_gen`), the BFS sources, and the request stream. The
//! program receives only the generated edge lists and requests; the
//! generator's own `Graph` is used for the oracle and dropped before any
//! timed or memory-metered work starts.

use graphblas_baselines::textbook::bfs_serial;
use graphblas_matrix::{Coo, Graph, VertexId};
use graphblas_service::{Query, Request};

/// One workload: which graph, how many distinct sources, and the offered
/// rate of its request stream.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Workload name as passed to `--workload`.
    pub name: &'static str,
    /// `graphblas_gen::suite::dataset` name.
    pub dataset: &'static str,
    /// Vertex-count divisor exponent (see `graphblas_gen::suite`).
    pub shrink: u32,
    /// Seeded non-isolated sources, each checked against the serial oracle.
    pub sources: usize,
    /// Mean gap between request arrivals in µs (uniform gaps).
    pub gap_us: u64,
    /// Whether the end-to-end run serves a request stream (`true`) or runs
    /// the closed BFS loop (`false`).
    pub serve: bool,
}

/// The benchmark's workloads. The sizes keep one process under ~0.7 GiB of
/// heap; see README.md for why each graph was chosen.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "bfs-kron",
        dataset: "kron",
        shrink: 5,
        sources: 1024,
        gap_us: 20_000,
        serve: false,
    },
    Spec {
        name: "bfs-social",
        dataset: "soc-lj",
        shrink: 6,
        sources: 1024,
        gap_us: 10_000,
        serve: false,
    },
    Spec {
        name: "bfs-road",
        dataset: "roadnet",
        shrink: 6,
        sources: 1024,
        gap_us: 20_000,
        serve: false,
    },
    Spec {
        name: "serve-traversal",
        dataset: "kron",
        shrink: 6,
        sources: 256,
        gap_us: 10_000,
        serve: true,
    },
];

/// Look a workload up by name.
#[must_use]
pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// splitmix64: the benchmark's own generator, so its inputs stay fixed
/// whatever the program's RNG shim does.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

const SOURCE_STREAM: u64 = 1;
const ARRIVAL_STREAM: u64 = 2;
const WEIGHT_STREAM: u64 = 3;

/// `count` seeded sources with at least one edge.
#[must_use]
pub fn pick_sources(g: &Graph<bool>, count: usize, seed: u64) -> Vec<VertexId> {
    let n = g.n_vertices() as u64;
    assert!(g.n_edges() > 0, "a graph without edges has no sources");
    let mut rng = Rng::new(seed, SOURCE_STREAM);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let v = rng.below(n) as VertexId;
        if !g.children(v).is_empty() {
            out.push(v);
        }
    }
    out
}

/// Order-sensitive 64-bit digest of an output vector; outputs are compared
/// to the oracle by digest so a run need not hold every oracle array.
#[must_use]
pub fn fingerprint<T: Copy + Into<i64>>(xs: &[T]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ xs.len() as u64;
    for &x in xs {
        h = (h ^ x.into() as u64).wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
    }
    h
}

/// One source with its oracle answers.
#[derive(Clone, Debug)]
pub struct Source {
    pub vertex: VertexId,
    /// Digest of the serial BFS depths.
    pub depths: u64,
    /// Digest of the min-id parent tree of those depths (0 when the run
    /// sends no parent queries).
    pub parents: u64,
    /// Stored (directed) edges whose tail the BFS reaches: the TEPS
    /// numerator.
    pub reached_edges: u64,
    /// Vertices at each depth, for checking replayed levels.
    pub level_sizes: Vec<usize>,
}

/// The generated inputs of one run.
pub struct Input {
    /// The graph as an edge list: the only form the program receives.
    pub coo: Coo<bool>,
    /// Symmetric uniform weights over the same edges, for the service's
    /// weighted view (service runs only).
    pub weights: Option<Coo<f32>>,
    pub sources: Vec<Source>,
    pub n: usize,
    pub m: usize,
}

impl Input {
    /// Generate a workload's inputs and oracle answers from `seed`.
    /// `service` adds what the request stream needs: the weighted edge
    /// list and the parent-tree oracle.
    ///
    /// # Panics
    /// If the spec names an unknown dataset.
    #[must_use]
    pub fn generate(spec: &Spec, seed: u64, service: bool) -> Self {
        let g = graphblas_gen::suite::dataset(spec.dataset, spec.shrink, seed)
            .expect("workload names a suite dataset")
            .graph;
        let sources = oracles(&g, &pick_sources(&g, spec.sources, seed), service);
        Self {
            coo: edge_list(&g),
            weights: service.then(|| {
                edge_list(&graphblas_gen::with_uniform_weights(
                    &g,
                    seed ^ WEIGHT_STREAM,
                ))
            }),
            sources,
            n: g.n_vertices(),
            m: g.n_edges(),
        }
    }
}

fn edge_list<V: Copy + Send + Sync + PartialEq>(g: &Graph<V>) -> Coo<V> {
    let a = g.csr();
    let mut coo = Coo::new(a.n_rows(), a.n_cols());
    coo.reserve(a.nnz());
    for u in 0..a.n_rows() {
        for (&v, &w) in a.row(u).iter().zip(a.row_values(u)) {
            coo.push(u as VertexId, v, w);
        }
    }
    coo
}

/// The oracle answers for every source, computed on one thread per core
/// (outside every timer).
fn oracles(g: &Graph<bool>, vertices: &[VertexId], parents: bool) -> Vec<Source> {
    let lanes = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let chunk = vertices.len().div_ceil(lanes).max(1);
    std::thread::scope(|s| {
        let workers: Vec<_> = vertices
            .chunks(chunk)
            .map(|c| s.spawn(move || c.iter().map(|&v| oracle(g, v, parents)).collect::<Vec<_>>()))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("the serial oracle does not panic"))
            .collect()
    })
}

fn oracle(g: &Graph<bool>, v: VertexId, parents: bool) -> Source {
    let depths = bfs_serial(g, v);
    let mut level_sizes = Vec::new();
    let mut reached_edges = 0u64;
    for (u, &d) in depths.iter().enumerate() {
        if let Ok(d) = usize::try_from(d) {
            if level_sizes.len() <= d {
                level_sizes.resize(d + 1, 0);
            }
            level_sizes[d] += 1;
            reached_edges += g.children(u as VertexId).len() as u64;
        }
    }
    Source {
        vertex: v,
        depths: fingerprint(&depths),
        parents: if parents {
            fingerprint(&min_parents(g, v, &depths))
        } else {
            0
        },
        reached_edges,
        level_sizes,
    }
}

/// The min-id BFS tree of `depths`: each reached vertex's parent is its
/// smallest in-neighbour one level up (rows are sorted, so the first hit).
fn min_parents(g: &Graph<bool>, source: VertexId, depths: &[i32]) -> Vec<u32> {
    use graphblas_algo::bfs_parents::NO_PARENT;
    depths
        .iter()
        .enumerate()
        .map(|(u, &d)| match d {
            -1 => NO_PARENT,
            0 => source,
            d => *g
                .parents(u as VertexId)
                .iter()
                .find(|&&p| depths[p as usize] == d - 1)
                .expect("a reached vertex has a parent one level up"),
        })
        .collect()
}

/// One request of the stream, with the index of its source in
/// [`Input::sources`].
#[derive(Clone, Debug)]
pub struct Arrival {
    pub request: Request,
    pub source: usize,
}

/// `count` seeded requests: BFS and parent-BFS at 3 : 1, sources drawn
/// from the `pool` checked sources, gaps uniform in `[0, 2 · gap_us]` µs
/// (arrival ticks are µs).
#[must_use]
pub fn request_stream(seed: u64, pool: &[Source], gap_us: u64, count: usize) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, ARRIVAL_STREAM);
    let mut tick = 0u64;
    (0..count)
        .map(|id| {
            let source = rng.below(pool.len() as u64) as usize;
            let vertex = pool[source].vertex;
            let query = if rng.below(4) == 0 {
                Query::Parents { source: vertex }
            } else {
                Query::Bfs { source: vertex }
            };
            tick += rng.below(2 * gap_us + 1);
            Arrival {
                request: Request::new(id as u64, query).at_tick(tick),
                source,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Graph<bool> {
        graphblas_gen::suite::dataset("kron", 11, 3).unwrap().graph
    }

    #[test]
    fn same_seed_same_sources_and_arrivals() {
        let g = small();
        let a = pick_sources(&g, 64, 7);
        assert_eq!(a, pick_sources(&g, 64, 7));
        assert_ne!(a, pick_sources(&g, 64, 8), "another seed, other sources");
        assert!(a.iter().all(|&v| !g.children(v).is_empty()));

        let pool: Vec<Source> = a.iter().map(|&v| oracle(&g, v, false)).collect();
        let key = |s: &[Arrival]| -> Vec<(u64, usize, bool)> {
            s.iter()
                .map(|x| {
                    let parents = matches!(x.request.query, Query::Parents { .. });
                    (x.request.arrival_tick, x.source, parents)
                })
                .collect()
        };
        let s7 = key(&request_stream(7, &pool, 5000, 200));
        assert_eq!(s7, key(&request_stream(7, &pool, 5000, 200)));
        assert_ne!(s7, key(&request_stream(8, &pool, 5000, 200)));
        assert!(s7.windows(2).all(|w| w[0].0 <= w[1].0), "arrivals sorted");
        let parents = s7.iter().filter(|x| x.2).count();
        assert!((25..=75).contains(&parents), "about one in four: {parents}");
    }

    #[test]
    fn same_seed_same_graph() {
        let spec = Spec {
            shrink: 11,
            sources: 4,
            ..WORKLOADS[0]
        };
        let a = Input::generate(&spec, 5, true);
        let b = Input::generate(&spec, 5, true);
        assert_eq!(a.coo.entries(), b.coo.entries());
        let w = |i: &Input| {
            i.weights
                .as_ref()
                .expect("service inputs")
                .entries()
                .to_vec()
        };
        assert_eq!(w(&a), w(&b));
        let digests = |i: &Input| -> Vec<(u64, u64)> {
            i.sources.iter().map(|s| (s.depths, s.parents)).collect()
        };
        assert_eq!(digests(&a), digests(&b));
        let c = Input::generate(&spec, 6, true);
        assert_ne!(a.coo.entries(), c.coo.entries());
    }

    #[test]
    fn oracle_parents_form_a_min_id_tree() {
        let g = small();
        let s = pick_sources(&g, 1, 1)[0];
        let depths = bfs_serial(&g, s);
        let p = min_parents(&g, s, &depths);
        assert!(graphblas_algo::bfs_parents::verify_parents(&g, s, &p));
        let solo = graphblas_algo::bfs_parents(&g, s, 0.01);
        assert_eq!(fingerprint(&solo.parent), fingerprint(&p));
    }

    #[test]
    fn fingerprint_separates_close_vectors() {
        let a = [0i32, 1, 2, -1];
        assert_eq!(fingerprint(&a), fingerprint(&[0i32, 1, 2, -1]));
        assert_ne!(fingerprint(&a), fingerprint(&[0i32, 1, -1, 2]));
        assert_ne!(fingerprint(&a), fingerprint(&[0i32, 1, 2]));
    }
}
