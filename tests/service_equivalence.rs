//! Service coalescing contract, for arbitrary query mixes over random
//! graphs at 1, 2, and 8 lanes: a request that executed inside a
//! coalesced batch returns exactly the values, level count and push/pull
//! steps of the same request dispatched alone. SSSP, PageRank and BC
//! requests also keep their solo run's full counter snapshot. A BFS or
//! parent-BFS group shares one traversal and splits its charges: the
//! bills sum exactly to what the batch's shared counters received, and
//! the group reads the matrix at most as often as its members' solo runs
//! together. A request with an out-of-range vertex id is answered with a
//! typed error while its batch — and a live service — carry on.

use proptest::prelude::*;
use push_pull::core::{ExecLimits, GrbError};
use push_pull::gen::erdos::erdos_renyi;
use push_pull::gen::powerlaw::{chung_lu, PowerLawParams};
use push_pull::gen::with_uniform_weights;
use push_pull::primitives::counters::{AccessCounters, CounterSnapshot};
use push_pull::service::{
    execute_batch, ExecOpts, Query, QueryKind, Request, Response, Service, ServiceConfig,
    ServiceGraphs,
};

const LANES: [usize; 3] = [1, 2, 8];
const N: usize = 512;

fn service_graphs(family: u8, seed: u64) -> ServiceGraphs {
    let g = match family {
        0 => erdos_renyi(N, N * 4, seed),
        _ => chung_lu(N, 6, PowerLawParams::default(), seed),
    };
    let w = with_uniform_weights(&g, seed ^ 0x77);
    ServiceGraphs::new(g, w)
}

fn query_strategy() -> impl Strategy<Value = Query> {
    // Weighted kind roll (BFS-heavy like the load generator's default
    // mix), folded into one tuple strategy — the vendored proptest shim
    // has no `prop_oneof`.
    let nv = N as u32;
    (0u32..12, 0..nv, 0..nv).prop_map(|(roll, a, b)| match roll {
        0..=3 => Query::Bfs { source: a },
        4..=6 => Query::Parents { source: a },
        7..=9 => Query::Sssp { source: a },
        10 => Query::PageRank,
        _ => Query::Bc {
            sources: vec![a, b],
        },
    })
}

/// Coalesced batch vs per-request solo dispatch on the same graphs:
/// values agree request by request, and counters follow the contract in
/// the module doc.
fn assert_batch_matches_solo(gs: &ServiceGraphs, opts: &ExecOpts, batch: &[Request]) {
    let shared = AccessCounters::new();
    let coalesced = execute_batch(gs, opts, batch, Some(&shared));
    let solos: Vec<Response> = batch
        .iter()
        .map(|req| {
            execute_batch(gs, opts, &[Request::new(req.id, req.query.clone())], None)
                .pop()
                .expect("one request, one response")
        })
        .collect();
    for kind in [QueryKind::Bfs, QueryKind::Parents] {
        let matrix = |rs: &[Response]| -> u64 {
            (0..batch.len())
                .filter(|&i| batch[i].query.kind() == kind)
                .map(|i| rs[i].counters.matrix)
                .sum()
        };
        let (group_matrix, solo_matrix) = (matrix(&coalesced), matrix(&solos));
        assert!(
            group_matrix <= solo_matrix,
            "{kind:?} group read the matrix {group_matrix} times, its solo runs {solo_matrix}"
        );
    }
    let mut bills = CounterSnapshot::default();
    for (i, (req, solo)) in batch.iter().zip(&solos).enumerate() {
        let (got, want) = (&coalesced[i].counters, &solo.counters);
        let what = format!(
            "request {i} ({:?}) in a group of {}",
            req.query.kind(),
            coalesced[i].group_size
        );
        assert_eq!(coalesced[i].result, solo.result, "{what}: values diverged");
        match req.query.kind() {
            QueryKind::Bfs | QueryKind::Parents => {
                assert_eq!(
                    (got.push_steps, got.pull_steps),
                    (want.push_steps, want.pull_steps),
                    "{what}: push/pull steps diverged"
                );
            }
            _ => assert_eq!(got, want, "{what}: counter attribution diverged"),
        }
        if req.query.kind().coalescible() {
            let total = AccessCounters::new();
            total.absorb(&bills);
            total.absorb(got);
            bills = total.snapshot();
        }
    }
    assert_eq!(
        shared.snapshot(),
        bills,
        "the coalescible bills must sum exactly to the shared total"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arbitrary mixes, arbitrary graph families, every lane count: the
    /// coalesced response is bit-identical to the solo response.
    #[test]
    fn coalesced_requests_are_bit_identical_to_solo_runs(
        family in 0u8..2,
        seed in 0u64..1_000,
        queries in proptest::collection::vec(query_strategy(), 2..9),
        lane_idx in 0usize..3,
    ) {
        let gs = service_graphs(family, seed);
        let opts = ExecOpts::default();
        let batch: Vec<Request> = queries
            .into_iter()
            .enumerate()
            .map(|(i, q)| Request::new(i as u64, q))
            .collect();
        rayon::with_num_threads(LANES[lane_idx], || {
            assert_batch_matches_solo(&gs, &opts, &batch);
        });
    }
}

/// A fixed heavily-coalescing batch (three of each coalescible kind plus
/// both solo kinds), swept across all lane counts in one test: solo
/// equivalence holds at each lane, and the whole response set — values,
/// counters, scheduling metadata — is identical across lanes.
#[test]
fn fixed_mixed_batch_equivalent_and_lane_invariant() {
    let gs = service_graphs(1, 42);
    let opts = ExecOpts::default();
    let queries = vec![
        Query::Bfs { source: 0 },
        Query::Bfs { source: 101 },
        Query::Bfs { source: 333 },
        Query::Parents { source: 7 },
        Query::Parents { source: 200 },
        Query::Parents { source: 451 },
        Query::Sssp { source: 3 },
        Query::Sssp { source: 77 },
        Query::Sssp { source: 509 },
        Query::PageRank,
        Query::Bc {
            sources: vec![5, 80],
        },
    ];
    let batch: Vec<Request> = queries
        .into_iter()
        .enumerate()
        .map(|(i, q)| Request::new(i as u64, q))
        .collect();

    let mut per_lane = Vec::new();
    for lanes in LANES {
        let responses = rayon::with_num_threads(lanes, || {
            assert_batch_matches_solo(&gs, &opts, &batch);
            execute_batch(&gs, &opts, &batch, None)
        });
        for r in &responses {
            let expect = match batch[r.id as usize].query.kind() {
                k if k.coalescible() => 3,
                _ => 1,
            };
            assert_eq!(r.group_size, expect, "request {} group size", r.id);
            assert_eq!(r.batch_size, batch.len());
            assert!(!r.retried_solo);
        }
        per_lane.push(
            responses
                .into_iter()
                .map(|r| (r.id, r.result, r.counters, r.group_size))
                .collect::<Vec<_>>(),
        );
    }
    for (lanes, got) in LANES.iter().zip(&per_lane) {
        assert_eq!(got, &per_lane[0], "diverged at {lanes} lanes");
    }
}

/// One out-of-range vertex id inside a coalesced batch: that request alone
/// is answered with the typed error and zero counters; its would-be group
/// runs without it, identical to the batch without the bad request.
#[test]
fn coalesced_batch_answers_bad_vertex_typed_and_spares_its_group() {
    let gs = service_graphs(1, 42);
    let opts = ExecOpts::default();
    let n = N as u32;
    let queries = [
        Query::Bfs { source: 0 },
        Query::Bfs { source: n + 5 },
        Query::Bfs { source: 101 },
        Query::Parents { source: n },
        Query::Parents { source: 7 },
        Query::Sssp { source: u32::MAX },
        Query::Bc {
            sources: vec![3, n + 1],
        },
    ];
    let batch: Vec<Request> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| Request::new(i as u64, q.clone()))
        .collect();
    for lanes in LANES {
        let rs = rayon::with_num_threads(lanes, || execute_batch(&gs, &opts, &batch, None));
        for (i, bad) in [(1usize, n + 5), (3, n), (5, u32::MAX), (6, n + 1)] {
            assert_eq!(
                rs[i].result,
                Err(GrbError::IndexOutOfBounds {
                    index: bad as usize,
                    dim: N
                }),
                "request {i} at {lanes} lanes"
            );
            assert_eq!(rs[i].counters, CounterSnapshot::default());
            assert_eq!(rs[i].group_size, 1);
        }
        let good: Vec<Request> = [0usize, 2, 4].iter().map(|&i| batch[i].clone()).collect();
        let clean = rayon::with_num_threads(lanes, || execute_batch(&gs, &opts, &good, None));
        for (r, &i) in clean.iter().zip(&[0usize, 2, 4]) {
            assert_eq!(rs[i].result, r.result, "request {i} at {lanes} lanes");
            assert_eq!(rs[i].counters, r.counters, "request {i} at {lanes} lanes");
            assert!(rs[i].result.is_ok());
        }
    }
}

/// A live service answers a request with an out-of-range source with the
/// typed error, then keeps serving: the next valid request is answered.
#[test]
fn service_answers_bad_vertex_typed_and_keeps_serving() {
    let gs = service_graphs(0, 7);
    let service = Service::start(gs, ExecOpts::default(), ServiceConfig::default());
    let bad = service.submit(
        Query::Bfs {
            source: N as u32 + 5,
        },
        ExecLimits::none(),
    );
    assert_eq!(
        bad.wait().result,
        Err(GrbError::IndexOutOfBounds {
            index: N + 5,
            dim: N
        })
    );
    let good = service.submit(Query::Parents { source: 3 }, ExecLimits::none());
    assert!(good.wait().result.is_ok(), "the service must keep serving");
    service.shutdown();
}
