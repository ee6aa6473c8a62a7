//! Service coalescing contract: a request that executed inside a
//! coalesced batch must be indistinguishable from the same request
//! dispatched alone — identical values AND identical per-request counter
//! snapshot — for arbitrary query mixes over random graphs, at 1, 2, and
//! 8 lanes. The batch is an execution detail, never an observable.

use proptest::prelude::*;
use push_pull::gen::erdos::erdos_renyi;
use push_pull::gen::powerlaw::{chung_lu, PowerLawParams};
use push_pull::gen::with_uniform_weights;
use push_pull::service::{execute_batch, ExecOpts, Query, Request, ServiceGraphs};

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
/// values and counter snapshots must agree request by request.
fn assert_batch_matches_solo(gs: &ServiceGraphs, opts: &ExecOpts, batch: &[Request]) {
    let coalesced = execute_batch(gs, opts, batch, None);
    for (i, req) in batch.iter().enumerate() {
        let solo = execute_batch(gs, opts, &[Request::new(req.id, req.query.clone())], None)
            .pop()
            .expect("one request, one response");
        assert_eq!(
            coalesced[i].result,
            solo.result,
            "request {i} ({:?}) diverged in a group of {}",
            req.query.kind(),
            coalesced[i].group_size
        );
        assert_eq!(
            coalesced[i].counters,
            solo.counters,
            "request {i} ({:?}) counter attribution diverged in a group of {}",
            req.query.kind(),
            coalesced[i].group_size
        );
    }
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
