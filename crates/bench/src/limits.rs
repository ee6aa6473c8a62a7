//! The limits study behind `paper -- limits`: what an armed limit that
//! never trips costs a BFS, and how far past its deadline a cancelled run
//! returns.

use crate::{median, time_ms};
use graphblas_algo::bfs::{bfs_with_opts, try_bfs_with_opts, BfsOpts};
use graphblas_algo::bfs_parents::{try_bfs_parents_with_opts, ParentBfsOpts};
use graphblas_algo::sssp::{try_sssp_with_counters, SsspOpts};
use graphblas_core::{ExecLimits, GrbError, GrbResult};
use graphblas_matrix::{Graph, VertexId};
use graphblas_primitives::AccessCounters;
use std::time::Duration;

/// The armed-cost arms, in their base order: no counters, counters on,
/// and counters with a deadline (3,600 s) that never trips.
pub const ARMS: [&str; 3] = ["unguarded", "counters", "deadline_3600s"];

/// The algorithms the overshoot study cancels.
pub const ALGOS: [&str; 3] = ["bfs", "parent_bfs", "sssp"];

/// One arm's BFS time, from each source's fastest run.
#[derive(Clone, Debug)]
pub struct ArmCost {
    /// One of [`ARMS`].
    pub arm: &'static str,
    /// Mean over sources of each source's minimum, ms.
    pub ms_per_bfs: f64,
    /// Sum of the per-source minima over the unguarded arm's sum.
    pub ratio: f64,
    /// Smallest and largest per-source ratio to the unguarded arm: the
    /// spread behind [`ArmCost::ratio`].
    pub ratio_min: f64,
    pub ratio_max: f64,
}

/// Time a default BFS from every source under each of [`ARMS`], `rounds`
/// times. Each source runs the arms back to back, in an order rotated by
/// source and round, and keeps its minimum per arm.
///
/// # Panics
/// If the never-tripping deadline trips, or `sources` is empty.
#[must_use]
pub fn armed_cost(g: &Graph<bool>, sources: &[VertexId], rounds: usize) -> Vec<ArmCost> {
    assert!(!sources.is_empty(), "the study needs sources");
    let plain = BfsOpts::default();
    let armed =
        BfsOpts::default().limits(ExecLimits::none().with_deadline(Duration::from_secs(3600)));
    let run = |arm: usize, s: VertexId| match arm {
        0 => time_ms(|| bfs_with_opts(g, s, &plain, None)).1,
        1 => {
            let c = AccessCounters::new();
            time_ms(|| bfs_with_opts(g, s, &plain, Some(&c))).1
        }
        _ => {
            let (r, ms) = time_ms(|| try_bfs_with_opts(g, s, &armed, None));
            r.expect("a 3,600 s deadline never trips");
            ms
        }
    };
    let mut best = vec![vec![f64::INFINITY; sources.len()]; ARMS.len()];
    for round in 0..rounds {
        for (i, &s) in sources.iter().enumerate() {
            for k in 0..ARMS.len() {
                let arm = (k + i + round) % ARMS.len();
                best[arm][i] = best[arm][i].min(run(arm, s));
            }
        }
    }
    let base: f64 = best[0].iter().sum();
    ARMS.iter()
        .zip(&best)
        .map(|(&arm, times)| {
            let per_source = times.iter().zip(&best[0]).map(|(t, b)| t / b);
            ArmCost {
                arm,
                ms_per_bfs: times.iter().sum::<f64>() / times.len() as f64,
                ratio: times.iter().sum::<f64>() / base,
                ratio_min: per_source.clone().fold(f64::INFINITY, f64::min),
                ratio_max: per_source.fold(0.0, f64::max),
            }
        })
        .collect()
}

/// How one algorithm's runs under one deadline ended.
#[derive(Clone, Debug)]
pub struct Overshoot {
    /// One of [`ALGOS`].
    pub algo: &'static str,
    pub deadline_us: u64,
    pub sources: usize,
    /// Runs that returned `GrbError::Cancelled`.
    pub cancelled: usize,
    /// Runs that returned `Ok` after their deadline had passed: a limit
    /// no poll saw in time. The other runs finished before the deadline.
    pub completed_late: usize,
    /// Median and largest time from the call to `Cancelled`, minus the
    /// deadline, over the cancelled runs (ms; NaN when none was).
    pub median_ms: f64,
    pub max_ms: f64,
}

/// Run each of [`ALGOS`] once from every source under each deadline:
/// BFS and parent BFS on `g`, SSSP on its weighted twin `gw`, all with
/// default options.
///
/// # Panics
/// If a run fails with anything but `Cancelled`.
#[must_use]
pub fn deadline_overshoot(
    g: &Graph<bool>,
    gw: &Graph<f32>,
    sources: &[VertexId],
    deadlines_us: &[u64],
) -> Vec<Overshoot> {
    let mut out = Vec::new();
    for algo in ALGOS {
        for &us in deadlines_us {
            let limits = ExecLimits::none().with_deadline(Duration::from_micros(us));
            let call = |s: VertexId| -> GrbResult<()> {
                match algo {
                    "bfs" => {
                        let opts = BfsOpts::default().limits(limits);
                        try_bfs_with_opts(g, s, &opts, None).map(drop)
                    }
                    "parent_bfs" => {
                        let opts = ParentBfsOpts {
                            limits,
                            ..ParentBfsOpts::default()
                        };
                        try_bfs_parents_with_opts(g, s, &opts, None).map(drop)
                    }
                    _ => {
                        let opts = SsspOpts {
                            limits,
                            ..SsspOpts::default()
                        };
                        try_sssp_with_counters(gw, s, &opts, None).map(drop)
                    }
                }
            };
            let mut over = Vec::new();
            let mut completed_late = 0;
            for &s in sources {
                let (r, ms) = time_ms(|| call(s));
                let past = ms - us as f64 / 1e3;
                match r {
                    Ok(()) => completed_late += usize::from(past > 0.0),
                    Err(GrbError::Cancelled) => over.push(past),
                    Err(e) => panic!("{algo} from {s}: {e}"),
                }
            }
            out.push(Overshoot {
                algo,
                deadline_us: us,
                sources: sources.len(),
                cancelled: over.len(),
                completed_late,
                median_ms: if over.is_empty() {
                    f64::NAN
                } else {
                    median(&over)
                },
                max_ms: over.iter().copied().fold(f64::NAN, f64::max),
            });
        }
    }
    out
}
