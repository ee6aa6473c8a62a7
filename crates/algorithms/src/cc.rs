//! Connected components by min-label propagation over the (min, second)
//! semiring — one of the traversal-style algorithms §5.6 claims the
//! direction-optimization machinery generalizes to.
//!
//! Every vertex starts labeled with its own id; each round propagates the
//! minimum label across edges. The *delta* set (vertices whose label
//! changed) is the frontier: small deltas run the column kernel, large
//! deltas the row kernel, under the paper's §6.3 hysteresis switch.
//!
//! By default each round runs as a fused pipeline
//! ([`graphblas_core::fused::FusedMxv`]): the matvec's candidate labels
//! flow straight into the `labels` array through a write-if-smaller update
//! rule — the relaxation `labels ← min(labels, candidates)` is the fused
//! `assign`, and the candidate vector is never materialized.

use graphblas_core::descriptor::{Descriptor, Direction};
use graphblas_core::ops::MinSecond;
use graphblas_core::vector::{DenseVector, Vector};
use graphblas_core::{mxv, run_guarded, DirectionPolicy, ExecLimits, FusedMxv, GrbResult};
use graphblas_matrix::{Graph, VertexId};
use graphblas_primitives::counters::AccessCounters;

/// Result of a components run.
#[derive(Clone, Debug)]
pub struct CcResult {
    /// Per-vertex component label (the minimum vertex id in the component).
    pub labels: Vec<u32>,
    /// Propagation rounds executed.
    pub rounds: usize,
}

/// Number of distinct components in a label vector.
#[must_use]
pub fn component_count(labels: &[u32]) -> usize {
    let mut sorted = labels.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

/// Options for connected components.
#[derive(Clone, Copy, Debug)]
pub struct CcOpts {
    /// The §6.3 hysteresis switch ratio on the delta set. Paper default
    /// 0.01.
    pub switch_threshold: f64,
    /// Run each round as one fused mxv·assign pass (default) instead of
    /// materializing the candidate vector. Bit-identical either way.
    pub fused: bool,
    /// Execution limits enforced by [`try_connected_components_with_opts`];
    /// the infallible entry points ignore this field.
    pub limits: ExecLimits,
}

impl Default for CcOpts {
    fn default() -> Self {
        Self {
            switch_threshold: 0.01,
            fused: true,
            limits: ExecLimits::none(),
        }
    }
}

/// Label-propagation connected components (undirected graphs) with default
/// options except the given switch threshold.
#[must_use]
pub fn connected_components(g: &Graph<bool>, switch_threshold: f64) -> CcResult {
    let opts = CcOpts {
        switch_threshold,
        ..CcOpts::default()
    };
    connected_components_with_opts(g, &opts, None)
}

/// Connected components with explicit options and optional access counters.
#[must_use]
pub fn connected_components_with_opts(
    g: &Graph<bool>,
    opts: &CcOpts,
    counters: Option<&AccessCounters>,
) -> CcResult {
    cc_loop(g, opts, counters).expect("unlimited CC with verified dims cannot abort")
}

/// Connected components under the options' [`ExecLimits`] with full fault
/// isolation (see [`crate::bfs::try_bfs_with_opts`] for the abort/retry
/// contract).
pub fn try_connected_components_with_opts(
    g: &Graph<bool>,
    opts: &CcOpts,
    counters: Option<&AccessCounters>,
) -> GrbResult<CcResult> {
    run_guarded(counters, &opts.limits, |c| cc_loop(g, opts, c))
}

fn cc_loop(
    g: &Graph<bool>,
    opts: &CcOpts,
    counters: Option<&AccessCounters>,
) -> GrbResult<CcResult> {
    let n = g.n_vertices();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    // Initially every vertex is "changed".
    let mut delta: Vector<u32> = Vector::Dense(DenseVector::from_values(labels.clone(), u32::MAX));
    let mut rounds = 0usize;
    // The §6.3 hysteresis rule on the delta set; dense start means the
    // policy begins in pull.
    let mut policy = DirectionPolicy::hysteresis_from(Direction::Pull, opts.switch_threshold);
    let base = Descriptor::new().transpose(true);

    loop {
        rounds += 1;
        let dir = policy.update(delta.nnz(), n);
        let desc = base.force(dir);

        // Pull rounds relax against the *full* label vector (min is
        // idempotent, so the superset of the delta is sound — operand
        // reuse again); push rounds expand only the delta set.
        let touched: Vec<u32> = if opts.fused {
            // labels ← min(labels, candidates) as the fused update rule;
            // the candidate vector never exists.
            let out = if dir == Direction::Pull {
                let full = Vector::Dense(DenseVector::from_values(labels.clone(), u32::MAX));
                FusedMxv::new(MinSecond, g, &full)
                    .descriptor(desc)
                    .counters(counters)
                    .apply(|l: u32| l)
                    .assign_into(&mut labels, |old, new| (new < old).then_some(new))
            } else {
                FusedMxv::new(MinSecond, g, &delta)
                    .descriptor(desc)
                    .counters(counters)
                    .apply(|l: u32| l)
                    .assign_into(&mut labels, |old, new| (new < old).then_some(new))
            }?;
            out.touched
        } else {
            let candidates: Vector<u32> = if dir == Direction::Pull {
                let full = Vector::Dense(DenseVector::from_values(labels.clone(), u32::MAX));
                mxv(None, MinSecond, g, &full, &desc, counters)?
            } else {
                mxv(None, MinSecond, g, &delta, &desc, counters)?
            };
            let mut ids = Vec::new();
            for (i, c) in candidates.iter_explicit() {
                if c < labels[i as usize] {
                    labels[i as usize] = c;
                    ids.push(i);
                }
            }
            ids
        };
        if touched.is_empty() {
            break;
        }
        let vals: Vec<u32> = touched.iter().map(|&i| labels[i as usize]).collect();
        delta = Vector::from_sparse(n, u32::MAX, touched, vals);
    }

    Ok(CcResult { labels, rounds })
}

/// Serial union-find oracle.
#[must_use]
pub fn cc_oracle(g: &Graph<bool>) -> Vec<u32> {
    let n = g.n_vertices();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], x: u32) -> u32 {
        let mut root = x;
        while parent[root as usize] != root {
            root = parent[root as usize];
        }
        let mut cur = x;
        while parent[cur as usize] != root {
            let next = parent[cur as usize];
            parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    for u in 0..n {
        for &v in g.children(u as VertexId) {
            let ru = find(&mut parent, u as u32);
            let rv = find(&mut parent, v);
            if ru != rv {
                parent[ru.max(rv) as usize] = ru.min(rv);
            }
        }
    }
    // Normalize: label = min id in component.
    (0..n as u32).map(|v| find(&mut parent, v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas_gen::erdos::erdos_renyi;
    use graphblas_gen::grid::{road_mesh, RoadParams};
    use graphblas_matrix::Coo;

    #[test]
    fn two_components() {
        let mut coo = Coo::new(6, 6);
        for &(u, v) in &[(0u32, 1u32), (1, 2), (3, 4)] {
            coo.push(u, v, true);
        }
        coo.clean_undirected();
        let g = Graph::from_coo(&coo);
        let r = connected_components(&g, 0.01);
        assert_eq!(r.labels, vec![0, 0, 0, 3, 3, 5]);
        assert_eq!(component_count(&r.labels), 3);
    }

    #[test]
    fn matches_union_find_on_random_graph() {
        let g = erdos_renyi(2000, 3000, 31); // sparse ⇒ many components
        let r = connected_components(&g, 0.01);
        assert_eq!(r.labels, cc_oracle(&g));
    }

    #[test]
    fn matches_union_find_on_sparse_mesh() {
        let g = road_mesh(
            40,
            40,
            RoadParams {
                keep: 0.55,
                diagonal: 0.0,
            },
            7,
        );
        let r = connected_components(&g, 0.01);
        assert_eq!(r.labels, cc_oracle(&g));
        assert!(component_count(&r.labels) > 1, "low keep ⇒ fragmentation");
    }

    #[test]
    fn singleton_graph() {
        let g = Graph::from_coo(&Coo::<bool>::new(4, 4));
        let r = connected_components(&g, 0.01);
        assert_eq!(r.labels, vec![0, 1, 2, 3]);
        assert_eq!(r.rounds, 1);
    }
}
