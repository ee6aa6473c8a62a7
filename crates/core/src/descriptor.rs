//! Operation descriptor: the knob panel of §6.3 plus per-optimization
//! toggles for the Table 2 ablation.
//!
//! In the GraphBLAS C API a `GrB_Descriptor` carries transpose/replace/
//! complement switches and implementation hints. Ours additionally exposes
//! the paper's optimizations so each can be disabled in isolation:
//! direction choice (force push/pull or auto), early-exit and
//! structure-only (a constant-product semiring's push runs the mask-first
//! claim kernel). With the transpose flag that makes four fields. A valued
//! push always merges as §6.2 does (radix sort and segmented reduce), so
//! there is no merge field; every kernel face reads the graph's resident
//! CSR for its orientation, so there is no storage-format field. The §6.3 switch threshold
//! (`α = β = 0.01`) is a traversal-level setting: it lives in the
//! algorithm options and the [`crate::plan::DirectionPolicy`] they build.

/// Traversal direction ≡ matvec kernel family (§4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Column-based matvec over a sparse input (frontier expands children).
    Push,
    /// Row-based matvec over a dense input (unvisited rows scan parents).
    Pull,
}

/// How `mxv` (and, row by row, `mxv_batch`) picks its kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DirectionChoice {
    /// Follow the input vector's storage: sparse → push, dense → pull.
    /// The batched dispatcher applies the same rule per row (or per-row
    /// `DirectionPolicy` state when supplied).
    #[default]
    Auto,
    /// Always use the given kernel, converting the input if needed
    /// (used by the per-iteration studies of Figs. 5–6 and the baselines).
    /// In a batch this forces *every* row.
    Force(Direction),
}

/// Per-call options for `mxv` and friends.
#[derive(Clone, Copy, Debug)]
pub struct Descriptor {
    /// Operate on `Aᵀ` instead of `A` (GrB_INP0 transpose). BFS sets this:
    /// Algorithm 1 computes `Aᵀf`.
    pub transpose: bool,
    /// Kernel selection policy.
    pub direction: DirectionChoice,
    /// Optimization 3: allow the row kernel to break out of a row once the
    /// ⊕ accumulator reaches the monoid's annihilator.
    pub early_exit: bool,
    /// Optimization 5: when the semiring has a constant product hint, the
    /// column kernel carries no values at all. It tests the mask on each
    /// expanded edge, claims the survivors in an atomic bit set (Gunrock's
    /// culling, §7.3, made mask-first) and sorts only the claimed vertices.
    pub structure_only: bool,
}

impl Default for Descriptor {
    fn default() -> Self {
        Self {
            transpose: false,
            direction: DirectionChoice::Auto,
            early_exit: true,
            structure_only: true,
        }
    }
}

impl Descriptor {
    /// Descriptor with every paper optimization enabled (the defaults).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: set transpose.
    #[must_use]
    pub fn transpose(mut self, on: bool) -> Self {
        self.transpose = on;
        self
    }

    /// Builder: force a direction.
    #[must_use]
    pub fn force(mut self, d: Direction) -> Self {
        self.direction = DirectionChoice::Force(d);
        self
    }

    /// Builder: set early-exit.
    #[must_use]
    pub fn early_exit(mut self, on: bool) -> Self {
        self.early_exit = on;
        self
    }

    /// Builder: set structure-only.
    #[must_use]
    pub fn structure_only(mut self, on: bool) -> Self {
        self.structure_only = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let d = Descriptor::default();
        assert!(d.early_exit);
        assert!(d.structure_only);
        assert_eq!(d.direction, DirectionChoice::Auto);
        assert!(!d.transpose);
    }

    #[test]
    fn builder_chains() {
        let d = Descriptor::new()
            .transpose(true)
            .force(Direction::Pull)
            .early_exit(false)
            .structure_only(false);
        assert!(d.transpose);
        assert_eq!(d.direction, DirectionChoice::Force(Direction::Pull));
        assert!(!d.early_exit);
        assert!(!d.structure_only);
    }
}
