//! Error type for GraphBLAS-style operations, mirroring the GrB_Info codes
//! of the C API specification that apply to a single-process library.

use std::fmt;

/// Which budgeted resource ran out in a [`GrbError::BudgetExceeded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetResource {
    /// The charged-access work budget (`ExecLimits::work_budget`).
    Work,
    /// The kernel-allocation bytes budget (`ExecLimits::bytes_budget`), or
    /// an injected allocation failure.
    Bytes,
}

/// Errors returned by core operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrbError {
    /// Operand dimensions do not conform (GrB_DIMENSION_MISMATCH).
    DimensionMismatch {
        /// What was being multiplied/combined.
        context: &'static str,
        /// Expected extent.
        expected: usize,
        /// Actual extent.
        actual: usize,
    },
    /// An index is out of the valid range (GrB_INDEX_OUT_OF_BOUNDS).
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The dimension it must be below.
        dim: usize,
    },
    /// The requested option combination is not supported.
    InvalidValue(&'static str),
    /// The run's wall-clock deadline expired and the operation aborted at a
    /// chunk boundary. Caller state, caches, and counters are untouched
    /// (the guard restores the counters); retrying is always safe.
    Cancelled,
    /// A resource budget was exhausted at a site with no graceful fallback.
    /// Like [`GrbError::Cancelled`], the abort is clean and retryable.
    BudgetExceeded {
        /// Which budget ran out.
        resource: BudgetResource,
    },
    /// A worker chunk panicked; the panic was caught at the chunk boundary
    /// and the pool remains usable. The failed operation's outputs were
    /// discarded and the counters restored, so retrying is safe.
    WorkerPanicked {
        /// Index of the chunk whose body panicked.
        chunk: usize,
        /// Best-effort rendering of the panic payload.
        message: String,
    },
}

impl fmt::Display for GrbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrbError::DimensionMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, got {actual}"
            ),
            GrbError::IndexOutOfBounds { index, dim } => {
                write!(f, "index {index} out of bounds for dimension {dim}")
            }
            GrbError::InvalidValue(msg) => write!(f, "invalid value: {msg}"),
            GrbError::Cancelled => write!(f, "cancelled: execution deadline expired"),
            GrbError::BudgetExceeded { resource } => write!(
                f,
                "budget exceeded: {} budget exhausted",
                match resource {
                    BudgetResource::Work => "charged-access work",
                    BudgetResource::Bytes => "allocation bytes",
                }
            ),
            GrbError::WorkerPanicked { chunk, message } => {
                write!(f, "worker panicked in chunk {chunk}: {message}")
            }
        }
    }
}

impl std::error::Error for GrbError {}

/// Convenience result alias.
pub type GrbResult<T> = Result<T, GrbError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = GrbError::DimensionMismatch {
            context: "mxv",
            expected: 4,
            actual: 5,
        };
        assert!(e.to_string().contains("mxv"));
        assert!(e.to_string().contains('4'));
        let e = GrbError::IndexOutOfBounds { index: 9, dim: 3 };
        assert!(e.to_string().contains('9'));
        let e = GrbError::InvalidValue("nope");
        assert!(e.to_string().contains("nope"));
        assert!(GrbError::Cancelled.to_string().contains("deadline"));
        let e = GrbError::BudgetExceeded {
            resource: BudgetResource::Work,
        };
        assert!(e.to_string().contains("work"));
        let e = GrbError::BudgetExceeded {
            resource: BudgetResource::Bytes,
        };
        assert!(e.to_string().contains("bytes"));
        let e = GrbError::WorkerPanicked {
            chunk: 17,
            message: "boom".into(),
        };
        assert!(e.to_string().contains("17"));
        assert!(e.to_string().contains("boom"));
    }
}
