#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! Graph substrate for the `symclust` workspace.
//!
//! Provides the directed and undirected graph types consumed by the
//! symmetrization framework, along with:
//!
//! * [`DiGraph`] / [`UnGraph`] — CSR-backed graph types with optional node
//!   labels,
//! * [`GroundTruth`] — possibly-overlapping category assignments used for
//!   F-score evaluation (§4.3 of the paper),
//! * [`stats`] — degree statistics, reciprocity (percentage of symmetric
//!   links, Table 1), log-binned degree histograms (Figure 4), connected
//!   components,
//! * [`generators`] — synthetic directed graphs with planted ground truth:
//!   the shared-link DSBM used as stand-in for the paper's datasets, a
//!   stochastic Kronecker generator (paper ref \[14\]), and the idealized
//!   Figure-1 graph,
//! * [`io`] — plain-text edge-list reading and writing.

pub mod digraph;
pub mod generators;
pub mod ground_truth;
pub mod io;
pub mod stats;
pub mod ungraph;

pub use digraph::DiGraph;
pub use ground_truth::GroundTruth;
pub use stats::{percent_symmetric_links, DegreeHistogram, GraphStats};
pub use ungraph::UnGraph;

/// Error type for graph construction and I/O.
#[derive(Debug)]
#[non_exhaustive]
pub enum GraphError {
    /// Underlying sparse-matrix error.
    Sparse(symclust_sparse::SparseError),
    /// Malformed input (parse errors, inconsistent sizes, ...).
    Invalid(String),
    /// An edge-list line carried an edge the loader rejects (non-finite or
    /// negative weight, self-loop, duplicate). `line` is 1-based.
    BadEdge {
        /// 1-based line number of the offending edge.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// I/O failure while reading or writing graph files.
    Io(std::io::Error),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Sparse(e) => write!(f, "sparse error: {e}"),
            GraphError::Invalid(msg) => write!(f, "invalid graph: {msg}"),
            GraphError::BadEdge { line, reason } => {
                write!(f, "bad edge at line {line}: {reason}")
            }
            GraphError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<symclust_sparse::SparseError> for GraphError {
    fn from(e: symclust_sparse::SparseError) -> Self {
        GraphError::Sparse(e)
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

/// Result alias for graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;
