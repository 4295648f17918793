#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! # symclust-core — graph symmetrizations
//!
//! The primary contribution of *"Symmetrizations for Clustering Directed
//! Graphs"* (Satuluri & Parthasarathy, EDBT 2011): transformations that turn
//! a directed graph `G` with adjacency matrix `A` into a weighted undirected
//! graph `G_U` whose edges capture the similarity structure relevant for
//! clustering. The four methods compared in the paper:
//!
//! | method | formula | paper § |
//! |--------|---------|---------|
//! | [`PlusTranspose`] | `U = A + Aᵀ` | 3.1 |
//! | [`RandomWalk`] | `U = (ΠP + PᵀΠ)/2` | 3.2 |
//! | [`Bibliometric`] | `U = AAᵀ + AᵀA` (with `A := A + I`) = DD(0, 0, `+I`) | 3.3 |
//! | [`DegreeDiscounted`] | `U = Do⁻ᵅADi⁻ᵝAᵀDo⁻ᵅ + Di⁻ᵝAᵀDo⁻ᵅADi⁻ᵝ` | 3.4 |
//!
//! All methods implement the [`Symmetrizer`] trait and produce a
//! [`SymmetrizedGraph`] carrying the undirected graph plus provenance
//! metadata. The [`prune`] module implements the paper's §3.5/§5.3.1
//! machinery: thresholding similarity matrices and selecting a threshold
//! from a random node sample so the symmetrized graph hits a target average
//! degree.

pub mod bibliometric;
pub mod bipartite;
pub mod degree_discounted;
pub mod plus_transpose;
pub mod prune;
pub mod random_walk;
pub mod symmetrized;

pub use bibliometric::{Bibliometric, BibliometricOptions};
pub use bipartite::{
    bipartite_degree_discounted, chain_degree_discounted, BipartiteGraph, BipartiteOptions,
    BipartiteSide, ChainOptions, MultipartiteChain,
};
pub use degree_discounted::{DegreeDiscounted, DegreeDiscountedOptions, DiscountExponent};
pub use plus_transpose::PlusTranspose;
pub use prune::{select_threshold, ThresholdSelection};
pub use random_walk::{RandomWalk, RandomWalkOptions};
pub use symmetrized::SymmetrizedGraph;

use symclust_graph::DiGraph;

/// Error type for symmetrization operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum SymmetrizeError {
    /// Underlying sparse-matrix failure.
    Sparse(symclust_sparse::SparseError),
    /// Underlying graph failure.
    Graph(symclust_graph::GraphError),
    /// Invalid configuration.
    InvalidConfig(String),
    /// The symmetrization was cancelled via a
    /// [`CancelToken`](symclust_sparse::CancelToken) (explicitly or by
    /// deadline).
    Cancelled,
}

impl SymmetrizeError {
    /// Whether this error stems from cooperative cancellation.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, SymmetrizeError::Cancelled)
    }
}

impl std::fmt::Display for SymmetrizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymmetrizeError::Sparse(e) => write!(f, "sparse error: {e}"),
            SymmetrizeError::Graph(e) => write!(f, "graph error: {e}"),
            SymmetrizeError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            SymmetrizeError::Cancelled => write!(f, "symmetrization cancelled"),
        }
    }
}

impl std::error::Error for SymmetrizeError {}

impl From<symclust_sparse::SparseError> for SymmetrizeError {
    fn from(e: symclust_sparse::SparseError) -> Self {
        match e {
            symclust_sparse::SparseError::Cancelled => SymmetrizeError::Cancelled,
            e => SymmetrizeError::Sparse(e),
        }
    }
}

impl From<symclust_graph::GraphError> for SymmetrizeError {
    fn from(e: symclust_graph::GraphError) -> Self {
        SymmetrizeError::Graph(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SymmetrizeError>;

/// A transformation from a directed graph to a weighted undirected graph.
///
/// This is stage 1 of the paper's two-stage framework (Figure 2); any
/// [`Symmetrizer`] can be paired with any stage-2 clustering algorithm.
pub trait Symmetrizer {
    /// Short human-readable method name ("A+A'", "Degree-discounted", ...).
    fn name(&self) -> String;

    /// Transforms the directed graph into an undirected one, polling
    /// `token` (a tripped token yields [`SymmetrizeError::Cancelled`]
    /// before any work, and within one SpGEMM row's work for the
    /// similarity methods) and recording kernel work counters (SpGEMM
    /// rows/flops/nnz, degraded fallbacks — DESIGN.md §11) into `metrics`
    /// when given. The one method an implementer writes.
    fn symmetrize_observed(
        &self,
        g: &DiGraph,
        token: &symclust_sparse::CancelToken,
        metrics: Option<&symclust_obs::MetricsRegistry>,
    ) -> Result<SymmetrizedGraph>;

    /// [`symmetrize_observed`](Self::symmetrize_observed) under a fresh
    /// token and no registry.
    fn symmetrize(&self, g: &DiGraph) -> Result<SymmetrizedGraph> {
        self.symmetrize_observed(g, &symclust_sparse::CancelToken::new(), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symclust_graph::generators::{shared_link_dsbm, SharedLinkDsbmConfig};
    use symclust_sparse::CancelToken;

    fn lineup() -> Vec<Box<dyn Symmetrizer>> {
        vec![
            Box::new(PlusTranspose),
            Box::new(RandomWalk::default()),
            Box::new(Bibliometric::with_threshold(2.0)),
            Box::new(DegreeDiscounted::with_threshold(0.05)),
        ]
    }

    #[test]
    fn plain_and_observed_agree_and_every_method_honours_a_tripped_token() {
        let g = shared_link_dsbm(&SharedLinkDsbmConfig {
            n_nodes: 120,
            n_clusters: 4,
            seed: 24,
            ..Default::default()
        })
        .unwrap()
        .graph;
        let tripped = CancelToken::new();
        tripped.cancel();
        for method in lineup() {
            let name = method.name();
            let plain = method.symmetrize(&g).unwrap();
            assert!(plain.n_edges() > 0, "{name}");
            let registry = symclust_obs::MetricsRegistry::new();
            let observed = method
                .symmetrize_observed(&g, &CancelToken::new(), Some(&registry))
                .unwrap();
            assert_eq!(plain.adjacency(), observed.adjacency(), "{name}");
            assert_eq!(plain.degraded(), observed.degraded(), "{name}");
            let err = method
                .symmetrize_observed(&g, &tripped, Some(&registry))
                .unwrap_err();
            assert!(err.is_cancelled(), "{name}: got {err:?}");
        }
    }
}
