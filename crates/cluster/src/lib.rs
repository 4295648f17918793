#![warn(missing_docs)]

//! # symclust-cluster — stage-2 graph clustering algorithms
//!
//! The paper's framework is deliberately agnostic about the undirected
//! clustering algorithm used after symmetrization (§3, Figure 2). This crate
//! provides from-scratch implementations of every algorithm the paper's
//! evaluation uses:
//!
//! * [`MlrMcl`] — Multi-Level Regularized Markov Clustering (Satuluri &
//!   Parthasarathy, KDD 2009), the paper's primary clusterer;
//! * [`MetisLike`] — a multilevel k-way partitioner in the style of
//!   Karypis & Kumar's Metis (coarsen → initial partition → refine);
//! * [`GraclusLike`] — multilevel weighted-kernel-k-means normalized-cut
//!   minimization in the style of Dhillon, Guan & Kulis' Graclus;
//! * [`BestWCut`] — the directed spectral baseline of Meila & Pentney
//!   (SDM 2007): weighted-cut spectral clustering via the directed
//!   Laplacian (Eq. 5 of the paper), Lanczos eigenvectors, and k-means++.
//!
//! All undirected algorithms implement [`ClusterAlgorithm`] and can be
//! paired with any `Symmetrizer` from `symclust-core`.

pub mod bestwcut;
pub mod clustering;
pub mod coarsen;
pub mod graclus_like;
pub mod kmeans;
pub mod mcl;
pub mod metis_like;
pub mod mlrmcl;

pub use bestwcut::{BestWCut, BestWCutOptions, WCutWeights};
pub use clustering::Clustering;
pub use coarsen::{coarsen_graph, CoarseLevel, CoarsenOptions};
pub use graclus_like::{GraclusLike, GraclusOptions};
pub use kmeans::{kmeans, KMeansOptions, KMeansResult};
pub use mcl::{rmcl, MclOptions, MclResult};
pub use metis_like::{MetisLike, MetisOptions};
pub use mlrmcl::{MlrMcl, MlrMclOptions};

use symclust_graph::UnGraph;

/// Error type for clustering operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClusterError {
    /// Underlying sparse-matrix failure.
    Sparse(symclust_sparse::SparseError),
    /// Underlying graph failure.
    Graph(symclust_graph::GraphError),
    /// Invalid configuration.
    InvalidConfig(String),
    /// The clustering was cancelled via a
    /// [`CancelToken`](symclust_sparse::CancelToken) (explicitly or by
    /// deadline).
    Cancelled,
}

impl ClusterError {
    /// Whether this error stems from cooperative cancellation.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, ClusterError::Cancelled)
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Sparse(e) => write!(f, "sparse error: {e}"),
            ClusterError::Graph(e) => write!(f, "graph error: {e}"),
            ClusterError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            ClusterError::Cancelled => write!(f, "clustering cancelled"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<symclust_sparse::SparseError> for ClusterError {
    fn from(e: symclust_sparse::SparseError) -> Self {
        match e {
            symclust_sparse::SparseError::Cancelled => ClusterError::Cancelled,
            e => ClusterError::Sparse(e),
        }
    }
}

impl From<symclust_graph::GraphError> for ClusterError {
    fn from(e: symclust_graph::GraphError) -> Self {
        ClusterError::Graph(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ClusterError>;

/// Anything that can be viewed as an undirected graph — lets callers pass a
/// `SymmetrizedGraph` straight to a clusterer.
pub trait AsUnGraph {
    /// The undirected-graph view.
    fn as_ungraph(&self) -> &UnGraph;
}

impl AsUnGraph for UnGraph {
    fn as_ungraph(&self) -> &UnGraph {
        self
    }
}

impl AsUnGraph for symclust_core::SymmetrizedGraph {
    fn as_ungraph(&self) -> &UnGraph {
        self.graph()
    }
}

/// An undirected-graph clustering algorithm (stage 2 of the framework).
///
/// Object-safe: the experiment harness holds `Vec<Box<dyn ClusterAlgorithm>>`.
pub trait ClusterAlgorithm {
    /// Short human-readable algorithm name.
    fn name(&self) -> String;

    /// Clusters the undirected graph, polling `token` (a tripped token
    /// yields [`ClusterError::Cancelled`] before any work; [`MlrMcl`] also
    /// polls between R-MCL iterations and inside each expansion) and
    /// recording algorithm counters (iterations, convergence — DESIGN.md
    /// §11) into `metrics` when given. The one method an implementer
    /// writes.
    fn cluster_observed(
        &self,
        g: &UnGraph,
        token: &symclust_sparse::CancelToken,
        metrics: Option<&symclust_obs::MetricsRegistry>,
    ) -> Result<Clustering>;

    /// [`cluster_observed`](Self::cluster_observed) under a fresh token
    /// and no registry.
    fn cluster_ungraph(&self, g: &UnGraph) -> Result<Clustering> {
        self.cluster_observed(g, &symclust_sparse::CancelToken::new(), None)
    }

    /// Clusters anything viewable as an undirected graph (ergonomic entry
    /// point; accepts `&UnGraph` or `&SymmetrizedGraph`).
    fn cluster<G: AsUnGraph>(&self, g: &G) -> Result<Clustering>
    where
        Self: Sized,
    {
        self.cluster_ungraph(g.as_ungraph())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symclust_core::{DegreeDiscounted, Symmetrizer};
    use symclust_graph::generators::{shared_link_dsbm, SharedLinkDsbmConfig};
    use symclust_sparse::CancelToken;

    fn lineup() -> Vec<Box<dyn ClusterAlgorithm>> {
        vec![
            Box::new(MlrMcl::default()),
            Box::new(MetisLike::with_k(4)),
            Box::new(GraclusLike::with_k(4)),
        ]
    }

    #[test]
    fn plain_and_observed_agree_and_every_clusterer_honours_a_tripped_token() {
        let directed = shared_link_dsbm(&SharedLinkDsbmConfig {
            n_nodes: 120,
            n_clusters: 4,
            seed: 24,
            ..Default::default()
        })
        .unwrap()
        .graph;
        let sym = DegreeDiscounted::with_threshold(0.05)
            .symmetrize(&directed)
            .unwrap();
        let g = sym.graph();
        let tripped = CancelToken::new();
        tripped.cancel();
        for algo in lineup() {
            let name = algo.name();
            let plain = algo.cluster_ungraph(g).unwrap();
            assert!(plain.n_clusters() > 1, "{name}");
            let registry = symclust_obs::MetricsRegistry::new();
            let observed = algo
                .cluster_observed(g, &CancelToken::new(), Some(&registry))
                .unwrap();
            assert_eq!(plain.assignments(), observed.assignments(), "{name}");
            assert_eq!(plain.converged(), observed.converged(), "{name}");
            let err = algo
                .cluster_observed(g, &tripped, Some(&registry))
                .unwrap_err();
            assert!(err.is_cancelled(), "{name}: got {err:?}");
        }
    }
}
