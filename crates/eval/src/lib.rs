#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! # symclust-eval — clustering evaluation
//!
//! Implements the paper's evaluation methodology:
//!
//! * [`avg_f_score`] — the micro-averaged best-match F-measure against
//!   (possibly overlapping, possibly partial) ground-truth categories
//!   (§4.3),
//! * [`normalized_cut`] / [`directed_normalized_cut`] — the undirected NCut
//!   (Eq. 1) and the random-walk directed NCut (Eq. 3) of a clustering,
//! * [`sign_test`] — the paired binomial sign test used to establish
//!   statistical significance (§5.6), with log-domain p-values so results
//!   like `1e-22767` are representable,
//! * [`adjusted_rand_index`] — a standard partition-agreement score used by
//!   the integration tests to verify planted-cluster recovery.

pub mod cluster_stats;
pub mod fscore;
pub mod ncut;
pub mod rand_index;
pub mod signtest;

pub use cluster_stats::modularity;
pub use fscore::{avg_f_score, correctly_clustered, FScoreReport};
pub use ncut::{directed_normalized_cut, normalized_cut};
pub use rand_index::adjusted_rand_index;
pub use signtest::{sign_test, SignTestResult};
