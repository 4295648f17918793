#![warn(missing_docs)]

//! Sparse linear-algebra substrate for the `symclust` workspace.
//!
//! This crate provides everything the symmetrization framework of
//! *"Symmetrizations for Clustering Directed Graphs"* (EDBT 2011) needs from
//! a linear-algebra library, built from scratch:
//!
//! * [`CsrMatrix`] — compressed sparse row matrices with checked invariants,
//! * [`CooMatrix`] — a triplet builder that deduplicates on conversion,
//! * Gustavson-style sparse matrix–matrix multiplication with **two entry
//!   points** over one kernel core: [`spgemm()`] (`C = A·B`) and
//!   [`spgemm_syrk_sum`] (`C = Σₜ Xₜ·Xₜᵀ`, upper-triangle-only with an
//!   O(nnz) mirror pass — the hot path of the Bibliometric and
//!   Degree-discounted symmetrizations). Both take [`SpgemmOptions`] — what
//!   to compute (the on-the-fly prune threshold, the diagonal filter, the
//!   optional nnz budget) and one [`Tuning`] saying how to run it: the
//!   thread count (which alone selects between one thread and the
//!   work-stealing pool) and the out-of-core [`PanelPlan`] — plus an
//!   optional [`CancelToken`] and metrics registry, and return the product
//!   with its degradation provenance ([`SpgemmOutput`]). [`Tuning::from_env`] is the one reader of the
//!   `SYMCLUST_*` variables and the default of every `tuning` field.
//!   [`spgemm_flops`] is the cost estimate both compare the budget with,
//!   and [`spgemm::run_rows_with_epilogue`] is the row runner with a
//!   caller-supplied per-row epilogue (R-MCL's expand step),
//! * diagonal scaling, transposition, element-wise combination and pruning,
//! * [`pagerank`] — power iteration for the stationary distribution of a
//!   random walk with teleportation (used by the Random-walk symmetrization
//!   and by BestWCut),
//! * [`lanczos`] — a symmetric Lanczos eigensolver with full
//!   reorthogonalization plus an implicit-QL tridiagonal eigensolver (used by
//!   the BestWCut baseline).
//!
//! The matrix types use `u32` column indices and `f64` values; graphs of up
//! to ~4 billion vertices are representable, far beyond what the in-memory
//! algorithms here will be asked to handle.

pub mod accum;
pub mod cancel;
pub mod coo;
pub mod csr;
mod dense;
pub mod error;
pub mod lanczos;
pub mod ops;
pub mod pagerank;
pub mod panel;
mod sched;
pub mod spgemm;
mod spill;
pub mod syrk;
mod tuning;

pub use cancel::CancelToken;
pub use coo::CooMatrix;
pub use csr::{validate_parts, CsrMatrix};
pub use error::SparseError;
pub use lanczos::{lanczos_smallest, lanczos_smallest_cancellable, LanczosOptions, LanczosResult};
pub use pagerank::{pagerank, pagerank_cancellable, PageRankOptions, PageRankResult};
pub use panel::{PanelPlan, DEFAULT_PANEL_ROWS};
pub use spgemm::{spgemm, spgemm_flops, SpgemmOptions, SpgemmOutput};
pub use syrk::{spgemm_syrk_sum, SyrkTerm};
pub use tuning::Tuning;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, SparseError>;
