#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! symclust-engine: a concurrent pipeline engine for the symmetrize →
//! cluster → evaluate workflow.
//!
//! The engine models an experiment sweep as an explicit DAG of typed
//! stages (load → symmetrize → \[prune →\] cluster → evaluate) executed
//! by a worker pool over bounded channels, with:
//!
//! * a content-addressed in-memory artifact cache
//!   ([`cache::ArtifactCache`], keyed by [`fingerprint`]), so the four
//!   symmetrizations of a sweep are computed exactly once no matter how
//!   many clusterers or parameter settings consume them;
//! * cooperative cancellation and per-stage deadlines
//!   ([`symclust_sparse::CancelToken`]), checked at stage boundaries and
//!   inside the long-running kernels (SpGEMM, R-MCL);
//! * a structured event stream ([`event::Event`]: stage started/finished,
//!   cache hits, progress, cancellations) that the CLI renders live and
//!   the bench harness serializes to JSONL.
//!
//! Entry point: build an [`Engine`], describe the sweep with a
//! [`PipelineSpec`], and call [`Engine::run`]:
//!
//! ```
//! use symclust_engine::{Clusterer, Engine, PipelineInput, PipelineSpec, SymMethod};
//! use symclust_graph::generators::{shared_link_dsbm, SharedLinkDsbmConfig};
//!
//! let g = shared_link_dsbm(&SharedLinkDsbmConfig {
//!     n_nodes: 300, n_clusters: 6, seed: 1, ..Default::default()
//! }).unwrap();
//! let input = PipelineInput::new("demo", g.graph, Some(g.truth));
//! let spec = PipelineSpec {
//!     methods: SymMethod::lineup(0.0, 0.0),
//!     clusterers: vec![Clusterer::Metis { k: 6 }],
//!     extra_prune: None,
//! };
//! let engine = Engine::default();
//! let result = engine.run(&input, &spec, &|_event| {});
//! assert_eq!(result.records.len(), 4);           // one record per method
//! assert_eq!(engine.cache_stats().misses, 4);    // each symmetrization computed once
//! ```

pub mod cache;
pub mod event;
pub mod exec;
pub mod faultplan;
#[cfg(feature = "fault-injection")]
pub mod faultpoint;
pub mod fingerprint;
pub mod journal;
pub mod json;
pub mod plan;
pub mod report;
pub mod spec;

pub use cache::{ArtifactCache, CacheStats};
pub use event::{Event, StageKind};
pub use exec::{Engine, EngineOptions, PipelineInput, RetryPolicy, SweepResult};
pub use journal::RunJournal;
pub use plan::{PipelineSpec, Plan, StageNode};
pub use report::{measure, print_records, save_records, RunRecord};
pub use spec::{select_thresholds, Clusterer, SymMethod};
