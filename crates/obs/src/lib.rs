//! Zero-dependency metrics and span tracing for the symclust pipeline.
//!
//! This crate is the observability substrate for the workspace: atomic
//! [`Counter`]s, [`Gauge`]s, fixed-bucket [`Histogram`]s, and RAII timing
//! [`Span`]s, all registered in a global-free [`MetricsRegistry`] that is
//! threaded through the engine the same way `CancelToken` already is —
//! cloned (cheaply, it is an `Arc`) into whatever needs to record, with
//! `Option<&MetricsRegistry>` at kernel boundaries so uninstrumented
//! callers pay nothing.
//!
//! Design rules:
//!
//! - **No globals.** A registry is constructed per run and owned by the
//!   caller; two concurrent runs never share counters by accident.
//! - **Cheap hot paths.** Kernels accumulate plain integers in locals and
//!   flush once per call; the atomics are touched O(1) times per kernel
//!   invocation, not per row or per nonzero.
//! - **Stable names.** Metric names are dot-separated lowercase
//!   (`spgemm.flops`, `engine.cache_hits`) and documented in DESIGN.md
//!   §11; the flattened snapshot keys (`counter.spgemm.flops`, …) are the
//!   stability contract consumed by `--metrics-out` and the
//!   golden-counts test.
//!
//! ```
//! use symclust_obs::MetricsRegistry;
//!
//! let metrics = MetricsRegistry::new();
//! metrics.counter("spgemm.flops").add(1024);
//! {
//!     let _span = metrics.span("stage.symmetrize");
//!     // ... timed work ...
//! }
//! let snap = metrics.snapshot();
//! assert_eq!(snap.counter("spgemm.flops"), Some(1024));
//! ```

#![warn(missing_docs)]

mod metric;
mod registry;
mod snapshot;
mod span;

pub use metric::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::MetricsRegistry;
pub use snapshot::{GaugeValue, MetricsSnapshot, SpanSnapshot};
pub use span::{Span, SpanStats};
