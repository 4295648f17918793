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
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod metric;
mod registry;
mod snapshot;
mod span;

pub use metric::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::MetricsRegistry;
pub use snapshot::{GaugeValue, MetricsSnapshot, SpanSnapshot};
pub use span::{Span, SpanStats};

/// Declares a `metric_names` module: its metric-name constants plus an
/// `ALL` slice listing every one of them, in declaration order. The slice
/// is what lets a test compare a crate's whole name set with DESIGN.md
/// §11, and since the macro writes the whole module, no constant can be
/// declared in it and left out of the slice.
///
/// ```
/// symclust_obs::metric_names! {
///     /// Names the kernel records.
///     pub mod metric_names {
///         /// Kernel invocations.
///         pub const CALLS: &str = "spgemm.calls";
///         /// Output rows produced.
///         pub const ROWS: &str = "spgemm.rows";
///     }
/// }
/// assert_eq!(metric_names::ALL, ["spgemm.calls", "spgemm.rows"]);
/// ```
#[macro_export]
macro_rules! metric_names {
    (
        $(#[$module_attr:meta])*
        $vis:vis mod $module:ident {
            $($(#[$attr:meta])* pub const $name:ident: &str = $value:literal;)*
        }
    ) => {
        $(#[$module_attr])*
        $vis mod $module {
            $($(#[$attr])* pub const $name: &str = $value;)*
            /// Every name declared in this module, in declaration order.
            pub const ALL: &[&str] = &[$($name),*];
        }
    };
}
