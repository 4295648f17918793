//! RAII timing spans and their per-name aggregates.

use std::time::Instant;

use crate::registry::MetricsRegistry;

/// Aggregated statistics for all closed spans sharing one name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    /// Number of closed spans.
    pub count: u64,
    /// Total wall-clock seconds across all spans.
    pub total_secs: f64,
    /// Shortest span, in seconds.
    pub min_secs: f64,
    /// Longest span, in seconds.
    pub max_secs: f64,
}

impl SpanStats {
    pub(crate) fn observe(&mut self, secs: f64) {
        self.count += 1;
        self.total_secs += secs;
        self.min_secs = self.min_secs.min(secs);
        self.max_secs = self.max_secs.max(secs);
    }

    pub(crate) fn new(secs: f64) -> Self {
        SpanStats {
            count: 1,
            total_secs: secs,
            min_secs: secs,
            max_secs: secs,
        }
    }

    /// Mean span duration in seconds (0 when no spans closed).
    pub fn mean_secs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_secs / self.count as f64
        }
    }
}

/// An open timing span; records its wall-clock duration into the registry
/// when dropped.
///
/// Created via [`MetricsRegistry::span`]. Holding one across a unit of
/// work is the whole API:
///
/// ```
/// let metrics = symclust_obs::MetricsRegistry::new();
/// {
///     let _span = metrics.span("stage.cluster");
///     // ... timed work ...
/// } // duration recorded here
/// assert_eq!(metrics.snapshot().spans[0].stats.count, 1);
/// ```
#[derive(Debug)]
pub struct Span {
    registry: MetricsRegistry,
    name: String,
    start: Instant,
}

impl Span {
    pub(crate) fn new(registry: MetricsRegistry, name: String) -> Self {
        Span {
            registry,
            name,
            start: Instant::now(),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let secs = self.start.elapsed().as_secs_f64();
        self.registry.observe_span_secs(&self.name, secs);
    }
}
