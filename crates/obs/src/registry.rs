//! The global-free metrics registry.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::metric::{Counter, Gauge, Histogram};
use crate::snapshot::{GaugeValue, MetricsSnapshot, SpanSnapshot};
use crate::span::{Span, SpanStats};

struct Inner {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    spans: Mutex<BTreeMap<String, SpanStats>>,
}

/// A clonable handle to one run's metrics: counters, gauges, histograms,
/// and span aggregates, keyed by dot-separated names.
///
/// Cloning is cheap (`Arc`); all clones observe the same metrics. There
/// is deliberately no process-global registry — construct one per run and
/// thread it through, exactly like `CancelToken`. Instruments are
/// created on first use ([`MetricsRegistry::counter`] et al. are
/// get-or-create); hot paths should resolve a handle once and reuse it.
#[derive(Clone)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

/// Locks one of the registry's maps.
#[expect(
    clippy::unwrap_used,
    reason = "metrics registry mutexes (every unwrap in this file is a lock); poisoning is fatal by design"
)]
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap()
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("counters", &lock(&self.inner.counters).len())
            .field("gauges", &lock(&self.inner.gauges).len())
            .field("histograms", &lock(&self.inner.histograms).len())
            .field("spans", &lock(&self.inner.spans).len())
            .finish()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Arc::new(Inner {
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                spans: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Returns the counter named `name`, creating it at zero on first
    /// use. The returned handle can be held and incremented without
    /// touching the registry again.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = lock(&self.inner.counters);
        match map.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(Counter::default());
                map.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    /// Returns the gauge named `name`, creating it at zero on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = lock(&self.inner.gauges);
        match map.get(name) {
            Some(g) => Arc::clone(g),
            None => {
                let g = Arc::new(Gauge::default());
                map.insert(name.to_string(), Arc::clone(&g));
                g
            }
        }
    }

    /// Returns the histogram named `name`, creating it with `bounds`
    /// (inclusive upper bounds, strictly increasing) on first use. If the
    /// histogram already exists its original bounds are kept — callers
    /// are expected to agree on bounds per name.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut map = lock(&self.inner.histograms);
        match map.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::new(bounds));
                map.insert(name.to_string(), Arc::clone(&h));
                h
            }
        }
    }

    /// Opens an RAII timing span named `name`; its duration is recorded
    /// into the per-name [`SpanStats`] aggregate when the returned guard
    /// drops.
    pub fn span(&self, name: &str) -> Span {
        Span::new(self.clone(), name.to_string())
    }

    /// Records an already-measured duration under span `name` without the
    /// RAII guard (used when a duration is computed externally).
    pub fn observe_span_secs(&self, name: &str, secs: f64) {
        let mut spans = lock(&self.inner.spans);
        match spans.get_mut(name) {
            Some(stats) => stats.observe(secs),
            None => {
                spans.insert(name.to_string(), SpanStats::new(secs));
            }
        }
    }

    /// A point-in-time copy of every instrument, sorted by name. This is
    /// what the engine serializes into the `metrics_snapshot` event and
    /// what `--metrics-out` writes.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = lock(&self.inner.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = lock(&self.inner.gauges)
            .iter()
            .map(|(k, v)| GaugeValue {
                name: k.clone(),
                value: v.get(),
            })
            .collect();
        let histograms = lock(&self.inner.histograms)
            .iter()
            .map(|(k, v)| v.snapshot_with_name(k))
            .collect();
        let spans = lock(&self.inner.spans)
            .iter()
            .map(|(k, v)| SpanSnapshot {
                name: k.clone(),
                stats: v.clone(),
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            spans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_handles_share_state() {
        let m = MetricsRegistry::new();
        let a = m.counter("x");
        let b = m.counter("x");
        a.add(2);
        b.add(3);
        assert_eq!(m.counter("x").get(), 5);
    }

    #[test]
    fn clones_share_the_registry() {
        let m = MetricsRegistry::new();
        let m2 = m.clone();
        m2.counter("shared").inc();
        assert_eq!(m.snapshot().counter("shared"), Some(1));
    }

    #[test]
    fn concurrent_counter_increments_from_worker_pool() {
        let m = MetricsRegistry::new();
        let threads = 8;
        let per_thread = 10_000u64;
        thread::scope(|s| {
            for _ in 0..threads {
                let m = m.clone();
                s.spawn(move || {
                    let c = m.counter("spgemm.flops");
                    for _ in 0..per_thread {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(m.counter("spgemm.flops").get(), threads * per_thread);
    }

    #[test]
    fn concurrent_histogram_and_gauge_updates() {
        let m = MetricsRegistry::new();
        thread::scope(|s| {
            for t in 0..4 {
                let m = m.clone();
                s.spawn(move || {
                    let h = m.histogram("obs", &[10.0, 100.0]);
                    let g = m.gauge("hwm");
                    for i in 0..1000 {
                        h.record(i as f64);
                        g.record_max((t * 1000 + i) as f64);
                    }
                });
            }
        });
        let snap = m.snapshot();
        let h = &snap.histograms[0];
        assert_eq!(h.count, 4000);
        assert_eq!(h.buckets.iter().sum::<u64>(), 4000);
        assert_eq!(h.overflow(), 4 * 899); // 101..=999 per thread
        assert_eq!(snap.gauges[0].value, 3999.0);
    }

    #[test]
    fn span_guard_records_on_drop() {
        let m = MetricsRegistry::new();
        {
            let _s = m.span("stage.load");
        }
        {
            let _s = m.span("stage.load");
        }
        let snap = m.snapshot();
        let span = snap.span("stage.load").expect("span recorded");
        assert_eq!(span.count, 2);
        assert!(span.total_secs >= 0.0);
        assert!(span.min_secs <= span.max_secs);
    }

    #[test]
    fn observe_span_secs_feeds_aggregates() {
        let m = MetricsRegistry::new();
        m.observe_span_secs("sym.Bibliometric", 0.5);
        m.observe_span_secs("sym.Bibliometric", 1.5);
        let snap = m.snapshot();
        let s = snap.span("sym.Bibliometric").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_secs, 2.0);
        assert_eq!(s.min_secs, 0.5);
        assert_eq!(s.max_secs, 1.5);
        assert_eq!(s.mean_secs(), 1.0);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let m = MetricsRegistry::new();
        m.counter("b").inc();
        m.counter("a").inc();
        m.counter("c").inc();
        let snap = m.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn debug_shows_instrument_counts() {
        let m = MetricsRegistry::new();
        m.counter("a");
        let dbg = format!("{m:?}");
        assert!(dbg.contains("MetricsRegistry"), "{dbg}");
        assert!(dbg.contains("counters: 1"), "{dbg}");
    }
}
