//! Point-in-time snapshot of a registry, plus its three renderings:
//! flat key/value pairs (the `--metrics-out` stability contract), flat
//! JSON, and a human-readable table.

use crate::metric::HistogramSnapshot;
use crate::span::SpanStats;

/// One gauge reading in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeValue {
    /// Registry name of the gauge.
    pub name: String,
    /// Value at snapshot time.
    pub value: f64,
}

/// One span aggregate in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSnapshot {
    /// Span name.
    pub name: String,
    /// Aggregated timing statistics.
    pub stats: SpanStats,
}

/// A point-in-time copy of every instrument in a
/// [`crate::MetricsRegistry`], sorted by name within each section.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<GaugeValue>,
    /// Histogram states, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Span aggregates, sorted by name.
    pub spans: Vec<SpanSnapshot>,
}

/// Formats a float the way our JSON writers do: integral values without a
/// trailing `.0`, non-finite values as `null`.
fn fmt_num(x: f64) -> String {
    if !x.is_finite() {
        "null".to_string()
    } else if x == x.trunc() && x.abs() < 9.007_199_254_740_992e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

impl MetricsSnapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a span aggregate by name.
    pub fn span(&self, name: &str) -> Option<&SpanStats> {
        self.spans.iter().find(|s| s.name == name).map(|s| &s.stats)
    }

    /// Flattens every instrument into stable dot-separated keys:
    ///
    /// - `counter.<name>` — counter value
    /// - `gauge.<name>` — gauge value
    /// - `span.<name>.count|total_secs|min_secs|max_secs` — span aggregate
    /// - `hist.<name>.count|sum|le_<bound>|overflow` — histogram state
    ///
    /// These keys are the stability contract for `--metrics-out` and the
    /// golden-counts test (DESIGN.md §11).
    pub fn to_flat(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for (name, v) in &self.counters {
            out.push((format!("counter.{name}"), *v as f64));
        }
        for g in &self.gauges {
            out.push((format!("gauge.{}", g.name), g.value));
        }
        for h in &self.histograms {
            out.push((format!("hist.{}.count", h.name), h.count as f64));
            out.push((format!("hist.{}.sum", h.name), h.sum));
            for (bound, n) in h.bounds.iter().zip(&h.buckets) {
                out.push((format!("hist.{}.le_{}", h.name, fmt_num(*bound)), *n as f64));
            }
            out.push((format!("hist.{}.overflow", h.name), h.overflow() as f64));
        }
        for s in &self.spans {
            out.push((format!("span.{}.count", s.name), s.stats.count as f64));
            out.push((format!("span.{}.total_secs", s.name), s.stats.total_secs));
            out.push((format!("span.{}.min_secs", s.name), s.stats.min_secs));
            out.push((format!("span.{}.max_secs", s.name), s.stats.max_secs));
        }
        out
    }

    /// Serializes [`MetricsSnapshot::to_flat`] as one flat JSON object —
    /// the `--metrics-out` file format, readable by the workspace's flat
    /// JSON parser.
    pub fn to_json(&self) -> String {
        let mut buf = String::from("{");
        for (i, (k, v)) in self.to_flat().iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            // Keys are machine-generated metric names: no characters that
            // need escaping beyond what fmt_num already guarantees.
            buf.push('"');
            buf.push_str(k);
            buf.push_str("\":");
            buf.push_str(&fmt_num(*v));
        }
        buf.push('}');
        buf
    }

    /// Renders a human-readable table for `symclust pipeline --metrics`.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .to_flat()
            .iter()
            .map(|(k, _)| k.len())
            .max()
            .unwrap_or(20)
            .max(20);
        if !self.counters.is_empty() {
            out.push_str("counters\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<width$}  {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges\n");
            for g in &self.gauges {
                out.push_str(&format!("  {:<width$}  {}\n", g.name, fmt_num(g.value)));
            }
        }
        if !self.spans.is_empty() {
            out.push_str(&format!(
                "spans{:<w$}  {:>6}  {:>10}  {:>10}  {:>10}\n",
                "",
                "count",
                "total(s)",
                "mean(s)",
                "max(s)",
                w = width - 3
            ));
            for s in &self.spans {
                out.push_str(&format!(
                    "  {:<width$}  {:>6}  {:>10.4}  {:>10.4}  {:>10.4}\n",
                    s.name,
                    s.stats.count,
                    s.stats.total_secs,
                    s.stats.mean_secs(),
                    s.stats.max_secs
                ));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms\n");
            for h in &self.histograms {
                out.push_str(&format!(
                    "  {:<width$}  count={} sum={}\n",
                    h.name,
                    h.count,
                    fmt_num(h.sum)
                ));
                for (bound, n) in h.bounds.iter().zip(&h.buckets) {
                    out.push_str(&format!(
                        "  {:<width$}  le {:>10}: {}\n",
                        "",
                        fmt_num(*bound),
                        n
                    ));
                }
                out.push_str(&format!(
                    "  {:<width$}  le {:>10}: {}\n",
                    "",
                    "+inf",
                    h.overflow()
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    fn sample() -> MetricsSnapshot {
        let m = MetricsRegistry::new();
        m.counter("spgemm.flops").add(1234);
        m.counter("engine.cache_hits").add(4);
        m.gauge("prune.survival_ratio").set(0.25);
        m.histogram("stage_secs", &[0.1, 1.0]).record(0.05);
        m.observe_span_secs("stage.cluster", 0.5);
        m.snapshot()
    }

    #[test]
    fn flat_keys_are_stable_and_prefixed() {
        let keys: Vec<String> = sample().to_flat().into_iter().map(|(k, _)| k).collect();
        assert!(
            keys.contains(&"counter.spgemm.flops".to_string()),
            "{keys:?}"
        );
        assert!(keys.contains(&"gauge.prune.survival_ratio".to_string()));
        assert!(keys.contains(&"hist.stage_secs.le_0.1".to_string()));
        assert!(keys.contains(&"hist.stage_secs.overflow".to_string()));
        assert!(keys.contains(&"span.stage.cluster.total_secs".to_string()));
    }

    #[test]
    fn json_is_flat_and_parseable_shape() {
        let j = sample().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"counter.spgemm.flops\":1234"), "{j}");
        assert!(j.contains("\"gauge.prune.survival_ratio\":0.25"), "{j}");
        // Flat: no nested objects.
        assert_eq!(j.matches('{').count(), 1, "{j}");
    }

    #[test]
    fn lookup_helpers_find_values() {
        let s = sample();
        assert_eq!(s.counter("spgemm.flops"), Some(1234));
        assert_eq!(s.counter("missing"), None);
        assert_eq!(s.gauge("prune.survival_ratio"), Some(0.25));
        assert_eq!(s.span("stage.cluster").unwrap().count, 1);
    }

    #[test]
    fn table_renders_all_sections() {
        let t = sample().render_table();
        assert!(t.contains("counters"), "{t}");
        assert!(t.contains("spgemm.flops"), "{t}");
        assert!(t.contains("gauges"), "{t}");
        assert!(t.contains("spans"), "{t}");
        assert!(t.contains("stage.cluster"), "{t}");
        assert!(t.contains("histograms"), "{t}");
        assert!(t.contains("+inf"), "{t}");
    }

    #[test]
    fn a_caller_built_histogram_with_no_buckets_flattens() {
        let s = MetricsSnapshot {
            histograms: vec![HistogramSnapshot {
                name: "h".into(),
                bounds: Vec::new(),
                buckets: Vec::new(),
                count: 0,
                sum: 0.0,
            }],
            ..MetricsSnapshot::default()
        };
        let flat = s.to_flat();
        assert!(
            flat.contains(&("hist.h.overflow".to_string(), 0.0)),
            "{flat:?}"
        );
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        let s = MetricsSnapshot::default();
        assert_eq!(s.render_table(), "");
        assert_eq!(s.to_json(), "{}");
    }
}
