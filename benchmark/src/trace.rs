//! In-memory span recorder for the traced run.
//!
//! A span is recorded around every call the benchmark makes into a
//! layer — from the benchmark's own files, never from inside the
//! program. Spans stay in a `Vec` until the run ends, then go to
//! `<target-dir>/trace-<workload>.jsonl`. A span's name is
//! `<layer>.<what>`; its layer is the part before the first dot. A
//! layer's self time is its spans' durations minus the part their child
//! spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;

/// "No span": the parent of a root span, and what `begin` returns when
/// tracing is off.
pub const NO_SPAN: SpanId = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    /// Index of the op (or request) this span belongs to: the shared
    /// identifier of one op's spans.
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans when on; when off, `begin`/`end` are one branch each, so
/// the untraced loop runs the same code as the traced one.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, on: bool) -> Tracer {
        Tracer {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u32) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let start_ns = self.now_ns();
        self.record(name, parent, op, start_ns, start_ns)
    }

    pub fn end(&mut self, id: SpanId) {
        if id != NO_SPAN {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Records a span whose interval was timed elsewhere (a client
    /// thread's request, an engine event pair). Works when tracing is on
    /// only; returns the new span's id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The layer a span belongs to: its name up to the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time of every span, by position in `spans`: its duration minus
/// the part of its interval that its children cover (children may
/// overlap each other and may stick out of the parent; both are
/// handled by clipping and merging).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<SpanId, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (start, end) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Share of the traced ops' wall time spent in each layer's own code:
/// Σ self time of the layer's spans ÷ Σ duration of the root spans.
pub fn layer_shares(spans: &[Span]) -> BTreeMap<String, f64> {
    let total: u64 = spans
        .iter()
        .filter(|s| s.parent == NO_SPAN)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let mut by_layer: BTreeMap<String, f64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *by_layer.entry(layer_of(s.name).to_string()).or_default() += own as f64;
    }
    for v in by_layer.values_mut() {
        *v /= (total as f64).max(1.0);
    }
    by_layer
}

/// Durations, in ms, of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Median duration, in ms, of the spans called `name`; 0 when there are
/// none (the layer was not on this workload's path).
pub fn median_ms(spans: &[Span], name: &str) -> f64 {
    crate::stats::median_or_zero(&durations_ms(spans, name))
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.parent == NO_SPAN {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(0, NO_SPAN, "bench.op", 0, 100),
            // Two siblings with a gap between them.
            span(1, 0, "core.dd", 10, 40),
            span(2, 0, "core.bib", 50, 90),
            // Nested inside the first sibling.
            span(3, 1, "sparse.syrk", 15, 35),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 10, 40, 20]);
    }

    #[test]
    fn self_time_merges_overlapping_children_and_clips_to_parent() {
        let spans = vec![
            span(0, NO_SPAN, "engine.run", 100, 200),
            // Overlapping siblings (two engine workers): union is 110..160.
            span(1, 0, "cluster.stage", 110, 150),
            span(2, 0, "cluster.stage", 130, 160),
            // Sticks out of the parent: only 190..200 counts.
            span(3, 0, "eval.stage", 190, 250),
            // Contained in an earlier sibling: adds nothing.
            span(4, 0, "core.stage", 120, 125),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn layer_shares_sum_to_one_over_root_spans() {
        let spans = vec![
            span(0, NO_SPAN, "bench.op", 0, 100),
            span(1, 0, "graph.load", 0, 10),
            span(2, 0, "core.dd", 10, 100),
        ];
        let shares = layer_shares(&spans);
        assert_eq!(shares["graph"], 0.1);
        assert_eq!(shares["core"], 0.9);
        assert_eq!(shares["bench"], 0.0);
        assert!((shares.values().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let id = t.begin("core.dd", NO_SPAN, 0);
        t.end(id);
        assert_eq!(id, NO_SPAN);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn tracer_on_links_children_to_parents() {
        let mut t = Tracer::new(Instant::now(), true);
        let op = t.begin("bench.op", NO_SPAN, 3);
        let child = t.begin("core.dd", op, 3);
        t.end(child);
        t.end(op);
        let s = t.spans();
        assert_eq!((s[1].parent, s[1].op, s[1].name), (op, 3, "core.dd"));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
