//! The bench regression gate: turns a pipeline `--metrics-out` JSON into
//! the stable `BENCH_pipeline.json` schema and compares two such files.
//!
//! The schema (DESIGN.md §11) is a flat JSON object holding exactly the
//! metrics that are *deterministic* for a fixed input graph and spec —
//! SpGEMM work counters, prune edge flow, cache hit/miss counts, R-MCL
//! iteration totals — and nothing that depends on a clock. The gate fails
//! on any mismatch (an nnz change means the kernels changed behaviour,
//! not speed). Scheduling-dependent metrics (in-flight dedups, queue
//! depth, span timings) and elapsed time are deliberately excluded: they
//! vary run to run on a healthy build, and time is measured by
//! `benchmark/`, not here.

use std::collections::HashMap;
use symclust_engine::json::{parse_object, JsonObject, JsonValue};

/// Flat-metric keys copied verbatim (minus the `counter.` prefix) into
/// `BENCH_pipeline.json` and exact-matched by [`compare`]. Append-only:
/// removing or renaming an entry breaks every checked-in baseline.
pub const EXACT_KEYS: &[&str] = &[
    "counter.spgemm.calls",
    "counter.spgemm.rows",
    "counter.spgemm.flops",
    "counter.spgemm.nnz_intermediate",
    "counter.spgemm.nnz_final",
    "counter.spgemm.threshold_dropped",
    "counter.spgemm.degraded_fallbacks",
    "counter.prune.edges_in",
    "counter.prune.edges_out",
    "counter.engine.cache_hits",
    "counter.engine.cache_misses",
    "counter.mcl.runs",
    "counter.mcl.iterations",
    "counter.spgemm.syrk_calls",
    "counter.spgemm.syrk_mirrored_nnz",
    "counter.store.hits",
    "counter.store.misses",
    "counter.store.quarantined",
    "counter.store.stats_persist_errors",
    "gauge.store.degraded",
    "counter.spgemm.panels",
    "counter.spgemm.panel_spills",
    "counter.spgemm.spill_bytes",
    "counter.mcl.touched",
    "counter.mcl.inflated",
    "counter.mcl.kept",
];
// NOT gated: `counter.spgemm.sched_steals` — the work-stealing scheduler's
// steal count depends on thread count and machine load, so it is exactly
// the kind of scheduling-dependent metric the module docs exclude.
// The three panel counters ARE gated: the spill plan is a pure function of
// the input matrices, panel size and byte budget (DESIGN.md §17), never of
// thread count or scheduling, so their values are exact for a fixed config
// (all zero while the default in-memory path is in use).
// The three R-MCL work counters ARE gated: they are sums over rows of
// per-row counts, and a row's epilogue sees the same entries in the same
// order at any thread count, so they pin how much of the expansion the
// epilogue pays `powf` for (`mcl.inflated / mcl.touched`). That is what
// the pre-inflation cut leaves, or, on a row where the gap rule holds,
// the top `max_row_nnz` plus the rule's two test calls.
// The two store health metrics above ARE deterministic on a healthy run:
// both must be exactly zero unless the disk itself misbehaved, which is
// precisely what the gate should catch.

/// Extracts the BENCH schema from a parsed `--metrics-out` object:
/// every [`EXACT_KEYS`] entry present (prefix stripped).
pub fn emit_bench_json(metrics: &HashMap<String, JsonValue>) -> Result<String, String> {
    let mut obj = JsonObject::new();
    obj.string("bench", "pipeline");
    let mut found = 0;
    for key in EXACT_KEYS {
        if let Some(v) = metrics.get(*key).and_then(JsonValue::as_f64) {
            let stable = key.strip_prefix("counter.").unwrap_or(key);
            obj.number(stable, v);
            found += 1;
        }
    }
    if found == 0 {
        return Err("metrics JSON contains none of the gated counters — \
                    was it produced by `symclust pipeline --metrics-out`?"
            .into());
    }
    Ok(obj.finish())
}

/// Compares a current BENCH file against a baseline. Returns the list of
/// violations (empty = gate passes):
///
/// * every numeric key in the baseline must be present in the current
///   file with the *exact* same value;
/// * every numeric key in the current file must also exist in the
///   baseline. A key the current build emits that the baseline lacks
///   means [`EXACT_KEYS`] grew without the baseline being refreshed in
///   the same commit — reported by name so the fix is obvious, instead
///   of surfacing later as an opaque whole-file mismatch.
pub fn compare(
    baseline: &HashMap<String, JsonValue>,
    current: &HashMap<String, JsonValue>,
) -> Vec<String> {
    let mut violations = Vec::new();
    let mut keys: Vec<&String> = baseline.keys().collect();
    keys.sort();
    for key in keys {
        let Some(base) = baseline[key].as_f64() else {
            continue; // e.g. the "bench" tag string
        };
        let Some(cur) = current.get(key).and_then(JsonValue::as_f64) else {
            violations.push(format!("{key}: missing from current run (baseline {base})"));
            continue;
        };
        if cur != base {
            violations.push(format!("{key}: {cur} != baseline {base}"));
        }
    }
    let mut cur_keys: Vec<&String> = current.keys().collect();
    cur_keys.sort();
    for key in cur_keys {
        if current[key].as_f64().is_some() && !baseline.contains_key(key) {
            violations.push(format!(
                "{key}: present in current run but not in the baseline — \
                 a new gated counter needs bench_results/baseline.json \
                 refreshed in the same commit"
            ));
        }
    }
    violations
}

/// Reads and flat-parses a BENCH/metrics JSON file.
pub fn read_flat_json(path: &str) -> Result<HashMap<String, JsonValue>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_object(&text).map_err(|e| format!("parsing {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(pairs: &[(&str, f64)]) -> HashMap<String, JsonValue> {
        let mut obj = JsonObject::new();
        for (k, v) in pairs {
            obj.number(k, *v);
        }
        parse_object(&obj.finish()).unwrap()
    }

    fn sample_metrics() -> HashMap<String, JsonValue> {
        metrics(&[
            ("counter.spgemm.flops", 1234.0),
            ("counter.spgemm.nnz_final", 500.0),
            ("counter.engine.cache_misses", 4.0),
            ("counter.engine.inflight_dedups", 3.0), // excluded from BENCH
            ("gauge.engine.queue_depth_hwm", 7.0),   // excluded from BENCH
            ("span.stage.cluster.total_secs", 0.2),  // excluded from BENCH
        ])
    }

    #[test]
    fn emit_keeps_only_stable_keys() {
        let bench = emit_bench_json(&sample_metrics()).unwrap();
        let parsed = parse_object(&bench).unwrap();
        assert_eq!(parsed["bench"].as_str(), Some("pipeline"));
        assert_eq!(parsed["spgemm.flops"].as_f64(), Some(1234.0));
        assert_eq!(parsed["engine.cache_misses"].as_f64(), Some(4.0));
        assert!(!parsed.contains_key("engine.inflight_dedups"));
        assert!(!parsed.contains_key("gauge.engine.queue_depth_hwm"));
        assert!(!bench.contains("span."));
    }

    #[test]
    fn emit_rejects_non_metrics_input() {
        assert!(emit_bench_json(&metrics(&[("unrelated", 1.0)])).is_err());
    }

    #[test]
    fn identical_runs_pass() {
        let b = parse_object(&emit_bench_json(&sample_metrics()).unwrap()).unwrap();
        assert!(compare(&b, &b).is_empty());
    }

    #[test]
    fn nnz_mismatch_fails_exactly() {
        let base = parse_object(&emit_bench_json(&sample_metrics()).unwrap()).unwrap();
        let mut m = sample_metrics();
        m.insert("counter.spgemm.nnz_final".into(), JsonValue::Num(501.0));
        let cur = parse_object(&emit_bench_json(&m).unwrap()).unwrap();
        let violations = compare(&base, &cur);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("spgemm.nnz_final"), "{violations:?}");
    }

    #[test]
    fn missing_baseline_key_fails() {
        let base = parse_object(&emit_bench_json(&sample_metrics()).unwrap()).unwrap();
        let mut m = sample_metrics();
        m.remove("counter.engine.cache_misses");
        let cur = parse_object(&emit_bench_json(&m).unwrap()).unwrap();
        let violations = compare(&base, &cur);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("missing"), "{violations:?}");
    }

    #[test]
    fn extra_current_key_fails_by_name() {
        let mut small = sample_metrics();
        small.remove("counter.spgemm.nnz_final");
        let base = parse_object(&emit_bench_json(&small).unwrap()).unwrap();
        let cur = parse_object(&emit_bench_json(&sample_metrics()).unwrap()).unwrap();
        let violations = compare(&base, &cur);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("spgemm.nnz_final")
                && violations[0].contains("not in the baseline"),
            "drift must be reported by key name: {violations:?}"
        );
    }
}
