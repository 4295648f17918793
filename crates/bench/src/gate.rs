//! The bench regression gate: turns a pipeline `--metrics-out` JSON into
//! the stable `BENCH_pipeline.json` schema and compares two such files.
//!
//! The schema (DESIGN.md §11) is a flat JSON object holding exactly the
//! metrics that are *deterministic* for a fixed input graph and spec —
//! SpGEMM work counters, prune edge flow, cache hit/miss counts, R-MCL
//! iteration totals — plus `wall_secs`, the only timing-dependent value.
//! The gate fails on any mismatch of a deterministic counter (an nnz
//! change means the kernels changed behaviour, not speed) and on a
//! wall-clock regression beyond a relative tolerance. Scheduling-dependent
//! metrics (in-flight dedups, queue depth, span timings) are deliberately
//! excluded: they vary run to run on a healthy build.

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
    "counter.spgemm.rows_dense",
    "counter.spgemm.rows_sparse",
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
// per-row entry counts, and a row's epilogue sees the same entries in the
// same order at any thread count, so they pin how much of the expansion
// the epilogue's pre-inflation cut skips (`mcl.inflated / mcl.touched`).
// The two store health metrics above ARE deterministic on a healthy run:
// both must be exactly zero unless the disk itself misbehaved, which is
// precisely what the gate should catch.

/// Wall-clock slack floor in seconds: below this, a "25% regression" is
/// scheduler noise, not a finding. The gate allows
/// `baseline · (1 + tolerance)` or `baseline + WALL_SLACK_FLOOR_SECS`,
/// whichever is larger.
pub const WALL_SLACK_FLOOR_SECS: f64 = 0.5;

/// Extracts the BENCH schema from a parsed `--metrics-out` object:
/// every [`EXACT_KEYS`] entry present (prefix stripped) plus `wall_secs`.
pub fn emit_bench_json(metrics: &HashMap<String, JsonValue>) -> Result<String, String> {
    let mut obj = JsonObject::new();
    obj.string("bench", "pipeline");
    let wall = metrics
        .get("wall_secs")
        .and_then(JsonValue::as_f64)
        .ok_or("metrics JSON has no numeric wall_secs key")?;
    obj.number("wall_secs", wall);
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
/// * every non-`wall_secs` numeric key in the baseline must be present in
///   the current file with the *exact* same value;
/// * `wall_secs` may grow to `baseline · (1 + wall_tolerance)` or
///   `baseline + `[`WALL_SLACK_FLOOR_SECS`], whichever is larger;
/// * every numeric key in the current file must also exist in the
///   baseline. A key the current build emits that the baseline lacks
///   means [`EXACT_KEYS`] grew without the baseline being refreshed in
///   the same commit — reported by name so the fix is obvious, instead
///   of surfacing later as an opaque whole-file mismatch.
pub fn compare(
    baseline: &HashMap<String, JsonValue>,
    current: &HashMap<String, JsonValue>,
    wall_tolerance: f64,
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
        if key == "wall_secs" {
            let allowed = (base * (1.0 + wall_tolerance)).max(base + WALL_SLACK_FLOOR_SECS);
            if cur > allowed {
                violations.push(format!(
                    "wall_secs: {cur:.3}s exceeds allowed {allowed:.3}s \
                     (baseline {base:.3}s, tolerance {:.0}%)",
                    wall_tolerance * 100.0
                ));
            }
        } else if cur != base {
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
            ("wall_secs", 2.0),
        ])
    }

    #[test]
    fn emit_keeps_only_stable_keys() {
        let bench = emit_bench_json(&sample_metrics()).unwrap();
        let parsed = parse_object(&bench).unwrap();
        assert_eq!(parsed["bench"].as_str(), Some("pipeline"));
        assert_eq!(parsed["spgemm.flops"].as_f64(), Some(1234.0));
        assert_eq!(parsed["engine.cache_misses"].as_f64(), Some(4.0));
        assert_eq!(parsed["wall_secs"].as_f64(), Some(2.0));
        assert!(!parsed.contains_key("engine.inflight_dedups"));
        assert!(!parsed.contains_key("gauge.engine.queue_depth_hwm"));
        assert!(!bench.contains("span."));
    }

    #[test]
    fn emit_rejects_non_metrics_input() {
        assert!(emit_bench_json(&metrics(&[("unrelated", 1.0)])).is_err());
        // wall_secs alone is not enough: no gated counter present.
        assert!(emit_bench_json(&metrics(&[("wall_secs", 1.0)])).is_err());
    }

    #[test]
    fn identical_runs_pass() {
        let b = parse_object(&emit_bench_json(&sample_metrics()).unwrap()).unwrap();
        assert!(compare(&b, &b, 0.25).is_empty());
    }

    #[test]
    fn nnz_mismatch_fails_exactly() {
        let base = parse_object(&emit_bench_json(&sample_metrics()).unwrap()).unwrap();
        let mut m = sample_metrics();
        m.insert("counter.spgemm.nnz_final".into(), JsonValue::Num(501.0));
        let cur = parse_object(&emit_bench_json(&m).unwrap()).unwrap();
        let violations = compare(&base, &cur, 0.25);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("spgemm.nnz_final"), "{violations:?}");
    }

    #[test]
    fn wall_time_honours_tolerance_and_slack_floor() {
        let base = parse_object(&emit_bench_json(&sample_metrics()).unwrap()).unwrap();
        // 2.0s baseline, 25% tolerance → 2.5s allowed; floor is lower here.
        let mut m = sample_metrics();
        m.insert("wall_secs".into(), JsonValue::Num(2.49));
        let cur = parse_object(&emit_bench_json(&m).unwrap()).unwrap();
        assert!(compare(&base, &cur, 0.25).is_empty());
        m.insert("wall_secs".into(), JsonValue::Num(2.51));
        let cur = parse_object(&emit_bench_json(&m).unwrap()).unwrap();
        assert_eq!(compare(&base, &cur, 0.25).len(), 1);
        // Tiny baselines get the absolute slack floor instead: a 0.01s run
        // may take up to 0.51s before the gate complains.
        let mut tiny = sample_metrics();
        tiny.insert("wall_secs".into(), JsonValue::Num(0.01));
        let tiny_base = parse_object(&emit_bench_json(&tiny).unwrap()).unwrap();
        tiny.insert("wall_secs".into(), JsonValue::Num(0.4));
        let tiny_cur = parse_object(&emit_bench_json(&tiny).unwrap()).unwrap();
        assert!(compare(&tiny_base, &tiny_cur, 0.25).is_empty());
    }

    #[test]
    fn missing_baseline_key_fails() {
        let base = parse_object(&emit_bench_json(&sample_metrics()).unwrap()).unwrap();
        let mut m = sample_metrics();
        m.remove("counter.engine.cache_misses");
        let cur = parse_object(&emit_bench_json(&m).unwrap()).unwrap();
        let violations = compare(&base, &cur, 0.25);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("missing"), "{violations:?}");
    }

    #[test]
    fn extra_current_key_fails_by_name() {
        let mut small = sample_metrics();
        small.remove("counter.spgemm.nnz_final");
        let base = parse_object(&emit_bench_json(&small).unwrap()).unwrap();
        let cur = parse_object(&emit_bench_json(&sample_metrics()).unwrap()).unwrap();
        let violations = compare(&base, &cur, 0.25);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("spgemm.nnz_final")
                && violations[0].contains("not in the baseline"),
            "drift must be reported by key name: {violations:?}"
        );
    }
}
