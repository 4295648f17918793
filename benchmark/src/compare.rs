//! Reading result lines back: `validate` holds a run's output to
//! `BENCHMARK.json` (the `--smoke` gate), `compare` is the A/A report
//! behind `aa.sh`. Both apply the driver's own rules, so a benchmark that
//! passes here is one the driver accepts.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::json::{self, Value};
use crate::names::PER_LAYER;
use crate::stats::quartiles;

/// The last non-empty line of a run's output, parsed: the result line.
fn result_line(text: &str) -> Result<Value, String> {
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("no output")?;
    json::parse(line).map_err(|e| format!("last line is not JSON: {e}"))
}

/// One run's metrics: `name -> (value, unit)`.
type Metrics = BTreeMap<String, (f64, String)>;

fn metric_values(result: &Value) -> Result<Metrics, String> {
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result has no metrics object")?;
    metrics
        .iter()
        .map(|(name, m)| {
            let keys: Vec<&str> = m
                .as_object()
                .map(|o| o.keys().map(String::as_str).collect())
                .unwrap_or_default();
            if keys != ["unit", "value"] {
                return Err(format!(
                    "metric {name} has keys {keys:?}, not value and unit"
                ));
            }
            let value = m.get("value").and_then(Value::as_f64);
            let value = value.ok_or(format!("metric {name} has no numeric value"))?;
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            Ok((name.clone(), (value, unit)))
        })
        .collect()
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn schema_units(schema: &Value, list: &str) -> Result<BTreeMap<String, String>, String> {
    schema
        .get(list)
        .and_then(Value::as_array)
        .ok_or(format!("BENCHMARK.json has no {list}"))?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
            Ok((
                field("name").ok_or(format!("{list} entry without name"))?,
                field("unit").ok_or(format!("{list} entry without unit"))?,
            ))
        })
        .collect()
}

/// Holds one run's output to the contract: exactly the four result keys,
/// whole-number counts with `attempted ≥ 1`, no failed op, and exactly
/// the `end_to_end` (untraced) or `per_layer` (traced) metrics of
/// `BENCHMARK.json`, each a finite number with the schema's unit.
pub fn validate_output(text: &str, schema: &Value) -> Result<(), String> {
    let result = result_line(text)?;
    let keys: Vec<&str> = result
        .as_object()
        .ok_or("result line is not an object")?
        .keys()
        .map(String::as_str)
        .collect();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    let whole = |k: &str| {
        result
            .get(k)
            .and_then(Value::as_f64)
            .filter(|x| *x >= 0.0 && x.fract() == 0.0)
            .ok_or(format!("{k} is not a whole number"))
    };
    let (attempted, failed) = (whole("attempted")?, whole("failed")?);
    let correct = result.get("correct").and_then(Value::as_bool);
    if attempted < 1.0 || failed != 0.0 || correct != Some(true) {
        return Err(format!(
            "attempted {attempted}, failed {failed}, correct {correct:?}"
        ));
    }
    let got = metric_values(&result)?;
    let (end_to_end, per_layer) = (
        schema_units(schema, "end_to_end")?,
        schema_units(schema, "per_layer")?,
    );
    let names: BTreeSet<&String> = got.keys().collect();
    let want = [&end_to_end, &per_layer]
        .into_iter()
        .find(|list| list.keys().collect::<BTreeSet<_>>() == names)
        .ok_or("metric names are neither the end_to_end nor the per_layer set")?;
    for (name, (value, unit)) in &got {
        if !value.is_finite() {
            return Err(format!("{name} is not finite"));
        }
        if *unit != want[name] {
            return Err(format!(
                "{name} has unit {unit}, BENCHMARK.json says {}",
                want[name]
            ));
        }
    }
    if std::ptr::eq(want, &end_to_end) {
        if let Some((name, _)) = got.iter().find(|(_, (value, _))| *value <= 0.0) {
            return Err(format!("end-to-end metric {name} is not positive"));
        }
    }
    Ok(())
}

/// `validate <BENCHMARK.json> <output file>...`
pub fn validate(args: &[String]) -> Result<(), String> {
    let (schema_path, files) = args
        .split_first()
        .ok_or("validate: BENCHMARK.json path missing")?;
    let schema = std::fs::read_to_string(schema_path).map_err(|e| format!("{schema_path}: {e}"))?;
    let schema = json::parse(&schema).map_err(|e| format!("{schema_path}: {e}"))?;
    if files.is_empty() {
        return Err("validate: no output files".to_string());
    }
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        validate_output(&text, &schema).map_err(|e| format!("{file}: {e}"))?;
        println!("{file}: ok");
    }
    Ok(())
}

/// `(median, spread)`: spread is the distance between the first and the
/// third quartile as a share of the median, the driver's measure.
fn median_and_spread(values: &[f64]) -> (f64, f64, f64, f64) {
    let (q1, med, q3) = quartiles(values);
    (q1, med, q3, (q3 - q1) / med)
}

/// The A/A report over a directory written by `aa.sh`:
/// `<set>.<workload>.<i>.json` for the untraced sets `A` and `B`, and
/// `T<j>.<workload>.json` for traced repeats on one seed. Prints one row
/// per (workload, end-to-end metric) and fails when a spread or the
/// difference between the sets' medians exceeds the metric's bound, when
/// any run failed a check, or when a `#` count differs between traced
/// repeats.
pub fn compare(args: &[String]) -> Result<(), String> {
    let [schema_path, dir] = args else {
        return Err("compare: usage: compare <BENCHMARK.json> <dir>".to_string());
    };
    let schema = std::fs::read_to_string(schema_path).map_err(|e| format!("{schema_path}: {e}"))?;
    let schema = json::parse(&schema).map_err(|e| format!("{schema_path}: {e}"))?;
    let mut untraced: BTreeMap<(String, String), Vec<Metrics>> = BTreeMap::new();
    let mut traced: BTreeMap<String, Vec<Metrics>> = BTreeMap::new();
    let mut breaches: Vec<String> = Vec::new();
    let mut names: Vec<String> = std::fs::read_dir(Path::new(dir))
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|e| Some(e.ok()?.file_name().to_string_lossy().into_owned()))
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    for name in names {
        let text = std::fs::read_to_string(Path::new(dir).join(&name))
            .map_err(|e| format!("{name}: {e}"))?;
        if let Err(e) = validate_output(&text, &schema) {
            breaches.push(format!("{name}: {e}"));
            continue;
        }
        let values = metric_values(&result_line(&text)?)?;
        let mut parts = name.split('.');
        let (set, workload) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
        if set.starts_with('T') {
            traced.entry(workload.to_string()).or_default().push(values);
        } else {
            untraced
                .entry((workload.to_string(), set.to_string()))
                .or_default()
                .push(values);
        }
    }

    println!(
        "{:<13} {:<14} {:>11} {:>11} {:>11} {:>7} | {:>11} {:>11} {:>11} {:>7} | {:>8} {:>6}  verdict",
        "workload", "metric", "A q1", "A median", "A q3", "A sprd", "B q1", "B median", "B q3", "B sprd", "B vs A", "bound"
    );
    let end_to_end = schema
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("no end_to_end")?;
    let workloads: BTreeSet<&String> = untraced.keys().map(|(w, _)| w).collect();
    for workload in workloads {
        let set = |s: &str| untraced.get(&(workload.clone(), s.to_string()));
        let (Some(a), Some(b)) = (set("A"), set("B")) else {
            breaches.push(format!("{workload}: set A or B is missing"));
            continue;
        };
        if a.len() < 2 || b.len() < 2 {
            breaches.push(format!("{workload}: a set has fewer than two runs"));
            continue;
        }
        for m in end_to_end {
            let name = m.get("name").and_then(Value::as_str).unwrap_or("");
            let lower = m.get("better").and_then(Value::as_str) == Some("lower");
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let column =
                |runs: &[Metrics]| -> Vec<f64> { runs.iter().map(|r| r[name].0).collect() };
            let (a_q1, a_med, a_q3, a_spread) = median_and_spread(&column(a));
            let (b_q1, b_med, b_q3, b_spread) = median_and_spread(&column(b));
            // How much worse the second set's median is than the first's.
            let worse = if lower {
                (b_med - a_med) / a_med
            } else {
                (a_med - b_med) / a_med
            };
            let spread_matters = name != "setup_s";
            let ok =
                worse <= bound && (!spread_matters || (a_spread <= bound && b_spread <= bound));
            println!(
                "{workload:<13} {name:<14} {a_q1:>11.4} {a_med:>11.4} {a_q3:>11.4} {:>6.1}% | {b_q1:>11.4} {b_med:>11.4} {b_q3:>11.4} {:>6.1}% | {:>+7.1}% {:>5.0}%  {}",
                a_spread * 100.0,
                b_spread * 100.0,
                worse * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "BREACH" }
            );
            if !ok {
                breaches.push(format!("{workload} {name}: spreads {a_spread:.3}/{b_spread:.3}, B worse by {worse:.3}, bound {bound}"));
            }
        }
    }

    for (workload, runs) in &traced {
        let mut differing = Vec::new();
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let first = runs[0][m.name].0;
            if runs
                .iter()
                .any(|r| r[m.name].0.to_bits() != first.to_bits())
            {
                differing.push(m.name);
            }
        }
        let exact = PER_LAYER.iter().filter(|m| m.exact).count();
        if differing.is_empty() {
            println!(
                "{workload}: {exact} exact counts identical in {} traced runs",
                runs.len()
            );
        } else {
            println!("{workload}: exact counts differ: {differing:?}");
            breaches.push(format!(
                "{workload}: exact counts differ between traced runs: {differing:?}"
            ));
        }
    }

    if breaches.is_empty() {
        println!("A/A check passed");
        Ok(())
    } else {
        Err(format!("A/A check failed:\n  {}", breaches.join("\n  ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::{schema, END_TO_END};

    fn output(metrics: &[(&str, f64, &str)], failed: usize) -> String {
        let fields: Vec<String> = metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"info\": true}}\n{{\"correct\": {}, \"attempted\": 9, \"failed\": {failed}, \"metrics\": {{{}}}}}\n",
            failed == 0,
            fields.join(", ")
        )
    }

    fn end_to_end_metrics() -> Vec<(&'static str, f64, &'static str)> {
        END_TO_END.iter().map(|m| (m.name, 1.5, m.unit)).collect()
    }

    #[test]
    fn validate_accepts_the_contract_shape_and_nothing_else() {
        let schema = json::parse(&schema()).unwrap();
        let good = end_to_end_metrics();
        assert_eq!(validate_output(&output(&good, 0), &schema), Ok(()));
        let per_layer: Vec<_> = PER_LAYER.iter().map(|m| (m.name, 0.0, m.unit)).collect();
        assert_eq!(validate_output(&output(&per_layer, 0), &schema), Ok(()));

        assert!(
            validate_output(&output(&good, 1), &schema).is_err(),
            "failed op"
        );
        assert!(
            validate_output(&output(&good[1..], 0), &schema).is_err(),
            "missing metric"
        );
        let mut wrong_unit = good.clone();
        wrong_unit[0].2 = "ms";
        assert!(
            validate_output(&output(&wrong_unit, 0), &schema).is_err(),
            "unit"
        );
        let mut zero = good.clone();
        zero[1].1 = 0.0;
        assert!(
            validate_output(&output(&zero, 0), &schema).is_err(),
            "zero end-to-end"
        );
        let mut extra = good;
        extra.push(("sparse.flops", 1.0, "count"));
        assert!(
            validate_output(&output(&extra, 0), &schema).is_err(),
            "mixed sets"
        );
    }
}
