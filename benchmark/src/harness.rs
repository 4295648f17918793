//! The part every workload shares: how a run is laid out in rounds, how
//! ops are timed and checked, how rounds become end-to-end metrics, and
//! the two lines a run prints.
//!
//! **Layout of an untraced run.** `ROUNDS` rounds, each a complete
//! set-up (generate → load → cold computes → warm-up ops) followed by a
//! closed loop of a *fixed number* of timed ops. `setup_s` is the median
//! of the rounds' set-ups. Every other timing is computed per round with
//! its plain definition (mean op time, tail percentile, ops ÷ loop time,
//! CPU ÷ ops) and the run reports each metric's **best round**.
//! This host is a 2-core VM whose neighbours slow memory-bound code by
//! 30–50 % in stretches of 10–20 s (a fixed MLR-MCL op sat at 0.93 s,
//! then 1.3–1.4 s, then 0.93 s again, with no steal time visible in the
//! guest). Interference only ever adds time, so — as `timeit` does — the
//! fastest round estimates the program and the slower ones the
//! neighbours; a run spans ≈ 22 s, longer than any slow stretch seen.
//!
//! **Layout of a traced run.** One set-up, then untraced and traced ops
//! alternating (so both see the same host), then the workload's replay
//! phase. It yields the per-layer metrics and no end-to-end number.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::host::{self, Scratch};
use crate::json::{escape, number};
use crate::names::{END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::stats;
use crate::trace::{self, Span, SpanId, Tracer, NO_SPAN};

/// Rounds per untraced run.
pub const ROUNDS: usize = 3;

/// What `main` parsed from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// CI sizes: tiny inputs, 2 rounds of 1 op, every check on.
    pub smoke: bool,
}

impl Config {
    /// Timed ops per round: `at_run_seconds` ops when `--seconds` is the
    /// `run_seconds` of `BENCHMARK.json` (what the three rounds' loops take
    /// together on the reference host, averaged over the workloads),
    /// scaled in proportion otherwise.
    /// The count is fixed before the loop starts — never derived from a
    /// clock — so two builds compared on one seed do exactly the same
    /// work and every `#` counter can be compared exactly.
    pub fn ops_per_round(&self, at_run_seconds: usize, in_smoke: usize) -> usize {
        if self.smoke {
            return in_smoke;
        }
        let scaled = at_run_seconds as f64 * self.seconds / f64::from(RUN_SECONDS);
        (scaled.round() as usize).max(1)
    }

    pub fn rounds(&self) -> usize {
        match (self.trace, self.smoke) {
            (true, _) => 1,
            (false, true) => 2,
            (false, false) => ROUNDS,
        }
    }
}

/// What one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub setup_s: f64,
    /// Wall time of every timed op, in ms, in issue order.
    pub op_ms: Vec<f64>,
    /// Wall time of the timed loop, check time excluded, in seconds.
    pub loop_s: f64,
    /// Process CPU time (user + system, all threads) spent in the timed
    /// loop, check time excluded, in seconds.
    pub cpu_s: f64,
}

impl Round {
    pub fn op_ms_mean(&self) -> f64 {
        self.op_ms.iter().sum::<f64>() / self.op_ms.len() as f64
    }

    pub fn op_ms_p50(&self) -> f64 {
        stats::median(&self.op_ms)
    }

    pub fn tail_ms(&self) -> f64 {
        stats::tail(&self.op_ms)
    }

    pub fn ops_per_s(&self) -> f64 {
        self.op_ms.len() as f64 / self.loop_s
    }

    pub fn cpu_ms_per_op(&self) -> f64 {
        self.cpu_s * 1e3 / self.op_ms.len() as f64
    }
}

/// The per-layer metrics of a traced run. Starts with every name of
/// `BENCHMARK.json` at 0 — a layer that is not on this workload's path
/// did no work and took no time — and refuses any other name.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }
}

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("'{name}' is not a per-layer metric of BENCHMARK.json"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    /// Copies counters from a `symclust-obs` snapshot: `(metric, counter)`.
    pub fn set_counters(&mut self, snap: &symclust_obs::MetricsSnapshot, pairs: &[(&str, &str)]) {
        for &(metric, counter) in pairs {
            self.set(metric, snap.counter(counter).unwrap_or(0) as f64);
        }
    }
}

/// Everything a run produced; `print` turns it into the two output lines.
#[derive(Default)]
pub struct Outcome {
    pub rounds: Vec<Round>,
    pub attempted: usize,
    pub failed: usize,
    /// The first few failure messages, for the info line and stderr.
    pub failures: Vec<String>,
    pub layers: Layers,
    pub spans: Vec<Span>,
    /// Workload-specific facts for the info line (sizes, scores).
    pub notes: BTreeMap<&'static str, String>,
}

impl Outcome {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            eprintln!("check failed: {what}");
            self.failures.push(what);
        }
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.insert(key, value.to_string());
    }
}

/// A single-client closed-loop workload: the three batch workloads.
pub trait Batch {
    /// What one op hands to its check.
    type Output;

    /// Everything of a set-up that comes before the warm-up ops:
    /// generate the input, load it, compute what the op takes as given.
    fn prepare(&mut self, out: &mut Outcome) -> Result<(), String>;

    /// One op. Calls into a layer are bracketed with `t.begin`/`t.end`
    /// under `parent`; with tracing off those are no-ops.
    fn op(&mut self, t: &mut Tracer, parent: SpanId, op: u32) -> Result<Self::Output, String>;

    /// Checks one op's output, outside the timed and CPU-accounted
    /// section. The first call of a run also records the reference the
    /// later ones are held to.
    fn check(&mut self, output: Self::Output) -> Result<(), String>;

    /// Drops the round's state, outside any timing, so a round's peak
    /// memory is one round's and not the sum.
    fn tear_down(&mut self);

    /// Traced run only: fills the per-layer metrics from the spans and
    /// from the replay phase (finer public calls on the same inputs).
    fn layers(&mut self, spans: &[Span], out: &mut Outcome) -> Result<(), String>;
}

/// Set-up: prepare, then `warm_ups` untimed ops whose outputs are checked
/// once the set-up clock has stopped. Returns the set-up time in seconds.
fn set_up<B: Batch>(b: &mut B, warm_ups: usize, out: &mut Outcome) -> Result<f64, String> {
    let start = Instant::now();
    b.prepare(out)?;
    let mut off = Tracer::new(start, false);
    let mut outputs = Vec::with_capacity(warm_ups);
    for _ in 0..warm_ups {
        outputs.push(b.op(&mut off, NO_SPAN, 0)?);
    }
    let setup_s = start.elapsed().as_secs_f64();
    for output in outputs {
        b.check(output)
            .map_err(|e| format!("warm-up op failed its check: {e}"))?;
    }
    Ok(setup_s)
}

/// One timed, CPU-accounted, checked op, added to `round`.
fn timed_op<B: Batch>(b: &mut B, t: &mut Tracer, op: u32, round: &mut Round, out: &mut Outcome) {
    let cpu0 = host::process_cpu_secs();
    let start = Instant::now();
    let root = t.begin("bench.op", NO_SPAN, op);
    let result = b.op(t, root, op);
    t.end(root);
    let wall = start.elapsed().as_secs_f64();
    round.cpu_s += host::process_cpu_secs() - cpu0;
    round.loop_s += wall;
    round.op_ms.push(wall * 1e3);
    out.attempted += 1;
    if let Err(e) = result.and_then(|output| b.check(output)) {
        out.fail(format!("op {op}: {e}"));
    }
}

/// Runs a batch workload: `ROUNDS` rounds untraced, or one set-up with
/// alternating untraced/traced ops and the replay phase when tracing.
pub fn run_batch<B: Batch>(
    b: &mut B,
    cfg: &Config,
    warm_ups: usize,
    ops_per_round: usize,
    out: &mut Outcome,
) -> Result<(), String> {
    let epoch = Instant::now();
    if !cfg.trace {
        for _ in 0..cfg.rounds() {
            let mut round = Round {
                setup_s: set_up(b, warm_ups, out)?,
                ..Round::default()
            };
            let mut off = Tracer::new(epoch, false);
            for op in 0..ops_per_round {
                timed_op(b, &mut off, op as u32, &mut round, out);
            }
            b.tear_down();
            out.rounds.push(round);
        }
        return Ok(());
    }

    let calib_start = host::calib_ms();
    let mut plain = Round {
        setup_s: set_up(b, warm_ups, out)?,
        ..Round::default()
    };
    let mut traced = Round::default();
    let mut off = Tracer::new(epoch, false);
    let mut on = Tracer::new(epoch, true);
    for op in 0..ops_per_round {
        timed_op(b, &mut off, op as u32, &mut plain, out);
        timed_op(b, &mut on, op as u32, &mut traced, out);
    }
    let spans = on.spans().to_vec();
    b.layers(&spans, out)?;
    out.spans = spans;
    b.tear_down();
    finish_traced(out, &plain, &traced, calib_start);
    out.rounds.push(plain);
    Ok(())
}

/// The `bench.*` metrics every traced run ends with.
pub fn finish_traced(out: &mut Outcome, plain: &Round, traced: &Round, calib_start_ms: f64) {
    // Lower-quartile traced op over lower-quartile untraced op (the
    // fastest of each on a batch workload's 3–5 ops): the two loops
    // alternate on a host that only ever adds time, so the fast end of
    // each is what the neighbours disturbed least.
    let fast = |r: &Round| stats::percentile(&r.op_ms, 0.25);
    out.layers
        .set("bench.trace_overhead", fast(traced) / fast(plain));
    out.layers
        .set("bench.calib_ms", (calib_start_ms + host::calib_ms()) / 2.0);
    out.layers.set("bench.ops", out.attempted as f64);
    out.layers.set("bench.failed", out.failed as f64);
}

/// The end-to-end metrics of an untraced run, in `END_TO_END` order.
pub fn end_to_end(rounds: &[Round]) -> Vec<(&'static str, f64)> {
    let over = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let min = |v: Vec<f64>| v.into_iter().fold(f64::INFINITY, f64::min);
    let max = |v: Vec<f64>| v.into_iter().fold(f64::NEG_INFINITY, f64::max);
    vec![
        ("setup_s", stats::median(&over(|r| r.setup_s))),
        ("op_ms", min(over(Round::op_ms_mean))),
        ("p95_ms", min(over(Round::tail_ms))),
        ("ops_per_s", max(over(Round::ops_per_s))),
        ("cpu_ms_per_op", min(over(Round::cpu_ms_per_op))),
        ("peak_rss_mb", host::peak_rss_mib()),
    ]
}

fn metrics_json(values: &[(&str, f64, &str)]) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Prints the info line (everything a reader wants beside the metrics:
/// sizes, host, every round, layer shares) and then, last, the result
/// line the driver reads: `correct`, `attempted`, `failed`, `metrics`.
pub fn print(cfg: &Config, scratch: &Scratch, out: &Outcome) {
    let rounds: Vec<String> = out
        .rounds
        .iter()
        .map(|r| {
            format!(
                "{{\"setup_s\": {}, \"ops\": {}, \"op_ms\": {}, \"p50_ms\": {}, \"tail_ms\": {}, \"p99_ms\": {}, \"ops_per_s\": {}, \"cpu_ms_per_op\": {}}}",
                number(r.setup_s),
                r.op_ms.len(),
                number(r.op_ms_mean()),
                number(r.op_ms_p50()),
                number(r.tail_ms()),
                number(stats::percentile(&r.op_ms, 0.99)),
                number(r.ops_per_s()),
                number(r.cpu_ms_per_op())
            )
        })
        .collect();
    let shares: Vec<String> = trace::layer_shares(&out.spans)
        .iter()
        .map(|(layer, share)| format!("\"{layer}\": {}", number(*share)))
        .collect();
    let notes: Vec<String> = out
        .notes
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", escape(v)))
        .collect();
    let failures: Vec<String> = out
        .failures
        .iter()
        .map(|f| format!("\"{}\"", escape(f)))
        .collect();
    let tail_p = out
        .rounds
        .first()
        .map_or(0.5, |r| stats::tail_percentile(r.op_ms.len()));
    println!(
        "{{\"info\": true, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \"nproc\": {}, \"scratch_fs\": \"{}\", \"scratch_dir\": \"{}\", \"tail_percentile\": {}, \"rounds\": [{}], \"layer_shares\": {{{}}}, \"notes\": {{{}}}, \"failures\": [{}]}}",
        cfg.workload,
        cfg.seed,
        number(cfg.seconds),
        cfg.trace,
        cfg.smoke,
        host::nproc(),
        escape(&scratch.fs_type()),
        escape(&scratch.dir.display().to_string()),
        number(tail_p),
        rounds.join(", "),
        shares.join(", "),
        notes.join(", "),
        failures.join(", ")
    );

    let metrics: Vec<(&str, f64, &str)> = if cfg.trace {
        PER_LAYER
            .iter()
            .map(|m| (m.name, out.layers.get(m.name), m.unit))
            .collect()
    } else {
        end_to_end(&out.rounds)
            .into_iter()
            .zip(END_TO_END.iter())
            .map(|((name, value), m)| {
                assert_eq!(name, m.name, "END_TO_END order");
                (name, value, m.unit)
            })
            .collect()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics_json(&metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(setup_s: f64, op_ms: &[f64]) -> Round {
        Round {
            setup_s,
            op_ms: op_ms.to_vec(),
            loop_s: op_ms.iter().sum::<f64>() / 1e3,
            cpu_s: op_ms.iter().sum::<f64>() / 1e3,
        }
    }

    #[test]
    fn run_reports_median_set_up_and_best_round() {
        let rounds = [
            round(2.0, &[10.0, 14.0, 12.0]),
            round(3.0, &[8.0, 9.0, 40.0]),
            round(2.5, &[20.0, 20.0, 20.0]),
        ];
        let m: BTreeMap<&str, f64> = end_to_end(&rounds).into_iter().collect();
        assert_eq!(m["setup_s"], 2.5);
        assert_eq!(m["op_ms"], 12.0);
        // Three ops hold no percentile above the median.
        assert_eq!(m["p95_ms"], 9.0);
        assert_eq!(m["ops_per_s"], 3.0 / 0.036);
        assert_eq!(m["cpu_ms_per_op"], 12.0);
        assert!(m["peak_rss_mb"] > 0.0);
    }

    #[test]
    fn end_to_end_names_are_the_schema_names_in_order() {
        let names: Vec<&str> = end_to_end(&[round(1.0, &[1.0])])
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let schema: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, schema);
    }

    #[test]
    fn op_count_is_fixed_by_seconds_not_by_a_clock() {
        let mut cfg = Config {
            workload: "sym-kron".into(),
            seed: 1,
            seconds: f64::from(RUN_SECONDS),
            trace: false,
            smoke: false,
        };
        assert_eq!(cfg.ops_per_round(5, 1), 5);
        cfg.seconds *= 2.0;
        assert_eq!(cfg.ops_per_round(5, 1), 10);
        cfg.seconds = 0.01;
        assert_eq!(cfg.ops_per_round(5, 1), 1);
        cfg.smoke = true;
        assert_eq!((cfg.ops_per_round(5, 1), cfg.rounds()), (1, 2));
    }

    #[test]
    #[should_panic(expected = "not a per-layer metric")]
    fn layers_refuse_names_outside_the_schema() {
        Layers::default().set("sparse.made_up", 1.0);
    }
}
