//! `symclust-benchmark`: the repo's four-workload layered benchmark.
//!
//! ```text
//! symclust-benchmark --workload <name> [--seed S] [--seconds T] [--trace 0|1] [--smoke]
//! symclust-benchmark schema                        # the text of BENCHMARK.json
//! symclust-benchmark validate <BENCHMARK.json> <output file>...
//! symclust-benchmark compare  <BENCHMARK.json> <dir written by aa.sh>
//! ```
//!
//! One invocation is one run of one workload in a fresh process
//! (`run.sh` builds and loops). It prints an info line and then, last,
//! the result line of the driver's contract. See README.md.

mod compare;
mod harness;
mod host;
mod inputs;
mod json;
mod names;
mod replay;
mod requests;
mod stats;
mod trace;
mod workloads;

use harness::{Config, Outcome};
use names::{CLUSTER_WIKI, RUN_SECONDS, SERVE_MIX, SWEEP_WIKI, SYM_KRON, WORKLOADS};

/// The paper's publication date (EDBT, 25 March 2011).
const DEFAULT_SEED: u64 = 20110325;

fn parse_run_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?.clone(),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => cfg.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == cfg.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {names:?}"));
    }
    Ok(cfg)
}

fn run(cfg: &Config) -> Result<bool, String> {
    let scratch = host::Scratch::create()?;
    let mut out = Outcome::default();
    match cfg.workload.as_str() {
        SYM_KRON => workloads::sym_kron::run(cfg, &scratch, &mut out)?,
        CLUSTER_WIKI => workloads::cluster_wiki::run(cfg, &mut out)?,
        SWEEP_WIKI => workloads::sweep_wiki::run(cfg, &mut out)?,
        SERVE_MIX => workloads::serve_mix::run(cfg, &scratch, &mut out)?,
        other => return Err(format!("no workload {other}")),
    }
    if cfg.trace {
        let path = scratch
            .out_dir
            .join(format!("trace-{}.jsonl", cfg.workload));
        trace::write_jsonl(&path, &out.spans).map_err(|e| format!("{}: {e}", path.display()))?;
        out.note("trace_file", path.display());
    }
    harness::print(cfg, &scratch, &out);
    Ok(out.failed == 0)
}

fn main() {
    // Before anything else, and before any thread exists: the caller's
    // SYMCLUST_* variables must not change what is measured.
    host::scrub_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    host::single_malloc_arena(&args);
    let outcome = match args.first().map(String::as_str) {
        Some("schema") => {
            print!("{}", names::schema());
            Ok(true)
        }
        Some("validate") => compare::validate(&args[1..]).map(|()| true),
        Some("compare") => compare::compare(&args[1..]).map(|()| true),
        _ => parse_run_args(&args).and_then(|cfg| run(&cfg)),
    };
    match outcome {
        Ok(true) => {}
        // A result line was printed, with `correct: false`.
        Ok(false) => std::process::exit(3),
        Err(e) => {
            eprintln!("symclust-benchmark: {e}");
            std::process::exit(1);
        }
    }
}
