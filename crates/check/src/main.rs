//! `symclust-check` — repo-invariant lint driver and the scheduler /
//! serve-lifecycle model checkers. See DESIGN.md §13 and §18.

use std::path::PathBuf;
use std::process::ExitCode;

use symclust_check::{lint, schedmodel, servemodel};

const USAGE: &str = "\
symclust-check — correctness tooling for the symclust workspace

USAGE:
    symclust-check lint [--root PATH]
        Run the repo-invariant lint rules over crates/*/src. Exits
        non-zero and lists violations if any rule fires.

    symclust-check sched-model [--workers N] [--blocks B] [--faulty]
        Exhaustively model-check the work-stealing scheduler protocol for
        every configuration up to N workers x B blocks (default 3 x 6).
        --faulty checks the deliberately broken non-atomic steal variant
        instead, to demonstrate the checker catches races (expected to
        report a violation and exit non-zero).

    symclust-check serve-model
            [--faulty relaxed-shutdown|overloaded-requeue|inline-before-flag]
        Exhaustively model-check the serve daemon's request lifecycle
        (admission vs shutdown races, worker drain, drain-deadline
        watchdog, health, client-disconnect cancellation, the reader's
        inline read lane) across the built-in scenarios. --faulty checks
        a deliberately broken protocol variant instead and prints the
        concrete witness trace (a lost request, a double completion, or
        a read answered by a draining daemon; exits non-zero).

    symclust-check list-rules
        Print the lint rules and one-line summaries.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("sched-model") => cmd_sched_model(&args[1..]),
        Some("serve-model") => cmd_serve_model(&args[1..]),
        Some("list-rules") => {
            for (rule, summary) in lint::RULES {
                println!("{rule}\n    {summary}");
            }
            ExitCode::SUCCESS
        }
        Some("--help") | Some("-h") | Some("help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown subcommand `{other}`\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn flag_value(args: &[String], name: &str) -> Result<Option<String>, String> {
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if a == name {
            return match iter.next() {
                Some(v) => Ok(Some(v.clone())),
                None => Err(format!("{name} requires a value")),
            };
        }
    }
    Ok(None)
}

fn cmd_lint(args: &[String]) -> ExitCode {
    let root = match flag_value(args, "--root") {
        Ok(Some(p)) => PathBuf::from(p),
        Ok(None) => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match lint::find_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "could not locate the workspace root from {}; pass --root",
                        cwd.display()
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match lint::run(&root) {
        Ok(violations) if violations.is_empty() => {
            println!(
                "symclust-check lint: {} rules clean over {}",
                lint::RULES.len(),
                root.display()
            );
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                eprintln!("{v}");
            }
            eprintln!("symclust-check lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("symclust-check lint: {e}");
            ExitCode::FAILURE
        }
    }
}

const FAULTY_VARIANTS: &str = "relaxed-shutdown, overloaded-requeue or inline-before-flag";

fn cmd_serve_model(args: &[String]) -> ExitCode {
    match flag_value(args, "--faulty") {
        Err(e) => {
            eprintln!("{e} ({FAULTY_VARIANTS})");
            ExitCode::FAILURE
        }
        Ok(Some(variant)) => {
            let protocol = match variant.as_str() {
                "relaxed-shutdown" => servemodel::Protocol::RelaxedShutdown,
                "overloaded-requeue" => servemodel::Protocol::OverloadedRequeue,
                "inline-before-flag" => servemodel::Protocol::InlineBeforeFlag,
                other => {
                    eprintln!("--faulty expects {FAULTY_VARIANTS}, got {other:?}");
                    return ExitCode::FAILURE;
                }
            };
            let cfg = servemodel::faulty_config(protocol);
            match servemodel::check_config(&cfg) {
                Ok(report) => {
                    eprintln!(
                        "faulty protocol `{variant}` unexpectedly verified clean ({} states) — \
                         the checker should have caught the bug",
                        report.states
                    );
                    ExitCode::FAILURE
                }
                Err(violation) => {
                    println!("faulty protocol `{variant}`: bug found, as expected\n\n{violation}");
                    ExitCode::FAILURE
                }
            }
        }
        Ok(None) => match servemodel::sweep() {
            Ok(reports) => {
                println!("serve-lifecycle model check (shipped protocol)");
                println!(
                    "{:>30} {:>9} {:>12} {:>16}",
                    "scenario", "states", "steps", "schedules"
                );
                let mut total_states = 0usize;
                for (name, r) in &reports {
                    total_states += r.states;
                    println!(
                        "{name:>30} {:>9} {:>12} {:>16}",
                        r.states, r.transitions, r.schedules
                    );
                }
                println!(
                    "\nall {} scenarios exactly-once, drain-terminating, and \
                     health-answerable ({total_states} states explored)",
                    reports.len()
                );
                ExitCode::SUCCESS
            }
            Err(violation) => {
                eprintln!("{violation}");
                ExitCode::FAILURE
            }
        },
    }
}

fn cmd_sched_model(args: &[String]) -> ExitCode {
    let parse = |name: &str, default: usize| -> Result<usize, String> {
        match flag_value(args, name)? {
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| format!("{name} expects an integer, got {v:?}")),
            None => Ok(default),
        }
    };
    let (workers, blocks) = match (parse("--workers", 3), parse("--blocks", 6)) {
        (Ok(w), Ok(b)) => (w, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if workers == 0 || workers > 4 || blocks > 8 {
        eprintln!(
            "sched-model supports 1..=4 workers and 0..=8 blocks \
             (state space grows super-exponentially beyond that)"
        );
        return ExitCode::FAILURE;
    }
    if args.iter().any(|a| a == "--faulty") {
        let cfg = schedmodel::Config {
            n_workers: workers.max(2),
            n_blocks: blocks.max(2),
            protocol: schedmodel::Protocol::NonAtomicSteal,
        };
        return match schedmodel::check_config(&cfg) {
            Ok(report) => {
                eprintln!(
                    "faulty protocol unexpectedly verified clean ({} states) — \
                     the checker should have caught the race",
                    report.states
                );
                ExitCode::FAILURE
            }
            Err(violation) => {
                println!(
                    "faulty non-atomic steal protocol: race found, as expected\n\n{violation}"
                );
                ExitCode::FAILURE
            }
        };
    }
    match schedmodel::sweep(workers, blocks) {
        Ok(reports) => {
            println!("work-stealing scheduler model check (CAS protocol)");
            println!(
                "{:>8} {:>7} {:>9} {:>12} {:>16}",
                "workers", "blocks", "states", "steps", "schedules"
            );
            let mut total_states = 0usize;
            for (w, b, r) in &reports {
                total_states += r.states;
                println!(
                    "{w:>8} {b:>7} {:>9} {:>12} {:>16}",
                    r.states, r.transitions, r.schedules
                );
            }
            println!(
                "\nall {} configurations exactly-once and lost-work free \
                 ({total_states} states explored)",
                reports.len()
            );
            ExitCode::SUCCESS
        }
        Err(violation) => {
            eprintln!("{violation}");
            ExitCode::FAILURE
        }
    }
}
