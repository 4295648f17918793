#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! Library backing the `symclust` command-line tool.
//!
//! The binary is a thin wrapper around [`run`]; everything (argument
//! parsing, subcommands, file formats) lives here so it can be unit-tested
//! without spawning processes.
//!
//! ```text
//! symclust generate    --model cora --output edges.txt --truth truth.txt
//! symclust stats       --input edges.txt
//! symclust symmetrize  --input edges.txt --method dd --target-degree 60 --output sym.txt
//! symclust cluster     --input sym.txt --algo metis --k 70 --output clusters.txt
//! symclust pipeline    --input edges.txt --truth truth.txt --clusterers mlrmcl,metis
//! symclust eval        --clusters clusters.txt --truth truth.txt
//! symclust serve       --socket /tmp/symclust.sock --store /var/cache/symclust
//! symclust client      --socket /tmp/symclust.sock --op stats
//! ```

pub mod args;
pub mod chaos;
pub mod commands;
pub mod formats;
pub mod protocol;
pub mod server;

use args::ParsedArgs;

/// Entry point: dispatches a full argument vector (excluding argv\[0\]).
/// Returns the process exit code.
pub fn run(argv: &[String]) -> i32 {
    let Some((subcommand, rest)) = argv.split_first() else {
        eprintln!("{}", usage());
        return 2;
    };
    let parsed = match ParsedArgs::parse(rest) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let command: fn(&ParsedArgs) -> Result<(), String> = match subcommand.as_str() {
        "generate" => commands::generate,
        "stats" => commands::stats,
        "symmetrize" => commands::symmetrize,
        "cluster" => commands::cluster,
        "pipeline" => commands::pipeline,
        "eval" => commands::eval,
        "serve" => commands::serve,
        "client" => commands::client,
        "chaos" => chaos::chaos,
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            return 0;
        }
        other => {
            eprintln!("error: unknown subcommand '{other}'\n{}", usage());
            return 2;
        }
    };
    if let Err(e) = parsed.reject_unknown(subcommand, &known_flags(subcommand)) {
        eprintln!("error: {e}");
        return 2;
    }
    match command(&parsed) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// The flags `subcommand` accepts: every `--flag` in its block of
/// [`usage`] (the lines from its name to the next subcommand's). The usage
/// text is the one list, so a flag it does not show is refused.
fn known_flags(subcommand: &str) -> Vec<&'static str> {
    let mut block = None;
    let mut flags = Vec::new();
    for line in usage().lines() {
        if let Some(head) = line.strip_prefix("  ").filter(|l| !l.starts_with(' ')) {
            block = head.split_whitespace().next();
        }
        if block != Some(subcommand) {
            continue;
        }
        for rest in line.split("--").skip(1) {
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .unwrap_or(rest.len());
            flags.push(&rest[..end]);
        }
    }
    flags
}

/// The top-level usage string.
pub fn usage() -> &'static str {
    "symclust — clustering directed graphs by symmetrization (EDBT 2011)

USAGE:
  symclust <subcommand> [--flag value]...

SUBCOMMANDS:
  generate    synthesize a directed graph
              --model dsbm|kronecker|cora|wikipedia|flickr|livejournal
              --nodes N --clusters K --seed S [--levels L --edges E]
              --output FILE [--truth FILE]
  stats       print Table-1-style statistics of an edge list
              --input FILE
  symmetrize  transform a directed edge list into an undirected one
              --input FILE --method aat|rw|bib|dd --output FILE
              [--alpha A --beta B] [--threshold T | --target-degree D]
  cluster     cluster an undirected (symmetrized) edge list
              --input FILE --algo mlrmcl|metis|graclus
              [--k K | --inflation I] [--tolerance T] --output FILE
  pipeline    sweep all four symmetrizations x clusterers concurrently,
              computing each symmetrization once (artifact cache)
              (--input FILE [--truth FILE] | --model NAME [--nodes N]
               [--clusters K] [--seed S] [--levels L --edges E])
              [--clusterers mlrmcl,metis,graclus] [--k K] [--inflation I]
              [--target-degree D | --threshold T] [--prune T]
              [--threads N] [--sym-threads N] [--sym-panel-rows N]
              [--timeout-secs S] [--retries N]
              [--memory-budget ENTRIES] [--resume JOURNAL.jsonl]
              [--events FILE] [--records FILE] [--quiet]
              [--metrics] [--metrics-out FILE.json] [--paranoid]
  eval        score a clustering against ground truth
              --clusters FILE --truth FILE
  serve       long-running clustering daemon over a unix socket
              (newline-delimited flat JSON; artifacts cached in a
              disk-backed content-addressed store; SIGTERM/SIGINT and
              the shutdown op drain: admitted work finishes, stats
              persist, the socket is unlinked)
              [--socket PATH | --tcp ADDR] [--store DIR]
              [--workers N] [--queue-cap N] [--timeout-ms MS]
              [--store-budget-bytes B] [--drain-ms MS]
              [--read-timeout-ms MS]
  client      send one request to a running daemon, print the response
              (retries connect failures and overloaded pushback with
              deterministic exponential backoff)
              (--socket PATH | --tcp ADDR) [--retries N]
              (--json LINE | --op OP [--graph KEY] [--method M]
               [--alpha A] [--beta B] [--threshold T]
               [--algo A] [--k K] [--inflation I] [--budget B]
               [--edges-file FILE] [--key KEY] [--node N]
               [--id ID] [--timeout-ms MS])
              ops: upload-graph symmetrize cluster query-membership
               stats health shutdown
  chaos       scripted kill-and-restart loops against a real daemon
              under deterministic I/O fault injection, asserting
              crash-consistency invariants after every cycle (needs a
              binary built with the fault-injection feature)
              [--seed N] [--cycles C] [--dir D] [--budget-bytes B]
              [--keep]
  help        print this message"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    /// Every flag each subcommand's code reads: the usage text must list
    /// these and no others.
    const READS: [(&str, &str); 9] = [
        (
            "generate",
            "model nodes clusters seed levels edges output truth",
        ),
        ("stats", "input"),
        (
            "symmetrize",
            "input method output alpha beta threshold target-degree",
        ),
        ("cluster", "input algo k inflation tolerance output"),
        (
            "pipeline",
            "input truth model nodes clusters seed levels edges clusterers k \
             inflation target-degree threshold prune threads sym-threads \
             sym-panel-rows timeout-secs retries memory-budget resume events \
             records quiet metrics metrics-out paranoid",
        ),
        ("eval", "clusters truth"),
        (
            "serve",
            "socket tcp store workers queue-cap timeout-ms store-budget-bytes \
             drain-ms read-timeout-ms",
        ),
        (
            "client",
            "socket tcp retries json op graph method alpha beta threshold algo \
             k inflation budget edges-file key node id timeout-ms",
        ),
        ("chaos", "seed cycles dir budget-bytes keep"),
    ];

    #[test]
    fn usage_lists_exactly_the_flags_each_subcommand_reads() {
        for (subcommand, reads) in READS {
            let mut known = known_flags(subcommand);
            known.sort_unstable();
            known.dedup();
            let mut want: Vec<&str> = reads.split_whitespace().collect();
            want.sort_unstable();
            assert_eq!(known, want, "{subcommand}");
        }
    }

    #[test]
    fn a_misspelled_flag_fails_every_subcommand_before_any_work() {
        for (subcommand, _) in READS {
            assert_eq!(run(&argv(&[subcommand, "--no-such-flag", "1"])), 2);
            let parsed = ParsedArgs::parse(&argv(&["--no-such-flag", "1"])).unwrap();
            assert_eq!(
                parsed.reject_unknown(subcommand, &known_flags(subcommand)),
                Err(format!("unknown flag --no-such-flag for {subcommand}"))
            );
        }
        let dir = std::env::temp_dir().join(format!("symclust_flags_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (input, output) = (dir.join("g.txt"), dir.join("o.txt"));
        std::fs::write(&input, "0 1\n1 2\n2 0\n").unwrap();
        let (input, output) = (input.to_str().unwrap(), output.to_str().unwrap());
        let symmetrize = |threshold_flag| {
            let flags = [
                "symmetrize",
                "--input",
                input,
                "--method",
                "dd",
                threshold_flag,
                "0.5",
                "--output",
                output,
            ];
            run(&argv(&flags))
        };
        assert_eq!(symmetrize("--treshold"), 2);
        assert!(!std::path::Path::new(output).exists(), "no output written");
        assert_eq!(symmetrize("--threshold"), 0);
        assert!(std::path::Path::new(output).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_nan_infinite_or_negative_threshold_fails_symmetrize_and_writes_nothing() {
        let dir = std::env::temp_dir().join(format!("symclust_threshold_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (input, output) = (dir.join("g.txt"), dir.join("o.txt"));
        std::fs::write(&input, "0 1\n1 2\n2 0\n0 2\n").unwrap();
        let (input, output) = (input.to_str().unwrap(), output.to_str().unwrap());
        let symmetrize = |method, threshold| {
            let flags = [
                "symmetrize",
                "--input",
                input,
                "--method",
                method,
                "--threshold",
                threshold,
                "--output",
                output,
            ];
            run(&argv(&flags))
        };
        for method in ["dd", "bib"] {
            for threshold in ["nan", "inf", "-inf", "-1"] {
                assert_ne!(symmetrize(method, threshold), 0, "{method} {threshold}");
                assert!(
                    !std::path::Path::new(output).exists(),
                    "{method} {threshold}: no output written"
                );
            }
            assert_eq!(symmetrize(method, "0"), 0, "{method}");
            assert!(std::fs::read_to_string(output).unwrap().lines().count() > 0);
            std::fs::remove_file(output).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_nan_infinite_or_negative_threshold_fails_pipeline_and_writes_nothing() {
        let dir = std::env::temp_dir().join(format!("symclust_pipeline_t_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (records, events) = (dir.join("rec.jsonl"), dir.join("ev.jsonl"));
        let (records, events) = (records.to_str().unwrap(), events.to_str().unwrap());
        for threshold in ["nan", "inf", "-inf", "-1"] {
            let flags = [
                "pipeline",
                "--model",
                "dsbm",
                "--nodes",
                "300",
                "--clusters",
                "6",
                "--clusterers",
                "metis",
                "--threshold",
                threshold,
                "--records",
                records,
                "--events",
                events,
                "--quiet",
            ];
            assert_eq!(run(&argv(&flags)), 1, "{threshold}");
            for path in [records, events] {
                assert!(
                    !std::path::Path::new(path).exists(),
                    "{threshold}: {path} written"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn removed_surfaces_are_refused_like_any_unknown_name() {
        assert_eq!(
            run(&argv(&["nibble", "--input", "x", "--seed-node", "0"])),
            2
        );
        assert_eq!(run(&argv(&["no-such-subcommand"])), 2);
        let dir = std::env::temp_dir().join(format!("symclust_removed_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (input, output) = (dir.join("g.txt"), dir.join("c.txt"));
        std::fs::write(&input, "0 1\n1 0\n1 2\n2 1\n").unwrap();
        let (input, output) = (input.to_str().unwrap(), output.to_str().unwrap());
        let flags = [
            "--input", input, "--algo", "spectral", "--k", "2", "--output", output,
        ];
        let err = commands::cluster(&ParsedArgs::parse(&argv(&flags)).unwrap()).unwrap_err();
        assert!(err.contains("mlrmcl|metis|graclus"), "{err}");
        assert!(!std::path::Path::new(output).exists(), "no output written");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_removed_accumulator_flag_is_refused() {
        let parsed = ParsedArgs::parse(&argv(&["--sym-accum", "dense"])).unwrap();
        assert_eq!(
            parsed.reject_unknown("pipeline", &known_flags("pipeline")),
            Err("unknown flag --sym-accum for pipeline".to_string())
        );
        assert_eq!(run(&argv(&["pipeline", "--sym-accum", "dense"])), 2);
    }
}
