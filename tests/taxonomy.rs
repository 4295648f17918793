//! The metric-name and error-code taxonomies, checked as runtime data.
//!
//! Dashboards key on metric names and clients dispatch on error codes, so
//! a rename must fail here rather than flatline a graph or break a client:
//!
//! * the library declares exactly the five `metric_names` modules read
//!   here, and every constant of them is a backticked name in DESIGN.md
//!   §11;
//! * every `EXACT_KEYS` key of `golden_counts.rs` names one of those
//!   constants, so no pinned key is orphaned, and the
//!   scheduling-dependent steal counter is not among them;
//! * every counter, gauge, histogram and span that the golden-counts
//!   sweep or a short daemon session registers is one of those constants
//!   or belongs to a documented format-built family, so no name reaches a
//!   snapshot undeclared;
//! * the `ErrorCode` wire names and the §14 error-code table are the same
//!   set, in both directions.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use symclust::graph::io::read_edge_list_file;
use symclust::sparse::{PanelPlan, Tuning};
use symclust_cli::protocol::ErrorCode;
use symclust_cli::server::{Endpoint, ServeOptions, Server};
use symclust_engine::json::parse_object;
use symclust_engine::{Clusterer, Engine, EngineOptions, PipelineInput, PipelineSpec, SymMethod};
use symclust_obs::MetricsSnapshot;

const DESIGN: &str = include_str!("../DESIGN.md");

/// The text of `doc` from the first `start` up to the next `end` after it.
fn between<'a>(doc: &'a str, start: &str, end: &str) -> &'a str {
    let from = doc
        .find(start)
        .unwrap_or_else(|| panic!("no `{start}` to start from"));
    let rest = &doc[from + start.len()..];
    &rest[..rest.find(end).unwrap_or(rest.len())]
}

/// Every backticked token of DESIGN.md §11.
fn documented_metric_names() -> BTreeSet<&'static str> {
    let section = between(DESIGN, "\n## 11.", "\n## 12.");
    section.split('`').skip(1).step_by(2).collect()
}

/// The `ALL` slice of every `metric_names` module, one per module.
const MODULES: [&[&str]; 5] = [
    symclust::sparse::spgemm::metric_names::ALL,
    symclust::cluster::mcl::metric_names::ALL,
    symclust_engine::exec::metric_names::ALL,
    symclust_store::metric_names::ALL,
    symclust_cli::server::metric_names::ALL,
];

/// Every metric-name constant the library declares.
fn metric_constants() -> BTreeSet<&'static str> {
    MODULES.concat().into_iter().collect()
}

/// Span names built with `format!`, one name per value of the `<…>` part.
/// Each is documented in DESIGN.md §11 under exactly this spelling.
const SPAN_FAMILIES: [&str; 3] = ["stage.<kind>", "sym.<label>", "serve.service.<op>"];

/// Lines declaring a `metric_names` module in the library sources under
/// `dir`, as `path: line`. Doc comments are skipped, so the example in
/// the declaring macro's docs does not count.
fn metric_name_modules(dir: &Path, found: &mut Vec<String>) {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            metric_name_modules(&path, found);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let text = std::fs::read_to_string(&path).expect("source file reads");
            for line in text.lines().map(str::trim_start) {
                if line.starts_with("pub mod metric_names") || line.starts_with("mod metric_names")
                {
                    found.push(format!("{}: {line}", path.display()));
                }
            }
        }
    }
}

#[test]
fn the_five_metric_names_modules_are_all_there_are() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = Vec::new();
    metric_name_modules(&root.join("src"), &mut found);
    let mut crates: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("crates directory")
        .map(|entry| entry.expect("directory entry").path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    crates.sort();
    for src in crates {
        metric_name_modules(&src, &mut found);
    }
    assert_eq!(
        found.len(),
        MODULES.len(),
        "a metric_names module this test does not read, or one it reads \
         that is gone: {found:#?}"
    );
}

#[test]
fn every_metric_name_constant_is_documented() {
    let documented = documented_metric_names();
    let undocumented: Vec<&str> = metric_constants()
        .into_iter()
        .filter(|name| !documented.contains(name))
        .collect();
    assert!(
        undocumented.is_empty(),
        "metric names missing from DESIGN.md §11: {undocumented:?}"
    );
}

#[test]
fn every_golden_count_key_names_a_constant() {
    let table = between(include_str!("golden_counts.rs"), "const EXACT_KEYS", "];");
    let keys: Vec<&str> = table
        .lines()
        .filter_map(|line| line.trim().strip_prefix("(\""))
        .filter_map(|line| line.split('"').next())
        .collect();
    assert_eq!(keys.len(), 26, "EXACT_KEYS as read: {keys:?}");
    let steals = format!(
        "counter.{}",
        symclust::sparse::spgemm::metric_names::SCHED_STEALS
    );
    assert!(
        !keys.contains(&steals.as_str()),
        "{steals} varies with thread count and load, so no golden count may pin it"
    );
    let constants = metric_constants();
    let orphaned: Vec<&str> = keys
        .into_iter()
        .filter(|key| {
            let name = key
                .strip_prefix("counter.")
                .or_else(|| key.strip_prefix("gauge."));
            !name.is_some_and(|name| constants.contains(name))
        })
        .collect();
    assert!(
        orphaned.is_empty(),
        "EXACT_KEYS entries that name no metric_names constant: {orphaned:?}"
    );
}

/// The names in `snapshot` that are neither a `metric_names` constant nor
/// a member of a [`SPAN_FAMILIES`] family.
fn undeclared_names(snapshot: &MetricsSnapshot) -> Vec<String> {
    let constants = metric_constants();
    let documented = documented_metric_names();
    let families: Vec<&str> = SPAN_FAMILIES
        .iter()
        .map(|family| {
            assert!(
                documented.contains(family),
                "span family `{family}` missing from DESIGN.md §11"
            );
            &family[..family.find('<').expect("a family has a <…> part")]
        })
        .collect();
    let in_family = |name: &str| {
        families.iter().any(|prefix| {
            name.strip_prefix(prefix)
                .is_some_and(|rest| !rest.is_empty() && !rest.contains('.'))
        })
    };
    let scalars = snapshot
        .counters
        .iter()
        .map(|(name, _)| name)
        .chain(snapshot.gauges.iter().map(|g| &g.name))
        .chain(snapshot.histograms.iter().map(|h| &h.name));
    let spans = snapshot.spans.iter().map(|s| &s.name);
    scalars
        .filter(|name| !constants.contains(name.as_str()))
        .chain(spans.filter(|name| !constants.contains(name.as_str()) && !in_family(name)))
        .cloned()
        .collect()
}

#[test]
fn every_name_the_sweep_registers_is_declared() {
    // The sweep of golden_counts.rs.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data/dsbm_small.txt");
    let graph = read_edge_list_file(path).expect("bundled graph loads");
    let spec = PipelineSpec {
        methods: SymMethod::lineup(0.0, 0.0),
        clusterers: vec![
            Clusterer::MlrMcl { inflation: 2.0 },
            Clusterer::Metis { k: 8 },
        ],
        extra_prune: Some(0.001),
    };
    let engine = Engine::new(EngineOptions {
        tuning: Tuning {
            threads: Tuning::from_env().threads,
            panel: PanelPlan::default(),
        },
        ..Default::default()
    });
    let input = PipelineInput::new("dsbm_small", graph, None);
    let result = engine.run(&input, &spec, &|_| {});
    assert!(result.failures.is_empty(), "{:?}", result.failures);

    assert!(
        !result.metrics.counters.is_empty() && !result.metrics.spans.is_empty(),
        "the sweep registered no metric"
    );
    let undeclared = undeclared_names(&result.metrics);
    assert!(
        undeclared.is_empty(),
        "names with no metric_names constant or documented family: {undeclared:?}"
    );
}

/// Sends one request line and returns the response line.
fn roundtrip(stream: &mut UnixStream, reader: &mut impl BufRead, request: &str) -> String {
    writeln!(stream, "{request}").expect("request written");
    let mut line = String::new();
    reader.read_line(&mut line).expect("response read");
    assert!(!line.is_empty(), "daemon closed the connection");
    line
}

/// The string field `key` of a response line.
fn field(response: &str, key: &str) -> String {
    let fields = parse_object(response).expect("response parses");
    fields
        .get(key)
        .and_then(|value| value.as_str())
        .unwrap_or_else(|| panic!("no string field {key:?} in {response}"))
        .to_string()
}

#[test]
fn every_name_a_daemon_session_registers_is_declared() {
    let dir = std::env::temp_dir().join(format!("symclust_taxonomy_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let server = Server::start(ServeOptions::unix(dir.join("sock"), dir.join("store")))
        .expect("daemon starts");
    let Endpoint::Unix(socket) = server.endpoint() else {
        panic!("a unix daemon has a unix endpoint");
    };
    let mut stream = UnixStream::connect(socket).expect("daemon accepts");
    let mut reader = BufReader::new(stream.try_clone().expect("stream clones"));
    let mut send = |request: &str| roundtrip(&mut stream, &mut reader, request);

    let upload =
        send(r#"{"op":"upload-graph","edges":"0 1\n1 2\n2 3\n3 0\n0 2\n1 3\n4 0\n4 2\n"}"#);
    let graph = field(&upload, "graph");
    send(&format!(
        r#"{{"op":"symmetrize","graph":"{graph}","method":"bib"}}"#
    ));
    let cluster = send(&format!(
        r#"{{"op":"cluster","graph":"{graph}","method":"aat","algo":"metis","k":2}}"#
    ));
    let key = field(&cluster, "key");
    send(&format!(
        r#"{{"op":"query-membership","key":"{key}","node":0}}"#
    ));
    send(r#"{"op":"symmetrize","graph":"00000000000000ff","method":"aat"}"#);
    send(r#"{"op":"no-such-op"}"#);
    send(r#"{"op":"stats"}"#);
    send(r#"{"op":"health"}"#);
    drop(reader);
    drop(stream);
    server.shutdown();
    let snapshot = server.metrics().snapshot();
    server.join();
    std::fs::remove_dir_all(&dir).ok();

    for name in [
        "serve.requests",
        "serve.errors",
        "store.puts",
        "serve.service.cluster",
    ] {
        assert!(
            snapshot.counter(name).is_some() || snapshot.span(name).is_some(),
            "the session never reached {name}: {snapshot:?}"
        );
    }
    let undeclared = undeclared_names(&snapshot);
    assert!(
        undeclared.is_empty(),
        "names with no metric_names constant or documented family: {undeclared:?}"
    );
}

/// Every `ErrorCode`, in declaration order. Each arm names the variant
/// after it, and the `match` is exhaustive, so a new variant does not
/// compile until it is linked into this walk.
fn every_error_code() -> Vec<ErrorCode> {
    let mut codes = Vec::new();
    let mut next = Some(ErrorCode::BadRequest);
    while let Some(code) = next {
        codes.push(code);
        next = match code {
            ErrorCode::BadRequest => Some(ErrorCode::NotFound),
            ErrorCode::NotFound => Some(ErrorCode::Overloaded),
            ErrorCode::Overloaded => Some(ErrorCode::Deadline),
            ErrorCode::Deadline => Some(ErrorCode::Cancelled),
            ErrorCode::Cancelled => Some(ErrorCode::Internal),
            ErrorCode::Internal => None,
        };
    }
    codes
}

#[test]
fn error_codes_match_the_design_table_both_ways() {
    let table = between(DESIGN, "\n### Error codes\n", "\n#");
    let documented: BTreeSet<&str> = table
        .lines()
        .filter(|line| line.starts_with('|'))
        .filter_map(|row| row.split('`').nth(1))
        .collect();
    let codes: BTreeSet<&str> = every_error_code()
        .into_iter()
        .map(ErrorCode::as_str)
        .collect();
    assert_eq!(
        codes.len(),
        every_error_code().len(),
        "two codes share a wire name"
    );
    let undocumented: Vec<_> = codes.difference(&documented).collect();
    let phantom: Vec<_> = documented.difference(&codes).collect();
    assert!(
        undocumented.is_empty() && phantom.is_empty(),
        "error codes missing from the DESIGN.md §14 table: {undocumented:?}; \
         table rows with no ErrorCode: {phantom:?}"
    );
}
