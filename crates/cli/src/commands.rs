//! Subcommand implementations for the `symclust` CLI.

use crate::args::ParsedArgs;
use crate::formats;
use crate::protocol;
use crate::server::{BindAddr, ServeOptions, Server};
use symclust_core::{
    select_threshold, BibliometricOptions, DegreeDiscountedOptions, DiscountExponent,
};
use symclust_engine::{
    print_records, select_thresholds, Clusterer, Engine, EngineOptions, PipelineInput,
    PipelineSpec, RetryPolicy, SymMethod,
};
use symclust_eval::avg_f_score;
use symclust_graph::generators::{
    kronecker_graph, shared_link_dsbm, KroneckerConfig, SharedLinkDsbmConfig,
};
use symclust_graph::stats::GraphStats;
use symclust_graph::{io, DiGraph, GroundTruth, UnGraph};
use symclust_sparse::Tuning;

type CmdResult = Result<(), String>;

/// Default symmetry tolerance for `read_ungraph`, overridable per
/// subcommand with `--tolerance`.
const DEFAULT_SYMMETRY_TOLERANCE: f64 = 1e-9;

fn read_digraph(path: &str) -> Result<DiGraph, String> {
    io::read_edge_list_file(path).map_err(|e| format!("reading {path}: {e}"))
}

fn read_ungraph(path: &str, tolerance: f64) -> Result<UnGraph, String> {
    let g = read_digraph(path)?;
    // Symmetrized edge lists store both directions; accept either and
    // symmetrize structurally if needed.
    let adj = g.into_adjacency();
    if adj.validate_symmetric().is_ok() {
        // Already bit-identical to its mirror: pass through untouched.
        Ok(UnGraph::from_symmetric_unchecked(adj))
    } else if adj.is_symmetric(tolerance) {
        // Asymmetry within the user's tolerance is numerical noise:
        // canonicalize to (A + Aᵀ)/2 so downstream code sees an exactly
        // symmetric matrix.
        let t = symclust_sparse::ops::transpose(&adj);
        let avg = symclust_sparse::ops::add_scaled(&adj, 0.5, &t, 0.5)
            .map_err(|e| format!("symmetrizing {path}: {e}"))?;
        Ok(UnGraph::from_symmetric_unchecked(avg))
    } else {
        Err(format!(
            "{path} is not symmetric (max asymmetry {:.3e} exceeds tolerance {tolerance:.3e}) — \
             run `symclust symmetrize` first, or raise --tolerance if the \
             asymmetry is numerical noise",
            adj.max_asymmetry()
        ))
    }
}

/// Builds the synthetic dataset selected by `--model`/`--nodes`/`--seed`
/// (shared by `generate` and `pipeline`). Returns the model name with the
/// graph and optional ground truth.
fn build_model(args: &ParsedArgs) -> Result<(String, DiGraph, Option<GroundTruth>), String> {
    let model = args.get_or("model", "dsbm".to_string())?;
    let seed: u64 = args.get_or("seed", 42u64)?;
    let nodes: Option<usize> = args.get("nodes")?;

    let (graph, truth): (DiGraph, Option<GroundTruth>) = match model.as_str() {
        "dsbm" => {
            let cfg = SharedLinkDsbmConfig {
                n_nodes: nodes.unwrap_or(1000),
                n_clusters: args.get_or("clusters", 20usize)?,
                seed,
                ..Default::default()
            };
            let g = shared_link_dsbm(&cfg).map_err(|e| e.to_string())?;
            (g.graph, Some(g.truth))
        }
        "kronecker" => {
            let cfg = KroneckerConfig {
                levels: args.get_or("levels", 12u32)?,
                n_edges: args.get_or("edges", 40_000usize)?,
                seed,
                ..Default::default()
            };
            (kronecker_graph(&cfg).map_err(|e| e.to_string())?, None)
        }
        "cora" => {
            let d = symclust_datasets::cora_like_scaled(nodes.unwrap_or(2100));
            (d.graph, d.truth)
        }
        "wikipedia" => {
            let d = symclust_datasets::wikipedia_like_scaled(nodes.unwrap_or(9000));
            (d.graph, d.truth)
        }
        "flickr" => {
            let d = symclust_datasets::flickr_like_scaled(nodes.unwrap_or(15_000));
            (d.graph, d.truth)
        }
        "livejournal" => {
            let d = symclust_datasets::livejournal_like_scaled(nodes.unwrap_or(20_000));
            (d.graph, d.truth)
        }
        other => return Err(format!("unknown model '{other}'")),
    };
    Ok((model, graph, truth))
}

/// `symclust generate`.
pub fn generate(args: &ParsedArgs) -> CmdResult {
    let output = args.required("output")?;
    let (model, graph, truth) = build_model(args)?;
    io::write_edge_list_file(&graph, output).map_err(|e| e.to_string())?;
    println!(
        "wrote {} nodes / {} edges to {output}",
        graph.n_nodes(),
        graph.n_edges()
    );
    if let Some(truth_path) = args.optional("truth") {
        match truth {
            Some(t) => {
                let file = std::fs::File::create(truth_path).map_err(|e| e.to_string())?;
                formats::write_ground_truth(&t, file)?;
                println!("wrote {} categories to {truth_path}", t.n_categories());
            }
            None => return Err(format!("model '{model}' has no ground truth")),
        }
    }
    Ok(())
}

/// `symclust stats`.
pub fn stats(args: &ParsedArgs) -> CmdResult {
    let g = read_digraph(args.required("input")?)?;
    let s = GraphStats::of(&g);
    println!("nodes:              {}", s.n_nodes);
    println!("edges:              {}", s.n_edges);
    println!("% symmetric links:  {:.1}", s.percent_symmetric);
    println!("max in-degree:      {}", s.max_in_degree);
    println!("max out-degree:     {}", s.max_out_degree);
    println!("mean total degree:  {:.2}", s.mean_degree);
    println!(
        "similarity flops:   {} (Σ dᵢ², §3.6 cost bound)",
        g.similarity_flops()
    );
    Ok(())
}

/// Maps a CLI method name onto the engine's [`SymMethod`] registry.
fn parse_sym_method(
    method: &str,
    alpha: f64,
    beta: f64,
    threshold: f64,
) -> Result<SymMethod, String> {
    match method {
        "aat" => Ok(SymMethod::PlusTranspose),
        "rw" => Ok(SymMethod::RandomWalk),
        "bib" => Ok(SymMethod::Bibliometric { threshold }),
        "dd" => Ok(SymMethod::DegreeDiscounted {
            alpha,
            beta,
            threshold,
        }),
        other => Err(format!("unknown method '{other}' (aat|rw|bib|dd)")),
    }
}

/// `symclust symmetrize`.
pub fn symmetrize(args: &ParsedArgs) -> CmdResult {
    let g = read_digraph(args.required("input")?)?;
    let output = args.required("output")?;
    let method = args.get_or("method", "dd".to_string())?;
    let alpha: f64 = args.get_or("alpha", 0.5)?;
    let beta: f64 = args.get_or("beta", 0.5)?;
    let mut threshold: f64 = args.get_or("threshold", 0.0)?;

    // §5.3.1 sample-based threshold selection when a target degree is given.
    if let Some(target) = args.get::<f64>("target-degree")? {
        let opts = match method.as_str() {
            "bib" => BibliometricOptions::default().as_degree_discounted(),
            _ => DegreeDiscountedOptions {
                alpha: DiscountExponent::Power(alpha),
                beta: DiscountExponent::Power(beta),
                ..Default::default()
            },
        };
        threshold = select_threshold(&g, &opts, target, 120, 7)
            .map_err(|e| e.to_string())?
            .threshold;
        println!("selected threshold {threshold:.6} for target degree {target}");
    }

    // Construction is delegated to the engine's method registry so the
    // CLI, bench harness, and pipeline executor share one factory.
    let sym = parse_sym_method(&method, alpha, beta, threshold)?
        .build(None, &Tuning::default())
        .symmetrize(&g)
        .map_err(|e| e.to_string())?;

    let out_graph = DiGraph::from_adjacency(sym.adjacency().clone()).map_err(|e| e.to_string())?;
    io::write_edge_list_file(&out_graph, output).map_err(|e| e.to_string())?;
    println!(
        "{}: {} undirected edges, {} singletons, {:.3}s -> {output}",
        sym.method(),
        sym.n_edges(),
        sym.n_singletons(),
        sym.elapsed().as_secs_f64()
    );
    Ok(())
}

/// `symclust cluster`.
pub fn cluster(args: &ParsedArgs) -> CmdResult {
    let tolerance: f64 = args.get_or("tolerance", DEFAULT_SYMMETRY_TOLERANCE)?;
    let g = read_ungraph(args.required("input")?, tolerance)?;
    let output = args.required("output")?;
    let algo = args.get_or("algo", "mlrmcl".to_string())?;
    let k: usize = args.get_or("k", 0usize)?;
    if k == 0 && matches!(algo.as_str(), "metis" | "graclus") {
        return Err(format!("--k is required for {algo}"));
    }
    // The paper's three clusterers, from the engine's registry.
    let clustering = match algo.as_str() {
        "mlrmcl" => {
            let inflation: f64 = args.get_or("inflation", 2.0)?;
            Clusterer::MlrMcl { inflation }.build().cluster_ungraph(&g)
        }
        "metis" => Clusterer::Metis { k }.build().cluster_ungraph(&g),
        "graclus" => Clusterer::Graclus { k }.build().cluster_ungraph(&g),
        other => {
            return Err(format!(
                "unknown algorithm '{other}' (expected mlrmcl|metis|graclus)"
            ))
        }
    }
    .map_err(|e| e.to_string())?;
    let file = std::fs::File::create(output).map_err(|e| e.to_string())?;
    formats::write_clustering(clustering.assignments(), file)?;
    println!(
        "{algo}: {} clusters over {} nodes -> {output}",
        clustering.n_clusters(),
        clustering.n_nodes()
    );
    Ok(())
}

/// `symclust pipeline`: run a full symmetrization × clusterer sweep
/// through the concurrent engine, rendering structured events live.
pub fn pipeline(args: &ParsedArgs) -> CmdResult {
    // Dataset: an edge list (with optional ground truth) or a synthetic model.
    let (name, graph, truth) = if let Some(input) = args.optional("input") {
        let g = read_digraph(input)?;
        let truth = match args.optional("truth") {
            Some(path) => {
                let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
                Some(formats::read_ground_truth(file, g.n_nodes())?)
            }
            None => None,
        };
        (input.to_string(), g, truth)
    } else {
        build_model(args)?
    };

    // Thresholds for the similarity methods: sample-selected toward a
    // target average degree, or fixed via --threshold (default 0 = keep all).
    let (bib_t, dd_t) = match args.get::<f64>("target-degree")? {
        Some(target) => {
            let (bib_t, dd_t) = select_thresholds(&graph, target).map_err(|e| e.to_string())?;
            println!("selected thresholds: bibliometric {bib_t:.6}, degree-discounted {dd_t:.6}");
            (bib_t, dd_t)
        }
        None => {
            let t: f64 = args.get_or("threshold", 0.0)?;
            (t, t)
        }
    };

    let k_default = truth
        .as_ref()
        .map(|t| t.n_categories())
        .filter(|&k| k > 1)
        .unwrap_or(20);
    let k: usize = args.get_or("k", k_default)?;
    let inflation: f64 = args.get_or("inflation", 2.0)?;
    let clusterer_list = args.get_or("clusterers", "mlrmcl,metis".to_string())?;
    let mut clusterers = Vec::new();
    for c in clusterer_list.split(',').filter(|s| !s.trim().is_empty()) {
        clusterers.push(match c.trim() {
            "mlrmcl" => Clusterer::MlrMcl { inflation },
            "metis" => Clusterer::Metis { k },
            "graclus" => Clusterer::Graclus { k },
            other => {
                return Err(format!(
                    "unknown clusterer '{other}' (mlrmcl|metis|graclus)"
                ))
            }
        });
    }
    if clusterers.is_empty() {
        return Err("--clusterers must name at least one of mlrmcl|metis|graclus".into());
    }

    let spec = PipelineSpec {
        methods: SymMethod::lineup(bib_t, dd_t),
        clusterers,
        extra_prune: args.get::<f64>("prune")?,
    };
    let retries: usize = args.get_or("retries", RetryPolicy::default().max_attempts)?;
    if retries == 0 {
        return Err("--retries must be at least 1 (it counts total attempts)".into());
    }
    // The two `--sym-*` flags override the environment's tuning, field by
    // field, so `--sym-panel-rows` composes with a spill budget set in
    // `SYMCLUST_MEMORY_BUDGET`.
    let mut tuning = Tuning::from_env();
    if let Some(threads) = args.get("sym-threads")? {
        tuning.threads = threads;
    }
    if let Some(rows) = args.get("sym-panel-rows")? {
        tuning.panel.panel_rows = Some(rows);
    }
    let opts = EngineOptions {
        threads: args.get_or("threads", 0usize)?,
        stage_deadline: args
            .get::<f64>("timeout-secs")?
            .map(std::time::Duration::from_secs_f64),
        retry: RetryPolicy {
            max_attempts: retries,
            ..Default::default()
        },
        memory_budget: args.get::<usize>("memory-budget")?,
        tuning,
        journal: args.optional("resume").map(std::path::PathBuf::from),
        metrics: None,
        paranoid: args.get_or("paranoid", false)?,
    };
    let quiet: bool = args.get_or("quiet", false)?;

    let engine = Engine::new(opts);
    let input = PipelineInput::new(name, graph, truth);
    let event_log = std::sync::Mutex::new(String::new());
    let run_start = std::time::Instant::now();
    let result = engine.run(&input, &spec, &|e| {
        if !quiet {
            println!("{}", e.render());
        }
        let mut buf = event_log.lock().unwrap();
        buf.push_str(&e.to_json());
        buf.push('\n');
    });
    let wall_secs = run_start.elapsed().as_secs_f64();

    if let Some(path) = args.optional("events") {
        std::fs::write(path, event_log.into_inner().unwrap())
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote event stream to {path}");
    }
    if let Some(path) = args.optional("records") {
        let mut out = String::new();
        for r in &result.records {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        std::fs::write(path, out).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {} records to {path}", result.records.len());
    }

    if args.get_or("metrics", false)? {
        println!("\n{}", result.metrics.render_table());
        let fallbacks = result
            .metrics
            .counter("spgemm.degraded_fallbacks")
            .unwrap_or(0);
        let steals = result.metrics.counter("spgemm.sched_steals");
        if let Some(steals) = steals {
            println!(
                "(work-stealing scheduler: {steals} row block(s) stolen across parallel \
                 SpGEMM calls; 0 means the static split was already balanced)"
            );
        }
        if fallbacks > 0 {
            println!(
                "warning: {fallbacks} SpGEMM product(s) exceeded the memory \
                 budget and fell back to adaptive thresholding (degraded \
                 results; see spgemm.budget_compactions)"
            );
        }
    }
    if let Some(path) = args.optional("metrics-out") {
        // The stable flat key scheme (DESIGN.md §11) — tests/golden_counts.rs
        // pins its deterministic counters — plus the run's wall time.
        let mut obj = symclust_engine::json::JsonObject::new();
        for (key, value) in result.metrics.to_flat() {
            obj.number(&key, value);
        }
        obj.number("wall_secs", wall_secs);
        std::fs::write(path, obj.finish()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote metrics to {path}");
    }

    print_records("pipeline results", &result.records);
    println!(
        "\ncache: {} hits / {} misses ({} deduplicated in flight); \
         stages skipped: {}; chains resumed: {}",
        result.cache.hits, result.cache.misses, result.cache.dedups, result.skipped, result.resumed
    );
    let degraded = result.records.iter().filter(|r| r.degraded).count();
    if degraded > 0 {
        println!(
            "{degraded} record(s) ran in degraded (budget-limited) mode — \
             see the notes column"
        );
    }
    for (label, err) in &result.failures {
        eprintln!("warning: stage `{label}` failed: {err}");
    }
    if result.records.is_empty() {
        if let Some((label, err)) = result.failures.first() {
            return Err(format!(
                "no chain completed; first failure: `{label}`: {err}"
            ));
        }
        if result.skipped > 0 {
            return Err("no chain completed within the per-stage deadline".into());
        }
    }
    Ok(())
}

/// `symclust eval`.
pub fn eval(args: &ParsedArgs) -> CmdResult {
    let clusters_path = args.required("clusters")?;
    let truth_path = args.required("truth")?;
    let assignments =
        formats::read_clustering(std::fs::File::open(clusters_path).map_err(|e| e.to_string())?)?;
    let truth = formats::read_ground_truth(
        std::fs::File::open(truth_path).map_err(|e| e.to_string())?,
        assignments.len(),
    )?;
    let report = avg_f_score(&assignments, &truth);
    println!("clusters:          {}", report.n_clusters);
    println!("avg F-score:       {:.2}", report.avg_f);
    let matched = report.best_match.iter().filter(|m| m.is_some()).count();
    println!("matched clusters:  {matched}/{}", report.n_clusters);
    Ok(())
}

/// `symclust serve`: run the clustering daemon until a `shutdown`
/// request, SIGTERM/SIGINT (both drain: admitted work finishes, stats
/// persist, the socket is unlinked), or SIGKILL (the store recovers
/// stale temp files on reopen).
pub fn serve(args: &ParsedArgs) -> CmdResult {
    let bind = match (args.optional("socket"), args.optional("tcp")) {
        (Some(_), Some(_)) => return Err("--socket and --tcp are mutually exclusive".into()),
        (None, Some(addr)) => BindAddr::Tcp(addr.to_string()),
        (socket, None) => BindAddr::Unix(socket.unwrap_or("symclust.sock").into()),
    };
    let opts = ServeOptions {
        bind,
        store_dir: args.optional("store").unwrap_or(".symclust-store").into(),
        workers: args.get_or("workers", 2usize)?,
        queue_cap: args.get_or("queue-cap", 64usize)?,
        default_timeout_ms: args.get::<u64>("timeout-ms")?,
        store_budget_bytes: args.get::<u64>("store-budget-bytes")?,
        drain_ms: args.get_or("drain-ms", 2000u64)?,
        read_timeout_ms: args.get::<u64>("read-timeout-ms")?,
    };
    crate::server::signals::install();
    let daemon = Server::start(opts)?;
    daemon.drain_on_termination();
    // The ready line is what scripts wait for; flush past any pipe
    // buffering before blocking in join.
    println!("symclust serve: listening on {}", daemon.endpoint());
    let _ = std::io::Write::flush(&mut std::io::stdout());
    daemon.join();
    println!("symclust serve: shut down");
    Ok(())
}

/// `symclust client`: send one request line to a running daemon and
/// print the raw response line. Exits nonzero when the daemon answers
/// with an error response.
///
/// Transient failures — a refused/absent socket, or an `overloaded`
/// pushback — are retried up to `--retries` total attempts with the
/// engine's deterministic exponential backoff ([`RetryPolicy`]); an
/// `overloaded` response's `retry-after-ms` hint is honored as a floor
/// on the delay. Errors *after* the request was sent are never retried
/// (the op may have executed).
pub fn client(args: &ParsedArgs) -> CmdResult {
    let line = match args.optional("json") {
        Some(j) => j.to_string(),
        None => build_request_line(args)?,
    };
    // Parse locally first so a typo fails with the protocol's own
    // message instead of a daemon round-trip.
    protocol::parse_request(&line).map_err(|e| format!("bad request: {e}"))?;
    let retries: usize = args.get_or("retries", RetryPolicy::default().max_attempts)?;
    if retries == 0 {
        return Err("--retries must be at least 1 (it counts total attempts)".into());
    }
    let policy = RetryPolicy {
        max_attempts: retries,
        ..Default::default()
    };
    let mut attempt = 1usize;
    let response = loop {
        match client_send_once(args, &line) {
            Ok(response) => match overloaded_retry_after(&response) {
                Some(hint_ms) if attempt < retries => {
                    let delay = policy.delay_ms(0, attempt).max(hint_ms);
                    eprintln!(
                        "daemon overloaded; retrying in {delay} ms (attempt {attempt}/{retries})"
                    );
                    std::thread::sleep(std::time::Duration::from_millis(delay));
                    attempt += 1;
                }
                _ => break response,
            },
            Err(e) if attempt < retries && e.starts_with("connecting to") => {
                let delay = policy.delay_ms(0, attempt);
                eprintln!("{e}; retrying in {delay} ms (attempt {attempt}/{retries})");
                std::thread::sleep(std::time::Duration::from_millis(delay));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    };
    println!("{response}");
    let fields = symclust_engine::json::parse_object(&response)
        .map_err(|e| format!("unparseable response: {e}"))?;
    if fields
        .get("ok")
        .and_then(symclust_engine::json::JsonValue::as_bool)
        == Some(true)
    {
        Ok(())
    } else {
        Err(fields
            .get("detail")
            .and_then(symclust_engine::json::JsonValue::as_str)
            .unwrap_or("server returned an error")
            .to_string())
    }
}

/// One connect-send-receive round: connection failures come back with a
/// "connecting to" prefix so the retry loop can tell them apart from
/// post-send failures (which must not be retried).
fn client_send_once(args: &ParsedArgs, line: &str) -> Result<String, String> {
    match (args.optional("socket"), args.optional("tcp")) {
        (Some(_), Some(_)) => Err("--socket and --tcp are mutually exclusive".into()),
        (None, Some(addr)) => {
            let stream = std::net::TcpStream::connect(addr)
                .map_err(|e| format!("connecting to {addr}: {e}"))?;
            request_response(stream, line)
        }
        (socket, None) => {
            let path = socket.unwrap_or("symclust.sock");
            let stream = std::os::unix::net::UnixStream::connect(path)
                .map_err(|e| format!("connecting to {path}: {e}"))?;
            request_response(stream, line)
        }
    }
}

/// If `response` is an `overloaded` error line, returns its
/// `retry-after-ms` hint (falling back to the protocol default).
fn overloaded_retry_after(response: &str) -> Option<u64> {
    let fields = symclust_engine::json::parse_object(response).ok()?;
    if fields
        .get("error")
        .and_then(symclust_engine::json::JsonValue::as_str)
        != Some("overloaded")
    {
        return None;
    }
    Some(
        fields
            .get("retry-after-ms")
            .and_then(symclust_engine::json::JsonValue::as_f64)
            .map_or(protocol::RETRY_AFTER_MS, |ms| ms.max(0.0) as u64),
    )
}

fn request_response<S: std::io::Read + std::io::Write>(
    mut stream: S,
    line: &str,
) -> Result<String, String> {
    use std::io::BufRead;
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .and_then(|()| stream.flush())
        .map_err(|e| format!("sending request: {e}"))?;
    let mut response = String::new();
    std::io::BufReader::new(stream)
        .read_line(&mut response)
        .map_err(|e| format!("reading response: {e}"))?;
    let response = response.trim_end();
    if response.is_empty() {
        return Err("daemon closed the connection without responding".into());
    }
    Ok(response.to_string())
}

/// Builds a request line from `--op` plus op-specific flags (the
/// flag-based alternative to passing `--json` verbatim).
fn build_request_line(args: &ParsedArgs) -> Result<String, String> {
    let op = args.required("op")?;
    let mut obj = symclust_engine::json::JsonObject::new();
    obj.string("op", op);
    if let Some(id) = args.optional("id") {
        obj.string("id", id);
    }
    if let Some(t) = args.get::<u64>("timeout-ms")? {
        obj.number("timeout-ms", t as f64);
    }
    match op {
        "upload-graph" => {
            let path = args.required("edges-file")?;
            let edges =
                std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            obj.string("edges", &edges);
        }
        "symmetrize" | "cluster" => {
            obj.string("graph", args.required("graph")?);
            obj.string("method", args.optional("method").unwrap_or("aat"));
            for key in ["alpha", "beta", "threshold", "inflation"] {
                if let Some(v) = args.get::<f64>(key)? {
                    obj.number(key, v);
                }
            }
            for key in ["budget", "k"] {
                if let Some(v) = args.get::<u64>(key)? {
                    obj.number(key, v as f64);
                }
            }
            if op == "cluster" {
                obj.string("algo", args.optional("algo").unwrap_or("mlrmcl"));
            }
        }
        "query-membership" => {
            obj.string("key", args.required("key")?);
            obj.number("node", args.get_or("node", 0usize)? as f64);
        }
        "stats" | "health" | "shutdown" => {}
        other => return Err(format!("unknown op '{other}' for --op")),
    }
    Ok(obj.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(pairs: &[(&str, &str)]) -> ParsedArgs {
        let flat: Vec<String> = pairs
            .iter()
            .flat_map(|(k, v)| [format!("--{k}"), v.to_string()])
            .collect();
        ParsedArgs::parse(&flat).unwrap()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("symclust_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn full_cli_pipeline() {
        let edges = tmp("edges.txt");
        let truth = tmp("truth.txt");
        let sym = tmp("sym.txt");
        let clusters = tmp("clusters.txt");

        generate(&args(&[
            ("model", "dsbm"),
            ("nodes", "300"),
            ("clusters", "6"),
            ("output", &edges),
            ("truth", &truth),
        ]))
        .unwrap();
        stats(&args(&[("input", &edges)])).unwrap();
        symmetrize(&args(&[
            ("input", &edges),
            ("method", "dd"),
            ("output", &sym),
        ]))
        .unwrap();
        cluster(&args(&[
            ("input", &sym),
            ("algo", "metis"),
            ("k", "6"),
            ("output", &clusters),
        ]))
        .unwrap();
        eval(&args(&[("clusters", &clusters), ("truth", &truth)])).unwrap();
    }

    #[test]
    fn symmetrize_with_target_degree() {
        let edges = tmp("edges2.txt");
        let sym = tmp("sym2.txt");
        generate(&args(&[
            ("model", "dsbm"),
            ("nodes", "300"),
            ("output", &edges),
        ]))
        .unwrap();
        symmetrize(&args(&[
            ("input", &edges),
            ("method", "dd"),
            ("target-degree", "20"),
            ("output", &sym),
        ]))
        .unwrap();
        let g = read_ungraph(&sym, DEFAULT_SYMMETRY_TOLERANCE).unwrap();
        let avg = 2.0 * g.n_edges() as f64 / g.n_nodes() as f64;
        assert!(avg < 60.0, "avg degree {avg} far above target");
    }

    #[test]
    fn cluster_rejects_asymmetric_input() {
        let edges = tmp("edges3.txt");
        // A deliberately asymmetric edge list.
        std::fs::write(&edges, "0 1\n1 2\n").unwrap();
        let err = cluster(&args(&[
            ("input", &edges),
            ("algo", "metis"),
            ("k", "2"),
            ("output", &tmp("never.txt")),
        ]))
        .unwrap_err();
        assert!(err.contains("not symmetric"), "{err}");
        // The diagnostic reports how asymmetric the input actually is.
        assert!(err.contains("max asymmetry"), "{err}");
        assert!(err.contains("1.000e0") || err.contains("1e0"), "{err}");
    }

    #[test]
    fn cluster_tolerance_flag_admits_near_symmetric_input() {
        let edges = tmp("edges_tol.txt");
        // Symmetric structure with a small numeric mismatch: asymmetry
        // |1.0 − 1.0001| well under a loose tolerance.
        std::fs::write(&edges, "0 1 1.0\n1 0 1.0001\n1 2 2.0\n2 1 2.0\n").unwrap();
        let strict = cluster(&args(&[
            ("input", &edges),
            ("algo", "metis"),
            ("k", "2"),
            ("output", &tmp("never2.txt")),
        ]))
        .unwrap_err();
        assert!(strict.contains("not symmetric"), "{strict}");
        cluster(&args(&[
            ("input", &edges),
            ("algo", "metis"),
            ("k", "2"),
            ("tolerance", "0.01"),
            ("output", &tmp("tol_clusters.txt")),
        ]))
        .unwrap();
    }

    #[test]
    fn near_symmetric_input_within_the_default_tolerance_is_canonicalized() {
        let edges = tmp("edges_ulps.txt");
        // Asymmetry ≈ 1e-13: inside the default tolerance, yet not the
        // bit-identical mirror every clusterer's input must be.
        std::fs::write(&edges, "0 1 1.0\n1 0 1.0000000000001\n").unwrap();
        let g = read_ungraph(&edges, DEFAULT_SYMMETRY_TOLERANCE).unwrap();
        g.adjacency().validate_symmetric().unwrap();
        let mean = 0.5 * 1.0f64 + 0.5 * 1.0000000000001f64;
        assert_eq!(g.weight(0, 1).to_bits(), mean.to_bits());
        assert_eq!(g.weight(1, 0).to_bits(), mean.to_bits());
    }

    #[test]
    fn pipeline_sweeps_and_writes_events_and_records() {
        let events = tmp("pipeline_events.jsonl");
        let records = tmp("pipeline_records.jsonl");
        pipeline(&args(&[
            ("model", "dsbm"),
            ("nodes", "300"),
            ("clusters", "6"),
            ("clusterers", "metis,graclus"),
            ("quiet", "true"),
            ("events", &events),
            ("records", &records),
        ]))
        .unwrap();
        // 4 methods × 2 clusterers = 8 records; cache hits keep the
        // symmetrizations at 4 computations.
        let recs = std::fs::read_to_string(&records).unwrap();
        assert_eq!(recs.lines().count(), 8, "{recs}");
        assert!(recs.lines().all(|l| l.contains("\"f_score\":")));
        let evs = std::fs::read_to_string(&events).unwrap();
        let hits = evs.lines().filter(|l| l.contains("\"cache_hit\"")).count();
        assert_eq!(hits, 4, "{evs}");
        assert!(evs.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn pipeline_metrics_table_and_json_cover_all_layers() {
        let metrics_out = tmp("pipeline_metrics.json");
        // Bare switches: `--metrics` with no value, as on a real command
        // line (`symclust pipeline --metrics --metrics-out m.json`).
        let flat: Vec<String> = [
            "--model",
            "dsbm",
            "--nodes",
            "300",
            "--clusters",
            "6",
            "--clusterers",
            "mlrmcl,metis",
            "--quiet",
            "--metrics",
            "--metrics-out",
            &metrics_out,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        pipeline(&ParsedArgs::parse(&flat).unwrap()).unwrap();

        let json = std::fs::read_to_string(&metrics_out).unwrap();
        let obj = symclust_engine::json::parse_object(&json).unwrap();
        let num = |key: &str| -> f64 {
            obj.get(key)
                .unwrap_or_else(|| panic!("missing key {key} in {json}"))
                .as_f64()
                .unwrap()
        };
        // SpGEMM work counters from the similarity symmetrizations:
        // bibliometric + degree-discounted are one fused two-term SYRK
        // product each (DESIGN.md §12).
        assert!(num("counter.spgemm.flops") > 0.0);
        assert!(num("counter.spgemm.nnz_final") > 0.0);
        assert!(num("counter.spgemm.calls") >= 2.0);
        assert_eq!(num("counter.spgemm.syrk_calls"), 2.0);
        assert!(num("counter.spgemm.syrk_mirrored_nnz") > 0.0);
        // Engine cache counters: 4 methods × 2 clusterers, each
        // symmetrization computed once.
        assert_eq!(num("counter.engine.cache_misses"), 4.0);
        assert_eq!(num("counter.engine.cache_hits"), 4.0);
        // Per-stage span timings and the run wall time.
        for kind in ["load", "symmetrize", "cluster", "evaluate"] {
            assert!(num(&format!("span.stage.{kind}.count")) > 0.0);
            assert!(num(&format!("span.stage.{kind}.total_secs")) >= 0.0);
        }
        assert!(num("wall_secs") > 0.0);
        // MCL counters from the mlrmcl chains.
        assert_eq!(num("counter.mcl.runs"), 4.0);
    }

    #[test]
    fn sym_flags_fill_the_tuning_and_zero_panel_rows_is_no_preference() {
        let counters = |name: &str, flags: &[&str]| {
            let out = tmp(name);
            let mut flat: Vec<String> = [
                "--model",
                "dsbm",
                "--nodes",
                "200",
                "--clusters",
                "4",
                "--clusterers",
                "metis",
                "--quiet",
                "--metrics-out",
                &out,
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            flat.extend(flags.iter().map(|s| s.to_string()));
            pipeline(&ParsedArgs::parse(&flat).unwrap()).unwrap();
            let obj = symclust_engine::json::parse_object(&std::fs::read_to_string(&out).unwrap())
                .unwrap();
            move |key: &str| obj[key].as_f64().unwrap()
        };
        // `0` means "no preference" however it is spelled (flag, env var,
        // struct literal): the sweep stays in memory.
        let zero = counters("tuning_zero.json", &["--sym-panel-rows", "0"]);
        assert_eq!(zero("counter.spgemm.panels"), 0.0);
        assert!(zero("counter.spgemm.rows") > 0.0);
        let tuned = counters(
            "tuning_flags.json",
            &["--sym-panel-rows", "64", "--sym-threads", "2"],
        );
        assert!(tuned("counter.spgemm.panels") > 2.0);
        for key in ["counter.spgemm.rows", "counter.spgemm.nnz_final"] {
            assert_eq!(tuned(key), zero(key), "{key}");
        }
    }

    #[test]
    fn paranoid_validation_is_pure_observation() {
        // DESIGN.md §13: `--paranoid` re-validates every symmetrize/prune
        // output but must not observably change the run — zero new
        // metrics keys (so the golden-counts projection is untouched)
        // and bit-identical deterministic counters.
        let run = |paranoid: bool, out: &str| {
            let mut flat: Vec<String> = [
                "--model",
                "dsbm",
                "--nodes",
                "200",
                "--clusters",
                "4",
                "--clusterers",
                "metis",
                "--quiet",
                "--metrics-out",
                out,
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            if paranoid {
                flat.push("--paranoid".to_string());
            }
            pipeline(&ParsedArgs::parse(&flat).unwrap()).unwrap();
        };
        let plain_out = tmp("metrics_plain.json");
        let paranoid_out = tmp("metrics_paranoid.json");
        run(false, &plain_out);
        run(true, &paranoid_out);
        let parse = |path: &str| {
            symclust_engine::json::parse_object(&std::fs::read_to_string(path).unwrap()).unwrap()
        };
        let plain = parse(&plain_out);
        let paranoid = parse(&paranoid_out);

        let keys = |m: &std::collections::HashMap<String, symclust_engine::json::JsonValue>| {
            let mut k: Vec<String> = m.keys().cloned().collect();
            k.sort();
            k
        };
        assert_eq!(
            keys(&plain),
            keys(&paranoid),
            "--paranoid changed the metrics key set"
        );

        // Scheduling-dependent counters vary run to run with or without
        // the flag (same exclusions as the golden-counts EXACT_KEYS).
        const SCHEDULING_DEPENDENT: &[&str] = &[
            "counter.spgemm.sched_steals",
            "counter.engine.inflight_dedups",
            "counter.engine.queue_depth_hwm",
        ];
        for (key, value) in &plain {
            if !key.starts_with("counter.") || SCHEDULING_DEPENDENT.contains(&key.as_str()) {
                continue;
            }
            assert_eq!(
                value.as_f64(),
                paranoid[key].as_f64(),
                "counter {key} differs under --paranoid"
            );
        }
    }

    #[test]
    fn pipeline_resume_skips_journaled_chains() {
        let journal = tmp("pipeline_journal.jsonl");
        std::fs::remove_file(&journal).ok();
        let events = tmp("resume_events.jsonl");
        let records = tmp("resume_records.jsonl");
        let base = [
            ("model", "dsbm"),
            ("nodes", "300"),
            ("clusters", "6"),
            ("clusterers", "metis"),
            ("quiet", "true"),
            ("resume", journal.as_str()),
        ];
        pipeline(&args(&base)).unwrap();
        // 4 methods × 1 clusterer = 4 completed chains journaled.
        let journaled = std::fs::read_to_string(&journal).unwrap();
        assert_eq!(journaled.lines().count(), 4, "{journaled}");
        assert!(journaled.lines().all(|l| l.contains("\"chain_key\":")));

        // Second run against the same journal resumes every chain: records
        // are reproduced, but no stage beyond Load executes.
        let mut rerun = base.to_vec();
        rerun.push(("events", events.as_str()));
        rerun.push(("records", records.as_str()));
        pipeline(&args(&rerun)).unwrap();
        let recs = std::fs::read_to_string(&records).unwrap();
        assert_eq!(recs.lines().count(), 4, "{recs}");
        let evs = std::fs::read_to_string(&events).unwrap();
        let resumed = evs
            .lines()
            .filter(|l| l.contains("\"stage_resumed\""))
            .count();
        assert_eq!(resumed, 12, "3 resumed stages per chain:\n{evs}");
        let restarted = evs
            .lines()
            .filter(|l| l.contains("\"stage_started\"") && l.contains("\"symmetrize\""))
            .count();
        assert_eq!(restarted, 0, "no symmetrization may re-execute:\n{evs}");
        std::fs::remove_file(&journal).ok();
    }

    #[test]
    fn pipeline_memory_budget_marks_degraded_records() {
        let records = tmp("budget_records.jsonl");
        pipeline(&args(&[
            ("model", "dsbm"),
            ("nodes", "300"),
            ("clusters", "6"),
            ("clusterers", "metis"),
            ("memory-budget", "100"),
            ("quiet", "true"),
            ("records", &records),
        ]))
        .unwrap();
        let recs = std::fs::read_to_string(&records).unwrap();
        assert_eq!(recs.lines().count(), 4, "{recs}");
        // The two SpGEMM-based similarity methods degrade under a 100-entry
        // budget; A+A' and RW never allocate a product and stay exact.
        let degraded = recs
            .lines()
            .filter(|l| l.contains("\"degraded\":true"))
            .count();
        assert_eq!(degraded, 2, "{recs}");
    }

    #[test]
    fn pipeline_rejects_zero_retries() {
        let err = pipeline(&args(&[
            ("model", "dsbm"),
            ("nodes", "300"),
            ("retries", "0"),
            ("quiet", "true"),
        ]))
        .unwrap_err();
        assert!(err.contains("--retries"), "{err}");
    }

    #[test]
    fn pipeline_rejects_unknown_clusterer() {
        let err = pipeline(&args(&[
            ("model", "dsbm"),
            ("nodes", "300"),
            ("clusterers", "metis,nope"),
            ("quiet", "true"),
        ]))
        .unwrap_err();
        assert!(err.contains("unknown clusterer"), "{err}");
    }

    #[test]
    fn unknown_options_error_cleanly() {
        assert!(generate(&args(&[("model", "nope"), ("output", "x")])).is_err());
        let edges = tmp("edges4.txt");
        std::fs::write(&edges, "0 1\n1 0\n").unwrap();
        assert!(symmetrize(&args(&[
            ("input", &edges),
            ("method", "nope"),
            ("output", &tmp("y.txt")),
        ]))
        .is_err());
        assert!(cluster(&args(&[
            ("input", &edges),
            ("algo", "metis"),
            ("output", &tmp("z.txt")),
        ]))
        .is_err());
    }

    #[test]
    fn kronecker_generate_has_no_truth() {
        let edges = tmp("kron.txt");
        let err = generate(&args(&[
            ("model", "kronecker"),
            ("levels", "8"),
            ("edges", "500"),
            ("output", &edges),
            ("truth", &tmp("kron_truth.txt")),
        ]))
        .unwrap_err();
        assert!(err.contains("no ground truth"), "{err}");
        // Without --truth it succeeds.
        generate(&args(&[
            ("model", "kronecker"),
            ("levels", "8"),
            ("edges", "500"),
            ("output", &edges),
        ]))
        .unwrap();
    }

    #[test]
    fn overloaded_retry_hint_parses_only_overloaded_lines() {
        assert_eq!(
            overloaded_retry_after(
                r#"{"ok":false,"error":"overloaded","retry-after-ms":75,"detail":"x"}"#
            ),
            Some(75)
        );
        assert_eq!(
            overloaded_retry_after(r#"{"ok":false,"error":"overloaded","detail":"x"}"#),
            Some(protocol::RETRY_AFTER_MS)
        );
        assert_eq!(overloaded_retry_after(r#"{"ok":true,"op":"stats"}"#), None);
        assert_eq!(
            overloaded_retry_after(r#"{"ok":false,"error":"internal","detail":"x"}"#),
            None
        );
        assert_eq!(overloaded_retry_after("not json"), None);
    }

    #[test]
    fn client_rejects_zero_retries() {
        let err = client(&args(&[
            ("socket", "/nonexistent/symclust.sock"),
            ("op", "stats"),
            ("retries", "0"),
        ]))
        .unwrap_err();
        assert!(err.contains("--retries"), "{err}");
    }

    #[test]
    fn client_retries_connect_failures_then_gives_up() {
        let sock = tmp("never_served.sock");
        std::fs::remove_file(&sock).ok();
        let start = std::time::Instant::now();
        let err = client(&args(&[
            ("socket", &sock),
            ("op", "stats"),
            ("retries", "2"),
        ]))
        .unwrap_err();
        assert!(err.contains("connecting to"), "{err}");
        // Two attempts means one backoff slept in between (equal jitter
        // keeps it at >= base/2 = 25 ms).
        assert!(
            start.elapsed() >= std::time::Duration::from_millis(25),
            "no backoff happened"
        );
    }

    #[test]
    fn serve_and_client_subcommands_roundtrip() {
        let dir = std::env::temp_dir().join(format!("symclust_cli_serve_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("sock").to_string_lossy().into_owned();
        let store = dir.join("store").to_string_lossy().into_owned();
        let edges = dir.join("edges.txt").to_string_lossy().into_owned();
        std::fs::write(&edges, "0 1\n1 2\n2 0\n").unwrap();

        let daemon = {
            let sock = sock.clone();
            let store = store.clone();
            std::thread::spawn(move || serve(&args(&[("socket", &sock), ("store", &store)])))
        };
        // Wait for the socket to come up.
        for _ in 0..200 {
            if std::os::unix::net::UnixStream::connect(&sock).is_ok() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        client(&args(&[
            ("socket", &sock),
            ("op", "upload-graph"),
            ("edges-file", &edges),
        ]))
        .unwrap();
        client(&args(&[("socket", &sock), ("op", "stats")])).unwrap();
        client(&args(&[("socket", &sock), ("op", "health")])).unwrap();
        // A daemon-side error response makes the client exit nonzero.
        let err = client(&args(&[
            ("socket", &sock),
            (
                "json",
                r#"{"op":"symmetrize","graph":"00000000000000ff","method":"aat"}"#,
            ),
        ]))
        .unwrap_err();
        assert!(err.contains("unknown graph"), "{err}");
        // And so does a locally-invalid request, without a round-trip.
        assert!(client(&args(&[("socket", &sock), ("op", "nope")])).is_err());

        client(&args(&[("socket", &sock), ("op", "shutdown")])).unwrap();
        daemon.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
