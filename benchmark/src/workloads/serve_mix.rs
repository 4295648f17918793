//! `serve-mix`: the daemon — reads beside writes through `cli` and
//! `store`, with one more client than workers so admission order shows.
//!
//! An in-process `Server` on a unix socket, `workers = 1`, default queue,
//! no deadlines; 2 client threads (= `nproc`), one connection each, each
//! waiting for its reply before sending the next request (closed loop).
//! Set-up starts the daemon on a fresh store, uploads a 4 000-node
//! planted-partition graph, computes Degree-discounted (0.01) and Metis
//! (k = 40) cold, keeps the cold responses as references, builds every
//! request string, and sends the untimed warm-up requests. Each
//! connection then sends its pre-generated sequence: 90 %
//! `query-membership`, 4 % `symmetrize` hit, 4 % `cluster` hit, 1 %
//! `upload-graph` of a fresh 400-node graph each directly followed by
//! 1 % `cluster` on it (a miss that runs both kernels and publishes).
//!
//! The median op is a `query-membership` round trip (≈ 0.03 ms, mostly
//! socket wake-ups); the 99th percentile is a `symmetrize` hit or a read
//! queued behind one (≈ 9 ms): 4 % of the requests are ≈ 70 % of the
//! worker's time, because the hit's response re-hashes and re-counts the
//! whole matrix.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

use symclust::graph::io::read_edge_list;
use symclust::graph::DiGraph;
use symclust_cli::server::{ServeOptions, Server};

use crate::harness::{finish_traced, Config, Outcome, Round};
use crate::host::{self, Scratch};
use crate::json;
use crate::replay;
use crate::requests::{
    cluster_request, dsbm_text, sequence, symmetrize_request, upload_request, Class, Mix, Target,
    DD_THRESHOLD,
};
use crate::stats::{median_or_zero, percentile_or_zero};
use crate::trace::{durations_ms, Tracer, NO_SPAN};

const CONNECTIONS: usize = 2;

struct Sizes {
    nodes: usize,
    clusters: usize,
    fresh_nodes: usize,
    fresh_clusters: usize,
    /// Untimed warm-up requests per connection, part of the set-up.
    warm_up: usize,
    /// Timed requests per connection per round.
    timed: usize,
    /// Replay: queries on one connection with no other traffic.
    solo: usize,
}

/// One connection: a request line out, a response line back.
struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    fn connect(socket: &Path) -> Result<Client, String> {
        let writer = UnixStream::connect(socket)
            .map_err(|e| format!("connect {}: {e}", socket.display()))?;
        let reader = BufReader::new(
            writer
                .try_clone()
                .map_err(|e| format!("clone socket: {e}"))?,
        );
        Ok(Client { writer, reader })
    }

    fn round_trip(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::with_capacity(160);
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => {
                response.truncate(response.trim_end().len());
                Ok(response)
            }
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// A round trip whose response must be `"ok":true`.
    fn must(&mut self, line: &str) -> Result<json::Value, String> {
        let response = self.round_trip(line)?;
        let value = json::parse(&response).map_err(|e| format!("response {response}: {e}"))?;
        if value.get("ok").and_then(json::Value::as_bool) != Some(true) {
            return Err(format!(
                "daemon refused {}: {response}",
                &line[..line.len().min(60)]
            ));
        }
        Ok(value)
    }
}

/// A started daemon with the main graph uploaded and computed cold.
struct Daemon {
    server: Server,
    control: Client,
    socket: PathBuf,
    store_dir: PathBuf,
    target: Target,
    cold_sym: String,
    cold_cluster: String,
}

fn start_daemon(
    scratch: &Scratch,
    sizes: &Sizes,
    main_graph: &str,
    round: usize,
) -> Result<Daemon, String> {
    let socket = scratch.dir.join("s.sock");
    let store_dir = scratch.dir.join(format!("store-{round}"));
    let server = Server::start(ServeOptions {
        workers: 1,
        ..ServeOptions::unix(&socket, &store_dir)
    })?;
    let mut control = Client::connect(&socket)?;
    let uploaded = control.must(&upload_request(main_graph))?;
    let graph_key = uploaded
        .get("graph")
        .and_then(json::Value::as_str)
        .ok_or("upload response has no graph key")?
        .to_string();
    let cold_sym = control.round_trip(&symmetrize_request(&graph_key))?;
    let cold_cluster = control.round_trip(&cluster_request(&graph_key, sizes.clusters))?;
    let cluster_key = json::parse(&cold_cluster)
        .ok()
        .and_then(|v| {
            v.get("key")
                .and_then(json::Value::as_str)
                .map(str::to_string)
        })
        .ok_or(format!("cold cluster response has no key: {cold_cluster}"))?;
    Ok(Daemon {
        server,
        control,
        socket,
        store_dir,
        target: Target {
            graph_key,
            cluster_key,
            nodes: sizes.nodes,
            clusters: sizes.clusters,
            fresh_nodes: sizes.fresh_nodes,
            fresh_clusters: sizes.fresh_clusters,
        },
        cold_sym,
        cold_cluster,
    })
}

impl Daemon {
    /// `shutdown` over the wire, then wait for every daemon thread.
    fn stop(mut self) -> Result<(), String> {
        self.control.must("{\"op\":\"shutdown\"}")?;
        drop(self.control);
        self.server.join();
        let _ = std::fs::remove_dir_all(&self.store_dir);
        Ok(())
    }
}

/// What one connection measured in one phase.
struct PhaseLog {
    /// `(start_ns, end_ns)` of every request, from the shared epoch.
    stamps: Vec<(u64, u64)>,
    responses: Vec<String>,
}

/// Wall and CPU time of one phase, taken by the coordinating thread
/// between the barriers that bracket it.
struct PhaseClock {
    wall_s: f64,
    cpu_s: f64,
}

/// Runs `phases` (each: one sequence per connection) on `CONNECTIONS`
/// client threads. Every phase is bracketed by two barrier waits shared
/// with this thread, which times it. Returns, per phase, its clock and
/// one log per connection; `after_first` runs right after phase 0 (the
/// warm-up) ends, which is where the set-up clock stops.
fn run_phases(
    socket: &Path,
    epoch: Instant,
    phases: &[Vec<Vec<(Class, String)>>],
    mut after_first: impl FnMut(),
) -> Result<Vec<(PhaseClock, Vec<PhaseLog>)>, String> {
    let barrier = Barrier::new(CONNECTIONS + 1);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let barrier = &barrier;
                scope.spawn(move || -> Result<Vec<PhaseLog>, String> {
                    // Connect before the first barrier; a failure must
                    // still take part in every wait or the others hang.
                    let mut client = Client::connect(socket);
                    let mut logs = Vec::with_capacity(phases.len());
                    for phase in phases {
                        let seq = &phase[conn];
                        let mut log = PhaseLog {
                            stamps: Vec::with_capacity(seq.len()),
                            responses: Vec::with_capacity(seq.len()),
                        };
                        barrier.wait();
                        if let Ok(client) = client.as_mut() {
                            for (_, line) in seq {
                                let start = epoch.elapsed().as_nanos() as u64;
                                let response = client.round_trip(line);
                                let end = epoch.elapsed().as_nanos() as u64;
                                log.stamps.push((start, end));
                                log.responses.push(response.unwrap_or_else(|e| e));
                            }
                        }
                        barrier.wait();
                        logs.push(log);
                    }
                    client.map(|_| logs)
                })
            })
            .collect();
        let mut clocks = Vec::with_capacity(phases.len());
        for i in 0..phases.len() {
            barrier.wait();
            let (start, cpu0) = (Instant::now(), host::process_cpu_secs());
            barrier.wait();
            clocks.push(PhaseClock {
                wall_s: start.elapsed().as_secs_f64(),
                cpu_s: host::process_cpu_secs() - cpu0,
            });
            if i == 0 {
                after_first();
            }
        }
        let mut per_conn = Vec::with_capacity(CONNECTIONS);
        for client in clients {
            per_conn.push(client.join().map_err(|_| "client thread panicked")??);
        }
        // Transpose connection-major logs into phase-major.
        let mut out: Vec<(PhaseClock, Vec<PhaseLog>)> =
            clocks.into_iter().map(|c| (c, Vec::new())).collect();
        for logs in per_conn {
            for (slot, log) in out.iter_mut().zip(logs) {
                slot.1.push(log);
            }
        }
        Ok(out)
    })
}

/// The output checks of one phase: every response `"ok":true`, hit
/// responses byte-identical to the cold references, a node's membership
/// response constant across queries, and — from the second round on —
/// every response byte-identical to the first round's.
struct Checker {
    /// Response to each distinct `query-membership` request line.
    memberships: HashMap<String, String>,
    /// The timed responses of round 1, per connection.
    first_round: Option<Vec<Vec<String>>>,
}

impl Checker {
    fn check_phase(
        &mut self,
        daemon: &Daemon,
        seqs: &[Vec<(Class, String)>],
        logs: &[PhaseLog],
        compare_rounds: bool,
        out: &mut Outcome,
    ) {
        for (conn, (seq, log)) in seqs.iter().zip(logs).enumerate() {
            if log.responses.len() != seq.len() {
                out.fail(format!(
                    "connection {conn} got {} of {} responses",
                    log.responses.len(),
                    seq.len()
                ));
                continue;
            }
            for (i, ((class, line), response)) in seq.iter().zip(&log.responses).enumerate() {
                let verdict = if !response.contains("\"ok\":true") {
                    Err(format!("not ok: {response}"))
                } else {
                    match class {
                        Class::HitSym if *response != daemon.cold_sym => Err(format!(
                            "symmetrize hit {response} differs from cold {}",
                            daemon.cold_sym
                        )),
                        Class::HitCluster if *response != daemon.cold_cluster => Err(format!(
                            "cluster hit {response} differs from cold {}",
                            daemon.cold_cluster
                        )),
                        Class::Query => {
                            let first = self
                                .memberships
                                .entry(line.clone())
                                .or_insert_with(|| response.clone());
                            if first == response {
                                Ok(())
                            } else {
                                Err(format!("membership changed: {first} then {response}"))
                            }
                        }
                        _ => Ok(()),
                    }
                };
                let verdict = verdict.and_then(|()| match &self.first_round {
                    Some(first) if compare_rounds && first[conn][i] != *response => Err(format!(
                        "round 1 answered {}, this round {response}",
                        first[conn][i]
                    )),
                    _ => Ok(()),
                });
                if let Err(e) = verdict {
                    out.fail(format!("connection {conn} request {i} ({class:?}): {e}"));
                }
            }
        }
        if compare_rounds && self.first_round.is_none() {
            self.first_round = Some(logs.iter().map(|l| l.responses.clone()).collect());
        }
    }
}

/// The daemon's own view after the loop: the `stats` op and the metrics
/// registry. `overloaded` and `errors` must be 0 in every mode.
fn daemon_counters(
    daemon: &mut Daemon,
    out: &mut Outcome,
) -> Result<(json::Value, symclust_obs::MetricsSnapshot), String> {
    let stats = daemon.control.must("{\"op\":\"stats\"}")?;
    let snap = daemon.server.metrics().snapshot();
    for counter in ["serve.overloaded", "serve.errors"] {
        if snap.counter(counter).unwrap_or(0) != 0 {
            out.fail(format!(
                "daemon counter {counter} = {:?}",
                snap.counter(counter)
            ));
        }
    }
    Ok((stats, snap))
}

fn latencies_ms(logs: &[PhaseLog]) -> Vec<f64> {
    logs.iter()
        .flat_map(|l| l.stamps.iter().map(|&(s, e)| (e - s) as f64 / 1e6))
        .collect()
}

fn streams(seed: u64, base: u64, mix: Mix, target: &Target) -> Vec<Vec<(Class, String)>> {
    (0..CONNECTIONS as u64)
        .map(|conn| sequence(seed, base + conn, mix, target))
        .collect()
}

pub fn run(cfg: &Config, scratch: &Scratch, out: &mut Outcome) -> Result<(), String> {
    let sizes = if cfg.smoke {
        Sizes {
            nodes: 400,
            clusters: 8,
            fresh_nodes: 100,
            fresh_clusters: 4,
            warm_up: 100,
            timed: 250,
            solo: 100,
        }
    } else {
        Sizes {
            nodes: 4000,
            clusters: 40,
            fresh_nodes: 400,
            fresh_clusters: 8,
            warm_up: 2000,
            timed: cfg.ops_per_round(5000, 250),
            solo: 2000,
        }
    };
    out.note(
        "input",
        format!(
            "stream_dsbm {} nodes / {} clusters; {} timed + {} warm-up requests per connection per round",
            sizes.nodes, sizes.clusters, sizes.timed, sizes.warm_up
        ),
    );
    let epoch = Instant::now();
    let mut checker = Checker {
        memberships: HashMap::new(),
        first_round: None,
    };
    let calib_start = if cfg.trace { host::calib_ms() } else { 0.0 };

    for round in 0..cfg.rounds() {
        // Set-up: generate, start, upload, compute cold, build every
        // request string, warm up. Identical in every round.
        let start = Instant::now();
        let (main_graph, gen_ms) =
            replay::timed(|| dsbm_text(sizes.nodes, sizes.clusters, cfg.seed));
        let mut daemon = start_daemon(scratch, &sizes, &main_graph, round)?;
        let warm = streams(cfg.seed, 10, Mix::of(sizes.warm_up), &daemon.target);
        let mut phases = vec![
            warm,
            streams(cfg.seed, 0, Mix::of(sizes.timed), &daemon.target),
        ];
        if cfg.trace {
            phases.push(streams(cfg.seed, 20, Mix::of(sizes.timed), &daemon.target));
        }
        let mut setup_s = 0.0;
        let results = run_phases(&daemon.socket, epoch, &phases, || {
            setup_s = start.elapsed().as_secs_f64();
        })?;

        // Checks, outside every clock.
        for (i, (seqs, (_, logs))) in phases.iter().zip(&results).enumerate() {
            checker.check_phase(&daemon, seqs, logs, i == 1, out);
        }
        let (stats, snap) = daemon_counters(&mut daemon, out)?;
        let round_of = |(clock, logs): &(PhaseClock, Vec<PhaseLog>)| Round {
            setup_s,
            op_ms: latencies_ms(logs),
            loop_s: clock.wall_s,
            cpu_s: clock.cpu_s,
        };
        let plain = round_of(&results[1]);
        out.attempted += plain.op_ms.len();

        if cfg.trace {
            let traced = round_of(&results[2]);
            out.attempted += traced.op_ms.len();
            // One span per request, named by its class. The span *is* the
            // client-side timestamp pair the untraced loop records too, so
            // tracing adds nothing to the loop.
            let mut tracer = Tracer::new(epoch, true);
            for (conn, (seq, log)) in phases[2].iter().zip(&results[2].1).enumerate() {
                for (i, ((class, _), &(s, e))) in seq.iter().zip(&log.stamps).enumerate() {
                    let op = (i * CONNECTIONS + conn) as u32;
                    tracer.record(class.span_name(), NO_SPAN, op, s, e);
                }
            }
            out.spans = tracer.spans().to_vec();
            let graph =
                read_edge_list(main_graph.as_bytes()).map_err(|e| format!("main graph: {e}"))?;
            out.layers.set("datasets.gen_ms", gen_ms);
            out.layers.set("datasets.nodes", graph.n_nodes() as f64);
            out.layers.set("datasets.edges", graph.n_edges() as f64);
            client_layers(out, &stats, &snap)?;
            replay_layers(out, &sizes, &graph, &phases[2][0], &mut daemon, scratch)?;
            finish_traced(out, &plain, &traced, calib_start);
        }
        out.rounds.push(plain);
        daemon.stop()?;
    }
    Ok(())
}

fn p50(v: &[f64]) -> f64 {
    median_or_zero(v)
}

fn p99(v: &[f64]) -> f64 {
    percentile_or_zero(v, 0.99)
}

/// What the traced loop and the daemon's own counters say: client-side
/// latency per request class (from the spans), the `stats` op, and the
/// daemon's metrics registry.
fn client_layers(
    out: &mut Outcome,
    stats: &json::Value,
    snap: &symclust_obs::MetricsSnapshot,
) -> Result<(), String> {
    let class = |c: Class| durations_ms(&out.spans, c.span_name());
    let (query, miss) = (class(Class::Query), class(Class::Miss));
    let (hit_sym, hit_cluster, upload) = (
        class(Class::HitSym),
        class(Class::HitCluster),
        class(Class::Upload),
    );
    let layers = &mut out.layers;
    layers.set("cli.query_ms_p50", p50(&query));
    layers.set("cli.query_ms_p99", p99(&query));
    layers.set("cli.hit_sym_ms_p50", p50(&hit_sym));
    layers.set("cli.hit_cluster_ms_p50", p50(&hit_cluster));
    layers.set("cli.upload_ms_p50", p50(&upload));
    layers.set("cli.miss_ms_p50", p50(&miss));
    layers.set("cli.miss_ms_p99", p99(&miss));

    for (metric, field) in [
        ("store.hits", "store-hits"),
        ("store.misses", "store-misses"),
        ("store.puts", "store-puts"),
        ("store.evictions", "store-evictions"),
        ("store.quarantined", "store-quarantined"),
        ("store.bytes", "store-bytes"),
    ] {
        let value = stats.get(field).and_then(json::Value::as_f64);
        layers.set(
            metric,
            value.ok_or(format!("stats response has no {field}"))?,
        );
    }
    layers.set_counters(
        snap,
        &[
            ("store.put_errors", "store.put_errors"),
            ("cli.requests", "serve.requests"),
            ("cli.errors", "serve.errors"),
            ("cli.overloaded", "serve.overloaded"),
            ("cli.deadline", "serve.deadline_exceeded"),
            ("cli.cancelled", "serve.cancelled"),
            // Cold Degree-discounted computes requested, set-up and
            // warm-up included; a hit adds none.
            ("cli.spgemm_calls", "spgemm.calls"),
        ],
    );
    layers.set(
        "cli.queue_depth_hwm",
        snap.gauge("serve.queue_depth_hwm").unwrap_or(0.0),
    );
    Ok(())
}

/// The replay phase: solo queries (one connection, no other traffic =
/// service time; what the mix adds on top is time queued behind heavier
/// ops), request parsing, direct store calls, the wake-up probe.
fn replay_layers(
    out: &mut Outcome,
    sizes: &Sizes,
    graph: &DiGraph,
    corpus: &[(Class, String)],
    daemon: &mut Daemon,
    scratch: &Scratch,
) -> Result<(), String> {
    let layers = &mut out.layers;
    let queries = corpus
        .iter()
        .filter(|(c, _)| *c == Class::Query)
        .take(sizes.solo);
    let mut solo = Vec::with_capacity(sizes.solo);
    for (_, line) in queries {
        let (response, ms) = replay::timed(|| daemon.control.round_trip(line));
        response?;
        solo.push(ms);
    }
    layers.set("cli.solo_query_ms_p50", p50(&solo));
    layers.set("cli.solo_query_ms_p99", p99(&solo));
    layers.set(
        "cli.query_wait_ms",
        layers.get("cli.query_ms_p99") - layers.get("cli.solo_query_ms_p99"),
    );
    layers.set(
        "cli.parse_request_us",
        replay::parse_request_us(corpus.iter().map(|(_, line)| line.as_str()))?,
    );
    replay::store_direct(
        &scratch.dir.join("store-direct"),
        graph,
        DD_THRESHOLD,
        layers,
    )?;
    layers.set("bench.wake_us", host::wake_us(2000));
    Ok(())
}
