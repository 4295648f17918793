//! `symclust chaos`: a scripted kill-and-restart harness that drives a
//! *real* daemon (child process, real unix sockets) under the store's
//! deterministic I/O fault injector and checks crash-consistency
//! invariants after every cycle.
//!
//! One run is `--cycles` rounds against one persistent store directory:
//!
//! 1. a fault-free **reference run** records the byte-exact responses of
//!    a deterministic workload (upload → symmetrize ×2 → cluster →
//!    query-membership);
//! 2. each cycle derives a [`FaultSpec`] from `--seed` (rotating over
//!    crash-at, EIO, persistent ENOSPC, and short-read families via
//!    [`mix`]), runs the workload against a daemon child carrying that
//!    spec in `SYMCLUST_FAULTFS`, and tolerates whatever the fault does
//!    to the transport — but any *successful* response must still be
//!    byte-identical to the reference (a divergent OK response means
//!    corrupt data was served);
//! 3. after the child is gone (crashed or drained), the harness checks
//!    the store directly: `stats.json` is absent or parseable, every
//!    published blob decodes cleanly, and — when `--budget-bytes` is
//!    set — a reopen re-enforces the LRU budget;
//! 4. a fault-free restart must report `health` ready/non-degraded and
//!    replay the full workload byte-identically.
//!
//! Any violation makes the run exit nonzero with every violation
//! listed. The binary must be built with the `fault-injection` feature;
//! a passthrough shim is refused rather than silently "passing".

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use symclust_cluster::Clustering;
use symclust_engine::faultplan::{mix, FaultErrno, FaultSpec};
use symclust_engine::json::{parse_object, JsonObject, JsonValue};
use symclust_sparse::CsrMatrix;
use symclust_store::{faultfs, Artifact, DiskStore, StoreOptions};

use crate::args::ParsedArgs;

type CmdResult = Result<(), String>;

/// How long one request may take before the harness gives up on the
/// connection (generous: the workload graph is tiny).
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// How long to wait for a spawned daemon to accept connections (or
/// exit) before declaring the cycle stuck.
const STARTUP_TIMEOUT: Duration = Duration::from_secs(10);

/// `symclust chaos --seed N --cycles C [--dir D] [--budget-bytes B]
/// [--keep]`.
pub fn chaos(args: &ParsedArgs) -> CmdResult {
    if !faultfs::INJECTION_COMPILED {
        return Err(
            "this binary was built without the fault injector, so a chaos run would \
             test nothing; rebuild with `cargo build --release --features \
             symclust-cli/fault-injection` and rerun"
                .into(),
        );
    }
    if std::env::var_os("SYMCLUST_FAULTFS").is_some() {
        return Err(
            "SYMCLUST_FAULTFS is set in this environment; the harness must stay \
             fault-free itself (it hands each cycle's spec to the daemon child) — \
             unset it and rerun"
                .into(),
        );
    }
    let seed: u64 = args.get_or("seed", 42u64)?;
    let cycles: u64 = args.get_or("cycles", 25u64)?;
    let keep: bool = args.get_or("keep", false)?;
    let budget: Option<u64> = args.get::<u64>("budget-bytes")?;
    let (dir, ephemeral) = match args.optional("dir") {
        Some(d) => (PathBuf::from(d), false),
        None => (
            std::env::temp_dir().join(format!("symclust_chaos_{}", std::process::id())),
            true,
        ),
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;

    let harness = Harness {
        dir: dir.clone(),
        budget,
    };
    let reference = harness.reference_run(seed)?;
    println!(
        "chaos: seed {seed}, {cycles} cycle(s); reference run recorded {} responses",
        reference.responses.len()
    );

    let mut violations: Vec<String> = Vec::new();
    let mut crashes = 0u64;
    let mut startup_failures = 0u64;
    for c in 1..=cycles {
        let spec = cycle_spec(seed, c);
        let outcome = harness.faulted_cycle(c, &spec, &reference, &mut violations)?;
        match outcome {
            CycleOutcome::Crashed => crashes += 1,
            CycleOutcome::FailedToStart => startup_failures += 1,
            CycleOutcome::Survived => {}
        }
        println!(
            "chaos: cycle {c}/{cycles} [{}] {} ({} violation(s) so far)",
            spec.render(),
            outcome.label(),
            violations.len()
        );
    }

    let quarantined = harness.final_quarantine_count();
    println!(
        "chaos: done — {cycles} cycle(s), {crashes} crash(es), {startup_failures} \
         startup failure(s), {quarantined} blob(s) quarantined, {} violation(s)",
        violations.len()
    );
    if !keep && ephemeral && violations.is_empty() {
        std::fs::remove_dir_all(&dir).ok();
    } else if !violations.is_empty() {
        println!("chaos: keeping {} for inspection", dir.display());
    }
    if violations.is_empty() {
        Ok(())
    } else {
        for v in &violations {
            eprintln!("violation: {v}");
        }
        Err(format!("{} invariant violation(s)", violations.len()))
    }
}

/// The fault schedule for cycle `c`: family and target operation are
/// both derived from the run seed via [`mix`], so a failing cycle can be
/// re-run in isolation from its printed spec alone. Ops land in `0..32`;
/// a target past the workload's op count is a legitimate no-fault cycle.
fn cycle_spec(seed: u64, cycle: u64) -> FaultSpec {
    let op = mix(seed, 2 * cycle + 1) % 32;
    let mut spec = FaultSpec {
        seed: mix(seed, cycle ^ 0x5eed),
        ..FaultSpec::default()
    };
    match mix(seed, cycle) % 4 {
        0 => spec.crash_at = Some(op),
        1 => spec.err_at = Some((op, FaultErrno::Eio)),
        2 => spec.enospc_after = Some(op),
        _ => spec.short_read_at = Some(op),
    }
    spec
}

enum CycleOutcome {
    Survived,
    Crashed,
    FailedToStart,
}

impl CycleOutcome {
    fn label(&self) -> &'static str {
        match self {
            CycleOutcome::Survived => "survived",
            CycleOutcome::Crashed => "crashed",
            CycleOutcome::FailedToStart => "failed to start",
        }
    }
}

/// The recorded fault-free workload: request lines and their byte-exact
/// responses, in order.
struct Reference {
    requests: Vec<String>,
    responses: Vec<String>,
}

struct Harness {
    dir: PathBuf,
    budget: Option<u64>,
}

impl Harness {
    fn sock(&self) -> PathBuf {
        self.dir.join("sock")
    }

    fn store_dir(&self) -> PathBuf {
        self.dir.join("store")
    }

    fn spawn_daemon(&self, fault_spec: Option<&FaultSpec>) -> Result<Child, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve")
            .arg("--socket")
            .arg(self.sock())
            .arg("--store")
            .arg(self.store_dir())
            // One worker keeps the filesystem op order deterministic, so
            // "operation K" names the same syscall in every run.
            .args(["--workers", "1", "--drain-ms", "500"]);
        if let Some(b) = self.budget {
            cmd.args(["--store-budget-bytes", &b.to_string()]);
        }
        match fault_spec {
            Some(spec) => cmd.env("SYMCLUST_FAULTFS", spec.render()),
            None => cmd.env_remove("SYMCLUST_FAULTFS"),
        };
        cmd.stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning daemon: {e}"))
    }

    /// Waits for the daemon to accept connections. `Ok(false)` means it
    /// exited first (a startup-time fault); a child that does neither
    /// within [`STARTUP_TIMEOUT`] is killed and reported the same way.
    fn wait_ready(&self, child: &mut Child) -> Result<bool, String> {
        let deadline = Instant::now() + STARTUP_TIMEOUT;
        loop {
            if let Some(_status) = child.try_wait().map_err(|e| e.to_string())? {
                return Ok(false);
            }
            if UnixStream::connect(self.sock()).is_ok() {
                return Ok(true);
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Ok(false);
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// One request over a fresh connection, so a mid-request crash only
    /// takes down this exchange.
    fn request(&self, line: &str) -> Result<String, String> {
        let mut stream = UnixStream::connect(self.sock()).map_err(|e| format!("connect: {e}"))?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT)).ok();
        stream
            .write_all(line.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        BufReader::new(stream)
            .read_line(&mut response)
            .map_err(|e| format!("receive: {e}"))?;
        let response = response.trim_end();
        if response.is_empty() {
            return Err("connection closed without a response".into());
        }
        Ok(response.to_string())
    }

    /// Reaps the child: `Ok(true)` for a clean exit, `Ok(false)` for a
    /// crash (or a hang that had to be killed).
    fn reap(&self, child: &mut Child) -> Result<bool, String> {
        let deadline = Instant::now() + STARTUP_TIMEOUT;
        loop {
            if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                return Ok(status.success());
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Ok(false);
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// The fault-free cycle 0: run the workload once and record every
    /// response byte-for-byte.
    fn reference_run(&self, seed: u64) -> Result<Reference, String> {
        let mut child = self.spawn_daemon(None)?;
        if !self.wait_ready(&mut child)? {
            return Err("reference daemon failed to start".into());
        }
        let run = (|| -> Result<Reference, String> {
            let upload = upload_request(&workload_edges(seed));
            let upload_resp = self.request(&upload)?;
            let graph = response_field(&upload_resp, "graph")
                .ok_or_else(|| format!("reference upload failed: {upload_resp}"))?;

            let mut requests = vec![
                upload,
                symmetrize_request(&graph, "bib", "w1"),
                symmetrize_request(&graph, "dd", "w2"),
                cluster_request(&graph, "w3"),
            ];
            let mut responses = vec![upload_resp];
            for req in &requests[1..] {
                let resp = self.request(req)?;
                if !is_ok_response(&resp) {
                    return Err(format!("reference request failed: {resp}"));
                }
                responses.push(resp);
            }
            let cluster_key = response_field(&responses[3], "key")
                .ok_or_else(|| format!("reference cluster has no key: {}", responses[3]))?;
            let member = membership_request(&cluster_key, "w4");
            let member_resp = self.request(&member)?;
            if !is_ok_response(&member_resp) {
                return Err(format!("reference membership failed: {member_resp}"));
            }
            requests.push(member);
            responses.push(member_resp);
            Ok(Reference {
                requests,
                responses,
            })
        })();
        let _ = self.request(r#"{"op":"shutdown"}"#);
        let clean = self.reap(&mut child)?;
        let reference = run?;
        if !clean {
            return Err("reference daemon did not shut down cleanly".into());
        }
        Ok(reference)
    }

    /// One faulted cycle: run the workload under `spec`, reap the child,
    /// check the store on disk, then restart fault-free and replay.
    fn faulted_cycle(
        &self,
        cycle: u64,
        spec: &FaultSpec,
        reference: &Reference,
        violations: &mut Vec<String>,
    ) -> Result<CycleOutcome, String> {
        let mut child = self.spawn_daemon(Some(spec))?;
        let ready = self.wait_ready(&mut child)?;
        let mut outcome = if ready {
            CycleOutcome::Survived
        } else {
            CycleOutcome::FailedToStart
        };
        if ready {
            for (i, req) in reference.requests.iter().enumerate() {
                match self.request(req) {
                    // An error response or a dead connection is what a
                    // fault is *supposed* to look like. A successful
                    // response that differs from the reference is not.
                    Ok(resp) if is_ok_response(&resp) && resp != reference.responses[i] => {
                        violations.push(format!(
                            "cycle {cycle} [{}]: request {i} got a divergent OK response\n  \
                             got:      {resp}\n  expected: {}",
                            spec.render(),
                            reference.responses[i]
                        ));
                    }
                    Ok(_) | Err(_) => {}
                }
            }
            let _ = self.request(r#"{"op":"shutdown"}"#);
            if !self.reap(&mut child)? {
                outcome = CycleOutcome::Crashed;
            }
        } else {
            let _ = self.reap(&mut child)?;
        }

        self.check_disk_invariants(cycle, violations);
        self.replay(cycle, reference, violations)?;
        Ok(outcome)
    }

    /// Direct on-disk checks between daemon lifetimes: the stats sidecar
    /// is never half-written, published blobs always decode, and a
    /// budgeted reopen re-enforces the LRU budget.
    fn check_disk_invariants(&self, cycle: u64, violations: &mut Vec<String>) {
        let store = self.store_dir();
        let stats = store.join("stats.json");
        match std::fs::read_to_string(&stats) {
            Err(_) => {} // absent is fine (e.g. crashed before first persist)
            Ok(text) => {
                if parse_object(text.trim()).is_err() {
                    violations.push(format!(
                        "cycle {cycle}: stats.json is torn or corrupt: {text:?}"
                    ));
                }
            }
        }
        self.check_blobs(
            cycle,
            &store.join("blobs").join("matrix"),
            violations,
            |b| CsrMatrix::decode(b).map(|_| ()).map_err(|e| e.to_string()),
        );
        self.check_blobs(
            cycle,
            &store.join("blobs").join("clustering"),
            violations,
            |b| Clustering::decode(b).map(|_| ()).map_err(|e| e.to_string()),
        );
        if let Some(budget) = self.budget {
            match DiskStore::open(
                &store,
                StoreOptions {
                    byte_budget: Some(budget),
                },
            ) {
                Err(e) => violations.push(format!("cycle {cycle}: store failed to reopen: {e}")),
                Ok(reopened) => {
                    let bytes = reopened.stats().bytes;
                    if bytes > budget {
                        violations.push(format!(
                            "cycle {cycle}: store holds {bytes} bytes after reopen, \
                             budget is {budget}"
                        ));
                    }
                }
            }
        }
    }

    /// Every *published* blob in `dir` must decode; `.tmp-*` leftovers
    /// from a crash are legitimate (the store sweeps them on reopen).
    fn check_blobs(
        &self,
        cycle: u64,
        dir: &Path,
        violations: &mut Vec<String>,
        decode: impl Fn(&[u8]) -> Result<(), String>,
    ) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return; // store may not have published this kind yet
        };
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with(".tmp-") {
                continue;
            }
            match std::fs::read(entry.path()) {
                Err(e) => violations.push(format!(
                    "cycle {cycle}: published blob {name} unreadable: {e}"
                )),
                Ok(bytes) => {
                    if let Err(e) = decode(&bytes) {
                        violations.push(format!(
                            "cycle {cycle}: published blob {name} is corrupt: {e}"
                        ));
                    }
                }
            }
        }
    }

    /// Fault-free restart after a faulted cycle: health must come back
    /// ready and non-degraded, and the whole workload must replay
    /// byte-identically.
    fn replay(
        &self,
        cycle: u64,
        reference: &Reference,
        violations: &mut Vec<String>,
    ) -> Result<(), String> {
        let mut child = self.spawn_daemon(None)?;
        if !self.wait_ready(&mut child)? {
            violations.push(format!(
                "cycle {cycle}: daemon failed to restart fault-free"
            ));
            return Ok(());
        }
        match self.request(r#"{"op":"health"}"#) {
            Err(e) => violations.push(format!("cycle {cycle}: health probe failed: {e}")),
            Ok(health) => {
                if response_field(&health, "state").as_deref() != Some("ready") {
                    violations.push(format!(
                        "cycle {cycle}: restarted daemon not ready: {health}"
                    ));
                }
                if parse_object(&health)
                    .ok()
                    .and_then(|f| f.get("store-degraded").and_then(JsonValue::as_bool))
                    != Some(false)
                {
                    violations.push(format!(
                        "cycle {cycle}: restarted daemon still degraded: {health}"
                    ));
                }
            }
        }
        for (i, req) in reference.requests.iter().enumerate() {
            match self.request(req) {
                Ok(resp) if resp == reference.responses[i] => {}
                Ok(resp) => violations.push(format!(
                    "cycle {cycle} replay: request {i} diverged\n  got:      {resp}\n  \
                     expected: {}",
                    reference.responses[i]
                )),
                Err(e) => violations.push(format!("cycle {cycle} replay: request {i} failed: {e}")),
            }
        }
        let _ = self.request(r#"{"op":"shutdown"}"#);
        if !self.reap(&mut child)? {
            violations.push(format!(
                "cycle {cycle}: fault-free replay daemon did not exit cleanly"
            ));
        }
        Ok(())
    }

    /// Cumulative quarantine count for the summary line, read from the
    /// persisted sidecar (counters survive restarts).
    fn final_quarantine_count(&self) -> u64 {
        std::fs::read_to_string(self.store_dir().join("stats.json"))
            .ok()
            .and_then(|text| parse_object(text.trim()).ok())
            .and_then(|f| f.get("quarantined").and_then(JsonValue::as_f64))
            .map_or(0, |v| v as u64)
    }
}

/// The deterministic workload graph: a ring over 24 nodes plus one
/// seeded chord per node — small enough that a full cycle is fast,
/// asymmetric enough that every symmetrization does real work.
fn workload_edges(seed: u64) -> String {
    let n = 24u64;
    let mut out = String::new();
    for i in 0..n {
        out.push_str(&format!("{} {}\n", i, (i + 1) % n));
        let chord = (i + 2 + mix(seed, i) % (n - 3)) % n;
        if chord != i && chord != (i + 1) % n {
            out.push_str(&format!("{i} {chord}\n"));
        }
    }
    out
}

fn upload_request(edges: &str) -> String {
    let mut o = JsonObject::new();
    o.string("op", "upload-graph");
    o.string("id", "w0");
    o.string("edges", edges);
    o.finish()
}

fn symmetrize_request(graph: &str, method: &str, id: &str) -> String {
    let mut o = JsonObject::new();
    o.string("op", "symmetrize");
    o.string("id", id);
    o.string("graph", graph);
    o.string("method", method);
    o.finish()
}

fn cluster_request(graph: &str, id: &str) -> String {
    let mut o = JsonObject::new();
    o.string("op", "cluster");
    o.string("id", id);
    o.string("graph", graph);
    o.string("method", "aat");
    o.string("algo", "metis");
    o.number("k", 3.0);
    o.finish()
}

fn membership_request(key: &str, id: &str) -> String {
    let mut o = JsonObject::new();
    o.string("op", "query-membership");
    o.string("id", id);
    o.string("key", key);
    o.number("node", 0.0);
    o.finish()
}

fn is_ok_response(response: &str) -> bool {
    parse_object(response)
        .ok()
        .and_then(|f| f.get("ok").and_then(JsonValue::as_bool))
        == Some(true)
}

fn response_field(response: &str, key: &str) -> Option<String> {
    parse_object(response)
        .ok()?
        .get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_specs_are_deterministic_and_cover_every_family() {
        let mut crash = 0;
        let mut eio = 0;
        let mut enospc = 0;
        let mut short = 0;
        for c in 1..=25 {
            let spec = cycle_spec(42, c);
            assert_eq!(spec, cycle_spec(42, c), "cycle {c} not deterministic");
            // Every spec round-trips through the env-var encoding.
            assert_eq!(FaultSpec::parse(&spec.render()), Ok(spec));
            match spec {
                FaultSpec {
                    crash_at: Some(_), ..
                } => crash += 1,
                FaultSpec {
                    err_at: Some(_), ..
                } => eio += 1,
                FaultSpec {
                    enospc_after: Some(_),
                    ..
                } => enospc += 1,
                FaultSpec {
                    short_read_at: Some(_),
                    ..
                } => short += 1,
                _ => panic!("cycle {c} produced an empty spec"),
            }
        }
        assert!(
            crash > 0 && eio > 0 && enospc > 0 && short > 0,
            "25 seed-42 cycles must exercise all four fault families \
             ({crash}/{eio}/{enospc}/{short})"
        );
    }

    #[test]
    fn workload_is_deterministic_and_parseable() {
        let a = workload_edges(42);
        assert_eq!(a, workload_edges(42));
        assert_ne!(a, workload_edges(43));
        let g = symclust_graph::io::read_edge_list(a.as_bytes()).unwrap();
        assert_eq!(g.n_nodes(), 24);
        assert!(g.n_edges() > 24, "chords must add edges beyond the ring");
    }

    #[test]
    fn request_builders_emit_parseable_protocol_lines() {
        for line in [
            upload_request("0 1\n1 0\n"),
            symmetrize_request("00000000000000ff", "bib", "w1"),
            cluster_request("00000000000000ff", "w3"),
            membership_request("00000000000000aa", "w4"),
        ] {
            crate::protocol::parse_request(&line)
                .unwrap_or_else(|e| panic!("builder emitted a bad line {line}: {e}"));
        }
    }
}
