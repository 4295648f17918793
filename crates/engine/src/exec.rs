//! The pipeline executor: a crossbeam worker pool driving the stage DAG
//! with bounded-channel backpressure, a shared artifact cache, cooperative
//! cancellation with per-stage deadlines, and a structured event stream.
//!
//! Execution model:
//!
//! * The calling thread acts as the **dispatcher**. It tracks per-node
//!   in-degrees and pushes ready nodes into a *bounded* task channel
//!   (capacity = worker count), so dispatch stalls when every worker is
//!   busy rather than queueing unboundedly.
//! * `threads` **workers** loop over the task channel, execute one stage
//!   at a time, and report on an *unbounded* done channel (workers never
//!   block on reporting, so the pool cannot deadlock against a stalled
//!   dispatcher).
//! * The dispatcher receives done messages with a short timeout so it can
//!   also poll the run-level [`CancelToken`]; on cancellation it stops
//!   dispatching, cancels all in-flight stage tokens, and drains
//!   outstanding work. Records of already-completed chains are kept —
//!   cancellation surfaces *partial results*, it does not discard them.
//!
//! Fault tolerance (DESIGN.md §10):
//!
//! * Every stage attempt runs under `catch_unwind`: a panicking kernel
//!   becomes a [`Event::StageFailed`] with `panic: true` and only its own
//!   chain is skipped — sibling chains keep running.
//! * Failures classified as *transient* (error text contains
//!   `"transient"`) are retried under [`RetryPolicy`] with exponential
//!   backoff and deterministic jitter, emitting [`Event::StageRetrying`].
//! * An SpGEMM memory budget ([`EngineOptions::memory_budget`]) makes the
//!   similarity symmetrizations degrade to a thresholded product instead
//!   of exhausting memory; degraded runs carry `degraded: true` in their
//!   records.
//! * A run journal ([`EngineOptions::journal`]) records every completed
//!   evaluate chain durably; re-running with the same journal pre-settles
//!   those chains ([`Event::StageResumed`]) so crashed or cancelled sweeps
//!   resume without redoing finished work.

use crate::cache::{ArtifactCache, CacheStats};
use crate::event::{Event, StageKind};
use crate::fingerprint::{graph_fingerprint, matrix_fingerprint, stage_key, Fnv64};
use crate::journal::RunJournal;
use crate::plan::{PipelineSpec, Plan, StageNode};
use crate::report::RunRecord;
use crossbeam::channel::{bounded, unbounded, RecvTimeoutError};
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use symclust_cluster::Clustering;
use symclust_core::{SymmetrizeError, SymmetrizedGraph};
use symclust_eval::avg_f_score;
use symclust_graph::{DiGraph, GroundTruth, UnGraph};
use symclust_obs::{MetricsRegistry, MetricsSnapshot};
use symclust_sparse::{ops, CancelToken, Tuning};

symclust_obs::metric_names! {
    /// Stable metric names the executor records (DESIGN.md §11). Kernel-level
    /// names (`spgemm.*`, `mcl.*`) live next to their kernels; these cover the
    /// engine and the prune stage, which the executor runs itself.
    pub mod metric_names {
        /// Counter: cache requests served from a ready artifact (per sweep).
        pub const CACHE_HITS: &str = "engine.cache_hits";
        /// Counter: cache requests that ran the compute closure (per sweep).
        pub const CACHE_MISSES: &str = "engine.cache_misses";
        /// Counter: hits that parked behind another worker's in-flight
        /// computation of the same key (duplicate work avoided).
        pub const INFLIGHT_DEDUPS: &str = "engine.inflight_dedups";
        /// Counter: stage attempts re-run after a transient failure.
        pub const RETRIES: &str = "engine.retries";
        /// Gauge: high-water mark of the dispatcher's ready queue.
        pub const QUEUE_DEPTH_HWM: &str = "engine.queue_depth_hwm";
        /// Counter: entries entering prune stages.
        pub const PRUNE_EDGES_IN: &str = "prune.edges_in";
        /// Counter: entries surviving prune stages.
        pub const PRUNE_EDGES_OUT: &str = "prune.edges_out";
        /// Gauge: survival ratio (`edges_out / edges_in`) of the most recent
        /// prune computation.
        pub const PRUNE_SURVIVAL_RATIO: &str = "prune.survival_ratio";
        /// Counter: symmetrize stages whose artifact was computed in degraded
        /// (budget-thresholded) mode. Cache hits of a degraded artifact do not
        /// recount.
        pub const SYM_DEGRADED_RUNS: &str = "sym.degraded_runs";
    }
}

/// The input a pipeline runs over: a directed graph plus optional ground
/// truth, under a dataset name used in records.
#[derive(Clone)]
pub struct PipelineInput {
    /// Dataset name recorded in [`RunRecord::dataset`].
    pub name: String,
    /// The directed graph.
    pub graph: Arc<DiGraph>,
    /// Ground truth for F-score evaluation, when available.
    pub truth: Option<Arc<GroundTruth>>,
}

impl PipelineInput {
    /// Wraps a graph (and optional truth) as pipeline input.
    pub fn new(name: impl Into<String>, graph: DiGraph, truth: Option<GroundTruth>) -> Self {
        PipelineInput {
            name: name.into(),
            graph: Arc::new(graph),
            truth: truth.map(Arc::new),
        }
    }
}

/// Retry policy for transiently-failing stages: exponential backoff from
/// `base_delay_ms`, capped at `max_delay_ms`, with deterministic jitter
/// (hashed from node id and attempt number, so runs are reproducible
/// without an RNG while still decorrelating sibling retries).
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per stage (1 = no retries).
    pub max_attempts: usize,
    /// Backoff before the second attempt, in milliseconds.
    pub base_delay_ms: u64,
    /// Upper bound on any single backoff delay, in milliseconds.
    pub max_delay_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay_ms: 50,
            max_delay_ms: 2000,
        }
    }
}

impl RetryPolicy {
    /// Backoff delay after failed attempt `attempt` (1-based) of `node`:
    /// `base · 2^(attempt-1)` capped at `max_delay_ms`, minus up to half
    /// of itself as jitter ("equal jitter" — always at least half the
    /// exponential delay, never above the cap).
    pub fn delay_ms(&self, node: usize, attempt: usize) -> u64 {
        let shift = attempt.saturating_sub(1).min(20) as u32;
        let capped = self
            .base_delay_ms
            .saturating_mul(1u64 << shift)
            .min(self.max_delay_ms);
        let mut h = Fnv64::new();
        h.write_u64(node as u64).write_u64(attempt as u64);
        let jitter = h.finish() % (capped / 2 + 1);
        capped - jitter
    }
}

/// Engine-wide execution options.
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// Worker threads. `0` means one per available core (capped at 8).
    pub threads: usize,
    /// Per-stage wall-clock deadline. A stage exceeding it is cancelled
    /// (its chain is skipped) while the rest of the sweep continues.
    pub stage_deadline: Option<Duration>,
    /// Retry policy for transiently-failing stages.
    pub retry: RetryPolicy,
    /// SpGEMM output budget, in stored entries. When a similarity
    /// symmetrization's upper-bound estimate exceeds it, the product is
    /// computed in degraded (adaptively-thresholded) mode instead of
    /// aborting; the resulting records carry `degraded: true`.
    pub memory_budget: Option<usize>,
    /// How the similarity symmetrizations' SpGEMM kernels run: threads
    /// and out-of-core panel plan. Every value produces
    /// bit-identical output and no key-derivation function takes a
    /// [`Tuning`], so it cannot reach a cache or journal key. The default
    /// is [`Tuning::from_env`].
    pub tuning: Tuning,
    /// Path of the durable run journal. When set, chains recorded there
    /// are resumed instead of re-executed, and every chain completed by
    /// this run is appended.
    pub journal: Option<PathBuf>,
    /// Metrics registry the sweep records into. `None` gives each sweep a
    /// private registry (its snapshot still lands in
    /// [`SweepResult::metrics`]); passing a shared registry accumulates
    /// counters across sweeps, mirroring how the artifact cache persists.
    pub metrics: Option<MetricsRegistry>,
    /// Run the CSR structural validators
    /// ([`CsrMatrix::validate_symmetric`]) on every symmetrize and prune
    /// output, failing the stage with a corruption error instead of
    /// letting a malformed matrix poison downstream clustering. Debug
    /// builds always validate; this flag extends the checks to release
    /// builds (`--paranoid` on the CLI). Validation is pure observation —
    /// it never touches metrics or cache keys, so a paranoid run produces
    /// byte-identical artifacts and counters.
    ///
    /// [`CsrMatrix::validate_symmetric`]: symclust_sparse::CsrMatrix::validate_symmetric
    pub paranoid: bool,
}

impl EngineOptions {
    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8)
        }
    }
}

/// Outcome of one sweep.
#[derive(Debug)]
pub struct SweepResult {
    /// Completed run records, in plan order (method-major, matching the
    /// serial reference loops). Partial on cancellation.
    pub records: Vec<RunRecord>,
    /// Whether the run-level token tripped before the sweep finished.
    pub cancelled: bool,
    /// Stages skipped or aborted by cancellation/deadline (count).
    pub skipped: usize,
    /// `(stage label, error)` for stages that failed outright.
    pub failures: Vec<(String, String)>,
    /// Chains resumed from the run journal without re-execution (count of
    /// records, not stages).
    pub resumed: usize,
    /// Cache hits/misses incurred by *this* sweep (delta, not engine
    /// lifetime totals).
    pub cache: CacheStats,
    /// Metrics snapshot taken after the worker pool drained — the same
    /// data emitted as the run's [`Event::MetricsSnapshot`]. Cumulative
    /// when [`EngineOptions::metrics`] carries a shared registry.
    pub metrics: MetricsSnapshot,
}

/// How a stage settled, as reported by a worker.
enum StageResult {
    Done(NodeOutput),
    Cancelled,
    Failed { error: String, panic: bool },
}

/// The artifact a settled node leaves for its dependents.
#[derive(Clone)]
enum NodeOutput {
    /// Load: the input graph's content fingerprint.
    Fingerprint(u64),
    /// Symmetrize/Prune: shared symmetrized graph.
    Sym(Arc<SymmetrizedGraph>),
    /// Cluster: the clustering, its wall time, and the symmetrized graph
    /// it was computed on (carried through for record assembly).
    Clustered {
        clustering: Arc<Clustering>,
        secs: f64,
        sym: Arc<SymmetrizedGraph>,
    },
    /// Evaluate: the finished record.
    Record(Box<RunRecord>),
}

/// Shared state the workers read.
struct ExecCtx<'a> {
    input: &'a PipelineInput,
    cache: &'a ArtifactCache<SymmetrizedGraph>,
    outputs: Mutex<HashMap<usize, NodeOutput>>,
    sink: &'a (dyn Fn(Event) + Send + Sync),
    retry: RetryPolicy,
    memory_budget: Option<usize>,
    tuning: &'a Tuning,
    metrics: &'a MetricsRegistry,
    paranoid: bool,
}

impl ExecCtx<'_> {
    /// Whether stage outputs get the full structural validation pass:
    /// always in debug builds, on request (`--paranoid`) in release.
    fn validate_outputs(&self) -> bool {
        self.paranoid || cfg!(debug_assertions)
    }
}

/// Per-stage cancellation tokens for nodes currently in flight, keyed by
/// node id. Registered at dispatch and released when the node settles, so
/// the registry stays bounded by the worker count — the previous design
/// (an append-only `Vec`) never released tokens, which leaked one token
/// per dispatched stage for the whole sweep and made run-level
/// cancellation touch every stale token ever created.
struct TokenRegistry {
    tokens: Mutex<HashMap<usize, CancelToken>>,
}

/// Locks one of the executor's mutexes. `what` names the lock in the
/// panic message.
#[expect(
    clippy::expect_used,
    reason = "mutex poisoning is fatal by design: a poisoned worker already aborted the sweep"
)]
fn lock<'a, T>(mutex: &'a Mutex<T>, what: &str) -> MutexGuard<'a, T> {
    mutex.lock().expect(what)
}

impl TokenRegistry {
    fn new() -> Self {
        TokenRegistry {
            tokens: Mutex::new(HashMap::new()),
        }
    }

    fn register(&self, node: usize, token: CancelToken) {
        lock(&self.tokens, "token lock").insert(node, token);
    }

    fn release(&self, node: usize) {
        lock(&self.tokens, "token lock").remove(&node);
    }

    fn cancel_all(&self) {
        for t in lock(&self.tokens, "token lock").values() {
            t.cancel();
        }
    }

    fn len(&self) -> usize {
        lock(&self.tokens, "token lock").len()
    }
}

/// The pipeline engine: a persistent artifact cache plus execution
/// options. Reusing one engine across sweeps (e.g. an inflation sweep
/// after a k sweep) carries symmetrization artifacts over, so each
/// distinct (graph, method, params) computes exactly once per process.
pub struct Engine {
    cache: ArtifactCache<SymmetrizedGraph>,
    opts: EngineOptions,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new(EngineOptions::default())
    }
}

impl Engine {
    /// Creates an engine with the given options and an empty cache.
    pub fn new(opts: EngineOptions) -> Self {
        Engine {
            cache: ArtifactCache::new(),
            opts,
        }
    }

    /// Lifetime cache counters (across all sweeps run on this engine).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Runs a sweep to completion, streaming events to `sink`.
    pub fn run(
        &self,
        input: &PipelineInput,
        spec: &PipelineSpec,
        sink: &(dyn Fn(Event) + Send + Sync),
    ) -> SweepResult {
        self.run_cancellable(input, spec, &CancelToken::new(), sink)
    }

    /// [`run`](Self::run) under an externally-owned cancellation token.
    /// Tripping the token stops dispatch promptly; stages already finished
    /// keep their records in the (partial) result.
    pub fn run_cancellable(
        &self,
        input: &PipelineInput,
        spec: &PipelineSpec,
        run_token: &CancelToken,
        sink: &(dyn Fn(Event) + Send + Sync),
    ) -> SweepResult {
        let plan = Plan::build(spec);
        let total = plan.len();
        let threads = self.opts.effective_threads();
        let stats_before = self.cache.stats();
        let registry = self.opts.metrics.clone().unwrap_or_default();

        let ctx = ExecCtx {
            input,
            cache: &self.cache,
            outputs: Mutex::new(HashMap::new()),
            sink,
            retry: self.opts.retry.clone(),
            memory_budget: self.opts.memory_budget,
            tuning: &self.opts.tuning,
            metrics: &registry,
            paranoid: self.opts.paranoid,
        };

        let mut indeg = plan.indegrees();
        let dependents = plan.dependents();
        let mut settled = vec![false; total];
        let mut n_settled = 0usize;
        let mut skipped = 0usize;
        let mut failures: Vec<(String, String)> = Vec::new();
        let mut resumed = 0usize;

        // Crash-safe resume: open the journal (if any), address every
        // evaluate chain by the composition of its stage keys, and
        // pre-settle chains the journal proves complete.
        let mut journal: Option<RunJournal> = None;
        let mut chain_keys: HashMap<usize, u64> = HashMap::new();
        if let Some(path) = &self.opts.journal {
            match RunJournal::open(path) {
                Ok(j) => journal = Some(j),
                Err(e) => failures.push((
                    "journal".to_string(),
                    format!("could not open run journal {}: {e}", path.display()),
                )),
            }
        }
        if let Some(j) = &journal {
            let mut h = Fnv64::new();
            h.write_str(&input.name);
            h.write_u64(graph_fingerprint(&input.graph));
            let root_fp = h.finish();
            for node in &plan.nodes {
                if node.kind == StageKind::Evaluate {
                    chain_keys.insert(node.id, chain_key(&plan, node, root_fp, &self.opts));
                }
            }
            for node in &plan.nodes {
                let Some(&key) = chain_keys.get(&node.id) else {
                    continue;
                };
                let Some(record) = j.get(key) else { continue };
                // The whole chain (sym → [prune] → cluster → evaluate) is
                // settled without execution; Load still runs (it only
                // fingerprints) and other chains are untouched — chains
                // share no nodes except Load.
                for id in chain_node_ids(&plan, node.id) {
                    debug_assert!(!settled[id], "chains must be disjoint");
                    settled[id] = true;
                    n_settled += 1;
                    let n = &plan.nodes[id];
                    (ctx.sink)(Event::StageResumed {
                        node: id,
                        stage: n.kind,
                        label: n.label.clone(),
                        key,
                    });
                }
                lock(&ctx.outputs, "outputs lock")
                    .insert(node.id, NodeOutput::Record(Box::new(record.clone())));
                resumed += 1;
            }
        }

        // Per-stage tokens handed to workers. With no deadline configured
        // the run token itself is used, so mid-stage cancellation is
        // immediate; with a deadline each stage gets its own deadline
        // token, registered (and released on settle) so run-level
        // cancellation still reaches stages already in flight.
        let token_registry = TokenRegistry::new();
        let make_stage_token = |id: usize| -> CancelToken {
            match self.opts.stage_deadline {
                None => run_token.clone(),
                Some(d) => {
                    let t = CancelToken::with_deadline(d);
                    if run_token.is_cancelled() {
                        t.cancel();
                    }
                    token_registry.register(id, t.clone());
                    t
                }
            }
        };

        let (task_tx, task_rx) = bounded::<(usize, CancelToken)>(threads);
        let (done_tx, done_rx) = unbounded::<(usize, StageResult)>();

        let mut ready: VecDeque<usize> = (0..total)
            .filter(|&i| indeg[i] == 0 && !settled[i])
            .collect();
        let mut cancelled_broadcast = false;
        let queue_gauge = registry.gauge(metric_names::QUEUE_DEPTH_HWM);
        queue_gauge.record_max(ready.len() as f64);

        #[expect(
            clippy::expect_used,
            reason = "crossbeam scope join fails only on a worker panic, already caught per-stage"
        )]
        crossbeam::thread::scope(|scope| {
            for _ in 0..threads {
                let task_rx = task_rx.clone();
                let done_tx = done_tx.clone();
                let ctx = &ctx;
                let plan = &plan;
                scope.spawn(move |_| {
                    while let Ok((id, token)) = task_rx.recv() {
                        let result = run_stage(&plan.nodes[id], ctx, &token);
                        if done_tx.send((id, result)).is_err() {
                            break;
                        }
                    }
                });
            }
            // Only workers' clones keep these halves alive.
            drop(task_rx);
            drop(done_tx);

            // Dispatcher loop.
            let skip_subtree = |root: usize,
                                settled: &mut Vec<bool>,
                                n_settled: &mut usize,
                                skipped: &mut usize| {
                let mut stack = vec![root];
                while let Some(id) = stack.pop() {
                    if settled[id] {
                        continue;
                    }
                    settled[id] = true;
                    *n_settled += 1;
                    *skipped += 1;
                    let node = &plan.nodes[id];
                    (ctx.sink)(Event::Cancelled {
                        node: id,
                        stage: node.kind,
                        label: node.label.clone(),
                    });
                    stack.extend(dependents[id].iter().copied());
                }
            };

            while n_settled < total {
                if run_token.is_cancelled() && !cancelled_broadcast {
                    cancelled_broadcast = true;
                    token_registry.cancel_all();
                }

                if run_token.is_cancelled() {
                    // Skip everything not yet dispatched.
                    while let Some(id) = ready.pop_front() {
                        skip_subtree(id, &mut settled, &mut n_settled, &mut skipped);
                    }
                } else {
                    while let Some(id) = ready.pop_front() {
                        // Blocking bounded send = backpressure: stall here
                        // (instead of queueing) while all workers are busy.
                        if task_tx.send((id, make_stage_token(id))).is_err() {
                            token_registry.release(id);
                            skip_subtree(id, &mut settled, &mut n_settled, &mut skipped);
                        }
                    }
                }
                if n_settled >= total {
                    break;
                }

                match done_rx.recv_timeout(Duration::from_millis(25)) {
                    Ok((id, result)) => {
                        debug_assert!(!settled[id]);
                        settled[id] = true;
                        n_settled += 1;
                        token_registry.release(id);
                        match result {
                            StageResult::Done(output) => {
                                if let NodeOutput::Record(record) = &output {
                                    if let (Some(j), Some(&key)) =
                                        (journal.as_mut(), chain_keys.get(&id))
                                    {
                                        if let Err(e) = j.append(key, record) {
                                            failures.push((
                                                "journal".to_string(),
                                                format!("could not append to run journal: {e}"),
                                            ));
                                        }
                                    }
                                }
                                lock(&ctx.outputs, "outputs lock").insert(id, output);
                                for &dep in &dependents[id] {
                                    if settled[dep] {
                                        continue; // pre-settled by resume
                                    }
                                    indeg[dep] -= 1;
                                    if indeg[dep] == 0 {
                                        ready.push_back(dep);
                                    }
                                }
                                queue_gauge.record_max(ready.len() as f64);
                            }
                            StageResult::Cancelled => {
                                skipped += 1;
                                let node = &plan.nodes[id];
                                (ctx.sink)(Event::Cancelled {
                                    node: id,
                                    stage: node.kind,
                                    label: node.label.clone(),
                                });
                                for &dep in &dependents[id] {
                                    skip_subtree(dep, &mut settled, &mut n_settled, &mut skipped);
                                }
                            }
                            StageResult::Failed { error, panic } => {
                                let node = &plan.nodes[id];
                                (ctx.sink)(Event::StageFailed {
                                    node: id,
                                    stage: node.kind,
                                    label: node.label.clone(),
                                    error: error.clone(),
                                    panic,
                                });
                                failures.push((node.label.clone(), error));
                                for &dep in &dependents[id] {
                                    skip_subtree(dep, &mut settled, &mut n_settled, &mut skipped);
                                }
                            }
                        }
                        (ctx.sink)(Event::Progress {
                            completed: n_settled,
                            total,
                        });
                    }
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            drop(task_tx); // ends the workers' recv loops
        })
        .expect("engine worker pool");

        // Every dispatched stage settled, so every registered stage token
        // must have been released — a non-empty registry is the token leak
        // this registry exists to prevent.
        debug_assert_eq!(token_registry.len(), 0, "stage token leak");

        // Collect records in plan (node-id) order for deterministic output.
        let mut records = Vec::new();
        #[expect(
            clippy::expect_used,
            reason = "mutex poisoning is fatal by design: a poisoned worker already aborted the sweep"
        )]
        let outputs = ctx.outputs.into_inner().expect("outputs lock");
        let mut ids: Vec<usize> = outputs.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            if let Some(NodeOutput::Record(r)) = outputs.get(&id) {
                records.push((**r).clone());
            }
        }

        let stats_after = self.cache.stats();
        let cache_delta = CacheStats {
            hits: stats_after.hits - stats_before.hits,
            misses: stats_after.misses - stats_before.misses,
            dedups: stats_after.dedups - stats_before.dedups,
        };
        registry
            .counter(metric_names::CACHE_HITS)
            .add(cache_delta.hits as u64);
        registry
            .counter(metric_names::CACHE_MISSES)
            .add(cache_delta.misses as u64);
        registry
            .counter(metric_names::INFLIGHT_DEDUPS)
            .add(cache_delta.dedups as u64);
        let snapshot = registry.snapshot();
        sink(Event::MetricsSnapshot {
            snapshot: snapshot.clone(),
        });
        SweepResult {
            records,
            cancelled: run_token.is_cancelled(),
            skipped,
            failures,
            resumed,
            cache: cache_delta,
            metrics: snapshot,
        }
    }
}

/// The named fault point a stage attempt fires (see [`crate::faultpoint`];
/// compiled to a no-op without the `fault-injection` feature).
fn fault_name(node: &StageNode) -> String {
    format!("{}:{}", node.kind.name(), node.label)
}

#[cfg(feature = "fault-injection")]
fn fire_fault(name: &str) -> Result<(), String> {
    crate::faultpoint::fire(name)
}

#[cfg(not(feature = "fault-injection"))]
fn fire_fault(_name: &str) -> Result<(), String> {
    Ok(())
}

/// The SpGEMM budget a symmetrize stage actually runs under: the
/// configured budget, or a single stored entry when a simulated-OOM fault
/// is armed at the stage's fault point.
fn effective_budget(base: Option<usize>, fault: &str) -> Option<usize> {
    #[cfg(feature = "fault-injection")]
    if crate::faultpoint::oom_armed(fault) {
        return Some(1);
    }
    let _ = fault;
    base
}

/// Content-addressed key for one evaluate chain: the dataset/graph root
/// fingerprint composed through every stage's `(name, params)` encoding.
/// Declarative (no intermediate artifacts needed), so it can be computed
/// before any stage runs — that is what makes journal resume possible.
fn chain_key(plan: &Plan, eval: &StageNode, root_fp: u64, opts: &EngineOptions) -> u64 {
    let cluster = &plan.nodes[eval.deps[0]];
    let upstream = &plan.nodes[cluster.deps[0]];
    let (prune, sym) = if upstream.kind == StageKind::Prune {
        (Some(upstream), &plan.nodes[upstream.deps[0]])
    } else {
        (None, upstream)
    };
    let method = eval.planned_method();
    let budget = effective_budget(opts.memory_budget, &fault_name(sym));
    let (sym_stage, sym_params) = method.cache_params_with_budget(budget);
    let mut key = stage_key(root_fp, sym_stage, &sym_params);
    if let Some(p) = prune {
        let t = p.planned_threshold();
        key = stage_key(key, "prune", &[t]);
    }
    let clusterer = eval.planned_clusterer();
    let (cl_stage, cl_params) = clusterer.cache_params();
    stage_key(key, cl_stage, &cl_params)
}

/// The node ids of an evaluate chain (symmetrize up to evaluate, excluding
/// the shared Load node), in ascending id order.
fn chain_node_ids(plan: &Plan, eval_id: usize) -> Vec<usize> {
    let mut ids = vec![eval_id];
    let mut cursor = plan.nodes[eval_id].deps[0];
    while plan.nodes[cursor].kind != StageKind::Load {
        ids.push(cursor);
        cursor = plan.nodes[cursor].deps[0];
    }
    ids.reverse();
    ids
}

/// Fetches a dependency's output (present by construction: the dispatcher
/// only releases a node once all dependencies have settled successfully).
#[expect(
    clippy::expect_used,
    reason = "present by construction: the dispatcher releases a node only after its deps settled"
)]
fn dep_output(ctx: &ExecCtx<'_>, id: usize) -> NodeOutput {
    lock(&ctx.outputs, "outputs lock")
        .get(&id)
        .cloned()
        .expect("dependency output missing")
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: (non-string payload)".to_string()
    }
}

/// Failure classification for the retry loop: errors that self-describe as
/// transient (I/O hiccups, injected transient faults) are worth retrying;
/// everything else — panics included — is treated as deterministic and
/// fails the chain immediately.
fn is_transient(error: &str) -> bool {
    error.contains("transient")
}

/// Sleeps `delay_ms` in short increments, polling the stage token so a
/// cancellation (run-level or deadline) cuts the backoff short. Returns
/// `false` when cancelled.
fn sleep_unless_cancelled(token: &CancelToken, delay_ms: u64) -> bool {
    let deadline = Instant::now() + Duration::from_millis(delay_ms);
    loop {
        if token.is_cancelled() {
            return false;
        }
        let now = Instant::now();
        if now >= deadline {
            return true;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(10)));
    }
}

/// Executes one stage with panic isolation and transient-failure retry.
/// Runs on a worker thread.
fn run_stage(node: &StageNode, ctx: &ExecCtx<'_>, token: &CancelToken) -> StageResult {
    if token.is_cancelled() {
        return StageResult::Cancelled;
    }
    (ctx.sink)(Event::StageStarted {
        node: node.id,
        stage: node.kind,
        label: node.label.clone(),
    });
    let max_attempts = ctx.retry.max_attempts.max(1);
    let mut attempt = 1;
    loop {
        let outcome =
            std::panic::catch_unwind(AssertUnwindSafe(|| run_stage_attempt(node, ctx, token)));
        match outcome {
            Err(payload) => {
                // A panicking kernel is isolated here: the worker thread
                // survives, sibling chains keep running, and the failure
                // surfaces as a structured event instead of an abort.
                return StageResult::Failed {
                    error: panic_message(payload.as_ref()),
                    panic: true,
                };
            }
            Ok(StageResult::Failed {
                error,
                panic: false,
            }) if attempt < max_attempts && is_transient(&error) => {
                ctx.metrics.counter(metric_names::RETRIES).inc();
                let delay_ms = ctx.retry.delay_ms(node.id, attempt);
                (ctx.sink)(Event::StageRetrying {
                    node: node.id,
                    stage: node.kind,
                    label: node.label.clone(),
                    attempt,
                    max_attempts,
                    delay_ms,
                    error,
                });
                if !sleep_unless_cancelled(token, delay_ms) {
                    return StageResult::Cancelled;
                }
                attempt += 1;
            }
            Ok(result) => return result,
        }
    }
}

/// One attempt at a stage's actual work, emitting its finished/cache-hit
/// events.
fn run_stage_attempt(node: &StageNode, ctx: &ExecCtx<'_>, token: &CancelToken) -> StageResult {
    if token.is_cancelled() {
        return StageResult::Cancelled;
    }
    // RAII: every attempt (cache hits included) lands in `stage.<kind>`.
    let _stage_span = ctx.metrics.span(&format!("stage.{}", node.kind.name()));
    let start = Instant::now();
    let finished = |output_items: usize| Event::StageFinished {
        node: node.id,
        stage: node.kind,
        label: node.label.clone(),
        secs: start.elapsed().as_secs_f64(),
        output_items,
    };
    let failed = |error: String| StageResult::Failed {
        error,
        panic: false,
    };

    match node.kind {
        StageKind::Load => {
            let fp = graph_fingerprint(&ctx.input.graph);
            (ctx.sink)(finished(ctx.input.graph.n_nodes()));
            StageResult::Done(NodeOutput::Fingerprint(fp))
        }
        StageKind::Symmetrize => {
            let NodeOutput::Fingerprint(fp) = dep_output(ctx, node.deps[0]) else {
                return failed("load artifact has wrong type".into());
            };
            let method = node.planned_method();
            let fault = fault_name(node);
            let budget = effective_budget(ctx.memory_budget, &fault);
            let (stage_name, params) = method.cache_params_with_budget(budget);
            let key = stage_key(fp, stage_name, &params);
            // The fault point fires inside the compute closure so an
            // injected panic also exercises the cache's in-flight guard.
            match ctx.cache.get_or_compute(key, || {
                fire_fault(&fault).map_err(SymmetrizeError::InvalidConfig)?;
                let sym = method.build(budget, ctx.tuning).symmetrize_observed(
                    &ctx.input.graph,
                    token,
                    Some(ctx.metrics),
                )?;
                // Structural + exact-symmetry validation at the kernel
                // boundary (DESIGN.md §13). Exact symmetry is the contract
                // here: the SYRK mirror pass and the commutative additive
                // combines both produce bit-identical (i,j)/(j,i) pairs.
                if ctx.validate_outputs() {
                    sym.adjacency()
                        .validate_symmetric()
                        .map_err(SymmetrizeError::Sparse)?;
                }
                Ok::<_, SymmetrizeError>(sym)
            }) {
                Ok((sym, hit)) => {
                    if hit {
                        (ctx.sink)(Event::CacheHit {
                            node: node.id,
                            stage: node.kind,
                            label: node.label.clone(),
                            key,
                        });
                    } else {
                        // Per-variant wall time and degraded fallbacks are
                        // attributed to actual computations only — a cache
                        // hit of a degraded artifact does not recount.
                        ctx.metrics.observe_span_secs(
                            &format!("sym.{}", node.label),
                            start.elapsed().as_secs_f64(),
                        );
                        if sym.degraded() {
                            ctx.metrics.counter(metric_names::SYM_DEGRADED_RUNS).inc();
                        }
                        (ctx.sink)(finished(sym.n_edges()));
                    }
                    StageResult::Done(NodeOutput::Sym(sym))
                }
                Err(e) if e.is_cancelled() => StageResult::Cancelled,
                Err(e) => failed(e.to_string()),
            }
        }
        StageKind::Prune => {
            let NodeOutput::Sym(sym) = dep_output(ctx, node.deps[0]) else {
                return failed("prune input has wrong type".into());
            };
            if token.is_cancelled() {
                return StageResult::Cancelled;
            }
            // Threshold appears as the stage parameter; the input is
            // addressed by its exact matrix content.
            let threshold = node.planned_threshold();
            let key = stage_key(matrix_fingerprint(sym.adjacency()), "prune", &[threshold]);
            let fault = fault_name(node);
            let compute = || -> Result<SymmetrizedGraph, String> {
                fire_fault(&fault)?;
                let edges_in = sym.adjacency().nnz();
                let (pruned, _dropped) = ops::prune(sym.adjacency(), threshold);
                // Pruning thresholds on the value, and mirrored entries
                // carry bit-equal values, so symmetry must survive; a
                // violation here is a prune-kernel bug (DESIGN.md §13).
                if ctx.validate_outputs() {
                    pruned.validate_symmetric().map_err(|e| e.to_string())?;
                }
                let edges_out = pruned.nnz();
                ctx.metrics
                    .counter(metric_names::PRUNE_EDGES_IN)
                    .add(edges_in as u64);
                ctx.metrics
                    .counter(metric_names::PRUNE_EDGES_OUT)
                    .add(edges_out as u64);
                if edges_in > 0 {
                    ctx.metrics
                        .gauge(metric_names::PRUNE_SURVIVAL_RATIO)
                        .set(edges_out as f64 / edges_in as f64);
                }
                let mut un = UnGraph::from_symmetric_unchecked(pruned);
                if let Some(labels) = sym.graph().labels() {
                    un = un.with_labels(labels.to_vec()).map_err(|e| e.to_string())?;
                }
                Ok(SymmetrizedGraph::new(
                    un,
                    sym.method().to_string(),
                    threshold,
                    sym.elapsed() + start.elapsed(),
                )
                .with_degraded(sym.degraded()))
            };
            match ctx.cache.get_or_compute(key, compute) {
                Ok((pruned, hit)) => {
                    if hit {
                        (ctx.sink)(Event::CacheHit {
                            node: node.id,
                            stage: node.kind,
                            label: node.label.clone(),
                            key,
                        });
                    } else {
                        (ctx.sink)(finished(pruned.n_edges()));
                    }
                    StageResult::Done(NodeOutput::Sym(pruned))
                }
                Err(e) => failed(e),
            }
        }
        StageKind::Cluster => {
            let NodeOutput::Sym(sym) = dep_output(ctx, node.deps[0]) else {
                return failed("cluster input has wrong type".into());
            };
            if let Err(e) = fire_fault(&fault_name(node)) {
                return failed(e);
            }
            let clusterer = node.planned_clusterer();
            match clusterer
                .build()
                .cluster_observed(sym.graph(), token, Some(ctx.metrics))
            {
                Ok(clustering) => {
                    let secs = start.elapsed().as_secs_f64();
                    (ctx.sink)(finished(clustering.n_clusters()));
                    StageResult::Done(NodeOutput::Clustered {
                        clustering: Arc::new(clustering),
                        secs,
                        sym,
                    })
                }
                Err(e) if e.is_cancelled() => StageResult::Cancelled,
                Err(e) => failed(e.to_string()),
            }
        }
        StageKind::Evaluate => {
            let NodeOutput::Clustered {
                clustering,
                secs,
                sym,
            } = dep_output(ctx, node.deps[0])
            else {
                return failed("evaluate input has wrong type".into());
            };
            let method = node.planned_method();
            let clusterer = node.planned_clusterer();
            let f_score = ctx
                .input
                .truth
                .as_deref()
                .map(|t| avg_f_score(clustering.assignments(), t).avg_f);
            let record = RunRecord {
                dataset: ctx.input.name.clone(),
                symmetrization: method.name(),
                algorithm: clusterer.name().to_string(),
                n_clusters: clustering.n_clusters(),
                f_score,
                cluster_secs: secs,
                symmetrize_secs: sym.elapsed().as_secs_f64(),
                sym_edges: sym.n_edges(),
                degraded: sym.degraded(),
                converged: clustering.converged(),
            };
            (ctx.sink)(finished(1));
            StageResult::Done(NodeOutput::Record(Box::new(record)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Clusterer, SymMethod};
    use symclust_graph::generators::figure1_graph;

    #[test]
    fn retry_delays_are_deterministic_bounded_and_jittered() {
        let p = RetryPolicy::default();
        for node in 0..20 {
            for attempt in 1..10 {
                let d = p.delay_ms(node, attempt);
                assert_eq!(d, p.delay_ms(node, attempt), "must be deterministic");
                let capped = (p.base_delay_ms << (attempt - 1).min(20)).min(p.max_delay_ms);
                assert!(d <= capped, "delay {d} above cap {capped}");
                assert!(d >= capped / 2, "delay {d} below half the cap {capped}");
            }
        }
        // Jitter decorrelates siblings: not every node gets the same delay.
        let delays: std::collections::HashSet<u64> =
            (0..50).map(|node| p.delay_ms(node, 2)).collect();
        assert!(delays.len() > 1, "jitter had no effect");
    }

    #[test]
    fn retry_delay_saturates_at_max() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_delay_ms: 100,
            max_delay_ms: 400,
        };
        for attempt in 4..10 {
            assert!(p.delay_ms(0, attempt) <= 400);
        }
    }

    #[test]
    fn token_registry_registers_and_releases() {
        let reg = TokenRegistry::new();
        reg.register(1, CancelToken::new());
        reg.register(2, CancelToken::new());
        assert_eq!(reg.len(), 2);
        reg.release(1);
        assert_eq!(reg.len(), 1);
        reg.release(1); // releasing an absent node is harmless
        let t = CancelToken::new();
        reg.register(3, t.clone());
        reg.cancel_all();
        assert!(t.is_cancelled());
        reg.release(2);
        reg.release(3);
        assert_eq!(reg.len(), 0);
    }

    #[test]
    fn transient_classifier_matches_injected_and_io_errors() {
        assert!(is_transient("transient: injected fault at cluster:X"));
        assert!(is_transient("io error: transient network failure"));
        assert!(!is_transient("invalid config: bad alpha"));
        assert!(!is_transient("panic: index out of bounds"));
    }

    /// Regression (token leak): a sweep under a short per-stage deadline
    /// must release every stage token it registers — previously tokens
    /// accumulated for the whole sweep — and a single-worker pool must
    /// survive deadline expiry mid-stage without wedging the bounded task
    /// channel. The `debug_assert_eq!(token_registry.len(), 0, ..)` at the
    /// end of `run_cancellable` enforces the leak-free property whenever
    /// this test runs (tests always build with debug assertions).
    #[test]
    fn deadline_expiry_releases_all_stage_tokens_and_frees_workers() {
        let g = figure1_graph();
        let input = PipelineInput::new("fig1", g, None);
        let spec = PipelineSpec {
            methods: SymMethod::lineup(0.0, 0.0),
            clusterers: vec![Clusterer::Metis { k: 2 }],
            extra_prune: Some(0.5),
        };
        let engine = Engine::new(EngineOptions {
            threads: 1,
            stage_deadline: Some(Duration::from_millis(1)),
            ..Default::default()
        });
        // Run twice on the same engine: if a deadline expiry leaked a
        // worker or a channel slot, the second sweep would hang.
        for _ in 0..2 {
            let result = engine.run(&input, &spec, &|_| {});
            assert!(!result.cancelled);
            assert_eq!(result.resumed, 0, "no journal configured");
        }
    }

    #[test]
    fn chain_keys_are_distinct_per_chain_and_stable() {
        let spec = PipelineSpec {
            methods: SymMethod::lineup(1.0, 0.5),
            clusterers: vec![
                Clusterer::Metis { k: 3 },
                Clusterer::MlrMcl { inflation: 2.0 },
            ],
            extra_prune: Some(0.5),
        };
        let plan = Plan::build(&spec);
        let opts = EngineOptions::default();
        let mut keys = std::collections::HashSet::new();
        for node in &plan.nodes {
            if node.kind == StageKind::Evaluate {
                let k = chain_key(&plan, node, 42, &opts);
                assert_eq!(k, chain_key(&plan, node, 42, &opts), "stable");
                assert_ne!(k, chain_key(&plan, node, 43, &opts), "input-sensitive");
                assert!(keys.insert(k), "chain key collision");
            }
        }
        assert_eq!(keys.len(), 8);
        // A memory budget changes the chain keys of similarity methods
        // (their artifacts differ under a budget) but not A+A'/RW.
        let budgeted = EngineOptions {
            memory_budget: Some(1000),
            ..Default::default()
        };
        for node in &plan.nodes {
            if node.kind == StageKind::Evaluate {
                let method = node.method.unwrap();
                let same =
                    chain_key(&plan, node, 42, &opts) == chain_key(&plan, node, 42, &budgeted);
                assert_eq!(same, !method.uses_budget(), "{}", method.name());
            }
        }
    }

    #[test]
    fn chain_node_ids_walk_back_to_but_exclude_load() {
        let spec = PipelineSpec {
            methods: vec![SymMethod::PlusTranspose],
            clusterers: vec![Clusterer::Metis { k: 2 }],
            extra_prune: Some(0.5),
        };
        let plan = Plan::build(&spec);
        let eval_id = plan
            .nodes
            .iter()
            .find(|n| n.kind == StageKind::Evaluate)
            .unwrap()
            .id;
        let ids = chain_node_ids(&plan, eval_id);
        assert_eq!(ids.len(), 4); // sym, prune, cluster, evaluate
        assert!(!ids.contains(&0), "Load is shared, never pre-settled");
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ascending order");
        assert_eq!(*ids.last().unwrap(), eval_id);
    }
}
