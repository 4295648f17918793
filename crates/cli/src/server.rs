//! The `symclust serve` daemon: a long-running clustering service over a
//! unix socket (TCP behind a flag) backed by the disk artifact store.
//!
//! Architecture (DESIGN.md §14):
//!
//! - one **accept thread** hands each connection to its own **reader
//!   thread**, which parses request lines and enqueues jobs;
//! - admission is a single bounded FIFO queue shared by every
//!   connection — fair (global arrival order) and explicit about
//!   pressure: a full queue answers `overloaded` immediately instead of
//!   stalling the reader;
//! - a fixed **worker pool** drains the queue; each request runs under
//!   its own [`CancelToken`], deadline-armed from `timeout-ms` (or the
//!   server default), and the reader cancels every in-flight token of a
//!   connection the moment its client disconnects;
//! - artifacts flow through the two-tier cache ([`TieredCache`]): L1
//!   memory → verified disk blob → kernel. Hits run no kernel at all, so
//!   a repeated request is served without touching `spgemm.calls`, and
//!   its response is rendered from the summary the artifact got when it
//!   entered L1 ([`symclust_store::Cached`]), not from its arrays;
//! - a `query-membership` whose clustering is resident in L1 never
//!   reaches the queue: the **reader thread answers it inline** (the read
//!   lane), so a cheap read does not wait behind another client's cold
//!   compute. Responses on one pipelined connection may therefore come
//!   back out of request order — correlate by `id`.
//!
//! Responses are deterministic (only content-derived fields — see
//! [`crate::protocol`]); cache behavior is visible through the `stats`
//! op and the `serve.*` / `store.*` metrics, never through response
//! bytes.
//!
//! Shutdown is a **drain**, not a halt: `shutdown` requests, SIGTERM,
//! and SIGINT all flip one flag, after which the accept loop exits,
//! readers refuse new work (`health` excepted), and workers finish the
//! admitted queue before exiting — bounded by a drain deadline that
//! cancels whatever is still in flight. The last act of
//! [`Server::join`] persists the store's stats sidecar so restart
//! counters carry over. The `health` op is answered inline by the
//! reader thread, out-of-band of the admission queue, so probes work
//! even when the queue is full or the daemon is draining.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use symclust_cluster::Clustering;
use symclust_engine::fingerprint::graph_fingerprint;
use symclust_graph::io::read_edge_list;
use symclust_graph::{DiGraph, UnGraph};
use symclust_obs::MetricsRegistry;
use symclust_sparse::{CancelToken, CsrMatrix};
use symclust_store::{
    cluster_cached, cluster_key, symmetrize_cached, symmetrize_key, DiskStore, StoreOptions,
    TieredCache,
};

use crate::protocol::{self, Envelope, ErrorCode, Request};

/// Metric names the daemon emits (documented in DESIGN.md §11).
pub mod metric_names {
    /// Counter: connections accepted.
    pub const SERVE_CONNECTIONS: &str = "serve.connections";
    /// Counter: requests taken up for an answer — dequeued by a worker,
    /// or answered inline by the read lane.
    pub const SERVE_REQUESTS: &str = "serve.requests";
    /// Counter: `query-membership` requests the reader thread answered
    /// from L1 without queueing (a subset of `serve.requests`).
    pub const SERVE_INLINE_READS: &str = "serve.inline_reads";
    /// Span: admission (`try_send`) to dequeue, one per queued request.
    /// Its counterpart `serve.service.<op>` (dequeue to response written)
    /// is named per op at the recording site in `worker_loop`.
    pub const SERVE_WAIT: &str = "serve.wait";
    /// Counter: error responses sent (any error code).
    pub const SERVE_ERRORS: &str = "serve.errors";
    /// Counter: requests rejected because the admission queue was full.
    pub const SERVE_OVERLOADED: &str = "serve.overloaded";
    /// Counter: requests that hit their deadline.
    pub const SERVE_DEADLINE: &str = "serve.deadline_exceeded";
    /// Counter: requests cancelled by client disconnect.
    pub const SERVE_CANCELLED: &str = "serve.cancelled";
    /// Gauge: high-water mark of the admission queue depth.
    pub const SERVE_QUEUE_DEPTH_HWM: &str = "serve.queue_depth_hwm";
}

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum BindAddr {
    /// A unix-domain socket at this path (the default transport).
    Unix(PathBuf),
    /// A TCP address like `127.0.0.1:7878` (behind `--tcp`).
    Tcp(String),
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listening address.
    pub bind: BindAddr,
    /// Root directory of the artifact store.
    pub store_dir: PathBuf,
    /// Worker threads draining the admission queue.
    pub workers: usize,
    /// Bounded admission-queue capacity; a full queue answers
    /// `overloaded`.
    pub queue_cap: usize,
    /// Default per-request deadline when the request carries none.
    pub default_timeout_ms: Option<u64>,
    /// Store eviction budget in bytes (`None` = unbounded).
    pub store_budget_bytes: Option<u64>,
    /// Drain deadline: how long a shutdown waits for admitted work
    /// before cancelling whatever is still in flight.
    pub drain_ms: u64,
    /// Per-connection read timeout; a connection that stalls mid-line
    /// longer than this is closed (`None` = wait forever).
    pub read_timeout_ms: Option<u64>,
}

impl ServeOptions {
    /// Defaults: unix socket `path`, store beside it, 2 workers,
    /// 64-deep queue, no default deadline, unbounded store, 2 s drain,
    /// no read timeout.
    pub fn unix(socket: impl Into<PathBuf>, store_dir: impl Into<PathBuf>) -> Self {
        ServeOptions {
            bind: BindAddr::Unix(socket.into()),
            store_dir: store_dir.into(),
            workers: 2,
            queue_cap: 64,
            default_timeout_ms: None,
            store_budget_bytes: None,
            drain_ms: 2000,
            read_timeout_ms: None,
        }
    }
}

/// The concrete endpoint after binding (the unix path, or the TCP
/// address with any `:0` port resolved).
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// Bound unix socket path.
    Unix(PathBuf),
    /// Bound TCP address.
    Tcp(std::net::SocketAddr),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// Per-connection registry of in-flight request tokens. The reader
/// cancels all of them when the client disconnects; workers release
/// their slot when the request finishes so the registry stays small on
/// long-lived connections.
struct ConnTokens {
    slots: Mutex<Vec<Option<CancelToken>>>,
}

impl ConnTokens {
    fn new() -> Self {
        ConnTokens {
            slots: Mutex::new(Vec::new()),
        }
    }

    fn register(&self, token: CancelToken) -> usize {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(free) = slots.iter().position(Option::is_none) {
            slots[free] = Some(token);
            free
        } else {
            slots.push(Some(token));
            slots.len() - 1
        }
    }

    fn release(&self, slot: usize) {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(s) = slots.get_mut(slot) {
            *s = None;
        }
    }

    fn cancel_all(&self) {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        for token in slots.iter().flatten() {
            token.cancel();
        }
    }
}

/// Counts live workers so the drain watchdog can wake the moment the
/// pool finishes instead of sleeping the full `drain_ms`: the last
/// worker to exit notifies the condvar, and a completed drain leaves no
/// sleeping thread behind.
struct DrainLatch {
    workers_left: Mutex<usize>,
    drained: Condvar,
}

impl DrainLatch {
    fn new(workers: usize) -> Self {
        DrainLatch {
            workers_left: Mutex::new(workers),
            drained: Condvar::new(),
        }
    }

    fn worker_exited(&self) {
        let mut left = self
            .workers_left
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *left = left.saturating_sub(1);
        if *left == 0 {
            self.drained.notify_all();
        }
    }

    /// Blocks until every worker has exited or `ms` elapses; returns
    /// `true` when the drain completed before the deadline.
    fn wait_drained(&self, ms: u64) -> bool {
        let left = self
            .workers_left
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let (left, _timeout) = self
            .drained
            .wait_timeout_while(left, Duration::from_millis(ms), |left| *left > 0)
            .unwrap_or_else(PoisonError::into_inner);
        *left == 0
    }
}

type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// One admitted request, owned by a worker once dequeued.
struct Job {
    env: Envelope,
    token: CancelToken,
    client_gone: Arc<AtomicBool>,
    writer: SharedWriter,
    registry: Arc<ConnTokens>,
    slot: usize,
    /// When the reader handed the job to the queue (`serve.wait` starts).
    admitted: Instant,
    /// Slot in the server-wide [`ServerState::active`] registry, which
    /// the drain watchdog cancels when the deadline passes.
    active_slot: usize,
}

impl Job {
    /// Releases both registry slots (per-connection and server-wide);
    /// every exit path of a job must end here exactly once.
    fn release(&self, state: &ServerState) {
        self.registry.release(self.slot);
        state.active.release(self.active_slot);
    }
}

/// Shared daemon state.
struct ServerState {
    endpoint: Endpoint,
    store: Arc<DiskStore>,
    sym_cache: TieredCache<CsrMatrix>,
    cluster_cache: TieredCache<Clustering>,
    graphs: Mutex<HashMap<u64, Arc<DiGraph>>>,
    metrics: MetricsRegistry,
    shutdown: AtomicBool,
    queue_depth: AtomicUsize,
    default_timeout_ms: Option<u64>,
    workers: usize,
    drain_ms: u64,
    read_timeout_ms: Option<u64>,
    /// Every in-flight request's token, across all connections — what
    /// the drain watchdog cancels when the deadline passes.
    active: ConnTokens,
    /// Wakes the drain watchdog as soon as the worker pool exits.
    drain: DrainLatch,
    /// The drain watchdog's handle, so [`Server::join`] can reap it.
    watchdog: Mutex<Option<JoinHandle<()>>>,
}

impl ServerState {
    /// Resolves a graph fingerprint: in-memory map first, then the disk
    /// store (uploads are persisted as matrix blobs under their own
    /// fingerprint, so they survive restarts). A blob whose content does
    /// not hash back to `fp` is *not* a graph upload — it is some stage
    /// artifact that happens to share the namespace — and is refused.
    fn resolve_graph(&self, fp: u64) -> Option<Arc<DiGraph>> {
        {
            let graphs = self.graphs.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(g) = graphs.get(&fp) {
                return Some(Arc::clone(g));
            }
        }
        let adj = self.store.load::<CsrMatrix>(fp)?;
        let g = DiGraph::from_adjacency(adj).ok()?;
        if graph_fingerprint(&g) != fp {
            return None;
        }
        let g = Arc::new(g);
        let mut graphs = self.graphs.lock().unwrap_or_else(PoisonError::into_inner);
        Some(Arc::clone(graphs.entry(fp).or_insert(g)))
    }
}

/// Begins the drain: flips the shutdown flag, arms the drain-deadline
/// watchdog (which cancels every still-active token once `drain_ms`
/// passes), and wakes the accept loop with a throwaway connection so it
/// observes the flag. Idempotent — the `shutdown` op, SIGTERM/SIGINT,
/// and [`Server::shutdown`] all funnel here. The watchdog parks on the
/// [`DrainLatch`] condvar rather than sleeping the full `drain_ms`, so
/// a drain that finishes early wakes it immediately and no cancel fires.
fn begin_shutdown(state: &Arc<ServerState>) {
    if state.shutdown.swap(true, Ordering::AcqRel) {
        return;
    }
    let watchdog = Arc::clone(state);
    let handle = std::thread::spawn(move || {
        if !watchdog.drain.wait_drained(watchdog.drain_ms) {
            watchdog.active.cancel_all();
        }
    });
    *state
        .watchdog
        .lock()
        .unwrap_or_else(PoisonError::into_inner) = Some(handle);
    match &state.endpoint {
        Endpoint::Unix(p) => drop(UnixStream::connect(p)),
        Endpoint::Tcp(a) => drop(TcpStream::connect(a)),
    }
}

/// SIGTERM/SIGINT handling without any signal-crate dependency: the
/// handler only flips one static flag (the async-signal-safe minimum),
/// and [`Server::drain_on_termination`] polls it from an ordinary
/// thread, translating "the operator asked us to stop" into the same
/// drain path as the `shutdown` op.
pub mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub(super) static TERMINATE: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        TERMINATE.store(true, Ordering::Release);
    }

    /// Installs the SIGTERM/SIGINT handlers. Call once, before serving.
    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }

    /// Whether a termination signal has arrived since [`install`].
    pub fn termination_requested() -> bool {
        TERMINATE.load(Ordering::Acquire)
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// A running daemon: call [`Server::start`], then [`Server::join`] to
/// block until a `shutdown` request (or [`Server::shutdown`]) stops it.
pub struct Server {
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and accept loop, and returns. The
    /// endpoint is live once this returns.
    pub fn start(opts: ServeOptions) -> Result<Server, String> {
        let (listener, endpoint) = bind(&opts.bind)?;
        let store = DiskStore::open(
            &opts.store_dir,
            StoreOptions {
                byte_budget: opts.store_budget_bytes,
            },
        )
        .map_err(|e| format!("cannot open store at {}: {e}", opts.store_dir.display()))?;
        let metrics = MetricsRegistry::new();
        let store = Arc::new(store.with_metrics(metrics.clone()));
        let state = Arc::new(ServerState {
            endpoint,
            store: Arc::clone(&store),
            sym_cache: TieredCache::new(Arc::clone(&store)),
            cluster_cache: TieredCache::new(store),
            graphs: Mutex::new(HashMap::new()),
            metrics,
            shutdown: AtomicBool::new(false),
            queue_depth: AtomicUsize::new(0),
            default_timeout_ms: opts.default_timeout_ms,
            workers: opts.workers.max(1),
            drain_ms: opts.drain_ms,
            read_timeout_ms: opts.read_timeout_ms,
            active: ConnTokens::new(),
            drain: DrainLatch::new(opts.workers.max(1)),
            watchdog: Mutex::new(None),
        });

        let (tx, rx) = sync_channel::<Job>(opts.queue_cap.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..opts.workers.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || worker_loop(&state, &rx))
            })
            .collect();
        let accept = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || accept_loop(listener, &state, &tx))
        };
        Ok(Server {
            state,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound endpoint (prints as `unix:<path>` or `tcp:<addr>`).
    pub fn endpoint(&self) -> Endpoint {
        self.state.endpoint.clone()
    }

    /// The daemon's metrics registry (shared with the store).
    pub fn metrics(&self) -> MetricsRegistry {
        self.state.metrics.clone()
    }

    /// The artifact store behind the daemon.
    pub fn store(&self) -> Arc<DiskStore> {
        Arc::clone(&self.state.store)
    }

    /// Programmatic shutdown (same path as the `shutdown` op).
    pub fn shutdown(&self) {
        begin_shutdown(&self.state);
    }

    /// Spawns a watcher thread that begins the drain when a SIGTERM or
    /// SIGINT handled by [`signals::install`] arrives. The thread exits
    /// once the daemon is draining for any reason.
    pub fn drain_on_termination(&self) {
        let state = Arc::clone(&self.state);
        std::thread::spawn(move || loop {
            if state.shutdown.load(Ordering::Acquire) {
                break;
            }
            if signals::termination_requested() {
                begin_shutdown(&state);
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    }

    /// Blocks until the daemon has drained and all threads exited, then
    /// persists the store's stats sidecar so counters survive restart.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // The latch has been notified by now, so this returns promptly
        // even when `drain_ms` is large.
        let watchdog = self
            .state
            .watchdog
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(handle) = watchdog {
            let _ = handle.join();
        }
        self.state.store.flush_stats();
    }
}

fn bind(addr: &BindAddr) -> Result<(Listener, Endpoint), String> {
    match addr {
        BindAddr::Unix(path) => {
            if path.exists() {
                // A connectable socket means another daemon is alive;
                // a dead one is stale and safe to replace.
                if UnixStream::connect(path).is_ok() {
                    return Err(format!("socket {} is already being served", path.display()));
                }
                std::fs::remove_file(path)
                    .map_err(|e| format!("cannot remove stale socket {}: {e}", path.display()))?;
            }
            let listener = UnixListener::bind(path)
                .map_err(|e| format!("cannot bind {}: {e}", path.display()))?;
            Ok((Listener::Unix(listener), Endpoint::Unix(path.clone())))
        }
        BindAddr::Tcp(addr) => {
            let listener =
                TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
            let local = listener
                .local_addr()
                .map_err(|e| format!("cannot resolve bound address: {e}"))?;
            Ok((Listener::Tcp(listener), Endpoint::Tcp(local)))
        }
    }
}

fn accept_loop(listener: Listener, state: &Arc<ServerState>, queue: &SyncSender<Job>) {
    let read_timeout = state.read_timeout_ms.map(Duration::from_millis);
    loop {
        let split: std::io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> = match &listener
        {
            Listener::Unix(l) => l.accept().and_then(|(s, _)| {
                s.set_read_timeout(read_timeout)?;
                let r = s.try_clone()?;
                Ok((Box::new(r) as _, Box::new(s) as _))
            }),
            Listener::Tcp(l) => l.accept().and_then(|(s, _)| {
                s.set_read_timeout(read_timeout)?;
                let r = s.try_clone()?;
                Ok((Box::new(r) as _, Box::new(s) as _))
            }),
        };
        if state.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok((reader, writer)) = split else {
            continue;
        };
        let state = Arc::clone(state);
        let queue = queue.clone();
        std::thread::spawn(move || handle_connection(&state, &queue, reader, writer));
    }
    if let Endpoint::Unix(path) = &state.endpoint {
        let _ = std::fs::remove_file(path);
    }
}

/// Sends one response line. The newline travels in the same write as the
/// line: the socket is unbuffered, so every write is a syscall and a
/// chance to wake the client before its line is complete.
fn write_line(writer: &SharedWriter, mut line: String) {
    line.push('\n');
    let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
    let _ = w.write_all(line.as_bytes());
    let _ = w.flush();
}

fn handle_connection(
    state: &Arc<ServerState>,
    queue: &SyncSender<Job>,
    reader: Box<dyn Read + Send>,
    writer: Box<dyn Write + Send>,
) {
    state.metrics.counter(metric_names::SERVE_CONNECTIONS).inc();
    let writer: SharedWriter = Arc::new(Mutex::new(writer));
    let registry = Arc::new(ConnTokens::new());
    let client_gone = Arc::new(AtomicBool::new(false));
    let mut reader = BufReader::new(reader);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let env = match protocol::parse_request(trimmed) {
            Ok(env) => env,
            Err(detail) => {
                state.metrics.counter(metric_names::SERVE_ERRORS).inc();
                write_line(
                    &writer,
                    protocol::response_error(None, None, ErrorCode::BadRequest, &detail),
                );
                continue;
            }
        };
        // Health is answered here, out-of-band of the admission queue:
        // a probe must work when the queue is full and while draining.
        if matches!(env.request, Request::Health) {
            write_line(&writer, health_response(state, &env));
            continue;
        }
        // Once draining, no new work is admitted; queued work finishes.
        if state.shutdown.load(Ordering::Acquire) {
            state.metrics.counter(metric_names::SERVE_ERRORS).inc();
            write_line(
                &writer,
                protocol::response_error(
                    Some(protocol::op_name(&env.request)),
                    env.id.as_deref(),
                    ErrorCode::Internal,
                    "daemon is draining; no new work admitted",
                ),
            );
            continue;
        }
        // The read lane. A membership query on a clustering resident in
        // L1 costs less than its trip through the queue, so the reader
        // answers it here (after the flag check: a draining daemon refuses
        // it like any other op). It bypasses the bounded queue, which is
        // safe because this reader serialises its own connection's reads;
        // an L1 miss (disk tier, unknown key) is admitted as usual.
        if let Request::QueryMembership { cluster_key, node } = &env.request {
            if let Some(clustering) = state.cluster_cache.l1().get(*cluster_key) {
                state.metrics.counter(metric_names::SERVE_REQUESTS).inc();
                state
                    .metrics
                    .counter(metric_names::SERVE_INLINE_READS)
                    .inc();
                let id = env.id.as_deref();
                write_line(
                    &writer,
                    membership_response(state, id, *cluster_key, *node, &clustering),
                );
                continue;
            }
        }
        let token = match env.timeout_ms.or(state.default_timeout_ms) {
            Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
            None => CancelToken::new(),
        };
        let slot = registry.register(token.clone());
        let active_slot = state.active.register(token.clone());
        let job = Job {
            env,
            token,
            client_gone: Arc::clone(&client_gone),
            writer: Arc::clone(&writer),
            registry: Arc::clone(&registry),
            slot,
            admitted: Instant::now(),
            active_slot,
        };
        // Count the job in *before* sending: a worker may dequeue (and
        // decrement) the instant try_send returns.
        let depth = state.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        state
            .metrics
            .gauge(metric_names::SERVE_QUEUE_DEPTH_HWM)
            .record_max(depth as f64);
        match queue.try_send(job) {
            Ok(()) => {}
            Err(TrySendError::Full(job)) => {
                state.queue_depth.fetch_sub(1, Ordering::Relaxed);
                state.metrics.counter(metric_names::SERVE_OVERLOADED).inc();
                state.metrics.counter(metric_names::SERVE_ERRORS).inc();
                write_line(
                    &job.writer,
                    protocol::response_overloaded(
                        Some(protocol::op_name(&job.env.request)),
                        job.env.id.as_deref(),
                        "admission queue is full; retry later",
                    ),
                );
                job.release(state);
            }
            Err(TrySendError::Disconnected(job)) => {
                state.queue_depth.fetch_sub(1, Ordering::Relaxed);
                write_line(
                    &job.writer,
                    protocol::response_error(
                        Some(protocol::op_name(&job.env.request)),
                        job.env.id.as_deref(),
                        ErrorCode::Internal,
                        "daemon is shutting down",
                    ),
                );
                job.release(state);
                break;
            }
        }
    }
    // Client is gone: cancel whatever of its requests is still queued or
    // computing so workers stop burning kernel time for nobody.
    client_gone.store(true, Ordering::Release);
    registry.cancel_all();
}

fn worker_loop(state: &Arc<ServerState>, rx: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        let job = {
            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
            guard.recv_timeout(Duration::from_millis(100))
        };
        let job = match job {
            Ok(job) => job,
            Err(RecvTimeoutError::Timeout) => {
                // Drain semantics: a worker only exits on an *empty*
                // queue once shutdown has begun, so every admitted
                // request gets a response (the drain watchdog bounds
                // how long a stuck one can hold the pool up).
                if state.shutdown.load(Ordering::Acquire) {
                    break;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        state.queue_depth.fetch_sub(1, Ordering::Relaxed);
        state.metrics.observe_span_secs(
            metric_names::SERVE_WAIT,
            job.admitted.elapsed().as_secs_f64(),
        );
        state.metrics.counter(metric_names::SERVE_REQUESTS).inc();
        let is_shutdown = matches!(job.env.request, Request::Shutdown);
        if job.client_gone.load(Ordering::Acquire) {
            // Nobody is listening; don't run the kernel, don't respond.
            state.metrics.counter(metric_names::SERVE_CANCELLED).inc();
        } else {
            // `serve.service.<op>`: dequeue to response written.
            let op = protocol::op_name(&job.env.request);
            let _service = state.metrics.span(&format!("serve.service.{op}"));
            let response = execute(state, &job);
            write_line(&job.writer, response);
        }
        job.release(state);
        if is_shutdown {
            // Begin the drain but keep looping: this worker helps
            // finish whatever was admitted before the flag flipped.
            begin_shutdown(state);
        }
    }
    state.drain.worker_exited();
}

/// Renders the `health` response from live daemon state. Deliberately
/// *not* part of the byte-determinism contract — a probe reports queue
/// depth and drain progress, which change between identical requests.
fn health_response(state: &ServerState, env: &Envelope) -> String {
    let draining = state.shutdown.load(Ordering::Acquire);
    let mut resp = protocol::response_ok("health", env.id.as_deref());
    resp.string("state", if draining { "draining" } else { "ready" });
    resp.number(
        "queue-depth",
        state.queue_depth.load(Ordering::Relaxed) as f64,
    );
    resp.number("workers", state.workers as f64);
    resp.boolean("store-degraded", state.store.is_degraded());
    resp.number("store-blobs", state.store.stats().blobs as f64);
    resp.finish()
}

/// Maps a kernel failure onto the wire error-code set: a tripped token
/// is `cancelled` when the client vanished, `deadline` when the clock
/// ran out; everything else is `internal`.
fn kernel_error(state: &ServerState, job: &Job, op: &str, cancelled: bool, detail: &str) -> String {
    state.metrics.counter(metric_names::SERVE_ERRORS).inc();
    let code = if cancelled {
        if job.client_gone.load(Ordering::Acquire) {
            state.metrics.counter(metric_names::SERVE_CANCELLED).inc();
            ErrorCode::Cancelled
        } else {
            state.metrics.counter(metric_names::SERVE_DEADLINE).inc();
            ErrorCode::Deadline
        }
    } else {
        ErrorCode::Internal
    };
    protocol::response_error(Some(op), job.env.id.as_deref(), code, detail)
}

fn client_error(
    state: &ServerState,
    id: Option<&str>,
    op: &str,
    code: ErrorCode,
    detail: &str,
) -> String {
    state.metrics.counter(metric_names::SERVE_ERRORS).inc();
    protocol::response_error(Some(op), id, code, detail)
}

/// Renders a `query-membership` answer from a resident clustering. The
/// reader's inline lane and the worker both end here, so the bytes of an
/// answer cannot depend on which thread gave it.
fn membership_response(
    state: &ServerState,
    id: Option<&str>,
    cluster_key: u64,
    node: usize,
    clustering: &Clustering,
) -> String {
    let op = "query-membership";
    if node >= clustering.n_nodes() {
        return client_error(
            state,
            id,
            op,
            ErrorCode::BadRequest,
            &format!(
                "node {node} out of range (clustering covers {} nodes)",
                clustering.n_nodes()
            ),
        );
    }
    let mut resp = protocol::response_ok(op, id);
    resp.string("key", &protocol::key_hex(cluster_key));
    resp.number("node", node as f64);
    resp.number("cluster", f64::from(clustering.cluster_of(node)));
    resp.finish()
}

/// Executes one request and renders its response line. Every branch
/// returns a complete, deterministic line — content-derived fields only.
fn execute(state: &ServerState, job: &Job) -> String {
    let op = protocol::op_name(&job.env.request);
    let id = job.env.id.as_deref();
    // A deadline that expired while the job sat in the queue is the same
    // failure as one that expires mid-kernel.
    if job.token.is_cancelled() {
        return kernel_error(state, job, op, true, "deadline expired before execution");
    }
    match &job.env.request {
        Request::UploadGraph { edges } => match read_edge_list(edges.as_bytes()) {
            Err(e) => client_error(
                state,
                id,
                op,
                ErrorCode::BadRequest,
                &format!("bad edge list: {e}"),
            ),
            Ok(g) => {
                let fp = graph_fingerprint(&g);
                // Persist the adjacency under its own fingerprint so the
                // upload survives a daemon restart; publication failure
                // degrades to memory-only (counted by the store).
                let _ = state.store.put(fp, g.adjacency());
                let mut resp = protocol::response_ok(op, id);
                resp.string("graph", &protocol::key_hex(fp));
                resp.number("nodes", g.n_nodes() as f64);
                resp.number("edges", g.n_edges() as f64);
                state
                    .graphs
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(fp, Arc::new(g));
                resp.finish()
            }
        },
        Request::Symmetrize {
            graph_fp,
            method,
            budget,
        } => {
            let Some(g) = state.resolve_graph(*graph_fp) else {
                return client_error(
                    state,
                    id,
                    op,
                    ErrorCode::NotFound,
                    "unknown graph fingerprint; upload-graph first",
                );
            };
            match symmetrize_cached(
                &state.sym_cache,
                &g,
                *graph_fp,
                method,
                *budget,
                &job.token,
                Some(&state.metrics),
            ) {
                Err(e) => kernel_error(state, job, op, e.is_cancelled(), &e.to_string()),
                Ok((m, _tier, key)) => {
                    let summary = m.summary();
                    let mut resp = protocol::response_ok(op, id);
                    resp.string("key", &protocol::key_hex(key));
                    resp.number("nodes", summary.nodes as f64);
                    resp.number("edges", summary.edges as f64);
                    resp.string("checksum", &protocol::key_hex(summary.fingerprint));
                    resp.finish()
                }
            }
        }
        Request::Cluster {
            graph_fp,
            method,
            budget,
            clusterer,
        } => {
            let Some(g) = state.resolve_graph(*graph_fp) else {
                return client_error(
                    state,
                    id,
                    op,
                    ErrorCode::NotFound,
                    "unknown graph fingerprint; upload-graph first",
                );
            };
            // Both keys are pure functions of the request, so a hit on
            // the clustering never touches the matrix tier: after a
            // restart that is a 6 MB blob not read, checksummed and
            // validated just to learn an address.
            let sym_key = symmetrize_key(*graph_fp, method, *budget);
            let ckey = cluster_key(sym_key, clusterer);
            let clustering = match state.cluster_cache.get(ckey) {
                Some((c, _tier)) => c,
                None => {
                    let adj = match symmetrize_cached(
                        &state.sym_cache,
                        &g,
                        *graph_fp,
                        method,
                        *budget,
                        &job.token,
                        Some(&state.metrics),
                    ) {
                        Err(e) => {
                            return kernel_error(state, job, op, e.is_cancelled(), &e.to_string())
                        }
                        Ok((m, _tier, _key)) => m,
                    };
                    let ungraph = UnGraph::from_symmetric_unchecked(CsrMatrix::clone(&adj));
                    match cluster_cached(
                        &state.cluster_cache,
                        &ungraph,
                        sym_key,
                        clusterer,
                        &job.token,
                        Some(&state.metrics),
                    ) {
                        Err(e) => {
                            return kernel_error(state, job, op, e.is_cancelled(), &e.to_string())
                        }
                        Ok((c, _tier, _key)) => c,
                    }
                }
            };
            let summary = clustering.summary();
            let mut resp = protocol::response_ok(op, id);
            resp.string("key", &protocol::key_hex(ckey));
            resp.string("sym-key", &protocol::key_hex(sym_key));
            resp.number("nodes", summary.nodes as f64);
            resp.number("clusters", summary.clusters as f64);
            resp.boolean("converged", summary.converged);
            resp.string("checksum", &protocol::key_hex(summary.checksum));
            resp.finish()
        }
        // Reaches a worker only when the reader's L1 probe missed: the
        // clustering is on disk (promoted here) or unknown.
        Request::QueryMembership { cluster_key, node } => {
            match state.cluster_cache.get(*cluster_key) {
                Some((clustering, _tier)) => {
                    membership_response(state, id, *cluster_key, *node, &clustering)
                }
                None => client_error(
                    state,
                    id,
                    op,
                    ErrorCode::NotFound,
                    "unknown clustering artifact; run cluster first",
                ),
            }
        }
        Request::Stats => {
            let s = state.store.stats();
            let mut resp = protocol::response_ok(op, id);
            resp.number("store-hits", s.hits as f64);
            resp.number("store-misses", s.misses as f64);
            resp.number("store-puts", s.puts as f64);
            resp.number("store-evictions", s.evictions as f64);
            resp.number("store-quarantined", s.quarantined as f64);
            resp.number("store-blobs", s.blobs as f64);
            resp.number("store-bytes", s.bytes as f64);
            resp.number("store-stats-persist-errors", s.stats_persist_errors as f64);
            resp.boolean("store-degraded", s.degraded);
            resp.number(
                "graphs",
                state
                    .graphs
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .len() as f64,
            );
            resp.number(
                "requests",
                state.metrics.counter(metric_names::SERVE_REQUESTS).get() as f64,
            );
            resp.number(
                "overloaded",
                state.metrics.counter(metric_names::SERVE_OVERLOADED).get() as f64,
            );
            // The daemon's own counters and clocks (DESIGN.md §11): `serve.wait`
            // and every `serve.service.<op>` as `wait-*` / `service-<op>-*`.
            let snap = state.metrics.snapshot();
            let count = |name: &str| snap.counter(name).unwrap_or(0) as f64;
            resp.number(
                "summaries-computed",
                count(symclust_store::metric_names::SUMMARIES_COMPUTED),
            );
            resp.number("inline-reads", count(metric_names::SERVE_INLINE_READS));
            for span in &snap.spans {
                if let Some(short) = span.name.strip_prefix("serve.") {
                    let short = short.replace('.', "-");
                    resp.number(&format!("{short}-count"), span.stats.count as f64);
                    resp.number(&format!("{short}-ms-mean"), span.stats.mean_secs() * 1e3);
                    resp.number(&format!("{short}-ms-max"), span.stats.max_secs * 1e3);
                }
            }
            resp.finish()
        }
        // Health never reaches the queue (the reader answers it inline);
        // this arm only exists so the match stays exhaustive.
        Request::Health => health_response(state, &job.env),
        Request::Shutdown => protocol::response_ok(op, id).finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use symclust_engine::fingerprint::matrix_fingerprint;

    static TEST_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let n = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "symclust_serve_test_{}_{tag}_{n}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn start(tag: &str) -> (Server, PathBuf) {
        let dir = temp_dir(tag);
        let server =
            Server::start(ServeOptions::unix(dir.join("sock"), dir.join("store"))).unwrap();
        (server, dir)
    }

    fn roundtrip(stream: &mut UnixStream, request: &str) -> String {
        use std::io::Write as _;
        stream.write_all(request.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut line = String::new();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    fn connect(server: &Server) -> UnixStream {
        match server.endpoint() {
            Endpoint::Unix(path) => UnixStream::connect(path).unwrap(),
            Endpoint::Tcp(_) => unreachable!("tests use unix sockets"),
        }
    }

    #[test]
    fn upload_symmetrize_query_roundtrip() {
        let (server, dir) = start("roundtrip");
        let mut c = connect(&server);
        let upload = roundtrip(
            &mut c,
            r#"{"op":"upload-graph","edges":"0 1\n1 2\n2 0\n3 0\n","id":"u1"}"#,
        );
        assert!(upload.contains(r#""ok":true"#), "{upload}");
        let fields = symclust_engine::json::parse_object(&upload).unwrap();
        let graph = fields["graph"].as_str().unwrap().to_string();

        let sym = roundtrip(
            &mut c,
            &format!(r#"{{"op":"symmetrize","graph":"{graph}","method":"aat"}}"#),
        );
        assert!(sym.contains(r#""ok":true"#), "{sym}");

        let cl = roundtrip(
            &mut c,
            &format!(r#"{{"op":"cluster","graph":"{graph}","method":"aat","algo":"metis","k":2}}"#),
        );
        assert!(cl.contains(r#""ok":true"#), "{cl}");
        let cl_fields = symclust_engine::json::parse_object(&cl).unwrap();
        let key = cl_fields["key"].as_str().unwrap().to_string();

        let member = roundtrip(
            &mut c,
            &format!(r#"{{"op":"query-membership","key":"{key}","node":0}}"#),
        );
        assert!(member.contains(r#""cluster":"#), "{member}");

        let missing = roundtrip(
            &mut c,
            r#"{"op":"query-membership","key":"00000000000000aa","node":0}"#,
        );
        assert!(missing.contains(r#""error":"not-found""#), "{missing}");

        server.shutdown();
        server.join();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn identical_requests_get_byte_identical_responses_across_connections() {
        let (server, dir) = start("identical");
        let mut a = connect(&server);
        let upload = roundtrip(
            &mut a,
            r#"{"op":"upload-graph","edges":"0 1\n1 2\n2 3\n3 0\n0 2\n"}"#,
        );
        let graph = symclust_engine::json::parse_object(&upload).unwrap()["graph"]
            .as_str()
            .unwrap()
            .to_string();
        let req = format!(r#"{{"op":"symmetrize","graph":"{graph}","method":"bib"}}"#);
        let cold = roundtrip(&mut a, &req);

        let mut b = connect(&server);
        let warm = roundtrip(&mut b, &req);
        assert_eq!(cold, warm, "hit and miss must serialize identically");

        server.shutdown();
        server.join();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_lines_and_unknown_graphs_are_named_errors() {
        let (server, dir) = start("errors");
        let mut c = connect(&server);
        let bad = roundtrip(&mut c, "this is not json");
        assert!(bad.contains(r#""error":"bad-request""#), "{bad}");
        let missing = roundtrip(
            &mut c,
            r#"{"op":"symmetrize","graph":"00000000000000ff","method":"aat"}"#,
        );
        assert!(missing.contains(r#""error":"not-found""#), "{missing}");
        server.shutdown();
        server.join();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_op_stops_the_daemon_and_removes_the_socket() {
        let (server, dir) = start("shutdown");
        let path = match server.endpoint() {
            Endpoint::Unix(p) => p,
            Endpoint::Tcp(_) => unreachable!(),
        };
        let mut c = connect(&server);
        let resp = roundtrip(&mut c, r#"{"op":"shutdown"}"#);
        assert!(resp.contains(r#""ok":true"#), "{resp}");
        server.join();
        assert!(!path.exists(), "socket file must be cleaned up");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_socket_files_are_replaced_but_live_ones_are_not() {
        let dir = temp_dir("stale");
        let sock = dir.join("sock");
        std::fs::write(&sock, b"").unwrap(); // a dead non-socket file
        let server =
            Server::start(ServeOptions::unix(&sock, dir.join("store"))).expect("stale replaced");
        let err = match Server::start(ServeOptions::unix(&sock, dir.join("store2"))) {
            Err(e) => e,
            Ok(_) => panic!("live socket must refuse a second daemon"),
        };
        assert!(err.contains("already"), "{err}");
        server.shutdown();
        server.join();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resolve_graph_refuses_blobs_that_are_not_uploads() {
        let (server, dir) = start("resolve");
        // Store a matrix under a key that is not its own fingerprint —
        // the shape of every symmetrize artifact in the store.
        let m = CsrMatrix::from_dense(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let bogus_key = 0x1234;
        assert_ne!(matrix_fingerprint(&m), bogus_key);
        server.store().put(bogus_key, &m).unwrap();
        let mut c = connect(&server);
        let resp = roundtrip(
            &mut c,
            r#"{"op":"symmetrize","graph":"0000000000001234","method":"aat"}"#,
        );
        assert!(resp.contains(r#""error":"not-found""#), "{resp}");
        server.shutdown();
        server.join();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn health_reports_ready_state_and_pool_shape() {
        let (server, dir) = start("health");
        let mut c = connect(&server);
        let h = roundtrip(&mut c, r#"{"op":"health","id":"h1"}"#);
        let fields = symclust_engine::json::parse_object(&h).unwrap();
        assert_eq!(fields["ok"].as_bool(), Some(true));
        assert_eq!(fields["state"].as_str(), Some("ready"));
        assert_eq!(fields["id"].as_str(), Some("h1"));
        assert_eq!(fields["workers"].as_f64(), Some(2.0));
        assert_eq!(fields["store-degraded"].as_bool(), Some(false));
        assert!(fields["queue-depth"].as_f64().is_some(), "{h}");
        server.shutdown();
        server.join();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn draining_daemon_answers_health_but_refuses_new_work() {
        let (server, dir) = start("drain_refuse");
        let mut c = connect(&server);
        assert!(roundtrip(&mut c, r#"{"op":"health"}"#).contains(r#""state":"ready""#));
        server.shutdown();
        // The connection predates the drain, so its reader still
        // answers health probes inline — but admits nothing new.
        let h = roundtrip(&mut c, r#"{"op":"health"}"#);
        assert!(h.contains(r#""state":"draining""#), "{h}");
        let refused = roundtrip(&mut c, r#"{"op":"stats"}"#);
        assert!(refused.contains(r#""error":"internal""#), "{refused}");
        assert!(refused.contains("draining"), "{refused}");
        server.join();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_drains_queued_work_and_persists_stats() {
        let dir = temp_dir("drain_queue");
        let mut opts = ServeOptions::unix(dir.join("sock"), dir.join("store"));
        opts.workers = 1;
        let server = Server::start(opts).unwrap();
        let mut c = connect(&server);
        // Pipeline a real request and the shutdown in one write: the
        // single worker must answer both before exiting.
        use std::io::Write as _;
        c.write_all(
            concat!(
                r#"{"op":"upload-graph","edges":"0 1\n1 0\n","id":"u"}"#,
                "\n",
                r#"{"op":"shutdown","id":"s"}"#,
                "\n"
            )
            .as_bytes(),
        )
        .unwrap();
        let mut reader = BufReader::new(c.try_clone().unwrap());
        let mut first = String::new();
        reader.read_line(&mut first).unwrap();
        assert!(first.contains(r#""ok":true"#), "{first}");
        assert!(first.contains("upload-graph"), "{first}");
        let mut second = String::new();
        reader.read_line(&mut second).unwrap();
        assert!(second.contains(r#""ok":true"#), "{second}");
        assert!(second.contains("shutdown"), "{second}");
        server.join();
        // join()'s last act: the stats sidecar is on disk.
        assert!(
            dir.join("store").join("stats.json").exists(),
            "drain must persist stats.json"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stalled_connections_are_closed_when_read_timeout_is_set() {
        let dir = temp_dir("read_timeout");
        let mut opts = ServeOptions::unix(dir.join("sock"), dir.join("store"));
        opts.read_timeout_ms = Some(100);
        let server = Server::start(opts).unwrap();
        let mut c = connect(&server);
        // Half a request line, never completed: the reader's timeout
        // must fire and close the connection instead of hanging.
        use std::io::Write as _;
        c.write_all(br#"{"op":"heal"#).unwrap();
        let mut reader = BufReader::new(c.try_clone().unwrap());
        let mut line = String::new();
        let n = reader.read_line(&mut line).unwrap();
        assert_eq!(n, 0, "server must close the stalled connection: {line}");
        server.shutdown();
        server.join();
        std::fs::remove_dir_all(&dir).ok();
    }

    const EDGES: &str = r"0 1\n1 2\n2 0\n2 3\n3 4\n4 5\n5 3\n";
    const SYM: &str = r#""method":"bib""#;
    const CLUSTER: &str = r#""method":"bib","algo":"metis","k":2"#;

    fn counter(server: &Server, name: &str) -> u64 {
        server.metrics().counter(name).get()
    }

    fn summaries(server: &Server) -> u64 {
        counter(server, symclust_store::metric_names::SUMMARIES_COMPUTED)
    }

    fn field(response: &str, name: &str) -> String {
        let fields = symclust_engine::json::parse_object(response).unwrap();
        let value = fields.get(name).and_then(|v| v.as_str());
        value
            .unwrap_or_else(|| panic!("no {name} in {response}"))
            .to_string()
    }

    /// A daemon on `dir` with [`EDGES`] uploaded: the connection, and the
    /// `symmetrize` / `cluster` request lines for it.
    fn start_uploaded(dir: &std::path::Path) -> (Server, UnixStream, String, String) {
        let mut opts = ServeOptions::unix(dir.join("sock"), dir.join("store"));
        opts.workers = 1;
        let server = Server::start(opts).unwrap();
        let mut c = connect(&server);
        c.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        let upload = roundtrip(
            &mut c,
            &format!(r#"{{"op":"upload-graph","edges":"{EDGES}"}}"#),
        );
        let graph = field(&upload, "graph");
        let sym = format!(r#"{{"op":"symmetrize","graph":"{graph}",{SYM}}}"#);
        let cluster = format!(r#"{{"op":"cluster","graph":"{graph}",{CLUSTER}}}"#);
        (server, c, sym, cluster)
    }

    fn stop(server: Server, conn: UnixStream) {
        drop(conn);
        server.shutdown();
        server.join();
    }

    #[test]
    fn repeated_hits_are_byte_identical_and_compute_no_summary() {
        let dir = temp_dir("o1_hits");
        let (server, mut c, sym, cluster) = start_uploaded(&dir);
        let cold_sym = roundtrip(&mut c, &sym);
        let cold_cluster = roundtrip(&mut c, &cluster);
        assert!(cold_sym.contains(r#""ok":true"#), "{cold_sym}");
        assert!(cold_cluster.contains(r#""ok":true"#), "{cold_cluster}");
        // One matrix and one clustering entered L1.
        assert_eq!(summaries(&server), 2);
        for _ in 0..50 {
            assert_eq!(roundtrip(&mut c, &sym), cold_sym);
            assert_eq!(roundtrip(&mut c, &cluster), cold_cluster);
        }
        assert_eq!(summaries(&server), 2, "a hit must not summarize again");
        stop(server, c);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restarted_daemon_answers_the_same_bytes_and_summarizes_each_artifact_once() {
        let dir = temp_dir("o1_restart");
        let (server, mut c, sym, cluster) = start_uploaded(&dir);
        let cold_sym = roundtrip(&mut c, &sym);
        let cold_cluster = roundtrip(&mut c, &cluster);
        stop(server, c);

        // Same store, empty L1: both artifacts come back from disk.
        let (server, mut c, _, _) = start_uploaded(&dir);
        for _ in 0..3 {
            assert_eq!(roundtrip(&mut c, &sym), cold_sym);
            assert_eq!(roundtrip(&mut c, &cluster), cold_cluster);
        }
        assert_eq!(summaries(&server), 2, "one per promoted blob");
        assert_eq!(counter(&server, "spgemm.calls"), 0, "no kernel on a hit");
        stop(server, c);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_blob_is_recomputed_to_the_same_bytes() {
        let dir = temp_dir("o1_corrupt");
        let (server, mut c, sym, _) = start_uploaded(&dir);
        let cold_sym = roundtrip(&mut c, &sym);
        stop(server, c);

        let blob = dir
            .join("store/blobs/matrix")
            .join(format!("{}.blob", field(&cold_sym, "key")));
        let mut bytes = std::fs::read(&blob).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&blob, bytes).unwrap();

        let (server, mut c, _, _) = start_uploaded(&dir);
        assert_eq!(roundtrip(&mut c, &sym), cold_sym);
        assert_eq!(roundtrip(&mut c, &sym), cold_sym);
        assert_eq!(server.store().stats().quarantined, 1);
        assert_eq!(summaries(&server), 1, "the recomputed matrix, once");
        stop(server, c);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_hit_after_restart_reads_only_the_clustering_blob() {
        let dir = temp_dir("cluster_hit");
        let (server, mut c, _, cluster) = start_uploaded(&dir);
        let cold_cluster = roundtrip(&mut c, &cluster);
        stop(server, c);

        // The re-upload fills the graph map without a store load, so the
        // only blob this `cluster` may read is the clustering itself.
        let (server, mut c, _, _) = start_uploaded(&dir);
        let hits = server.store().stats().hits;
        assert_eq!(roundtrip(&mut c, &cluster), cold_cluster);
        assert_eq!(server.store().stats().hits, hits + 1);
        assert_eq!(summaries(&server), 1, "the matrix tier was not touched");
        stop(server, c);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn membership_read_is_answered_while_the_only_worker_is_held() {
        let dir = temp_dir("lane_held");
        let (server, mut c, _, cluster) = start_uploaded(&dir);
        let key = field(&roundtrip(&mut c, &cluster), "key");

        // Hold the worker: own the in-flight marker of the key a
        // `symmetrize` is about to ask for, and keep it until released.
        let graph_fp = u64::from_str_radix(&field(&cluster, "graph"), 16).unwrap();
        let aat = symclust_engine::SymMethod::PlusTranspose;
        let slow_key = symmetrize_key(graph_fp, &aat, None);
        let (release, released) = std::sync::mpsc::channel::<()>();
        let (holding, held) = std::sync::mpsc::channel::<()>();
        let state = Arc::clone(&server.state);
        let holder = std::thread::spawn(move || {
            state
                .sym_cache
                .get_or_compute(slow_key, || {
                    holding.send(()).unwrap();
                    released.recv().unwrap();
                    Ok::<_, ()>(CsrMatrix::from_dense(&[vec![0.0, 1.0], vec![1.0, 0.0]]))
                })
                .unwrap();
        });
        held.recv().unwrap();

        // One write: the reader admits the symmetrize (which parks the
        // worker behind the marker) before it sees the membership read.
        use std::io::Write as _;
        let graph = field(&cluster, "graph");
        let slow = format!(r#"{{"op":"symmetrize","graph":"{graph}","method":"aat","id":"slow"}}"#);
        let fast = format!(r#"{{"op":"query-membership","key":"{key}","node":3,"id":"fast"}}"#);
        c.write_all(format!("{slow}\n{fast}\n").as_bytes()).unwrap();
        let mut reader = BufReader::new(c.try_clone().unwrap());
        let mut first = String::new();
        reader.read_line(&mut first).unwrap();
        assert_eq!(
            field(&first, "id"),
            "fast",
            "the read must overtake: {first}"
        );
        assert!(first.contains(r#""cluster":"#), "{first}");
        assert_eq!(counter(&server, metric_names::SERVE_INLINE_READS), 1);

        release.send(()).unwrap();
        holder.join().unwrap();
        let mut second = String::new();
        reader.read_line(&mut second).unwrap();
        assert_eq!(field(&second, "id"), "slow");
        assert!(second.contains(r#""ok":true"#), "{second}");
        // upload, cluster, symmetrize on the worker + the inline read.
        assert_eq!(counter(&server, metric_names::SERVE_REQUESTS), 4);
        stop(server, c);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn draining_daemon_refuses_a_membership_read() {
        let dir = temp_dir("lane_drain");
        let (server, mut c, _, cluster) = start_uploaded(&dir);
        let key = field(&roundtrip(&mut c, &cluster), "key");
        let query = format!(r#"{{"op":"query-membership","key":"{key}","node":0}}"#);
        assert!(roundtrip(&mut c, &query).contains(r#""cluster":"#));
        server.shutdown();
        let refused = roundtrip(&mut c, &query);
        assert!(refused.contains(r#""error":"internal""#), "{refused}");
        assert!(refused.contains("draining"), "{refused}");
        assert_eq!(counter(&server, metric_names::SERVE_INLINE_READS), 1);
        drop(c);
        server.join();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn membership_read_of_an_l1_cold_key_goes_through_the_queue() {
        let dir = temp_dir("lane_cold");
        let (server, mut c, _, cluster) = start_uploaded(&dir);
        let key = field(&roundtrip(&mut c, &cluster), "key");
        let query = format!(r#"{{"op":"query-membership","key":"{key}","node":4}}"#);
        let warm = roundtrip(&mut c, &query);
        stop(server, c);

        let (server, mut c, _, _) = start_uploaded(&dir);
        // Disk tier: a worker promotes the blob and answers.
        assert_eq!(roundtrip(&mut c, &query), warm);
        assert_eq!(counter(&server, metric_names::SERVE_INLINE_READS), 0);
        assert_eq!(
            server
                .metrics()
                .snapshot()
                .span(metric_names::SERVE_WAIT)
                .unwrap()
                .count,
            2
        );
        // Now resident: the lane takes it, same bytes.
        assert_eq!(roundtrip(&mut c, &query), warm);
        assert_eq!(counter(&server, metric_names::SERVE_INLINE_READS), 1);
        // An unknown key is a worker's not-found, not the lane's.
        let missing = roundtrip(
            &mut c,
            r#"{"op":"query-membership","key":"00000000000000aa","node":0}"#,
        );
        assert!(missing.contains(r#""error":"not-found""#), "{missing}");
        assert_eq!(counter(&server, metric_names::SERVE_INLINE_READS), 1);
        stop(server, c);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_reports_the_daemons_own_counters_and_clocks() {
        let dir = temp_dir("stats_obs");
        let (server, mut c, sym, _) = start_uploaded(&dir);
        roundtrip(&mut c, &sym);
        let stats = roundtrip(&mut c, r#"{"op":"stats"}"#);
        let fields = symclust_engine::json::parse_object(&stats).unwrap();
        let number = |name: &str| {
            fields
                .get(name)
                .and_then(|v| v.as_f64())
                .unwrap_or_else(|| panic!("no {name} in {stats}"))
        };
        assert_eq!(number("summaries-computed"), 1.0);
        assert_eq!(number("inline-reads"), 0.0);
        // upload, symmetrize and this stats request were dequeued; the
        // first two have finished their service span.
        assert_eq!(number("wait-count"), 3.0);
        assert_eq!(number("service-symmetrize-count"), 1.0);
        assert_eq!(number("service-upload-graph-count"), 1.0);
        assert!(number("service-symmetrize-ms-max") >= number("service-symmetrize-ms-mean"));
        stop(server, c);
        std::fs::remove_dir_all(&dir).ok();
    }
}
