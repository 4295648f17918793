//! Exhaustive interleaving model checker for the serve daemon's request
//! lifecycle (`crates/cli/src/server.rs`, DESIGN.md §14–§15).
//!
//! Where [`crate::schedmodel`] proves the *kernel* scheduler, this module
//! proves the concurrency substrate that serves it: bounded FIFO
//! admission, the worker pool's drain semantics, `begin_shutdown`'s
//! flag + drain-deadline watchdog, the out-of-band `health` op, and
//! client-disconnect cancellation.
//!
//! # The model
//!
//! One connection issues a fixed sequence of requests; each actor is a
//! small state machine whose every step is one atomic action:
//!
//! * **reader** — per request, *two* steps mirror the real admission
//!   path's non-atomicity: `read-flag` (one `Acquire` load of the
//!   shutdown flag; observing `true` refuses with a draining error) and
//!   `admit` (the `try_send`: queue full ⇒ `overloaded` response,
//!   all workers exited ⇒ the channel-`Disconnected` backstop answers an
//!   internal error, else the job is queued). The window between the two
//!   steps is exactly the race the real code must tolerate. A
//!   [`ReqKind::Read`] — a `query-membership` whose clustering is resident
//!   in L1 — takes the same `read-flag` step and is then **answered by the
//!   reader itself** (`answer-inline`, the read lane): it never enters the
//!   queue and no worker ever steps for it.
//! * **workers** — `dequeue` (pops the FIFO head; a job whose client is
//!   gone is dropped silently, mirroring the `client_gone` check),
//!   `complete` (writes the one response; executing the `shutdown` op
//!   flips the flag and arms the watchdog), and `observe-empty` (the
//!   `recv_timeout` → `Timeout` path: exit only once the queue is empty
//!   *and* the flag was observed). A [`ReqKind::Stuck`] request models a
//!   hung kernel: it can only complete after its token is cancelled.
//! * **watchdog** — armed by the first shutdown transition; `fire`
//!   (cancel every active token) is enabled while any worker lives, and
//!   `disarm` the moment the pool has exited — exactly the
//!   condvar-latched `wait_drained` contract, so a completed drain never
//!   cancels anything.
//! * **environment** — optional one-shot steps: an external SIGTERM, the
//!   client disconnecting (cancels that connection's tokens and
//!   suppresses its pending responses), and a `health` probe that is
//!   enabled in *every* state — exhaustiveness is the proof that health
//!   stays answerable while draining and while the queue is full.
//!
//! Invariants, checked at every step and at every terminal state:
//!
//! 1. **at-most-once** — no request is ever answered twice;
//! 2. **every-request-accounted** — at termination each request was
//!    answered exactly once, or silently dropped *only* because its
//!    client disconnected; nothing is left queued;
//! 3. **drain-terminates** — a state with no enabled step must be a
//!    clean terminal: once shutdown begins, all workers exited and the
//!    watchdog was reaped (fired or disarmed), bounded-drain included —
//!    a stuck request can hold the pool only until the watchdog fires;
//! 4. **no-admission-after-shutdown-observed** — a reader that observed
//!    the flag never queues that request (checked at `admit`);
//! 5. **queue-bound** — the FIFO never exceeds its capacity;
//! 6. **health-answerable** — the probe step is enabled in every state
//!    until taken, and answered by termination;
//! 7. **no-answer-after-shutdown-observed** — the read lane answers only
//!    behind a `false` flag observation; a read the reader picks up with
//!    the flag already set is refused like any other op.
//!
//! Three deliberately broken variants demonstrate the checker has teeth:
//! [`Protocol::RelaxedShutdown`] models a `Relaxed` shutdown flag with a
//! hand-rolled queue (stale `false` reads, no channel-`Disconnected`
//! backstop) and yields a **lost request**; [`Protocol::OverloadedRequeue`]
//! models a TOCTOU double-submit on the full-queue path (the overloaded
//! response is written but the job is enqueued anyway once a slot frees)
//! and yields a **double completion**; [`Protocol::InlineBeforeFlag`]
//! puts the lane in front of the flag load, where `health` sits, and
//! yields a **read answered by a draining daemon**.

use std::collections::{HashMap, HashSet};

/// Which admission/shutdown protocol to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// The shipped protocol: `AcqRel` shutdown flag, bounded `sync_channel`
    /// admission with the `Disconnected` backstop, condvar-latched watchdog.
    Shipped,
    /// Broken variant: the reader may observe a stale `false` after the
    /// flag is set, and worker exit does not close the queue (no
    /// `Disconnected` backstop) — a request can be admitted into a queue
    /// nobody will ever drain. Expected witness: a lost request.
    RelaxedShutdown,
    /// Broken variant: the full-queue path answers `overloaded` but leaves
    /// the job pending and enqueues it once a slot frees — the classic
    /// check-then-act double submit. Expected witness: a double completion.
    OverloadedRequeue,
    /// Broken variant: the read lane answers before the reader loads the
    /// shutdown flag (the position of the `health` branch). Expected
    /// witness: a read answered although shutdown was observable.
    InlineBeforeFlag,
}

/// What a modelled request does when a worker executes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Runs to completion and answers.
    Normal,
    /// The `shutdown` op: answers, then flips the flag and arms the
    /// watchdog (the worker keeps draining afterwards).
    Shutdown,
    /// A hung kernel: completes only after its cancel token trips
    /// (client disconnect or watchdog fire) — what the drain deadline
    /// exists to bound.
    Stuck,
    /// An L1-resident `query-membership`: answered inline by the reader
    /// after its flag check, never queued, never touched by a worker.
    Read,
}

/// One model-checking scenario.
#[derive(Debug, Clone)]
pub struct Config {
    /// Human-readable scenario name (shows up in reports and traces).
    pub name: &'static str,
    /// Worker-pool size (`>= 1`).
    pub n_workers: usize,
    /// Bounded admission-queue capacity (`>= 1`).
    pub queue_cap: usize,
    /// The connection's request sequence, in arrival order.
    pub requests: Vec<ReqKind>,
    /// Whether an external SIGTERM can arrive at any point.
    pub external_sigterm: bool,
    /// Whether the client can disconnect once all its requests are sent.
    pub client_disconnect: bool,
    /// Whether a health probe fires (enabled in every state until taken).
    pub health_probe: bool,
    /// Protocol variant under test.
    pub protocol: Protocol,
}

/// Statistics from an exhaustive run that found no violation.
#[derive(Debug, Clone, Copy)]
pub struct Report {
    /// Distinct reachable states explored.
    pub states: usize,
    /// Transitions (actor steps) taken across all distinct states.
    pub transitions: usize,
    /// Number of distinct complete interleavings (schedules), saturating.
    pub schedules: u128,
}

/// A violated invariant, with the interleaving that reaches it.
#[derive(Debug, Clone)]
pub struct ModelViolation {
    /// Which invariant failed.
    pub invariant: &'static str,
    /// Human-readable description.
    pub message: String,
    /// The schedule that exhibits the violation, as `actor: action` lines.
    pub trace: Vec<String>,
}

impl std::fmt::Display for ModelViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "invariant `{}` violated: {}",
            self.invariant, self.message
        )?;
        writeln!(f, "schedule:")?;
        for step in &self.trace {
            writeln!(f, "  {step}")?;
        }
        Ok(())
    }
}

/// Where a request is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Req {
    /// Not yet read off the socket.
    New,
    /// The reader loaded the shutdown flag and saw `false`; the job is
    /// between the flag check and `try_send` — the admission race window.
    FlagFalse,
    /// In the FIFO queue.
    Queued,
    /// A worker is executing it.
    Running,
    /// Answered with the draining error (flag observed at read).
    Refused,
    /// Answered `overloaded` (queue full at `try_send`).
    Overloaded,
    /// [`Protocol::OverloadedRequeue`] only: answered `overloaded` but the
    /// job still waits to slip into the queue.
    OverloadedPending,
    /// Answered (ok or error — one response either way).
    Responded,
    /// Dropped without a response because the client was gone at dequeue.
    CancelledSilent,
    /// [`Protocol::InlineBeforeFlag`] only: the lane answered a read the
    /// reader picked up with the flag already set.
    AnsweredDraining,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Worker {
    Idle,
    /// Executing request `r`.
    Running(u8),
    /// Exited the drain loop.
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Watchdog {
    /// No shutdown yet.
    Off,
    /// Shutdown began; the drain deadline is pending.
    Armed,
    /// Deadline passed with workers still alive: every token cancelled.
    Fired,
    /// Pool exited before the deadline: woken via the drain latch, no
    /// cancellation performed.
    Disarmed,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    shutdown: bool,
    /// Watchdog fired: every registered token (queued + running) tripped.
    cancelled_all: bool,
    client_gone: bool,
    sigterm_fired: bool,
    health_answered: bool,
    queue: Vec<u8>,
    reqs: Vec<Req>,
    workers: Vec<Worker>,
    watchdog: Watchdog,
    /// Responses per request, saturating at 2 (2 is already a violation).
    responses: Vec<u8>,
}

impl State {
    fn initial(cfg: &Config) -> Self {
        State {
            shutdown: false,
            cancelled_all: false,
            client_gone: false,
            sigterm_fired: false,
            health_answered: !cfg.health_probe,
            queue: Vec::new(),
            reqs: vec![Req::New; cfg.requests.len()],
            workers: vec![Worker::Idle; cfg.n_workers],
            watchdog: Watchdog::Off,
            responses: vec![0; cfg.requests.len()],
        }
    }

    fn all_workers_done(&self) -> bool {
        self.workers.iter().all(|w| *w == Worker::Done)
    }

    /// The reader handles requests strictly in arrival order: request `i`
    /// is readable only once every earlier request has left the reader.
    fn reader_next(&self) -> Option<usize> {
        for (i, r) in self.reqs.iter().enumerate() {
            match r {
                Req::New => return Some(i),
                Req::FlagFalse => return None,
                _ => {}
            }
        }
        None
    }

    /// The request sitting between flag check and `try_send`, if any.
    fn reader_admitting(&self) -> Option<usize> {
        self.reqs.iter().position(|r| *r == Req::FlagFalse)
    }

    /// Whether every request has been sent (the disconnect step models an
    /// EOF *after* the client wrote its whole pipeline).
    fn all_requests_sent(&self) -> bool {
        !self
            .reqs
            .iter()
            .any(|r| matches!(r, Req::New | Req::FlagFalse))
    }
}

/// Begins the drain: idempotent flag flip + watchdog arming, the model's
/// `begin_shutdown`.
fn flip_shutdown(state: &mut State) {
    if !state.shutdown {
        state.shutdown = true;
        state.watchdog = Watchdog::Armed;
    }
}

/// One enabled transition out of a state.
struct Transition {
    next: State,
    label: String,
    /// Request answered by this step, for the at-most-once check.
    responded: Option<usize>,
}

/// Enumerates every enabled step of every actor, in a fixed order so the
/// search (and its state/schedule counts) is deterministic.
fn successors(cfg: &Config, state: &State) -> Vec<Transition> {
    let mut out = Vec::new();

    // Health probe: enabled in *every* state until taken. Answered inline
    // by the reader thread, out-of-band of the queue and the flag.
    if !state.health_answered {
        let mut next = state.clone();
        next.health_answered = true;
        out.push(Transition {
            next,
            label: format!(
                "health: answered ({})",
                if state.shutdown { "draining" } else { "ready" }
            ),
            responded: None,
        });
    }

    // Reader, step 1: read the shutdown flag for the next request.
    if let Some(i) = state.reader_next() {
        if !state.client_gone {
            let observed_true = state.shutdown;
            if cfg.protocol == Protocol::InlineBeforeFlag && cfg.requests[i] == ReqKind::Read {
                // The bug: the lane sits before the flag load, so the
                // read is answered whatever the flag says.
                let mut next = state.clone();
                next.reqs[i] = if observed_true {
                    Req::AnsweredDraining
                } else {
                    Req::Responded
                };
                out.push(Transition {
                    next,
                    label: format!("reader: req {i} answer-inline before the flag load (bug)"),
                    responded: Some(i),
                });
            } else if observed_true {
                let mut next = state.clone();
                next.reqs[i] = Req::Refused;
                out.push(Transition {
                    next,
                    label: format!("reader: req {i} read-flag -> true, refuse (draining)"),
                    responded: Some(i),
                });
                if cfg.protocol == Protocol::RelaxedShutdown {
                    // A Relaxed load may also return the stale `false`.
                    let mut next = state.clone();
                    next.reqs[i] = Req::FlagFalse;
                    out.push(Transition {
                        next,
                        label: format!("reader: req {i} read-flag -> stale false (Relaxed)"),
                        responded: None,
                    });
                }
            } else {
                let mut next = state.clone();
                next.reqs[i] = Req::FlagFalse;
                out.push(Transition {
                    next,
                    label: format!("reader: req {i} read-flag -> false"),
                    responded: None,
                });
            }
        }
    }

    // Reader, step 2: answer a resident read inline, or `try_send` the
    // job it is holding.
    if let Some(i) = state.reader_admitting() {
        if cfg.requests[i] == ReqKind::Read {
            // The lane needs no worker and no queue slot: enabled even
            // with the pool exited or the queue full.
            let mut next = state.clone();
            next.reqs[i] = Req::Responded;
            out.push(Transition {
                next,
                label: format!("reader: req {i} answer-inline (L1 read, not queued)"),
                responded: Some(i),
            });
        } else if state.all_workers_done() && cfg.protocol != Protocol::RelaxedShutdown {
            // Every worker exited ⇒ the receiver side of the channel is
            // dropped ⇒ `TrySendError::Disconnected` ⇒ internal error.
            let mut next = state.clone();
            next.reqs[i] = Req::Responded;
            out.push(Transition {
                next,
                label: format!("reader: req {i} try_send -> disconnected backstop"),
                responded: Some(i),
            });
        } else if state.queue.len() < cfg.queue_cap {
            let mut next = state.clone();
            next.reqs[i] = Req::Queued;
            next.queue.push(i as u8);
            let label = if state.all_workers_done() {
                // Only reachable without the Disconnected backstop.
                format!("reader: req {i} enqueued into a dead queue (no backstop)")
            } else {
                format!("reader: req {i} try_send -> queued")
            };
            out.push(Transition {
                next,
                label,
                responded: None,
            });
        } else {
            let mut next = state.clone();
            next.reqs[i] = if cfg.protocol == Protocol::OverloadedRequeue {
                Req::OverloadedPending
            } else {
                Req::Overloaded
            };
            out.push(Transition {
                next,
                label: format!("reader: req {i} try_send -> full, overloaded"),
                responded: Some(i),
            });
        }
    }

    // OverloadedRequeue bug: the job answered `overloaded` slips into the
    // queue once a slot frees.
    if cfg.protocol == Protocol::OverloadedRequeue && state.queue.len() < cfg.queue_cap {
        if let Some(i) = state.reqs.iter().position(|r| *r == Req::OverloadedPending) {
            let mut next = state.clone();
            next.reqs[i] = Req::Queued;
            next.queue.push(i as u8);
            out.push(Transition {
                next,
                label: format!("reader: req {i} late enqueue after overloaded (bug)"),
                responded: None,
            });
        }
    }

    // Workers.
    for (w, ws) in state.workers.iter().enumerate() {
        match *ws {
            Worker::Idle => {
                if let Some(&r) = state.queue.first() {
                    let r = r as usize;
                    let mut next = state.clone();
                    next.queue.remove(0);
                    if state.client_gone {
                        // Nobody is listening: drop without running or
                        // responding.
                        next.reqs[r] = Req::CancelledSilent;
                        out.push(Transition {
                            next,
                            label: format!("worker {w}: dequeue req {r} -> client gone, drop"),
                            responded: None,
                        });
                    } else {
                        next.reqs[r] = Req::Running;
                        next.workers[w] = Worker::Running(r as u8);
                        out.push(Transition {
                            next,
                            label: format!("worker {w}: dequeue req {r}"),
                            responded: None,
                        });
                    }
                } else if state.shutdown {
                    // `recv_timeout` -> Timeout with the flag observed:
                    // exit the drain loop.
                    let mut next = state.clone();
                    next.workers[w] = Worker::Done;
                    out.push(Transition {
                        next,
                        label: format!("worker {w}: queue empty + shutdown observed -> exit"),
                        responded: None,
                    });
                }
                // Queue empty without shutdown: the real worker parks in
                // `recv_timeout` — a stutter step the model elides.
            }
            Worker::Running(r) => {
                let r = r as usize;
                let cancellable = state.client_gone || state.cancelled_all;
                if cfg.requests[r] != ReqKind::Stuck || cancellable {
                    let mut next = state.clone();
                    next.reqs[r] = Req::Responded;
                    next.workers[w] = Worker::Idle;
                    let mut label = format!("worker {w}: complete req {r}");
                    if cfg.requests[r] == ReqKind::Shutdown {
                        flip_shutdown(&mut next);
                        label.push_str(" (shutdown op: flag set, watchdog armed)");
                    } else if cfg.requests[r] == ReqKind::Stuck {
                        label.push_str(" (cancelled)");
                    }
                    out.push(Transition {
                        next,
                        label,
                        responded: Some(r),
                    });
                }
            }
            Worker::Done => {}
        }
    }

    // Watchdog: `fire` while any worker lives, `disarm` once the pool has
    // exited — the condvar-latched `wait_drained` contract.
    if state.watchdog == Watchdog::Armed {
        if state.all_workers_done() {
            let mut next = state.clone();
            next.watchdog = Watchdog::Disarmed;
            out.push(Transition {
                next,
                label: "watchdog: drain latch notified -> disarmed, no cancel".to_string(),
                responded: None,
            });
        } else {
            let mut next = state.clone();
            next.watchdog = Watchdog::Fired;
            next.cancelled_all = true;
            out.push(Transition {
                next,
                label: "watchdog: drain deadline -> cancel all active tokens".to_string(),
                responded: None,
            });
        }
    }

    // External SIGTERM: same drain path as the shutdown op.
    if cfg.external_sigterm && !state.sigterm_fired {
        let mut next = state.clone();
        next.sigterm_fired = true;
        flip_shutdown(&mut next);
        out.push(Transition {
            next,
            label: "signal: SIGTERM -> flag set, watchdog armed".to_string(),
            responded: None,
        });
    }

    // Client disconnect: EOF after the pipeline was written; cancels every
    // token of the connection and suppresses its pending responses.
    if cfg.client_disconnect && !state.client_gone && state.all_requests_sent() {
        let mut next = state.clone();
        next.client_gone = true;
        out.push(Transition {
            next,
            label: "client: disconnect -> cancel connection tokens".to_string(),
            responded: None,
        });
    }

    out
}

/// Exhaustively checks every interleaving of `cfg`. `Ok` carries coverage
/// statistics; `Err` carries the violated invariant and a witness
/// schedule.
pub fn check_config(cfg: &Config) -> Result<Report, Box<ModelViolation>> {
    assert!(cfg.n_workers >= 1, "need at least one worker");
    assert!(cfg.queue_cap >= 1, "need a queue");
    assert!(cfg.requests.len() <= 8, "model targets short pipelines");
    let mut visited: HashSet<State> = HashSet::new();
    let mut paths: HashMap<State, u128> = HashMap::new();
    let mut transitions = 0usize;
    let mut trace: Vec<String> = Vec::new();
    let init = State::initial(cfg);
    let schedules = dfs(
        cfg,
        &init,
        &mut visited,
        &mut paths,
        &mut transitions,
        &mut trace,
    )?;
    Ok(Report {
        states: visited.len(),
        transitions,
        schedules,
    })
}

fn dfs(
    cfg: &Config,
    state: &State,
    visited: &mut HashSet<State>,
    paths: &mut HashMap<State, u128>,
    transitions: &mut usize,
    trace: &mut Vec<String>,
) -> Result<u128, Box<ModelViolation>> {
    if let Some(&count) = paths.get(state) {
        return Ok(count);
    }
    visited.insert(state.clone());
    let succs = successors(cfg, state);
    if succs.is_empty() {
        check_terminal(cfg, state, trace)?;
        paths.insert(state.clone(), 1);
        return Ok(1);
    }
    let mut count: u128 = 0;
    for t in succs {
        *transitions += 1;
        trace.push(t.label);
        let mut next = t.next;
        if next.queue.len() > cfg.queue_cap {
            return Err(Box::new(ModelViolation {
                invariant: "queue-bound",
                message: format!(
                    "queue grew to {} with capacity {} (scenario `{}`, {:?})",
                    next.queue.len(),
                    cfg.queue_cap,
                    cfg.name,
                    cfg.protocol
                ),
                trace: trace.clone(),
            }));
        }
        if let Some(r) = t.responded {
            next.responses[r] = next.responses[r].saturating_add(1);
            if next.responses[r] > 1 {
                return Err(Box::new(ModelViolation {
                    invariant: "at-most-once",
                    message: format!(
                        "request {r} answered twice (scenario `{}`, {:?})",
                        cfg.name, cfg.protocol
                    ),
                    trace: trace.clone(),
                }));
            }
        }
        if let Some(r) = next.reqs.iter().position(|r| *r == Req::AnsweredDraining) {
            return Err(Box::new(ModelViolation {
                invariant: "no-answer-after-shutdown-observed",
                message: format!(
                    "read {r} answered inline by a draining daemon (scenario `{}`, {:?})",
                    cfg.name, cfg.protocol
                ),
                trace: trace.clone(),
            }));
        }
        let sub = dfs(cfg, &next, visited, paths, transitions, trace)?;
        count = count.saturating_add(sub);
        trace.pop();
    }
    paths.insert(state.clone(), count);
    Ok(count)
}

fn check_terminal(
    cfg: &Config,
    state: &State,
    trace: &[String],
) -> Result<(), Box<ModelViolation>> {
    let fail = |invariant: &'static str, message: String| -> Result<(), Box<ModelViolation>> {
        Err(Box::new(ModelViolation {
            invariant,
            message: format!("{message} (scenario `{}`, {:?})", cfg.name, cfg.protocol),
            trace: trace.to_vec(),
        }))
    };
    for (i, r) in state.reqs.iter().enumerate() {
        match r {
            Req::Responded | Req::Refused | Req::Overloaded => {
                if state.responses[i] != 1 {
                    return fail(
                        "every-request-accounted",
                        format!(
                            "request {i} is {r:?} but has {} responses",
                            state.responses[i]
                        ),
                    );
                }
            }
            Req::CancelledSilent => {
                if !state.client_gone {
                    return fail(
                        "every-request-accounted",
                        format!("request {i} dropped silently with the client connected"),
                    );
                }
            }
            Req::New | Req::FlagFalse if state.client_gone => {
                // EOF before these were read: the client withdrew them.
            }
            other => {
                return fail(
                    "every-request-accounted",
                    format!("request {i} stranded in state {other:?} at termination"),
                );
            }
        }
    }
    if !state.queue.is_empty() {
        return fail(
            "every-request-accounted",
            format!("{} job(s) left in the admission queue", state.queue.len()),
        );
    }
    if state.shutdown {
        if !state.all_workers_done() {
            return fail(
                "drain-terminates",
                "shutdown began but the worker pool never exited".to_string(),
            );
        }
        if state.watchdog == Watchdog::Armed {
            return fail(
                "drain-terminates",
                "drain finished but the watchdog was never reaped".to_string(),
            );
        }
    }
    if !state.health_answered {
        return fail(
            "health-answerable",
            "health probe never answered".to_string(),
        );
    }
    Ok(())
}

/// The named scenarios `serve-model` sweeps under the shipped protocol.
/// Each exercises a different corner of the lifecycle; together they
/// cover admission vs shutdown races, overload, drain-deadline rescue of
/// a stuck request, and client-disconnect cancellation.
pub fn scenarios() -> Vec<Config> {
    vec![
        Config {
            name: "shutdown-op-mid-pipeline",
            n_workers: 2,
            queue_cap: 2,
            requests: vec![
                ReqKind::Normal,
                ReqKind::Shutdown,
                ReqKind::Normal,
                ReqKind::Normal,
            ],
            external_sigterm: false,
            client_disconnect: false,
            health_probe: true,
            protocol: Protocol::Shipped,
        },
        Config {
            name: "sigterm-rescues-stuck-request",
            n_workers: 2,
            queue_cap: 1,
            requests: vec![ReqKind::Stuck, ReqKind::Normal],
            external_sigterm: true,
            client_disconnect: false,
            health_probe: true,
            protocol: Protocol::Shipped,
        },
        Config {
            name: "client-disconnect-cancels",
            n_workers: 1,
            queue_cap: 2,
            requests: vec![ReqKind::Normal, ReqKind::Stuck, ReqKind::Normal],
            external_sigterm: true,
            client_disconnect: true,
            health_probe: true,
            protocol: Protocol::Shipped,
        },
        Config {
            name: "overload-then-drain",
            n_workers: 1,
            queue_cap: 1,
            requests: vec![
                ReqKind::Normal,
                ReqKind::Normal,
                ReqKind::Shutdown,
                ReqKind::Normal,
            ],
            external_sigterm: false,
            client_disconnect: false,
            health_probe: true,
            protocol: Protocol::Shipped,
        },
        // The read lane. A hung kernel holds the only worker and the only
        // queue slot is free or not — the read behind it is answered by
        // the reader either way; SIGTERM is what eventually frees the
        // worker, so the read also meets every phase of the drain.
        Config {
            name: "read-lane-passes-stuck-worker",
            n_workers: 1,
            queue_cap: 1,
            requests: vec![ReqKind::Stuck, ReqKind::Read, ReqKind::Read],
            external_sigterm: true,
            client_disconnect: false,
            health_probe: false,
            protocol: Protocol::Shipped,
        },
        // A read racing the `shutdown` op ahead of it: answered when its
        // reader saw the flag down (even if the pool has exited by the
        // time it writes), refused once the flag is up.
        Config {
            name: "read-lane-refused-by-drain",
            n_workers: 1,
            queue_cap: 1,
            requests: vec![ReqKind::Shutdown, ReqKind::Read, ReqKind::Normal],
            external_sigterm: false,
            client_disconnect: true,
            health_probe: false,
            protocol: Protocol::Shipped,
        },
    ]
}

/// Sweeps every named scenario under the shipped protocol. Returns
/// per-scenario reports in [`scenarios`] order.
pub fn sweep() -> Result<Vec<(&'static str, Report)>, Box<ModelViolation>> {
    let mut out = Vec::new();
    for cfg in scenarios() {
        let report = check_config(&cfg)?;
        out.push((cfg.name, report));
    }
    Ok(out)
}

/// The faulty scenario behind `serve-model --faulty`: which broken
/// protocol to demonstrate.
pub fn faulty_config(protocol: Protocol) -> Config {
    match protocol {
        Protocol::RelaxedShutdown => Config {
            name: "relaxed-shutdown-flag",
            n_workers: 1,
            queue_cap: 2,
            requests: vec![ReqKind::Shutdown, ReqKind::Normal],
            external_sigterm: false,
            client_disconnect: false,
            health_probe: false,
            protocol,
        },
        Protocol::OverloadedRequeue => Config {
            name: "overloaded-requeue",
            n_workers: 1,
            queue_cap: 1,
            requests: vec![ReqKind::Normal, ReqKind::Normal],
            external_sigterm: false,
            client_disconnect: false,
            health_probe: false,
            protocol,
        },
        Protocol::InlineBeforeFlag => Config {
            name: "inline-before-flag",
            n_workers: 1,
            queue_cap: 1,
            requests: vec![ReqKind::Shutdown, ReqKind::Read],
            external_sigterm: false,
            client_disconnect: false,
            health_probe: false,
            protocol,
        },
        Protocol::Shipped => Config {
            name: "shipped",
            n_workers: 1,
            queue_cap: 1,
            requests: vec![ReqKind::Normal],
            external_sigterm: false,
            client_disconnect: false,
            health_probe: false,
            protocol,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_protocol_is_clean_across_all_scenarios() {
        let reports = sweep().expect("no violation in the shipped protocol");
        assert_eq!(reports.len(), scenarios().len());
        // Exact memoized state counts: any model change — an actor gained
        // or lost a step, an invariant tightened — shows up here first and
        // must be re-derived deliberately, not absorbed silently.
        let expected: &[(&str, usize, u128)] = &[
            ("shutdown-op-mid-pipeline", 1028, 11_447_728),
            ("sigterm-rescues-stuck-request", 304, 10_142),
            ("client-disconnect-cancels", 490, 66_132),
            ("overload-then-drain", 258, 24_172),
            ("read-lane-passes-stuck-worker", 91, 210),
            ("read-lane-refused-by-drain", 95, 301),
        ];
        for ((name, r), (exp_name, states, schedules)) in reports.iter().zip(expected) {
            assert_eq!(name, exp_name);
            assert_eq!(r.states, *states, "scenario `{name}` state count drifted");
            assert_eq!(
                r.schedules, *schedules,
                "scenario `{name}` schedule count drifted"
            );
        }
    }

    #[test]
    fn relaxed_shutdown_loses_a_request() {
        let err = check_config(&faulty_config(Protocol::RelaxedShutdown))
            .expect_err("the Relaxed flag variant must lose a request");
        assert_eq!(err.invariant, "every-request-accounted");
        // Either face of the bug is a valid lost-request witness: a stale
        // `false` flag read, or an enqueue into a queue no worker will
        // ever drain again (the missing Disconnected backstop).
        assert!(
            err.trace
                .iter()
                .any(|s| s.contains("stale false") || s.contains("dead queue")),
            "trace: {:#?}",
            err.trace
        );
    }

    #[test]
    fn overloaded_requeue_double_completes() {
        let err = check_config(&faulty_config(Protocol::OverloadedRequeue))
            .expect_err("the requeue variant must double-complete");
        assert_eq!(err.invariant, "at-most-once");
        assert!(
            err.trace.iter().any(|s| s.contains("late enqueue")),
            "trace: {:#?}",
            err.trace
        );
    }

    #[test]
    fn inline_before_flag_answers_a_read_while_draining() {
        let err = check_config(&faulty_config(Protocol::InlineBeforeFlag))
            .expect_err("a lane in front of the flag load must answer a draining read");
        assert_eq!(err.invariant, "no-answer-after-shutdown-observed");
        let flag_set = err.trace.iter().position(|s| s.contains("flag set"));
        let answered = err.trace.iter().position(|s| s.contains("before the flag"));
        assert!(
            matches!((flag_set, answered), (Some(f), Some(a)) if f < a),
            "trace: {:#?}",
            err.trace
        );
    }

    /// Takes the one enabled step whose label contains `what`.
    fn step(cfg: &Config, state: &State, what: &str) -> State {
        let mut matching = successors(cfg, state)
            .into_iter()
            .filter(|t| t.label.contains(what));
        let t = matching
            .next()
            .unwrap_or_else(|| panic!("no enabled step `{what}`"));
        assert!(matching.next().is_none(), "`{what}` is ambiguous");
        t.next
    }

    #[test]
    fn a_resident_read_completes_without_any_worker_step() {
        let cfg = scenarios()
            .into_iter()
            .find(|c| c.name == "read-lane-passes-stuck-worker")
            .unwrap();
        let mut s = State::initial(&cfg);
        for what in [
            "req 0 read-flag -> false",
            "req 0 try_send -> queued",
            "worker 0: dequeue req 0",
            "req 1 read-flag -> false",
            "req 1 answer-inline",
        ] {
            s = step(&cfg, &s, what);
        }
        // Answered, with the only worker still inside the hung kernel
        // and no drain under way: no worker step served the read.
        assert_eq!(s.reqs[1], Req::Responded);
        assert_eq!(s.workers, vec![Worker::Running(0)]);
        assert!(!s.shutdown && s.queue.is_empty());

        // And once the flag is up, the next read is refused, not answered.
        s = step(&cfg, &s, "SIGTERM");
        s = step(&cfg, &s, "req 2 read-flag -> true, refuse");
        assert_eq!(s.reqs[2], Req::Refused);
    }

    #[test]
    fn single_request_single_worker_is_serial() {
        let report = check_config(&Config {
            name: "serial",
            n_workers: 1,
            queue_cap: 1,
            requests: vec![ReqKind::Normal],
            external_sigterm: false,
            client_disconnect: false,
            health_probe: false,
            protocol: Protocol::Shipped,
        })
        .expect("a lone request is trivially clean");
        assert_eq!(report.schedules, 1);
    }

    #[test]
    fn health_stays_answerable_while_draining_and_overloaded() {
        // The probe step is unconditionally enabled until taken; a clean
        // sweep therefore proves answerability in every reachable state,
        // including full-queue and draining ones. This test pins that the
        // scenarios actually reach such states.
        let cfg = Config {
            name: "health-under-pressure",
            n_workers: 1,
            queue_cap: 1,
            requests: vec![ReqKind::Normal, ReqKind::Normal, ReqKind::Shutdown],
            external_sigterm: false,
            client_disconnect: false,
            health_probe: true,
            protocol: Protocol::Shipped,
        };
        let report = check_config(&cfg).expect("clean");
        assert_eq!(report.states, 90, "state count drifted");
    }
}
