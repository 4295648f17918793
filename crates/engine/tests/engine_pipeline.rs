//! End-to-end engine tests: cache semantics across a sweep, F-score
//! parity with the serial reference path, and cancellation surfacing
//! partial results.

use std::sync::Mutex;
use symclust_engine::{
    measure, Clusterer, Engine, EngineOptions, Event, PipelineInput, PipelineSpec, StageKind,
    SymMethod,
};
use symclust_graph::generators::{shared_link_dsbm, SharedLinkDsbmConfig};
use symclust_obs::MetricsRegistry;
use symclust_sparse::{CancelToken, PanelPlan, Tuning};

fn small_input() -> PipelineInput {
    let g = shared_link_dsbm(&SharedLinkDsbmConfig {
        n_nodes: 300,
        n_clusters: 10,
        seed: 5,
        ..Default::default()
    })
    .unwrap();
    PipelineInput::new("dsbm300", g.graph, Some(g.truth))
}

fn four_by_two_spec() -> PipelineSpec {
    PipelineSpec {
        methods: SymMethod::lineup(0.0, 0.0),
        clusterers: vec![
            Clusterer::MlrMcl { inflation: 2.0 },
            Clusterer::Metis { k: 10 },
        ],
        extra_prune: None,
    }
}

/// The acceptance scenario: a 4-method × 2-clusterer sweep issues 8
/// symmetrize stages but performs exactly 4 symmetrization computations —
/// the other 4 are cache hits — and the parallel engine's F-scores match
/// the serial reference path exactly.
#[test]
fn four_by_two_sweep_computes_each_symmetrization_once_and_matches_serial() {
    let input = small_input();
    let spec = four_by_two_spec();
    let engine = Engine::new(EngineOptions {
        threads: 4,
        ..Default::default()
    });
    let events: Mutex<Vec<Event>> = Mutex::new(Vec::new());
    let result = engine.run(&input, &spec, &|e| events.lock().unwrap().push(e));

    assert!(
        result.failures.is_empty(),
        "failures: {:?}",
        result.failures
    );
    assert!(!result.cancelled);
    assert_eq!(result.records.len(), 8);

    // Exactly 4 computations, 4 hits — the cache carried every repeat.
    assert_eq!(result.cache.misses, 4, "each method computes exactly once");
    assert_eq!(
        result.cache.hits, 4,
        "the second consumer of each method hits"
    );
    let events = events.into_inner().unwrap();
    let cache_hits = events
        .iter()
        .filter(|e| matches!(e, Event::CacheHit { .. }))
        .count();
    assert_eq!(cache_hits, 4);
    let sym_finished = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                Event::StageFinished {
                    stage: StageKind::Symmetrize,
                    ..
                }
            )
        })
        .count();
    assert_eq!(sym_finished, 4);

    // Deterministic parity with the serial path: every (method, clusterer)
    // pair's F-score and cluster count must match a fresh serial run.
    let truth = input.truth.as_deref();
    for method in &spec.methods {
        let sym = method
            .build(None, &Tuning::default())
            .symmetrize(&input.graph)
            .unwrap();
        for &clusterer in &spec.clusterers {
            let serial = measure(&input.name, method, &sym, clusterer, truth).unwrap();
            let parallel = result
                .records
                .iter()
                .find(|r| {
                    r.symmetrization == serial.symmetrization && r.algorithm == serial.algorithm
                })
                .unwrap_or_else(|| panic!("missing record for {}", method.name()));
            assert_eq!(parallel.f_score, serial.f_score, "{}", method.name());
            assert_eq!(parallel.n_clusters, serial.n_clusters, "{}", method.name());
            assert_eq!(parallel.sym_edges, serial.sym_edges, "{}", method.name());
        }
    }

    // Records come back in plan order (method-major).
    let order: Vec<&str> = result
        .records
        .iter()
        .map(|r| r.symmetrization.as_str())
        .collect();
    assert_eq!(
        order,
        vec![
            "Degree-discounted",
            "Degree-discounted",
            "Bibliometric",
            "Bibliometric",
            "A+A'",
            "A+A'",
            "Random Walk",
            "Random Walk",
        ]
    );
}

/// Two sweeps on one engine share the cache: the second sweep re-uses all
/// four symmetrizations (pure hits, zero new computations).
#[test]
fn second_sweep_on_same_engine_is_all_cache_hits() {
    let input = small_input();
    let spec = PipelineSpec {
        methods: SymMethod::lineup(0.0, 0.0),
        clusterers: vec![Clusterer::Metis { k: 10 }],
        extra_prune: None,
    };
    let engine = Engine::new(EngineOptions {
        threads: 2,
        ..Default::default()
    });
    let first = engine.run(&input, &spec, &|_| {});
    assert_eq!(first.cache.misses, 4);
    // Sweep a different clusterer: same methods, so zero recomputation.
    let spec2 = PipelineSpec {
        clusterers: vec![Clusterer::Graclus { k: 10 }],
        ..spec
    };
    let second = engine.run(&input, &spec2, &|_| {});
    assert_eq!(second.cache.misses, 0, "second sweep recomputed");
    assert_eq!(second.cache.hits, 4);
    assert_eq!(second.records.len(), 4);
}

/// Cancelling mid-sweep keeps the records of chains that already finished
/// and marks the rest skipped — partial results, not an all-or-nothing
/// failure.
#[test]
fn cancellation_surfaces_partial_results() {
    let input = small_input();
    let spec = four_by_two_spec();
    // Single worker => strictly serial chain completion; cancel as soon
    // as the first record lands.
    let engine = Engine::new(EngineOptions {
        threads: 1,
        ..Default::default()
    });
    let token = CancelToken::new();
    let sink_token = token.clone();
    let result = engine.run_cancellable(&input, &spec, &token, &|e| {
        if matches!(
            e,
            Event::StageFinished {
                stage: StageKind::Evaluate,
                ..
            }
        ) {
            sink_token.cancel();
        }
    });
    assert!(result.cancelled);
    assert!(
        !result.records.is_empty(),
        "completed records must survive cancellation"
    );
    assert!(
        result.records.len() < 8,
        "cancellation should have cut the sweep short"
    );
    assert!(result.skipped > 0);
    assert!(result.failures.is_empty());
}

/// A token cancelled before the run starts yields an empty, fully-skipped
/// result without executing anything.
#[test]
fn pre_cancelled_token_skips_everything() {
    let input = small_input();
    let spec = four_by_two_spec();
    let engine = Engine::default();
    let token = CancelToken::new();
    token.cancel();
    let events: Mutex<Vec<Event>> = Mutex::new(Vec::new());
    let result = engine.run_cancellable(&input, &spec, &token, &|e| events.lock().unwrap().push(e));
    assert!(result.cancelled);
    assert!(result.records.is_empty());
    assert_eq!(result.skipped, 25); // 1 load + 8 × 3 stages
    assert_eq!(engine.cache_stats().misses, 0, "no work should have run");
    let events = events.into_inner().unwrap();
    assert!(events.iter().all(|e| matches!(
        e,
        Event::Cancelled { .. } | Event::Progress { .. } | Event::MetricsSnapshot { .. }
    )));
}

/// An already-expired per-stage deadline cancels every stage promptly but
/// does NOT mark the sweep as externally cancelled; the engine still
/// settles all nodes.
#[test]
fn zero_stage_deadline_skips_all_stages() {
    let input = small_input();
    let spec = PipelineSpec {
        methods: vec![SymMethod::PlusTranspose],
        clusterers: vec![Clusterer::Metis { k: 10 }],
        extra_prune: None,
    };
    let engine = Engine::new(EngineOptions {
        threads: 2,
        stage_deadline: Some(std::time::Duration::ZERO),
        ..Default::default()
    });
    let result = engine.run(&input, &spec, &|_| {});
    assert!(!result.cancelled, "run token never tripped");
    assert!(result.records.is_empty());
    assert!(result.skipped > 0);
}

/// The optional prune stage thresholds the symmetrized graph before
/// clustering and is itself cached.
#[test]
fn extra_prune_stage_reduces_edges() {
    let input = small_input();
    let base = PipelineSpec {
        methods: vec![SymMethod::Bibliometric { threshold: 0.0 }],
        clusterers: vec![Clusterer::Metis { k: 10 }],
        extra_prune: None,
    };
    let engine = Engine::default();
    let unpruned = engine.run(&input, &base, &|_| {});
    let pruned_spec = PipelineSpec {
        extra_prune: Some(2.0),
        ..base
    };
    let pruned = engine.run(&input, &pruned_spec, &|_| {});
    assert!(unpruned.failures.is_empty() && pruned.failures.is_empty());
    let before = unpruned.records[0].sym_edges;
    let after = pruned.records[0].sym_edges;
    assert!(
        after < before,
        "prune at 2.0 should drop weight-1 pairs ({after} !< {before})"
    );
}

fn temp_journal(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("symclust_engine_resume_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::remove_file(&path).ok();
    path
}

/// Crash-safe resume, full-sweep case: a second run against the journal of
/// a completed sweep re-executes zero stages — every chain is pre-settled
/// from the journal, no symmetrization or clustering starts, and the
/// records match the first run's exactly.
#[test]
fn journal_resume_skips_every_completed_chain() {
    let input = small_input();
    let spec = four_by_two_spec();
    let path = temp_journal("full_resume.jsonl");
    let opts = EngineOptions {
        threads: 2,
        journal: Some(path.clone()),
        ..Default::default()
    };
    let first = Engine::new(opts.clone()).run(&input, &spec, &|_| {});
    assert!(first.failures.is_empty(), "{:?}", first.failures);
    assert_eq!(first.records.len(), 8);
    assert_eq!(first.resumed, 0);

    // Fresh engine = empty artifact cache, so any re-execution would show
    // up as a cache miss. Same journal = everything resumes.
    let events: Mutex<Vec<Event>> = Mutex::new(Vec::new());
    let second = Engine::new(opts).run(&input, &spec, &|e| events.lock().unwrap().push(e));
    assert_eq!(second.resumed, 8);
    assert_eq!(second.records.len(), 8);
    assert_eq!(second.cache.misses, 0, "resume must not recompute anything");
    assert_eq!(second.cache.hits, 0);

    let events = events.into_inner().unwrap();
    assert!(
        !events.iter().any(|e| matches!(
            e,
            Event::StageStarted { stage, .. } if *stage != StageKind::Load
        )),
        "no stage beyond Load may start on a fully-journaled sweep"
    );
    let resumed_events = events
        .iter()
        .filter(|e| matches!(e, Event::StageResumed { .. }))
        .count();
    assert_eq!(resumed_events, 8 * 3, "sym+cluster+eval per chain");

    for (a, b) in first.records.iter().zip(&second.records) {
        assert_eq!(a.symmetrization, b.symmetrization);
        assert_eq!(a.algorithm, b.algorithm);
        assert_eq!(a.f_score, b.f_score);
        assert_eq!(a.n_clusters, b.n_clusters);
    }
    std::fs::remove_file(&path).ok();
}

/// The kernel [`Tuning`] reaches neither a chain key nor a record — the
/// behaviour nine knob-specific lint tokens used to police by spelling. A
/// sweep journaled under one tuning is resumed whole by an engine under a
/// tuning that differs in every field (equal chain keys: zero stages
/// execute), and a journal-less sweep under that second tuning — which
/// provably ran the other kernel paths — produces the same records.
#[test]
fn tuning_reaches_neither_chain_keys_nor_records() {
    let input = small_input();
    let spec = four_by_two_spec();
    let path = temp_journal("tuning_resume.jsonl");
    let serial = Tuning {
        threads: 1,
        panel: PanelPlan::default(),
    };
    let tiled = Tuning {
        threads: 3,
        panel: PanelPlan {
            panel_rows: Some(7),
            spill_dir: None,
            budget_bytes: Some(1),
        },
    };
    let engine = |tuning: &Tuning, journal: Option<&std::path::PathBuf>| {
        let registry = MetricsRegistry::new();
        let engine = Engine::new(EngineOptions {
            threads: 2,
            tuning: tuning.clone(),
            journal: journal.cloned(),
            metrics: Some(registry.clone()),
            ..Default::default()
        });
        (engine, registry)
    };

    let (first_engine, first_metrics) = engine(&serial, Some(&path));
    let first = first_engine.run(&input, &spec, &|_| {});
    assert!(first.failures.is_empty(), "{:?}", first.failures);
    assert_eq!(first.records.len(), 8);
    assert_eq!(first.resumed, 0);
    let snap = first_metrics.snapshot();
    let rows = snap.counter("spgemm.rows");
    assert!(rows > Some(0));
    assert_eq!(snap.counter("spgemm.panels"), Some(0));

    let events: Mutex<Vec<Event>> = Mutex::new(Vec::new());
    let (second_engine, second_metrics) = engine(&tiled, Some(&path));
    let second = second_engine.run(&input, &spec, &|e| events.lock().unwrap().push(e));
    assert_eq!(second.resumed, 8, "every chain key must match the journal");
    assert_eq!(second.cache.misses, 0, "resume must not recompute anything");
    assert_eq!(second_metrics.snapshot().counter("spgemm.calls"), None);
    let events = events.into_inner().unwrap();
    assert!(
        !events.iter().any(|e| matches!(
            e,
            Event::StageStarted { stage, .. } if *stage != StageKind::Load
        )),
        "no stage beyond Load may start under a different tuning"
    );
    let resumed_events = events
        .iter()
        .filter(|e| matches!(e, Event::StageResumed { .. }))
        .count();
    assert_eq!(resumed_events, 8 * 3, "sym+cluster+eval per chain");
    std::fs::remove_file(&path).ok();

    let (third_engine, third_metrics) = engine(&tiled, None);
    let third = third_engine.run(&input, &spec, &|_| {});
    assert!(third.failures.is_empty(), "{:?}", third.failures);
    let snap = third_metrics.snapshot();
    assert_eq!(snap.counter("spgemm.rows"), rows);
    assert!(snap.counter("spgemm.panels").unwrap() > 2);
    assert!(snap.counter("spgemm.panel_spills").unwrap() > 0);
    assert_eq!(first.records.len(), third.records.len());
    for (a, b) in first.records.iter().zip(&third.records) {
        assert_eq!(a.symmetrization, b.symmetrization);
        assert_eq!(a.algorithm, b.algorithm);
        assert_eq!(a.n_clusters, b.n_clusters, "{}", a.symmetrization);
        assert_eq!(a.f_score, b.f_score, "{}", a.symmetrization);
        assert_eq!(a.sym_edges, b.sym_edges, "{}", a.symmetrization);
        assert_eq!((a.degraded, a.converged), (b.degraded, b.converged));
    }
}

/// Crash-safe resume, kill-mid-sweep case: cancel a journaled sweep after
/// a couple of records land, then re-run with the same journal — the
/// completed chains resume, only the rest execute, and the sweep finishes.
#[test]
fn killed_sweep_resumes_completed_chains_and_finishes_the_rest() {
    let input = small_input();
    let spec = four_by_two_spec();
    let path = temp_journal("partial_resume.jsonl");
    let opts = EngineOptions {
        threads: 1,
        journal: Some(path.clone()),
        ..Default::default()
    };
    let token = CancelToken::new();
    let sink_token = token.clone();
    let evals_done = Mutex::new(0usize);
    let first = Engine::new(opts.clone()).run_cancellable(&input, &spec, &token, &|e| {
        if matches!(
            e,
            Event::StageFinished {
                stage: StageKind::Evaluate,
                ..
            }
        ) {
            let mut n = evals_done.lock().unwrap();
            *n += 1;
            if *n >= 2 {
                sink_token.cancel();
            }
        }
    });
    assert!(first.cancelled);
    let done = first.records.len();
    assert!(
        (2..8).contains(&done),
        "expected a partial sweep, got {done}"
    );

    let events: Mutex<Vec<Event>> = Mutex::new(Vec::new());
    let second = Engine::new(opts).run(&input, &spec, &|e| events.lock().unwrap().push(e));
    assert!(!second.cancelled);
    assert_eq!(second.resumed, done, "every journaled chain must resume");
    assert_eq!(second.records.len(), 8, "the rest of the sweep completes");
    assert!(second.failures.is_empty(), "{:?}", second.failures);

    let events = events.into_inner().unwrap();
    let evals_executed = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                Event::StageFinished {
                    stage: StageKind::Evaluate,
                    ..
                }
            )
        })
        .count();
    assert_eq!(evals_executed, 8 - done, "resumed chains re-executed work");
    std::fs::remove_file(&path).ok();
}

/// An over-budget similarity symmetrization degrades (thresholded SpGEMM)
/// instead of aborting, and the degradation is visible in the record; a
/// generous budget stays exact.
#[test]
fn memory_budget_degrades_similarity_methods_instead_of_aborting() {
    let input = small_input();
    let spec = PipelineSpec {
        methods: vec![
            SymMethod::Bibliometric { threshold: 0.0 },
            SymMethod::PlusTranspose,
        ],
        clusterers: vec![Clusterer::Metis { k: 10 }],
        extra_prune: None,
    };
    let tight = Engine::new(EngineOptions {
        threads: 2,
        memory_budget: Some(100),
        ..Default::default()
    });
    let result = tight.run(&input, &spec, &|_| {});
    assert!(result.failures.is_empty(), "{:?}", result.failures);
    assert_eq!(result.records.len(), 2);
    let bib = result
        .records
        .iter()
        .find(|r| r.symmetrization == "Bibliometric")
        .unwrap();
    assert!(bib.degraded, "tight budget must degrade the SpGEMM");
    assert!(bib.sym_edges > 0, "degraded output is still a usable graph");
    let aat = result
        .records
        .iter()
        .find(|r| r.symmetrization == "A+A'")
        .unwrap();
    assert!(!aat.degraded, "A+A' runs no SpGEMM and is never degraded");

    let generous = Engine::new(EngineOptions {
        threads: 2,
        memory_budget: Some(100_000_000),
        ..Default::default()
    });
    let exact = generous.run(&input, &spec, &|_| {});
    let bib_exact = exact
        .records
        .iter()
        .find(|r| r.symmetrization == "Bibliometric")
        .unwrap();
    assert!(!bib_exact.degraded);
    assert!(
        bib_exact.sym_edges >= bib.sym_edges,
        "degraded product must not be denser than the exact one"
    );
}

/// The end-of-run metrics snapshot covers every instrumented layer: SpGEMM
/// work counters from the similarity kernels, R-MCL iteration counters,
/// prune edge flow, per-stage spans, and engine-level cache counters.
#[test]
fn sweep_metrics_cover_kernels_stages_and_cache() {
    let input = small_input();
    let spec = PipelineSpec {
        methods: SymMethod::lineup(0.0, 0.0),
        clusterers: vec![
            Clusterer::MlrMcl { inflation: 2.0 },
            Clusterer::Metis { k: 10 },
        ],
        extra_prune: Some(0.5),
    };
    let engine = Engine::new(EngineOptions {
        threads: 2,
        ..Default::default()
    });
    let result = engine.run(&input, &spec, &|_| {});
    assert_eq!(result.records.len(), 8);

    let snap = &result.metrics;
    // Kernel layer: Bibliometric + Degree-discounted are one fused
    // two-term SYRK product each (DESIGN.md §12).
    assert!(snap.counter("spgemm.calls").unwrap_or(0) >= 2, "{snap:?}");
    assert_eq!(snap.counter("spgemm.syrk_calls"), Some(2), "{snap:?}");
    assert!(snap.counter("spgemm.flops").unwrap_or(0) > 0);
    assert!(snap.counter("spgemm.nnz_final").unwrap_or(0) > 0);
    // Cluster layer: MLR-MCL ran on each of the four symmetrizations.
    assert_eq!(snap.counter("mcl.runs"), Some(4));
    assert!(snap.counter("mcl.iterations").unwrap_or(0) >= 4);
    // Prune layer: four prune stages, each conserving edges_out <= edges_in.
    let edges_in = snap.counter("prune.edges_in").unwrap_or(0);
    let edges_out = snap.counter("prune.edges_out").unwrap_or(0);
    assert!(edges_in > 0 && edges_out <= edges_in);
    let survival = snap.gauge("prune.survival_ratio").unwrap();
    assert!((0.0..=1.0).contains(&survival));
    // Engine layer: cache counters mirror the sweep's cache stats, and
    // every stage kind got a span.
    assert_eq!(
        snap.counter("engine.cache_hits"),
        Some(result.cache.hits as u64)
    );
    assert_eq!(
        snap.counter("engine.cache_misses"),
        Some(result.cache.misses as u64)
    );
    assert!(snap.gauge("engine.queue_depth_hwm").unwrap() >= 1.0);
    for kind in ["load", "symmetrize", "prune", "cluster", "evaluate"] {
        let span = snap
            .span(&format!("stage.{kind}"))
            .unwrap_or_else(|| panic!("missing span stage.{kind}"));
        assert!(span.count > 0);
    }
    // Per-variant symmetrize spans: one computation per method.
    assert_eq!(snap.span("sym.Bibliometric").unwrap().count, 1);
}

/// Sharing one registry across sweeps accumulates, while the default gives
/// each sweep a fresh one.
#[test]
fn shared_registry_accumulates_across_sweeps() {
    let input = small_input();
    let spec = PipelineSpec {
        methods: vec![SymMethod::PlusTranspose],
        clusterers: vec![Clusterer::MlrMcl { inflation: 2.0 }],
        extra_prune: None,
    };
    let registry = symclust_obs::MetricsRegistry::new();
    let engine = Engine::new(EngineOptions {
        threads: 1,
        metrics: Some(registry.clone()),
        ..Default::default()
    });
    let first = engine.run(&input, &spec, &|_| {});
    let second = engine.run(&input, &spec, &|_| {});
    assert_eq!(first.metrics.counter("mcl.runs"), Some(1));
    assert_eq!(second.metrics.counter("mcl.runs"), Some(2), "cumulative");
    assert_eq!(registry.snapshot().counter("mcl.runs"), Some(2));
    // Second sweep's symmetrization was a cache hit; only the miss counted
    // a per-variant span.
    assert_eq!(second.metrics.span("sym.A+A'").unwrap().count, 1);

    let fresh = Engine::new(EngineOptions {
        threads: 1,
        ..Default::default()
    });
    let r = fresh.run(&input, &spec, &|_| {});
    assert_eq!(r.metrics.counter("mcl.runs"), Some(1), "private registry");
}
