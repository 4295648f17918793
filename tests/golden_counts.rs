//! Exact work counts across commits.
//!
//! `golden_bytes.rs` pins what the kernels compute; this file pins how
//! much deterministic work the engine does to compute it. One sweep — the
//! four symmetrizations of `SymMethod::lineup` with no threshold, R-MCL
//! and Metis(k = 8), an extra prune at 0.001 — runs in-process on the
//! bundled `dsbm_small` graph, and the [`EXACT_KEYS`] projection of its
//! metrics snapshot must equal the constants below: SpGEMM work, prune
//! edge flow, cache hits and misses, R-MCL work. Ground truth is left
//! out: scoring does no counted work. No clock is read; time is measured
//! by `benchmark/`.
//!
//! Every key is a sum of per-row or per-stage counts that the
//! determinism contract fixes for any thread count, so the sweep keeps
//! the environment's `SYMCLUST_THREADS` but pins the in-memory panel plan
//! (the panel counters are exact only for a fixed plan). A kernel change
//! that moves a count re-records it here and says why; a key the sweep
//! starts or stops emitting fails as loudly as a changed value.

use std::collections::HashMap;
use symclust::graph::io::read_edge_list_file;
use symclust::sparse::{PanelPlan, Tuning};
use symclust_engine::{Clusterer, Engine, EngineOptions, PipelineInput, PipelineSpec, SymMethod};

/// The gated flat metric keys (DESIGN.md §11) with their value on
/// `dsbm_small`; `None` pins a key as absent. The sweep opens no
/// artifact store and never exceeds a memory budget, so the store-health
/// keys and the budget fallback must not appear at all. Not gated:
/// `counter.spgemm.sched_steals`, which depends on thread count and load.
const EXACT_KEYS: &[(&str, Option<u64>)] = &[
    ("counter.spgemm.calls", Some(2)),
    ("counter.spgemm.rows", Some(800)),
    ("counter.spgemm.flops", Some(411_666)),
    ("counter.spgemm.nnz_intermediate", Some(124_555)),
    ("counter.spgemm.nnz_final", Some(123_755)),
    ("counter.spgemm.threshold_dropped", Some(800)),
    ("counter.spgemm.degraded_fallbacks", None),
    ("counter.spgemm.syrk_calls", Some(2)),
    ("counter.spgemm.syrk_mirrored_nnz", Some(123_755)),
    ("counter.spgemm.panels", Some(0)),
    ("counter.spgemm.panel_spills", Some(0)),
    ("counter.spgemm.spill_bytes", Some(0)),
    ("counter.prune.edges_in", Some(268_694)),
    ("counter.prune.edges_out", Some(258_102)),
    ("counter.engine.cache_hits", Some(8)),
    ("counter.engine.cache_misses", Some(8)),
    ("counter.mcl.runs", Some(4)),
    ("counter.mcl.iterations", Some(66)),
    ("counter.mcl.touched", Some(10_037_472)),
    ("counter.mcl.inflated", Some(1_664_928)),
    ("counter.mcl.kept", Some(1_614_000)),
    ("counter.store.hits", None),
    ("counter.store.misses", None),
    ("counter.store.quarantined", None),
    ("counter.store.stats_persist_errors", None),
    ("gauge.store.degraded", None),
];

#[test]
fn pipeline_sweep_keeps_its_counts() {
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

    let flat: HashMap<String, f64> = result.metrics.to_flat().into_iter().collect();
    let drift: Vec<String> = EXACT_KEYS
        .iter()
        .filter_map(|&(key, pinned)| {
            let (actual, pinned) = (flat.get(key).copied(), pinned.map(|v| v as f64));
            (actual != pinned).then(|| format!("{key}: {actual:?} != pinned {pinned:?}"))
        })
        .collect();
    assert!(drift.is_empty(), "count drift:\n{}", drift.join("\n"));
}
