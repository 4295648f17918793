//! `sweep-wiki`: the paper's whole experiment through the `engine`.
//! Every layer is on the path; hub-heavy single-level R-MCL owns it
//! (≈ 95 % of the op), and SpGEMM is under 2 % — so an engine change
//! (planning, cache, events) can only show here, and an SpGEMM gain must
//! *not* show here.
//!
//! Input: the repo's canonical Wikipedia stand-in at 700 nodes
//! (`wikipedia_like_config(700)`, its own seed), presented under a
//! seeded renaming of the nodes (see `inputs::relabel` for why the seed
//! does not draw a fresh graph here). Op: a fresh `Engine` — cold
//! artifact cache — running the four-method lineup × {MLR-MCL, Metis}:
//! 8 records with F-scores, 4 cache hits and 4 misses today. n ≤ 4 000,
//! so MLR-MCL coarsens nothing.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use symclust::datasets::wikipedia_like_config;
use symclust::graph::generators::shared_link_dsbm;
use symclust::prelude::*;
use symclust_engine::{
    Clusterer, Engine, EngineOptions, Event, PipelineInput, PipelineSpec, StageKind, SweepResult,
    SymMethod,
};

use crate::harness::{run_batch, Batch, Config, Outcome};
use crate::inputs::relabel;
use crate::replay::{self, timed};
use crate::trace::{Span, SpanId, Tracer};

const BIB_THRESHOLD: f64 = 2.0;
const DD_THRESHOLD: f64 = 0.01;
/// `eval.f.<method>-<clusterer>`, in plan order (method-major).
const METHODS: [&str; 4] = ["dd", "bib", "aat", "rw"];
const CLUSTERERS: [&str; 2] = ["mlrmcl", "metis"];

struct Prepared {
    input: PipelineInput,
    spec: PipelineSpec,
}

struct SweepWiki {
    nodes: usize,
    seed: u64,
    check_shape: bool,
    prepared: Option<Prepared>,
    gen_ms: f64,
    /// Bit patterns of the first checked op's eight F-scores.
    reference: Option<Vec<u64>>,
    /// The last checked sweep, for the per-layer metrics.
    last: Option<Sweep>,
}

/// What one op hands to its check: the sweep, its wall time in ms, and
/// how many events the sink saw (0 when untraced: the sink is a no-op).
type Sweep = (SweepResult, f64, usize);

fn engine(threads: usize) -> Engine {
    Engine::new(EngineOptions {
        threads,
        ..EngineOptions::default()
    })
}

/// The span a stage's events become: named for the layer whose code the
/// stage runs. A stage closed by a cache hit ran the engine's cache, not
/// the symmetrizer.
fn stage_span(stage: StageKind, cache_hit: bool) -> &'static str {
    match (stage, cache_hit) {
        (_, true) => "engine.cache_hit",
        (StageKind::Load, _) => "engine.stage_load",
        (StageKind::Symmetrize, _) => "core.stage_symmetrize",
        (StageKind::Prune, _) => "sparse.stage_prune",
        (StageKind::Cluster, _) => "cluster.stage_cluster",
        (StageKind::Evaluate, _) => "eval.stage_evaluate",
    }
}

impl Batch for SweepWiki {
    type Output = Sweep;

    fn prepare(&mut self, _out: &mut Outcome) -> Result<(), String> {
        let start = Instant::now();
        let canonical = shared_link_dsbm(&wikipedia_like_config(self.nodes))
            .map_err(|e| format!("shared_link_dsbm: {e}"))?;
        let (graph, truth) = relabel(&canonical.graph, &canonical.truth, self.seed);
        self.gen_ms = start.elapsed().as_secs_f64() * 1e3;
        let k = truth.n_categories();
        self.prepared = Some(Prepared {
            input: PipelineInput::new("wikipedia_like", graph, Some(truth)),
            spec: PipelineSpec {
                methods: SymMethod::lineup(BIB_THRESHOLD, DD_THRESHOLD),
                clusterers: vec![Clusterer::MlrMcl { inflation: 2.0 }, Clusterer::Metis { k }],
                extra_prune: None,
            },
        });
        Ok(())
    }

    fn op(&mut self, t: &mut Tracer, parent: SpanId, op: u32) -> Result<Sweep, String> {
        let p = self.prepared.as_ref().ok_or("op before set-up")?;
        let engine = engine(1);
        if !t.is_on() {
            let (result, ms) = timed(|| engine.run(&p.input, &p.spec, &|_| {}));
            return Ok((result, ms, 0));
        }
        // The engine's own stage events, stamped as they arrive, become
        // the children of `engine.run`.
        let events: Mutex<Vec<(u64, Event)>> = Mutex::new(Vec::new());
        let s = t.begin("engine.run", parent, op);
        let (base_ns, base) = (t.now_ns(), Instant::now());
        let (result, ms) = timed(|| {
            engine.run(&p.input, &p.spec, &|event| {
                let at = base_ns + base.elapsed().as_nanos() as u64;
                events.lock().expect("event log lock").push((at, event));
            })
        });
        t.end(s);
        let events = events.into_inner().expect("event log lock");
        let mut started: HashMap<usize, u64> = HashMap::new();
        for (at, event) in &events {
            match event {
                Event::StageStarted { node, .. } => {
                    started.insert(*node, *at);
                }
                Event::StageFinished { node, stage, .. }
                | Event::CacheHit { node, stage, .. }
                | Event::StageFailed { node, stage, .. }
                | Event::Cancelled { node, stage, .. } => {
                    if let Some(start) = started.remove(node) {
                        let hit = matches!(event, Event::CacheHit { .. });
                        t.record(stage_span(*stage, hit), s, op, start, *at);
                    }
                }
                _ => {}
            }
        }
        Ok((result, ms, events.len()))
    }

    fn check(&mut self, sweep: Sweep) -> Result<(), String> {
        let p = self.prepared.as_ref().ok_or("check before set-up")?;
        let result = &sweep.0;
        if result.cancelled || result.skipped != 0 || !result.failures.is_empty() {
            return Err(format!(
                "sweep did not complete: cancelled {}, skipped {}, failures {:?}",
                result.cancelled, result.skipped, result.failures
            ));
        }
        let expected = p.spec.methods.len() * p.spec.clusterers.len();
        if result.records.len() != expected {
            return Err(format!(
                "{} records, expected {expected}",
                result.records.len()
            ));
        }
        let mut f = Vec::with_capacity(expected);
        for (i, record) in result.records.iter().enumerate() {
            let method = p.spec.methods[i / p.spec.clusterers.len()].name();
            let clusterer = p.spec.clusterers[i % p.spec.clusterers.len()].name();
            if record.symmetrization != method || record.algorithm != clusterer {
                return Err(format!(
                    "record {i} is {} + {}, plan order has {method} + {clusterer}",
                    record.symmetrization, record.algorithm
                ));
            }
            if record.degraded {
                return Err(format!("record {i} ({method} + {clusterer}) is degraded"));
            }
            f.push(record.f_score.ok_or(format!("record {i} has no F-score"))?);
        }
        // The paper's shape (Figs. 4–6): Degree-discounted beats A+Aᵀ and
        // Bibliometric under MLR-MCL, and is no worse than A+Aᵀ under
        // Metis. Held with ≥ 2.8 points to spare on eight renamings.
        if self.check_shape && !(f[0] > f[4] && f[0] > f[2] && f[1] >= f[5]) {
            return Err(format!(
                "paper shape lost: F(dd+mlrmcl) {} vs aat {} / bib {}, F(dd+metis) {} vs aat {}",
                f[0], f[4], f[2], f[1], f[5]
            ));
        }
        let bits: Vec<u64> = f.iter().map(|x| x.to_bits()).collect();
        match &self.reference {
            Some(want) if *want != bits => {
                return Err(format!("F-scores {f:?} differ from the first op's"))
            }
            Some(_) => {}
            None => self.reference = Some(bits),
        }
        self.last = Some(sweep);
        Ok(())
    }

    fn tear_down(&mut self) {
        self.prepared = None;
    }

    fn layers(&mut self, _spans: &[Span], out: &mut Outcome) -> Result<(), String> {
        let p = self.prepared.as_ref().ok_or("layers before set-up")?;
        let (result, sweep_ms, events) = self.last.as_ref().ok_or("no checked sweep")?;
        let layers = &mut out.layers;
        layers.set("datasets.gen_ms", self.gen_ms);
        layers.set("datasets.nodes", p.input.graph.n_nodes() as f64);
        layers.set("datasets.edges", p.input.graph.n_edges() as f64);

        let snap = &result.metrics;
        let mut stage_total_ms = 0.0;
        for stage in ["load", "symmetrize", "cluster", "evaluate"] {
            let ms = snap
                .span(&format!("stage.{stage}"))
                .map_or(0.0, |s| s.total_secs * 1e3);
            layers.set(&format!("engine.stage_{stage}_ms"), ms);
            stage_total_ms += ms;
        }
        // One worker: no two stages overlap, so what the stage spans do
        // not cover is the engine's own time.
        layers.set("engine.overhead_ms", sweep_ms - stage_total_ms);
        layers.set("engine.cache_hits", result.cache.hits as f64);
        layers.set("engine.cache_misses", result.cache.misses as f64);
        layers.set("engine.failures", result.failures.len() as f64);
        layers.set("engine.events", *events as f64);
        layers.set(
            "engine.queue_depth_hwm",
            snap.gauge("engine.queue_depth_hwm").unwrap_or(0.0),
        );
        layers.set_counters(
            snap,
            &[
                ("engine.inflight_dedups", "engine.inflight_dedups"),
                ("engine.retries", "engine.retries"),
                ("cluster.mcl_iterations", "mcl.iterations"),
                ("cluster.mcl_runs", "mcl.runs"),
                ("cluster.mcl_nonconverged_runs", "mcl.nonconverged_runs"),
                ("sparse.calls", "spgemm.calls"),
                ("sparse.flops", "spgemm.flops"),
                ("sparse.rows_dense", "spgemm.rows_dense"),
                ("sparse.rows_sparse", "spgemm.rows_sparse"),
                ("sparse.nnz_intermediate", "spgemm.nnz_intermediate"),
                ("sparse.nnz_final", "spgemm.nnz_final"),
                ("sparse.threshold_dropped", "spgemm.threshold_dropped"),
                ("sparse.syrk_mirrored_nnz", "spgemm.syrk_mirrored_nnz"),
                ("core.degraded_runs", "sym.degraded_runs"),
            ],
        );

        let (mut mlrmcl_ms, mut metis_ms) = (0.0, 0.0);
        for (i, record) in result.records.iter().enumerate() {
            let (method, clusterer) = (METHODS[i / 2], CLUSTERERS[i % 2]);
            layers.set(
                &format!("eval.f.{method}-{clusterer}"),
                record.f_score.unwrap_or(0.0),
            );
            if clusterer == "mlrmcl" {
                mlrmcl_ms += record.cluster_secs * 1e3;
                layers.set(&format!("core.{method}_ms"), record.symmetrize_secs * 1e3);
                if matches!(method, "dd" | "bib") {
                    layers.set(&format!("core.{method}_edges"), record.sym_edges as f64);
                }
                if method == "dd" {
                    layers.set("cluster.clusters_mlrmcl", record.n_clusters as f64);
                }
            } else {
                metis_ms += record.cluster_secs * 1e3;
            }
        }
        layers.set("cluster.mlrmcl_ms", mlrmcl_ms);
        layers.set("cluster.metis_ms", metis_ms);
        let iterations = layers.get("cluster.mcl_iterations").max(1.0);
        layers.set("cluster.ms_per_mcl_iter", mlrmcl_ms / iterations);

        // Replay: a second sweep on a warm engine, a sweep on two engine
        // workers, and the pieces of MLR-MCL on the Degree-discounted graph.
        let warm = engine(1);
        warm.run(&p.input, &p.spec, &|_| {});
        let (_, warm_ms) = timed(|| warm.run(&p.input, &p.spec, &|_| {}));
        layers.set("engine.warm_sweep_ms", warm_ms);
        let (_, t2_ms) = timed(|| engine(2).run(&p.input, &p.spec, &|_| {}));
        layers.set("engine.t2_sweep_ms", t2_ms);
        layers.set("engine.t2_speedup", sweep_ms / t2_ms);
        let dd = DegreeDiscounted::with_threshold(DD_THRESHOLD)
            .symmetrize(&p.input.graph)
            .map_err(|e| format!("degree-discounted: {e}"))?;
        replay::mlrmcl_pieces(dd.graph(), &MlrMcl::with_inflation(2.0).options, layers)
    }
}

pub fn run(cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    let nodes = if cfg.smoke { 150 } else { 700 };
    let mut workload = SweepWiki {
        nodes,
        seed: cfg.seed,
        // Planted structure this small does not carry the paper's shape.
        check_shape: !cfg.smoke,
        prepared: None,
        gen_ms: 0.0,
        reference: None,
        last: None,
    };
    out.note(
        "input",
        format!("wikipedia_like_config({nodes}), canonical graph, nodes renamed per seed"),
    );
    // One warm-up sweep (≈ 2.1 s) carries the set-up past 2 s; a round
    // then times 3.
    run_batch(&mut workload, cfg, 1, cfg.ops_per_round(3, 1), out)?;
    if let Some((result, _, _)) = &workload.last {
        let f: Vec<String> = result
            .records
            .iter()
            .map(|r| format!("{:.1}", r.f_score.unwrap_or(0.0)))
            .collect();
        out.note("f_scores", f.join(" "));
    }
    Ok(())
}
