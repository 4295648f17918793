//! The replay phase of a traced run, and the one independent oracle.
//!
//! The end-to-end paths of the workloads go through the `symclust`
//! facade, the `Engine`, the `Server` and the wire protocol only. Every
//! *finer* public item the benchmark touches is confined to this file, so
//! a refactor that renames one of them breaks exactly one file of the
//! benchmark (README.md, "Compile surface"):
//! `SimilarityFactors::{build, full, row}`, `select_threshold`,
//! `ops::transpose`, `coarsen_graph`, `canonical_flow`, `rmcl`,
//! `extract_clusters`, `DiskStore`, `TieredCache`, `StoreOptions`,
//! `protocol::parse_request`.
//!
//! Kernel variants are selected through the documented `SYMCLUST_*`
//! environment variables, as a user would, never through option-struct
//! fields: ROADMAP items 2–3 plan to move those fields, not the knobs.
//! The variables are set and removed on the main thread while no other
//! thread of the benchmark is alive.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use symclust::cluster::mcl::{canonical_flow, extract_clusters};
use symclust::cluster::{coarsen_graph, rmcl, MclOptions, MlrMclOptions};
use symclust::core::degree_discounted::SimilarityFactors;
use symclust::core::select_threshold;
use symclust::graph::{DiGraph, UnGraph};
use symclust::prelude::*;
use symclust::sparse::{ops, CancelToken};
use symclust_cli::protocol::parse_request;
use symclust_engine::fingerprint::matrix_fingerprint;
use symclust_obs::MetricsRegistry;
use symclust_store::{DiskStore, StoreOptions, TieredCache};

use crate::harness::Layers;
use crate::inputs::Rng;

/// Runs `f`, returning its result and its wall time in ms.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64() * 1e3)
}

fn with_env<R>(vars: &[(&str, &str)], f: impl FnOnce() -> R) -> R {
    for (name, value) in vars {
        std::env::set_var(name, value);
    }
    let r = f();
    for (name, _) in vars {
        std::env::remove_var(name);
    }
    r
}

/// Degree-discounted symmetrization of `g` under the given environment,
/// with the counters the kernels record. The options are built inside
/// the closure because their defaults read the environment.
fn dd_variant(
    g: &DiGraph,
    threshold: f64,
    vars: &[(&str, &str)],
) -> Result<(SymmetrizedGraph, f64, symclust_obs::MetricsSnapshot), String> {
    let registry = MetricsRegistry::new();
    let (sym, ms) = with_env(vars, || {
        timed(|| {
            DegreeDiscounted::with_threshold(threshold).symmetrize_observed(
                g,
                &CancelToken::new(),
                Some(&registry),
            )
        })
    });
    let sym = sym.map_err(|e| format!("degree-discounted under {vars:?}: {e}"))?;
    Ok((sym, ms, registry.snapshot()))
}

/// `sym-kron` replay: the pieces of the Degree-discounted op, the kernel
/// variants, and the work counters.
pub fn sym_kron(g: &DiGraph, threshold: f64, layers: &mut Layers) -> Result<(), String> {
    let (_, transpose_ms) = timed(|| ops::transpose(g.adjacency()));
    layers.set("sparse.transpose_ms", transpose_ms);

    let options = DegreeDiscounted::with_threshold(threshold).options;
    let (factors, factors_ms) = timed(|| SimilarityFactors::build(g, &options));
    let factors = factors.map_err(|e| format!("SimilarityFactors::build: {e}"))?;
    layers.set("core.dd_factors_ms", factors_ms);
    let (full, syrk_ms) = timed(|| factors.full(threshold, 1));
    full.map_err(|e| format!("SimilarityFactors::full: {e}"))?;
    layers.set("sparse.syrk_sum_ms", syrk_ms);

    let (selection, select_ms) = timed(|| select_threshold(g, &options, 50.0, 64, 1));
    selection.map_err(|e| format!("select_threshold: {e}"))?;
    layers.set("core.select_threshold_ms", select_ms);
    let (aat, aat_ms) = timed(|| PlusTranspose.symmetrize(g));
    aat.map_err(|e| format!("A+A^T: {e}"))?;
    layers.set("core.aat_ms", aat_ms);
    let (rw, rw_ms) = timed(|| RandomWalk::default().symmetrize(g));
    rw.map_err(|e| format!("random-walk: {e}"))?;
    layers.set("core.rw_ms", rw_ms);

    // The default (adaptive, in-memory, 1 thread) variant gives the work
    // counters; every other variant must produce the same bytes.
    let (base, base_ms, snap) = dd_variant(g, threshold, &[])?;
    let want = matrix_fingerprint(base.adjacency());
    // A difference of two ≈ 0.9 s times taken back to back: good to
    // ± 20 ms on this host, and the true value is about that size.
    layers.set("core.dd_self_ms", base_ms - syrk_ms);
    layers.set_counters(
        &snap,
        &[
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
    let flops = layers.get("sparse.flops").max(1.0);
    layers.set("sparse.ns_per_flop", syrk_ms * 1e6 / flops);
    layers.set(
        "sparse.emit_ratio",
        layers.get("sparse.nnz_final") / layers.get("sparse.nnz_intermediate").max(1.0),
    );

    let mut variant = |metric: &str, vars: &[(&str, &str)]| {
        let (sym, ms, snap) = dd_variant(g, threshold, vars)?;
        if matrix_fingerprint(sym.adjacency()) != want {
            return Err(format!("variant {vars:?} changed the output bytes"));
        }
        layers.set(metric, ms);
        Ok::<_, String>((ms, snap))
    };
    let (dense_ms, _) = variant("sparse.accum_dense_ms", &[("SYMCLUST_ACCUM", "dense")])?;
    let (sparse_ms, _) = variant("sparse.accum_sparse_ms", &[("SYMCLUST_ACCUM", "sparse")])?;
    let (panel_ms, panel_snap) = variant("sparse.panel_ms", &[("SYMCLUST_PANEL_ROWS", "4096")])?;
    let (_, spill_snap) = variant(
        "sparse.panel_spill_ms",
        &[
            ("SYMCLUST_PANEL_ROWS", "4096"),
            ("SYMCLUST_MEMORY_BUDGET", "1048576"),
        ],
    )?;
    let (par2_ms, par2_snap) = variant("sparse.par2_ms", &[("SYMCLUST_THREADS", "2")])?;
    layers.set_counters(&panel_snap, &[("sparse.panels", "spgemm.panels")]);
    layers.set_counters(
        &spill_snap,
        &[
            ("sparse.panel_spills", "spgemm.panel_spills"),
            ("sparse.spill_bytes", "spgemm.spill_bytes"),
        ],
    );
    layers.set_counters(
        &par2_snap,
        &[("sparse.sched_steals", "spgemm.sched_steals")],
    );
    layers.set("sparse.adaptive_vs_best", base_ms / dense_ms.min(sparse_ms));
    layers.set("sparse.panel_overhead", panel_ms / base_ms);
    layers.set("sparse.par2_speedup", base_ms / par2_ms);
    Ok(())
}

/// The independent oracle of `sym-kron`: `rows` seeded rows of the
/// thresholded Degree-discounted output against `SimilarityFactors::row`,
/// which accumulates one row in a plain dense vector and shares no code
/// with the fused SYRK kernel. Values must agree to 1e-12; an entry
/// within 1e-12 of the threshold may fall on either side of it.
pub fn oracle_rows(
    g: &DiGraph,
    dd: &SymmetrizedGraph,
    threshold: f64,
    seed: u64,
    rows: usize,
) -> Result<(), String> {
    const TOL: f64 = 1e-12;
    let options = DegreeDiscounted::with_threshold(threshold).options;
    let factors =
        SimilarityFactors::build(g, &options).map_err(|e| format!("oracle factors: {e}"))?;
    let mut rng = Rng::new(seed);
    for _ in 0..rows {
        let row = rng.below(g.n_nodes());
        let mut got = dd.adjacency().row_iter(row).peekable();
        for (col, want) in factors.row(row) {
            match got.peek() {
                Some(&(c, v)) if c == col => {
                    if (v - want).abs() > TOL || want < threshold - TOL {
                        return Err(format!(
                            "oracle: row {row} col {col}: kernel {v}, oracle {want}"
                        ));
                    }
                    got.next();
                }
                Some(&(c, v)) if c < col => {
                    return Err(format!(
                        "oracle: row {row} has {v} at col {c}, oracle has 0"
                    ));
                }
                _ if want >= threshold + TOL => {
                    return Err(format!(
                        "oracle: row {row} col {col}: kernel dropped {want} >= {threshold}"
                    ));
                }
                _ => {}
            }
        }
        if let Some((c, v)) = got.next() {
            return Err(format!(
                "oracle: row {row} has {v} at col {c}, oracle has 0"
            ));
        }
    }
    Ok(())
}

/// `cluster-wiki` / `sweep-wiki` replay: the pieces of MLR-MCL, once
/// each, on the graph the op clusters. `cluster.coarse_levels` is how the
/// two workloads differ: ≥ 1 above 4 000 nodes, 0 below.
pub fn mlrmcl_pieces(
    g: &UnGraph,
    options: &MlrMclOptions,
    layers: &mut Layers,
) -> Result<(), String> {
    let (levels, coarsen_ms) = timed(|| coarsen_graph(g, &options.coarsen));
    let levels = levels.map_err(|e| format!("coarsen_graph: {e}"))?;
    layers.set("cluster.coarsen_ms", coarsen_ms);
    layers.set("cluster.coarse_levels", levels.len() as f64);
    let coarsest = levels.last().map_or(g, |level| &level.graph);
    let (_, flow_ms) = timed(|| canonical_flow(coarsest));
    layers.set("cluster.canonical_flow_ms", flow_ms);
    let mcl: MclOptions = options.mcl;
    let (result, rmcl_ms) = timed(|| rmcl(coarsest, &mcl));
    let result = result.map_err(|e| format!("rmcl: {e}"))?;
    layers.set("cluster.rmcl_ms", rmcl_ms);
    layers.set("cluster.flow_nnz", result.flow.nnz() as f64);
    let (_, extract_ms) = timed(|| extract_clusters(&result.flow));
    layers.set("cluster.extract_ms", extract_ms);
    Ok(())
}

/// `serve-mix` replay: direct calls on a scratch `DiskStore` /
/// `TieredCache` with the warm Degree-discounted matrix the daemon
/// serves its `symmetrize` hits from.
pub fn store_direct(
    dir: &Path,
    g: &DiGraph,
    threshold: f64,
    layers: &mut Layers,
) -> Result<(), String> {
    let sym = DegreeDiscounted::with_threshold(threshold)
        .symmetrize(g)
        .map_err(|e| format!("store replay symmetrize: {e}"))?;
    let matrix = sym.adjacency();
    let store = DiskStore::open(dir, StoreOptions::default())
        .map_err(|e| format!("open scratch store: {e}"))?;
    let store = Arc::new(store);
    let key = matrix_fingerprint(matrix);
    let (put, put_ms) = timed(|| store.put(key, matrix));
    put.map_err(|e| format!("store put: {e}"))?;
    let blob_bytes = store.bytes() as f64;
    let cache: TieredCache<CsrMatrix> = TieredCache::new(Arc::clone(&store));
    // First get: verify-on-load from disk, promoted into L1.
    let (loaded, load_ms) = timed(|| cache.get(key));
    let (loaded, _) = loaded.ok_or("store replay: blob just put was not found")?;
    if matrix_fingerprint(&loaded) != key {
        return Err("store replay: loaded matrix differs from the one put".to_string());
    }
    const L1_GETS: usize = 1000;
    let (_, l1_ms) = timed(|| {
        for _ in 0..L1_GETS {
            std::hint::black_box(cache.get(std::hint::black_box(key)));
        }
    });
    layers.set("store.put_ms", put_ms);
    layers.set("store.load_ms", load_ms);
    layers.set("store.l1_get_us", l1_ms * 1e3 / L1_GETS as f64);
    layers.set("store.blob_bytes", blob_bytes);
    layers.set("store.put_mb_per_s", blob_bytes / 1e6 / (put_ms / 1e3));
    layers.set("store.load_mb_per_s", blob_bytes / 1e6 / (load_ms / 1e3));
    Ok(())
}

/// `cli.parse_request_us`: mean time of `protocol::parse_request` over
/// the request corpus one connection sends.
pub fn parse_request_us<'a>(corpus: impl Iterator<Item = &'a str>) -> Result<f64, String> {
    let (mut parsed, mut bad) = (0usize, 0usize);
    let ((), ms) = timed(|| {
        for line in corpus {
            parsed += 1;
            bad += usize::from(std::hint::black_box(parse_request(line)).is_err());
        }
    });
    if bad > 0 {
        return Err(format!("{bad} generated requests do not parse"));
    }
    Ok(ms * 1e3 / parsed.max(1) as f64)
}
