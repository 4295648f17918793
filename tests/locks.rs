//! Locks on the work the kernels save and the paths they promise to take.
//!
//! Each test compares two ways of producing the same bytes and checks a
//! deterministic counter on the way, never a clock:
//!
//! * `syrk` — the fused symmetric product `AAᵀ + AᵀA` does strictly
//!   fewer multiply-adds than two general products, for identical output;
//! * `serve` — replaying a symmetrization through a fresh memory tier over
//!   the same disk store (a daemon restart) is a disk hit that runs no
//!   SpGEMM and returns identical bytes, on a healthy store;
//! * `panel` — a forced tiny-panel, 1-byte-budget product runs several
//!   tiles and spills, with output and work counters identical to the
//!   in-memory product, serially and in parallel (DESIGN.md §17);
//! * `oom` — the full symmetrize→cluster pipeline over a streamed DSBM
//!   edge list at least 4× its spill budget finishes, spills and recovers
//!   the planted clusters. It takes minutes in a debug build, so it is
//!   `#[ignore]`d and runs with
//!   `cargo test --release --test locks -- --ignored`.

use std::path::PathBuf;
use std::sync::Arc;
use symclust::graph::io::read_edge_list_file;
use symclust::graph::DiGraph;
use symclust::sparse::spgemm::metric_names;
use symclust::sparse::{
    ops, spgemm, spgemm_syrk_sum, CancelToken, CsrMatrix, PanelPlan, SpgemmOptions, SyrkTerm,
    Tuning,
};
use symclust_engine::{Clusterer, Engine, EngineOptions, PipelineInput, PipelineSpec, SymMethod};
use symclust_obs::MetricsRegistry;
use symclust_store::{symmetrize_cached, DiskStore, StoreOptions, StoreStats, Tier, TieredCache};

fn bundled_graph() -> DiGraph {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data/dsbm_small.txt");
    read_edge_list_file(path).expect("bundled graph loads")
}

/// The Bibliometric operand `A + I` and its transpose.
fn bibliometric_operands(g: &DiGraph) -> (CsrMatrix, CsrMatrix) {
    let a = ops::add_diagonal(g.adjacency(), 1.0).expect("add diagonal");
    let at = ops::transpose(&a);
    (a, at)
}

/// A scratch directory named for one test, removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(test: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("symclust_lock_{test}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn syrk() {
    let (a, at) = bibliometric_operands(&bundled_graph());
    let opts = SpgemmOptions {
        drop_diagonal: true,
        tuning: Tuning {
            threads: 1,
            ..Default::default()
        },
        ..Default::default()
    };

    let general_metrics = MetricsRegistry::new();
    let coupling = spgemm(&a, &at, &opts, None, Some(&general_metrics)).expect("AAᵀ");
    let cocitation = spgemm(&at, &a, &opts, None, Some(&general_metrics)).expect("AᵀA");
    let general = ops::add(&coupling.matrix, &cocitation.matrix).expect("sum");

    let syrk_metrics = MetricsRegistry::new();
    let fused = spgemm_syrk_sum(
        &[SyrkTerm { x: &a, xt: &at }, SyrkTerm { x: &at, xt: &a }],
        &opts,
        None,
        Some(&syrk_metrics),
    )
    .expect("SYRK")
    .matrix;

    assert!(general == fused, "SYRK output differs");
    let flops = |m: &MetricsRegistry| m.snapshot().counter(metric_names::FLOPS).unwrap_or(0);
    let (general_flops, syrk_flops) = (flops(&general_metrics), flops(&syrk_metrics));
    assert!(
        syrk_flops < general_flops,
        "SYRK flops {syrk_flops} not strictly below general-kernel flops {general_flops}"
    );
}

#[test]
fn serve() {
    let g = bundled_graph();
    let scratch = ScratchDir::new("serve");
    let fp = symclust_engine::fingerprint::graph_fingerprint(&g);
    let method = SymMethod::Bibliometric { threshold: 0.0 };
    let token = CancelToken::new();
    // A fresh memory tier over the same directory is what a restarted
    // daemon sees.
    let pass = || {
        let store = Arc::new(DiskStore::open(&scratch.0, StoreOptions::default()).expect("open"));
        let cache: TieredCache<CsrMatrix> = TieredCache::new(store.clone());
        let metrics = MetricsRegistry::new();
        let (matrix, tier, key) =
            symmetrize_cached(&cache, &g, fp, &method, None, &token, Some(&metrics))
                .expect("symmetrize");
        let calls = metrics.snapshot().counter(metric_names::CALLS).unwrap_or(0);
        (matrix, tier, key, calls, store)
    };

    let (cold, cold_tier, key, cold_calls, _) = pass();
    assert_eq!(cold_tier, Tier::Computed, "the scratch store was not empty");
    assert!(cold_calls > 0, "cold pass ran no SpGEMM");

    let (hit, hit_tier, hit_key, hit_calls, store) = pass();
    assert_eq!(hit_tier, Tier::Disk, "replay was not a disk hit");
    assert_eq!(hit_key, key);
    assert!(*hit == *cold, "replayed bytes differ");
    assert_eq!(hit_calls, 0, "replay ran SpGEMM");

    // One miss and one put from the cold pass, one hit from the replay,
    // and nothing quarantined, failed, evicted or degraded.
    let stats = store.stats();
    let healthy = StoreStats {
        hits: 1,
        misses: 1,
        puts: 1,
        blobs: stats.blobs,
        bytes: stats.bytes,
        ..StoreStats::default()
    };
    assert_eq!(stats, healthy);
}

#[test]
fn panel() {
    let g = bundled_graph();
    let (a, at) = bibliometric_operands(&g);
    let terms = [SyrkTerm { x: &a, xt: &at }, SyrkTerm { x: &at, xt: &a }];
    // The deterministic work measures, not the panel bookkeeping.
    const WORK_KEYS: &[&str] = &[
        metric_names::ROWS,
        metric_names::FLOPS,
        metric_names::NNZ_INTERMEDIATE,
        metric_names::NNZ_FINAL,
        metric_names::THRESHOLD_DROPPED,
        metric_names::SYRK_MIRRORED_NNZ,
    ];
    const PANEL_KEYS: &[&str] = &[
        metric_names::PANELS,
        metric_names::PANEL_SPILLS,
        metric_names::SPILL_BYTES,
    ];
    let run = |panel: PanelPlan, threads: usize| {
        let opts = SpgemmOptions {
            drop_diagonal: true,
            tuning: Tuning { threads, panel },
            ..Default::default()
        };
        let metrics = MetricsRegistry::new();
        let c = spgemm_syrk_sum(&terms, &opts, None, Some(&metrics))
            .expect("SYRK")
            .matrix;
        let snap = metrics.snapshot();
        let counts = |keys: &[&str]| -> Vec<u64> {
            keys.iter().map(|k| snap.counter(k).unwrap_or(0)).collect()
        };
        (c, counts(WORK_KEYS), counts(PANEL_KEYS))
    };

    // Not the environment's plan: a true in-memory run against a forced
    // out-of-core one.
    let (mem, mem_work, mem_panel) = run(PanelPlan::default(), 1);
    assert_eq!(mem_panel, [0, 0, 0], "in-memory panel activity");

    let forced = PanelPlan {
        panel_rows: Some((g.n_nodes() / 4).max(1)),
        budget_bytes: Some(1), // every tile past the first estimate spills
        spill_dir: None,
    };
    let (serial, serial_work, serial_panel) = run(forced.clone(), 1);
    let (tiles, spills, bytes) = (serial_panel[0], serial_panel[1], serial_panel[2]);
    assert!(tiles > 1, "forced panel run executed {tiles} tile(s)");
    assert!(spills > 0 && bytes > 0, "forced panel run never spilled");
    assert!(serial == mem, "panel output differs");
    assert_eq!(serial_work, mem_work, "{WORK_KEYS:?} diverged");

    let (par, _, par_panel) = run(forced, 0);
    assert!(par == mem, "parallel panel output differs");
    assert_eq!(par_panel, serial_panel, "scheduling-dependent");
}

/// The F-score the out-of-core pipeline must reach on its planted DSBM.
const OOM_F_SCORE_FLOOR: f64 = 50.0;

#[test]
#[ignore = "minutes in a debug build; run with --release -- --ignored"]
fn oom() {
    use symclust::datasets::stream::{stream_dsbm_to_files, StreamDsbmConfig};

    let scratch = ScratchDir::new("oom");
    let cfg = StreamDsbmConfig {
        n_nodes: 12_000,
        n_clusters: 24,
        intra_degree: 8,
        inter_degree: 2,
        seed: 20_110_325, // EDBT 2011
    };
    let edges_path = scratch.0.join("oom.txt");
    let truth_path = scratch.0.join("oom.truth.txt");
    stream_dsbm_to_files(&cfg, &edges_path, &truth_path).expect("stream DSBM");
    let file_bytes = std::fs::metadata(&edges_path).expect("stat").len();
    // The input on disk is ≥ 4× the spill budget the multiply gets for
    // in-flight partial products.
    let budget_bytes = (file_bytes / 4) as usize;

    let graph = read_edge_list_file(&edges_path).expect("load streamed edge list");
    let categories: Vec<Vec<u32>> = (0..cfg.n_clusters)
        .map(|c| {
            (0..cfg.n_nodes as u32)
                .filter(|&u| cfg.cluster_of(u as usize) == c as u32)
                .collect()
        })
        .collect();
    let truth = symclust::graph::GroundTruth::new(cfg.n_nodes, categories).expect("truth");

    let registry = MetricsRegistry::new();
    let engine = Engine::new(EngineOptions {
        tuning: Tuning {
            panel: PanelPlan {
                panel_rows: Some(cfg.n_nodes / 8),
                budget_bytes: Some(budget_bytes),
                spill_dir: Some(scratch.0.clone()),
            },
            ..Default::default()
        },
        metrics: Some(registry.clone()),
        ..Default::default()
    });
    let spec = PipelineSpec {
        methods: vec![SymMethod::Bibliometric { threshold: 2.0 }],
        clusterers: vec![Clusterer::MlrMcl { inflation: 2.0 }],
        extra_prune: None,
    };
    let input = PipelineInput::new("oom_dsbm", graph, Some(truth));
    let result = engine.run(&input, &spec, &|_| {});
    assert!(result.failures.is_empty(), "{:?}", result.failures);

    let spills = registry
        .snapshot()
        .counter(metric_names::PANEL_SPILLS)
        .unwrap_or(0);
    assert!(
        spills > 0,
        "multiply never spilled under a {budget_bytes}-byte budget \
         (input file is {file_bytes} bytes)"
    );
    let record = result.records.first().expect("one record");
    let f = record.f_score.expect("F-score with ground truth");
    assert!(f >= OOM_F_SCORE_FLOOR, "F-score {f:.1}% below floor");
}
