//! Regenerates every table and figure of the paper.
//!
//! Usage:
//! ```text
//! cargo run -p symclust-bench --release --bin experiments -- <which> [--scale S]
//! ```
//! `<which>` ∈ {table1, table2, fig4, fig5, fig6, fig7, fig8, fig9,
//! table3, table4, table5, signtest, casestudy, all}.
//!
//! `--scale` multiplies every dataset's node count (default 1.0) so the
//! suite can be run quickly at reduced scale or pushed harder.

use std::time::Instant;
use symclust_cluster::{BestWCut, BestWCutOptions, ClusterAlgorithm, MetisLike, MlrMcl};
use symclust_core::{
    DegreeDiscounted, DegreeDiscountedOptions, DiscountExponent, PlusTranspose, SymmetrizedGraph,
    Symmetrizer,
};
use symclust_datasets::{
    cora_like_scaled, flickr_like_scaled, livejournal_like_scaled, wikipedia_like_scaled, Dataset,
};
use symclust_engine::{
    print_records, save_records, Clusterer, Engine, EngineOptions, PipelineInput, PipelineSpec,
    RunRecord, SymMethod,
};
use symclust_eval::{avg_f_score, correctly_clustered, sign_test};
use symclust_graph::generators::{figure1_graph, guzmania_graph};
use symclust_graph::stats::{DegreeHistogram, GraphStats};
use symclust_graph::{DiGraph, GroundTruth};
use symclust_sparse::ops::top_k_entries_upper;
use symclust_sparse::Tuning;

// The experiments run on generated in-memory graphs, where a failing stage
// is a bug worth a loud exit: the registry's fallible calls, unwrapped once.

fn symmetrize(method: &SymMethod, g: &DiGraph) -> SymmetrizedGraph {
    method
        .build(None, &Tuning::default())
        .symmetrize(g)
        .expect("symmetrization cannot fail on a valid graph")
}

fn measure(
    dataset: &str,
    method: &SymMethod,
    sym: &SymmetrizedGraph,
    clusterer: Clusterer,
    truth: Option<&GroundTruth>,
) -> RunRecord {
    symclust_engine::measure(dataset, method, sym, clusterer, truth).expect("clustering succeeds")
}

fn select_thresholds(g: &DiGraph, target_avg_degree: f64) -> (f64, f64) {
    symclust_engine::select_thresholds(g, target_avg_degree).expect("threshold selection succeeds")
}

struct Config {
    scale: f64,
}

impl Config {
    fn n(&self, base: usize) -> usize {
        ((base as f64 * self.scale) as usize).max(300)
    }
    fn cora(&self) -> Dataset {
        cora_like_scaled(self.n(2100))
    }
    fn wikipedia(&self) -> Dataset {
        wikipedia_like_scaled(self.n(9000))
    }
    fn flickr(&self) -> Dataset {
        flickr_like_scaled(self.n(15_000))
    }
    fn livejournal(&self) -> Dataset {
        livejournal_like_scaled(self.n(20_000))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut scale = 1.0f64;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--scale" {
            scale = args
                .get(i + 1)
                .and_then(|s| s.parse().ok())
                .expect("--scale needs a number");
            i += 2;
        } else {
            which.push(args[i].clone());
            i += 1;
        }
    }
    if which.is_empty() {
        eprintln!(
            "usage: experiments <table1|table2|fig4|fig5|fig6|fig7|fig8|fig9|table3|table4|table5|signtest|casestudy|ablations|sweep|all> [--scale S]"
        );
        std::process::exit(2);
    }
    let cfg = Config { scale };
    for w in which {
        let t0 = Instant::now();
        match w.as_str() {
            "table1" => table1(&cfg),
            "table2" => table2(&cfg),
            "fig4" => fig4(&cfg),
            "fig5" => fig5(&cfg),
            "fig6" => fig6(&cfg),
            "fig7" | "fig8" => fig7_fig8(&cfg),
            "fig9" => fig9(&cfg),
            "table3" => table3(&cfg),
            "table4" => table4(&cfg),
            "table5" => table5(&cfg),
            "signtest" => signtest_exp(&cfg),
            "casestudy" => casestudy(),
            "ablations" => ablations(&cfg),
            "sweep" => sweep(&cfg),
            "all" => {
                table1(&cfg);
                table2(&cfg);
                fig4(&cfg);
                fig5(&cfg);
                fig6(&cfg);
                fig7_fig8(&cfg);
                fig9(&cfg);
                table3(&cfg);
                table4(&cfg);
                table5(&cfg);
                signtest_exp(&cfg);
                casestudy();
                ablations(&cfg);
                sweep(&cfg);
            }
            other => {
                eprintln!("unknown experiment: {other}");
                std::process::exit(2);
            }
        }
        eprintln!("[{w} done in {:.1}s]", t0.elapsed().as_secs_f64());
    }
}

/// Table 1: dataset statistics (vertices, edges, % symmetric links,
/// ground-truth categories).
fn table1(cfg: &Config) {
    println!("\n== Table 1: dataset details ==");
    println!(
        "{:<18} {:>9} {:>10} {:>12} {:>12} {:>12}",
        "dataset", "vertices", "edges", "%symmetric", "categories", "%unlabeled"
    );
    for d in [cfg.cora(), cfg.wikipedia(), cfg.flickr(), cfg.livejournal()] {
        let stats = GraphStats::of(&d.graph);
        let (cats, unl) = match &d.truth {
            Some(t) => (
                t.n_categories().to_string(),
                format!("{:.0}%", 100.0 * t.unlabeled_fraction()),
            ),
            None => ("N.A.".to_string(), "-".to_string()),
        };
        println!(
            "{:<18} {:>9} {:>10} {:>12.1} {:>12} {:>12}",
            d.name, stats.n_nodes, stats.n_edges, stats.percent_symmetric, cats, unl
        );
    }
}

/// Table 2: edges per symmetrization and the prune thresholds used.
fn table2(cfg: &Config) {
    println!("\n== Table 2: symmetrized edge counts and thresholds ==");
    println!(
        "{:<18} {:>12} {:>14} {:>9} {:>14} {:>9} {:>11}",
        "dataset", "A+A'/RW", "Bibliometric", "thresh", "Degree-disc", "thresh", "bib-singl"
    );
    for d in [cfg.cora(), cfg.wikipedia(), cfg.flickr(), cfg.livejournal()] {
        // Cora keeps everything (threshold 0, like the paper); the
        // power-law datasets need thresholds targeting avg degree ~60.
        let (bib_t, dd_t) = if d.name == "cora_like" {
            (0.0, 0.0)
        } else {
            select_thresholds(&d.graph, 60.0)
        };
        let pt = symmetrize(&SymMethod::PlusTranspose, &d.graph);
        let bib = symmetrize(&SymMethod::Bibliometric { threshold: bib_t }, &d.graph);
        let dd = symmetrize(
            &SymMethod::DegreeDiscounted {
                alpha: 0.5,
                beta: 0.5,
                threshold: dd_t,
            },
            &d.graph,
        );
        println!(
            "{:<18} {:>12} {:>14} {:>9.1} {:>14} {:>9.4} {:>11}",
            d.name,
            pt.n_edges(),
            bib.n_edges(),
            bib_t,
            dd.n_edges(),
            dd_t,
            bib.n_singletons(),
        );
    }
}

/// Figure 4: log-binned degree distributions of the Wikipedia
/// symmetrizations.
fn fig4(cfg: &Config) {
    let d = cfg.wikipedia();
    let (bib_t, dd_t) = select_thresholds(&d.graph, 60.0);
    println!("\n== Figure 4: degree distributions of symmetrized wikipedia_like ==");
    println!("(bin lower bounds are powers of two; counts per bin)");
    for method in SymMethod::lineup(bib_t, dd_t) {
        let sym = symmetrize(&method, &d.graph);
        let h = DegreeHistogram::of_ungraph(sym.graph());
        let degrees = sym.graph().degrees();
        let frac_mid = DegreeHistogram::fraction_in_range(&degrees, 50, 200);
        let max_deg = degrees.iter().copied().max().unwrap_or(0);
        print!(
            "{:<18} zero={:<6} max_deg={:<7} frac[50,200]={:.2}  bins:",
            method.name(),
            h.n_zero,
            max_deg,
            frac_mid
        );
        for (i, c) in h.bins.iter().enumerate() {
            print!(" {}:{}", DegreeHistogram::bin_lower(i), c);
        }
        println!();
    }
}

/// Runs a sweep through the pipeline engine: each symmetrization is
/// computed once and shared across every clusterer via the artifact
/// cache, chains execute on the worker pool, and the structured event
/// stream is serialized to `bench_results/<tag>.events.jsonl`.
fn run_sweep(tag: &str, input: PipelineInput, spec: &PipelineSpec) -> Vec<RunRecord> {
    let engine = Engine::new(EngineOptions::default());
    let events = std::sync::Mutex::new(String::new());
    let result = engine.run(&input, spec, &|e| {
        let mut buf = events.lock().unwrap();
        buf.push_str(&e.to_json());
        buf.push('\n');
    });
    for (label, err) in &result.failures {
        eprintln!("warning: stage `{label}` failed: {err}");
    }
    let dir = std::path::Path::new("bench_results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{tag}.events.jsonl"));
        if let Err(e) = std::fs::write(&path, events.into_inner().unwrap()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    eprintln!(
        "[{tag}] engine: {} records, cache {} hits / {} misses",
        result.records.len(),
        result.cache.hits,
        result.cache.misses
    );
    result.records
}

/// Figure 5: Avg-F vs number of clusters on Cora, for MLR-MCL (a) and
/// Graclus (b), across all four symmetrizations.
fn fig5(cfg: &Config) {
    let d = cfg.cora();
    let mut clusterers: Vec<Clusterer> = [1.4, 1.7, 2.0, 2.5, 3.0]
        .into_iter()
        .map(|inflation| Clusterer::MlrMcl { inflation })
        .collect();
    clusterers.extend(
        [20, 40, 70, 100, 140]
            .into_iter()
            .map(|k| Clusterer::Graclus { k }),
    );
    let spec = PipelineSpec {
        methods: SymMethod::lineup(0.0, 0.0),
        clusterers,
        extra_prune: None,
    };
    let input = PipelineInput::new(d.name.clone(), d.graph, d.truth);
    let records = run_sweep("fig5", input, &spec);
    print_records("Figure 5: Cora F-scores (MLR-MCL & Graclus)", &records);
    save_records("fig5", &records);
    summarize_best(&records);
}

/// Figure 6: Degree-discounted + {MLR-MCL, Graclus, Metis} vs BestWCut on
/// Cora — effectiveness (a) and clustering time (b).
fn fig6(cfg: &Config) {
    let d = cfg.cora();
    let truth = d.truth.as_ref().expect("cora has truth");
    let dd = SymMethod::DegreeDiscounted {
        alpha: 0.5,
        beta: 0.5,
        threshold: 0.0,
    };
    let sym = symmetrize(&dd, &d.graph);
    let mut records: Vec<RunRecord> = Vec::new();
    for k in [20, 40, 70, 100, 140] {
        records.push(measure(
            &d.name,
            &dd,
            &sym,
            Clusterer::Metis { k },
            Some(truth),
        ));
        records.push(measure(
            &d.name,
            &dd,
            &sym,
            Clusterer::Graclus { k },
            Some(truth),
        ));
    }
    for inflation in [1.4, 2.0, 2.6] {
        records.push(measure(
            &d.name,
            &dd,
            &sym,
            Clusterer::MlrMcl { inflation },
            Some(truth),
        ));
    }
    // BestWCut runs on the directed graph directly.
    for k in [20, 40, 70, 100, 140] {
        let mut opts = BestWCutOptions {
            k,
            ..Default::default()
        };
        opts.lanczos.max_subspace = k + 40;
        let algo = BestWCut { options: opts };
        let start = Instant::now();
        let clustering = algo.cluster_digraph(&d.graph).expect("BestWCut succeeds");
        let secs = start.elapsed().as_secs_f64();
        let f = avg_f_score(clustering.assignments(), truth).avg_f;
        records.push(RunRecord {
            dataset: d.name.clone(),
            symmetrization: "(directed)".into(),
            algorithm: "BestWCut".into(),
            n_clusters: clustering.n_clusters(),
            f_score: Some(f),
            cluster_secs: secs,
            symmetrize_secs: 0.0,
            sym_edges: d.graph.n_edges(),
            degraded: false,
            converged: clustering.converged(),
        });
    }
    print_records("Figure 6: Degree-discounted vs BestWCut on Cora", &records);
    save_records("fig6", &records);
    summarize_best(&records);
    // Speed ratio summary (Figure 6b's log-scale message).
    let best_wcut_time: f64 = records
        .iter()
        .filter(|r| r.algorithm == "BestWCut")
        .map(|r| r.cluster_secs)
        .sum::<f64>()
        / 5.0;
    for algo in ["MLR-MCL", "Metis", "Graclus"] {
        let times: Vec<f64> = records
            .iter()
            .filter(|r| r.algorithm == algo)
            .map(|r| r.cluster_secs)
            .collect();
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        println!(
            "speedup of DD+{algo} over BestWCut: {:.0}x",
            best_wcut_time / mean
        );
    }
}

/// Figures 7 & 8: Avg-F and clustering time vs number of clusters on
/// Wikipedia, for MLR-MCL and Metis, across symmetrizations.
fn fig7_fig8(cfg: &Config) {
    let d = cfg.wikipedia();
    let truth = d.truth.as_ref().expect("wikipedia has truth");
    let (bib_t, dd_t) = select_thresholds(&d.graph, 60.0);
    let n_cats = truth.n_categories();
    let ks = [
        n_cats / 3,
        (2 * n_cats) / 3,
        n_cats,
        (3 * n_cats) / 2,
        2 * n_cats,
    ];
    let mut clusterers: Vec<Clusterer> = [1.4, 2.0, 2.6]
        .into_iter()
        .map(|inflation| Clusterer::MlrMcl { inflation })
        .collect();
    clusterers.extend(ks.into_iter().map(|k| Clusterer::Metis { k }));
    let spec = PipelineSpec {
        methods: SymMethod::lineup(bib_t, dd_t),
        clusterers,
        extra_prune: None,
    };
    let input = PipelineInput::new(d.name.clone(), d.graph, d.truth);
    let records = run_sweep("fig7_fig8", input, &spec);
    print_records(
        "Figures 7-8: Wikipedia F-scores and clustering times (MLR-MCL & Metis)",
        &records,
    );
    save_records("fig7_fig8", &records);
    summarize_best(&records);
    // Figure 8's message: DD clusters faster at high k.
    for algo in ["MLR-MCL", "Metis"] {
        let dd_time: f64 = mean_time(&records, algo, "Degree-discounted");
        let aat_time: f64 = mean_time(&records, algo, "A+A'");
        println!(
            "{algo}: mean clustering time Degree-discounted {dd_time:.2}s vs A+A' {aat_time:.2}s ({:.1}x faster)",
            aat_time / dd_time
        );
    }
}

fn mean_time(records: &[RunRecord], algo: &str, sym: &str) -> f64 {
    let times: Vec<f64> = records
        .iter()
        .filter(|r| r.algorithm == algo && r.symmetrization == sym)
        .map(|r| r.cluster_secs)
        .collect();
    times.iter().sum::<f64>() / times.len().max(1) as f64
}

/// Figure 9: clustering times on the Flickr and LiveJournal stand-ins
/// (A+A', Random Walk, Degree-discounted; Bibliometric is not viable at
/// this scale, as the paper found).
fn fig9(cfg: &Config) {
    let mut records: Vec<RunRecord> = Vec::new();
    for d in [cfg.flickr(), cfg.livejournal()] {
        let (_, dd_t) = select_thresholds(&d.graph, 60.0);
        let spec = PipelineSpec {
            methods: vec![
                SymMethod::DegreeDiscounted {
                    alpha: 0.5,
                    beta: 0.5,
                    threshold: dd_t,
                },
                SymMethod::PlusTranspose,
                SymMethod::RandomWalk,
            ],
            clusterers: [1.4, 2.0, 2.6]
                .into_iter()
                .map(|inflation| Clusterer::MlrMcl { inflation })
                .collect(),
            extra_prune: None,
        };
        let tag = format!("fig9_{}", d.name);
        // Timing-only datasets: truth withheld, records carry no F-score.
        let input = PipelineInput::new(d.name.clone(), d.graph, None);
        records.extend(run_sweep(&tag, input, &spec));
    }
    print_records("Figure 9: clustering times on Flickr/LiveJournal", &records);
    save_records("fig9", &records);
    for d in ["flickr_like", "livejournal_like"] {
        let dd = records
            .iter()
            .filter(|r| r.dataset == d && r.symmetrization == "Degree-discounted")
            .map(|r| r.cluster_secs)
            .sum::<f64>();
        let aat = records
            .iter()
            .filter(|r| r.dataset == d && r.symmetrization == "A+A'")
            .map(|r| r.cluster_secs)
            .sum::<f64>();
        println!(
            "{d}: DD total {dd:.2}s vs A+A' {aat:.2}s ({:.1}x faster)",
            aat / dd
        );
    }
}

/// Table 3: effect of the pruning threshold on Wikipedia (edges, F-score,
/// clustering time, for MLR-MCL and Metis).
fn table3(cfg: &Config) {
    let d = cfg.wikipedia();
    let truth = d.truth.as_ref().expect("wikipedia has truth");
    let n_cats = truth.n_categories();
    // Four thresholds bracketing the avg-degree-60 choice.
    let (_, t60) = select_thresholds(&d.graph, 60.0);
    let thresholds = [t60 * 0.5, t60, t60 * 1.5, t60 * 2.5];
    println!("\n== Table 3: effect of varying the pruning threshold (wikipedia_like) ==");
    println!(
        "{:<12} {:>10} | {:>8} {:>9} | {:>8} {:>9}",
        "threshold", "edges", "MCL F", "MCL t(s)", "Metis F", "Metis t(s)"
    );
    for t in thresholds {
        let method = SymMethod::DegreeDiscounted {
            alpha: 0.5,
            beta: 0.5,
            threshold: t,
        };
        let sym = symmetrize(&method, &d.graph);
        let m1 = measure(
            &d.name,
            &method,
            &sym,
            Clusterer::MlrMcl { inflation: 2.0 },
            Some(truth),
        );
        let m2 = measure(
            &d.name,
            &method,
            &sym,
            Clusterer::Metis { k: n_cats },
            Some(truth),
        );
        println!(
            "{:<12.5} {:>10} | {:>8.2} {:>9.2} | {:>8.2} {:>9.2}",
            t,
            sym.n_edges(),
            m1.f_score.unwrap(),
            m1.cluster_secs,
            m2.f_score.unwrap(),
            m2.cluster_secs
        );
    }
}

/// Table 4: effect of varying the discount exponents α and β (Metis,
/// k = true category count), on Cora and Wikipedia.
fn table4(cfg: &Config) {
    let cora = cfg.cora();
    let wiki = cfg.wikipedia();
    let configs: Vec<(DiscountExponent, DiscountExponent)> = vec![
        (DiscountExponent::Power(0.0), DiscountExponent::Power(0.0)),
        (DiscountExponent::Log, DiscountExponent::Log),
        (DiscountExponent::Power(0.25), DiscountExponent::Power(0.25)),
        (DiscountExponent::Power(0.5), DiscountExponent::Power(0.5)),
        (DiscountExponent::Power(0.75), DiscountExponent::Power(0.75)),
        (DiscountExponent::Power(1.0), DiscountExponent::Power(1.0)),
        (DiscountExponent::Power(0.25), DiscountExponent::Power(0.5)),
        (DiscountExponent::Power(0.25), DiscountExponent::Power(0.75)),
        (DiscountExponent::Power(0.5), DiscountExponent::Power(0.25)),
        (DiscountExponent::Power(0.5), DiscountExponent::Power(0.75)),
        (DiscountExponent::Power(0.75), DiscountExponent::Power(0.25)),
        (DiscountExponent::Power(0.75), DiscountExponent::Power(0.5)),
    ];
    println!("\n== Table 4: effect of varying alpha, beta (Metis) ==");
    println!(
        "{:<8} {:<8} {:>14} {:>14}",
        "alpha", "beta", "F on cora", "F on wiki"
    );
    let mut best = (String::new(), String::new(), f64::MIN);
    for (alpha, beta) in configs {
        let mut scores = Vec::new();
        for (d, target_deg) in [(&cora, 0.0), (&wiki, 60.0)] {
            let truth = d.truth.as_ref().unwrap();
            let opts = DegreeDiscountedOptions {
                alpha,
                beta,
                threshold: 0.0,
                ..Default::default()
            };
            let threshold = if target_deg > 0.0 {
                symclust_core::select_threshold(&d.graph, &opts, target_deg, 120, 0xBEEF)
                    .expect("threshold selection")
                    .threshold
            } else {
                0.0
            };
            let sym = DegreeDiscounted {
                options: DegreeDiscountedOptions { threshold, ..opts },
            }
            .symmetrize(&d.graph)
            .expect("symmetrize");
            let k = truth.n_categories();
            let c = MetisLike::with_k(k).cluster(&sym).expect("metis");
            scores.push(avg_f_score(c.assignments(), truth).avg_f);
        }
        println!(
            "{:<8} {:<8} {:>14.2} {:>14.2}",
            alpha.label(),
            beta.label(),
            scores[0],
            scores[1]
        );
        if scores[0] + scores[1] > best.2 {
            best = (alpha.label(), beta.label(), scores[0] + scores[1]);
        }
    }
    println!("best combined: alpha={} beta={}", best.0, best.1);
}

/// Table 5: the top-weighted edges per symmetrization on Wikipedia, with
/// endpoint degrees — showing that Bibliometric and Random-walk favor hub
/// pairs while Degree-discounted favors specific, low-degree pairs.
fn table5(cfg: &Config) {
    let d = cfg.wikipedia();
    let (bib_t, dd_t) = select_thresholds(&d.graph, 60.0);
    let in_deg = d.graph.in_degrees();
    let out_deg = d.graph.out_degrees();
    println!("\n== Table 5: top-weighted edges per symmetrization (wikipedia_like) ==");
    println!("(deg = total degree of each endpoint in the directed graph;");
    println!(" planted = planted cluster id, H = hub node)");
    for method in [
        SymMethod::RandomWalk,
        SymMethod::Bibliometric { threshold: bib_t },
        SymMethod::DegreeDiscounted {
            alpha: 0.5,
            beta: 0.5,
            threshold: dd_t,
        },
    ] {
        let sym = symmetrize(&method, &d.graph);
        println!("--- {} ---", method.name());
        for (u, v, w) in top_k_entries_upper(sym.adjacency(), 5) {
            let label = |x: usize| {
                if d.planted[x] == u32::MAX {
                    format!("n{x}(H)")
                } else {
                    format!("n{x}(c{})", d.planted[x])
                }
            };
            println!(
                "  {:>12} -- {:<12} weight={:<12.4e} deg=({}, {})",
                label(u),
                label(v),
                w,
                in_deg[u] + out_deg[u],
                in_deg[v] + out_deg[v]
            );
        }
        // Hub-involvement summary over the top 100 edges.
        let top100 = top_k_entries_upper(sym.adjacency(), 100);
        let mean_deg: f64 = top100
            .iter()
            .map(|&(u, v, _)| (in_deg[u] + out_deg[u] + in_deg[v] + out_deg[v]) as f64 / 2.0)
            .sum::<f64>()
            / top100.len().max(1) as f64;
        println!("  mean endpoint degree over top-100 edges: {mean_deg:.0}");
    }
}

/// §5.6: paired binomial sign tests for the headline comparisons.
fn signtest_exp(cfg: &Config) {
    let d = cfg.cora();
    let truth = d.truth.as_ref().expect("cora has truth");
    let k = truth.n_categories();
    let dd_sym = symmetrize(
        &SymMethod::DegreeDiscounted {
            alpha: 0.5,
            beta: 0.5,
            threshold: 0.0,
        },
        &d.graph,
    );
    let aat_sym = symmetrize(&SymMethod::PlusTranspose, &d.graph);

    let dd_metis = MetisLike::with_k(k).cluster(&dd_sym).unwrap();
    let aat_metis = MetisLike::with_k(k).cluster(&aat_sym).unwrap();
    let dd_mcl = MlrMcl::with_inflation(2.0).cluster(&dd_sym).unwrap();
    let aat_mcl = MlrMcl::with_inflation(2.0).cluster(&aat_sym).unwrap();
    let mut bw_opts = BestWCutOptions {
        k,
        ..Default::default()
    };
    bw_opts.lanczos.max_subspace = k + 40;
    let bw = BestWCut { options: bw_opts }
        .cluster_digraph(&d.graph)
        .unwrap();

    println!("\n== Sign tests (cora_like, one-sided; log10 p-values) ==");
    let pairs = [
        ("DD+MLR-MCL vs A+A'+MLR-MCL", &dd_mcl, &aat_mcl),
        ("DD+Metis   vs A+A'+Metis", &dd_metis, &aat_metis),
        ("DD+MLR-MCL vs BestWCut", &dd_mcl, &bw),
        ("DD+Metis   vs BestWCut", &dd_metis, &bw),
    ];
    for (name, a, b) in pairs {
        let ca = correctly_clustered(a.assignments(), truth);
        let cb = correctly_clustered(b.assignments(), truth);
        let r = sign_test(&ca, &cb);
        println!(
            "{name:30} improved={:>5} degraded={:>5} log10(p)={:.1}",
            r.n_improved, r.n_degraded, r.log10_p
        );
    }
}

/// §2.1.1 / §5.7: the Figure-1 idealized graph and the Guzmania case study.
fn casestudy() {
    println!("\n== Case study: Figure 1 graph ==");
    let g = figure1_graph();
    for (name, sym) in [
        ("A+A'", symmetrize(&SymMethod::PlusTranspose, &g)),
        (
            "Degree-discounted",
            symmetrize(
                &SymMethod::DegreeDiscounted {
                    alpha: 0.5,
                    beta: 0.5,
                    threshold: 0.0,
                },
                &g,
            ),
        ),
    ] {
        let w = sym.adjacency().get(4, 5);
        println!("{name:<18}: weight(4,5) = {w:.4}");
    }
    let dd = DegreeDiscounted::default().symmetrize(&g).unwrap();
    let c = MlrMcl::default().cluster(&dd).unwrap();
    println!(
        "Degree-discounted + MLR-MCL puts 4 and 5 together: {}",
        c.same_cluster(4, 5)
    );
    let aat = PlusTranspose.symmetrize(&g).unwrap();
    let c2 = MlrMcl::default().cluster(&aat).unwrap();
    println!(
        "A+A' + MLR-MCL puts 4 and 5 together: {} (but only because it finds {} cluster(s) — it cannot isolate the pair)",
        c2.same_cluster(4, 5),
        c2.n_clusters()
    );

    println!("\n== Case study: Guzmania cluster (Figure 10) ==");
    let g = guzmania_graph(8);
    let dd = DegreeDiscounted::default().symmetrize(&g).unwrap();
    let c = MlrMcl::default().cluster(&dd).unwrap();
    let species_cluster = c.cluster_of(0);
    let together = (0..8).all(|s| c.cluster_of(s) == species_cluster);
    println!("all 8 Guzmania species share a cluster under DD+MLR-MCL: {together}");
    let members: Vec<String> = c.clusters()[species_cluster as usize]
        .iter()
        .map(|&m| g.label(m as usize))
        .collect();
    println!("that cluster: {members:?}");
}

/// Ablations of this reproduction's own design choices (beyond the paper):
/// the canonical-flow row cap in MLR-MCL, the `A := A + I` pre-step of
/// Bibliometric, multilevel vs. single-level MCL, recursive-bisection vs.
/// simultaneous region-growing initial partitions, and the Random-walk
/// teleport probability.
fn ablations(cfg: &Config) {
    use symclust_cluster::coarsen::CoarsenOptions;
    use symclust_cluster::metis_like::{
        edge_cut, kway_refine, recursive_bisection_partition, region_growing_partition,
    };
    use symclust_cluster::{MclOptions, MlrMclOptions};
    use symclust_core::BibliometricOptions;

    let cora = cfg.cora();
    let truth = cora.truth.as_ref().expect("cora has truth");
    let dd_sym = symmetrize(
        &SymMethod::DegreeDiscounted {
            alpha: 0.5,
            beta: 0.5,
            threshold: 0.0,
        },
        &cora.graph,
    );

    println!("\n== Ablation 1: MLR-MCL canonical-flow row cap ==");
    println!("{:<10} {:>6} {:>8} {:>9}", "cap", "k", "F", "time(s)");
    for cap in [64usize, 256, 512, usize::MAX] {
        let mut options = MlrMclOptions::default();
        options.mcl.max_graph_row_nnz = if cap == usize::MAX { 0 } else { cap };
        let algo = MlrMcl { options };
        let start = Instant::now();
        let c = algo.cluster(&dd_sym).expect("mlr-mcl");
        let secs = start.elapsed().as_secs_f64();
        let f = avg_f_score(c.assignments(), truth).avg_f;
        let label = if cap == usize::MAX {
            "unbounded".to_string()
        } else {
            cap.to_string()
        };
        println!("{label:<10} {:>6} {:>8.2} {:>9.2}", c.n_clusters(), f, secs);
    }

    println!("\n== Ablation 2: Bibliometric A := A + I pre-step ==");
    for add_identity in [true, false] {
        let sym = symclust_core::Bibliometric {
            options: BibliometricOptions {
                add_identity,
                ..Default::default()
            },
        }
        .symmetrize(&cora.graph)
        .expect("bibliometric");
        let c = MetisLike::with_k(truth.n_categories())
            .cluster(&sym)
            .expect("metis");
        let f = avg_f_score(c.assignments(), truth).avg_f;
        println!(
            "add_identity={add_identity:<5} edges={:>8} F={f:.2}",
            sym.n_edges()
        );
    }

    println!("\n== Ablation 3: multilevel vs single-level R-MCL ==");
    for (label, target) in [("multilevel", 500usize), ("single-level", usize::MAX)] {
        let options = MlrMclOptions {
            coarsen: CoarsenOptions {
                target_nodes: if target == usize::MAX {
                    usize::MAX / 2
                } else {
                    target
                },
                ..Default::default()
            },
            mcl: MclOptions::default(),
            ..Default::default()
        };
        let algo = MlrMcl { options };
        let start = Instant::now();
        let c = algo.cluster(&dd_sym).expect("mlr-mcl");
        let secs = start.elapsed().as_secs_f64();
        let f = avg_f_score(c.assignments(), truth).avg_f;
        println!(
            "{label:<14} k={:>4} F={f:.2} time={secs:.2}s",
            c.n_clusters()
        );
    }

    println!("\n== Ablation 4: initial-partition strategy (edge cut after refinement) ==");
    let g = dd_sym.graph();
    let n = g.n_nodes();
    let weights = vec![1.0; n];
    let k = truth.n_categories();
    let mut rb = recursive_bisection_partition(g, &weights, k, 0.1, 4, 9);
    kway_refine(g, &weights, &mut rb, k, 0.1, 4, 10);
    let mut rg = region_growing_partition(g, &weights, k, 9);
    kway_refine(g, &weights, &mut rg, k, 0.1, 4, 10);
    println!(
        "recursive bisection: cut={:.1} F={:.2}",
        edge_cut(g, &rb),
        avg_f_score(&rb, truth).avg_f
    );
    println!(
        "region growing:      cut={:.1} F={:.2}",
        edge_cut(g, &rg),
        avg_f_score(&rg, truth).avg_f
    );

    println!("\n== Ablation 5: Random-walk teleport probability ==");
    for teleport in [0.01, 0.05, 0.15, 0.3] {
        let sym = symclust_core::RandomWalk::with_teleport(teleport)
            .symmetrize(&cora.graph)
            .expect("random walk");
        let c = MetisLike::with_k(truth.n_categories())
            .cluster(&sym)
            .expect("metis");
        let f = avg_f_score(c.assignments(), truth).avg_f;
        println!("teleport={teleport:<5} F={f:.2}");
    }
}

/// Synthetic controlled validation — the paper's other stated future-work
/// item ("in addition to evaluation on real data we would like to validate
/// results on synthetically controlled datasets"). Sweeps the generator
/// knobs one at a time and reports F for Degree-discounted vs A+Aᵀ
/// (Metis, k = true cluster count), showing *when* symmetrization choice
/// matters: the DD advantage grows with shared-link signal and hub
/// strength, and shrinks as intra-cluster linkage makes clusters visible
/// to naive symmetrization.
fn sweep(cfg: &Config) {
    use symclust_graph::generators::{shared_link_dsbm, SharedLinkDsbmConfig};
    let n = cfg.n(1200);
    let base = SharedLinkDsbmConfig {
        n_nodes: n,
        n_clusters: 20,
        seed: 77,
        ..Default::default()
    };
    let run = |cfg: &SharedLinkDsbmConfig| -> (f64, f64) {
        let g = shared_link_dsbm(cfg).expect("generate");
        let mut out = [0.0f64; 2];
        for (i, method) in [
            SymMethod::DegreeDiscounted {
                alpha: 0.5,
                beta: 0.5,
                threshold: 0.0,
            },
            SymMethod::PlusTranspose,
        ]
        .iter()
        .enumerate()
        {
            let sym = symmetrize(method, &g.graph);
            let c = MetisLike::with_k(20).cluster(&sym).expect("metis");
            out[i] = avg_f_score(c.assignments(), &g.truth).avg_f;
        }
        (out[0], out[1])
    };

    println!("\n== Controlled sweep: when does symmetrization choice matter? ==");
    println!("(shared-link DSBM, n={n}, k=20; F via Metis)");

    println!("--- shared-link signal (p_signature) ---");
    println!(
        "{:<12} {:>8} {:>8} {:>8}",
        "p_signature", "DD F", "A+A' F", "gap"
    );
    for p in [0.2, 0.4, 0.6, 0.8] {
        let (dd, pt) = run(&SharedLinkDsbmConfig {
            p_signature: p,
            ..base.clone()
        });
        println!("{p:<12} {dd:>8.2} {pt:>8.2} {:>8.2}", dd - pt);
    }

    println!("--- intra-cluster linkage (p_intra) ---");
    println!(
        "{:<12} {:>8} {:>8} {:>8}",
        "p_intra", "DD F", "A+A' F", "gap"
    );
    for p in [0.0, 0.05, 0.15, 0.4] {
        let (dd, pt) = run(&SharedLinkDsbmConfig {
            p_intra: p,
            ..base.clone()
        });
        println!("{p:<12} {dd:>8.2} {pt:>8.2} {:>8.2}", dd - pt);
    }

    println!("--- hub strength (p_to_hub, 12 hubs) ---");
    println!(
        "{:<12} {:>8} {:>8} {:>8}",
        "p_to_hub", "DD F", "A+A' F", "gap"
    );
    for p in [0.0, 0.2, 0.5, 0.8] {
        let (dd, pt) = run(&SharedLinkDsbmConfig {
            n_hubs: 12,
            p_to_hub: p,
            ..base.clone()
        });
        println!("{p:<12} {dd:>8.2} {pt:>8.2} {:>8.2}", dd - pt);
    }

    println!("--- reciprocity (p_reciprocal) ---");
    println!(
        "{:<12} {:>8} {:>8} {:>8}",
        "p_recip", "DD F", "A+A' F", "gap"
    );
    for p in [0.0, 0.2, 0.5, 0.9] {
        let (dd, pt) = run(&SharedLinkDsbmConfig {
            p_reciprocal: p,
            ..base.clone()
        });
        println!("{p:<12} {dd:>8.2} {pt:>8.2} {:>8.2}", dd - pt);
    }
}

/// Prints the best (peak) F per symmetrization+algorithm — the number the
/// paper quotes in prose ("peak F value of 22.79", etc.).
fn summarize_best(records: &[RunRecord]) {
    use std::collections::HashMap;
    let mut best: HashMap<(String, String), &RunRecord> = HashMap::new();
    for r in records {
        if r.f_score.is_none() {
            continue;
        }
        let key = (r.symmetrization.clone(), r.algorithm.clone());
        let e = best.entry(key).or_insert(r);
        if r.f_score > e.f_score {
            *e = r;
        }
    }
    let mut rows: Vec<_> = best.into_values().collect();
    rows.sort_by(|a, b| b.f_score.partial_cmp(&a.f_score).unwrap());
    println!("peak F per (symmetrization, algorithm):");
    for r in rows {
        println!(
            "  {:<18} + {:<9}: F={:.2} at k={}",
            r.symmetrization,
            r.algorithm,
            r.f_score.unwrap(),
            r.n_clusters
        );
    }
}
