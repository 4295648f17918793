//! Run records: the measured output of one (dataset, symmetrization,
//! clusterer) pipeline, plus table/JSONL rendering.

use crate::json::JsonObject;
use crate::spec::{Clusterer, SymMethod};
use std::time::Instant;
use symclust_core::SymmetrizedGraph;
use symclust_eval::avg_f_score;
use symclust_graph::GroundTruth;

/// One measured clustering run; serialized as JSON lines for downstream
/// plotting and recorded in EXPERIMENTS.md.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Dataset name.
    pub dataset: String,
    /// Symmetrization method name.
    pub symmetrization: String,
    /// Clustering algorithm name.
    pub algorithm: String,
    /// Number of clusters produced.
    pub n_clusters: usize,
    /// Micro-averaged F-score (percentage), when ground truth exists.
    pub f_score: Option<f64>,
    /// Clustering wall time in seconds (excludes symmetrization).
    pub cluster_secs: f64,
    /// Symmetrization wall time in seconds.
    pub symmetrize_secs: f64,
    /// Undirected edges in the symmetrized graph.
    pub sym_edges: usize,
    /// Whether the symmetrization ran in degraded (budget-limited) mode:
    /// the SpGEMM output estimate exceeded the memory budget and the
    /// product was adaptively thresholded instead (see §10 of DESIGN.md).
    pub degraded: bool,
    /// Whether the clusterer reported convergence. `false` means the flow
    /// iteration exhausted its budget and the clustering is best-effort.
    pub converged: bool,
}

impl RunRecord {
    /// Short health annotation for table rendering: `degraded` and/or
    /// `no-conv`, or `-` when the run was exact and converged.
    pub fn notes(&self) -> String {
        match (self.degraded, self.converged) {
            (false, true) => "-".to_string(),
            (true, true) => "degraded".to_string(),
            (false, false) => "no-conv".to_string(),
            (true, false) => "degraded,no-conv".to_string(),
        }
    }

    /// One JSON object on a single line (JSONL-ready).
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.string("dataset", &self.dataset);
        obj.string("symmetrization", &self.symmetrization);
        obj.string("algorithm", &self.algorithm);
        obj.number("n_clusters", self.n_clusters as f64);
        match self.f_score {
            Some(f) => obj.number("f_score", f),
            None => obj.null("f_score"),
        }
        obj.number("cluster_secs", self.cluster_secs);
        obj.number("symmetrize_secs", self.symmetrize_secs);
        obj.number("sym_edges", self.sym_edges as f64);
        obj.boolean("degraded", self.degraded);
        obj.boolean("converged", self.converged);
        obj.finish()
    }
}

/// Runs `clusterer` on `sym` serially and packages the measurement. This
/// is the reference path the engine's parallel executor is checked
/// against; it is also used directly by one-off experiments that don't
/// need a sweep.
pub fn measure(
    dataset: &str,
    sym_method: &SymMethod,
    sym: &SymmetrizedGraph,
    clusterer: Clusterer,
    truth: Option<&GroundTruth>,
) -> symclust_cluster::Result<RunRecord> {
    let start = Instant::now();
    let clustering = clusterer.build().cluster_ungraph(sym.graph())?;
    let cluster_secs = start.elapsed().as_secs_f64();
    let f_score = truth.map(|t| avg_f_score(clustering.assignments(), t).avg_f);
    Ok(RunRecord {
        dataset: dataset.to_string(),
        symmetrization: sym_method.name(),
        algorithm: clusterer.name().to_string(),
        n_clusters: clustering.n_clusters(),
        f_score,
        cluster_secs,
        symmetrize_secs: sym.elapsed().as_secs_f64(),
        sym_edges: sym.n_edges(),
        degraded: sym.degraded(),
        converged: clustering.converged(),
    })
}

/// Prints records as an aligned table with the given title.
pub fn print_records(title: &str, records: &[RunRecord]) {
    println!("\n== {title} ==");
    println!(
        "{:<18} {:<18} {:<9} {:>6} {:>8} {:>10} {:>10} {:<16}",
        "dataset", "symmetrization", "algo", "k", "F", "time(s)", "edges", "notes"
    );
    for r in records {
        println!(
            "{:<18} {:<18} {:<9} {:>6} {:>8} {:>10.3} {:>10} {:<16}",
            r.dataset,
            r.symmetrization,
            r.algorithm,
            r.n_clusters,
            r.f_score.map_or("-".to_string(), |f| format!("{f:.2}")),
            r.cluster_secs,
            r.sym_edges,
            r.notes(),
        );
    }
}

/// Appends records as JSON lines to `bench_results/<name>.jsonl`.
pub fn save_records(name: &str, records: &[RunRecord]) {
    let dir = std::path::Path::new("bench_results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.jsonl"));
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_every_field_and_null_f() {
        let r = RunRecord {
            dataset: "d".into(),
            symmetrization: "A+A'".into(),
            algorithm: "Metis".into(),
            n_clusters: 7,
            f_score: None,
            cluster_secs: 0.5,
            symmetrize_secs: 0.25,
            sym_edges: 100,
            degraded: true,
            converged: false,
        };
        let j = r.to_json();
        assert!(j.contains("\"f_score\":null"), "{j}");
        assert!(j.contains("\"degraded\":true"), "{j}");
        assert!(j.contains("\"converged\":false"), "{j}");
        assert!(j.contains("\"symmetrization\":\"A+A'\""), "{j}");
        assert!(j.contains("\"n_clusters\":7"), "{j}");
        assert!(!j.contains('\n'));
        assert_eq!(r.notes(), "degraded,no-conv");
        let healthy = RunRecord {
            degraded: false,
            converged: true,
            ..r.clone()
        };
        assert_eq!(healthy.notes(), "-");
    }
}
