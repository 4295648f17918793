//! `sym-kron`: symmetrization-dominated. The `sparse` layer does ≈ 90 %
//! of the op and `cluster` does none.
//!
//! Input: a streamed power-law Kronecker edge list, 2^15 nodes, ≈ 269 k
//! edges (290 k targeted) — large and skewed enough that both SpGEMM
//! accumulator paths run (`rows_dense` ≈ 19.4 k, `rows_sparse` ≈ 13.3 k).
//! Op: load the file, Degree-discounted at 0.05 (sparse output, ≈ 54 k
//! edges), Bibliometric at 3.0 (dense output, ≈ 4.4 M edges): the same
//! fused SYRK kernel used two ways, with the loader paid per op as a CLI
//! user pays it.

use std::path::PathBuf;
use std::time::Instant;

use symclust::datasets::stream::{stream_kronecker_to_file, StreamKroneckerConfig};
use symclust::graph::io::read_edge_list_file;
use symclust::prelude::*;
use symclust_engine::fingerprint::matrix_fingerprint;

use crate::harness::{run_batch, Batch, Config, Outcome};
use crate::host::Scratch;
use crate::replay;
use crate::trace::{median_ms, Span, SpanId, Tracer};

const DD_THRESHOLD: f64 = 0.05;
const BIB_THRESHOLD: f64 = 3.0;
/// Rows of the Degree-discounted output held to the independent oracle.
const ORACLE_ROWS: usize = 32;

struct SymKron {
    config: StreamKroneckerConfig,
    path: PathBuf,
    gen_ms: f64,
    edges: u64,
    /// Fingerprints of the first checked op's two outputs.
    reference: Option<(u64, u64)>,
    /// Undirected edges of the last checked op's two outputs.
    output_edges: (usize, usize),
}

impl Batch for SymKron {
    type Output = (SymmetrizedGraph, SymmetrizedGraph);

    fn prepare(&mut self, _out: &mut Outcome) -> Result<(), String> {
        let start = Instant::now();
        self.edges = stream_kronecker_to_file(&self.config, &self.path)
            .map_err(|e| format!("write {}: {e}", self.path.display()))?;
        self.gen_ms = start.elapsed().as_secs_f64() * 1e3;
        Ok(())
    }

    fn op(&mut self, t: &mut Tracer, parent: SpanId, op: u32) -> Result<Self::Output, String> {
        let s = t.begin("graph.load", parent, op);
        let g = read_edge_list_file(&self.path).map_err(|e| format!("load: {e}"))?;
        t.end(s);
        let s = t.begin("core.dd", parent, op);
        let dd = DegreeDiscounted::with_threshold(DD_THRESHOLD)
            .symmetrize(&g)
            .map_err(|e| format!("degree-discounted: {e}"))?;
        t.end(s);
        let s = t.begin("core.bib", parent, op);
        let bib = Bibliometric::with_threshold(BIB_THRESHOLD)
            .symmetrize(&g)
            .map_err(|e| format!("bibliometric: {e}"))?;
        t.end(s);
        Ok((dd, bib))
    }

    fn check(&mut self, (dd, bib): Self::Output) -> Result<(), String> {
        self.output_edges = (dd.n_edges(), bib.n_edges());
        let got = (
            matrix_fingerprint(dd.adjacency()),
            matrix_fingerprint(bib.adjacency()),
        );
        match self.reference {
            Some(want) if want == got => Ok(()),
            Some(want) => Err(format!(
                "output fingerprints {got:x?}, first op had {want:x?}"
            )),
            None => {
                for (name, sym) in [("degree-discounted", &dd), ("bibliometric", &bib)] {
                    sym.adjacency()
                        .validate_symmetric()
                        .map_err(|e| format!("{name} output: {e}"))?;
                }
                let g = read_edge_list_file(&self.path).map_err(|e| format!("load: {e}"))?;
                replay::oracle_rows(
                    &g,
                    &dd,
                    DD_THRESHOLD,
                    self.config.seed ^ 0x0AC1E,
                    ORACLE_ROWS,
                )?;
                self.reference = Some(got);
                Ok(())
            }
        }
    }

    fn tear_down(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }

    fn layers(&mut self, spans: &[Span], out: &mut Outcome) -> Result<(), String> {
        let g = read_edge_list_file(&self.path).map_err(|e| format!("load: {e}"))?;
        let bytes = std::fs::metadata(&self.path).map_or(0, |m| m.len()) as f64;
        let layers = &mut out.layers;
        layers.set("datasets.gen_ms", self.gen_ms);
        layers.set("datasets.nodes", g.n_nodes() as f64);
        layers.set("datasets.edges", self.edges as f64);
        let load_ms = median_ms(spans, "graph.load");
        layers.set("graph.load_ms", load_ms);
        layers.set("graph.load_bytes", bytes);
        layers.set("graph.load_mb_per_s", bytes / 1e6 / (load_ms / 1e3));
        layers.set("core.dd_ms", median_ms(spans, "core.dd"));
        layers.set("core.bib_ms", median_ms(spans, "core.bib"));
        layers.set("core.dd_edges", self.output_edges.0 as f64);
        layers.set("core.bib_edges", self.output_edges.1 as f64);
        replay::sym_kron(&g, DD_THRESHOLD, layers)
    }
}

pub fn run(cfg: &Config, scratch: &Scratch, out: &mut Outcome) -> Result<(), String> {
    let (levels, n_edges) = if cfg.smoke {
        (11, 16_000)
    } else {
        (15, 290_000)
    };
    let mut workload = SymKron {
        config: StreamKroneckerConfig {
            levels,
            n_edges,
            seed: cfg.seed,
            ..StreamKroneckerConfig::default()
        },
        path: scratch.dir.join("kron.txt"),
        gen_ms: 0.0,
        edges: 0,
        reference: None,
        output_edges: (0, 0),
    };
    out.note(
        "input",
        format!("stream_kronecker levels {levels}, {n_edges} target edges"),
    );
    // One warm-up op (≈ 2.1 s) carries the set-up past 2 s; a round then
    // times 3 ops.
    run_batch(&mut workload, cfg, 1, cfg.ops_per_round(3, 1), out)
}
