//! Shared experiment-harness machinery.
//!
//! The method registry ([`SymMethod`], [`Clusterer`]), run records, and
//! sweep helpers now live in `symclust-engine` so the bench harness, the
//! CLI, and the pipeline executor share one definition. This module
//! re-exports them under the historical `symclust_bench::runner` paths
//! used by the experiment binaries.

pub use symclust_engine::{
    measure, print_records, save_records, select_thresholds, Clusterer, RunRecord, SymMethod,
};

#[cfg(test)]
mod tests {
    use super::*;
    use symclust_graph::generators::{shared_link_dsbm, SharedLinkDsbmConfig};

    // The full registry behaviour is tested in symclust-engine; this is a
    // smoke test that the re-exported surface still works end to end from
    // the bench crate.
    #[test]
    fn reexported_registry_round_trips() {
        let g = shared_link_dsbm(&SharedLinkDsbmConfig {
            n_nodes: 200,
            n_clusters: 5,
            seed: 7,
            ..Default::default()
        })
        .unwrap();
        let lineup = SymMethod::lineup(1.0, 0.001);
        assert_eq!(lineup.len(), 4);
        let method = SymMethod::PlusTranspose;
        let sym = method
            .build(None, &symclust_sparse::Tuning::default())
            .symmetrize(&g.graph)
            .unwrap();
        let rec = measure(
            "t",
            &method,
            &sym,
            Clusterer::Metis { k: 5 },
            Some(&g.truth),
        )
        .unwrap();
        assert_eq!(rec.n_clusters, 5);
        assert!(rec.f_score.unwrap() > 0.0);
        assert!(!rec.to_json().is_empty());
        let (bib, dd) = select_thresholds(&g.graph, 30.0).unwrap();
        assert!(bib > 0.0 && dd > 0.0);
    }
}
