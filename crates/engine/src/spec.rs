//! The single factory for symmetrization methods and clusterers used by
//! every harness (engine, bench, CLI).
//!
//! Before the engine existed, the bench runner and the CLI each built
//! `Symmetrizer`/`ClusterAlgorithm` instances from their own match
//! statements. This module is now the one place that maps a declarative
//! [`SymMethod`]/[`Clusterer`] value to a configured algorithm; each
//! enum's one `build` and its cache-key encoding live next to each other
//! so they cannot drift apart.

use symclust_cluster::{ClusterAlgorithm, GraclusLike, MetisLike, MlrMcl};
use symclust_core::{
    Bibliometric, BibliometricOptions, DegreeDiscounted, DegreeDiscountedOptions, DiscountExponent,
    PlusTranspose, RandomWalk, Symmetrizer,
};
use symclust_graph::DiGraph;
use symclust_sparse::Tuning;

/// The four symmetrization methods compared throughout the paper, with the
/// thresholds that make the similarity methods tractable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SymMethod {
    /// `U = A + Aᵀ` (§3.1).
    PlusTranspose,
    /// `U = (ΠP + PᵀΠ)/2` (§3.2).
    RandomWalk,
    /// `U = AAᵀ + AᵀA`, pruned at `threshold` (§3.3).
    Bibliometric {
        /// Prune threshold (Table 2 column).
        threshold: f64,
    },
    /// Eq. 8 with discount exponents and threshold (§3.4).
    DegreeDiscounted {
        /// Out-degree exponent α.
        alpha: f64,
        /// In-degree exponent β.
        beta: f64,
        /// Prune threshold.
        threshold: f64,
    },
}

impl SymMethod {
    /// The paper's four-method lineup with the given similarity thresholds.
    pub fn lineup(bib_threshold: f64, dd_threshold: f64) -> Vec<SymMethod> {
        vec![
            SymMethod::DegreeDiscounted {
                alpha: 0.5,
                beta: 0.5,
                threshold: dd_threshold,
            },
            SymMethod::Bibliometric {
                threshold: bib_threshold,
            },
            SymMethod::PlusTranspose,
            SymMethod::RandomWalk,
        ]
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> String {
        match self {
            SymMethod::PlusTranspose => "A+A'".into(),
            SymMethod::RandomWalk => "Random Walk".into(),
            SymMethod::Bibliometric { .. } => "Bibliometric".into(),
            SymMethod::DegreeDiscounted { .. } => "Degree-discounted".into(),
        }
    }

    /// Builds the configured symmetrizer under an optional SpGEMM output
    /// budget (in stored entries) and the given kernel [`Tuning`]. The
    /// budget only affects the similarity methods
    /// ([`uses_budget`](Self::uses_budget)): when their estimated product
    /// size exceeds it they degrade to an adaptively-thresholded product
    /// instead of aborting, which is why it is part of
    /// [`cache_params_with_budget`](Self::cache_params_with_budget). The
    /// tuning never changes the output and is an argument here, not a
    /// field of `SymMethod`, so nothing that derives a key can see it.
    pub fn build(
        &self,
        nnz_budget: Option<usize>,
        tuning: &Tuning,
    ) -> Box<dyn Symmetrizer + Send + Sync> {
        match *self {
            SymMethod::PlusTranspose => Box::new(PlusTranspose),
            SymMethod::RandomWalk => Box::new(RandomWalk::default()),
            SymMethod::Bibliometric { threshold } => Box::new(Bibliometric {
                options: BibliometricOptions {
                    threshold,
                    nnz_budget,
                    tuning: tuning.clone(),
                    ..Default::default()
                },
            }),
            SymMethod::DegreeDiscounted {
                alpha,
                beta,
                threshold,
            } => Box::new(DegreeDiscounted {
                options: DegreeDiscountedOptions {
                    alpha: DiscountExponent::Power(alpha),
                    beta: DiscountExponent::Power(beta),
                    threshold,
                    nnz_budget,
                    tuning: tuning.clone(),
                    ..Default::default()
                },
            }),
        }
    }

    /// Whether an SpGEMM memory budget changes this method's output (only
    /// the similarity methods run a matrix product).
    pub(crate) fn uses_budget(&self) -> bool {
        matches!(
            self,
            SymMethod::Bibliometric { .. } | SymMethod::DegreeDiscounted { .. }
        )
    }

    /// Stable (stage name, parameter vector) encoding for content-addressed
    /// cache keys. Everything that affects the output must appear here.
    pub fn cache_params(&self) -> (&'static str, Vec<f64>) {
        match *self {
            SymMethod::PlusTranspose => ("symmetrize/aat", vec![]),
            SymMethod::RandomWalk => ("symmetrize/rw", vec![]),
            SymMethod::Bibliometric { threshold } => ("symmetrize/bib", vec![threshold]),
            SymMethod::DegreeDiscounted {
                alpha,
                beta,
                threshold,
            } => ("symmetrize/dd", vec![alpha, beta, threshold]),
        }
    }

    /// [`cache_params`](Self::cache_params) including an effective SpGEMM
    /// budget when one applies. A budgeted product can differ from the
    /// exact one (it may degrade), so the budget must be part of the
    /// artifact address — otherwise a degraded artifact computed under a
    /// tight budget would be served to a consumer expecting the exact one.
    pub fn cache_params_with_budget(&self, nnz_budget: Option<usize>) -> (&'static str, Vec<f64>) {
        let (name, mut params) = self.cache_params();
        if let Some(b) = nnz_budget {
            if self.uses_budget() {
                params.push(b as f64);
            }
        }
        (name, params)
    }
}

/// Selects prune thresholds for Bibliometric and Degree-discounted on a
/// graph so both symmetrized graphs land near `target_avg_degree`
/// (the paper's §5.3.1 recipe; Table 2 chooses thresholds per dataset).
/// Returns `(bib_threshold, dd_threshold)`.
pub fn select_thresholds(g: &DiGraph, target_avg_degree: f64) -> symclust_core::Result<(f64, f64)> {
    let sample = 120.min(g.n_nodes());
    let dd = symclust_core::select_threshold(
        g,
        &DegreeDiscountedOptions::default(),
        target_avg_degree,
        sample,
        0xBEEF,
    )?
    .threshold;
    let bib_opts = BibliometricOptions::default().as_degree_discounted();
    let bib =
        symclust_core::select_threshold(g, &bib_opts, target_avg_degree, sample, 0xBEEF)?.threshold;
    Ok((bib, dd))
}

/// The stage-2 clusterers used in the sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Clusterer {
    /// MLR-MCL at a given inflation (cluster count is implicit).
    MlrMcl {
        /// Inflation parameter.
        inflation: f64,
    },
    /// Metis-like at a given k.
    Metis {
        /// Number of parts.
        k: usize,
    },
    /// Graclus-like at a given k.
    Graclus {
        /// Number of clusters.
        k: usize,
    },
}

impl Clusterer {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Clusterer::MlrMcl { .. } => "MLR-MCL",
            Clusterer::Metis { .. } => "Metis",
            Clusterer::Graclus { .. } => "Graclus",
        }
    }

    /// Display name including the granularity parameter, for event labels.
    pub fn label(&self) -> String {
        match self {
            Clusterer::MlrMcl { inflation } => format!("MLR-MCL(i={inflation})"),
            Clusterer::Metis { k } => format!("Metis(k={k})"),
            Clusterer::Graclus { k } => format!("Graclus(k={k})"),
        }
    }

    /// Builds the configured clustering algorithm.
    pub fn build(&self) -> Box<dyn ClusterAlgorithm + Send + Sync> {
        match *self {
            Clusterer::MlrMcl { inflation } => Box::new(MlrMcl::with_inflation(inflation)),
            Clusterer::Metis { k } => Box::new(MetisLike::with_k(k)),
            Clusterer::Graclus { k } => Box::new(GraclusLike::with_k(k)),
        }
    }

    /// Stable (stage name, parameter vector) encoding, mirroring
    /// [`SymMethod::cache_params`]. Used to compose the per-chain journal
    /// keys for crash-safe resume.
    pub fn cache_params(&self) -> (&'static str, Vec<f64>) {
        match *self {
            Clusterer::MlrMcl { inflation } => ("cluster/mlrmcl", vec![inflation]),
            Clusterer::Metis { k } => ("cluster/metis", vec![k as f64]),
            Clusterer::Graclus { k } => ("cluster/graclus", vec![k as f64]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symclust_graph::generators::{figure1_graph, shared_link_dsbm, SharedLinkDsbmConfig};

    #[test]
    fn lineup_has_four_methods() {
        let lineup = SymMethod::lineup(5.0, 0.01);
        assert_eq!(lineup.len(), 4);
        let names: Vec<String> = lineup.iter().map(|m| m.name()).collect();
        assert!(names.contains(&"Degree-discounted".to_string()));
        assert!(names.contains(&"A+A'".to_string()));
    }

    #[test]
    fn select_thresholds_picks_positive_cutoffs() {
        let g = shared_link_dsbm(&SharedLinkDsbmConfig {
            n_nodes: 200,
            n_clusters: 5,
            seed: 7,
            ..Default::default()
        })
        .unwrap();
        let (bib, dd) = select_thresholds(&g.graph, 30.0).unwrap();
        assert!(bib > 0.0 && dd > 0.0, "bib {bib}, dd {dd}");
    }

    #[test]
    fn built_symmetrizer_matches_direct_construction() {
        let g = figure1_graph();
        let via_factory = SymMethod::DegreeDiscounted {
            alpha: 0.5,
            beta: 0.5,
            threshold: 0.0,
        }
        .build(None, &Tuning::default())
        .symmetrize(&g)
        .unwrap();
        let direct = DegreeDiscounted::default().symmetrize(&g).unwrap();
        assert_eq!(via_factory.adjacency(), direct.adjacency());
    }

    #[test]
    fn cache_params_distinguish_methods_and_parameters() {
        let a = SymMethod::Bibliometric { threshold: 1.0 }.cache_params();
        let b = SymMethod::Bibliometric { threshold: 2.0 }.cache_params();
        assert_eq!(a.0, b.0);
        assert_ne!(a.1, b.1);
        let dd = SymMethod::DegreeDiscounted {
            alpha: 0.5,
            beta: 0.5,
            threshold: 0.0,
        }
        .cache_params();
        assert_ne!(a.0, dd.0);
        assert_eq!(dd.1, vec![0.5, 0.5, 0.0]);
    }

    #[test]
    fn budget_extends_cache_params_only_for_similarity_methods() {
        let bib = SymMethod::Bibliometric { threshold: 1.0 };
        let plain = bib.cache_params_with_budget(None);
        let tight = bib.cache_params_with_budget(Some(1000));
        assert_eq!(plain, bib.cache_params());
        assert_ne!(plain.1, tight.1, "budget must change the artifact address");
        // A+A' ignores the budget entirely: no SpGEMM, same key either way.
        let aat = SymMethod::PlusTranspose;
        assert!(!aat.uses_budget());
        assert_eq!(aat.cache_params_with_budget(Some(1000)), aat.cache_params());
    }

    #[test]
    fn clusterer_cache_params_distinguish_algorithms_and_k() {
        let a = Clusterer::Metis { k: 3 }.cache_params();
        let b = Clusterer::Metis { k: 4 }.cache_params();
        let c = Clusterer::Graclus { k: 3 }.cache_params();
        assert_eq!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_ne!(a.0, c.0);
        assert_eq!(
            Clusterer::MlrMcl { inflation: 2.0 }.cache_params(),
            ("cluster/mlrmcl", vec![2.0])
        );
    }

    #[test]
    fn clusterer_names_and_labels() {
        assert_eq!(Clusterer::MlrMcl { inflation: 2.0 }.name(), "MLR-MCL");
        assert_eq!(Clusterer::Metis { k: 3 }.label(), "Metis(k=3)");
        assert_eq!(Clusterer::Graclus { k: 3 }.name(), "Graclus");
    }

    #[test]
    fn cancelled_token_propagates_through_factory() {
        let g = figure1_graph();
        let token = symclust_sparse::CancelToken::new();
        token.cancel();
        let aat = SymMethod::PlusTranspose.build(None, &Tuning::default());
        let err = aat.symmetrize_observed(&g, &token, None).unwrap_err();
        assert!(err.is_cancelled());
        let sym = aat.symmetrize(&g).unwrap();
        let err = Clusterer::MlrMcl { inflation: 2.0 }
            .build()
            .cluster_observed(sym.graph(), &token, None)
            .unwrap_err();
        assert!(err.is_cancelled());
    }
}
