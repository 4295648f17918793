#![warn(missing_docs)]

//! # symclust-datasets — synthetic stand-ins for the paper's datasets
//!
//! The paper evaluates on Wikipedia (Jan-2008 dump), Cora, Flickr and
//! LiveJournal (Table 1). None of those corpora can ship with this
//! repository, and the paper itself notes the lack of synthetic directed
//! generators with ground-truth clusters as an open problem — so this crate
//! *is* that generator, instantiated per dataset: each stand-in is a
//! shared-link DSBM (see `symclust_graph::generators::dsbm`) whose knobs are
//! tuned to the published characteristics of the original:
//!
//! | stand-in | reciprocity | categories | unlabeled | overlap | hubs |
//! |----------|------------:|-----------:|----------:|--------:|-----:|
//! | [`cora_like`] | 7.7% | 70 | 20% | none | mild |
//! | [`wikipedia_like`] | 42.1% | scaled | 35% | 25% | heavy |
//! | [`flickr_like`] | 62.4% | (timing only) | — | — | heavy |
//! | [`livejournal_like`] | 73.4% | (timing only) | — | — | heavy |
//!
//! Node counts are scaled down from millions to laptop scale (the paper's
//! phenomena — hub-induced density in the Bibliometric matrix, prunability
//! of Degree-discounted, shared-link cluster recovery — are driven by the
//! *shape* of the degree distribution and cluster structure, not the raw
//! size). Every constructor takes a node-count override for scalability
//! sweeps.

pub mod stream;

use symclust_graph::generators::{shared_link_dsbm, SharedLinkDsbmConfig};
use symclust_graph::{DiGraph, GroundTruth};

/// A named dataset: directed graph plus optional ground truth.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name (for experiment tables).
    pub name: String,
    /// The directed graph.
    pub graph: DiGraph,
    /// Ground-truth categories; `None` for the timing-only datasets, as in
    /// the paper ("we use these datasets only for scalability evaluation").
    pub truth: Option<GroundTruth>,
    /// The full planted assignment (available in the synthetic setting even
    /// when `truth` is withheld; used only by tests).
    pub planted: Vec<u32>,
}

impl Dataset {
    fn from_config(name: &str, cfg: &SharedLinkDsbmConfig, keep_truth: bool) -> Dataset {
        let generated = shared_link_dsbm(cfg).expect("generator config is valid");
        Dataset {
            name: name.to_string(),
            graph: generated.graph,
            truth: keep_truth.then_some(generated.truth),
            planted: generated.planted,
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.graph.n_nodes()
    }

    /// Number of directed edges.
    pub fn n_edges(&self) -> usize {
        self.graph.n_edges()
    }
}

fn recip(percent: f64) -> f64 {
    SharedLinkDsbmConfig::reciprocal_prob_for_percent_symmetric(percent)
}

/// Configuration of the Cora stand-in at a given node count.
///
/// Cora: 17,604 papers, 77,171 citations, 7.7% symmetric links, 70 leaf
/// categories, 20% unlabeled. Citation graphs have mild hubs (seminal
/// papers), moderate intra-cluster citation, and strong shared-reference
/// structure (papers in a field cite the same prior work).
fn cora_like_config(n_nodes: usize) -> SharedLinkDsbmConfig {
    SharedLinkDsbmConfig {
        n_nodes,
        n_clusters: 70,
        signature_out: 8,
        signature_in: 5,
        p_signature: 0.55,
        p_intra: 0.9_f64.min(30.0 / (n_nodes as f64 / 70.0).powi(2)),
        noise_out_mean: 2,
        noise_exponent: 2.5,
        n_hubs: 6,
        p_to_hub: 0.08,
        hub_out_degree: 30,
        p_reciprocal: recip(7.7),
        overlap_fraction: 0.0,
        unlabeled_fraction: 0.20,
        seed: 0xC08A,
    }
}

/// The Cora stand-in at its default scale (2,100 nodes ≈ 1/8 of Cora,
/// keeping the paper's 70 leaf categories and ~4.4 edges/node).
pub fn cora_like() -> Dataset {
    Dataset::from_config("cora_like", &cora_like_config(2100), true)
}

/// The Cora stand-in at a custom node count.
pub fn cora_like_scaled(n_nodes: usize) -> Dataset {
    Dataset::from_config("cora_like", &cora_like_config(n_nodes), true)
}

/// Configuration of the Wikipedia stand-in at a given node count.
///
/// Wikipedia: 1.13M articles, 67M hyperlinks, 42.1% symmetric, 17,950
/// overlapping categories, 35% unlabeled, pronounced hub structure
/// ("Area", "Population density", ... with in-degrees in the tens of
/// thousands). The category count scales with n (the paper has ~63 pages
/// per category; we keep ~60).
pub fn wikipedia_like_config(n_nodes: usize) -> SharedLinkDsbmConfig {
    let n_clusters = (n_nodes / 60).max(10);
    SharedLinkDsbmConfig {
        n_nodes,
        n_clusters,
        signature_out: 10,
        signature_in: 6,
        p_signature: 0.6,
        p_intra: 0.4_f64.min(8.0 / (n_nodes as f64 / n_clusters as f64)),
        noise_out_mean: 6,
        noise_exponent: 2.1,
        n_hubs: (n_nodes / 400).max(4),
        p_to_hub: 0.35,
        hub_out_degree: (n_nodes / 40).max(25),
        p_reciprocal: recip(42.1),
        overlap_fraction: 0.25,
        unlabeled_fraction: 0.35,
        seed: 0x2171,
    }
}

/// The Wikipedia stand-in at its default scale (9,000 nodes, 150
/// categories).
pub fn wikipedia_like() -> Dataset {
    Dataset::from_config("wikipedia_like", &wikipedia_like_config(9000), true)
}

/// The Wikipedia stand-in at a custom node count.
pub fn wikipedia_like_scaled(n_nodes: usize) -> Dataset {
    Dataset::from_config("wikipedia_like", &wikipedia_like_config(n_nodes), true)
}

/// Configuration of the Flickr stand-in (timing only, 62.4% reciprocity,
/// relatively sparse: 12 edges/node in the original).
fn flickr_like_config(n_nodes: usize) -> SharedLinkDsbmConfig {
    let n_clusters = (n_nodes / 80).max(10);
    SharedLinkDsbmConfig {
        n_nodes,
        n_clusters,
        signature_out: 6,
        signature_in: 6,
        p_signature: 0.5,
        p_intra: 0.3_f64.min(6.0 / (n_nodes as f64 / n_clusters as f64)),
        noise_out_mean: 4,
        noise_exponent: 2.1,
        n_hubs: (n_nodes / 500).max(4),
        p_to_hub: 0.25,
        hub_out_degree: (n_nodes / 50).max(20),
        p_reciprocal: recip(62.4),
        overlap_fraction: 0.0,
        unlabeled_fraction: 0.0,
        seed: 0xF11C8,
    }
}

/// The Flickr stand-in at its default scale (15,000 nodes), ground truth
/// withheld as in the paper.
pub fn flickr_like() -> Dataset {
    Dataset::from_config("flickr_like", &flickr_like_config(15_000), false)
}

/// The Flickr stand-in at a custom node count.
pub fn flickr_like_scaled(n_nodes: usize) -> Dataset {
    Dataset::from_config("flickr_like", &flickr_like_config(n_nodes), false)
}

/// Configuration of the LiveJournal stand-in (timing only, 73.4%
/// reciprocity, ~15 edges/node in the original).
fn livejournal_like_config(n_nodes: usize) -> SharedLinkDsbmConfig {
    let n_clusters = (n_nodes / 100).max(10);
    SharedLinkDsbmConfig {
        n_nodes,
        n_clusters,
        signature_out: 6,
        signature_in: 6,
        p_signature: 0.5,
        p_intra: 0.3_f64.min(10.0 / (n_nodes as f64 / n_clusters as f64)),
        noise_out_mean: 5,
        noise_exponent: 2.2,
        n_hubs: (n_nodes / 600).max(4),
        p_to_hub: 0.2,
        hub_out_degree: (n_nodes / 60).max(20),
        p_reciprocal: recip(73.4),
        overlap_fraction: 0.0,
        unlabeled_fraction: 0.0,
        seed: 0x11FE,
    }
}

/// The LiveJournal stand-in at its default scale (20,000 nodes), ground
/// truth withheld as in the paper.
pub fn livejournal_like() -> Dataset {
    Dataset::from_config("livejournal_like", &livejournal_like_config(20_000), false)
}

/// The LiveJournal stand-in at a custom node count.
pub fn livejournal_like_scaled(n_nodes: usize) -> Dataset {
    Dataset::from_config("livejournal_like", &livejournal_like_config(n_nodes), false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use symclust_graph::stats::percent_symmetric_links;

    #[test]
    fn cora_like_matches_published_shape() {
        let d = cora_like();
        assert_eq!(d.n_nodes(), 2100);
        assert_eq!(d.truth.as_ref().unwrap().n_categories(), 70);
        let unl = d.truth.as_ref().unwrap().unlabeled_fraction();
        assert!((unl - 0.20).abs() < 0.05, "unlabeled {unl}");
        let ps = percent_symmetric_links(&d.graph);
        assert!((ps - 7.7).abs() < 5.0, "reciprocity {ps}%");
    }

    #[test]
    fn wikipedia_like_matches_published_shape() {
        let d = wikipedia_like_scaled(3000);
        let ps = percent_symmetric_links(&d.graph);
        assert!((ps - 42.1).abs() < 8.0, "reciprocity {ps}%");
        let truth = d.truth.as_ref().unwrap();
        assert_eq!(truth.n_categories(), 50);
        assert!((truth.unlabeled_fraction() - 0.35).abs() < 0.05);
        // Overlapping membership exists.
        let multi = truth
            .node_categories()
            .iter()
            .filter(|c| c.len() > 1)
            .count();
        assert!(multi > 0);
    }

    #[test]
    fn timing_datasets_withhold_truth() {
        let f = flickr_like_scaled(2000);
        assert!(f.truth.is_none());
        assert!(!f.planted.is_empty());
        let l = livejournal_like_scaled(2000);
        assert!(l.truth.is_none());
    }

    #[test]
    fn reciprocity_ordering_matches_table1() {
        // Cora < Wikipedia < Flickr < LiveJournal, as in Table 1.
        let sizes = 2500;
        let c = percent_symmetric_links(&cora_like_scaled(sizes).graph);
        let w = percent_symmetric_links(&wikipedia_like_scaled(sizes).graph);
        let f = percent_symmetric_links(&flickr_like_scaled(sizes).graph);
        let l = percent_symmetric_links(&livejournal_like_scaled(sizes).graph);
        assert!(c < w && w < f && f < l, "{c} {w} {f} {l}");
    }

    #[test]
    fn wikipedia_like_has_hubs() {
        let d = wikipedia_like_scaled(3000);
        let in_deg = d.graph.in_degrees();
        let max_in = *in_deg.iter().max().unwrap();
        let mean_in = in_deg.iter().sum::<usize>() as f64 / in_deg.len() as f64;
        assert!(
            max_in as f64 > 20.0 * mean_in,
            "max in-degree {max_in} vs mean {mean_in:.1}"
        );
    }

    #[test]
    fn scaling_changes_node_count_proportionally() {
        let small = cora_like_scaled(700);
        let large = cora_like_scaled(1400);
        assert_eq!(small.n_nodes(), 700);
        assert_eq!(large.n_nodes(), 1400);
        // Edge count grows at least linearly with nodes.
        assert!(large.n_edges() > small.n_edges());
    }

    #[test]
    fn wikipedia_category_count_tracks_size() {
        let a = wikipedia_like_scaled(1800);
        let b = wikipedia_like_scaled(3600);
        let ca = a.truth.as_ref().unwrap().n_categories();
        let cb = b.truth.as_ref().unwrap().n_categories();
        assert_eq!(ca, 30);
        assert_eq!(cb, 60);
    }

    #[test]
    fn dataset_names_are_stable() {
        assert_eq!(cora_like_scaled(500).name, "cora_like");
        assert_eq!(wikipedia_like_scaled(500).name, "wikipedia_like");
        assert_eq!(flickr_like_scaled(500).name, "flickr_like");
        assert_eq!(livejournal_like_scaled(500).name, "livejournal_like");
    }

    #[test]
    fn configs_are_exposed_and_consistent() {
        let cfg = cora_like_config(2100);
        assert_eq!(cfg.n_clusters, 70);
        assert!((cfg.unlabeled_fraction - 0.20).abs() < 1e-12);
        let cfg = wikipedia_like_config(9000);
        assert!((cfg.overlap_fraction - 0.25).abs() < 1e-12);
        assert!(cfg.n_hubs >= 4);
        let cfg = flickr_like_config(1000);
        assert!(cfg.p_reciprocal > 0.4); // 62.4% symmetric → q ≈ 0.454
        let cfg = livejournal_like_config(1000);
        assert!(cfg.p_reciprocal > 0.5); // 73.4% symmetric → q ≈ 0.580
    }

    #[test]
    fn mean_degree_in_realistic_band() {
        // Table 1 originals range from ~4 (Cora) to ~60 (Wikipedia) mean
        // total degree; the stand-ins should be in a comparable band.
        for d in [
            cora_like_scaled(1000),
            wikipedia_like_scaled(1000),
            flickr_like_scaled(1000),
            livejournal_like_scaled(1000),
        ] {
            let mean = 2.0 * d.n_edges() as f64 / d.n_nodes() as f64;
            assert!((3.0..=150.0).contains(&mean), "{}: {mean}", d.name);
        }
    }

    #[test]
    fn datasets_are_deterministic() {
        let a = cora_like_scaled(800);
        let b = cora_like_scaled(800);
        assert_eq!(a.graph.adjacency(), b.graph.adjacency());
    }
}
