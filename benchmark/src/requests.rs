//! The request sequences of `serve-mix`: seeded, generated in full
//! before the clock starts, with *exact* class counts (the shares are
//! not sampled), so every run of a seed sends the same bytes.

use symclust::datasets::stream::{stream_dsbm, StreamDsbmConfig};
use symclust::graph::io::read_edge_list;
use symclust_engine::fingerprint::graph_fingerprint;

use crate::inputs::Rng;
use crate::json::escape;

/// Request classes of the mix, by what the daemon has to do for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `query-membership` of a uniform node: an L1 lookup.
    Query,
    /// `symmetrize` of the main graph: a store hit that re-hashes and
    /// re-counts the whole matrix for its response.
    HitSym,
    /// `cluster` of the main graph: a store hit.
    HitCluster,
    /// `upload-graph` of a fresh small graph: parse + publish.
    Upload,
    /// `cluster` of the graph just uploaded: a miss that runs both
    /// kernels and publishes both artifacts.
    Miss,
}

impl Class {
    /// The span a request of this class is recorded as.
    pub fn span_name(self) -> &'static str {
        match self {
            Class::Query => "cli.query",
            Class::HitSym => "cli.hit_sym",
            Class::HitCluster => "cli.hit_cluster",
            Class::Upload => "cli.upload",
            Class::Miss => "cli.miss",
        }
    }
}

/// Exact class counts of one connection's sequence: 4 % `symmetrize`
/// hits, 4 % `cluster` hits, 1 % uploads each immediately followed by
/// its 1 % miss, and `query-membership` for the rest (90 %).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    pub total: usize,
    pub sym_hits: usize,
    pub cluster_hits: usize,
    pub pairs: usize,
}

impl Mix {
    pub fn of(total: usize) -> Mix {
        Mix {
            total,
            sym_hits: total * 4 / 100,
            cluster_hits: total * 4 / 100,
            pairs: total / 100,
        }
    }

    pub fn queries(&self) -> usize {
        self.total - self.sym_hits - self.cluster_hits - 2 * self.pairs
    }
}

/// What the request strings need to know about the daemon's state:
/// the main graph and its clustering, as hex keys from the cold
/// responses, and the sizes in play.
#[derive(Debug, Clone)]
pub struct Target {
    pub graph_key: String,
    pub cluster_key: String,
    pub nodes: usize,
    pub clusters: usize,
    /// Nodes and clusters of each freshly uploaded graph.
    pub fresh_nodes: usize,
    pub fresh_clusters: usize,
}

/// Degree-discounted threshold of every `symmetrize`/`cluster` request.
pub const DD_THRESHOLD: f64 = 0.01;

pub fn symmetrize_request(graph_key: &str) -> String {
    format!(
        "{{\"op\":\"symmetrize\",\"graph\":\"{graph_key}\",\"method\":\"dd\",\"threshold\":{DD_THRESHOLD}}}"
    )
}

pub fn cluster_request(graph_key: &str, k: usize) -> String {
    format!(
        "{{\"op\":\"cluster\",\"graph\":\"{graph_key}\",\"method\":\"dd\",\"threshold\":{DD_THRESHOLD},\"algo\":\"metis\",\"k\":{k}}}"
    )
}

pub fn upload_request(edges: &str) -> String {
    format!(
        "{{\"op\":\"upload-graph\",\"edges\":\"{}\"}}",
        escape(edges)
    )
}

/// Edge-list text of a streamed planted-partition graph.
pub fn dsbm_text(nodes: usize, clusters: usize, seed: u64) -> String {
    let config = StreamDsbmConfig {
        n_nodes: nodes,
        n_clusters: clusters,
        intra_degree: 8,
        inter_degree: 2,
        seed,
    };
    let mut text = Vec::new();
    stream_dsbm(&config, &mut text).expect("writing to a Vec cannot fail");
    String::from_utf8(text).expect("edge lists are ASCII")
}

/// The `(class, request line)` sequence one connection sends: exactly
/// `mix.total` requests, classes in a seeded order with every upload
/// directly before its miss. `stream` separates the sequences drawn from
/// one seed (connection 0 / 1, warm-up / timed), so no two of them upload
/// the same graph — a repeated upload would turn a miss into a hit.
pub fn sequence(seed: u64, stream: u64, mix: Mix, target: &Target) -> Vec<(Class, String)> {
    let mut rng = Rng::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
    let mut units = vec![Class::Query; mix.queries()];
    units.resize(units.len() + mix.sym_hits, Class::HitSym);
    units.resize(units.len() + mix.cluster_hits, Class::HitCluster);
    units.resize(units.len() + mix.pairs, Class::Upload);
    rng.shuffle(&mut units);

    let mut out = Vec::with_capacity(mix.total);
    for class in units {
        match class {
            Class::Query => {
                let node = rng.below(target.nodes);
                out.push((
                    class,
                    format!(
                        "{{\"op\":\"query-membership\",\"key\":\"{}\",\"node\":{node}}}",
                        target.cluster_key
                    ),
                ));
            }
            Class::HitSym => out.push((class, symmetrize_request(&target.graph_key))),
            Class::HitCluster => {
                out.push((class, cluster_request(&target.graph_key, target.clusters)));
            }
            Class::Upload | Class::Miss => {
                let edges = dsbm_text(target.fresh_nodes, target.fresh_clusters, rng.next_u64());
                let graph = read_edge_list(edges.as_bytes()).expect("generated edge list parses");
                let key = format!("{:016x}", graph_fingerprint(&graph));
                out.push((Class::Upload, upload_request(&edges)));
                out.push((Class::Miss, cluster_request(&key, target.fresh_clusters)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target() -> Target {
        Target {
            graph_key: "00000000000000aa".into(),
            cluster_key: "00000000000000bb".into(),
            nodes: 4000,
            clusters: 40,
            fresh_nodes: 60,
            fresh_clusters: 3,
        }
    }

    fn count(seq: &[(Class, String)], class: Class) -> usize {
        seq.iter().filter(|(c, _)| *c == class).count()
    }

    #[test]
    fn sequence_has_exact_length_and_class_shares() {
        // 30 000 per connection is the issue's full-length sequence.
        let mix = Mix::of(30_000);
        let seq = sequence(20110325, 0, mix, &target());
        assert_eq!(seq.len(), 30_000);
        assert_eq!(count(&seq, Class::Query), 27_000);
        assert_eq!(count(&seq, Class::HitSym), 1_200);
        assert_eq!(count(&seq, Class::HitCluster), 1_200);
        assert_eq!(count(&seq, Class::Upload), 300);
        assert_eq!(count(&seq, Class::Miss), 300);
        // The size a round actually sends.
        let seq = sequence(20110325, 0, Mix::of(5_000), &target());
        assert_eq!(seq.len(), 5_000);
        assert_eq!(count(&seq, Class::Query), 4_500);
    }

    #[test]
    fn every_upload_is_followed_by_its_miss() {
        let seq = sequence(7, 1, Mix::of(1_000), &target());
        for (i, (class, line)) in seq.iter().enumerate() {
            if *class == Class::Upload {
                let (next, miss) = &seq[i + 1];
                assert_eq!(*next, Class::Miss);
                // The miss names the graph the upload carries.
                let edges = crate::json::parse(line).unwrap();
                let edges = edges.get("edges").unwrap().as_str().unwrap().to_string();
                let g = read_edge_list(edges.as_bytes()).unwrap();
                assert!(miss.contains(&format!("{:016x}", graph_fingerprint(&g))));
            }
        }
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let mix = Mix::of(2_000);
        let a = sequence(11, 0, mix, &target());
        assert_eq!(a, sequence(11, 0, mix, &target()));
        assert_ne!(a, sequence(12, 0, mix, &target()));
        // The two connections, and warm-up vs timed, never share a stream.
        assert_ne!(a, sequence(11, 1, mix, &target()));
    }

    #[test]
    fn no_two_streams_upload_the_same_graph() {
        let mix = Mix::of(1_000);
        let mut uploads: Vec<String> = (0..4)
            .flat_map(|stream| sequence(5, stream, mix, &target()))
            .filter(|(c, _)| *c == Class::Upload)
            .map(|(_, line)| line)
            .collect();
        let n = uploads.len();
        uploads.sort();
        uploads.dedup();
        assert_eq!((n, uploads.len()), (40, 40));
    }

    #[test]
    fn every_generated_request_parses_as_the_protocol() {
        let seq = sequence(3, 0, Mix::of(500), &target());
        assert!(crate::replay::parse_request_us(seq.iter().map(|(_, l)| l.as_str())).is_ok());
    }
}
