//! Streaming graph generators for out-of-core experiments.
//!
//! The in-memory generators ([`shared_link_dsbm`], `kronecker`) materialize
//! the whole edge set before writing it out, which caps them at graphs that
//! fit in RAM — useless for exercising the out-of-core SpGEMM panel path,
//! whose whole point is inputs *larger* than the memory budget. The
//! generators here write edge-list files of (in principle) arbitrary size
//! while holding only **one source node's out-neighborhood** in memory at a
//! time: they iterate sources in ascending order and derive every sampling
//! decision from a counter-mode hash of `(seed, source, edge index, …)`, so
//! the output is a pure function of the configuration — no RNG state to
//! carry, no edge set to deduplicate globally.
//!
//! Output is compatible with the strict edge-list loader
//! (`symclust_graph::io::read_edge_list`): a `# symclust edge list` header,
//! one `u v` pair per line, no self-loops, no duplicate pairs (targets are
//! deduplicated per source; distinct sources cannot collide). The DSBM
//! generator also writes the planted assignment in the CLI's ground-truth
//! format so the full pipeline — symmetrize, cluster, F-score — runs
//! end-to-end on a streamed graph.
//!
//! [`shared_link_dsbm`]: symclust_graph::generators::shared_link_dsbm

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// SplitMix64: the per-decision hash behind both generators. Passing the
/// same inputs always yields the same 64-bit output, which is what makes
/// the streams deterministic without carried RNG state.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of an arbitrary-length key, for per-(seed, node, index, …)
/// decisions.
fn hash_key(parts: &[u64]) -> u64 {
    let mut h = 0x517C_C1B7_2722_0A95_u64;
    for &p in parts {
        h = mix(h ^ p);
    }
    h
}

/// Uniform f64 in `[0, 1)` from a hash value.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Configuration for [`stream_dsbm`]: a streaming planted-partition model.
///
/// Nodes are split into `n_clusters` contiguous, nearly balanced blocks.
/// Each node emits `intra_degree` edges to uniform members of its own
/// block and `inter_degree` edges to uniform nodes anywhere — so recovered
/// clusters should match the planted blocks, and the F-score of the full
/// pipeline on the streamed file is meaningful.
#[derive(Debug, Clone)]
pub struct StreamDsbmConfig {
    /// Total node count.
    pub n_nodes: usize,
    /// Number of planted clusters (contiguous node-id blocks).
    pub n_clusters: usize,
    /// Out-edges per node aimed at the node's own cluster.
    pub intra_degree: usize,
    /// Out-edges per node aimed uniformly at the whole graph.
    pub inter_degree: usize,
    /// Seed; identical configs produce byte-identical files.
    pub seed: u64,
}

impl Default for StreamDsbmConfig {
    fn default() -> Self {
        StreamDsbmConfig {
            n_nodes: 10_000,
            n_clusters: 20,
            intra_degree: 8,
            inter_degree: 2,
            seed: 42,
        }
    }
}

impl StreamDsbmConfig {
    /// Planted cluster of node `u` (blocks of near-equal size, remainder
    /// spread over the first blocks — same layout as the in-memory DSBM).
    pub fn cluster_of(&self, u: usize) -> u32 {
        let k = self.n_clusters;
        let base = self.n_nodes / k;
        let rem = self.n_nodes % k;
        // The first `rem` clusters have `base + 1` nodes.
        let big = rem * (base + 1);
        if u < big {
            (u / (base + 1)) as u32
        } else {
            (rem + (u - big) / base.max(1)) as u32
        }
    }

    /// Node-id range `[lo, hi)` of cluster `c`.
    fn cluster_range(&self, c: usize) -> (usize, usize) {
        let k = self.n_clusters;
        let base = self.n_nodes / k;
        let rem = self.n_nodes % k;
        let lo = c * base + c.min(rem);
        let hi = lo + base + usize::from(c < rem);
        (lo, hi)
    }
}

/// Streams the planted-partition edge list to `writer`, one source node at
/// a time. Returns the number of edges written. Memory use is bounded by
/// the largest per-node out-neighborhood, independent of `n_nodes`.
pub fn stream_dsbm<W: Write>(cfg: &StreamDsbmConfig, writer: W) -> io::Result<u64> {
    assert!(cfg.n_clusters >= 1, "need at least one cluster");
    assert!(
        cfg.n_nodes >= cfg.n_clusters,
        "need at least one node per cluster"
    );
    let mut w = BufWriter::new(writer);
    writeln!(w, "# symclust edge list: {} nodes", cfg.n_nodes)?;
    let mut written = 0u64;
    let mut targets: Vec<usize> = Vec::with_capacity(cfg.intra_degree + cfg.inter_degree);
    for u in 0..cfg.n_nodes {
        targets.clear();
        let (lo, hi) = cfg.cluster_range(cfg.cluster_of(u) as usize);
        let span = hi - lo;
        for i in 0..cfg.intra_degree {
            if span <= 1 {
                break; // singleton cluster: no intra target but u itself
            }
            let h = hash_key(&[cfg.seed, 1, u as u64, i as u64]);
            targets.push(lo + (h % span as u64) as usize);
        }
        for i in 0..cfg.inter_degree {
            let h = hash_key(&[cfg.seed, 2, u as u64, i as u64]);
            targets.push((h % cfg.n_nodes as u64) as usize);
        }
        targets.sort_unstable();
        targets.dedup();
        for &v in targets.iter().filter(|&&v| v != u) {
            writeln!(w, "{u} {v}")?;
            written += 1;
        }
    }
    w.flush()?;
    Ok(written)
}

/// Streams the planted ground truth (CLI format: `# symclust ground truth`
/// header, one `node cluster` pair per line) to `writer`.
fn stream_dsbm_truth<W: Write>(cfg: &StreamDsbmConfig, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# symclust ground truth: {} nodes, {} categories",
        cfg.n_nodes, cfg.n_clusters
    )?;
    for u in 0..cfg.n_nodes {
        writeln!(w, "{u} {}", cfg.cluster_of(u))?;
    }
    w.flush()
}

/// Writes the streamed DSBM edge list and ground truth to files.
pub fn stream_dsbm_to_files<P: AsRef<Path>, Q: AsRef<Path>>(
    cfg: &StreamDsbmConfig,
    edges_path: P,
    truth_path: Q,
) -> io::Result<u64> {
    let n = stream_dsbm(cfg, fs::File::create(edges_path)?)?;
    stream_dsbm_truth(cfg, fs::File::create(truth_path)?)?;
    Ok(n)
}

/// Configuration for [`stream_kronecker`]: a streaming R-MAT / stochastic
/// Kronecker generator.
///
/// The graph has `2^levels` nodes. Edge placement follows the classic
/// recursive quadrant model with initiator `[[a, b], [c, d]]`: at each of
/// the `levels` recursion steps the edge picks a quadrant with those
/// probabilities, the row choice fixing one source bit and the column
/// choice one target bit.
///
/// The streaming trick: instead of throwing `n_edges` darts (which needs a
/// global dedup set), iterate *sources* in ascending order. A source `u`
/// fixes every row bit, so its **expected** out-degree is
/// `n_edges × Π_l P(row bit l of u)` where `P(0) = a + b`, `P(1) = c + d`;
/// the generator rounds that expectation stochastically (hash-driven) and
/// draws each target by sampling the column bit per level *conditioned on
/// `u`'s row bit* (`b/(a+b)` or `d/(c+d)`). This reproduces the R-MAT
/// degree skew — low-id nodes are the heavy hubs for the usual
/// `a > b, c > d` initiators — with per-source memory only.
#[derive(Debug, Clone)]
pub struct StreamKroneckerConfig {
    /// Recursion depth; the graph has `2^levels` nodes.
    pub levels: u32,
    /// Quadrant weights `[[a, b], [c, d]]`; normalized internally.
    pub initiator: [[f64; 2]; 2],
    /// Target edge count (expected; the realized count varies slightly and
    /// shrinks by per-source dedup and self-loop removal).
    pub n_edges: u64,
    /// Seed; identical configs produce byte-identical files.
    pub seed: u64,
}

impl Default for StreamKroneckerConfig {
    fn default() -> Self {
        StreamKroneckerConfig {
            levels: 14,
            initiator: [[0.57, 0.19], [0.19, 0.05]],
            n_edges: 120_000,
            seed: 42,
        }
    }
}

impl StreamKroneckerConfig {
    /// Node count (`2^levels`).
    pub fn n_nodes(&self) -> usize {
        1usize << self.levels
    }
}

/// Streams the R-MAT edge list to `writer`, one source node at a time.
/// Returns the number of edges written. Memory use is bounded by the
/// largest per-node out-neighborhood.
pub fn stream_kronecker<W: Write>(cfg: &StreamKroneckerConfig, writer: W) -> io::Result<u64> {
    assert!(cfg.levels >= 1 && cfg.levels < 32, "levels must be 1..=31");
    let [[a, b], [c, d]] = cfg.initiator;
    let total = a + b + c + d;
    assert!(
        total > 0.0 && a >= 0.0 && b >= 0.0 && c >= 0.0 && d >= 0.0,
        "initiator weights must be non-negative with a positive sum"
    );
    let p_row0 = (a + b) / total; // P(source bit = 0) at each level
    let p_col1_row0 = if a + b > 0.0 { b / (a + b) } else { 0.5 };
    let p_col1_row1 = if c + d > 0.0 { d / (c + d) } else { 0.5 };

    let n = cfg.n_nodes();
    let mut w = BufWriter::new(writer);
    writeln!(w, "# symclust edge list: {n} nodes")?;
    let mut written = 0u64;
    let mut targets: Vec<usize> = Vec::new();
    for u in 0..n {
        // Expected out-degree: n_edges × Π over u's bits of that bit's row
        // probability (bit l counted from the most significant level).
        let mut p_u = 1.0f64;
        for l in 0..cfg.levels {
            let bit = (u >> (cfg.levels - 1 - l)) & 1;
            p_u *= if bit == 0 { p_row0 } else { 1.0 - p_row0 };
        }
        let expect = cfg.n_edges as f64 * p_u;
        let floor = expect.floor();
        let frac = expect - floor;
        let extra = u64::from(unit(hash_key(&[cfg.seed, 3, u as u64])) < frac);
        let d_u = floor as u64 + extra;

        targets.clear();
        targets.reserve(d_u as usize);
        for i in 0..d_u {
            let mut v = 0usize;
            for l in 0..cfg.levels {
                let row_bit = (u >> (cfg.levels - 1 - l)) & 1;
                let p1 = if row_bit == 0 {
                    p_col1_row0
                } else {
                    p_col1_row1
                };
                let h = hash_key(&[cfg.seed, 4, u as u64, i, l as u64]);
                if unit(h) < p1 {
                    v |= 1usize << (cfg.levels - 1 - l);
                }
            }
            targets.push(v);
        }
        targets.sort_unstable();
        targets.dedup();
        for &v in targets.iter().filter(|&&v| v != u) {
            writeln!(w, "{u} {v}")?;
            written += 1;
        }
    }
    w.flush()?;
    Ok(written)
}

/// Writes the streamed Kronecker edge list to a file.
pub fn stream_kronecker_to_file<P: AsRef<Path>>(
    cfg: &StreamKroneckerConfig,
    path: P,
) -> io::Result<u64> {
    stream_kronecker(cfg, fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use symclust_graph::io::read_edge_list;

    #[test]
    fn dsbm_stream_is_deterministic_and_loader_strict() {
        let cfg = StreamDsbmConfig {
            n_nodes: 500,
            n_clusters: 10,
            ..Default::default()
        };
        let mut a = Vec::new();
        let na = stream_dsbm(&cfg, &mut a).unwrap();
        let mut b = Vec::new();
        let nb = stream_dsbm(&cfg, &mut b).unwrap();
        assert_eq!(a, b, "same config must produce byte-identical output");
        assert_eq!(na, nb);
        // The strict loader rejects self-loops and duplicates: loading
        // must succeed and agree on the edge count.
        let g = read_edge_list(a.as_slice()).unwrap();
        assert_eq!(g.n_edges(), na as usize);
        assert_eq!(g.n_nodes(), 500);
    }

    #[test]
    fn dsbm_different_seeds_differ() {
        let cfg = StreamDsbmConfig::default();
        let other = StreamDsbmConfig {
            seed: cfg.seed + 1,
            ..cfg.clone()
        };
        let mut a = Vec::new();
        stream_dsbm(&cfg, &mut a).unwrap();
        let mut b = Vec::new();
        stream_dsbm(&other, &mut b).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn dsbm_edges_are_mostly_intra_cluster() {
        let cfg = StreamDsbmConfig {
            n_nodes: 1000,
            n_clusters: 10,
            intra_degree: 8,
            inter_degree: 2,
            seed: 7,
        };
        let mut buf = Vec::new();
        stream_dsbm(&cfg, &mut buf).unwrap();
        let g = read_edge_list(buf.as_slice()).unwrap();
        let mut intra = 0usize;
        let mut total = 0usize;
        for (u, v, _) in g.edges() {
            total += 1;
            if cfg.cluster_of(u) == cfg.cluster_of(v as usize) {
                intra += 1;
            }
        }
        // 8 intra vs 2 uniform darts (1/10 of which also land intra).
        let frac = intra as f64 / total as f64;
        assert!(frac > 0.7, "intra fraction {frac}");
    }

    #[test]
    fn dsbm_cluster_blocks_partition_the_nodes() {
        let cfg = StreamDsbmConfig {
            n_nodes: 103, // deliberately not divisible by k
            n_clusters: 7,
            ..Default::default()
        };
        let mut sizes = vec![0usize; 7];
        let mut last = 0u32;
        for u in 0..103 {
            let c = cfg.cluster_of(u);
            assert!(c >= last, "cluster ids must be non-decreasing in u");
            last = c;
            sizes[c as usize] += 1;
        }
        assert_eq!(sizes.iter().sum::<usize>(), 103);
        assert!(sizes.iter().all(|&s| s == 14 || s == 15), "{sizes:?}");
    }

    #[test]
    fn dsbm_truth_matches_cli_format() {
        let cfg = StreamDsbmConfig {
            n_nodes: 50,
            n_clusters: 5,
            ..Default::default()
        };
        let mut buf = Vec::new();
        stream_dsbm_truth(&cfg, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "# symclust ground truth: 50 nodes, 5 categories"
        );
        assert_eq!(lines.clone().count(), 50);
        assert_eq!(lines.next().unwrap(), "0 0");
        assert_eq!(text.lines().last().unwrap(), "49 4");
    }

    #[test]
    fn kronecker_stream_is_deterministic_and_loader_strict() {
        let cfg = StreamKroneckerConfig {
            levels: 9,
            n_edges: 4_000,
            ..Default::default()
        };
        let mut a = Vec::new();
        let na = stream_kronecker(&cfg, &mut a).unwrap();
        let mut b = Vec::new();
        stream_kronecker(&cfg, &mut b).unwrap();
        assert_eq!(a, b);
        let g = read_edge_list(a.as_slice()).unwrap();
        assert_eq!(g.n_edges(), na as usize);
        assert!(g.n_nodes() <= 512);
    }

    #[test]
    fn kronecker_edge_count_is_near_target() {
        let cfg = StreamKroneckerConfig {
            levels: 11,
            n_edges: 20_000,
            ..Default::default()
        };
        let mut buf = Vec::new();
        let n = stream_kronecker(&cfg, &mut buf).unwrap();
        // Dedup and self-loop removal shave some edges off; the realized
        // count should still be within ~25% of the target.
        assert!(n > 15_000 && n <= 20_500, "edge count {n}");
    }

    #[test]
    fn kronecker_is_degree_skewed() {
        let cfg = StreamKroneckerConfig {
            levels: 10,
            n_edges: 10_000,
            ..Default::default()
        };
        let mut buf = Vec::new();
        stream_kronecker(&cfg, &mut buf).unwrap();
        let g = read_edge_list(buf.as_slice()).unwrap();
        // With a = 0.57 the low-id quadrant dominates: node 0 must be a
        // hub far above the mean out-degree.
        let mean = g.n_edges() as f64 / g.n_nodes() as f64;
        let d0 = g.adjacency().row_nnz(0) as f64;
        assert!(d0 > 5.0 * mean, "node-0 degree {d0} vs mean {mean}");
    }

    #[test]
    fn files_round_trip() {
        let dir = std::env::temp_dir().join(format!("symclust_stream_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("g.txt");
        let truth = dir.join("g.truth.txt");
        let cfg = StreamDsbmConfig {
            n_nodes: 120,
            n_clusters: 6,
            ..Default::default()
        };
        let n = stream_dsbm_to_files(&cfg, &edges, &truth).unwrap();
        let g = symclust_graph::io::read_edge_list_file(&edges).unwrap();
        assert_eq!(g.n_edges(), n as usize);
        assert!(fs::read_to_string(&truth)
            .unwrap()
            .starts_with("# symclust ground truth: 120 nodes, 6 categories"));
        fs::remove_dir_all(&dir).ok();
    }
}
