//! Content-addressed cache keys for pipeline artifacts.
//!
//! A key is a stable 64-bit FNV-1a hash over (graph fingerprint, stage
//! name, stage parameters). Stability matters twice over: within a process
//! run, the same directed graph and the same parameters must map to the
//! same key so that sweeps over clusterers, thresholds, or α/β reuse each
//! symmetrization instead of recomputing it; and *across* processes and
//! machines, because `symclust-store` persists these keys as on-disk
//! content addresses (DESIGN.md §14) that a restarted daemon must re-derive
//! bit-for-bit. The hash therefore must be platform-independent (it is:
//! FNV-1a over explicitly little-endian encodings), but only
//! collision-resistant enough for deduplication — a collision degrades to
//! serving the colliding artifact, and 64 bits over at most thousands of
//! artifacts keeps that probability negligible.

use symclust_graph::DiGraph;

/// Incremental 64-bit FNV-1a hasher.
///
/// FNV-1a is not cryptographic; it is chosen for being dependency-free,
/// fully deterministic across platforms, and fast on the short streams we
/// hash (CSR arrays + a handful of parameters).
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Absorbs an `f64` by bit pattern (so `-0.0` and `0.0` differ; the
    /// engine never uses NaN parameters).
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// Absorbs a string, length-prefixed so concatenations can't collide.
    pub(crate) fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64).write_bytes(s.as_bytes())
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Fingerprints a directed graph by its exact CSR content (dimensions,
/// structure, and edge weights). Two `DiGraph`s get the same fingerprint
/// iff their adjacency matrices are identical.
pub fn graph_fingerprint(g: &DiGraph) -> u64 {
    matrix_fingerprint(g.adjacency())
}

/// Fingerprints a sparse matrix by its exact CSR content. Used to key
/// stages whose input is an intermediate artifact (e.g. pruning a
/// symmetrized graph) rather than the original directed graph.
pub fn matrix_fingerprint(a: &symclust_sparse::CsrMatrix) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(a.n_rows() as u64).write_u64(a.nnz() as u64);
    for &p in a.indptr() {
        h.write_u64(p as u64);
    }
    for &i in a.indices() {
        h.write_u64(i as u64);
    }
    for &v in a.values() {
        h.write_f64(v);
    }
    h.finish()
}

/// Builds the cache key for a stage applied to a fingerprinted input:
/// `hash(input_fingerprint, stage, params...)`. `params` must be a stable
/// encoding of everything that affects the stage's output.
pub fn stage_key(input_fingerprint: u64, stage: &str, params: &[f64]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(input_fingerprint).write_str(stage);
    h.write_u64(params.len() as u64);
    for &p in params {
        h.write_f64(p);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use symclust_graph::generators::figure1_graph;

    #[test]
    fn fnv_matches_reference_vector() {
        // Standard FNV-1a test vector: "a" -> 0xaf63dc4c8601ec8c.
        let mut h = Fnv64::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn graph_fingerprint_is_stable_and_content_sensitive() {
        let g1 = figure1_graph();
        let g2 = figure1_graph();
        assert_eq!(graph_fingerprint(&g1), graph_fingerprint(&g2));
        let other = symclust_graph::DiGraph::from_edges(3, &[(0, 1)]).unwrap();
        assert_ne!(graph_fingerprint(&g1), graph_fingerprint(&other));
    }

    #[test]
    fn stage_key_separates_stage_and_params() {
        let fp = 42u64;
        let a = stage_key(fp, "symmetrize/dd", &[0.5, 0.5, 0.0]);
        let b = stage_key(fp, "symmetrize/dd", &[0.5, 0.5, 1.0]);
        let c = stage_key(fp, "symmetrize/bib", &[0.5, 0.5, 0.0]);
        let d = stage_key(43, "symmetrize/dd", &[0.5, 0.5, 0.0]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a, stage_key(fp, "symmetrize/dd", &[0.5, 0.5, 0.0]));
    }

    #[test]
    fn string_hashing_is_length_prefixed() {
        let mut ab = Fnv64::new();
        ab.write_str("ab").write_str("c");
        let mut a_bc = Fnv64::new();
        a_bc.write_str("a").write_str("bc");
        assert_ne!(ab.finish(), a_bc.finish());
    }
}
