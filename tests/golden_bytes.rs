//! Byte-stability across commits.
//!
//! The kernels promise bit-identical output at any thread count or
//! panel size — and a refactor of them promises the
//! same bytes as the commit before it. The variant-vs-variant suites
//! check the first; this file checks the second: FNV-1a hashes over
//! `indptr`, `indices` and the value *bits* of the two SpGEMM-backed
//! symmetrizations, of an R-MCL flow, and of the MLR-MCL assignment, on
//! the bundled `dsbm_small` graph. The constants were recorded at commit
//! `7a91579`, before the kernels were unified; a change that moves one of
//! them changed numerics (add order, tie-breaking in the top-k prune, a
//! threshold comparison) and has to say so.

use symclust::cluster::mcl::{canonical_flow, expand_inflate_prune};
use symclust::cluster::{ClusterAlgorithm, MclOptions, MlrMcl};
use symclust::core::{Bibliometric, DegreeDiscounted, SymmetrizedGraph, Symmetrizer};
use symclust::graph::io::read_edge_list_file;
use symclust::graph::DiGraph;
use symclust::sparse::CsrMatrix;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

fn matrix_hash(m: &CsrMatrix) -> u64 {
    let mut hash = FNV_OFFSET;
    for &p in m.indptr() {
        fnv1a(&mut hash, &(p as u64).to_le_bytes());
    }
    for &j in m.indices() {
        fnv1a(&mut hash, &j.to_le_bytes());
    }
    for &v in m.values() {
        fnv1a(&mut hash, &v.to_bits().to_le_bytes());
    }
    hash
}

fn bundled_graph() -> DiGraph {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data/dsbm_small.txt");
    read_edge_list_file(path).expect("bundled graph loads")
}

/// Degree-discounted at the `SymMethod::lineup` threshold.
fn degree_discounted() -> SymmetrizedGraph {
    DegreeDiscounted::with_threshold(0.01)
        .symmetrize(&bundled_graph())
        .expect("symmetrize")
}

#[test]
fn symmetrizations_keep_their_bytes() {
    let dd = degree_discounted();
    assert_eq!(dd.adjacency().nnz(), 100_412);
    assert_eq!(matrix_hash(dd.adjacency()), 0xB405_767C_DE9B_156B);

    let bib = Bibliometric::with_threshold(2.0)
        .symmetrize(&bundled_graph())
        .expect("symmetrize");
    assert_eq!(bib.adjacency().nnz(), 79_954);
    assert_eq!(matrix_hash(bib.adjacency()), 0xA411_2AE6_D991_7E07);
}

#[test]
fn rmcl_flow_keeps_its_bytes() {
    let dd = degree_discounted();
    let m_g = canonical_flow(dd.graph());
    let mut flow = m_g.clone();
    for _ in 0..5 {
        flow = expand_inflate_prune(&flow, &m_g, &MclOptions::default(), None).expect("expand");
    }
    // Every row sits at the 64-entry cap: the top-k prune over tied flows
    // decides these bytes.
    assert_eq!(flow.nnz(), 25_600);
    assert_eq!(matrix_hash(&flow), 0x79E8_9D0F_BC4F_1011);
}

#[test]
fn mlrmcl_assignment_keeps_its_bytes() {
    let clustering = MlrMcl::default()
        .cluster(&degree_discounted())
        .expect("cluster");
    assert_eq!(clustering.n_clusters(), 9);
    let mut hash = FNV_OFFSET;
    for &cluster in clustering.assignments() {
        fnv1a(&mut hash, &cluster.to_le_bytes());
    }
    assert_eq!(hash, 0x412C_FB7A_22C8_43B4);
}
