//! Versioned binary serialization for store artifacts.
//!
//! Blob layout (all integers little-endian):
//!
//! ```text
//! magic  b"SYMC"            4 bytes
//! version u16               format revision (bump on any layout change)
//! kind    u8                1 = CSR matrix, 2 = clustering
//! reserved u8               always 0
//! payload                   kind-specific, every array length-prefixed
//! checksum u64              FNV-1a over every preceding byte
//! ```
//!
//! The decode path rejects corruption with a *named* error at the first
//! layer that can see it: a wrong magic/version/kind before anything else,
//! then the checksum (which covers the full blob, so any single-byte flip
//! is caught), then — for a blob whose checksum was forged to match —
//! the CSR structural validators
//! ([`validate_parts`](symclust_sparse::csr::validate_parts)), which name
//! the violated invariant. Decoding never trusts a length prefix beyond
//! the bytes actually present, so a corrupt length cannot drive an
//! allocation.
//!
//! Everything here is deterministic: `encode(decode(blob)) == blob` and
//! two equal artifacts always serialize to identical bytes, which is what
//! lets the serve layer promise byte-identical responses across
//! processes. No wall clock, thread count, or environment reaches the
//! encoding (enforced by the `cache-key-purity` lint, DESIGN.md §13).

use symclust_cluster::Clustering;
use symclust_engine::fingerprint::Fnv64;
use symclust_sparse::csr::validate_parts;
use symclust_sparse::CsrMatrix;

/// Blob magic: the first four bytes of every valid artifact.
pub const MAGIC: [u8; 4] = *b"SYMC";

/// Current blob format revision.
pub const FORMAT_VERSION: u16 = 1;

/// What an artifact blob holds (also the on-disk subdirectory name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// A [`CsrMatrix`] (symmetrized adjacency / similarity matrix).
    Matrix,
    /// A [`Clustering`] (dense node → cluster assignment).
    Clustering,
}

impl ArtifactKind {
    /// Wire tag byte.
    pub fn tag(self) -> u8 {
        match self {
            ArtifactKind::Matrix => 1,
            ArtifactKind::Clustering => 2,
        }
    }

    /// On-disk subdirectory name.
    pub(crate) fn dir_name(self) -> &'static str {
        match self {
            ArtifactKind::Matrix => "matrix",
            ArtifactKind::Clustering => "clustering",
        }
    }

    fn from_tag(tag: u8) -> Result<Self, StoreError> {
        match tag {
            1 => Ok(ArtifactKind::Matrix),
            2 => Ok(ArtifactKind::Clustering),
            other => Err(StoreError::BadKind(other)),
        }
    }
}

/// Errors raised by the codec and the disk store.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StoreError {
    /// The blob does not start with the `SYMC` magic.
    BadMagic,
    /// The blob's format revision is unknown to this build.
    UnsupportedVersion(u16),
    /// The blob's kind tag names no known artifact kind.
    BadKind(u8),
    /// The blob claims a kind that differs from the one requested.
    KindMismatch {
        /// Kind the caller asked to decode.
        expected: ArtifactKind,
        /// Kind the blob header declares.
        found: ArtifactKind,
    },
    /// The blob ended before a field it promised.
    Truncated {
        /// Which field was being read.
        what: &'static str,
    },
    /// The trailing checksum does not match the blob contents.
    ChecksumMismatch {
        /// Checksum stored in the blob.
        stored: u64,
        /// Checksum recomputed over the blob contents.
        computed: u64,
    },
    /// Payload lengths are internally inconsistent (e.g. trailing bytes,
    /// or a section count that contradicts a recorded dimension).
    LengthMismatch {
        /// What was inconsistent.
        what: &'static str,
        /// Details with the offending numbers.
        detail: String,
    },
    /// The decoded matrix violates a CSR invariant; `check` names it
    /// (same vocabulary as [`symclust_sparse::SparseError::Corrupted`]).
    CorruptedArtifact {
        /// The violated invariant.
        check: &'static str,
        /// Where and how it failed.
        detail: String,
    },
    /// A filesystem operation failed (disk layer).
    Io(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::BadMagic => write!(f, "not an artifact blob (bad magic)"),
            StoreError::UnsupportedVersion(v) => {
                write!(f, "unsupported blob format version {v}")
            }
            StoreError::BadKind(tag) => write!(f, "unknown artifact kind tag {tag}"),
            StoreError::KindMismatch { expected, found } => write!(
                f,
                "artifact kind mismatch: requested {expected:?}, blob holds {found:?}"
            ),
            StoreError::Truncated { what } => write!(f, "blob truncated while reading {what}"),
            StoreError::ChecksumMismatch { stored, computed } => write!(
                f,
                "blob checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
            StoreError::LengthMismatch { what, detail } => {
                write!(f, "blob length mismatch in {what}: {detail}")
            }
            StoreError::CorruptedArtifact { check, detail } => {
                write!(f, "decoded artifact corrupt ({check} invariant): {detail}")
            }
            StoreError::Io(msg) => write!(f, "store I/O error: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// FNV-1a 64-bit digest of `bytes` — the blob checksum. Deterministic
/// across platforms; shares the hasher with the engine's cache keys so
/// the two content-addressing schemes cannot drift apart.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(bytes);
    h.finish()
}

/// A value that can round-trip through the store's binary codec.
pub trait Artifact: Sized {
    /// Which blob kind this type serializes as.
    const KIND: ArtifactKind;

    /// The content-derived fields a response about this artifact spells
    /// out (DESIGN.md §14). A pure function of the artifact, so it is
    /// taken once when the artifact enters the memory tier
    /// ([`Cached`](crate::tiered::Cached)) and never per request.
    type Summary: std::fmt::Debug + PartialEq;

    /// Computes the summary: one pass over the artifact's arrays.
    fn summarize(&self) -> Self::Summary;

    /// Serializes into a complete blob (header + payload + checksum).
    fn encode(&self) -> Vec<u8>;

    /// Deserializes and fully verifies a blob of this kind.
    fn decode(blob: &[u8]) -> Result<Self, StoreError>;
}

// -------------------------------------------------------------- writing

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new(kind: ArtifactKind) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.push(kind.tag());
        buf.push(0); // reserved
        Writer { buf }
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64_slice_of_usize(&mut self, values: &[usize]) {
        self.u64(values.len() as u64);
        for &v in values {
            self.u64(v as u64);
        }
    }

    fn u32_slice(&mut self, values: &[u32]) {
        self.u64(values.len() as u64);
        for &v in values {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn f64_slice(&mut self, values: &[f64]) {
        self.u64(values.len() as u64);
        for &v in values {
            // Bit pattern, not value: -0.0 and 0.0 must round-trip as-is.
            self.u64(v.to_bits());
        }
    }

    fn finish(mut self) -> Vec<u8> {
        let sum = checksum64(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

// -------------------------------------------------------------- reading

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(StoreError::Truncated { what })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, StoreError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, StoreError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, StoreError> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a length prefix and bounds-checks it against the bytes that
    /// actually remain, so a corrupt length can never drive an allocation
    /// beyond the blob itself.
    fn len_prefix(&mut self, elem_size: usize, what: &'static str) -> Result<usize, StoreError> {
        let claimed = self.u64(what)?;
        let remaining = (self.bytes.len() - self.pos) as u64;
        let max_elems = remaining / elem_size as u64;
        if claimed > max_elems {
            return Err(StoreError::LengthMismatch {
                what,
                detail: format!("claimed {claimed} elements but only {remaining} bytes remain"),
            });
        }
        Ok(claimed as usize)
    }

    fn usize_vec(&mut self, what: &'static str) -> Result<Vec<usize>, StoreError> {
        let n = self.len_prefix(8, what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64(what)? as usize);
        }
        Ok(out)
    }

    fn u32_vec(&mut self, what: &'static str) -> Result<Vec<u32>, StoreError> {
        let n = self.len_prefix(4, what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let b = self.take(4, what)?;
            out.push(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
        }
        Ok(out)
    }

    fn f64_vec(&mut self, what: &'static str) -> Result<Vec<f64>, StoreError> {
        let n = self.len_prefix(8, what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f64::from_bits(self.u64(what)?));
        }
        Ok(out)
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

/// Verifies the shared header + trailing checksum and returns the payload
/// reader. Error order is deliberate: magic/version/kind fail before the
/// checksum so a non-blob file or a future-format blob gets a precise
/// diagnosis, while any byte flip inside a genuine current-format blob is
/// caught by the checksum.
fn open_blob(blob: &[u8], expected: ArtifactKind) -> Result<Reader<'_>, StoreError> {
    let mut r = Reader::new(blob);
    let magic = r.take(4, "magic")?;
    if magic != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = r.u16("version")?;
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let kind = ArtifactKind::from_tag(r.u8("kind")?)?;
    let _reserved = r.u8("reserved")?;
    if blob.len() < r.pos + 8 {
        return Err(StoreError::Truncated { what: "checksum" });
    }
    let body = &blob[..blob.len() - 8];
    let mut tail = [0u8; 8];
    tail.copy_from_slice(&blob[blob.len() - 8..]);
    let stored = u64::from_le_bytes(tail);
    let computed = checksum64(body);
    if stored != computed {
        return Err(StoreError::ChecksumMismatch { stored, computed });
    }
    if kind != expected {
        return Err(StoreError::KindMismatch {
            expected,
            found: kind,
        });
    }
    // Hand back a reader restricted to the payload.
    Ok(Reader {
        bytes: body,
        pos: r.pos,
    })
}

fn expect_drained(r: &Reader<'_>, what: &'static str) -> Result<(), StoreError> {
    if r.remaining() != 0 {
        return Err(StoreError::LengthMismatch {
            what,
            detail: format!("{} unread payload bytes", r.remaining()),
        });
    }
    Ok(())
}

/// What a `symmetrize` response says about its matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixSummary {
    /// Rows (= nodes of the symmetrized graph).
    pub nodes: usize,
    /// Undirected edges of a symmetric adjacency: an off-diagonal pair
    /// counts once, a self-loop once; a stored zero on the diagonal is
    /// not a loop.
    pub edges: usize,
    /// The engine's [`matrix_fingerprint`] of the exact CSR content.
    ///
    /// [`matrix_fingerprint`]: symclust_engine::fingerprint::matrix_fingerprint
    pub fingerprint: u64,
}

/// What a `cluster` response says about its clustering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusteringSummary {
    /// Nodes covered.
    pub nodes: usize,
    /// Distinct clusters.
    pub clusters: usize,
    /// Whether the clusterer reported convergence.
    pub converged: bool,
    /// FNV-1a over (clusters, converged, every assignment), so clients
    /// can compare results without fetching assignments.
    pub checksum: u64,
}

impl Artifact for CsrMatrix {
    const KIND: ArtifactKind = ArtifactKind::Matrix;
    type Summary = MatrixSummary;

    /// Hashes the arrays in `matrix_fingerprint`'s order and counts the
    /// loops while the column indices go by — each array is read once and
    /// no row is searched.
    fn summarize(&self) -> MatrixSummary {
        let (indptr, indices, values) = (self.indptr(), self.indices(), self.values());
        let mut h = Fnv64::new();
        h.write_u64(self.n_rows() as u64)
            .write_u64(self.nnz() as u64);
        for &p in indptr {
            h.write_u64(p as u64);
        }
        let mut loops = 0usize;
        for (row, span) in indptr.windows(2).enumerate() {
            for k in span[0]..span[1] {
                h.write_u64(u64::from(indices[k]));
                loops += usize::from(indices[k] as usize == row && values[k] != 0.0);
            }
        }
        for &v in values {
            h.write_f64(v);
        }
        MatrixSummary {
            nodes: self.n_rows(),
            edges: (self.nnz() - loops) / 2 + loops,
            fingerprint: h.finish(),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(ArtifactKind::Matrix);
        w.u64(self.n_rows() as u64);
        w.u64(self.n_cols() as u64);
        w.u64_slice_of_usize(self.indptr());
        w.u32_slice(self.indices());
        w.f64_slice(self.values());
        w.finish()
    }

    fn decode(blob: &[u8]) -> Result<Self, StoreError> {
        let mut r = open_blob(blob, ArtifactKind::Matrix)?;
        let n_rows = r.u64("n_rows")? as usize;
        let n_cols = r.u64("n_cols")? as usize;
        let indptr = r.usize_vec("indptr")?;
        let indices = r.u32_vec("indices")?;
        let values = r.f64_vec("values")?;
        expect_drained(&r, "matrix payload")?;
        // The PR-5 validators name the violated invariant — this is the
        // last line of defense against a blob whose checksum was forged
        // (or a codec bug), and the reason a corrupt artifact can never
        // reach a kernel.
        validate_parts(n_rows, n_cols, &indptr, &indices, &values)
            .map_err(|(check, detail)| StoreError::CorruptedArtifact { check, detail })?;
        Ok(CsrMatrix::from_raw_parts_unchecked(
            n_rows, n_cols, indptr, indices, values,
        ))
    }
}

impl Artifact for Clustering {
    const KIND: ArtifactKind = ArtifactKind::Clustering;
    type Summary = ClusteringSummary;

    fn summarize(&self) -> ClusteringSummary {
        let mut h = Fnv64::new();
        h.write_u64(self.n_clusters() as u64)
            .write_u64(u64::from(self.converged()));
        for &a in self.assignments() {
            h.write_u64(u64::from(a));
        }
        ClusteringSummary {
            nodes: self.n_nodes(),
            clusters: self.n_clusters(),
            converged: self.converged(),
            checksum: h.finish(),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(ArtifactKind::Clustering);
        w.u64(self.n_clusters() as u64);
        w.buf.push(u8::from(self.converged()));
        w.u32_slice(self.assignments());
        w.finish()
    }

    fn decode(blob: &[u8]) -> Result<Self, StoreError> {
        let mut r = open_blob(blob, ArtifactKind::Clustering)?;
        let n_clusters = r.u64("n_clusters")? as usize;
        let converged = match r.u8("converged")? {
            0 => false,
            1 => true,
            other => {
                return Err(StoreError::CorruptedArtifact {
                    check: "converged",
                    detail: format!("converged flag must be 0/1, found {other}"),
                })
            }
        };
        let assignments = r.u32_vec("assignments")?;
        expect_drained(&r, "clustering payload")?;
        // `Clustering` ids are dense in order of first appearance (the
        // only public constructors guarantee it), so re-running the
        // canonical constructor reproduces the artifact exactly — and a
        // cluster-count drift marks the blob corrupt.
        let decoded = Clustering::from_assignments(&assignments).with_converged(converged);
        if decoded.n_clusters() != n_clusters {
            return Err(StoreError::CorruptedArtifact {
                check: "n_clusters",
                detail: format!(
                    "header says {n_clusters} clusters, assignments produce {}",
                    decoded.n_clusters()
                ),
            });
        }
        if decoded.assignments() != assignments {
            return Err(StoreError::CorruptedArtifact {
                check: "assignment_order",
                detail: "assignments are not dense in order of first appearance".into(),
            });
        }
        Ok(decoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix() -> CsrMatrix {
        CsrMatrix::from_dense(&[
            vec![0.0, 1.5, 0.0, -0.0],
            vec![2.0, 0.0, 0.25, 0.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.0, 3.0],
        ])
    }

    #[test]
    fn matrix_roundtrips_bit_identically() {
        let m = sample_matrix();
        let blob = m.encode();
        let back = CsrMatrix::decode(&blob).unwrap();
        assert_eq!(m, back);
        assert_eq!(blob, back.encode(), "re-encode must be byte-identical");
    }

    #[test]
    fn clustering_roundtrips_with_converged_flag() {
        for converged in [true, false] {
            let c = Clustering::from_assignments(&[0, 1, 0, 2, 1]).with_converged(converged);
            let blob = c.encode();
            let back = Clustering::decode(&blob).unwrap();
            assert_eq!(c, back);
            assert_eq!(back.converged(), converged);
            assert_eq!(blob, back.encode());
        }
    }

    #[test]
    fn matrix_summary_counts_pairs_once_and_loops_once() {
        // 0-1 edge, a self-loop at 2, and a *stored* zero on the diagonal
        // at 3: an entry but not a loop, so it lands in the halved
        // remainder — (4 - 1) / 2 + 1, the arithmetic responses always had.
        let m = CsrMatrix::from_raw_parts_unchecked(
            4,
            4,
            vec![0, 1, 2, 3, 4],
            vec![1, 0, 2, 3],
            vec![1.0, 1.0, 2.0, 0.0],
        );
        let s = m.summarize();
        assert_eq!((s.nodes, s.edges), (4, 2));
        assert_eq!(
            s.fingerprint,
            symclust_engine::fingerprint::matrix_fingerprint(&m)
        );
    }

    #[test]
    fn clustering_summary_separates_content_and_convergence() {
        let a = Clustering::from_assignments(&[0, 1, 0, 2, 1]);
        let s = a.summarize();
        assert_eq!((s.nodes, s.clusters, s.converged), (5, 3, a.converged()));
        let flipped = a.clone().with_converged(!a.converged()).summarize();
        assert_ne!(s.checksum, flipped.checksum);
        let other = Clustering::from_assignments(&[0, 1, 0, 2, 2]).summarize();
        assert_ne!(s.checksum, other.checksum);
    }

    #[test]
    fn header_errors_are_named() {
        let blob = sample_matrix().encode();

        let mut bad_magic = blob.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(CsrMatrix::decode(&bad_magic), Err(StoreError::BadMagic));

        let mut bad_version = blob.clone();
        bad_version[4] = 0xEE;
        assert!(matches!(
            CsrMatrix::decode(&bad_version),
            Err(StoreError::UnsupportedVersion(_))
        ));

        // A flipped kind byte fails the checksum (the header is covered);
        // a *consistently forged* kind tag is a kind error.
        let mut forged_kind = blob.clone();
        forged_kind[6] = 2;
        let body_len = forged_kind.len() - 8;
        let sum = checksum64(&forged_kind[..body_len]).to_le_bytes();
        forged_kind[body_len..].copy_from_slice(&sum);
        assert!(matches!(
            CsrMatrix::decode(&forged_kind),
            Err(StoreError::KindMismatch { .. })
        ));

        let mut forged_bad_tag = blob.clone();
        forged_bad_tag[6] = 9;
        let sum = checksum64(&forged_bad_tag[..body_len]).to_le_bytes();
        forged_bad_tag[body_len..].copy_from_slice(&sum);
        assert_eq!(
            CsrMatrix::decode(&forged_bad_tag),
            Err(StoreError::BadKind(9))
        );
    }

    #[test]
    fn any_truncation_is_rejected() {
        let blob = sample_matrix().encode();
        for cut in 0..blob.len() {
            let err = CsrMatrix::decode(&blob[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::Truncated { .. }
                        | StoreError::BadMagic
                        | StoreError::ChecksumMismatch { .. }
                        | StoreError::LengthMismatch { .. }
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn forged_checksum_falls_through_to_the_validator() {
        // Break row-sortedness inside the payload, then re-stamp the
        // checksum: only the CSR validator can catch this, and it must
        // name the violated invariant.
        let m = CsrMatrix::from_dense(&[vec![1.0, 2.0], vec![0.0, 3.0]]);
        let mut blob = m.encode();
        // indices section: header(8) + n_rows(8) + n_cols(8) +
        // indptr(8 + 3*8) + indices_len(8) → first index byte.
        let idx0 = 8 + 8 + 8 + 8 + 3 * 8 + 8;
        blob.swap(idx0, idx0 + 4); // swap cols {0,1} of row 0 → unsorted
        let body_len = blob.len() - 8;
        let sum = checksum64(&blob[..body_len]).to_le_bytes();
        let tail = blob.len() - 8;
        blob[tail..].copy_from_slice(&sum);
        match CsrMatrix::decode(&blob) {
            Err(StoreError::CorruptedArtifact { check, .. }) => {
                assert_eq!(check, "columns");
            }
            other => panic!("expected a named validator error, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_length_prefix_cannot_drive_allocation() {
        let m = sample_matrix();
        let mut blob = m.encode();
        // Overwrite the indptr length prefix with u64::MAX and re-stamp
        // the checksum; decode must fail on the bounds check, not OOM.
        let len_at = 8 + 8 + 8;
        blob[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let body_len = blob.len() - 8;
        let sum = checksum64(&blob[..body_len]).to_le_bytes();
        blob[body_len..].copy_from_slice(&sum);
        assert!(matches!(
            CsrMatrix::decode(&blob),
            Err(StoreError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn kind_is_checked_against_the_requested_type() {
        let c = Clustering::from_assignments(&[0, 0, 1]);
        let blob = c.encode();
        assert!(matches!(
            CsrMatrix::decode(&blob),
            Err(StoreError::KindMismatch { .. })
        ));
    }

    #[test]
    fn display_messages_name_the_failure() {
        let s = StoreError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        }
        .to_string();
        assert!(s.contains("checksum"));
        assert!(StoreError::BadMagic.to_string().contains("magic"));
        assert!(StoreError::Truncated { what: "indptr" }
            .to_string()
            .contains("indptr"));
    }
}
