#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

//! symclust-store: a disk-backed, content-addressed artifact store.
//!
//! The engine's in-memory [`ArtifactCache`](symclust_engine::ArtifactCache)
//! makes one *sweep* cheap; this crate makes one *deployment* cheap. An
//! artifact — a symmetrized adjacency matrix or a finished clustering — is
//! serialized into a versioned, length-prefixed, checksummed binary blob
//! ([`codec`]) and published under its content-addressed fingerprint with
//! atomic write-then-rename ([`disk::DiskStore`]). A later process (or a
//! restarted daemon) that derives the same key serves the blob without
//! touching a kernel.
//!
//! Integrity is never assumed: every load re-verifies the blob checksum
//! and the CSR structural invariants
//! ([`CsrMatrix::validate`](symclust_sparse::CsrMatrix)); a blob that
//! fails either check is moved to a quarantine directory and reported as
//! a miss, so corrupt data is recomputed, never served.
//!
//! [`tiered::TieredCache`] stacks the two layers — L1 in-memory cache
//! (with in-flight dedup) over the disk store — and
//! [`tiered::symmetrize_cached`] / [`tiered::cluster_cached`] are the
//! kernel-facing entry points the serve daemon and the `serve` lock share.

pub mod codec;
pub mod disk;
pub mod faultfs;
pub mod tiered;

pub use codec::{Artifact, ArtifactKind, ClusteringSummary, MatrixSummary, StoreError};
pub use disk::{DiskStore, StoreOptions, StoreStats};
pub use tiered::{
    cluster_cached, cluster_key, symmetrize_cached, symmetrize_key, Cached, Tier, TieredCache,
};

symclust_obs::metric_names! {
    /// Metric names recorded by the store (documented in DESIGN.md §11).
    pub mod metric_names {
        /// Counter: loads served from an intact on-disk blob.
        pub const STORE_HITS: &str = "store.hits";
        /// Counter: loads that found no blob (or a quarantined one).
        pub const STORE_MISSES: &str = "store.misses";
        /// Counter: blobs published (atomic write-then-rename completed).
        pub const STORE_PUTS: &str = "store.puts";
        /// Counter: blobs deleted by the LRU size-budget sweep.
        pub const STORE_EVICTIONS: &str = "store.evictions";
        /// Counter: blobs that failed checksum/validator checks on load and
        /// were moved to the quarantine directory.
        pub const STORE_QUARANTINED: &str = "store.quarantined";
        /// Counter: publish attempts that failed at the filesystem layer
        /// (the computed artifact is still returned to the caller).
        pub const STORE_PUT_ERRORS: &str = "store.put_errors";
        /// Counter: failed attempts to persist the `stats.json` sidecar
        /// (write or rename error; the in-memory counters stay authoritative).
        pub const STORE_STATS_PERSIST_ERRORS: &str = "store.stats_persist_errors";
        /// Counter: artifacts that entered a [`TieredCache`](crate::TieredCache)'s
        /// memory tier (fresh compute or promoted disk blob), each paying for
        /// its content summary once. Named for the daemon whose responses the
        /// summary renders; a hit never moves it.
        pub const SUMMARIES_COMPUTED: &str = "serve.summaries_computed";
        /// Gauge: total bytes of published blobs currently on disk.
        pub const STORE_BYTES: &str = "store.bytes";
        /// Gauge: 1 while the store is in `ENOSPC` degraded mode (publication
        /// suspended, hits still served), 0 otherwise.
        pub const STORE_DEGRADED: &str = "store.degraded";
    }
}
