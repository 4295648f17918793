//! Two-tier artifact cache: in-memory L1 over the disk store.
//!
//! The engine's [`ArtifactCache`] already gives one process in-flight
//! deduplication and O(1) repeat lookups; [`TieredCache`] adds the disk
//! store underneath so the same key is also a hit for a *different*
//! process (or the same daemon after a restart). Lookup order is L1 →
//! disk → compute; a disk hit is promoted into L1, a computed artifact is
//! published to disk (best-effort — a full disk degrades to compute-only,
//! it never fails a request).
//!
//! What L1 holds is a [`Cached`] artifact: the value plus its content
//! summary ([`Artifact::summarize`]), taken once by whichever request
//! brings the artifact into memory. A response about a resident artifact
//! is rendered from the summary and touches none of its arrays.
//!
//! [`symmetrize_cached`] and [`cluster_cached`] are the kernel-facing
//! entry points shared by the serve daemon and the `serve` lock in
//! `tests/locks.rs`: they derive the content address exactly the way the
//! engine does ([`stage_key`] over the graph fingerprint and
//! `cache_params`), so an artifact computed by a pipeline sweep and one
//! computed by the daemon land on the same key.

use std::sync::Arc;

use symclust_cluster::Clustering;
use symclust_engine::fingerprint::stage_key;
use symclust_engine::{ArtifactCache, Clusterer, SymMethod};
use symclust_graph::{DiGraph, UnGraph};
use symclust_obs::MetricsRegistry;
use symclust_sparse::{CancelToken, CsrMatrix, Tuning};

use crate::codec::Artifact;
use crate::disk::DiskStore;
use crate::metric_names;

/// Which tier satisfied a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Served from the in-memory L1 cache (including parking behind an
    /// in-flight computation of the same key).
    Memory,
    /// Served from a verified on-disk blob; no kernel ran.
    Disk,
    /// Computed by the kernels (and published to disk).
    Computed,
}

impl Tier {
    /// Stable lowercase name for responses and logs.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Memory => "memory",
            Tier::Disk => "disk",
            Tier::Computed => "computed",
        }
    }
}

/// A memory-resident artifact with the summary taken when it entered L1.
/// Dereferences to the artifact.
#[derive(Debug, PartialEq)]
pub struct Cached<T: Artifact> {
    value: T,
    summary: T::Summary,
}

impl<T: Artifact> Cached<T> {
    /// The content summary (O(1): computed once, on entry to L1).
    pub fn summary(&self) -> &T::Summary {
        &self.summary
    }
}

impl<T: Artifact> std::ops::Deref for Cached<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

/// An L1 in-memory cache stacked on the shared disk store.
///
/// One `TieredCache` exists per artifact type (the daemon holds one for
/// matrices and one for clusterings); the [`DiskStore`] behind them is
/// shared.
pub struct TieredCache<T: Artifact> {
    l1: ArtifactCache<Cached<T>>,
    disk: Arc<DiskStore>,
}

impl<T: Artifact> TieredCache<T> {
    /// Builds an empty L1 over `disk`.
    pub fn new(disk: Arc<DiskStore>) -> Self {
        TieredCache {
            l1: ArtifactCache::new(),
            disk,
        }
    }

    /// The disk store backing this cache.
    pub fn disk(&self) -> &Arc<DiskStore> {
        &self.disk
    }

    /// The in-memory L1 cache: stats, and the memory-only probe
    /// (`l1().get(key)`) behind the daemon's read lane.
    pub fn l1(&self) -> &ArtifactCache<Cached<T>> {
        &self.l1
    }

    /// Wraps an artifact on its way into L1; the only place a summary is
    /// computed, counted so "once per artifact, never per hit" is a
    /// number and not a timing.
    fn admit(&self, value: T) -> Cached<T> {
        if let Some(m) = self.disk.metrics() {
            m.counter(metric_names::SUMMARIES_COMPUTED).inc();
        }
        let summary = value.summarize();
        Cached { value, summary }
    }

    /// Looks `key` up without computing: L1 first, then the disk store
    /// (promoting a disk hit into L1).
    pub fn get(&self, key: u64) -> Option<(Arc<Cached<T>>, Tier)> {
        if let Some(v) = self.l1.get(key) {
            return Some((v, Tier::Memory));
        }
        let from_disk = self.disk.load::<T>(key)?;
        // Promote through get_or_compute so a concurrent requester of the
        // same key dedups instead of re-reading the blob.
        match self
            .l1
            .get_or_compute(key, || Ok::<_, ()>(self.admit(from_disk)))
        {
            Ok((v, _)) => Some((v, Tier::Disk)),
            Err(()) => None,
        }
    }

    /// Returns the artifact for `key`, trying L1, then the verified disk
    /// store, then `compute`. A computed artifact is published to disk;
    /// publication failure is absorbed (counted as `store.put_errors`) —
    /// the artifact is still returned and cached in memory.
    pub fn get_or_compute<E>(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<(Arc<Cached<T>>, Tier), E> {
        let mut tier = Tier::Computed;
        let (value, l1_hit) = self.l1.get_or_compute(key, || {
            if let Some(v) = self.disk.load::<T>(key) {
                tier = Tier::Disk;
                return Ok(self.admit(v));
            }
            let v = compute()?;
            // Best-effort publication: the store counts failures.
            let _ = self.disk.put(key, &v);
            Ok(self.admit(v))
        })?;
        Ok((value, if l1_hit { Tier::Memory } else { tier }))
    }
}

/// Content address of a symmetrization artifact: the engine's
/// `stage_key` over the graph fingerprint, the method's stage name, and
/// its parameter vector (budget included when the method uses one).
pub fn symmetrize_key(graph_fp: u64, method: &SymMethod, nnz_budget: Option<usize>) -> u64 {
    let (stage, params) = method.cache_params_with_budget(nnz_budget);
    stage_key(graph_fp, stage, &params)
}

/// Content address of a clustering artifact, chained off the
/// symmetrization key so the full pipeline provenance is in the address.
pub fn cluster_key(sym_key: u64, clusterer: &Clusterer) -> u64 {
    let (stage, params) = clusterer.cache_params();
    stage_key(sym_key, stage, &params)
}

/// Symmetrizes `g` with `method` through the tiered cache. On any hit
/// (a [`Tier`] other than `Computed`) no kernel runs — in particular `spgemm.calls` stays
/// untouched for the similarity methods; a miss runs them under the
/// environment's [`Tuning`]. Returns the symmetrized adjacency with its
/// summary, the tier that served it, and the artifact key.
pub fn symmetrize_cached(
    cache: &TieredCache<CsrMatrix>,
    g: &DiGraph,
    graph_fp: u64,
    method: &SymMethod,
    nnz_budget: Option<usize>,
    token: &CancelToken,
    metrics: Option<&MetricsRegistry>,
) -> symclust_core::Result<(Arc<Cached<CsrMatrix>>, Tier, u64)> {
    let key = symmetrize_key(graph_fp, method, nnz_budget);
    let (matrix, tier) = cache.get_or_compute(key, || -> symclust_core::Result<CsrMatrix> {
        let sym = method
            .build(nnz_budget, &Tuning::default())
            .symmetrize_observed(g, token, metrics)?;
        Ok(sym.into_graph().into_adjacency())
    })?;
    Ok((matrix, tier, key))
}

/// Clusters the symmetrized graph `sym` (whose artifact key is
/// `sym_key`) with `clusterer` through the tiered cache. `sym` is only
/// consulted on a full miss; hits run no clustering kernel.
pub fn cluster_cached(
    cache: &TieredCache<Clustering>,
    sym: &UnGraph,
    sym_key: u64,
    clusterer: &Clusterer,
    token: &CancelToken,
    metrics: Option<&MetricsRegistry>,
) -> symclust_cluster::Result<(Arc<Cached<Clustering>>, Tier, u64)> {
    let key = cluster_key(sym_key, clusterer);
    let (clustering, tier) = cache.get_or_compute(key, || {
        clusterer.build().cluster_observed(sym, token, metrics)
    })?;
    Ok((clustering, tier, key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::StoreOptions;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use symclust_engine::fingerprint::graph_fingerprint;
    use symclust_graph::generators::figure1_graph;
    use symclust_obs::MetricsRegistry;

    static TEST_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_store(tag: &str) -> (Arc<DiskStore>, PathBuf) {
        let n = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "symclust_tiered_test_{}_{tag}_{n}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let store = Arc::new(DiskStore::open(&dir, StoreOptions::default()).unwrap());
        (store, dir)
    }

    #[test]
    fn tiers_progress_computed_memory_disk() {
        let (store, dir) = temp_store("tiers");
        let cache: TieredCache<CsrMatrix> = TieredCache::new(Arc::clone(&store));
        let m = CsrMatrix::from_dense(&[vec![0.0, 1.0], vec![1.0, 0.0]]);

        let (_, tier) = cache.get_or_compute(1, || Ok::<_, ()>(m.clone())).unwrap();
        assert_eq!(tier, Tier::Computed);
        let (_, tier) = cache
            .get_or_compute(1, || panic!("must not recompute"))
            .unwrap_or_else(|_: ()| unreachable!());
        assert_eq!(tier, Tier::Memory);

        // A fresh L1 over the same store models a daemon restart: the
        // artifact must come back from disk, not from a kernel.
        let cache2: TieredCache<CsrMatrix> = TieredCache::new(Arc::clone(&store));
        let (v, tier) = cache2
            .get_or_compute(1, || panic!("must not recompute"))
            .unwrap_or_else(|_: ()| unreachable!());
        assert_eq!(tier, Tier::Disk);
        assert_eq!(**v, m);
        // And the promotion makes the next lookup a memory hit.
        let (_, tier) = cache2.get(1).unwrap();
        assert_eq!(tier, Tier::Memory);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn summary_is_taken_once_per_entry_into_l1_and_never_on_a_hit() {
        let dir = temp_store("summary").1;
        let metrics = MetricsRegistry::new();
        let open = || {
            let store = DiskStore::open(&dir, StoreOptions::default()).unwrap();
            Arc::new(store.with_metrics(metrics.clone()))
        };
        let computed = || metrics.counter(metric_names::SUMMARIES_COMPUTED).get();
        let m = CsrMatrix::from_dense(&[vec![2.0, 1.0], vec![1.0, 0.0]]);

        let cache: TieredCache<CsrMatrix> = TieredCache::new(open());
        let (cold, _) = cache.get_or_compute(1, || Ok::<_, ()>(m.clone())).unwrap();
        assert_eq!(*cold.summary(), m.summarize());
        assert_eq!(computed(), 1);
        for _ in 0..10 {
            let (hit, tier) = cache.get(1).unwrap();
            assert_eq!(tier, Tier::Memory);
            assert_eq!(hit.summary(), cold.summary());
        }
        assert_eq!(computed(), 1, "L1 hits must not summarize");

        // A promoted disk blob is summarized once more, to the same value.
        let restarted: TieredCache<CsrMatrix> = TieredCache::new(open());
        let (warm, tier) = restarted.get(1).unwrap();
        assert_eq!(tier, Tier::Disk);
        assert_eq!(warm.summary(), cold.summary());
        restarted.get(1).unwrap();
        assert_eq!(computed(), 2);
        assert!(restarted.get(2).is_none());
        assert_eq!(computed(), 2, "a miss enters nothing");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compute_error_is_propagated_and_not_cached() {
        let (store, dir) = temp_store("error");
        let cache: TieredCache<CsrMatrix> = TieredCache::new(store);
        let err = cache
            .get_or_compute(3, || Err::<CsrMatrix, _>("boom"))
            .unwrap_err();
        assert_eq!(err, "boom");
        assert!(cache.get(3).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn symmetrize_cached_hits_skip_the_kernel() {
        let (store, dir) = temp_store("sym");
        let metrics = MetricsRegistry::new();
        let g = figure1_graph();
        let fp = graph_fingerprint(&g);
        let method = SymMethod::Bibliometric { threshold: 0.0 };
        let token = CancelToken::new();

        let cache: TieredCache<CsrMatrix> = TieredCache::new(Arc::clone(&store));
        let (cold, tier, key) =
            symmetrize_cached(&cache, &g, fp, &method, None, &token, Some(&metrics)).unwrap();
        assert_eq!(tier, Tier::Computed);
        let spgemm_after_cold = metrics.counter("spgemm.calls").get();
        assert!(spgemm_after_cold > 0, "bibliometric must run SpGEMM cold");

        // Restart (fresh L1, same disk): same key, same bytes, no SpGEMM.
        let cache2: TieredCache<CsrMatrix> = TieredCache::new(Arc::clone(&store));
        let (warm, tier, key2) =
            symmetrize_cached(&cache2, &g, fp, &method, None, &token, Some(&metrics)).unwrap();
        assert_eq!(tier, Tier::Disk);
        assert_eq!(key, key2);
        assert_eq!(*warm, *cold);
        assert_eq!(
            metrics.counter("spgemm.calls").get(),
            spgemm_after_cold,
            "a store hit must not run SpGEMM"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_cached_roundtrips_and_chains_keys() {
        let (store, dir) = temp_store("cluster");
        let g = figure1_graph();
        let fp = graph_fingerprint(&g);
        let token = CancelToken::new();
        let sym_cache: TieredCache<CsrMatrix> = TieredCache::new(Arc::clone(&store));
        let (adj, _, sym_key) = symmetrize_cached(
            &sym_cache,
            &g,
            fp,
            &SymMethod::PlusTranspose,
            None,
            &token,
            None,
        )
        .unwrap();
        let ungraph = UnGraph::from_symmetric_unchecked((*adj).clone());
        let clusterer = Clusterer::Metis { k: 2 };

        let cl_cache: TieredCache<Clustering> = TieredCache::new(Arc::clone(&store));
        let (c1, tier, ckey) =
            cluster_cached(&cl_cache, &ungraph, sym_key, &clusterer, &token, None).unwrap();
        assert_eq!(tier, Tier::Computed);
        assert_ne!(ckey, sym_key, "cluster key must chain off the sym key");

        let cl_cache2: TieredCache<Clustering> = TieredCache::new(Arc::clone(&store));
        let (c2, tier, _) =
            cluster_cached(&cl_cache2, &ungraph, sym_key, &clusterer, &token, None).unwrap();
        assert_eq!(tier, Tier::Disk);
        assert_eq!(*c1, *c2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancelled_token_fails_a_cold_request_but_not_a_hit() {
        let (store, dir) = temp_store("cancel");
        let g = figure1_graph();
        let fp = graph_fingerprint(&g);
        let method = SymMethod::PlusTranspose;
        let cancelled = CancelToken::new();
        cancelled.cancel();

        let cache: TieredCache<CsrMatrix> = TieredCache::new(Arc::clone(&store));
        let err = symmetrize_cached(&cache, &g, fp, &method, None, &cancelled, None).unwrap_err();
        assert!(err.is_cancelled());

        // Warm the store, then a cancelled token still gets the hit: no
        // kernel runs, so there is nothing to cancel.
        let token = CancelToken::new();
        symmetrize_cached(&cache, &g, fp, &method, None, &token, None).unwrap();
        let cache2: TieredCache<CsrMatrix> = TieredCache::new(Arc::clone(&store));
        let (_, tier, _) =
            symmetrize_cached(&cache2, &g, fp, &method, None, &cancelled, None).unwrap();
        assert_eq!(tier, Tier::Disk);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_changes_the_artifact_address_for_similarity_methods() {
        let method = SymMethod::Bibliometric { threshold: 0.0 };
        assert_ne!(
            symmetrize_key(1, &method, None),
            symmetrize_key(1, &method, Some(10)),
        );
        assert_eq!(
            symmetrize_key(1, &SymMethod::PlusTranspose, None),
            symmetrize_key(1, &SymMethod::PlusTranspose, Some(10)),
            "A+A' ignores the budget, so its address must too"
        );
    }
}
