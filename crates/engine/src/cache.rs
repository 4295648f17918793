//! In-memory, content-addressed artifact cache with in-flight
//! deduplication.
//!
//! The cache maps a stable 64-bit key (see [`crate::fingerprint`]) to a
//! shared artifact. Its job in the pipeline engine is to make parameter
//! sweeps cheap: a 4-method × N-clusterer sweep issues 4N symmetrize
//! stages, but only 4 distinct keys, so 4 computations run and the rest
//! are hits.
//!
//! Because stages execute on a worker pool, two workers can ask for the
//! same key *concurrently* before either has produced the artifact. A
//! plain map would compute twice. [`ArtifactCache::get_or_compute`]
//! instead records an in-flight marker under the key; later requesters
//! block on a condvar until the first computation lands, then take the
//! shared result (counted as a hit — no duplicate work happened).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Slot states for one key.
enum Slot<T> {
    /// Some worker is computing this artifact right now.
    InFlight,
    /// The artifact is available.
    Ready(Arc<T>),
}

/// Hit/miss counters, snapshot via [`ArtifactCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from a ready or in-flight artifact.
    pub hits: usize,
    /// Requests that ran the compute closure.
    pub misses: usize,
    /// The subset of `hits` that parked behind another worker's in-flight
    /// computation of the same key (concurrent duplicate work avoided).
    pub dedups: usize,
}

/// Thread-safe artifact cache keyed by `u64` content hashes.
pub struct ArtifactCache<T> {
    slots: Mutex<HashMap<u64, Slot<T>>>,
    ready: Condvar,
    hits: AtomicUsize,
    misses: AtomicUsize,
    dedups: AtomicUsize,
}

/// Clears an owned in-flight marker if the computing thread unwinds.
///
/// Without this, a panicking compute closure would leave its `InFlight`
/// slot in place forever and every later requester of the key would park
/// on the condvar with nothing left to wake it — a panic would escalate
/// into a deadlock of unrelated workers.
struct InFlightGuard<'a, T> {
    cache: &'a ArtifactCache<T>,
    key: u64,
    armed: bool,
}

impl<T> Drop for InFlightGuard<'_, T> {
    fn drop(&mut self) {
        if self.armed {
            // Runs during unwinding: never double-panic on a poisoned lock.
            let mut slots = self
                .cache
                .slots
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            slots.remove(&self.key);
            self.cache.ready.notify_all();
        }
    }
}

impl<T> Default for ArtifactCache<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ArtifactCache<T> {
    /// Empty cache.
    pub fn new() -> Self {
        ArtifactCache {
            slots: Mutex::new(HashMap::new()),
            ready: Condvar::new(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            dedups: AtomicUsize::new(0),
        }
    }

    /// Returns the artifact for `key`, computing it with `compute` on a
    /// miss. The boolean is `true` when the value came from the cache
    /// (including waiting out another worker's in-flight computation).
    ///
    /// If `compute` fails, the error is returned to the caller that ran
    /// it and the slot is cleared, so a *later* request will retry rather
    /// than caching the failure. Concurrent waiters of a failed
    /// computation retry the compute themselves.
    pub fn get_or_compute<E>(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<(Arc<T>, bool), E> {
        let mut waited = false;
        loop {
            let mut slots = self.lock();
            match slots.get(&key) {
                Some(Slot::Ready(v)) => {
                    let v = Arc::clone(v);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    if waited {
                        self.dedups.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok((v, true));
                }
                Some(Slot::InFlight) => {
                    waited = true;
                    // Another worker is on it; park until the slot changes,
                    // then re-examine (it may be Ready, or cleared by a
                    // failed computation).
                    #[expect(
                        clippy::expect_used,
                        reason = "mutex/condvar poisoning is fatal by design"
                    )]
                    let _guard = self.ready.wait(slots).expect("cache lock");
                    continue;
                }
                None => {
                    slots.insert(key, Slot::InFlight);
                    drop(slots);
                    break;
                }
            }
        }
        // We own the in-flight marker: compute outside the lock, with a
        // guard that clears the marker should `compute` panic.
        let mut guard = InFlightGuard {
            cache: self,
            key,
            armed: true,
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        let outcome = compute();
        let mut slots = self.lock();
        guard.armed = false; // both paths below settle the slot themselves
        match outcome {
            Ok(v) => {
                let v = Arc::new(v);
                slots.insert(key, Slot::Ready(Arc::clone(&v)));
                self.ready.notify_all();
                Ok((v, false))
            }
            Err(e) => {
                slots.remove(&key);
                self.ready.notify_all();
                Err(e)
            }
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "mutex/condvar poisoning is fatal by design"
    )]
    fn lock(&self) -> MutexGuard<'_, HashMap<u64, Slot<T>>> {
        self.slots.lock().expect("cache lock")
    }

    /// Fetches without computing.
    pub fn get(&self, key: u64) -> Option<Arc<T>> {
        let slots = self.lock();
        match slots.get(&key) {
            Some(Slot::Ready(v)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(v))
            }
            _ => None,
        }
    }

    /// Number of ready artifacts.
    pub fn len(&self) -> usize {
        let slots = self.lock();
        slots
            .values()
            .filter(|s| matches!(s, Slot::Ready(_)))
            .count()
    }

    /// Whether no artifact is ready.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            dedups: self.dedups.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let cache: ArtifactCache<u32> = ArtifactCache::new();
        let (v, hit) = cache.get_or_compute(1, || Ok::<_, ()>(7)).unwrap();
        assert_eq!((*v, hit), (7, false));
        let (v, hit) = cache
            .get_or_compute(1, || -> Result<u32, ()> { panic!("must not recompute") })
            .unwrap();
        assert_eq!((*v, hit), (7, true));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                dedups: 0,
            }
        );
    }

    #[test]
    fn distinct_keys_compute_independently() {
        let cache: ArtifactCache<u32> = ArtifactCache::new();
        cache.get_or_compute(1, || Ok::<_, ()>(1)).unwrap();
        cache.get_or_compute(2, || Ok::<_, ()>(2)).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn failed_compute_is_not_cached() {
        let cache: ArtifactCache<u32> = ArtifactCache::new();
        let err = cache
            .get_or_compute(9, || Err::<u32, _>("boom"))
            .unwrap_err();
        assert_eq!(err, "boom");
        let (v, hit) = cache.get_or_compute(9, || Ok::<_, &str>(3)).unwrap();
        assert_eq!((*v, hit), (3, false));
    }

    #[test]
    fn panicking_compute_clears_slot_for_later_requests() {
        let cache: Arc<ArtifactCache<u32>> = Arc::new(ArtifactCache::new());
        let c = Arc::clone(&cache);
        let outcome = std::thread::spawn(move || {
            c.get_or_compute(7, || -> Result<u32, ()> { panic!("kernel bug") })
        })
        .join();
        assert!(outcome.is_err(), "panic should propagate to the computer");
        // The slot must be clear: a later request recomputes instead of
        // parking forever behind a dead in-flight marker.
        let (v, hit) = cache.get_or_compute(7, || Ok::<_, ()>(11)).unwrap();
        assert_eq!((*v, hit), (11, false));
    }

    #[test]
    fn waiter_is_released_when_computer_panics() {
        let cache: Arc<ArtifactCache<u32>> = Arc::new(ArtifactCache::new());
        let c1 = Arc::clone(&cache);
        let computer = std::thread::spawn(move || {
            let _ = c1.get_or_compute(3, || -> Result<u32, ()> {
                std::thread::sleep(std::time::Duration::from_millis(40));
                panic!("boom mid-flight")
            });
        });
        // Give the computer time to claim the slot, then pile on a waiter.
        std::thread::sleep(std::time::Duration::from_millis(10));
        let c2 = Arc::clone(&cache);
        let waiter = std::thread::spawn(move || c2.get_or_compute(3, || Ok::<_, ()>(5)).unwrap());
        let (v, _) = waiter.join().expect("waiter must not deadlock or die");
        assert_eq!(*v, 5);
        assert!(computer.join().is_err());
    }

    #[test]
    fn concurrent_requests_compute_once() {
        use std::sync::atomic::AtomicUsize;
        let cache: Arc<ArtifactCache<u64>> = Arc::new(ArtifactCache::new());
        let computes = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let computes = Arc::clone(&computes);
            handles.push(std::thread::spawn(move || {
                let (v, _) = cache
                    .get_or_compute(5, || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window so waiters actually park.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok::<_, ()>(99u64)
                    })
                    .unwrap();
                *v
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 99);
        }
        assert_eq!(computes.load(Ordering::SeqCst), 1, "duplicate compute");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
        // Every hit parked behind the single in-flight computation.
        assert_eq!(stats.dedups, 7);
    }

    #[test]
    fn sequential_hits_are_not_dedups() {
        let cache: ArtifactCache<u32> = ArtifactCache::new();
        cache.get_or_compute(1, || Ok::<_, ()>(1)).unwrap();
        for _ in 0..3 {
            cache.get_or_compute(1, || Ok::<_, ()>(1)).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.dedups, 0, "no concurrent in-flight wait happened");
    }
}
