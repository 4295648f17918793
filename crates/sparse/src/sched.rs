//! Work-stealing block scheduler and the one worker pool of the SpGEMM
//! kernels.
//!
//! Partitioning output rows up front by a FLOP estimate degrades badly on
//! the power-law degree distributions the paper targets (§3.5): one
//! hub-heavy chunk can cost orders of magnitude more than its estimate,
//! leaving every other worker idle. This module schedules dynamically:
//!
//! * work is cut into indexed **blocks** (64-row blocks for the in-memory
//!   driver, one panel tile each for the out-of-core driver);
//! * each worker owns a contiguous range of blocks, packed as `(lo, hi)`
//!   into one `AtomicU64` per worker;
//! * an owner pops blocks from the *front* of its range; a worker that
//!   drains its own range **steals** from the *back* of a victim's range
//!   (classic work-stealing deque ends, so owner and thief rarely contend
//!   on the same block);
//! * both pop and steal are single-CAS operations on the packed word.
//!   Ranges only ever shrink, so there is no ABA hazard.
//!
//! [`run_blocks`] is the only place the crate spawns kernel threads: both
//! drivers hand it a per-block closure and get the block results back in
//! index order. Scheduling order is nondeterministic, but because assembly
//! is by block index, kernel *output* (and every per-row work counter) is
//! bit-identical for any thread count. The only scheduling-dependent
//! observable is the steal count, exported as the `spgemm.sched_steals`
//! metric and deliberately excluded from the golden-counts test's keys.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::SparseError;
use crate::spgemm::SpgemmCounts;
use crate::Result;

/// Rows per scheduling block. Small enough that a single hub block cannot
/// serialize the tail of a run, large enough that the CAS traffic per row
/// is negligible.
pub(crate) const DEFAULT_BLOCK_ROWS: usize = 64;

#[inline]
fn pack(lo: u32, hi: u32) -> u64 {
    ((lo as u64) << 32) | hi as u64
}

#[inline]
fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// One packed `[lo, hi)` block range per worker.
pub(crate) struct BlockQueues {
    ranges: Vec<AtomicU64>,
}

impl BlockQueues {
    /// Splits `n_blocks` into `n_workers` contiguous ranges (first blocks
    /// go to worker 0, matching the deterministic assembly order).
    pub(crate) fn new(n_blocks: usize, n_workers: usize) -> Self {
        assert!(n_workers > 0);
        assert!(n_blocks < u32::MAX as usize, "block count overflows u32");
        let per = n_blocks / n_workers;
        let extra = n_blocks % n_workers;
        let mut ranges = Vec::with_capacity(n_workers);
        let mut lo = 0usize;
        for w in 0..n_workers {
            let len = per + usize::from(w < extra);
            ranges.push(AtomicU64::new(pack(lo as u32, (lo + len) as u32)));
            lo += len;
        }
        BlockQueues { ranges }
    }

    /// Pops the next block from the front of worker `w`'s own range.
    pub(crate) fn pop_own(&self, w: usize) -> Option<usize> {
        let slot = &self.ranges[w];
        let mut cur = slot.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            match slot.compare_exchange_weak(
                cur,
                pack(lo + 1, hi),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(lo as usize),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Steals one block from the back of another worker's range. Victims
    /// are scanned in a deterministic order starting after `w`; returns
    /// `None` only when every range is empty.
    pub(crate) fn steal(&self, w: usize) -> Option<usize> {
        let n = self.ranges.len();
        for offset in 1..n {
            let victim = (w + offset) % n;
            let slot = &self.ranges[victim];
            let mut cur = slot.load(Ordering::Acquire);
            loop {
                let (lo, hi) = unpack(cur);
                if lo >= hi {
                    break;
                }
                match slot.compare_exchange_weak(
                    cur,
                    pack(lo, hi - 1),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return Some((hi - 1) as usize),
                    Err(seen) => cur = seen,
                }
            }
        }
        None
    }
}

/// Resolves an `n_threads` request (0 = one per available core) to the
/// worker count for `n_items` units of work: inputs too small to amortize
/// a spawn run on the calling thread alone.
pub(crate) fn worker_count(n_threads: usize, n_items: usize) -> usize {
    let n_threads = if n_threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        n_threads
    };
    if n_items < 2 * n_threads {
        1
    } else {
        n_threads
    }
}

fn worker_panic(payload: Box<dyn std::any::Any + Send>) -> SparseError {
    let text = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "(non-string panic payload)".to_string()
    };
    SparseError::WorkerPanic(text)
}

/// The worker pool: runs `work(block, scratch, counts)` once for every
/// block in `0..n_blocks` on `n_workers` workers and returns the results
/// in block order plus the merged work counters (with the number of
/// blocks a non-owner executed in [`SpgemmCounts::steals`]).
///
/// Each worker builds one scratch with `new_scratch` and reuses it across
/// every block it executes, popping its own range first and stealing once
/// that is drained. One worker runs on the calling thread without a spawn.
/// A panic inside `work` is caught at the worker boundary and surfaces as
/// [`SparseError::WorkerPanic`] — a poisoned kernel fails the call, not
/// the process — and a real failure outranks [`SparseError::Cancelled`]:
/// when a worker dies, its siblings usually just see the token trip
/// afterwards.
pub(crate) fn run_blocks<S, T, N, W>(
    n_blocks: usize,
    n_workers: usize,
    new_scratch: N,
    work: W,
) -> Result<(Vec<T>, SpgemmCounts)>
where
    T: Send,
    N: Fn() -> S + Sync,
    W: Fn(usize, &mut S, &mut SpgemmCounts) -> Result<T> + Sync,
{
    let n_workers = n_workers.clamp(1, n_blocks.max(1));
    let queues = BlockQueues::new(n_blocks, n_workers);
    let worker = |w: usize| -> Result<(Vec<(usize, T)>, SpgemmCounts)> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut scratch = new_scratch();
            let mut done = Vec::new();
            let mut counts = SpgemmCounts::default();
            loop {
                let (block, stolen) = match queues.pop_own(w) {
                    Some(b) => (b, false),
                    None => match queues.steal(w) {
                        Some(b) => (b, true),
                        None => break,
                    },
                };
                counts.steals += u64::from(stolen);
                done.push((block, work(block, &mut scratch, &mut counts)?));
            }
            Ok((done, counts))
        }))
        .unwrap_or_else(|payload| Err(worker_panic(payload)))
    };
    let worker_results = if n_workers == 1 {
        vec![worker(0)]
    } else {
        crossbeam::thread::scope(|scope| {
            let worker = &worker;
            let handles: Vec<_> = (0..n_workers)
                .map(|w| scope.spawn(move |_| worker(w)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| Err(worker_panic(p))))
                .collect()
        })
        .map_err(worker_panic)?
    };

    let mut blocks: Vec<(usize, T)> = Vec::with_capacity(n_blocks);
    let mut counts = SpgemmCounts::default();
    let mut failure: Option<SparseError> = None;
    for result in worker_results {
        match result {
            Ok((done, worker_counts)) => {
                blocks.extend(done);
                counts.merge(&worker_counts);
            }
            Err(e) if failure.is_none() || failure == Some(SparseError::Cancelled) => {
                failure = Some(e);
            }
            Err(_) => {}
        }
    }
    if let Some(e) = failure {
        return Err(e);
    }
    blocks.sort_unstable_by_key(|b| b.0);
    Ok((blocks.into_iter().map(|b| b.1).collect(), counts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn serial_drain_yields_every_block_once() {
        let q = BlockQueues::new(10, 3);
        let mut seen = Vec::new();
        for w in 0..3 {
            while let Some(b) = q.pop_own(w) {
                seen.push(b);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(q.steal(0), None);
    }

    #[test]
    fn stealing_takes_from_victim_tail() {
        let q = BlockQueues::new(8, 2); // worker 0: [0,4), worker 1: [4,8)
        assert_eq!(q.pop_own(0), Some(0));
        // Worker 0 exhausted its range artificially: steal from worker 1.
        for _ in 0..3 {
            q.pop_own(0);
        }
        assert_eq!(q.pop_own(0), None);
        assert_eq!(q.steal(0), Some(7));
        assert_eq!(q.steal(0), Some(6));
        assert_eq!(q.pop_own(1), Some(4));
        assert_eq!(q.pop_own(1), Some(5));
        assert_eq!(q.pop_own(1), None);
        assert_eq!(q.steal(1), None);
    }

    #[test]
    fn concurrent_drain_is_exactly_once() {
        let n_blocks = 503; // prime, so ranges are uneven
        let n_workers = 4;
        let q = BlockQueues::new(n_blocks, n_workers);
        let claimed = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for w in 0..n_workers {
                let q = &q;
                let claimed = &claimed;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    while let Some(b) = q.pop_own(w).or_else(|| q.steal(w)) {
                        mine.push(b);
                    }
                    claimed.lock().unwrap().extend(mine);
                });
            }
        });
        let got = claimed.into_inner().unwrap();
        assert_eq!(got.len(), n_blocks);
        let distinct: HashSet<usize> = got.iter().copied().collect();
        assert_eq!(distinct.len(), n_blocks, "a block was claimed twice");
    }

    #[test]
    fn zero_blocks_is_empty_everywhere() {
        let q = BlockQueues::new(0, 2);
        assert_eq!(q.pop_own(0), None);
        assert_eq!(q.pop_own(1), None);
        assert_eq!(q.steal(0), None);
    }
}
