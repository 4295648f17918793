//! Heap lock on the symmetric product: the SYRK output is held once.
//!
//! A counting global allocator tracks live and peak heap bytes. The
//! binary holds exactly one `#[test]`, so no concurrent test moves the
//! counters. It asserts two things:
//!
//! * during one Bibliometric symmetrize whose output dwarfs its inputs,
//!   the peak live heap above the starting level stays within 1.25× the
//!   output's bytes. The mirror fills the lower triangle in place, so the
//!   upper triangle and the full matrix are never held side by side
//!   (that would be ≈ 1.5×);
//! * `validate_symmetric` on that output adds at most `16 · (n + 1)`
//!   bytes: it walks the stored entries with one cursor per row and
//!   builds no transpose.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use symclust::core::{Bibliometric, BibliometricOptions, Symmetrizer};
use symclust::graph::DiGraph;
use symclust::sparse::{CsrMatrix, PanelPlan, Tuning};

/// Forwards to the system allocator, keeping the live byte count and its
/// high-water mark. A `realloc` counts as its size change.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, SeqCst) + bytes;
    PEAK.fetch_max(live, SeqCst);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, SeqCst);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the peak live heap bytes it added
/// above the level it started at.
fn peak_added<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.load(SeqCst);
    PEAK.store(start, SeqCst);
    let out = f();
    (out, PEAK.load(SeqCst) - start)
}

/// Bytes of a CSR matrix's three arrays at their lengths.
fn csr_bytes(m: &CsrMatrix) -> usize {
    std::mem::size_of_val(m.indptr())
        + std::mem::size_of_val(m.indices())
        + std::mem::size_of_val(m.values())
}

/// `n` nodes, each citing four of 40 popular targets: ≈ 6 k edges whose
/// bibliographic coupling links about a third of all node pairs.
fn shared_citations(n: usize) -> DiGraph {
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let mut edges = Vec::with_capacity(4 * n);
    for i in 0..n {
        for _ in 0..4 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            edges.push((i, n - 1 - (state >> 33) as usize % 40));
        }
    }
    DiGraph::from_edges(n, &edges).expect("in-range edges")
}

#[test]
fn symmetric_product_is_held_once() {
    let g = shared_citations(1500);
    let bib = Bibliometric {
        options: BibliometricOptions {
            tuning: Tuning {
                threads: 1,
                panel: PanelPlan::default(),
            },
            ..Default::default()
        },
    };
    let (sym, peak) = peak_added(|| bib.symmetrize(&g).expect("bibliometric"));
    let adj = sym.adjacency();
    let (input, output) = (csr_bytes(g.adjacency()), csr_bytes(adj));
    assert!(
        output > 50 * input,
        "output {output} B should dwarf the input {input} B"
    );
    assert!(
        peak * 4 <= output * 5,
        "symmetrize peaked {peak} B above its start, more than 1.25 x its \
         {output} B output ({:.3} x)",
        peak as f64 / output as f64
    );

    let n = adj.n_rows();
    let (valid, peak) = peak_added(|| adj.validate_symmetric());
    valid.expect("bibliometric output is exactly symmetric");
    assert!(
        peak <= 16 * (n + 1),
        "validate_symmetric added {peak} B, more than 16 (n + 1) = {} B",
        16 * (n + 1)
    );
}
