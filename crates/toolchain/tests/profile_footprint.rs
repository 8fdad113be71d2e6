//! Footprint gate for the unit-profile cache: an entry keeps what the
//! executor reads back (per-core rates and the retired sites' bit
//! samples), not the profiler's per-core count tables, which alone take
//! 264 sites × 8 B × 24 cores = 50.7 KB at 24 cores.
//!
//! A counting global allocator tracks the net heap bytes of each thread;
//! the gate profiles the whole suite at 24 cores on the test's own thread
//! into a fresh cache and bounds the bytes the cache still holds
//! afterwards.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use toolchain::{ProfileCache, Suite};

/// Upper bound on the heap bytes one 24-core entry retains, cache
/// bookkeeping included. An entry measures about 4.4 KB; one that kept
/// the whole profiler measured 86 KB.
const MAX_BYTES_PER_ENTRY: usize = 8 * 1024;

struct Counting;

thread_local! {
    /// Bytes allocated minus bytes freed by this thread.
    static NET_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    // `try_with`: a thread may free memory after its locals are gone.
    let _ = NET_BYTES.try_with(|n| n.set(n.get() + delta));
}

fn net_bytes() -> isize {
    NET_BYTES.with(Cell::get)
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        track(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn cached_unit_profiles_retain_little_heap() {
    let suite = Suite::standard();
    let cache = ProfileCache::default();
    let before = net_bytes();
    for tc in suite.testcases() {
        cache.profile(tc, 24);
    }
    let retained = net_bytes() - before;
    let entries = cache.stats().entries;
    assert_eq!(entries, suite.len());
    let per_entry = retained as usize / entries;
    println!("{entries} entries at 24 cores retain {retained} B, {per_entry} B each");
    assert!(
        per_entry < MAX_BYTES_PER_ENTRY,
        "a cached 24-core unit profile retains {per_entry} B (bound {MAX_BYTES_PER_ENTRY} B)"
    );
}
