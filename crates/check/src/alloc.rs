//! A counting global allocator for allocation-budget tests.
//!
//! [`Counting`] wraps [`System`] and counts, per thread, every allocation
//! (and every `realloc`, which may move the block) with its requested
//! size. A test binary installs it and wraps the code under test in
//! [`measure`]:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: check::alloc::Counting = check::alloc::Counting;
//!
//! let ((), counts) = check::alloc::measure(|| serve_one_request());
//! assert!(counts.allocs <= 10);
//! ```
//!
//! Counts are per thread, so tests running in parallel threads of one
//! binary do not see each other's allocations. In a binary that does not
//! install the allocator every count stays zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The counting allocator.
pub struct Counting;

/// Allocations made on one thread over a stretch of code.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Allocations and reallocations.
    pub allocs: u64,
    /// Bytes they requested.
    pub bytes: u64,
    /// The largest single request, in bytes.
    pub largest: u64,
}

// `const` initialisers: touching these never allocates and registers no
// destructor, so the allocator can use them re-entrantly.
thread_local! {
    static COUNTS: Cell<AllocCounts> = const {
        Cell::new(AllocCounts { allocs: 0, bytes: 0, largest: 0 })
    };
}

fn note(size: usize) {
    // `try_with` fails only while the thread is being torn down; those
    // allocations go uncounted rather than aborting the process.
    let _ = COUNTS.try_with(|c| {
        let mut v = c.get();
        v.allocs += 1;
        v.bytes += size as u64;
        v.largest = v.largest.max(size as u64);
        c.set(v);
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches
// only a const-initialised thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded with the caller's valid layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded with the caller's valid layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`, and `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` and returns its result with the allocations the calling
/// thread made inside it.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, AllocCounts) {
    let before = COUNTS.with(|c| c.replace(AllocCounts::default()));
    let out = f();
    let during = COUNTS.with(Cell::get);
    COUNTS.with(|c| {
        c.set(AllocCounts {
            allocs: before.allocs + during.allocs,
            bytes: before.bytes + during.bytes,
            largest: before.largest.max(during.largest),
        });
    });
    (out, during)
}
