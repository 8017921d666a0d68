//! A counting global allocator.
//!
//! Wraps [`System`] and counts every allocation (and every `realloc`, which
//! may move the block) with its requested size, per thread. A thread-local
//! "inside a rig call" flag, set by [`in_rig`], files each count under the
//! rig or under everything else (the timing engine and the benchmark's own
//! glue between rig calls). Counters only ever grow; take two
//! [`snapshot`]s and subtract.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The allocator the benchmark binary installs.
pub struct Counting;

/// Allocation totals of the calling thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Allocations made inside rig calls.
    pub rig_allocs: u64,
    /// Bytes requested by those allocations.
    pub rig_bytes: u64,
    /// Allocations made anywhere else.
    pub other_allocs: u64,
    /// Bytes requested by those allocations.
    pub other_bytes: u64,
}

impl std::ops::AddAssign for AllocCounts {
    fn add_assign(&mut self, b: AllocCounts) {
        self.rig_allocs += b.rig_allocs;
        self.rig_bytes += b.rig_bytes;
        self.other_allocs += b.other_allocs;
        self.other_bytes += b.other_bytes;
    }
}

impl AllocCounts {
    /// The allocations made since `earlier`.
    pub fn since(&self, earlier: &AllocCounts) -> AllocCounts {
        AllocCounts {
            rig_allocs: self.rig_allocs - earlier.rig_allocs,
            rig_bytes: self.rig_bytes - earlier.rig_bytes,
            other_allocs: self.other_allocs - earlier.other_allocs,
            other_bytes: self.other_bytes - earlier.other_bytes,
        }
    }

    /// Allocations of either kind.
    pub fn allocs(&self) -> u64 {
        self.rig_allocs + self.other_allocs
    }

    /// Bytes of either kind.
    pub fn bytes(&self) -> u64 {
        self.rig_bytes + self.other_bytes
    }
}

// `const` initialisers: touching these never allocates and registers no
// destructor, so the allocator can use them re-entrantly.
thread_local! {
    static IN_RIG: Cell<bool> = const { Cell::new(false) };
    static COUNTS: Cell<AllocCounts> = const {
        Cell::new(AllocCounts { rig_allocs: 0, rig_bytes: 0, other_allocs: 0, other_bytes: 0 })
    };
}

fn note(size: usize) {
    // `try_with` fails only while the thread is being torn down; those
    // allocations go uncounted rather than aborting the process.
    let _ = IN_RIG.try_with(|in_rig| {
        let in_rig = in_rig.get();
        let _ = COUNTS.try_with(|c| {
            let mut v = c.get();
            if in_rig {
                v.rig_allocs += 1;
                v.rig_bytes += size as u64;
            } else {
                v.other_allocs += 1;
                v.other_bytes += size as u64;
            }
            c.set(v);
        });
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches
// only const-initialised thread-locals and never allocates.
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

/// The calling thread's totals so far.
pub fn snapshot() -> AllocCounts {
    COUNTS.with(Cell::get)
}

/// Runs `f` with the calling thread's allocations filed under the rig.
pub fn in_rig<T>(f: impl FnOnce() -> T) -> T {
    let was = IN_RIG.with(|c| c.replace(true));
    let out = f();
    IN_RIG.with(|c| c.set(was));
    out
}

/// Peak resident set size of this process in MiB, from `VmHWM` in
/// `/proc/self/status`; `None` where that file is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
