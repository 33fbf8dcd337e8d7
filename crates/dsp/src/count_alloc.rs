//! A counting global allocator for zero-allocation regression tests.
//!
//! The hot-path contract (DESIGN.md §8) is that steady-state simulation
//! slots perform **zero** heap allocations. That property is only testable
//! if something counts allocator calls; [`CountingAllocator`] wraps the
//! system allocator and bumps a counter on every `alloc`/`realloc`/
//! `alloc_zeroed`. Install it in a test or bench binary:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator;
//!
//! let before = allocation_count();
//! hot_path();
//! assert_eq!(allocation_count() - before, 0);
//! ```
//!
//! The counter is per thread: each thread sees only the allocations it
//! made itself. The test harness runs tests in parallel on separate
//! threads, so one test's allocations never land in another's delta, and
//! a zero delta is exact, not a race. The flip side is that allocations
//! on any other thread go uncounted, so each zero-alloc test must drive
//! its hot loop on its own (the test's) thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialized and drop-free: reading or bumping it never
    // allocates, so the allocator can touch it without recursing.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` rather than `with`: the allocator can run during thread
    // teardown, and a count missed there is outside any measured loop.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// Number of heap allocations (`alloc` + `realloc` + `alloc_zeroed`
/// calls) the calling thread has made since it started, when
/// [`CountingAllocator`] is installed as the global allocator. Always 0
/// otherwise.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

/// A [`GlobalAlloc`] that forwards to [`System`] and counts allocations
/// per thread.
pub struct CountingAllocator;

// SAFETY: pure forwarding to `System`, plus a bump of a const-initialized
// thread-local `Cell` (no allocation, no reentrancy); all GlobalAlloc
// contract obligations are inherited from `System`.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotonic() {
        // Without the allocator installed the counter stays flat, but the
        // API must still be callable and monotonic.
        let a = allocation_count();
        let b = allocation_count();
        assert!(b >= a);
    }
}
