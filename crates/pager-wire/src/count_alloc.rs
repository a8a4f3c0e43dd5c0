//! A counting global allocator for allocation-budget benchmarks
//! (feature `count-alloc`; never compiled into production builds).
//!
//! Install it in a benchmark binary:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: pager_wire::count_alloc::CountingAlloc =
//!     pager_wire::count_alloc::CountingAlloc;
//! ```
//!
//! then bracket the section under test with [`reset`] /
//! [`allocations`]. Counters are thread-local, so other threads'
//! allocations don't pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// A [`System`]-backed allocator that counts this thread's
/// allocations.
pub struct CountingAlloc;

fn bump() {
    // try_with: the allocator runs during TLS setup/teardown too;
    // those allocations are simply not counted.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates every operation to `System`; the counter updates
// touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds the GlobalAlloc contract (valid layout).
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same layout the caller validated, handed to System.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds the GlobalAlloc contract (valid layout).
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same layout the caller validated, handed to System.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: caller upholds the GlobalAlloc contract (ptr was
    // allocated here with `layout`, `new_size` is valid).
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: every allocation delegates to System, so ptr/layout
        // are a valid System allocation; arguments pass unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: caller upholds the GlobalAlloc contract (ptr was
    // allocated here with `layout`).
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: every allocation delegates to System, so ptr/layout
        // are a valid System allocation; arguments pass unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Zeroes this thread's counter.
pub fn reset() {
    let _ = ALLOCATIONS.try_with(|c| c.set(0));
}

/// Heap allocations (including reallocations) on this thread since
/// the last [`reset`].
#[must_use]
pub fn allocations() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}
