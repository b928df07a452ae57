//! A counting global allocator for the allocation gates
//! (`scheduler_allocation.rs`, `observability.rs`), counted **per thread**.
//!
//! The test harness runs a binary's tests on parallel threads, and a
//! process-wide counter charges a gate for whatever its siblings allocate
//! inside its measured window. Each thread therefore counts its own
//! `alloc`/`realloc` calls, and a gate reads only the counter of the thread
//! it runs on: the gates pass or fail the same way at any `--test-threads`.
//! (A gate that moved its measured work to another thread would read 0 —
//! the engine rounds measured here are single-threaded.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisation and no destructor: reading it never allocates
    // and never runs lazy set-up, which an allocator must not re-enter.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Heap allocations (`alloc` + `realloc`) the calling thread has made.
pub fn thread_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn count_one() {
    // `try_with`: a thread that is being torn down may still free and
    // allocate after its thread-locals are gone.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

/// Forwards to [`System`], counting per thread.
pub struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches only a `Cell` in the calling
// thread's own storage and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}
