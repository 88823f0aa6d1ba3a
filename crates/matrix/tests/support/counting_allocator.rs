//! A counting `#[global_allocator]` for test binaries that hold a piece
//! of code to an allocation count, or to the bytes it allocates, instead
//! of a timer. Not a test target itself: a binary includes it with
//! `#[path] mod counting_allocator;` (`allocations.rs` next door,
//! `cfpq-service`'s `observability.rs`).
//!
//! The counters are per thread, so the harness's other test threads do
//! not disturb a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes` bytes.
fn note_allocation(bytes: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    let _ = BYTES.try_with(|count| count.set(count.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the only addition is two thread-local counter bumps, which allocate
// nothing (`const`-initialized `Cell<usize>`s).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        // SAFETY: the caller's contract is the system allocator's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // One allocation of the new size.
        note_allocation(new_size);
        // SAFETY: the caller's contract is the system allocator's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) `f` performs on this thread.
pub fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Bytes `f` allocates on this thread: the size of every allocation and
/// the new size of every reallocation, whether freed again or not.
#[allow(dead_code)] // `observability.rs` counts allocations only
pub fn allocated_bytes<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (BYTES.with(Cell::get) - before, out)
}
