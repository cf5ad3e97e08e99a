//! A counting global allocator: heap allocations and bytes requested by
//! the calling thread while [`count`] is running.
//!
//! Allocation counts are exact where wall time is not: for a fixed seed
//! `nox-sim.allocs_per_cycle` repeats bit for bit, so a change to it is a
//! change to the code and never noise. Counting is per thread, so other
//! threads (test harness, daemon) never leak into a measurement, and it
//! is off except inside [`count`], where it costs two thread-local adds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised `Cell`s without destructors: touching them from
    // inside the allocator can neither allocate nor run after teardown.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus the per-thread counters above.
pub struct Counting;

#[inline]
fn note(size: usize) {
    if ARMED.with(Cell::get) {
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + size as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// thread-local integers and never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's layout is passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` and `layout` come from an earlier call on this
        // allocator, which handed out `System` blocks.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` with counting armed on this thread and adds what it
/// allocated to `into` as `(allocations, bytes)`.
pub fn count<R>(into: &mut (u64, u64), f: impl FnOnce() -> R) -> R {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    into.0 += ALLOCS.with(Cell::get) - before.0;
    into.1 += BYTES.with(Cell::get) - before.1;
    r
}
