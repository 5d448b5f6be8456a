//! A counting wrapper around the system allocator.
//!
//! Counting is off until [`set_counting`] turns it on, so an untraced run
//! pays one relaxed load per allocation. Threads that call [`exempt_thread`]
//! (the load generator's clients) are never counted, so the tally is the
//! program's own heap traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates and is safe from inside the allocator.
    static EXEMPT: Cell<bool> = const { Cell::new(false) };
}

fn record(size: usize) {
    if COUNTING.load(Ordering::Relaxed) && !EXEMPT.with(Cell::get) {
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches atomics and a const thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns counting on or off for every non-exempt thread.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Bytes requested by non-exempt threads while counting was on.
pub fn bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Excludes the calling thread from the tally for the rest of its life.
pub fn exempt_thread() {
    EXEMPT.with(|e| e.set(true));
}
