//! Live heap bytes, counted at the allocator: the binary installs
//! [`Counting`] as its global allocator, which forwards to the system
//! allocator and keeps a running total of bytes handed out and not yet
//! returned. Everything the crates allocate passes through it, slab pages
//! included.
//!
//! The resident set size was tried first; it varies by 7 to 98 % between
//! runs of the same code (page granularity, thread stacks, allocator
//! arenas), where the byte count of a single-threaded build repeats
//! exactly.
//!
//! Each thread counts in a thread-local cell, which costs about a
//! nanosecond per call and touches no shared cache line, and adds its cell
//! to the shared total when it calls [`live_bytes`]. So the total covers
//! what the calling thread has done, and what other threads had done when
//! they last called it: read it around single-threaded work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

thread_local! {
    /// Bytes this thread has allocated minus bytes it has freed since it
    /// last called [`live_bytes`].
    static UNPUBLISHED: Cell<isize> = const { Cell::new(0) };
}

static PUBLISHED: AtomicIsize = AtomicIsize::new(0);

#[inline(always)]
fn count(bytes: isize) {
    // A thread that is being torn down may have lost the cell; its last few
    // frees then go uncounted.
    let _ = UNPUBLISHED.try_with(|c| c.set(c.get() + bytes));
}

/// Bytes allocated and not freed, as far as published: the caller's count
/// is published now. 0 if [`Counting`] is not the global allocator.
pub fn live_bytes() -> isize {
    let mine = UNPUBLISHED.with(|c| c.replace(0));
    PUBLISHED.fetch_add(mine, Ordering::Relaxed) + mine
}

/// The system allocator with a byte count.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only a
// thread-local cell and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract is `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract is `System.alloc_zeroed`'s.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract is `System.realloc`'s.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}
