//! The write path does not allocate from the global heap.
//!
//! A counting `#[global_allocator]` counts the calling thread's heap
//! allocations while one thread runs insert/update/remove rounds on each
//! structure, in both lock modes, after a warm-up. Nodes, descriptors and
//! their log blocks come from the epoch layer's slab pool or are kept by
//! their owner, so a warm write allocates nothing — except the `Vec`s the
//! leaftreap's and the abtree's nodes carry, which allocate the same in
//! both modes: a lock-free write adds nothing to what a blocking one
//! allocates.
//!
//! The test is its own binary, with one test, so that no sibling test's
//! thread holds an epoch back (a stuck epoch grows the retire bag, which is
//! a `Vec`) or allocates on a counted thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use flock_api::Map;
use flock_conformance::{exclusive, with_mode};
use flock_core::LockMode;
use flock_ds::abtree::ABTree;
use flock_ds::arttree::ArtTree;
use flock_ds::dlist::DList;
use flock_ds::hashtable::HashTable;
use flock_ds::lazylist::LazyList;
use flock_ds::leaftreap::LeafTreap;
use flock_ds::leaftree::LeafTree;

thread_local! {
    /// Heap allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocations.
struct Counting;

fn count() {
    // A thread's context is gone during its TLS teardown: not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Keys present throughout: the even ones below `2 * PRESENT`.
const PRESENT: u64 = 256;
const WARMUP: u64 = 2_000;
const ROUNDS: u64 = 5_000;

/// Rounds that insert, update and remove one absent (odd) key each.
fn rounds(map: &impl Map<u64, u64>, from: u64, n: u64) {
    for i in from..from + n {
        let k = 2 * (i % PRESENT) + 1;
        assert!(map.insert(k, i), "key {k} absent");
        assert!(map.update(k, i + 1), "key {k} present");
        assert!(map.remove(k), "key {k} present");
    }
}

/// Heap allocations of `ROUNDS` warm rounds on a fresh, pre-filled map.
fn allocations<M: Map<u64, u64>>(make: impl Fn() -> M) -> u64 {
    let map = make();
    for k in 0..PRESENT {
        assert!(map.insert(2 * k, k));
    }
    rounds(&map, 0, WARMUP);
    let before = ALLOCATIONS.get();
    rounds(&map, WARMUP, ROUNDS);
    ALLOCATIONS.get() - before
}

/// `(lock-free, blocking)` allocation counts of `ROUNDS` warm rounds.
fn both<M: Map<u64, u64>>(make: impl Fn() -> M + Copy) -> (u64, u64) {
    let lock_free = Cell::new(0);
    exclusive(|| lock_free.set(allocations(make)));
    let blocking = with_mode(LockMode::Blocking, || allocations(make));
    (lock_free.get(), blocking)
}

#[test]
fn warm_writes_do_not_allocate() {
    let none = [
        ("leaftree", both(LeafTree::<u64, u64>::new)),
        (
            "hashtable",
            both(|| HashTable::<u64, u64>::with_capacity(1024)),
        ),
        ("lazylist", both(LazyList::<u64, u64>::new)),
        ("dlist", both(DList::<u64, u64>::new)),
        ("arttree", both(ArtTree::<u64, u64>::new)),
    ];
    for (name, counts) in none {
        assert_eq!(
            counts,
            (0, 0),
            "{name}: (lock-free, blocking) heap allocations in {ROUNDS} warm rounds"
        );
    }
    // Their nodes' `Vec`s allocate in both modes; the lock-free path adds
    // nothing to that.
    let node_vecs = [
        ("leaftreap", both(LeafTreap::<u64, u64>::new)),
        ("abtree", both(ABTree::<u64, u64>::new)),
    ];
    for (name, (lock_free, blocking)) in node_vecs {
        assert_eq!(
            lock_free, blocking,
            "{name}: lock-free against blocking heap allocations in {ROUNDS} warm rounds"
        );
    }
}
