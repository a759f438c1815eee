//! # flock-epoch — epoch-based memory reclamation for Flock
//!
//! Flock retires memory through an epoch-based collector (paper §6,
//! "Epoch-based collection"): every operation runs inside an *epoch*; retired
//! objects are stamped with the epoch at retire time and freed only once every
//! in-flight operation has moved past that epoch.
//!
//! Two Flock-specific requirements shape this implementation:
//!
//! 1. **Epoch adoption while helping.** When a thread helps another thread's
//!    critical section it takes on the helped thunk's responsibilities, so it
//!    must also take on its epoch: the helper lowers its reservation to
//!    `min(own, thunk's birth epoch)` for the duration of the help and
//!    restores it afterwards ([`EpochGuard::adopt`]). The adopt publishes the
//!    lowered reservation with a `SeqCst` fence *before* the caller
//!    revalidates that the descriptor is still installed, which is what makes
//!    the hand-off sound (`flock_core`'s `descriptor` module docs,
//!    "Lifecycle and hand-off").
//! 2. **Reservation-aware retire/alloc from inside idempotent code.** The
//!    thunk-log machinery in `flock-core` guarantees each logical retire
//!    reaches [`retire`] at most once; this crate only has to stamp, bag and
//!    eventually drop.
//!
//! The collector is the classic three-epoch scheme: a global epoch counter,
//! one published reservation per thread, per-thread retire bags, and the rule
//! that an object stamped `e` is dropped once every active reservation is at
//! least `e + 2`.

#![warn(missing_docs)]

mod collector;
mod guard;
mod indirect;
mod pool;

pub use collector::{
    CollectorStats, EpochStats, QUIESCENT, collector_stats, epoch_stats, try_advance,
};
#[cfg(feature = "model")]
pub use guard::mutants;
pub use guard::{AdoptGuard, EpochGuard, pin, pin_with, pinned_epoch};
pub use indirect::Indirect;
pub use pool::{PoolStats, pool_stats};

use flock_sync::atomic::Ordering;
use flock_sync::thread_ctx::Retired;

/// Model-checker support (see `flock-model`): reset the collector to a
/// deterministic state between executions. Caller contract: no thread is
/// pinned and no model threads are live.
#[cfg(feature = "model")]
pub fn model_reset() {
    collector::model_reset();
}

/// Model-checker support: run one local collection pass now (the cadence
/// heuristics that normally trigger it are too coarse for model scope).
/// Must be called with the calling thread unpinned or about to re-validate.
#[cfg(feature = "model")]
pub fn collect_now() {
    collector::collect_local();
}

/// Allocate `value` for use with [`retire`].
///
/// Served from the paged slab pool (`pool` module) when a size class fits
/// `T` — a pure thread-local magazine pop in the steady state — and from a
/// plain `Box` otherwise. The choice is per-`T` at compile time, so the
/// matching free paths ([`free_now`], [`retire`]) return the memory the
/// same way without any runtime provenance check.
#[inline]
pub fn alloc<T>(value: T) -> *mut T {
    let p: *mut T = match const { pool::class_for::<T>() } {
        Some(class) => {
            let slot = pool::alloc_slot(class).cast::<T>();
            // SAFETY: a fresh class-`class` slot is exclusively ours,
            // class-sized and class-aligned, which covers `T`'s layout
            // (see `pool::CLASS_SIZES`); the write initializes it.
            unsafe { slot.write(value) };
            slot
        }
        None => {
            pool::count_fallback_alloc();
            Box::into_raw(Box::new(value))
        }
    };
    #[cfg(debug_assertions)]
    collector::debug_track::on_alloc(p as usize);
    p
}

/// Immediately free an object allocated with [`alloc`] that was **never
/// shared** with other threads (e.g. the loser of an idempotent-allocate
/// race, which was never published to the log). Pooled slots go straight
/// back to the calling thread's magazine, so idempotent replays recycle
/// the same slot instead of hitting the heap.
///
/// # Safety
///
/// `ptr` must come from [`alloc`], must not have been freed or retired, and
/// no other thread may hold a reference to it.
#[inline]
pub unsafe fn free_now<T>(ptr: *mut T) {
    #[cfg(debug_assertions)]
    collector::debug_track::on_dealloc(ptr as usize, "free_now");
    match const { pool::class_for::<T>() } {
        Some(class) => {
            // SAFETY: exclusive access per contract; dropped exactly once.
            unsafe { std::ptr::drop_in_place(ptr) };
            pool::free_slot(ptr.cast::<u8>(), class);
        }
        // SAFETY: fallback `T`s came from `Box::new` (see `alloc`).
        None => drop(unsafe { Box::from_raw(ptr) }),
    }
}

/// Retire an object: it will be dropped once no in-flight operation can still
/// hold a reference.
///
/// Must be called while pinned (inside an [`EpochGuard`]); debug builds
/// assert this.
///
/// # Safety
///
/// `ptr` must come from [`alloc`], be retired at most once, and be
/// unreachable for new readers (unlinked from all shared structures) at call
/// time.
#[inline]
pub unsafe fn retire<T>(ptr: *mut T) {
    debug_assert!(
        guard::is_pinned(),
        "flock-epoch: retire called outside an epoch guard"
    );
    // Ordering: Relaxed is enough for the stamp *because the caller is
    // pinned*: read-read coherence means this load returns at least the
    // epoch this thread re-validated at pin time, and our own reservation
    // blocks the global epoch from advancing more than one past it — so the
    // stamp is stale by at most one epoch, which the two-epoch reclamation
    // slack absorbs (an object is freed only once every active reservation
    // exceeds `stamp + 1`, and any thread still holding a reference is
    // reserved at `true retire epoch - 1` or older).
    let stamp = collector::global_epoch().load(Ordering::Relaxed);
    collector::bag_retired(Retired {
        ptr: ptr.cast::<u8>(),
        // Drop glue and slot routing are chosen per `T` at compile time:
        // the collector drops in place (when `T` needs it) and returns
        // pooled slots to the *freeing* thread's magazine in a batched
        // push; fallback items are boxed back to the heap by the dropper.
        dropper: const { pool::retired_dropper::<T>() },
        class: const { pool::retired_class::<T>() },
        stamp,
        bytes: std::mem::size_of::<T>() as u32,
    });
}

/// Retire an object without touching any thread-local state: the item goes
/// straight to the global orphan bag. For use from TLS destructors (e.g. a
/// per-thread pool draining at thread exit), where ordinary [`retire`] could
/// trip over already-destroyed thread-locals.
///
/// # Safety
///
/// Same contract as [`retire`], minus the pinning requirement: `ptr` must
/// come from [`alloc`], be retired at most once, and be unreachable for
/// new readers.
pub unsafe fn retire_orphan<T>(ptr: *mut T) {
    // Ordering: SeqCst — unlike `retire`, the caller is *not* pinned, so
    // the coherence argument bounding stamp staleness does not apply; keep
    // the strongest order on this cold (thread-exit) path.
    let stamp = collector::global_epoch().load(Ordering::SeqCst);
    collector::bag_retired_global(Retired {
        ptr: ptr.cast::<u8>(),
        dropper: const { pool::retired_dropper::<T>() },
        class: const { pool::retired_class::<T>() },
        stamp,
        bytes: std::mem::size_of::<T>() as u32,
    });
}

/// Drive the collector until every already-retired object has been freed.
///
/// Requires that no thread is pinned; intended for tests and teardown.
pub fn flush_all() {
    collector::flush_all();
}

/// Debug-build bookkeeping hook: record a heap allocation that will later be
/// handed to [`retire`] without having come from [`alloc`] (e.g. pooled
/// descriptors). No-op in release builds.
#[inline]
pub fn debug_track_alloc<T>(ptr: *mut T) {
    #[cfg(debug_assertions)]
    collector::debug_track::on_alloc(ptr as usize);
    #[cfg(not(debug_assertions))]
    let _ = ptr;
}

/// Debug-build bookkeeping hook: record that a tracked allocation is being
/// freed outside the collector (e.g. returned to a pool). Panics on double
/// free in debug builds; no-op in release builds.
#[inline]
pub fn debug_track_dealloc<T>(ptr: *mut T, who: &str) {
    #[cfg(debug_assertions)]
    collector::debug_track::on_dealloc(ptr as usize, who);
    #[cfg(not(debug_assertions))]
    let _ = (ptr, who);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    struct DropCounter(Arc<AtomicUsize>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Relaxed);
        }
    }

    #[test]
    fn retired_object_is_not_freed_while_pinned_elsewhere() {
        let drops = Arc::new(AtomicUsize::new(0));
        let obj = alloc(DropCounter(Arc::clone(&drops)));

        let g_other = pin(); // a second guard on this thread keeps epoch pinned
        {
            let _g = pin();
            // SAFETY: obj from alloc, never shared, retired once.
            unsafe { retire(obj) };
        }
        // Still pinned by g_other: hammering advance must not drop it.
        for _ in 0..64 {
            try_advance();
        }
        assert_eq!(drops.load(Relaxed), 0, "freed under an active reservation");
        drop(g_other);
        // `flush_all` gives up while any thread is pinned, and sibling
        // tests in this process pin: retry until their pins have passed
        // (bounded, so a genuine leak still fails).
        for _ in 0..400 {
            flush_all();
            if drops.load(Relaxed) == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(drops.load(Relaxed), 1);
    }

    #[test]
    fn flush_drops_everything() {
        let drops = Arc::new(AtomicUsize::new(0));
        const N: usize = 100;
        {
            let _g = pin();
            for _ in 0..N {
                let p = alloc(DropCounter(Arc::clone(&drops)));
                // SAFETY: fresh private allocation, retired once.
                unsafe { retire(p) };
            }
        }
        // As above: sibling tests pin, and `flush_all` gives up while
        // they do (bounded, so a genuine leak still fails).
        for _ in 0..400 {
            flush_all();
            if drops.load(Relaxed) == N {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(drops.load(Relaxed), N);
    }

    #[test]
    fn free_now_drops_immediately() {
        let drops = Arc::new(AtomicUsize::new(0));
        let p = alloc(DropCounter(Arc::clone(&drops)));
        // SAFETY: fresh private allocation.
        unsafe { free_now(p) };
        assert_eq!(drops.load(Relaxed), 1);
    }

    /// `epoch_stats` reflects pinning pressure and bag growth: a pinned
    /// thread shows up in `pinned_threads`, retires accumulate in
    /// `retire_bag_bytes` while the pin blocks reclamation, and an aging
    /// reservation registers a nonzero `oldest_reservation_age`; everything
    /// recovers once the pin drops.
    #[test]
    fn epoch_stats_tracks_pin_and_bag_pressure() {
        let g = pin();
        let stats = epoch_stats();
        assert!(stats.pinned_threads >= 1, "own pin not counted: {stats:?}");
        {
            let _inner = pin();
            for _ in 0..4 {
                let p = alloc([0u8; 256]);
                // SAFETY: fresh private allocation, retired once.
                unsafe { retire(p) };
            }
        }
        // Our own reservation blocks the reclamation floor, so our retires
        // must still be sitting in a bag — other test threads can free
        // *their* older items concurrently, but never these, so the global
        // byte gauge is at least our contribution.
        let stats = epoch_stats();
        assert!(
            stats.retire_bag_bytes >= 4 * 256,
            "retires not reflected in bag bytes: {stats:?}"
        );
        // Age the reservation: the one advance our pin permits moves the
        // epoch past the floor we hold; further advances are blocked.
        for _ in 0..3 {
            try_advance();
        }
        let stats = epoch_stats();
        assert!(
            stats.oldest_reservation_age >= 1,
            "aged pin shows no reservation age: {stats:?}"
        );
        drop(g);
        flush_all();
    }

    /// The pool counters ride along in `epoch_stats()`: pool traffic shows
    /// up in pages/hit-rate, and a retired pooled slot comes back to the
    /// allocator (cached or global) once the collector frees it.
    #[test]
    fn epoch_stats_surface_pool_counters() {
        // Generate warm pool traffic: the second alloc of the same class
        // must be a magazine hit.
        let p = alloc(7u64);
        // SAFETY: fresh private allocation.
        unsafe { free_now(p) };
        let q = alloc(9u64);
        // SAFETY: fresh private allocation.
        unsafe { free_now(q) };
        let stats = epoch_stats();
        assert!(stats.pool.pages_live >= 1, "no page carved: {stats:?}");
        assert!(
            stats.pool.magazine_hits >= 1,
            "warm alloc did not hit the magazine: {stats:?}"
        );
        assert!(stats.pool.global_refills >= 1);
        assert!(stats.pool.magazine_hit_rate() > 0.0);
        // Retired slots return to the pool once freed.
        {
            let _g = pin();
            let r = alloc(11u64);
            // SAFETY: fresh private allocation, retired once.
            unsafe { retire(r) };
        }
        flush_all();
        let stats = epoch_stats();
        assert!(stats.pool.slots_cached + stats.pool.slots_free_global >= 1);
    }

    #[test]
    fn stats_count_retires_and_frees() {
        let before = collector_stats();
        {
            let _g = pin();
            let p = alloc(17u64);
            // SAFETY: fresh private allocation, retired once.
            unsafe { retire(p) };
        }
        flush_all();
        let after = collector_stats();
        assert!(after.retired > before.retired);
        assert!(after.freed > before.freed);
    }
}
