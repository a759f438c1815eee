//! The global collector: epoch counter, reservations, retire bags.

use std::sync::Mutex;
// The retired/freed statistics counters stay plain std atomics: they are
// reporting state plus a cadence heuristic, not part of any reclamation
// safety argument, so the model checker does not schedule around them.
use std::sync::atomic::AtomicUsize;

use flock_sync::atomic::{AtomicU64, Ordering, fence};
use flock_sync::thread_ctx::{self, ExitHook, Retired};
use flock_sync::{CachePadded, MAX_THREADS, ThreadCtx, tid};

/// Reservation value meaning "thread not inside any operation".
pub const QUIESCENT: u64 = u64::MAX;

/// Collect (attempt free) once the local bag exceeds this many items.
const BAG_COLLECT_THRESHOLD: usize = 64;
/// Attempt a global epoch advance every this many retires.
const ADVANCE_PERIOD: usize = 32;

pub(crate) struct Global {
    epoch: CachePadded<AtomicU64>,
    reservations: [CachePadded<AtomicU64>; MAX_THREADS],
    /// Bags abandoned by exiting threads, reclaimed by anyone.
    orphans: Mutex<Vec<Retired>>,
    retired_count: AtomicUsize,
    freed_count: AtomicUsize,
    /// Bytes currently sitting in retire bags (local + orphan), i.e.
    /// retired-not-yet-freed. Grows without bound only while a reservation
    /// is stuck — which is exactly what [`epoch_stats`] exists to report.
    /// Like `retired_count`, fed from each thread's pending cells
    /// (`ThreadCtx::bag_pending_*`) at collect boundaries, so another
    /// thread's newest retires may lag by up to one collect threshold.
    bag_bytes: AtomicUsize,
}

#[allow(clippy::declare_interior_mutable_const)]
const QUIESCENT_CELL: CachePadded<AtomicU64> = CachePadded::new(AtomicU64::new(QUIESCENT));

static GLOBAL: Global = Global {
    epoch: CachePadded::new(AtomicU64::new(2)), // start > 0 so stamp-2 never underflows semantics
    reservations: [QUIESCENT_CELL; MAX_THREADS],
    orphans: Mutex::new(Vec::new()),
    retired_count: AtomicUsize::new(0),
    freed_count: AtomicUsize::new(0),
    bag_bytes: AtomicUsize::new(0),
};

pub(crate) fn global_epoch() -> &'static AtomicU64 {
    &GLOBAL.epoch
}

pub(crate) fn reservation_of(tid: tid::ThreadId) -> &'static AtomicU64 {
    &GLOBAL.reservations[tid.0]
}

/// Smallest active reservation, or the current global epoch if none.
///
/// ## Scan ordering
///
/// Reservation scans are bracketed by two fences instead of paying an
/// ordered load per slot:
///
/// * A leading `SeqCst` fence pairs with the `SeqCst` fence every pin /
///   adopt issues after publishing its reservation: whichever fence comes
///   first in the `SeqCst` total order decides — either our relaxed loads
///   must observe the published reservation, or the pinner's post-fence
///   re-validation observes our epoch state (see `guard::pin_with`).
/// * A trailing `Acquire` fence pairs with the `Release` stores that raise
///   or clear reservations on unpin: once a relaxed load here has seen a
///   thread leave an epoch, the fence makes that thread's preceding object
///   accesses happen-before anything we free afterwards.
///
/// Scans cover only `tid::scan_bound()` slots — the live bound of the
/// active-thread registry. A slot above the bound has no claimed thread; a
/// thread claiming it concurrently raises the bound (`SeqCst`) before its
/// pin fence, so the leading-fence case analysis covers the bound read too.
fn min_active_reservation() -> u64 {
    fence(Ordering::SeqCst);
    let bound = tid::scan_bound().min(MAX_THREADS);
    let mut min = GLOBAL.epoch.load(Ordering::Relaxed);
    for r in &GLOBAL.reservations[..bound] {
        let v = r.load(Ordering::Relaxed);
        if v != QUIESCENT && v < min {
            min = v;
        }
    }
    fence(Ordering::Acquire);
    min
}

/// Advance the global epoch if every active reservation has caught up with it.
///
/// Returns the (possibly advanced) global epoch. Scan ordering: see
/// `min_active_reservation`.
pub fn try_advance() -> u64 {
    fence(Ordering::SeqCst);
    let e = GLOBAL.epoch.load(Ordering::Relaxed);
    let bound = tid::scan_bound().min(MAX_THREADS);
    for r in &GLOBAL.reservations[..bound] {
        let v = r.load(Ordering::Relaxed);
        if v != QUIESCENT && v < e {
            return e; // someone is still in an older epoch
        }
    }
    fence(Ordering::Acquire);
    // Single step; losing the race is fine (someone else advanced). The
    // SeqCst CAS keeps epoch advances in the total order the pin/adopt
    // re-validation reads rely on.
    let _ = GLOBAL
        .epoch
        .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst);
    GLOBAL.epoch.load(Ordering::Relaxed)
}

/// Move a thread's pending retire counters into the global gauges.
fn publish_pending(tc: &ThreadCtx) {
    let n = tc.bag_pending_retired.replace(0);
    if n > 0 {
        GLOBAL.retired_count.fetch_add(n, Ordering::Relaxed);
    }
    let b = tc.bag_pending_bytes.replace(0);
    if b > 0 {
        GLOBAL.bag_bytes.fetch_add(b, Ordering::Relaxed);
    }
}

/// Publish the *calling thread's* pending retire counters, so stats
/// snapshots taken on this thread reflect its own retires immediately
/// (other threads' pending counts drain at their collect boundaries).
/// TLS-teardown-safe: a dead context has already published at exit.
pub(crate) fn publish_local_pending() {
    let _ = thread_ctx::try_with(publish_pending);
}

/// The epoch layer's thread-exit hook (`ExitHook::Epoch`): orphan the
/// retire bag so other threads free it, and hand the magazines back to
/// the global pool.
pub(crate) fn thread_exit(tc: &ThreadCtx) {
    publish_pending(tc);
    let mut items = tc.bag.borrow_mut();
    if !items.is_empty()
        && let Ok(mut orphans) = GLOBAL.orphans.lock()
    {
        orphans.append(&mut items);
    }
    drop(items);
    crate::pool::flush_thread_magazines(tc);
}

#[cfg(debug_assertions)]
pub(crate) mod debug_track {
    use std::collections::HashSet;
    use std::sync::Mutex;
    pub(crate) static LIVE_RETIRED: Mutex<Option<HashSet<usize>>> = Mutex::new(None);
    pub(crate) static LIVE_ALLOCS: Mutex<Option<HashSet<usize>>> = Mutex::new(None);

    /// A tracking set, made on first use with room for this many
    /// addresses. Past a high-water mark a growing set reallocates at a
    /// moment its random hash seed picks; sized up front, a test's steady
    /// workload never grows it, and a test that counts the heap
    /// allocations of warm operations (flock-ds `write_path_alloc`) reads
    /// none of the tracker's.
    fn tracked(set: &mut Option<HashSet<usize>>) -> &mut HashSet<usize> {
        set.get_or_insert_with(|| HashSet::with_capacity(1 << 14))
    }

    pub(crate) fn on_retire(ptr: usize) {
        let mut g = LIVE_RETIRED.lock().unwrap_or_else(|e| e.into_inner());
        let set = tracked(&mut g);
        assert!(
            set.insert(ptr),
            "flock-epoch: double retire of {ptr:#x} detected"
        );
    }

    pub(crate) fn on_free(ptr: usize) {
        if let Some(set) = LIVE_RETIRED
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_mut()
        {
            set.remove(&ptr);
        }
        on_dealloc(ptr, "collector");
    }

    pub(crate) fn on_alloc(ptr: usize) {
        let mut g = LIVE_ALLOCS.lock().unwrap_or_else(|e| e.into_inner());
        tracked(&mut g).insert(ptr);
    }

    pub(crate) fn on_dealloc(ptr: usize, who: &str) {
        let mut g = LIVE_ALLOCS.lock().unwrap_or_else(|e| e.into_inner());
        let set = tracked(&mut g);
        assert!(
            set.remove(&ptr),
            "flock-epoch: {who} freeing {ptr:#x} which is not a live epoch allocation (double free or foreign pointer)"
        );
    }
}

/// Retire without thread-local involvement (TLS-destructor-safe).
pub(crate) fn bag_retired_global(item: Retired) {
    #[cfg(debug_assertions)]
    debug_track::on_retire(item.ptr as usize);
    GLOBAL.retired_count.fetch_add(1, Ordering::Relaxed);
    GLOBAL
        .bag_bytes
        .fetch_add(item.bytes as usize, Ordering::Relaxed);
    if let Ok(mut orphans) = GLOBAL.orphans.lock() {
        orphans.push(item);
    }
}

/// Bag a retire on the calling thread, or, once its context is gone (TLS
/// teardown), in the orphan bag.
pub(crate) fn bag_retired(item: Retired) {
    // One TLS access, zero global RMWs: counts accumulate in the context's
    // bag cells and publish at the collect/advance boundaries below.
    let due = thread_ctx::try_with(|tc| {
        #[cfg(debug_assertions)]
        debug_track::on_retire(item.ptr as usize);
        // A thread can retire without ever touching a magazine, so the
        // exit hook that orphans the bag is ensured here too.
        thread_ctx::register_thread_exit_hook(ExitHook::Epoch, thread_exit);
        tc.bag_pending_retired.set(tc.bag_pending_retired.get() + 1);
        tc.bag_pending_bytes
            .set(tc.bag_pending_bytes.get() + item.bytes as usize);
        let adv = tc.bag_since_advance.get() + 1;
        let should_advance = adv >= ADVANCE_PERIOD;
        tc.bag_since_advance
            .set(if should_advance { 0 } else { adv });
        let mut items = tc.bag.borrow_mut();
        items.push(item);
        (should_advance, items.len() >= BAG_COLLECT_THRESHOLD)
    });
    let Some((should_advance, should_collect)) = due else {
        bag_retired_global(item);
        return;
    };
    if should_advance {
        try_advance();
    }
    if should_collect {
        collect_local();
    }
}

/// Drop one reclaimable item and return its memory: pooled slots go back
/// to the freeing thread's magazine, fallback items are fully freed by
/// their dropper. Pooled types without drop glue (`dropper == None`, the
/// common node case) skip the indirect call entirely.
///
/// # Safety
///
/// The item must be past its grace period: `stamp + 2 <=` every active
/// reservation, so no in-flight operation can still reach it; the retire
/// contract says it was unlinked and retired once.
unsafe fn free_one(it: &Retired) {
    #[cfg(debug_assertions)]
    debug_track::on_free(it.ptr as usize);
    if let Some(drop_fn) = it.dropper {
        // SAFETY: forwarded contract; dropped exactly once.
        unsafe { drop_fn(it.ptr) };
    }
    if it.class != crate::pool::NO_CLASS {
        crate::pool::free_slot(it.ptr, it.class as usize);
    }
}

/// Free everything in the local bag (and a slice of the orphans) that has
/// fallen at least two epochs behind every active reservation.
pub(crate) fn collect_local() {
    let safe_before = min_active_reservation().saturating_sub(1);
    let mut freed = 0usize;
    let mut freed_bytes = 0usize;
    // Once the context is gone (TLS teardown) its bag is already orphaned:
    // only the orphans are left to scan.
    let _ = thread_ctx::try_with(|tc| {
        // Publish before anything can be freed (and before the early
        // return, so a stuck floor still reports its growing bag).
        publish_pending(tc);
        // Stuck-reservation guard: a full scan at this floor (or a higher
        // one) already freed nothing, and nothing retired since can be
        // older — skip the rescan so a stalled pinner costs O(1) per
        // retire instead of O(bag).
        if safe_before <= tc.bag_failed_safe.get() {
            return;
        }
        let mut items = tc.bag.borrow_mut();
        let before = items.len();
        items.retain(|it| {
            if it.stamp < safe_before {
                // SAFETY: stamp + 2 <= every active reservation (see
                // `free_one`).
                unsafe { free_one(it) };
                freed += 1;
                freed_bytes += it.bytes as usize;
                false
            } else {
                true
            }
        });
        if freed == 0 && before > 0 {
            tc.bag_failed_safe.set(safe_before);
        }
    });
    // Opportunistically drain orphans too; try_lock so we never spin here.
    if let Ok(mut orphans) = GLOBAL.orphans.try_lock() {
        orphans.retain(|it| {
            if it.stamp < safe_before {
                // SAFETY: as above.
                unsafe { free_one(it) };
                freed += 1;
                freed_bytes += it.bytes as usize;
                false
            } else {
                true
            }
        });
    }
    if freed > 0 {
        GLOBAL.freed_count.fetch_add(freed, Ordering::Relaxed);
        GLOBAL.bag_bytes.fetch_sub(freed_bytes, Ordering::Relaxed);
    }
}

/// Drive advancement until local + orphan bags are empty. Requires no pinned
/// threads (used by tests/teardown); gives up after a bounded number of
/// rounds to avoid hanging when a thread is stuck pinned.
pub(crate) fn flush_all() {
    for _ in 0..8 {
        try_advance();
        try_advance();
        collect_local();
        let empty_local = thread_ctx::try_with(|tc| tc.bag.borrow().is_empty()).unwrap_or(true);
        let empty_orphans = GLOBAL.orphans.lock().map(|o| o.is_empty()).unwrap_or(true);
        if empty_local && empty_orphans {
            return;
        }
    }
}

/// Model-checker support: reset the collector to a deterministic state
/// between executions.
///
/// The DFS scheduler replays schedule prefixes and requires every execution
/// to start from identical collector state; the retire-count cadence
/// (`ADVANCE_PERIOD`) would otherwise fire `try_advance` at different
/// points across executions. Caller contract (upheld by `flock-model`): no
/// thread is pinned and no model threads exist when this runs, so every
/// bagged object is force-freeable regardless of stamp. The model workers'
/// own bags are already orphaned (`ThreadCtx::model_reset_thread_state`
/// runs their exit hooks); this frees the orphans and the calling thread's
/// bag.
#[cfg(feature = "model")]
pub(crate) fn model_reset() {
    fn free_all(items: &mut Vec<Retired>) {
        for it in items.drain(..) {
            GLOBAL
                .bag_bytes
                .fetch_sub(it.bytes as usize, Ordering::Relaxed);
            // SAFETY: nothing is pinned (caller contract), so no in-flight
            // operation can reach a retired object; retired exactly once.
            unsafe { free_one(&it) };
        }
    }
    thread_ctx::with(|tc| {
        publish_pending(tc);
        tc.bag_since_advance.set(0);
        free_all(&mut tc.bag.borrow_mut());
    });
    if let Ok(mut orphans) = GLOBAL.orphans.lock() {
        free_all(&mut orphans);
    }
    // A model thread that died mid-unwind may have left a reservation set;
    // clear them all (no model threads are live — caller contract).
    for r in GLOBAL.reservations.iter() {
        r.store(QUIESCENT, Ordering::SeqCst);
    }
    GLOBAL
        .retired_count
        .store(0, std::sync::atomic::Ordering::SeqCst);
    GLOBAL
        .freed_count
        .store(0, std::sync::atomic::Ordering::SeqCst);
}

/// Monotone counters describing collector activity; for tests and reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectorStats {
    /// Objects handed to [`crate::retire`] since process start.
    pub retired: usize,
    /// Objects actually dropped since process start.
    pub freed: usize,
    /// Current global epoch.
    pub epoch: u64,
}

/// Snapshot of the collector counters.
pub fn collector_stats() -> CollectorStats {
    publish_local_pending();
    CollectorStats {
        retired: GLOBAL.retired_count.load(Ordering::Relaxed),
        freed: GLOBAL.freed_count.load(Ordering::Relaxed),
        epoch: GLOBAL.epoch.load(Ordering::Relaxed),
    }
}

/// Degradation snapshot: how far reclamation has fallen behind and why.
///
/// Where [`CollectorStats`] counts activity, this reports *pressure* — the
/// quantities that grow when a thread stalls while pinned. The collector's
/// degradation contract under a forever-pinned thread is "bounded by what
/// the live threads retire, and reported": retire bags grow (`bag_bytes`),
/// the reservation floor stops (`oldest_reservation_age` climbs), and
/// nothing is ever freed out from under the stuck reservation. The chaos
/// runner asserts `bag_bytes` stays proportional to work done and that the
/// stats recover to ~zero once the stall is released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochStats {
    /// Threads currently holding an active (non-quiescent) reservation.
    pub pinned_threads: usize,
    /// Global epoch minus the oldest active reservation, in epochs — how
    /// many advance cycles the slowest pinned thread is holding back. Zero
    /// when nothing is pinned.
    pub oldest_reservation_age: u64,
    /// Bytes retired but not yet freed, across all local bags and the
    /// orphan bag (heap payloads only, as stamped at retire time).
    pub retire_bag_bytes: usize,
    /// Slab-pool counters: pages live, slots cached in magazines, refill
    /// traffic and magazine hit rate. See [`crate::PoolStats`].
    pub pool: crate::PoolStats,
}

/// Snapshot of the collector's degradation pressure. See [`EpochStats`].
pub fn epoch_stats() -> EpochStats {
    publish_local_pending();
    fence(Ordering::SeqCst);
    let epoch = GLOBAL.epoch.load(Ordering::Relaxed);
    let bound = tid::scan_bound().min(MAX_THREADS);
    let mut pinned = 0usize;
    let mut min = epoch;
    for r in &GLOBAL.reservations[..bound] {
        let v = r.load(Ordering::Relaxed);
        if v != QUIESCENT {
            pinned += 1;
            if v < min {
                min = v;
            }
        }
    }
    EpochStats {
        pinned_threads: pinned,
        oldest_reservation_age: epoch.saturating_sub(min),
        retire_bag_bytes: GLOBAL.bag_bytes.load(Ordering::Relaxed),
        pool: crate::pool::pool_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_starts_at_two_and_advances() {
        let e0 = GLOBAL.epoch.load(Ordering::SeqCst);
        assert!(e0 >= 2);
        let e1 = try_advance();
        assert!(e1 >= e0);
    }

    #[test]
    fn reservation_blocks_advance() {
        let me = tid::current();
        let e = GLOBAL.epoch.load(Ordering::SeqCst);
        reservation_of(me).store(e.saturating_sub(1), Ordering::SeqCst);
        let after = try_advance();
        assert_eq!(after, e, "advance must not pass an older reservation");
        reservation_of(me).store(QUIESCENT, Ordering::SeqCst);
    }
}
