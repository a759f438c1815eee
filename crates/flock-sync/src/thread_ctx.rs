//! The one per-thread context: every per-thread variable of the library in
//! one struct behind one `thread_local!`, so an access pays one lazy-init
//! check and one TLS addressing, and thread exit has one destructor.
//!
//! [`ThreadCtx`] holds the thread id, the epoch layer's pin state, retire
//! bag and slab magazines, the log layer's thunk-log cursor and descriptor
//! pool, and the backoff jitter seed (272 B on x86-64, over four cache
//! lines). An operation fetches it with [`with`] and threads the reference
//! through its internals. An uncontended lock-free `try_lock` fetches it
//! once: it unpins its epoch guard against the same fetch. The epoch
//! layer's `alloc` and `retire`, and a guard's `Drop`, fetch the context
//! on their own.
//!
//! Layering: this crate cannot name the upper layers' types, so the fields
//! are layer-agnostic primitives. The epoch layer owns `pin_depth`,
//! `ops_since_collect`, `bag` with its `bag_*` cells and the `pool_*`
//! magazines; the log layer owns the `log_*`, `descriptor` and
//! `desc_pool*` cells, storing type-erased pointers it alone writes and
//! reads (the log cells are `null` outside a running thunk).
//!
//! **Thread exit** has one path: [`ThreadCtx`]'s `Drop` runs a fixed table
//! of per-layer hooks in [`ExitHook`] order — the log layer's (pooled
//! descriptors to the orphan bag), then the epoch layer's (retire bag to
//! the orphans, magazines to the global pool) — and then releases the
//! thread id. A layer registers its hook on the first path that fills its
//! state ([`register_thread_exit_hook`]).
//!
//! The context is `Cell`-based and never aliased across threads, so nested
//! [`with`] calls (e.g. a `Mutable::store` inside a thunk that is already
//! running under a `with`) are fine.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicPtr, Ordering};

use crate::tid::{self, ThreadId};

/// Sentinel for "thread id not claimed yet".
const TID_UNCLAIMED: usize = usize::MAX;

/// Number of slab size classes the pool layer (`flock-epoch`) caches per
/// thread. Lives here because the magazine heads are `ThreadCtx` fields;
/// the pool layer asserts its class table matches this length.
pub const POOL_CLASSES: usize = 7;

/// A retired allocation awaiting reclamation: the record of the epoch
/// layer's retire bag. It names no epoch-layer type, so it lives here with
/// the bag.
#[derive(Clone, Copy)]
pub struct Retired {
    /// The allocation.
    pub ptr: *mut u8,
    /// Drop glue only (`None` when the type has none — the free loop then
    /// skips the indirect call). For pooled items the slot return is
    /// driven by `class`; for fallback items the dropper frees the heap
    /// allocation.
    pub dropper: Option<unsafe fn(*mut u8)>,
    /// Pool size class, or the pool layer's no-class byte for
    /// `Box`-fallback items. Freed pooled slots go back to the freeing
    /// thread's magazine.
    pub class: u8,
    /// Global epoch at retire time.
    pub stamp: u64,
    /// `size_of` the retired allocation, for the bag-growth accounting
    /// (heap payload only — boxes of a `T` count `size_of::<T>()`; any
    /// transitive owned memory is not walked).
    pub bytes: u32,
}

// SAFETY: a Retired is an owned, unlinked allocation; the collector is the
// only holder, and the dropper is called exactly once on whichever thread
// frees.
unsafe impl Send for Retired {}

/// All of a thread's mutable library state: id, epoch pinning and retire
/// bag, log cursor, descriptor pool, allocator magazines, backoff seed.
pub struct ThreadCtx {
    /// Claimed thread id, or [`TID_UNCLAIMED`]. Claimed lazily by
    /// [`ThreadCtx::tid`]; released by `Drop` at thread exit.
    tid: Cell<usize>,
    /// Epoch layer: nesting depth of `pin()` on this thread.
    pub pin_depth: Cell<usize>,
    /// Epoch layer: outermost unpins since the last collection attempt.
    pub ops_since_collect: Cell<usize>,
    /// Log layer: current log block (`*const LogBlock`), null when the
    /// thread is not running a thunk.
    pub log_block: Cell<*const ()>,
    /// Log layer: position within the current log block.
    pub log_pos: Cell<usize>,
    /// Log layer: descriptor being run (`*const Descriptor`), null at top
    /// level.
    pub descriptor: Cell<*const ()>,
    /// Log layer: true while the thread runs its *own* top-level descriptor
    /// and the thunks nested inside it that it entered as their owner;
    /// false at top level and inside every thunk it runs as a helper.
    pub owner_run: Cell<bool>,
    /// Log layer: head of the intrusive list of nested descriptors
    /// (`*mut Descriptor`) whose disposal is deferred to the end of the
    /// current owner run; null outside one.
    pub deferred: Cell<*mut ()>,
    /// Log layer: set when the thunk run in progress marked a lock
    /// obsolete (`Lock::mark_obsolete`); each run starts it clear and
    /// restores the enclosing run's value when it ends.
    pub marked: Cell<bool>,
    /// Log layer: the running thunk's last logged `Mutable` load — the
    /// cell's address (0: none), the log cursor just past its entry, and
    /// the committed word. A store or CAM of that cell at that same cursor
    /// reuses the word instead of loading and committing it again. Cleared
    /// at every run's entry and exit and by every in-thunk tagged CAS.
    pub load_cell: Cell<usize>,
    /// Log layer: the log cursor of `load_cell`'s record.
    pub load_at: Cell<usize>,
    /// Log layer: the committed word of `load_cell`'s record.
    pub load_word: Cell<u64>,
    /// Pool layer: per-size-class magazine heads — intrusive free lists of
    /// slab slots (each free slot's first word stores the next pointer).
    /// Null means empty. Owned by the pool layer the same way the `log_*`
    /// cells are owned by the log layer.
    pub pool_heads: [Cell<*mut u8>; POOL_CLASSES],
    /// Pool layer: number of slots chained from each magazine head.
    pub pool_counts: [Cell<u32>; POOL_CLASSES],
    /// Pool layer: magazine hits since the last publish to the global
    /// counters (published at refill/flush boundaries and thread exit).
    pub pool_hits: Cell<u64>,
    /// Pool layer: total cached-slot count this thread last published to
    /// the global gauge (published at the same boundaries as `pool_hits`).
    pub pool_cached_published: Cell<usize>,
    /// Log layer: head of the descriptor pool (`*mut Descriptor`), an
    /// intrusive free list of reset descriptors linked through their
    /// deferred-list link, which no pooled descriptor uses. Null when
    /// empty.
    pub desc_pool: Cell<*mut ()>,
    /// Log layer: number of descriptors chained from `desc_pool`.
    pub desc_pool_len: Cell<u32>,
    /// Epoch layer: this thread's retire bag.
    pub bag: RefCell<Vec<Retired>>,
    /// Epoch layer: highest `safe_before` for which a full scan of the bag
    /// freed nothing. While the reservation floor is stuck (a stalled or
    /// forever-pinned thread), `safe_before` stays at this value and every
    /// new retire would otherwise rescan the whole growing bag — quadratic
    /// work for zero frees. Skipping re-scans at an already-failed floor is
    /// sound: items retire with `stamp >=` the epoch at retire time
    /// `>= safe_before`, so nothing addable later becomes freeable at the
    /// same floor.
    pub bag_failed_safe: Cell<u64>,
    /// Epoch layer: retires (count) bagged but not yet published to the
    /// global counters. The hot retire path only touches these cells; the
    /// global `fetch_add`s happen at collect boundaries, stats snapshots
    /// and thread exit, so a retire pays no cross-thread RMW. Items leave
    /// the bag only through paths that publish first, so the global byte
    /// gauge never sees a free before its retire.
    pub bag_pending_retired: Cell<usize>,
    /// Epoch layer: retired bytes bagged but not yet published (see
    /// `bag_pending_retired`).
    pub bag_pending_bytes: Cell<usize>,
    /// Epoch layer: retires since this thread last attempted a global epoch
    /// advance (the advance cadence, kept per thread for the same no-RMW
    /// reason).
    pub bag_since_advance: Cell<usize>,
    /// `Backoff`'s jitter seed state: (thread index, seeds drawn); index 0
    /// means not drawn yet.
    pub(crate) backoff_seed: Cell<(u32, u32)>,
}

impl ThreadCtx {
    const fn new() -> Self {
        Self {
            tid: Cell::new(TID_UNCLAIMED),
            pin_depth: Cell::new(0),
            ops_since_collect: Cell::new(0),
            log_block: Cell::new(std::ptr::null()),
            log_pos: Cell::new(0),
            descriptor: Cell::new(std::ptr::null()),
            owner_run: Cell::new(false),
            deferred: Cell::new(std::ptr::null_mut()),
            marked: Cell::new(false),
            load_cell: Cell::new(0),
            load_at: Cell::new(0),
            load_word: Cell::new(0),
            pool_heads: [const { Cell::new(std::ptr::null_mut()) }; POOL_CLASSES],
            pool_counts: [const { Cell::new(0) }; POOL_CLASSES],
            pool_hits: Cell::new(0),
            pool_cached_published: Cell::new(0),
            desc_pool: Cell::new(std::ptr::null_mut()),
            desc_pool_len: Cell::new(0),
            bag: RefCell::new(Vec::new()),
            bag_failed_safe: Cell::new(0),
            bag_pending_retired: Cell::new(0),
            bag_pending_bytes: Cell::new(0),
            bag_since_advance: Cell::new(0),
            backoff_seed: Cell::new((0, 0)),
        }
    }

    /// This thread's id, claiming one from the registry on first use.
    #[inline]
    pub fn tid(&self) -> ThreadId {
        let t = self.tid.get();
        if t != TID_UNCLAIMED {
            ThreadId(t)
        } else {
            self.claim_slow()
        }
    }

    #[cold]
    fn claim_slow(&self) -> ThreadId {
        let id = tid::claim_id();
        self.tid.set(id.0);
        id
    }

    /// Is the thread currently running a thunk (logging enabled)?
    #[inline]
    pub fn in_thunk(&self) -> bool {
        !self.log_block.get().is_null()
    }

    /// Model tests only: release this thread's claimed id now (the thread-
    /// exit transition, made schedulable) and forget it, so the `Drop` at
    /// real thread exit does not double-release.
    #[cfg(feature = "model")]
    pub fn model_release_tid(&self) {
        let t = self.tid.get();
        if t != TID_UNCLAIMED {
            self.tid.set(TID_UNCLAIMED);
            tid::release_id(ThreadId(t));
        }
    }

    /// Model-engine worker reset: return this pooled worker thread's
    /// context to the pristine state a *fresh* thread would have, so every
    /// model execution starts identically (the DFS replays schedule
    /// prefixes and requires it). Called between executions only.
    #[cfg(feature = "model")]
    pub fn model_reset_thread_state(&self) {
        self.model_release_tid();
        self.pin_depth.set(0);
        self.ops_since_collect.set(0);
        self.log_block.set(std::ptr::null());
        self.log_pos.set(0);
        self.descriptor.set(std::ptr::null());
        self.owner_run.set(false);
        self.deferred.set(std::ptr::null_mut());
        self.marked.set(false);
        self.load_cell.set(0);
        // The bag's cadence state is schedule-visible (the advance-attempt
        // points), so it must start every execution the same.
        self.bag_since_advance.set(0);
        self.bag_failed_safe.set(0);
        // Drain the descriptor pool, the retire bag and the magazines
        // through the registered exit hooks, as a real thread exit would.
        run_exit_hooks(self);
    }
}

/// The thread-exit hook slots, one per layer that keeps state here, in the
/// order [`ThreadCtx`]'s `Drop` runs them: the upper layer first, so
/// whatever its hook hands down meets the lower layer's drain.
#[derive(Clone, Copy, Debug)]
pub enum ExitHook {
    /// The log layer (`flock-core`): pooled descriptors go to the epoch
    /// collector's orphan bag.
    Descriptors,
    /// The epoch layer (`flock-epoch`): the retire bag goes to the orphans
    /// and the magazines back to the global pool.
    Epoch,
}

/// The registered hooks, indexed by [`ExitHook`]. This crate cannot name
/// the layers above it, so a hook is a bare fn pointer, null until
/// registered.
/// `Relaxed` is sufficient everywhere: a slot, once non-null, never changes
/// (each layer registers one function), a fn pointer carries no data to
/// synchronize, and any thread whose layer state is non-empty has itself
/// loaded or stored the non-null hook on the fill path — per-location
/// coherence then keeps its exit-time load from going back to null.
static EXIT_HOOKS: [AtomicPtr<()>; 2] = [const { AtomicPtr::new(std::ptr::null_mut()) }; 2];

/// Register `hook` to run for `slot` when any `ThreadCtx` is dropped
/// (thread exit). Idempotent and cheap (a `Relaxed` load on the
/// already-registered path), so callers invoke it from the paths that fill
/// their state.
#[inline]
pub fn register_thread_exit_hook(slot: ExitHook, hook: fn(&ThreadCtx)) {
    let cell = &EXIT_HOOKS[slot as usize];
    if cell.load(Ordering::Relaxed).is_null() {
        cell.store(hook as *mut (), Ordering::Relaxed);
    }
}

fn run_exit_hooks(tc: &ThreadCtx) {
    for cell in &EXIT_HOOKS {
        let h = cell.load(Ordering::Relaxed);
        if !h.is_null() {
            // SAFETY: `h` was stored from a `fn(&ThreadCtx)` in
            // `register_thread_exit_hook` and never changes once set.
            let hook: fn(&ThreadCtx) = unsafe { std::mem::transmute(h) };
            hook(tc);
        }
    }
}

impl Drop for ThreadCtx {
    fn drop(&mut self) {
        run_exit_hooks(self);
        let t = self.tid.get();
        if t != TID_UNCLAIMED {
            tid::release_id(ThreadId(t));
        }
    }
}

thread_local! {
    static CTX: ThreadCtx = const { ThreadCtx::new() };
}

/// Run `f` with the calling thread's context: one fetch serves an
/// operation's work. Nesting is allowed (and happens: thunk-internal
/// `Mutable` operations re-enter while `try_lock` holds the outer access).
#[inline]
pub fn with<R>(f: impl FnOnce(&ThreadCtx) -> R) -> R {
    CTX.with(|tc| f(tc))
}

/// Like [`with`], but returns `None` instead of panicking when the
/// context has already been destroyed (TLS teardown), or is being
/// destroyed (its exit hooks are running). The epoch layer's retire and
/// free paths can run from other TLS destructors, and fall back to the
/// orphan bag and the global pool then.
#[inline]
pub fn try_with<R>(f: impl FnOnce(&ThreadCtx) -> R) -> Option<R> {
    CTX.try_with(|tc| f(tc)).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tid_is_claimed_lazily_and_stable() {
        let a = with(|tc| tc.tid());
        let b = with(|tc| tc.tid());
        assert_eq!(a, b);
    }

    #[test]
    fn nested_with_accesses_same_context() {
        with(|outer| {
            outer.log_pos.set(41);
            with(|inner| {
                assert_eq!(inner.log_pos.get(), 41);
                inner.log_pos.set(0);
            });
        });
    }

    #[test]
    fn fresh_thread_starts_clean() {
        std::thread::spawn(|| {
            with(|tc| {
                assert!(!tc.in_thunk());
                assert_eq!(tc.pin_depth.get(), 0);
                assert_eq!(tc.log_pos.get(), 0);
                assert!(tc.descriptor.get().is_null());
                assert!(!tc.owner_run.get());
                assert!(tc.deferred.get().is_null());
                assert!(tc.desc_pool.get().is_null());
                assert_eq!(tc.desc_pool_len.get(), 0);
                assert!(tc.bag.borrow().is_empty());
                assert_eq!(tc.bag_failed_safe.get(), 0);
                assert_eq!(tc.bag_pending_retired.get(), 0);
                assert_eq!(tc.bag_pending_bytes.get(), 0);
                assert_eq!(tc.bag_since_advance.get(), 0);
                assert_eq!(tc.backoff_seed.get(), (0, 0));
            });
        })
        .join()
        .unwrap();
    }
}
