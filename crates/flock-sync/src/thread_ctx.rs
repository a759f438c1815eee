//! The one per-thread context: every hot-path thread-local in one struct.
//!
//! Before this module existed, one uncontended lock-free `try_lock` touched
//! four separate `thread_local!` statics spread over three crates — the
//! thread id (`flock-sync`), the epoch pin depth and collect counter
//! (`flock-epoch`), and the running-thunk log cursor (`flock-core`) — each
//! access paying its own lazy-init check and TLS addressing. [`ThreadCtx`]
//! packs them into one struct behind one `thread_local!` (184 B on x86-64,
//! more than a cache line); an operation fetches it with [`with`] and
//! threads the reference through its internals.
//!
//! That fetch is not an operation's only TLS access. A top-level lock-free
//! `try_lock` also takes the descriptor pool's own `thread_local!` twice
//! (`flock-core`'s `descriptor.rs`, a pop and a push), and the epoch
//! guard's `Drop` fetches the context again.
//!
//! Layering: this crate cannot name the upper layers' types, so the fields
//! are layer-agnostic primitives. The epoch layer owns `pin_depth` and
//! `ops_since_collect`; the log layer owns the `log_*` and `descriptor`
//! cells, storing type-erased pointers it alone writes and reads (the cells
//! are `null` outside a running thunk). This is the same contract the old
//! per-crate statics had — it just lives in one place now.
//!
//! The context is `Cell`-based and never aliased across threads, so nested
//! [`with`] calls (e.g. a `Mutable::store` inside a thunk that is already
//! running under a `with`) are fine.

use std::cell::Cell;
use std::sync::atomic::{AtomicPtr, Ordering};

use crate::tid::{self, ThreadId};

/// Sentinel for "thread id not claimed yet".
const TID_UNCLAIMED: usize = usize::MAX;

/// Number of slab size classes the pool layer (`flock-epoch`) caches per
/// thread. Lives here because the magazine heads are `ThreadCtx` fields;
/// the pool layer asserts its class table matches this length.
pub const POOL_CLASSES: usize = 7;

/// All of a thread's hot mutable state: id, epoch pinning, log cursor,
/// allocator magazines.
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
        // Drain the allocator magazines through the registered exit hook,
        // as a real thread exit would, so pooled workers start every
        // execution with empty magazines.
        run_exit_hook(self);
    }
}

/// Thread-exit hook installed by the pool layer (`flock-epoch`): flushes
/// the magazines to the global pool when a `ThreadCtx` is dropped. This
/// crate cannot name the pool, so the hook is registered as a bare fn.
///
/// Stored as a raw fn pointer; null means "not registered". `Relaxed` is
/// sufficient everywhere: the value, once non-null, never changes (the
/// pool registers one function exactly), a fn pointer carries no data to
/// synchronize, and any thread whose magazines are non-empty has itself
/// loaded or stored a non-null hook on the fill path — per-location
/// coherence then keeps its exit-time load from going back to null.
static EXIT_HOOK: AtomicPtr<()> = AtomicPtr::new(std::ptr::null_mut());

/// Register `hook` to run when any `ThreadCtx` is dropped (thread exit).
/// Idempotent and cheap (a `Relaxed` load on the already-registered path),
/// so callers may invoke it from moderately hot code.
pub fn register_thread_exit_hook(hook: fn(&ThreadCtx)) {
    if EXIT_HOOK.load(Ordering::Relaxed).is_null() {
        EXIT_HOOK.store(hook as *mut (), Ordering::Relaxed);
    }
}

fn run_exit_hook(tc: &ThreadCtx) {
    let h = EXIT_HOOK.load(Ordering::Relaxed);
    if !h.is_null() {
        // SAFETY: `h` was stored from a `fn(&ThreadCtx)` in
        // `register_thread_exit_hook` and never changes once set.
        let hook: fn(&ThreadCtx) = unsafe { std::mem::transmute(h) };
        hook(tc);
    }
}

impl Drop for ThreadCtx {
    fn drop(&mut self) {
        run_exit_hook(self);
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
/// operation's work (the module docs list the other TLS accesses). Nesting
/// is allowed (and happens: thunk-internal `Mutable` operations re-enter
/// while `try_lock` holds the outer access).
#[inline]
pub fn with<R>(f: impl FnOnce(&ThreadCtx) -> R) -> R {
    CTX.with(|tc| f(tc))
}

/// Like [`with`], but returns `None` instead of panicking when the
/// context has already been destroyed (TLS teardown). The pool layer's
/// free paths can run from other crates' TLS destructors — e.g. the epoch
/// collector's local-bag drop — and fall back to the global pool then.
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
            });
        })
        .join()
        .unwrap();
    }
}
