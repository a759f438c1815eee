//! Thunk descriptors: the unit of helping.
//!
//! A descriptor bundles a thunk (the critical-section closure), its shared
//! log, a `done` flag, a `helped` flag and its birth epoch. Installing a
//! descriptor on a lock word is how a thread "takes" a lock in lock-free
//! mode; any contender can then run the descriptor to completion.
//!
//! ## Lifecycle and hand-off
//!
//! This is the one write-up of who may touch a descriptor when; `Lock::help`
//! documents the validation that rests on it.
//!
//! * **Top-level** descriptors (created outside any thunk) belong to exactly
//!   one thread. After the owning `try_lock` finishes, the owner reuses the
//!   descriptor immediately if no helper ever touched it (`helped == false`,
//!   the common case, §6 of the paper), and otherwise retires it through the
//!   epoch collector.
//! * **Nested** descriptors (created while running an outer thunk) are
//!   created idempotently — all runners of the outer thunk share one — so no
//!   single runner owns them *once something was helped*. Until then one
//!   does: while a thread runs its own top-level descriptor, and the thunks
//!   nested in it that it entered as their owner (an **owner run**), the
//!   winner of a nested descriptor's retire marker does not retire it but
//!   links it onto a per-thread deferred list ([`defer_nested`]). The
//!   top-level dispose drains the list ([`dispose_top_level`]): if the
//!   top-level descriptor and every deferred one read `helped == false`
//!   there, each is reset and pooled like an unhelped top-level descriptor;
//!   if any one was helped, all deferred ones go to the epoch collector.
//!   Thunks run by `Lock::help`, and everything nested inside them, never
//!   defer: their nested descriptors are retired idempotently through the
//!   collector at the marker, as every nested descriptor used to be.
//!
//!   Why the drain may reuse: a nested descriptor is reachable through the
//!   log of the thunk that created it and through the lock word it was
//!   installed on, and nowhere else. An unhelped top-level descriptor has no
//!   replayer and will never get one (its lock word is released; a late
//!   helper fails revalidation and does nothing), so nobody reached the
//!   nested pointer through that log — and inductively through the log of
//!   any deferred descriptor in between, each unhelped itself. An unhelped
//!   nested descriptor has no validated helper through its own lock word
//!   either. Each `helped` read at the drain follows the release of that
//!   descriptor's own lock word, which is the hand-off below. Until the
//!   drain, `done`/`helped` stay sticky on a deferred descriptor exactly as
//!   they do on a retired one, which is what makes the raw `done` reads in
//!   the lock algorithm divergence-free for replayers: a validated replayer
//!   marked some descriptor on its path `helped` first, so nothing it can
//!   read is reset under it.
//!
//! * **Lock-set** descriptors (`Lock::try_lock_set`, and `Locked::try_with2`
//!   on top of it) are top-level or nested like any other, but are
//!   published on up to three lock words: the owner's install puts one on
//!   the first, and a top-level owner's installs then put it on each
//!   further word it finds free, in order; its thunk puts it on any
//!   further word left.
//!   Nothing else about them differs — no second descriptor, no second
//!   log. Their owner releases the further words in reverse order and then
//!   the first, all after `set_done`, and reads `helped` only after every
//!   release (`Lock`'s module docs, "One descriptor on a lock set"). The
//!   further words are released after `done`, not at the end of the thunk,
//!   because a word released mid-run could be acquired, and its tags
//!   issued, by a holder whose window-entry scan misses a stale runner's
//!   announcement while that runner's done-check still reads `false`
//!   (`flock_sync::announce`, "Window-entry scans").
//!
//! **The hand-off** between an owner about to reuse and a helper about to
//! run is a Dekker pair. The helper, pinned, reads the lock word, **marks**
//! `helped` (`SeqCst`), **adopts** the descriptor's birth epoch (which
//! publishes the lowered reservation with a `SeqCst` fence), and only then
//! **revalidates** the lock word and the slab's generation. The owner
//! releases the lock word (`SeqCst` RMW) and only then reads `helped`
//! (`SeqCst`). So either the owner sees the mark and retires instead of
//! reusing — and the helper's adopted epoch keeps the slab, and everything
//! the thunk can reach, alive for the whole help — or the helper's
//! revalidation sees the released word and it does nothing at all. For a
//! lock-set descriptor the pair holds per word: a helper that came through
//! any word and validated did so before the owner's release of that word
//! (or that word was released by another helper, whose own mark then
//! precedes the release the owner's read observed), and every release
//! precedes the owner's `helped` read.
//!
//! A helper that fails revalidation has still written its mark, possibly
//! onto a later incarnation of a pooled slab. That is harmless on live
//! memory (at worst the incarnation takes the retire path), which is why a
//! **published** descriptor — top-level or nested — is never plain-freed:
//! it leaves the pool only through the epoch collector ([`POOL_CAP`],
//! [`dispose_top_level`]).

use std::cell::Cell;

use flock_sync::ThreadCtx;
use flock_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use flock_sync::thread_ctx::{self, ExitHook};

use crate::log::LogBlock;

/// Maximum closure size stored inline in a descriptor; larger thunks spill to
/// a `Box`. 88 bytes holds ~11 words of captures, comfortably covering the
/// data-structure operations in `flock-ds`.
pub(crate) const INLINE_BYTES: usize = 88;
const INLINE_WORDS: usize = INLINE_BYTES / 8;

/// Type-erased storage for a `Fn() -> R + Send + Sync + 'static` closure.
///
/// The result type `R` is erased together with the closure: the stored
/// `call` thunk either writes the computed `R` into a caller-provided slot
/// (owner path — the caller must know the matching `R`) or drops it in
/// place (helper path — helpers run thunks only for their logged side
/// effects and discard the value, which is why `R: Send` is required).
struct ThunkSlot {
    buf: [std::mem::MaybeUninit<u64>; INLINE_WORDS],
    /// Invokes the closure stored in `buf` (inline) or behind it (boxed).
    /// Writes the result to the second argument (a `*mut R`) when non-null,
    /// drops it otherwise.
    call: Option<unsafe fn(*const u8, *mut u8)>,
    /// Drops the closure in place.
    drop_fn: Option<unsafe fn(*mut u8)>,
}

impl ThunkSlot {
    const fn empty() -> Self {
        Self {
            buf: [std::mem::MaybeUninit::uninit(); INLINE_WORDS],
            call: None,
            drop_fn: None,
        }
    }

    /// Store `f`, dropping any previous closure. Requires exclusive access
    /// (descriptor not yet published, or past its grace period).
    fn set<R, F>(&mut self, f: F)
    where
        R: Send + 'static,
        F: Fn() -> R + Send + Sync + 'static,
    {
        self.clear();
        unsafe fn call_inline<R, F: Fn() -> R>(p: *const u8, out: *mut u8) {
            // SAFETY: `p` points at a valid `F` written by `set`.
            let r = (unsafe { &*p.cast::<F>() })();
            if out.is_null() {
                drop(r);
            } else {
                // SAFETY: caller passes a slot of the `R` this closure was
                // stored with (ThunkSlot::call contract).
                unsafe { out.cast::<R>().write(r) };
            }
        }
        unsafe fn drop_inline<F>(p: *mut u8) {
            // SAFETY: exclusive access; `p` holds a valid `F`.
            unsafe { std::ptr::drop_in_place(p.cast::<F>()) }
        }
        unsafe fn call_boxed<R, F: Fn() -> R>(p: *const u8, out: *mut u8) {
            // SAFETY: `p` points at the Box<F> written by `set`.
            let r = (unsafe { &**p.cast::<Box<F>>() })();
            if out.is_null() {
                drop(r);
            } else {
                // SAFETY: as in `call_inline`.
                unsafe { out.cast::<R>().write(r) };
            }
        }
        unsafe fn drop_boxed<F>(p: *mut u8) {
            // SAFETY: exclusive access; `p` holds a valid Box<F>.
            unsafe { std::ptr::drop_in_place(p.cast::<Box<F>>()) }
        }

        if std::mem::size_of::<F>() <= INLINE_BYTES && std::mem::align_of::<F>() <= 8 {
            // SAFETY: size/align checked; buf is exclusively ours.
            unsafe {
                std::ptr::write(self.buf.as_mut_ptr().cast::<F>(), f);
            }
            self.call = Some(call_inline::<R, F>);
            self.drop_fn = Some(drop_inline::<F>);
        } else {
            let boxed: Box<F> = Box::new(f);
            // SAFETY: a Box is one word, fits the 11-word buffer.
            unsafe {
                std::ptr::write(self.buf.as_mut_ptr().cast::<Box<F>>(), boxed);
            }
            self.call = Some(call_boxed::<R, F>);
            self.drop_fn = Some(drop_boxed::<F>);
        }
    }

    /// Invoke the stored closure. May be called concurrently by many threads
    /// (the closure is `Fn + Sync`).
    ///
    /// # Safety
    ///
    /// `out` is either null (the result is dropped) or a pointer to an
    /// uninitialized `R` slot, where `R` is the exact return type the
    /// closure was stored with via [`ThunkSlot::set`].
    #[inline]
    unsafe fn call(&self, out: *mut u8) {
        let call = self.call.expect("descriptor thunk called before set");
        // SAFETY: `call` was installed together with a valid closure in
        // `buf`, and publication of the descriptor pointer (SeqCst CAS)
        // happens-after `set`; `out` per forwarded contract.
        unsafe { call(self.buf.as_ptr().cast::<u8>(), out) }
    }

    /// Drop the stored closure, if any. Requires exclusive access.
    fn clear(&mut self) {
        if let Some(d) = self.drop_fn.take() {
            // SAFETY: exclusive access, closure valid, dropped once.
            unsafe { d(self.buf.as_mut_ptr().cast::<u8>()) };
        }
        self.call = None;
    }
}

impl Drop for ThunkSlot {
    fn drop(&mut self) {
        self.clear();
    }
}

/// A helping descriptor (paper Algorithm 2's `descriptor` struct, plus the
/// implementation fields from §6).
pub struct Descriptor {
    thunk: ThunkSlot,
    first_block: LogBlock,
    /// Set (sticky) once any run of the thunk completes.
    done: AtomicBool,
    /// Set (sticky per incarnation) when any run of the thunk unwound
    /// instead of completing. The panic-safety contract (`Lock` docs,
    /// EXPERIMENTS.md §8) keys replay decisions off this flag: a partially
    /// committed log must never be replayed by a runner that would execute
    /// *past* the panic point after the lock was released. Always written
    /// before `done` and read after it, so a `done` observer sees it.
    panicked: AtomicBool,
    /// Set by any thread that intends to help this descriptor; an unhelped
    /// top-level descriptor can be reused without a grace period.
    helped: AtomicBool,
    /// Epoch reserved by the creating operation; helpers adopt it.
    birth_epoch: AtomicU64,
    /// Incarnation counter of this descriptor slab: bumped on every
    /// (re)initialization in [`create_descriptor`], never reset. Two
    /// observations of the same slab with equal generations are the same
    /// incarnation — the help path's defense against lock-word tag
    /// wraparound, where the packed word `(tag, ptr)` can recur while the
    /// descriptor behind it was pool-recycled (see `Lock::help`).
    generation: AtomicU64,
    /// True when the descriptor was created while running another thunk.
    nested: bool,
    /// Link of the owner thread's deferred list ([`defer_nested`]), and of
    /// the owner thread's descriptor pool while the descriptor sits there
    /// (a pooled descriptor is on no deferred list). Written by the one
    /// winner of this descriptor's retire marker, or by the thread pooling
    /// it, and read back by that same thread; no other thread touches it.
    next_deferred: Cell<*mut Descriptor>,
}

// The nested link must not push the slab out of its 256-byte pool class.
const _: () = assert!(std::mem::size_of::<Descriptor>() <= 256);

// SAFETY: descriptors are shared across helper threads by design. The thunk
// is `Send + Sync`; flags and log are atomics; `thunk`/`nested` are written
// only before publication or with exclusive access (pool reuse / drop);
// `next_deferred` is single-thread by protocol (see the field).
unsafe impl Send for Descriptor {}
unsafe impl Sync for Descriptor {}

impl Descriptor {
    fn new() -> Self {
        Self {
            thunk: ThunkSlot::empty(),
            first_block: LogBlock::new(),
            done: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            helped: AtomicBool::new(false),
            birth_epoch: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            nested: false,
            next_deferred: Cell::new(std::ptr::null_mut()),
        }
    }

    pub(crate) fn first_block(&self) -> &LogBlock {
        &self.first_block
    }

    /// Run the stored thunk, writing its result to `out` (or dropping it
    /// when `out` is null).
    ///
    /// # Safety
    ///
    /// See [`ThunkSlot::call`]: `out` must be null or point at an
    /// uninitialized slot of the thunk's exact return type.
    pub(crate) unsafe fn call_thunk(&self, out: *mut u8) {
        // SAFETY: forwarded contract.
        unsafe { self.thunk.call(out) }
    }

    pub(crate) fn is_done(&self) -> bool {
        // Ordering: Acquire. Callers on the lock paths get the store–load
        // ordering this check needs from a preceding lock-word load that
        // read past the completing helper's release CAM (the try_lock fast
        // path); a stale `false` elsewhere only causes a redundant,
        // idempotent replay. Acquire (not Relaxed) so that a `true` also
        // carries the completed run's log writes for the replay read-back.
        // The announcement protocol uses `is_done_announced` instead.
        self.done.load(Ordering::Acquire)
    }

    /// The done-check of the announce-then-revalidate protocol
    /// (`Mutable::store`'s ABA defense).
    ///
    /// Ordering: Acquire. It is the announcer's side of a Dekker pair
    /// whose barrier is the `SeqCst` fence inside the announcement (see
    /// `flock_sync::announce`, "Memory ordering").
    pub(crate) fn is_done_announced(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    pub(crate) fn set_done(&self) {
        // Update-once location: a plain store is idempotent (paper §6,
        // "Constants and Update-once Locations").
        //
        // Ordering: Release. The announcer is anchored by the `SeqCst`
        // fence inside its announcement, and the flag reaches a scanner
        // through the unlock CAM that follows it and the scanner's lock
        // acquisition (`flock_sync::announce`, "Memory ordering"). Release
        // also keeps the thunk's effects ordered before the flag.
        self.done.store(true, Ordering::Release);
    }

    /// Did any run of this incarnation's thunk panic instead of completing?
    ///
    /// Ordering: Acquire, paired with the Release in [`mark_panicked`].
    /// The flag is always stored before `done`, and the lock paths read it
    /// after observing `done` (itself Acquire), so "done and not panicked"
    /// is a stable conclusion: no runner can set the flag afterwards for
    /// this incarnation (the run that would is the one that set `done`).
    ///
    /// [`mark_panicked`]: Descriptor::mark_panicked
    pub(crate) fn thunk_panicked(&self) -> bool {
        self.panicked.load(Ordering::Acquire)
    }

    /// Record that a run of the thunk unwound. Must be called before the
    /// same runner's `set_done` (see [`Descriptor::thunk_panicked`]).
    pub(crate) fn mark_panicked(&self) {
        self.panicked.store(true, Ordering::Release);
    }

    pub(crate) fn was_helped(&self) -> bool {
        // Ordering: SeqCst — the read side of the Dekker pair with the
        // unlock CAM: the owner unlocks (SeqCst RMW), then reads `helped`;
        // a helper marks `helped`, fences (epoch adoption), then reads the
        // lock word. SeqCst on both flag accesses keeps the "owner misses
        // the mark AND helper misses the unlock" interleaving impossible.
        // This is the reuse-decision path, once per completed op — not
        // worth weakening.
        self.helped.load(Ordering::SeqCst)
    }

    pub(crate) fn mark_helped(&self) {
        // Ordering: SeqCst — write side of the Dekker pair, see
        // `was_helped`. Help paths only run under contention.
        self.helped.store(true, Ordering::SeqCst);
    }

    /// This slab's incarnation number (see the field docs).
    ///
    /// Ordering: Acquire. A helper that observed the descriptor installed
    /// on a lock word (SeqCst load reading from the SeqCst install CAS)
    /// already synchronizes with the incarnation's initialization; Acquire
    /// here keeps the *re-read* in the generation-validated help protocol
    /// from floating above the lock-word load it follows, so "generation
    /// unchanged" really does mean "no `create_descriptor` ran in between".
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    pub(crate) fn birth_epoch(&self) -> u64 {
        // Ordering: Relaxed. The epoch is written before the descriptor is
        // published (install CAS / log commit, both release writes) and
        // read only by threads that acquired the descriptor pointer from
        // one of those locations, so it is covered by that happens-before.
        self.birth_epoch.load(Ordering::Relaxed)
    }

    #[cfg(test)]
    pub(crate) fn is_nested(&self) -> bool {
        self.nested
    }
}

/// Capacity of the per-thread descriptor pool (paper §6: "if a descriptor
/// is never helped, which is the common case, then it can be reused
/// immediately instead of being retired").
///
/// The pool is an intrusive free list on the thread's `ThreadCtx`
/// (`desc_pool`, `desc_pool_len`), linked through `next_deferred`. Its
/// entries are raw `flock_epoch::alloc` pointers (not `Box`es): every
/// descriptor shares the epoch allocator's provenance, so the collector's
/// pool-aware drop path can return the memory to the slab pool uniformly.
///
/// Once a descriptor has been published (installed on a lock word), a stale
/// helper that read the old lock word may still write its `helped` flag at
/// any later time, even after the descriptor was recycled. Such writes are
/// harmless on *live* memory (they at worst force the next incarnation down
/// the conservative retire path), so published descriptors may be pooled —
/// but they must never be immediately *freed*: when they leave the pool
/// (overflow or thread exit) they go through the epoch collector.
const POOL_CAP: u32 = 32;

/// The log layer's thread-exit hook (`ExitHook::Descriptors`): empty the
/// pool into the collector's orphan bag. The entries may have been
/// published, so even fully reset they are reachable through stale helpers'
/// pointers, and the orphan retire defers the free past any pinned one.
/// Touches no thread-local, as a TLS destructor must not.
fn drain_pool(tc: &ThreadCtx) {
    let mut d: *mut Descriptor = tc.desc_pool.replace(std::ptr::null_mut()).cast();
    tc.desc_pool_len.set(0);
    while !d.is_null() {
        // SAFETY: pooled, so reset and owned by this thread alone; the link
        // is read before the retire, which happens once.
        unsafe {
            let next = (*d).next_deferred.get();
            flock_epoch::debug_track_alloc(d);
            flock_epoch::retire_orphan(d);
            d = next;
        }
    }
}

#[cfg(test)]
thread_local! {
    /// What the calling thread's descriptors cost the allocator and the
    /// collector so far: `(fresh slabs taken, descriptors retired)`. The
    /// collector's own counters are process-wide, and sibling tests move
    /// them.
    pub(crate) static TALLY: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

#[cfg(test)]
fn tally(fresh: usize, retired: usize) {
    let (f, r) = TALLY.get();
    TALLY.set((f + fresh, r + retired));
}

/// Slab addresses in the calling thread's pool, newest (next to be
/// reused) first.
#[cfg(test)]
pub(crate) fn pooled() -> Vec<usize> {
    let mut out = Vec::new();
    let mut d: *mut Descriptor = thread_ctx::with(|tc| tc.desc_pool.get().cast());
    while !d.is_null() {
        out.push(d as usize);
        // SAFETY: pooled descriptors stay live while pooled.
        d = unsafe { (*d).next_deferred.get() };
    }
    out
}

/// [`create_descriptor`] on the calling thread's context.
#[cfg(test)]
pub(crate) fn create_here<R, F>(f: F, birth_epoch: u64, nested: bool) -> *mut Descriptor
where
    R: Send + 'static,
    F: Fn() -> R + Send + Sync + 'static,
{
    thread_ctx::with(|tc| create_descriptor(tc, f, birth_epoch, nested))
}

/// [`recycle_unshared`] on the calling thread's context.
///
/// # Safety
///
/// As for [`recycle_unshared`].
#[cfg(test)]
pub(crate) unsafe fn recycle_here(d: *mut Descriptor) {
    // SAFETY: forwarded contract.
    thread_ctx::with(|tc| unsafe { recycle_unshared(tc, d) })
}

/// Create (or recycle) a descriptor holding `f`.
///
/// The returned pointer is fully initialized but not yet published; the
/// caller publishes it by CASing it into a lock word or committing it to a
/// log, both of which order the initialization before any helper's reads.
pub(crate) fn create_descriptor<R, F>(
    tc: &ThreadCtx,
    f: F,
    birth_epoch: u64,
    nested: bool,
) -> *mut Descriptor
where
    R: Send + 'static,
    F: Fn() -> R + Send + Sync + 'static,
{
    let pooled: *mut Descriptor = tc.desc_pool.get().cast();
    let raw = if pooled.is_null() {
        // Fresh slab from the epoch allocator (and through its slab pool
        // when the descriptor fits a size class), so every descriptor has
        // the provenance `flock_epoch::retire` expects.
        #[cfg(test)]
        tally(1, 0);
        flock_epoch::alloc(Descriptor::new())
    } else {
        // SAFETY: pooled, so live and this thread's alone.
        tc.desc_pool
            .set(unsafe { (*pooled).next_deferred.get() }.cast());
        tc.desc_pool_len.set(tc.desc_pool_len.get() - 1);
        flock_epoch::debug_track_alloc(pooled);
        pooled
    };
    // SAFETY: pooled entries are unshared-for-writing (stale helpers may
    // still store the atomic flags, which reinitialization below clears);
    // fresh entries are exclusively ours.
    let d = unsafe { &mut *raw };
    // A stale helper of a previous incarnation may have marked the pooled
    // descriptor `helped` after its reset; clear the flags here, *before*
    // publication, so the marks cannot leak into this incarnation's checks.
    d.done.store(false, Ordering::Relaxed);
    d.panicked.store(false, Ordering::Relaxed);
    d.helped.store(false, Ordering::Relaxed);
    // New incarnation: bump the generation so any helper still holding a
    // pre-recycle observation of this slab fails its generation re-check
    // (the tag-wrap defense in `Lock::help`). Load + store, not an RMW:
    // this is the slab's only writer (helpers, stale ones included, only
    // ever read the counter). Release pairs with the Acquire in
    // `generation()`; the bump is also ordered before any publication of
    // this incarnation by the install CAS / log commit.
    let generation = d.generation.load(Ordering::Relaxed);
    d.generation.store(generation + 1, Ordering::Release);
    d.thunk.set(f);
    // Ordering: Relaxed — pre-publication write, ordered by the install
    // CAS / log commit that later publishes the descriptor (see
    // `birth_epoch`).
    d.birth_epoch.store(birth_epoch, Ordering::Relaxed);
    d.nested = nested;
    raw
}

/// Reset `d` and push it onto the calling thread's pool; when the pool is
/// full, hand it to `overflow` instead.
///
/// # Safety
///
/// No other thread may be running `d` or reading its thunk or log (stale
/// helpers only ever store its atomic flags); `overflow` must be a sound
/// way to dispose of `d` under that same premise.
unsafe fn recycle(tc: &ThreadCtx, d: *mut Descriptor, overflow: unsafe fn(*mut Descriptor)) {
    // SAFETY: exclusive access per contract.
    let desc = unsafe { &mut *d };
    desc.thunk.clear();
    // SAFETY: exclusive access; stale helpers never touch the log.
    unsafe { desc.first_block.reset() };
    desc.done.store(false, Ordering::Relaxed);
    desc.panicked.store(false, Ordering::Relaxed);
    desc.helped.store(false, Ordering::Relaxed);
    // Read the pool only now: dropping the closure above may have run a
    // `try_lock` of its own, which pops and pushes.
    let len = tc.desc_pool_len.get();
    if len < POOL_CAP {
        thread_ctx::register_thread_exit_hook(ExitHook::Descriptors, drain_pool);
        flock_epoch::debug_track_dealloc(d, "descriptor-recycle");
        desc.next_deferred.set(tc.desc_pool.get().cast());
        tc.desc_pool.set(d.cast());
        tc.desc_pool_len.set(len + 1);
    } else {
        // SAFETY: forwarded contract.
        unsafe { overflow(d) };
    }
}

/// Hand a **published** descriptor to the epoch collector.
///
/// # Safety
///
/// [`flock_epoch::retire`]'s contract: pinned, retired once, unreachable
/// for new readers.
pub(crate) unsafe fn retire_published(d: *mut Descriptor) {
    #[cfg(test)]
    tally(0, 1);
    // SAFETY: forwarded contract.
    unsafe { flock_epoch::retire(d) };
}

/// Return an **unshared** descriptor to the pool (install CAM failed at top
/// level, or the idempotent-create race was lost): no other thread has seen
/// it, so it can be reset and reused with no grace period — and, the pool
/// being full, freed on the spot.
///
/// # Safety
///
/// `d` must come from [`create_descriptor`] and must never have been
/// published (not CASed into a lock word, not committed to a log).
pub(crate) unsafe fn recycle_unshared(tc: &ThreadCtx, d: *mut Descriptor) {
    // SAFETY: unshared per contract; came from `flock_epoch::alloc`.
    unsafe { recycle(tc, d, flock_epoch::free_now) };
}

/// Defer the disposal of nested descriptor `d` to the end of the calling
/// thread's owner run (module docs, "Lifecycle and hand-off"). Called by
/// the winner of `d`'s retire marker, so at most once per descriptor.
pub(crate) fn defer_nested(tc: &ThreadCtx, d: *const Descriptor) {
    debug_assert!(tc.owner_run.get());
    // SAFETY: `d` is live (not yet retired — this call stands in for that)
    // and the marker winner is the link's only writer.
    unsafe { (*d).next_deferred.set(tc.deferred.get().cast()) };
    tc.deferred.set(d as *mut ());
}

/// Dispose of a finished **top-level** descriptor after its `try_lock`
/// completed, and of every nested descriptor deferred during its run:
/// reuse immediately what no helper can reach (module docs, "Lifecycle and
/// hand-off"), retire the rest through the epoch collector.
///
/// # Safety
///
/// Caller must be the unique owner thread of this top-level descriptor, the
/// lock word must no longer reference it, and the calling thread must be
/// pinned (for the retire path).
pub(crate) unsafe fn dispose_top_level(tc: &ThreadCtx, d: *mut Descriptor) {
    // No helper committed to running this descriptor before the lock word
    // stopped referencing it (the helped→revalidate protocol guarantees any
    // running helper's mark is visible by now). A *stale* helper may still
    // mark `helped` later; that is why published descriptors never leave
    // the pool through a plain free (see `POOL_CAP`).
    // SAFETY: `d` is valid; owner-only call.
    let unhelped = !unsafe { (*d).was_helped() };
    let mut deferred: *mut Descriptor = tc.deferred.replace(std::ptr::null_mut()).cast();
    if !deferred.is_null() {
        // One verdict for the whole list: every descriptor between the top
        // level and a deferred one must be unhelped for that one to be
        // unreachable, and a per-descriptor verdict would buy little.
        let mut all_unhelped = unhelped;
        let mut p = deferred;
        while !p.is_null() {
            // SAFETY: deferred descriptors stay live until disposed below.
            unsafe {
                all_unhelped &= !(*p).was_helped();
                p = (*p).next_deferred.get();
            }
        }
        // Sanity-mutant hook: recycle deferred descriptors whatever the
        // marks say, so the model checker can show a replayer running on a
        // reset descriptor.
        #[cfg(feature = "model")]
        if crate::mutants::recycle_helped_nested() {
            all_unhelped = true;
        }
        while !deferred.is_null() {
            // SAFETY: as above; the link is read before the disposal.
            let next = unsafe { (*deferred).next_deferred.get() };
            // SAFETY: unhelped all the way up, so unreachable (module
            // docs); otherwise pinned per contract, retired once (this
            // thread won the retire marker), unreachable for new readers.
            unsafe { dispose_published(tc, deferred, all_unhelped) };
            deferred = next;
        }
    }
    // SAFETY: ownership argument above when unhelped; otherwise pinned per
    // contract, unreachable from the lock word, and stray helpers hold
    // epoch protection.
    unsafe { dispose_published(tc, d, unhelped) };
}

/// Dispose of a **published** descriptor that no lock word references any
/// more: reset and pool it when `reusable`, retire it otherwise. A full pool
/// retires too — a plain free would race stale helpers' marks.
///
/// # Safety
///
/// `reusable` asserts [`recycle`]'s premise; either way
/// [`retire_published`]'s contract must hold.
unsafe fn dispose_published(tc: &ThreadCtx, d: *mut Descriptor, reusable: bool) {
    // SAFETY: forwarded contract.
    unsafe {
        if reusable {
            recycle(tc, d, retire_published);
        } else {
            retire_published(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::sync::atomic::AtomicUsize;

    /// Run `d`'s thunk and read back its typed result.
    ///
    /// # Safety
    ///
    /// `R` must be the exact return type `d`'s closure was created with.
    unsafe fn call_for<R: Send + 'static>(d: *const Descriptor) -> R {
        let mut out = std::mem::MaybeUninit::<R>::uninit();
        // SAFETY: d live per caller; out slot matches R per caller.
        unsafe { (*d).call_thunk(out.as_mut_ptr().cast()) };
        // SAFETY: call_thunk wrote the slot.
        unsafe { out.assume_init() }
    }

    #[test]
    fn inline_thunk_roundtrip() {
        let x = 41u64;
        let d = create_here(move || x + 1 == 42, 0, false);
        // SAFETY: d is live and unshared.
        unsafe {
            assert!(call_for::<bool>(d));
            assert!(!(*d).is_done());
            recycle_here(d);
        }
    }

    #[test]
    fn big_thunk_spills_to_box() {
        let big = [7u64; 64]; // 512 bytes of captures
        let d = create_here(move || big.iter().sum::<u64>() == 7 * 64, 0, false);
        // SAFETY: d is live and unshared.
        unsafe {
            assert!(call_for::<bool>(d));
            recycle_here(d);
        }
    }

    #[test]
    fn non_bool_results_roundtrip() {
        let d = create_here(|| Some(17u64), 0, false);
        // SAFETY: d is live and unshared; R matches.
        unsafe {
            assert_eq!(call_for::<Option<u64>>(d), Some(17));
            // Helper-style discard run: result dropped in place.
            (*d).call_thunk(std::ptr::null_mut());
            recycle_here(d);
        }
    }

    #[test]
    fn discarded_result_is_dropped() {
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let d2 = Arc::clone(&drops);
        let d = create_here(move || Probe(Arc::clone(&d2)), 0, false);
        // SAFETY: d is live and unshared.
        unsafe {
            (*d).call_thunk(std::ptr::null_mut());
            assert_eq!(drops.load(Ordering::Relaxed), 1, "discarded result dropped");
            recycle_here(d);
        }
    }

    #[test]
    fn closure_dropped_on_recycle() {
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let probe = Probe(Arc::clone(&drops));
        let d = create_here(move || !std::ptr::eq(&probe.0, std::ptr::null()), 0, false);
        // SAFETY: d is live and unshared.
        unsafe { recycle_here(d) };
        assert_eq!(drops.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pool_reuses_descriptors() {
        let d1 = create_here(|| true, 0, false);
        let addr1 = d1 as usize;
        // SAFETY: unshared.
        unsafe { recycle_here(d1) };
        let d2 = create_here(|| false, 0, false);
        assert_eq!(d2 as usize, addr1, "pool should hand back the same slab");
        // SAFETY: unshared.
        unsafe { recycle_here(d2) };
    }

    #[test]
    fn flags_roundtrip() {
        let d = create_here(|| true, 5, true);
        // SAFETY: d is live and unshared.
        unsafe {
            assert_eq!((*d).birth_epoch(), 5);
            assert!((*d).is_nested());
            assert!(!(*d).was_helped());
            (*d).mark_helped();
            assert!((*d).was_helped());
            (*d).set_done();
            assert!((*d).is_done());
            // Nothing else saw it, so the unshared path is fine for the
            // teardown (it resets the flags).
            recycle_here(d);
        }
    }
}
