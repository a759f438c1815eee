//! Idempotent memory management inside thunks (paper Algorithm 2,
//! `allocate`/`retire`), plus the idempotent descriptor create/retire needed
//! for nested locks (Theorem 4.1's conditions).
//!
//! * [`alloc`] — every run constructs its own object, then commits the
//!   pointer to the thunk log; losers free theirs immediately (it was never
//!   published) and adopt the winner's.
//! * [`retire`] — runs compete for ownership of the retire by committing a
//!   marker; only the first performs the epoch retire, so each object is
//!   retired at most once.
//!
//! A nested descriptor's marker winner may defer instead of retiring; see
//! [`retire_descriptor_idempotent`].
//!
//! Outside a thunk, these degrade to plain allocate / epoch-retire.

use flock_sync::ThreadCtx;

use crate::ctx;
use crate::descriptor::{self, Descriptor};

/// Idempotently allocate an object initialized by `init`.
///
/// Inside a thunk, every run calls `init` (so `init` must be deterministic
/// given the thunk's committed loads — true for ordinary node construction);
/// exactly one resulting object is kept and returned by all runs.
///
/// The returned pointer is shared; free it only via [`retire`].
pub fn alloc<T>(init: impl FnOnce() -> T) -> *mut T {
    let fresh = flock_epoch::alloc(init());
    let (committed, first) = ctx::commit_raw(fresh as u64);
    if !first && committed != fresh as u64 {
        // Some other run committed its allocation first; ours was never
        // visible to anyone.
        // SAFETY: `fresh` was allocated above and never shared.
        unsafe { flock_epoch::free_now(fresh) };
    }
    committed as usize as *mut T
}

/// Marker committed to the log by the winning retire.
const RETIRE_MARKER: u64 = 1;

/// Idempotently retire an object allocated with [`alloc`].
///
/// # Safety
///
/// `ptr` must have been produced by [`alloc`] (or `flock_epoch::alloc`), must
/// be unlinked from all shared structures, and must be logically retired at
/// most once per thunk (multiple *runs* of that retire are the whole point
/// and are safe). The calling thread must be inside an epoch guard.
pub unsafe fn retire<T>(ptr: *mut T) {
    let (_, first) = ctx::commit_raw(RETIRE_MARKER);
    if first {
        // SAFETY: forwarded contract; only the first run reaches this.
        unsafe { flock_epoch::retire(ptr) };
    }
}

/// Idempotently create a descriptor while running an outer thunk: all
/// runners allocate, one pointer wins via the log, losers recycle their
/// private copy.
pub(crate) fn create_descriptor_idempotent<R, F>(
    tc: &ThreadCtx,
    thunk: F,
    guard: &flock_epoch::EpochGuard,
) -> *mut Descriptor
where
    R: Send + 'static,
    F: Fn() -> R + Send + Sync + 'static,
{
    debug_assert!(tc.in_thunk());
    let fresh = descriptor::create_descriptor(thunk, guard.epoch(), true);
    let (committed, first) = ctx::commit_raw_in(tc, fresh as u64);
    if !first && committed != fresh as u64 {
        // SAFETY: `fresh` lost the race and was never published anywhere.
        unsafe { descriptor::recycle_unshared(fresh) };
    }
    committed as usize as *mut Descriptor
}

/// Idempotently retire a nested descriptor: the first run past the marker
/// disposes of it — onto the owner's deferred list inside an owner run, into
/// the epoch collector otherwise (`descriptor`'s module docs, "Lifecycle and
/// hand-off"). Either way its flags stay sticky while any validated runner
/// can still read them, which keeps raw `done` reads divergence-free for
/// late replayers. The marker is committed on both arms, so log positions
/// do not depend on who runs the thunk.
pub(crate) fn retire_descriptor_idempotent(tc: &ThreadCtx, d: *const Descriptor) {
    let (_, first) = ctx::commit_raw_in(tc, RETIRE_MARKER);
    if !first {
        return;
    }
    if tc.owner_run.get() {
        descriptor::defer_nested(tc, d);
    } else {
        // SAFETY: `d` came from `create_descriptor_idempotent`, the lock
        // word no longer references it, and callers hold an epoch guard.
        unsafe { descriptor::retire_published(d as *mut Descriptor) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_outside_thunk_is_plain() {
        let p = alloc(|| 123u64);
        // SAFETY: p is fresh and unshared.
        unsafe {
            assert_eq!(*p, 123);
            let _g = flock_epoch::pin();
            retire(p);
        }
        flock_epoch::flush_all();
    }

    #[test]
    fn alloc_and_retire_many() {
        let _g = flock_epoch::pin();
        for i in 0..100u64 {
            let p = alloc(move || i);
            // SAFETY: fresh allocation, retired once, pinned.
            unsafe {
                assert_eq!(*p, i);
                retire(p);
            }
        }
    }
}
