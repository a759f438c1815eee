//! Ambient per-thread execution context: current log, position, descriptor.
//!
//! Mirrors the paper's process-local `log` and `position` variables
//! (Algorithm 2, lines 4–6). `run_in` installs a descriptor's log, runs its
//! thunk, and restores the previous context, which is what makes nested
//! thunks work.
//!
//! The state itself lives in the workspace-wide single thread-local,
//! [`flock_sync::ThreadCtx`] (`log_block` / `log_pos` / `descriptor`, all
//! null/zero at top level). Hot paths fetch the context **once** via
//! `thread_ctx::with` and pass it down by reference; the `*_in` functions
//! here are those reference-taking forms, and the public wrappers exist for
//! call sites outside an operation.

use flock_sync::{ThreadCtx, thread_ctx};

use crate::descriptor::Descriptor;
use crate::log::{EMPTY, LOG_BLOCK_ENTRIES, LogBlock};

/// Is the calling thread currently running a thunk (logging enabled)?
#[inline]
pub fn in_thunk() -> bool {
    thread_ctx::with(|tc| tc.in_thunk())
}

/// Commit `val` to the current thunk log, advancing the position.
///
/// Returns `(committed_value, was_first)`. Outside any thunk this is the
/// paper's line 32 fast path: the input comes straight back with
/// `was_first = true` and nothing is logged.
#[inline]
pub fn commit_raw(val: u64) -> (u64, bool) {
    thread_ctx::with(|tc| commit_raw_in(tc, val))
}

/// [`commit_raw`] against an already-fetched thread context.
#[inline]
pub(crate) fn commit_raw_in(tc: &ThreadCtx, val: u64) -> (u64, bool) {
    debug_assert_ne!(val, EMPTY, "cannot commit the EMPTY sentinel");
    let block = tc.log_block.get() as *const LogBlock;
    if block.is_null() {
        return (val, true);
    }
    // SAFETY: `log_block` points to the running descriptor's log, which is
    // kept alive for at least as long as any thread can be running the
    // thunk (epoch-protected or owner-held).
    let mut block_ref = unsafe { &*block };
    let mut pos = tc.log_pos.get();
    if pos == LOG_BLOCK_ENTRIES {
        let next = block_ref.next_or_extend();
        tc.log_block.set(next as *const ());
        pos = 0;
        // SAFETY: `next_or_extend` returns a valid block in the same
        // chain, protected by the same lifetime argument.
        block_ref = unsafe { &*next };
    }
    let (committed, first) = block_ref.commit_at(pos, val);
    tc.log_pos.set(pos + 1);
    (committed, first)
}

/// Where the running thunk's next log commit lands: its log block and the
/// position within it, as one word (a block is 8-byte aligned and the
/// position is at most [`LOG_BLOCK_ENTRIES`], so the two never overlap).
/// Equal cursors at two points of one run mean nothing was committed in
/// between.
#[inline(always)]
pub(crate) fn log_cursor(tc: &ThreadCtx) -> usize {
    const _: () = assert!(LOG_BLOCK_ENTRIES < std::mem::align_of::<LogBlock>());
    tc.log_block.get() as usize | tc.log_pos.get()
}

/// Entries the running thunk has committed so far, counted across its
/// log's blocks: a reused descriptor's log spills into a kept block without
/// allocating, so a count of allocations cannot tell a spill.
#[cfg(test)]
pub(crate) fn entries_committed(tc: &ThreadCtx) -> usize {
    let d = tc.descriptor.get() as *const Descriptor;
    assert!(!d.is_null(), "no thunk is running");
    // SAFETY: the running descriptor and its chain are live for the run.
    let mut block = unsafe { (*d).first_block() } as *const LogBlock;
    let mut entries = tc.log_pos.get();
    while block != tc.log_block.get() as *const LogBlock {
        assert!(!block.is_null(), "the running block is not in the chain");
        entries += LOG_BLOCK_ENTRIES;
        // SAFETY: as above.
        block = unsafe { (*block).next_block() };
    }
    entries
}

/// Run descriptor `d`'s thunk under its log (paper Algorithm 2, `run`).
///
/// Saves the caller's context, installs `d`'s log at position 0, runs the
/// thunk, and restores the caller's context — even on unwind, so a panicking
/// thunk does not poison the thread for unrelated operations.
///
/// The thunk's result is written to `out` when non-null and dropped
/// otherwise (the helper path: helpers replay thunks for their logged
/// effects only). Because every load inside a thunk is committed to the
/// shared log, replays compute the identical result, so the owner can
/// recover the value by re-running even after being helped to completion.
///
/// # Safety
///
/// `d` must point to a live, initialized descriptor whose thunk and log stay
/// valid for the duration of the call (owner-held, or epoch-protected after
/// the helping protocol's revalidation). `out` must be null or point at an
/// uninitialized slot of the thunk's exact return type. `tc` must be the
/// calling thread's context.
pub(crate) unsafe fn run_in(tc: &ThreadCtx, d: *const Descriptor, out: *mut u8) -> bool {
    struct Restore<'a> {
        tc: &'a ThreadCtx,
        block: *const (),
        pos: usize,
        descr: *const (),
        marked: bool,
    }
    impl Drop for Restore<'_> {
        fn drop(&mut self) {
            self.tc.log_block.set(self.block);
            self.tc.log_pos.set(self.pos);
            self.tc.descriptor.set(self.descr);
            self.tc.marked.set(self.marked);
            self.tc.load_cell.set(0);
        }
    }

    let _restore = Restore {
        tc,
        block: tc.log_block.get(),
        pos: tc.log_pos.get(),
        descr: tc.descriptor.get(),
        marked: tc.marked.replace(false),
    };
    // SAFETY: caller guarantees `d` is live and initialized.
    let dref = unsafe { &*d };
    tc.log_block
        .set(dref.first_block() as *const LogBlock as *const ());
    tc.log_pos.set(0);
    tc.descriptor.set(d as *const ());
    // A load recorded by the enclosing run, or by an earlier run of this
    // slab, is no load of this run's (`Mutable::store`).
    tc.load_cell.set(0);
    // Chaos seam: the thunk context is installed and the body is about to
    // execute — a stall here parks this runner mid-critical-section, a
    // panic here unwinds out of "the thunk" (the Restore guard above plus
    // the callers' panic handling keep both survivable). No-op by default.
    flock_sync::chaos::probe(flock_sync::chaos::Seam::InThunk);
    // SAFETY: `out` per forwarded contract.
    unsafe { dref.call_thunk(out) };
    tc.marked.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_level_commit_passes_through() {
        assert!(!in_thunk());
        let (v, first) = commit_raw(123);
        assert_eq!(v, 123);
        assert!(first);
    }

    #[test]
    fn top_level_has_no_descriptor() {
        thread_ctx::with(|tc| assert!(tc.descriptor.get().is_null()));
    }
}
