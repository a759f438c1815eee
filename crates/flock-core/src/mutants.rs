//! Deliberate protocol weakenings for validating the model checker.
//!
//! Each knob re-creates a bug class the `flock-model` test suite claims to
//! catch; a model test flips the knob and asserts the checker **finds** a
//! failing schedule. Everything here is `cfg(feature = "model")`-gated and
//! absent from production builds; the knobs are plain std atomics (test
//! configuration, not modeled protocol state).

use core::sync::atomic::{AtomicBool, Ordering};

/// Skip committing `Mutable` loads to the thunk log: runs of the same thunk
/// may observe different values and diverge — the exact replay-divergence
/// (double-applied effects) the log-based idempotence scheme exists to
/// prevent.
pub static SKIP_LOAD_COMMIT: AtomicBool = AtomicBool::new(false);

pub(crate) fn skip_load_commit() -> bool {
    SKIP_LOAD_COMMIT.load(Ordering::Relaxed)
}

/// Break log-commit agreement: `commit_at` reports every commit as the
/// winner with the caller's own value instead of CAS-adjudicating. Helpers
/// stop adopting the first committer's values, so replays diverge.
pub static LOG_NO_AGREEMENT: AtomicBool = AtomicBool::new(false);

pub(crate) fn log_no_agreement() -> bool {
    LOG_NO_AGREEMENT.load(Ordering::Relaxed)
}

/// Drop the generation re-checks from the help path (`Lock::help` behaves
/// as before the descriptor-generation fix): a stalled helper that survives
/// an exact `TAG_LIMIT`-install wraparound of one lock word revalidates a
/// *reincarnated* packed word — the same-value-different-incarnation ABA
/// the generation counter exists to reject — and can run or unlock a
/// descriptor that is not the one it observed.
pub static SKIP_GEN_CHECK: AtomicBool = AtomicBool::new(false);

pub(crate) fn skip_gen_check() -> bool {
    SKIP_GEN_CHECK.load(Ordering::Relaxed)
}

/// Recycle the nested descriptors an owner run deferred whatever their
/// `helped` marks (and the top-level descriptor's) say: a validated helper
/// still replaying one of them — through the enclosing thunk's log or
/// through the nested lock word — finds its log reset under it, re-commits
/// fresh reads and applies the thunk's effects a second time.
pub static RECYCLE_HELPED_NESTED: AtomicBool = AtomicBool::new(false);

pub(crate) fn recycle_helped_nested() -> bool {
    RECYCLE_HELPED_NESTED.load(Ordering::Relaxed)
}

/// Read `helped` (dispose) before releasing the last word of a lock set:
/// a helper arriving through that word marks the descriptor after the
/// owner's read and still revalidates against the unreleased word, so it
/// runs a descriptor the owner has reset.
pub static HELPED_BEFORE_LAST_RELEASE: AtomicBool = AtomicBool::new(false);

pub(crate) fn helped_before_last_release() -> bool {
    HELPED_BEFORE_LAST_RELEASE.load(Ordering::Relaxed)
}

/// Skip the owner's release of the last word of a lock set (the second
/// word of a two-lock set, the third of a three-lock one): unless a helper
/// happened to come through that word, it stays locked after the set's
/// critical section returned.
pub static SKIP_LAST_RELEASE: AtomicBool = AtomicBool::new(false);

pub(crate) fn skip_last_release() -> bool {
    SKIP_LAST_RELEASE.load(Ordering::Relaxed)
}

/// A helper's release installs the empty word instead of the word's
/// unlocked form: an obsolete bit the run set is dropped, and the lock of
/// an unlinked node can be taken again.
pub static HELPER_RELEASE_DROPS_OBSOLETE: AtomicBool = AtomicBool::new(false);

pub(crate) fn helper_release_drops_obsolete() -> bool {
    HELPER_RELEASE_DROPS_OBSOLETE.load(Ordering::Relaxed)
}

/// An acquisition installs on any unlocked word, obsolete or not (the test
/// before the obsolete bit existed): a critical section runs under the
/// lock of a node that was already unlinked.
pub static INSTALL_IGNORES_OBSOLETE: AtomicBool = AtomicBool::new(false);

pub(crate) fn install_ignores_obsolete() -> bool {
    INSTALL_IGNORES_OBSOLETE.load(Ordering::Relaxed)
}

/// A nested acquisition's busy branch waits as a top-level one does, and
/// skips the help when the word moved on: a replayer that polls after the
/// holder released skips the help a first runner made, and its later log
/// commits land on the entries that help committed.
pub static WAIT_SKIPS_HELP_IN_THUNK: AtomicBool = AtomicBool::new(false);

pub(crate) fn wait_skips_help_in_thunk() -> bool {
    WAIT_SKIPS_HELP_IN_THUNK.load(Ordering::Relaxed)
}
