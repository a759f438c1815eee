//! Named fault-injection points at the protocol seams.
//!
//! This is the third instance of the workspace's seam discipline (after
//! [`crate::atomic`]'s model shim and `flock_core::model_probe`): the real
//! implementation calls [`probe`] at a handful of **named seams** — the
//! points where the paper's progress argument actually bites, i.e. where a
//! thread can stall, die, or unwind while other threads depend on protocol
//! state it published. In default builds [`probe`] is an empty
//! `#[inline(always)]` function, so the hot paths are byte-identical to a
//! hook-free build (enforced by the CI bench gate). Under the non-default
//! `chaos` feature each probe consults a process-global registered
//! [`ChaosPolicy`], which may park the calling thread (stall injection),
//! panic (unwind injection), or do nothing.
//!
//! The policies themselves — bounded/unbounded stalls with releasable
//! latches, panic-at-seam, oversubscription churn — live in the
//! `flock-chaos` crate; this module only defines the seam names and the
//! registration surface, exactly as `atomic` only defines the shim.
//!
//! ## Policy contract
//!
//! A [`ChaosPolicy`] runs **inside** protocol hot paths, possibly while the
//! calling thread holds a Flock lock, owns a committed descriptor, or is
//! epoch-pinned. It must therefore confine itself to `std` primitives
//! (parking, channels, atomics) and must never call back into Flock locks,
//! `Mutable`, or the epoch API — a policy that takes a Flock lock from
//! inside a seam can deadlock against the very thread it is stalling.
//! Panicking out of a probe is explicitly allowed: the seams are placed so
//! that an unwind exercises the panic-safety contract of the surrounding
//! protocol code (see `flock_core::lock`).

/// The named injection points. Each variant is one place in the real
/// implementation where [`probe`] is called; the seam catalog in
/// EXPERIMENTS.md §8 documents what protocol state the calling thread holds
/// at each one and what a stall or unwind there must *not* be able to break.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Seam {
    /// Mid-acquisition, lock-free mode: the install CAS has published a
    /// descriptor in the lock word, but its runner has not started running
    /// the thunk. Every lock-free install crosses it — `try_lock`, the
    /// strict `lock`, a lock set's first and further words, top-level or
    /// nested. A thread stalled here holds the lock; helpers must be able
    /// to complete the thunk from the committed descriptor.
    LockInstalled,
    /// Inside `ctx::run_in`, immediately before the thunk body executes
    /// (owner or helper, lock-free mode). A stall here parks a thread
    /// mid-critical-section with the log cursor set; a panic here unwinds
    /// out of "the thunk" from the protocol's point of view.
    InThunk,
    /// Inside `Mutable::tagged_cas_after_load_in`, between the tag-choice
    /// log commit and the install CAS — the classic helping window: the
    /// chosen tag is committed and announced but not yet installed, so a
    /// helper replaying the thunk must reach agreement through the log.
    LogCommitToInstall,
    /// In `Lock::help`, after full revalidation (word + generation),
    /// immediately before the helper runs the victim's thunk. A panic here
    /// is "a helper died mid-help"; a stall here is a helper holding an
    /// adopted epoch.
    HelpRun,
    /// Immediately after an epoch reservation is published in `pin_with`.
    /// A permanent stall here is the forever-pinned reader that the epoch
    /// collector must degrade gracefully under (bounded-and-reported bag
    /// growth, never unbounded-and-silent — see `flock_epoch::epoch_stats`).
    EpochPinned,
    /// Blocking mode: the TTAS lock is held and the critical section is
    /// about to execute. A thread stalled here is the paper's motivating
    /// failure: nothing can help it, so waiters spin until it resumes.
    BlockingCritical,
}

/// A registered fault-injection policy: called at every enabled seam
/// crossing on every thread. See the module docs for the re-entrancy
/// contract. `at` may return normally (no fault), park the calling thread
/// for any duration (stall), or panic (unwind injection).
#[cfg(feature = "chaos")]
pub trait ChaosPolicy: Send + Sync {
    /// Called at each seam crossing.
    fn at(&self, seam: Seam);
}

/// Default build: the probe is an empty inlined function — the call sites
/// compile to nothing, verified by the bench gate against the committed
/// baseline.
#[cfg(not(feature = "chaos"))]
#[inline(always)]
pub fn probe(_seam: Seam) {}

#[cfg(feature = "chaos")]
pub use active::{clear_chaos_policy, probe, set_chaos_policy};

#[cfg(feature = "chaos")]
mod active {
    use super::{ChaosPolicy, Seam};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, RwLock};

    /// Fast-path gate so un-instrumented test runs that merely *link* the
    /// chaos feature pay one relaxed load per seam, not a lock.
    static ACTIVE: AtomicBool = AtomicBool::new(false);
    static POLICY: RwLock<Option<Arc<dyn ChaosPolicy>>> = RwLock::new(None);

    /// Register `policy` as the process-global chaos policy. Replaces any
    /// previous policy. Tests that register policies must serialize with
    /// each other (the `flock-chaos` harness provides the exclusion).
    pub fn set_chaos_policy(policy: Arc<dyn ChaosPolicy>) {
        *POLICY.write().unwrap_or_else(|e| e.into_inner()) = Some(policy);
        ACTIVE.store(true, Ordering::SeqCst);
    }

    /// Deregister the chaos policy. Probes already in flight keep their
    /// `Arc` clone and finish against the old policy.
    pub fn clear_chaos_policy() {
        ACTIVE.store(false, Ordering::SeqCst);
        *POLICY.write().unwrap_or_else(|e| e.into_inner()) = None;
    }

    /// Chaos build: consult the registered policy, if any.
    pub fn probe(seam: Seam) {
        if !ACTIVE.load(Ordering::Relaxed) {
            return;
        }
        // Clone out of the lock so a policy that parks does not hold the
        // registry lock across its stall.
        let policy = POLICY
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .cloned();
        if let Some(p) = policy {
            p.at(seam);
        }
    }
}
