//! # flock-core — lock-free locks via log-based idempotence
//!
//! The primary contribution of *"Lock-Free Locks Revisited"* (Ben-David,
//! Blelloch, Wei — PPoPP 2022), in Rust. Write critical sections as ordinary
//! closures over fine-grained locks; run them either **lock-free** — where a
//! thread that finds a lock taken *helps* the holder finish and release —
//! or **blocking** (plain spin locks), switched at runtime with
//! [`set_lock_mode`].
//!
//! ## The three layers
//!
//! 1. **Idempotence** ([`Mutable`], [`UpdateOnce`], [`commit_value`],
//!    [`alloc`], [`retire`]): a critical section (*thunk*) may be run
//!    concurrently by many helpers; a shared per-thunk *log* makes all runs
//!    observe identical values, so the thunk's effects apply exactly once.
//!    All the user must do is wrap shared mutable locations in [`Mutable`]
//!    and allocate/retire through this module.
//! 2. **Locks** ([`Lock::try_lock`], [`Lock::lock`], and the packaged
//!    [`Locked<T>`] cell): ~20 lines over idempotent
//!    operations (paper Algorithm 3). Locks nest; thunks are generic over
//!    their result type, and try-locks return `None` instead of waiting —
//!    which is what optimistic fine-grained data structures want, without
//!    conflating "lock busy" with the thunk's own result.
//! 3. **Memory reclamation** (re-exported from [`flock_epoch`]): epoch-based,
//!    with helpers adopting the epoch of the thunk they help.
//!
//! ## Example: a guarded account with a typed result
//!
//! ```
//! use flock_core::{Locked, Mutable};
//!
//! let account = Locked::new(Mutable::new(100u32));
//!
//! // `None` would mean "lock busy"; the withdrawal outcome is the
//! // closure's own, separately typed result.
//! let withdrew = account.try_with(|balance| {
//!     let b = balance.load();
//!     if b < 30 { return false; }
//!     balance.store(b - 30);
//!     true
//! });
//! assert_eq!(withdrew, Some(true));
//! assert_eq!(account.load(), 70);
//! ```
//!
//! For structures that weave locks through their own nodes, the bare
//! [`Lock`] + [`Mutable`] layer is the right altitude; `Locked<T>` is the
//! packaged form of the common "one lock, one record" pattern.

#![warn(missing_docs)]

pub mod config;
mod ctx;
mod descriptor;
#[cfg(test)]
mod idem_tests;
mod idemp;
mod lock;
mod locked;
mod log;
mod mutable;
/// Model-only sanity mutants (see the `flock-model` crate). Compiled out of
/// every non-`model` build.
#[cfg(feature = "model")]
pub mod mutants;

pub use config::{lock_mode, set_lock_mode};
pub use ctx::in_thunk;
pub use idemp::{alloc, retire};
#[cfg(feature = "model")]
pub use lock::model_probe;
pub use lock::{Lock, LockMode, LockVersion, OPTIMISTIC_READ_ATTEMPTS, read_validated};
pub use locked::Locked;
pub use log::{EMPTY, LOG_BLOCK_ENTRIES};
pub use mutable::{Mutable, UpdateOnce, commit_value};

// Re-export the reclamation entry points (and the indirect value
// representation built on them) so data-structure code needs only this
// crate.
pub use flock_epoch::{EpochGuard, Indirect, pin, pin_with};

/// A `Copy + Send + Sync` wrapper for raw pointers captured by thunks.
///
/// Thunks must capture their environment by value and be `Send + Sync +
/// 'static` (helpers may run them from other threads, possibly after the
/// creating stack frame is gone — the same reason the paper's C++ lambdas
/// must capture with `[=]`). Raw pointers are not `Send`/`Sync`, so wrap
/// them in `Sp`; safety is inherited from Flock's epoch reclamation: an `Sp`
/// obtained from a [`Mutable`] load inside an operation is valid for that
/// operation's lifetime.
pub struct Sp<T>(pub *mut T);

impl<T> Sp<T> {
    /// The wrapped pointer.
    #[inline(always)]
    pub fn ptr(&self) -> *mut T {
        self.0
    }

    /// Dereference.
    ///
    /// # Safety
    ///
    /// The pointee must be alive — guaranteed when the pointer was obtained
    /// during the current epoch-pinned operation and retired only through
    /// [`retire`].
    #[inline(always)]
    pub unsafe fn as_ref<'a>(&self) -> &'a T {
        // SAFETY: forwarded caller contract.
        unsafe { &*self.0 }
    }
}

impl<T> Clone for Sp<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Sp<T> {}
impl<T> PartialEq for Sp<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl<T> Eq for Sp<T> {}
impl<T> std::fmt::Debug for Sp<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sp({:p})", self.0)
    }
}

// SAFETY: Sp is a plain address; cross-thread validity is provided by the
// epoch collector per the documented contract.
unsafe impl<T> Send for Sp<T> {}
unsafe impl<T> Sync for Sp<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The headline property: if a lock holder stalls forever, others
    /// complete its critical section (lock-free mode only).
    #[test]
    #[cfg_attr(miri, ignore)] // wall-clock park/deadline logic
    fn stalled_holder_is_helped() {
        let _guard = crate::lock::TEST_MODE_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        set_lock_mode(LockMode::LockFree);
        let lock = Arc::new(Lock::new());
        let value = Arc::new(Mutable::new(0u32));
        let entered = Arc::new(std::sync::Barrier::new(2));

        // Thread A: acquires the lock, then stalls forever *inside* the
        // thunk after performing a store. The stall simulates the owner
        // being descheduled, so it must hit only the owning thread: helpers
        // re-run the same thunk and take the fast path. (The park performs
        // no loggable operations, so runs stay log-synchronized.)
        let l = Arc::clone(&lock);
        let v = Arc::clone(&value);
        let e = Arc::clone(&entered);
        let stalled = std::thread::spawn(move || {
            let owner = std::thread::current().id();
            let e2 = Arc::clone(&e);
            let v2 = Arc::clone(&v);
            l.try_lock(move || {
                v2.store(v2.load() + 1);
                if std::thread::current().id() == owner {
                    e2.wait(); // signal "inside the critical section"
                    // Stall long enough that progress must come from helping.
                    std::thread::park_timeout(std::time::Duration::from_secs(600));
                }
            })
        });

        entered.wait();
        // Thread B: its try_lock must help A's section to completion and
        // then be able to acquire the lock itself, without waiting 600s.
        let v2 = Arc::clone(&value);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let mut acquired = false;
        while std::time::Instant::now() < deadline {
            let v3 = Arc::clone(&v2);
            if lock.try_lock(move || v3.store(v3.load() + 10)).is_some() {
                acquired = true;
                break;
            }
        }
        assert!(
            acquired,
            "helper failed to make progress past a stalled lock holder"
        );
        assert_eq!(
            value.load(),
            11,
            "stalled thunk's store applied exactly once"
        );
        stalled.thread().unpark();
        let _ = stalled.join();
    }

    /// A thunk helped to completion and then re-run by its owner must not
    /// double-apply effects.
    #[test]
    #[cfg_attr(miri, ignore)] // 2k-op concurrency stress, too slow under miri
    fn helped_thunk_applies_once() {
        let _guard = crate::lock::TEST_MODE_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        set_lock_mode(LockMode::LockFree);
        let lock = Arc::new(Lock::new());
        let counter = Arc::new(Mutable::new(0u32));
        let hits = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                let hits = Arc::clone(&hits);
                s.spawn(move || {
                    let mut done = 0;
                    while done < 500 {
                        let c = Arc::clone(&counter);
                        if lock.try_lock(move || c.store(c.load() + 1)).is_some() {
                            done += 1;
                            hits.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(counter.load() as usize, hits.load(Ordering::Relaxed));
    }

    #[test]
    #[cfg_attr(miri, ignore)] // 800-op nested-lock stress, slow under miri
    fn nested_trylock_transfer() {
        let _guard = crate::lock::TEST_MODE_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        set_lock_mode(LockMode::LockFree);
        struct Acct {
            lock: Lock,
            bal: Mutable<u32>,
        }
        let a = Arc::new(Acct {
            lock: Lock::new(),
            bal: Mutable::new(100),
        });
        let b = Arc::new(Acct {
            lock: Lock::new(),
            bal: Mutable::new(0),
        });
        // Locks ordered a < b: always take a then b.
        let total = 100u32;
        std::thread::scope(|s| {
            for _ in 0..2 {
                let a = Arc::clone(&a);
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for _ in 0..200 {
                        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
                        let _ = a.lock.try_lock(move || {
                            let (a3, b3) = (Arc::clone(&a2), Arc::clone(&b2));
                            b2.lock.try_lock(move || {
                                let ab = a3.bal.load();
                                if ab > 0 {
                                    a3.bal.store(ab - 1);
                                    b3.bal.store(b3.bal.load() + 1);
                                }
                            })
                        });
                        // Move some back the other way too (same order).
                        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
                        let _ = a.lock.try_lock(move || {
                            let (a3, b3) = (Arc::clone(&a2), Arc::clone(&b2));
                            b2.lock.try_lock(move || {
                                let bb = b3.bal.load();
                                if bb > 0 {
                                    b3.bal.store(bb - 1);
                                    a3.bal.store(a3.bal.load() + 1);
                                }
                            })
                        });
                    }
                });
            }
        });
        assert_eq!(a.bal.load() + b.bal.load(), total, "money conserved");
    }

    #[test]
    #[cfg_attr(miri, ignore)] // 800-op reclamation stress, slow under miri
    fn idempotent_alloc_retire_under_lock() {
        let _guard = crate::lock::TEST_MODE_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        set_lock_mode(LockMode::LockFree);
        let lock = Arc::new(Lock::new());
        let slot: Arc<Mutable<*mut u64>> = Arc::new(Mutable::new(std::ptr::null_mut()));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let lock = Arc::clone(&lock);
                let slot = Arc::clone(&slot);
                s.spawn(move || {
                    for i in 0..200 {
                        let slot2 = Arc::clone(&slot);
                        let _ = lock.try_lock(move || {
                            let old = slot2.load();
                            let fresh = alloc(move || t * 1000 + i);
                            slot2.store(fresh);
                            if !old.is_null() {
                                // SAFETY: old was unlinked by the store
                                // above, under the lock; retired once.
                                unsafe { retire(old) };
                            }
                        });
                    }
                });
            }
        });
        let last = slot.load();
        assert!(!last.is_null());
        flock_epoch::flush_all();
        // The final node is still linked; value must be intact (not freed).
        // SAFETY: never retired.
        let v = unsafe { *last };
        assert!(v < 4000);
        let _g = pin();
        // SAFETY: unlinked here, retired once.
        unsafe { retire(last) };
    }
}
