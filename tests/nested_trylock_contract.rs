//! Regression tests pinning the nested try-lock result contract introduced
//! by the PR 1 API redesign (documented in CHANGES.md, asserted nowhere
//! until now):
//!
//! * `None`             — the *outer* lock was busy (nothing ran);
//! * `Some(None)`       — the outer lock was acquired, the *inner* was busy;
//! * `Some(Some(r))`    — both acquired, `r` is the inner thunk's result.
//!
//! The three cases must stay distinguishable in both lock modes: an outer
//! busy signal collapsing into an inner one (or vice versa) silently breaks
//! every caller that backs off differently per level (hand-over-hand
//! traversals retry the whole descent on `None` but only the inner step on
//! `Some(None)`).

use flock::core::Lock;
use flock_conformance::both_modes;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Park a holder inside `lock`'s critical section (the stall hits only the
/// owning thread, so lock-free helpers can still complete the thunk).
/// Returns the holder's join handle; `entered` is waited before returning,
/// so the lock is observably held.
fn park_holder_on(lock: &Arc<Lock>) -> std::thread::JoinHandle<()> {
    let entered = Arc::new(Barrier::new(2));
    let (l, e) = (Arc::clone(lock), Arc::clone(&entered));
    let holder = std::thread::spawn(move || {
        let me = std::thread::current().id();
        let e2 = Arc::clone(&e);
        l.try_lock(move || {
            if std::thread::current().id() == me {
                e2.wait();
                std::thread::park_timeout(Duration::from_secs(120));
            }
        });
    });
    entered.wait();
    holder
}

#[test]
fn both_free_yields_some_some() {
    both_modes(|| {
        let outer = Arc::new(Lock::new());
        let inner = Arc::new(Lock::new());
        let i2 = Arc::clone(&inner);
        assert_eq!(
            outer.try_lock(move || i2.try_lock(|| 7u32)),
            Some(Some(7)),
            "both locks free: the inner result must come through both layers"
        );
        assert!(!outer.is_locked());
        assert!(!inner.is_locked());
    });
}

#[test]
fn inner_busy_yields_some_none() {
    both_modes(|| {
        let outer = Arc::new(Lock::new());
        let inner = Arc::new(Lock::new());
        let holder = park_holder_on(&inner);

        // Outer is free, inner is held by the parked thread: the outer
        // acquisition must succeed and report the inner as busy —
        // `Some(None)`, never `None` (which would claim the *outer* was
        // busy) and never `Some(Some(_))`.
        let i2 = Arc::clone(&inner);
        let r = outer.try_lock(move || i2.try_lock(|| true));
        assert_eq!(
            r,
            Some(None),
            "inner-busy must surface as Some(None): outer acquired, inner busy"
        );
        assert!(
            !outer.is_locked(),
            "outer must be released after its thunk completes"
        );

        holder.thread().unpark();
        let _ = holder.join();
    });
}

#[test]
fn outer_busy_yields_none() {
    both_modes(|| {
        let outer = Arc::new(Lock::new());
        let inner = Arc::new(Lock::new());
        let holder = park_holder_on(&outer);

        // Outer is held: the nested attempt must report `None` — the inner
        // thunk must not run at all.
        let ran_inner = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (i2, ran2) = (Arc::clone(&inner), Arc::clone(&ran_inner));
        let r = outer.try_lock(move || {
            let ran3 = Arc::clone(&ran2);
            i2.try_lock(move || ran3.store(true, std::sync::atomic::Ordering::SeqCst))
        });
        assert_eq!(r, None, "outer-busy must surface as the outer None");
        assert!(
            !ran_inner.load(std::sync::atomic::Ordering::SeqCst),
            "inner thunk must not run when the outer lock was busy"
        );

        holder.thread().unpark();
        let _ = holder.join();
    });
}
