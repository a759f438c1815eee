//! White-box idempotence tests: run the *same* descriptor several times —
//! sequentially and racing — and assert the thunk's effects apply exactly
//! once and every run externalizes identical results (the paper's
//! Definition 1, exercised directly against the internals).

#![cfg(test)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use crate::ctx;
use crate::descriptor::{create_here, recycle_here};
use crate::mutable::{Mutable, commit_value};
use crate::{LockMode, set_lock_mode};

fn locked_lf() -> std::sync::MutexGuard<'static, ()> {
    let g = crate::lock::TEST_MODE_LOCK
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    set_lock_mode(LockMode::LockFree);
    g
}

/// Run `d` and read back its `bool` result (all descriptors in this file
/// are created from bool-returning thunks).
///
/// # Safety
///
/// `d` must be live and created from a `Fn() -> bool` thunk.
unsafe fn run_bool(d: *const crate::descriptor::Descriptor) -> bool {
    let mut out = std::mem::MaybeUninit::<bool>::uninit();
    // SAFETY: forwarded contract; out slot matches the thunk's return type.
    flock_sync::thread_ctx::with(|tc| unsafe { ctx::run_in(tc, d, out.as_mut_ptr().cast()) });
    // SAFETY: run wrote the slot.
    unsafe { out.assume_init() }
}

#[test]
fn sequential_reruns_apply_once() {
    let _m = locked_lf();
    let counter = Arc::new(Mutable::new(0u32));
    let c = Arc::clone(&counter);
    let d = create_here(
        move || {
            c.store(c.load() + 1);
            true
        },
        0,
        false,
    );
    // Five runs of the same descriptor: one effect.
    for _ in 0..5 {
        // SAFETY: descriptor is live and owned by this test.
        assert!(unsafe { run_bool(d) });
    }
    assert_eq!(counter.load(), 1, "increment must apply exactly once");
    // SAFETY: never published to a lock word or log.
    unsafe { recycle_here(d) };
}

#[test]
fn reruns_agree_on_committed_nondeterminism() {
    let _m = locked_lf();
    let observed = Arc::new(Mutex::new(Vec::new()));
    let ticket = Arc::new(AtomicU64::new(100));
    let (obs, tk) = (Arc::clone(&observed), Arc::clone(&ticket));
    let d = create_here(
        move || {
            // A genuinely nondeterministic input (different every call),
            // made deterministic by committing it to the log.
            let raw = tk.fetch_add(1, Ordering::SeqCst);
            let agreed = commit_value(raw);
            obs.lock().unwrap().push(agreed);
            true
        },
        0,
        false,
    );
    for _ in 0..4 {
        // SAFETY: live, test-owned descriptor.
        assert!(unsafe { run_bool(d) });
    }
    let seen = observed.lock().unwrap().clone();
    assert_eq!(seen.len(), 4);
    assert!(
        seen.iter().all(|&v| v == seen[0]),
        "all runs must observe the first committed value: {seen:?}"
    );
    assert_eq!(seen[0], 100, "the first run's value wins");
    // SAFETY: never published.
    unsafe { recycle_here(d) };
}

#[test]
fn racing_runs_apply_once() {
    let _m = locked_lf();
    for _round in 0..20 {
        let a = Arc::new(Mutable::new(0u32));
        let b = Arc::new(Mutable::new(1000u32));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let d = create_here(
            move || {
                // A multi-step critical section with data flow between
                // locations — the kind of thing naive replay would corrupt.
                let x = a2.load();
                a2.store(x + 1);
                let y = b2.load();
                b2.store(y + x + 1);
                true
            },
            0,
            false,
        );
        let start = Arc::new(Barrier::new(4));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let start = Arc::clone(&start);
                let dp = crate::Sp(d);
                s.spawn(move || {
                    start.wait();
                    // SAFETY: the descriptor outlives the scope; runs of a
                    // thunk are exactly what idempotence makes safe.
                    assert!(unsafe { run_bool(dp.ptr()) });
                });
            }
        });
        assert_eq!(a.load(), 1, "store to a applied once");
        assert_eq!(b.load(), 1001, "store to b applied once");
        // SAFETY: runs finished (scope joined); never published.
        unsafe { recycle_here(d) };
    }
}

#[test]
fn racing_alloc_and_retire_exactly_once() {
    let _m = locked_lf();
    for _round in 0..20 {
        let slot: Arc<Mutable<*mut u64>> = Arc::new(Mutable::new(std::ptr::null_mut()));
        let s2 = Arc::clone(&slot);
        let d = create_here(
            move || {
                let fresh = crate::alloc(|| 7u64);
                s2.store(fresh);
                true
            },
            0,
            false,
        );
        let start = Arc::new(Barrier::new(4));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let start = Arc::clone(&start);
                let dp = crate::Sp(d);
                s.spawn(move || {
                    let _g = flock_epoch::pin();
                    start.wait();
                    // SAFETY: as in racing_runs_apply_once.
                    unsafe { run_bool(dp.ptr()) };
                });
            }
        });
        // All runs agreed on one allocation; it is linked and intact.
        let p = slot.load();
        assert!(!p.is_null());
        // SAFETY: winner allocation is live (losers were freed privately;
        // the debug double-free tracker would catch any mistake).
        assert_eq!(unsafe { *p }, 7);
        let _g = flock_epoch::pin();
        // SAFETY: unlinked here; retired once.
        unsafe { crate::retire(p) };
        // SAFETY: never published.
        unsafe { recycle_here(d) };
    }
    flock_epoch::flush_all();
}

#[test]
fn long_thunk_spans_many_log_blocks() {
    let _m = locked_lf();
    let cells: Arc<Vec<Mutable<u32>>> = Arc::new((0..64).map(Mutable::new).collect());
    let c = Arc::clone(&cells);
    let d = create_here(
        move || {
            // 64 loads + 64 stores = 192 log entries >> one 7-entry block.
            for m in c.iter() {
                m.store(m.load() + 1);
            }
            true
        },
        0,
        false,
    );
    for _ in 0..3 {
        // SAFETY: live, test-owned.
        assert!(unsafe { run_bool(d) });
    }
    for (i, m) in cells.iter().enumerate() {
        assert_eq!(m.load(), i as u32 + 1, "cell {i} bumped exactly once");
    }
    // SAFETY: never published (extension blocks freed by recycle).
    unsafe { recycle_here(d) };
}

#[test]
fn interleaved_runs_of_two_descriptors_stay_isolated() {
    let _m = locked_lf();
    let x = Arc::new(Mutable::new(0u32));
    let (x1, x2) = (Arc::clone(&x), Arc::clone(&x));
    let d1 = create_here(
        move || {
            x1.store(x1.load() + 1);
            true
        },
        0,
        false,
    );
    let d2 = create_here(
        move || {
            x2.store(x2.load() + 10);
            true
        },
        0,
        false,
    );
    // Interleave replays: 1,2,1,2. Each applies once.
    for _ in 0..2 {
        // SAFETY: live, test-owned descriptors.
        unsafe {
            run_bool(d1);
            run_bool(d2);
        }
    }
    assert_eq!(x.load(), 11);
    // SAFETY: never published.
    unsafe {
        recycle_here(d1);
        recycle_here(d2);
    }
}
