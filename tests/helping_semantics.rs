//! Integration tests of the paper's core semantic claims, exercised through
//! the public API:
//!
//! * a stalled lock holder cannot block the system (lock-freedom through
//!   helping);
//! * helped thunks apply exactly once (idempotence), including their
//!   allocations and retires;
//! * thunk results are typed, replay-deterministic, and distinct from the
//!   lock-busy signal;
//! * nested locks compose (atomic multi-structure moves).

use flock::core::{Lock, LockMode, Locked, Mutable};
use flock_conformance::{exclusive, with_mode};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

#[test]
fn system_progresses_past_stalled_holders_repeatedly() {
    exclusive(|| {
        // Several rounds: each round parks a fresh holder inside its critical
        // section and requires another thread to get through.
        for round in 0..5u32 {
            let lock = Arc::new(Lock::new());
            let value = Arc::new(Mutable::new(round));
            let entered = Arc::new(Barrier::new(2));

            let (l, v, e) = (Arc::clone(&lock), Arc::clone(&value), Arc::clone(&entered));
            let holder = std::thread::spawn(move || {
                let me = std::thread::current().id();
                let (v2, e2) = (Arc::clone(&v), Arc::clone(&e));
                l.try_lock(move || {
                    v2.store(v2.load() + 1);
                    if std::thread::current().id() == me {
                        e2.wait();
                        std::thread::park_timeout(Duration::from_secs(120));
                    }
                })
            });
            entered.wait();

            let deadline = Instant::now() + Duration::from_secs(20);
            let mut acquired = false;
            while Instant::now() < deadline {
                let v2 = Arc::clone(&value);
                if lock.try_lock(move || v2.store(v2.load() + 100)).is_some() {
                    acquired = true;
                    break;
                }
            }
            assert!(acquired, "round {round}: no progress past stalled holder");
            assert_eq!(value.load(), round + 101, "round {round}: effects exact");
            holder.thread().unpark();
            let _ = holder.join();
        }
    });
}

/// The headline API property of the redesign: a helped owner still gets its
/// thunk's typed result back. The owner's thunk computes a value derived
/// from logged loads; even when a helper completed the section first, the
/// owner's replay returns the identical value.
#[test]
fn helped_owner_recovers_typed_result() {
    exclusive(|| {
        let lock = Arc::new(Lock::new());
        let value = Arc::new(Mutable::new(7u32));
        let entered = Arc::new(Barrier::new(2));

        let (l, v, e) = (Arc::clone(&lock), Arc::clone(&value), Arc::clone(&entered));
        let holder = std::thread::spawn(move || {
            let me = std::thread::current().id();
            let (v2, e2) = (Arc::clone(&v), Arc::clone(&e));
            l.try_lock(move || {
                let before = v2.load();
                v2.store(before + 1);
                if std::thread::current().id() == me {
                    e2.wait();
                    std::thread::park_timeout(Duration::from_secs(120));
                }
                before * 10 // typed result, derived from a logged load
            })
        });
        entered.wait();

        // Help the parked holder through, then take the lock ourselves.
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut ours = None;
        while Instant::now() < deadline {
            let v2 = Arc::clone(&value);
            ours = lock.try_lock(move || v2.load());
            if ours.is_some() {
                break;
            }
        }
        assert_eq!(
            ours,
            Some(8),
            "helper observed the holder's committed store"
        );
        holder.thread().unpark();
        // The stalled owner replays its own thunk: same logged loads, same
        // result — even though a helper ran the section to completion first.
        assert_eq!(holder.join().unwrap(), Some(70));
    });
}

#[test]
fn helped_allocation_is_not_leaked_or_doubled() {
    exclusive(|| {
        let lock = Arc::new(Lock::new());
        let slot: Arc<Mutable<*mut u64>> = Arc::new(Mutable::new(std::ptr::null_mut()));
        let stop = Arc::new(AtomicBool::new(false));

        // Writers continuously replace the slot's allocation under the lock;
        // every replaced node is retired exactly once. With helping, thunks are
        // frequently replayed by other threads.
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (lock, slot, stop) = (Arc::clone(&lock), Arc::clone(&slot), Arc::clone(&stop));
                s.spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let slot2 = Arc::clone(&slot);
                        let val = t * 1_000_000 + i;
                        let _ = lock.try_lock(move || {
                            let old = slot2.load();
                            let fresh = flock::core::alloc(move || val);
                            slot2.store(fresh);
                            if !old.is_null() {
                                // SAFETY: unlinked by the store, under the lock.
                                unsafe { flock::core::retire(old) };
                            }
                        });
                        i += 1;
                    }
                });
            }
            std::thread::sleep(Duration::from_millis(300));
            stop.store(true, Ordering::SeqCst);
        });

        // The final linked node must be intact (failed double-retire would have
        // freed it; debug builds would also catch a double retire directly).
        let last = slot.load();
        assert!(!last.is_null());
        // SAFETY: still linked, never retired.
        let v = unsafe { *last };
        assert!(v < 4_000_000);
        let _pin = flock::core::pin();
        // SAFETY: unlinking it here; single retire.
        unsafe { flock::core::retire(last) };
    });
}

#[test]
fn atomic_move_between_two_structures() {
    exclusive(|| {
        // Move items between two Flock hash tables atomically via nested locks
        // protecting a shared "transfer" critical section. The invariant: a key
        // is in exactly one of the two tables at every moment.
        let a: Arc<flock::ds::hashtable::HashTable<u64, u64>> =
            Arc::new(flock::ds::hashtable::HashTable::with_capacity(64));
        let b: Arc<flock::ds::hashtable::HashTable<u64, u64>> =
            Arc::new(flock::ds::hashtable::HashTable::with_capacity(64));
        let transfer_locks: Arc<Vec<Lock>> = Arc::new((0..16).map(|_| Lock::new()).collect());
        for k in 0..16u64 {
            a.insert(k, k);
        }

        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (a, b, locks) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&transfer_locks));
                s.spawn(move || {
                    let mut state = t + 1;
                    for _ in 0..2_000 {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let k = state % 16;
                        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
                        // Direction depends on where the key currently is;
                        // decided inside the critical section.
                        let _ = locks[k as usize].try_lock(move || {
                            if let Some(v) = a2.get(k) {
                                a2.remove(k);
                                b2.insert(k, v);
                            } else if let Some(v) = b2.get(k) {
                                b2.remove(k);
                                a2.insert(k, v);
                            }
                        });
                    }
                });
            }
        });

        // Every key is in exactly one table, with its original value.
        for k in 0..16u64 {
            match (a.get(k), b.get(k)) {
                (Some(v), None) | (None, Some(v)) => assert_eq!(v, k),
                (x, y) => panic!("key {k} in both/neither table: {x:?} {y:?}"),
            }
        }
    });
}

/// The same move scenario through `Locked<T>` cells: a work queue of one
/// slot per key, demonstrating the packaged pattern end to end.
#[test]
fn locked_cells_move_values_atomically() {
    exclusive(|| {
        struct Pair {
            left: Mutable<u32>,
            right: Mutable<u32>,
        }
        let cell = Arc::new(Locked::new(Pair {
            left: Mutable::new(1_000),
            right: Mutable::new(0),
        }));

        std::thread::scope(|s| {
            for _ in 0..4 {
                let cell = Arc::clone(&cell);
                s.spawn(move || {
                    let mut moved = 0;
                    while moved < 250 {
                        let r = cell.try_with(|p| {
                            let l = p.left.load();
                            if l == 0 {
                                return false;
                            }
                            p.left.store(l - 1);
                            p.right.store(p.right.load() + 1);
                            true
                        });
                        // Some(false) would mean drained; None means busy.
                        if r == Some(true) {
                            moved += 1;
                        }
                    }
                });
            }
        });
        assert_eq!(cell.left.load(), 0);
        assert_eq!(cell.right.load(), 1_000);
    });
}

#[test]
fn blocking_mode_excludes_but_does_not_help() {
    with_mode(LockMode::Blocking, || {
        let lock = Arc::new(Lock::new());
        let entered = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));

        let (l, e, r) = (
            Arc::clone(&lock),
            Arc::clone(&entered),
            Arc::clone(&release),
        );
        let holder = std::thread::spawn(move || {
            l.try_lock(move || {
                e.wait();
                r.wait();
                true
            })
        });
        entered.wait();
        // While held, try_lock must fail immediately (no helping to steal).
        for _ in 0..100 {
            assert_eq!(lock.try_lock(|| true), None);
        }
        release.wait();
        assert_eq!(holder.join().unwrap(), Some(true));
        assert!(!lock.is_locked());
    });
}
