//! [`Locked<T>`]: a [`Lock`] fused with the data it protects.
//!
//! Every example and test of the bare [`Lock`] API used to hand-roll the
//! same pattern: a struct holding a `Lock` next to some [`Mutable`] fields,
//! an `Arc` around it, and a pre-cloned `Arc` moved into every thunk so the
//! closure could be `'static`. `Locked<T>` packages that pattern once:
//!
//! ```
//! use flock_core::{Locked, Mutable};
//!
//! let account = Locked::new(Mutable::new(100u32));
//!
//! // `try_with` runs the closure under the cell's lock; `None` means the
//! // lock was busy, `Some(r)` carries the closure's own result out.
//! let withdrew = account.try_with(|balance| {
//!     let b = balance.load();
//!     if b < 30 {
//!         return false;
//!     }
//!     balance.store(b - 30);
//!     true
//! });
//! assert_eq!(withdrew, Some(true));
//! assert_eq!(account.load(), 70); // Deref: unlocked atomic read
//! ```
//!
//! The closure receives `&T` rather than capturing it, so callers no longer
//! clone `Arc`s by hand: the cell keeps its data behind an internal `Arc`
//! and clones that into each thunk, which is what makes the `'static` bound
//! satisfiable while helpers may still be replaying the thunk after the
//! caller returned.
//!
//! As with any Flock critical section, shared state mutated inside the
//! closure must live in [`Mutable`]/[`UpdateOnce`](crate::UpdateOnce) cells
//! so replays stay idempotent; plain fields of `T` are fine for constants.

use std::sync::Arc;

use crate::lock::Lock;

/// A [`Lock`] fused with the `T` it protects. See the [crate docs](crate)
/// for the usage pattern.
///
/// The protected data lives behind an internal `Arc<T>`: each critical
/// section holds a clone, so in lock-free mode a helper replaying the thunk
/// after the caller moved on still reads live data. The cell itself can be
/// shared by reference (scoped threads) or wrapped in an outer `Arc` for
/// spawned threads and multi-cell critical sections.
pub struct Locked<T> {
    lock: Lock,
    data: Arc<T>,
}

impl<T: Default> Default for Locked<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Locked<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Locked")
            .field("locked", &self.lock.is_locked())
            .field("data", &self.data)
            .finish()
    }
}

impl<T> Locked<T> {
    /// A new unlocked cell protecting `data`.
    pub fn new(data: T) -> Self {
        Self {
            lock: Lock::new(),
            data: Arc::new(data),
        }
    }

    /// Consume the cell and return the protected data, if no critical
    /// section still references it.
    ///
    /// `None` can occur transiently in lock-free mode, after contention: a
    /// descriptor that a helper touched is retired rather than reused, and
    /// its thunk's handle on the data sits in the epoch collector until the
    /// next flush ([`flock_epoch::flush_all`]). A [`Locked::try_with2`]
    /// thunk holds the first cell's data and the second cell *itself*, so
    /// for the second cell it is the cell's own `Arc` that stays shared
    /// until that flush. An unhelped descriptor — nested ones included —
    /// drops its thunk when its `try_with` or `try_with2` returns.
    pub fn try_into_inner(self) -> Option<T> {
        Arc::into_inner(self.data)
    }

    /// Is the cell's lock currently held? (Racy observation, diagnostics.)
    pub fn is_locked(&self) -> bool {
        self.lock.is_locked()
    }

    /// The underlying [`Lock`], for advanced compositions (lock-order
    /// diagnostics).
    pub fn lock_ref(&self) -> &Lock {
        &self.lock
    }

    /// The cell's current [`crate::LockVersion`] (`None` while a critical
    /// section holds the lock) — see [`Lock::version`].
    pub fn version(&self) -> Option<crate::LockVersion> {
        self.lock.version()
    }

    /// Optimistic version-validated read over the protected data: `f` runs
    /// with plain unlocked loads, bracketed by this cell's lock version;
    /// on bounded validation failure `fallback` (a committed read) decides.
    /// See [`Lock::read_validated`].
    pub fn read_validated<R>(&self, f: impl Fn(&T) -> R, fallback: impl FnOnce(&T) -> R) -> R {
        self.lock
            .read_validated(|| f(&self.data), || fallback(&self.data))
    }
}

impl<T: Send + Sync + 'static> Locked<T> {
    /// Try to acquire the cell's lock and run `f` over the protected data.
    ///
    /// Returns `None` if the lock was busy (after helping the holder in
    /// lock-free mode), `Some(r)` with `f`'s result otherwise. Nest calls on
    /// other cells inside `f` in a consistent order for multi-cell atomicity.
    pub fn try_with<R, F>(&self, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: Fn(&T) -> R + Send + Sync + 'static,
    {
        let data = Arc::clone(&self.data);
        self.lock.try_lock(move || f(&data))
    }

    /// Acquire the cell's lock (waiting — and helping, in lock-free mode —
    /// until it is free) and run `f` over the protected data.
    pub fn with<R, F>(&self, f: F) -> R
    where
        R: Send + 'static,
        F: Fn(&T) -> R + Send + Sync + 'static,
    {
        let data = Arc::clone(&self.data);
        self.lock
            .lock(move || f(&data))
            .expect("a cell's lock is never marked obsolete")
    }

    /// Try to lock **two** cells and run `f` over both protected values.
    ///
    /// The locks are always acquired in address order (the "simply nested"
    /// discipline the paper's lock-freedom theorem requires), regardless of
    /// argument order, so any set of `try_with2` callers is deadlock-free
    /// without callers choosing an order themselves; `f` still receives the
    /// data in the order the *arguments* were passed. Returns `None` when
    /// either lock was busy (after helping the holder in lock-free mode),
    /// `Some(r)` once `f` ran under both locks.
    ///
    /// One thunk is built per call, and it owns its handles — the first
    /// cell's data, and the second cell, which keeps the second lock alive
    /// — because helpers may run it after this call returned. That is why
    /// the cells are taken as `&Arc<Self>`. The two locks are one lock set
    /// ([`Lock::try_lock_set`]): in lock-free mode one descriptor holds
    /// both lock words, its thunk installs it on the second and runs `f`
    /// in the same log, and its owner releases the second word and then
    /// the first, both after the descriptor is done (`Lock`'s module docs,
    /// "One descriptor on a lock set"). Blocking mode takes both
    /// test-and-set bits, each released on return and on unwind.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` are the same cell.
    pub fn try_with2<R, F>(a: &Arc<Self>, b: &Arc<Self>, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: Fn(&T, &T) -> R + Send + Sync + 'static,
    {
        assert!(
            !Arc::ptr_eq(a, b),
            "Locked::try_with2 requires two distinct cells"
        );
        let (first, second) = Self::in_lock_order(a, b);
        // SAFETY: the thunk holds `second`, so the second lock outlives
        // every runner.
        unsafe {
            first
                .lock
                .try_lock_set([&second.lock], Self::pair_thunk(a, b, f))
        }
    }

    /// `a` and `b` in the order `try_with2` locks them: by address.
    fn in_lock_order<'c>(a: &'c Arc<Self>, b: &'c Arc<Self>) -> (&'c Arc<Self>, &'c Arc<Self>) {
        if Arc::as_ptr(a) < Arc::as_ptr(b) {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// `try_with2`'s thunk, built once per call: run `f` over `a`'s and
    /// `b`'s data. It holds two handles — the first cell's data, and the
    /// second cell, whose lock the set takes and whose data `f` reads —
    /// not three: every reference count it takes is one more locked RMW on
    /// an account's cache line.
    fn pair_thunk<R, F>(
        a: &Arc<Self>,
        b: &Arc<Self>,
        f: F,
    ) -> impl Fn() -> R + Send + Sync + 'static
    where
        R: Send + 'static,
        F: Fn(&T, &T) -> R + Send + Sync + 'static,
    {
        let (first, second) = Self::in_lock_order(a, b);
        let a_first = Arc::ptr_eq(first, a);
        let (first, second) = (Arc::clone(&first.data), Arc::clone(second));
        move || {
            if a_first {
                f(&first, &second.data)
            } else {
                f(&second.data, &first)
            }
        }
    }
}

/// Unlocked read access to the protected data.
///
/// This is safe — all shared mutation inside `T` goes through atomic
/// [`Mutable`](crate::Mutable) cells — and is exactly the optimistic
/// traversal pattern of the paper's data structures: read without the lock,
/// take the lock (re-validating) only to mutate.
impl<T> std::ops::Deref for Locked<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock::{TEST_MODE_LOCK, both_modes};
    use crate::{LockMode, Mutable, set_lock_mode};

    #[test]
    fn try_with_runs_and_returns() {
        both_modes(|| {
            let cell = Locked::new(Mutable::new(5u32));
            let doubled = cell.try_with(|m| {
                let v = m.load();
                m.store(v * 2);
                v
            });
            assert_eq!(doubled, Some(5));
            assert_eq!(cell.load(), 10);
            assert!(!cell.is_locked());
        });
    }

    #[test]
    fn with_waits_and_returns() {
        both_modes(|| {
            let cell = Locked::new(Mutable::new(1u32));
            let r = cell.with(|m| m.load() + 41);
            assert_eq!(r, 42);
        });
    }

    #[test]
    fn concurrent_counter_exact() {
        both_modes(|| {
            let cell = Locked::new(Mutable::new(0u64));
            const PER_THREAD: u64 = 1_000;
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let cell = &cell;
                    s.spawn(move || {
                        let mut done = 0;
                        while done < PER_THREAD {
                            if cell.try_with(|m| m.store(m.load() + 1)).is_some() {
                                done += 1;
                            }
                        }
                    });
                }
            });
            assert_eq!(cell.load(), 4 * PER_THREAD);
        });
    }

    #[test]
    fn nested_cells_compose() {
        both_modes(|| {
            struct Acct {
                bal: Mutable<u32>,
            }
            let a = Arc::new(Locked::new(Acct {
                bal: Mutable::new(100),
            }));
            let b = Arc::new(Locked::new(Acct {
                bal: Mutable::new(0),
            }));
            // Fixed a → b lock order; move 30 across atomically, with both
            // locks held for the whole transfer. The inner closure reaches
            // the source data through a cloned handle (Deref) because it
            // cannot borrow from the outer closure's `&T` argument.
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let moved = a.try_with(move |_src| {
                let a3 = Arc::clone(&a2);
                b2.try_with(move |dst| {
                    let bal = a3.bal.load();
                    if bal < 30 {
                        return false;
                    }
                    a3.bal.store(bal - 30);
                    dst.bal.store(dst.bal.load() + 30);
                    true
                })
            });
            // Outer acquired, inner acquired, funds sufficed.
            assert_eq!(moved, Some(Some(true)));
            assert_eq!(a.bal.load(), 70);
            assert_eq!(b.bal.load(), 30);
            assert_eq!(a.bal.load() + b.bal.load(), 100, "money conserved");
        });
    }

    #[test]
    fn try_with2_transfers_atomically() {
        both_modes(|| {
            let a = Arc::new(Locked::new(Mutable::new(100u32)));
            let b = Arc::new(Locked::new(Mutable::new(0u32)));
            // Argument order, not address order, decides which &T is which.
            let moved = Locked::try_with2(&a, &b, |src, dst| {
                let bal = src.load();
                if bal < 30 {
                    return false;
                }
                src.store(bal - 30);
                dst.store(dst.load() + 30);
                true
            });
            assert_eq!(moved, Some(true));
            assert_eq!(a.load(), 70);
            assert_eq!(b.load(), 30);
            // Swapped argument order still works (locks reorder internally).
            let back = Locked::try_with2(&b, &a, |src, dst| {
                let bal = src.load();
                src.store(bal - 30);
                dst.store(dst.load() + 30);
                true
            });
            assert_eq!(back, Some(true));
            assert_eq!(a.load(), 100);
            assert_eq!(b.load(), 0);
        });
    }

    #[test]
    fn try_with2_concurrent_conserves_total() {
        both_modes(|| {
            const CELLS: usize = 8;
            const INITIAL: u64 = 1_000;
            let cells: Vec<Arc<Locked<Mutable<u64>>>> = (0..CELLS)
                .map(|_| Arc::new(Locked::new(Mutable::new(INITIAL))))
                .collect();
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let cells = &cells;
                    s.spawn(move || {
                        let mut state = t * 31 + 7;
                        for _ in 0..2_000 {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            let i = (state as usize) % CELLS;
                            let j = ((state >> 8) as usize) % CELLS;
                            if i == j {
                                continue;
                            }
                            let _ = Locked::try_with2(&cells[i], &cells[j], |a, b| {
                                let av = a.load();
                                if av == 0 {
                                    return false;
                                }
                                a.store(av - 1);
                                b.store(b.load() + 1);
                                true
                            });
                        }
                    });
                }
            });
            let total: u64 = cells.iter().map(|c| c.load()).sum();
            assert_eq!(total, CELLS as u64 * INITIAL, "money conserved");
        });
    }

    /// A transfer's one descriptor commits exactly six entries to its log
    /// mid-window — the second word's read and post-install read, and a
    /// load and a store per cell — plus one for each of its three tag
    /// choices (the second word's install, the two stores) that enters a
    /// tag window. So the log outgrows its inline block exactly when at
    /// least two of them do: every combination is set up here by moving
    /// the tags to one short of a window start, or not.
    #[test]
    fn try_with2_allocates_no_log_extension() {
        use crate::log::{EXTENSIONS_ALLOCATED, LOG_BLOCK_ENTRIES};
        use flock_sync::pack::TAG_WINDOW;
        let _guard = TEST_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_lock_mode(LockMode::LockFree);
        for entering in 0..8u32 {
            let a = Arc::new(Locked::new(Mutable::new(100u32)));
            let b = Arc::new(Locked::new(Mutable::new(0u32)));
            let (_, second) = Locked::in_lock_order(&a, &b);
            let to_window_edge = |bump: &dyn Fn(), enters: bool| {
                for _ in 0..if enters { TAG_WINDOW - 1 } else { 1 } {
                    bump();
                }
            };
            to_window_edge(&|| second.lock.bump_tag(), entering & 1 != 0);
            to_window_edge(&|| a.store(100), entering & 2 != 0);
            to_window_edge(&|| b.store(0), entering & 4 != 0);
            let extensions = EXTENSIONS_ALLOCATED.get();
            let last_pos = Locked::try_with2(&a, &b, |src, dst| {
                src.store(src.load() - 1);
                dst.store(dst.load() + 1);
                flock_sync::thread_ctx::with(|tc| tc.log_pos.get())
            })
            .expect("uncontended transfer found a lock busy");
            let extensions = EXTENSIONS_ALLOCATED.get() - extensions;
            let k = entering.count_ones() as usize;
            assert_eq!(
                last_pos + extensions * LOG_BLOCK_ENTRIES,
                6 + k,
                "entries committed with {k} window entries (mask {entering:03b})"
            );
            assert_eq!(extensions, usize::from(k >= 2), "mask {entering:03b}");
            assert_eq!((a.load(), b.load()), (99, 1));
        }
    }

    /// The lock-free thunk of a transfer shaped like the benchmark's (an
    /// amount and an optional thread id captured) is stored inline in its
    /// descriptor, not boxed.
    #[test]
    fn pair_thunk_fits_inline() {
        let a = Arc::new(Locked::new(Mutable::new(5u64)));
        let b = Arc::new(Locked::new(Mutable::new(0u64)));
        let (amount, sleeper) = (1u64, Some(std::thread::current().id()));
        let thunk = Locked::pair_thunk(&a, &b, move |from, to| {
            from.store(from.load() - amount);
            to.store(to.load() + u64::from(sleeper.is_some()));
        });
        assert!(std::mem::size_of_val(&thunk) <= crate::descriptor::INLINE_BYTES);
    }

    /// Lock-free transfers under contention, oversubscribed: transfers race
    /// each other and single-cell sections on the same few cells, so
    /// helpers arrive through the first and the second word of two-lock
    /// descriptors, and owners are descheduled between the two releases.
    /// Money is conserved and every lock ends released.
    #[test]
    #[cfg_attr(miri, ignore)] // oversubscribed timing stress
    fn try_with2_contended_lock_free_stress() {
        let _guard = TEST_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_lock_mode(LockMode::LockFree);
        const CELLS: usize = 3;
        const INITIAL: u64 = 1_000;
        let cells: Vec<Arc<Locked<Mutable<u64>>>> = (0..CELLS)
            .map(|_| Arc::new(Locked::new(Mutable::new(INITIAL))))
            .collect();
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let (cells, start) = (&cells, &start);
                s.spawn(move || {
                    let mut state = t * 0x9E37 + 1;
                    start.wait();
                    for _ in 0..10_000 {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let i = (state as usize) % CELLS;
                        let j = (i + 1 + (state >> 8) as usize % (CELLS - 1)) % CELLS;
                        if state % 4 == 0 {
                            let _ = cells[i].try_with(|m| m.store(m.load()));
                            continue;
                        }
                        let _ = Locked::try_with2(&cells[i], &cells[j], |a, b| {
                            let av = a.load();
                            if av > 0 {
                                a.store(av - 1);
                                b.store(b.load() + 1);
                            }
                        });
                    }
                });
            }
        });
        let total: u64 = cells.iter().map(|c| c.load()).sum();
        assert_eq!(total, CELLS as u64 * INITIAL, "money conserved");
        assert!(cells.iter().all(|c| !c.is_locked()), "a lock leaked a hold");
    }

    /// Panic-safety: a closure that unwinds out of `with` leaves the cell's
    /// lock released, and the data stays usable (no poisoning — shared
    /// state lives in `Mutable` cells that a partial run never corrupts,
    /// because an unwound thunk's effects were applied under the lock or
    /// not at all).
    #[test]
    fn panic_in_with_releases_lock() {
        both_modes(|| {
            let cell = Locked::new(Mutable::new(5u32));
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cell.with(|_| -> u32 { panic!("with boom") })
            }));
            assert!(r.is_err());
            assert!(!cell.is_locked(), "cell lock leaked by a panicking with");
            assert_eq!(cell.with(|m| m.load()), 5);
        });
    }

    /// Panic-safety: a closure that unwinds out of `try_with2` releases
    /// *both* locks — the inner lock's unwind path must compose with the
    /// outer critical section's, not just its own.
    #[test]
    fn panic_in_try_with2_releases_both_locks() {
        both_modes(|| {
            let a = Arc::new(Locked::new(Mutable::new(1u32)));
            let b = Arc::new(Locked::new(Mutable::new(2u32)));
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Locked::try_with2(&a, &b, |_, _| -> u32 { panic!("with2 boom") })
            }));
            assert!(r.is_err());
            assert!(!a.is_locked(), "first lock leaked by panicking try_with2");
            assert!(!b.is_locked(), "second lock leaked by panicking try_with2");
            // Both cells fully functional afterwards.
            let moved = Locked::try_with2(&a, &b, |x, y| {
                x.store(x.load() + 1);
                y.store(y.load() + 1);
                x.load() + y.load()
            });
            assert_eq!(moved, Some(2 + 3));
        });
    }

    #[test]
    #[should_panic(expected = "distinct cells")]
    fn try_with2_rejects_same_cell() {
        let a = Arc::new(Locked::new(Mutable::new(0u32)));
        let b = Arc::clone(&a);
        let _ = Locked::try_with2(&a, &b, |_, _| ());
    }

    #[test]
    fn deref_reads_outside_lock() {
        both_modes(|| {
            let cell = Locked::new(Mutable::new(9u32));
            assert_eq!(cell.load(), 9);
            cell.with(|m| m.store(11));
            assert_eq!(cell.load(), 11);
        });
    }

    #[test]
    fn try_into_inner_returns_data() {
        let cell = Locked::new(String::from("x"));
        assert_eq!(cell.try_into_inner(), Some(String::from("x")));
    }
}
