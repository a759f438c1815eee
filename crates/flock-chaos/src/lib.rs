//! # flock-chaos — fault injection at the Flock protocol seams
//!
//! Reusable [`ChaosPolicy`] implementations for the named injection points
//! in [`flock_sync::chaos`]: this crate is to the chaos seams what
//! `flock-model` is to the atomics shim — the *driver* side of a seam
//! discipline whose production side compiles to nothing in default builds.
//!
//! Three injector families, composable through [`Composite`]:
//!
//! * [`StallPolicy`] — park designated victim threads at a chosen seam,
//!   bounded or until released. A victim parked at [`Seam::InThunk`] is the
//!   paper's motivating adversary: a thread descheduled (here: frozen)
//!   mid-critical-section while the rest of the system needs the lock it
//!   holds. Lock-free mode must sail past it (helpers complete the thunk
//!   from the committed descriptor); blocking mode must demonstrably stall.
//! * [`PanicPolicy`] — unwind out of a chosen seam on designated threads, a
//!   bounded number of times. A panic at [`Seam::InThunk`] on a helper
//!   thread is "the helper died executing someone else's critical section",
//!   which exercises the panic-safety contract in `flock_core::lock`.
//! * [`churn`] — oversubscription churn: repeatedly spawn and join short
//!   batches of worker threads under load, stressing thread-id claim and
//!   release, announcement-table scans, and epoch-bag orphaning.
//!
//! Policies are registered process-globally
//! ([`flock_sync::chaos::set_chaos_policy`]); tests that register them must
//! serialize (flock-conformance's `exclusive` lock, or any process-global
//! mutex).
//!
//! The crate's `chaos` binary (`src/bin/chaos.rs`) drives these policies
//! against every Flock structure: progress past stalled lock holders and
//! the blocking inversion, a panic storm, epoch degradation under a stuck
//! pin, and thread churn.

#![warn(missing_docs)]

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

pub use flock_sync::chaos::{ChaosPolicy, Seam, clear_chaos_policy, set_chaos_policy};

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Park designated victim threads at a chosen seam until released (or until
/// a configured bound elapses). Each victim stalls **once** — after its
/// stall is served, later crossings pass through freely, so a released
/// victim can finish its operation (including any helped replay).
pub struct StallPolicy {
    seam: Seam,
    victims: Mutex<HashSet<ThreadId>>,
    served: Mutex<HashSet<ThreadId>>,
    parked: AtomicUsize,
    released: Mutex<bool>,
    cv: Condvar,
    bound: Option<Duration>,
}

impl StallPolicy {
    /// A new unbounded stall at `seam`: victims park until
    /// [`StallPolicy::release_all`].
    pub fn new(seam: Seam) -> Arc<Self> {
        Arc::new(Self {
            seam,
            victims: Mutex::new(HashSet::new()),
            served: Mutex::new(HashSet::new()),
            parked: AtomicUsize::new(0),
            released: Mutex::new(false),
            cv: Condvar::new(),
            bound: None,
        })
    }

    /// A stall at `seam` bounded by `bound`: a victim parks until released
    /// or until the bound elapses, whichever comes first.
    pub fn bounded(seam: Seam, bound: Duration) -> Arc<Self> {
        Arc::new(Self {
            bound: Some(bound),
            ..match Arc::try_unwrap(Self::new(seam)) {
                Ok(p) => p,
                Err(_) => unreachable!("fresh Arc has one owner"),
            }
        })
    }

    /// Designate the calling thread as a victim: its next crossing of the
    /// policy's seam parks it.
    pub fn arm_current(&self) {
        lock(&self.victims).insert(std::thread::current().id());
    }

    /// Number of victims currently parked at the seam.
    pub fn parked_count(&self) -> usize {
        self.parked.load(Ordering::Acquire)
    }

    /// Block until at least `n` victims are parked, up to `timeout`.
    /// Returns whether the count was reached.
    pub fn wait_parked(&self, n: usize, timeout: Duration) -> bool {
        let t0 = Instant::now();
        while self.parked_count() < n {
            if t0.elapsed() > timeout {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    /// Wake every parked victim (idempotent). Victims that already served
    /// their stall never park again on this policy.
    pub fn release_all(&self) {
        *lock(&self.released) = true;
        self.cv.notify_all();
    }
}

impl ChaosPolicy for StallPolicy {
    fn at(&self, seam: Seam) {
        if seam != self.seam {
            return;
        }
        let me = std::thread::current().id();
        if !lock(&self.victims).contains(&me) {
            return;
        }
        // One stall per victim: mark served *before* parking so the
        // post-release resumption (and any replay it performs) passes.
        if !lock(&self.served).insert(me) {
            return;
        }
        self.parked.fetch_add(1, Ordering::AcqRel);
        let deadline = self.bound.map(|b| Instant::now() + b);
        let mut rel = lock(&self.released);
        while !*rel {
            match deadline {
                None => rel = self.cv.wait(rel).unwrap_or_else(|e| e.into_inner()),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        break;
                    }
                    let (g, _) = self
                        .cv
                        .wait_timeout(rel, d - now)
                        .unwrap_or_else(|e| e.into_inner());
                    rel = g;
                }
            }
        }
        drop(rel);
        self.parked.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Panic out of a chosen seam on designated threads, a bounded number of
/// times. The injected panic carries a recognizable message so tests can
/// distinguish it from real failures.
pub struct PanicPolicy {
    seam: Seam,
    victims: Mutex<HashSet<ThreadId>>,
    remaining: AtomicUsize,
}

/// The panic payload message [`PanicPolicy`] unwinds with.
pub const INJECTED_PANIC: &str = "flock-chaos: injected panic";

impl PanicPolicy {
    /// Fire at most `times` panics at `seam`, on armed threads only.
    pub fn new(seam: Seam, times: usize) -> Arc<Self> {
        Arc::new(Self {
            seam,
            victims: Mutex::new(HashSet::new()),
            remaining: AtomicUsize::new(times),
        })
    }

    /// Designate the calling thread: its crossings of the seam may panic.
    pub fn arm_current(&self) {
        lock(&self.victims).insert(std::thread::current().id());
    }

    /// Injections not yet fired.
    pub fn remaining(&self) -> usize {
        self.remaining.load(Ordering::Acquire)
    }
}

impl ChaosPolicy for PanicPolicy {
    fn at(&self, seam: Seam) {
        if seam != self.seam {
            return;
        }
        if !lock(&self.victims).contains(&std::thread::current().id()) {
            return;
        }
        if self
            .remaining
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .is_ok()
        {
            panic!("{INJECTED_PANIC} at {seam:?}");
        }
    }
}

/// Run several policies at every seam crossing, in order. Lets a schedule
/// combine, say, a stall on one thread with a panic injection on another.
pub struct Composite(pub Vec<Arc<dyn ChaosPolicy>>);

impl ChaosPolicy for Composite {
    fn at(&self, seam: Seam) {
        for p in &self.0 {
            p.at(seam);
        }
    }
}

/// Oversubscription churn: `rounds` times, spawn a batch of `batch` worker
/// threads running `work(worker_index)` and join them all. Every round
/// claims and releases a fresh set of thread ids and orphans each worker's
/// epoch retire bag, stressing exactly the registries a long-lived pool
/// never exercises: tid reclaim, announcement-table scan bounds, and
/// orphan-bag reclamation.
///
/// Returns the thread-id high-water mark after the churn — a caller
/// asserting tid *reclaim* checks it stayed close to `batch` (ids were
/// reused round over round) rather than growing by `rounds * batch`.
pub fn churn<F>(rounds: usize, batch: usize, work: F) -> usize
where
    F: Fn(usize) + Send + Sync,
{
    for r in 0..rounds {
        std::thread::scope(|s| {
            for i in 0..batch {
                let work = &work;
                s.spawn(move || work(r * batch + i));
            }
        });
    }
    flock_sync::tid::high_water_mark()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_conformance::exclusive;
    use flock_core::{Lock, Mutable};
    use std::sync::atomic::{AtomicBool, AtomicU64};

    /// A stalled victim parks at the seam and wakes on release; non-victims
    /// pass through untouched.
    #[test]
    fn stall_policy_parks_and_releases() {
        exclusive(|| {
            let stall = StallPolicy::new(Seam::InThunk);
            set_chaos_policy(stall.clone());
            let n = Arc::new(Mutable::new(0u64));
            let l = Arc::new(Lock::new());
            std::thread::scope(|s| {
                {
                    let (stall, n, l) = (Arc::clone(&stall), Arc::clone(&n), Arc::clone(&l));
                    s.spawn(move || {
                        stall.arm_current();
                        let n2 = Arc::clone(&n);
                        l.lock(move || n2.store(n2.load() + 1));
                    });
                }
                assert!(
                    stall.wait_parked(1, Duration::from_secs(10)),
                    "victim never parked"
                );
                // A non-victim completes the same critical section by
                // helping past the parked victim (lock-free mode).
                let n2 = Arc::clone(&n);
                l.lock(move || n2.store(n2.load() + 1));
                stall.release_all();
            });
            assert_eq!(stall.parked_count(), 0);
            assert_eq!(n.load(), 2, "both increments applied exactly once");
            clear_chaos_policy();
        });
    }

    /// A bounded stall self-releases: no deadlock even if the test never
    /// calls `release_all`.
    #[test]
    fn bounded_stall_self_releases() {
        exclusive(|| {
            let stall = StallPolicy::bounded(Seam::InThunk, Duration::from_millis(50));
            set_chaos_policy(stall.clone());
            let l = Lock::new();
            stall.arm_current();
            let t0 = Instant::now();
            assert_eq!(l.try_lock(|| 5u32), Some(5));
            assert!(
                t0.elapsed() >= Duration::from_millis(40),
                "bounded stall did not park"
            );
            clear_chaos_policy();
        });
    }

    /// An owner stalled at `LockInstalled` — its descriptor installed on
    /// the word, its thunk not begun — holds the lock for good. For each
    /// kind of owner (`try_lock`, strict `lock`) and each kind of
    /// contender, the contender finishes the owner's critical section by
    /// helping while the owner stays parked: a `try_lock` then reports
    /// busy, a `lock` acquires. Once released, the owner returns its
    /// section's result and its store has landed exactly once.
    #[test]
    fn owner_stalled_after_its_install_is_helped() {
        exclusive(|| {
            for (owner_strict, contender_strict) in
                [(false, false), (false, true), (true, false), (true, true)]
            {
                let case =
                    format!("owner strict {owner_strict}, contender strict {contender_strict}");
                // Bounded, so a failed assert below cannot leave the scope
                // waiting on a parked owner; `release_all` ends it at once.
                let stall = StallPolicy::bounded(Seam::LockInstalled, Duration::from_secs(10));
                set_chaos_policy(stall.clone());
                let l = Lock::new();
                let n = Arc::new(Mutable::new(0u64));
                let acquire = |strict: bool, add: u64| {
                    let n2 = Arc::clone(&n);
                    let section = move || n2.store(n2.load() + add);
                    if strict {
                        l.lock(section)
                    } else {
                        l.try_lock(section)
                    }
                };
                std::thread::scope(|s| {
                    let owner = s.spawn(|| {
                        stall.arm_current();
                        acquire(owner_strict, 1)
                    });
                    assert!(
                        stall.wait_parked(1, Duration::from_secs(10)),
                        "{case}: owner never parked after its install"
                    );
                    let got = acquire(contender_strict, 10);
                    assert_eq!(got.is_some(), contender_strict, "{case}");
                    assert_eq!(stall.parked_count(), 1, "{case}: owner left the seam");
                    assert_eq!(
                        n.load() % 10,
                        1,
                        "{case}: the parked owner's section was not helped to completion"
                    );
                    stall.release_all();
                    assert_eq!(owner.join().unwrap(), Some(()), "{case}");
                });
                assert_eq!(
                    n.load(),
                    1 + if contender_strict { 10 } else { 0 },
                    "{case}: a store did not land exactly once"
                );
                assert!(!l.is_locked(), "{case}: lock left held");
                clear_chaos_policy();
            }
        });
    }

    /// Arms `stall` for the victim at its first crossing of
    /// `LockInstalled`, so that its second crossing parks: a lock set's
    /// owner crosses the seam once per word it installs on. Records
    /// whether the victim entered a run (`InThunk`).
    struct ParkAtSecondInstall {
        stall: Arc<StallPolicy>,
        victim: Mutex<Option<ThreadId>>,
        installs: AtomicUsize,
        entered_run: AtomicBool,
    }

    impl ChaosPolicy for ParkAtSecondInstall {
        fn at(&self, seam: Seam) {
            if *lock(&self.victim) == Some(std::thread::current().id()) {
                match seam {
                    Seam::LockInstalled if self.installs.fetch_add(1, Ordering::AcqRel) == 0 => {
                        self.stall.arm_current();
                        return;
                    }
                    Seam::InThunk => self.entered_run.store(true, Ordering::Release),
                    _ => {}
                }
            }
            self.stall.at(seam);
        }
    }

    /// A `try_with2` owner parked at `LockInstalled` after its install on
    /// the second word and before its run holds both words. A contender on
    /// the second account (`try_with`, then the waiting `with`) finishes
    /// the transfer by helping — the thunk finds the second word already
    /// showing its descriptor — while the owner stays parked. Released, the
    /// owner returns, its stores having landed once, and both words end
    /// free.
    #[test]
    fn set_owner_stalled_after_its_further_install_is_helped() {
        use flock_core::Locked;
        exclusive(|| {
            for contender_waits in [false, true] {
                let case = format!("contender waits: {contender_waits}");
                let stall = StallPolicy::bounded(Seam::LockInstalled, Duration::from_secs(10));
                let policy = Arc::new(ParkAtSecondInstall {
                    stall: Arc::clone(&stall),
                    victim: Mutex::new(None),
                    installs: AtomicUsize::new(0),
                    entered_run: AtomicBool::new(false),
                });
                set_chaos_policy(policy.clone());
                let a = Arc::new(Locked::new(Mutable::new(100u64)));
                let b = Arc::new(Locked::new(Mutable::new(0u64)));
                let (first, second) = if Arc::as_ptr(&a) < Arc::as_ptr(&b) {
                    (&a, &b)
                } else {
                    (&b, &a)
                };
                // The transfer's result, plus the contender's update of the
                // second account once it waited for it.
                let bonus = if contender_waits { 10 } else { 0 };
                let want = if Arc::ptr_eq(second, &b) {
                    (99, 1 + bonus)
                } else {
                    (99 + bonus, 1)
                };
                std::thread::scope(|s| {
                    let owner = s.spawn(|| {
                        *lock(&policy.victim) = Some(std::thread::current().id());
                        Locked::try_with2(&a, &b, |from, to| {
                            from.store(from.load() - 1);
                            to.store(to.load() + 1);
                        })
                    });
                    assert!(
                        stall.wait_parked(1, Duration::from_secs(10)),
                        "{case}: owner never parked at its second install"
                    );
                    assert!(
                        first.is_locked() && second.is_locked(),
                        "{case}: the parked owner does not hold both words"
                    );
                    assert!(
                        !policy.entered_run.load(Ordering::Acquire),
                        "{case}: the owner parked inside its run, not before it"
                    );
                    let add = |v: &Mutable<u64>| {
                        v.store(v.load() + 10);
                        true
                    };
                    let got = if contender_waits {
                        Some(second.with(add))
                    } else {
                        second.try_with(add)
                    };
                    assert_eq!(got.is_some(), contender_waits, "{case}");
                    assert_eq!(stall.parked_count(), 1, "{case}: owner left the seam");
                    assert_eq!(
                        (a.load(), b.load()),
                        want,
                        "{case}: the parked owner's transfer was not helped to completion"
                    );
                    stall.release_all();
                    assert_eq!(owner.join().unwrap(), Some(()), "{case}");
                });
                assert_eq!(
                    (a.load(), b.load()),
                    want,
                    "{case}: a store did not land exactly once"
                );
                assert!(
                    !first.is_locked() && !second.is_locked(),
                    "{case}: a word left held"
                );
                clear_chaos_policy();
            }
        });
    }

    /// Owner panics mid-thunk while helpers race it: every helper operation
    /// still completes exactly once, the lock is never left held, and the
    /// owner observes a panic each round. This is the panic-contract
    /// regression test the satellite asks for, run as a stress so the
    /// helper actually overlaps the owner's unwind in some rounds.
    #[test]
    fn owner_panic_with_racing_helpers() {
        exclusive(|| {
            let l = Arc::new(Lock::new());
            let ok_ops = Arc::new(Mutable::new(0u64));
            let stop = Arc::new(AtomicBool::new(false));
            const ROUNDS: usize = 200;
            std::thread::scope(|s| {
                // Helper: hammers the same lock with well-behaved thunks.
                {
                    let (l, ok_ops, stop) =
                        (Arc::clone(&l), Arc::clone(&ok_ops), Arc::clone(&stop));
                    s.spawn(move || {
                        while !stop.load(Ordering::Acquire) {
                            let n = Arc::clone(&ok_ops);
                            l.lock(move || n.store(n.load() + 1));
                        }
                    });
                }
                // Owner: panics inside its critical section every round.
                for _ in 0..ROUNDS {
                    let l2 = Arc::clone(&l);
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        l2.lock(|| -> () { panic!("owner boom") })
                    }));
                    assert!(r.is_err(), "owner's panic must reach the owner");
                }
                stop.store(true, Ordering::Release);
            });
            assert!(!l.is_locked(), "a panicking owner left the lock held");
            // The lock stays fully usable.
            assert_eq!(l.try_lock(|| 1u32), Some(1));
        });
    }

    /// Helper panics while executing the victim's critical section (the
    /// victim is parked mid-thunk): the helper swallows the panic after
    /// restoring protocol safety, finishes its own operation, and the
    /// *owner* reports the panic when it resumes — never a hung lock,
    /// never a double-applied thunk.
    #[test]
    fn helper_panic_reported_by_owner() {
        exclusive(|| {
            let stall = StallPolicy::new(Seam::InThunk);
            let inject = PanicPolicy::new(Seam::InThunk, 1);
            set_chaos_policy(Arc::new(Composite(vec![
                stall.clone() as Arc<dyn ChaosPolicy>,
                inject.clone() as Arc<dyn ChaosPolicy>,
            ])));
            let l = Arc::new(Lock::new());
            let n = Arc::new(Mutable::new(0u64));
            let victim_result = Arc::new(Mutex::new(None));
            std::thread::scope(|s| {
                {
                    let (stall, l, n, out) = (
                        Arc::clone(&stall),
                        Arc::clone(&l),
                        Arc::clone(&n),
                        Arc::clone(&victim_result),
                    );
                    s.spawn(move || {
                        stall.arm_current();
                        let n2 = Arc::clone(&n);
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            l.lock(move || n2.store(n2.load() + 1))
                        }));
                        *lock(&out) = Some(r.is_err());
                    });
                }
                assert!(
                    stall.wait_parked(1, Duration::from_secs(10)),
                    "victim never parked"
                );
                // Helper thread: armed for the injection, it panics at the
                // victim's thunk seam while helping, recovers, then
                // completes its own op.
                {
                    let (inject, l, n) = (Arc::clone(&inject), Arc::clone(&l), Arc::clone(&n));
                    s.spawn(move || {
                        inject.arm_current();
                        let n2 = Arc::clone(&n);
                        l.lock(move || n2.store(n2.load() + 10));
                    });
                }
                // Wait until the helper consumed the injection and got its
                // own op through, then release the victim.
                let t0 = Instant::now();
                while n.load() != 10 {
                    assert!(
                        t0.elapsed() < Duration::from_secs(10),
                        "helper never completed its own op after the injected panic \
                         (n = {})",
                        n.load()
                    );
                    std::thread::yield_now();
                }
                stall.release_all();
            });
            assert_eq!(inject.remaining(), 0, "injection never fired");
            assert_eq!(
                *lock(&victim_result),
                Some(true),
                "the owner of the panicked critical section must observe a panic"
            );
            assert_eq!(
                n.load(),
                10,
                "panicked critical section must have no effect; helper's own op exactly once"
            );
            assert!(!l.is_locked(), "lock hung after a helper panic");
            assert_eq!(l.try_lock(|| 2u32), Some(2), "lock unusable afterwards");
            clear_chaos_policy();
        });
    }

    /// Churned workers reclaim thread ids: the high-water mark stays near
    /// one batch's width instead of growing with every round.
    #[test]
    fn churn_reclaims_thread_ids() {
        exclusive(|| {
            let l = Arc::new(Lock::new());
            let n = Arc::new(Mutable::new(0u64));
            const ROUNDS: usize = 10;
            const BATCH: usize = 6;
            let before = flock_sync::tid::high_water_mark();
            let hwm = churn(ROUNDS, BATCH, |_| {
                for _ in 0..20 {
                    let n2 = Arc::clone(&n);
                    l.lock(move || n2.store(n2.load() + 1));
                }
            });
            assert_eq!(n.load(), (ROUNDS * BATCH * 20) as u64);
            // Reclaim bound: one batch beyond whatever was live before the
            // churn — NOT rounds * batch (which unreclaimed ids would hit).
            assert!(
                hwm <= before + BATCH,
                "thread ids not reclaimed across churn rounds: high-water {hwm} \
                 (was {before}, batch {BATCH})"
            );
        });
    }
    /// Panic storm: a saboteur's seam crossings inject panics while two
    /// workers race it on the same keys. Every *observed* panic must be an
    /// expected kind — the saboteur's own unwind or a racing owner's
    /// "critical section panicked during helped execution" report — and the
    /// structure must stay fully usable. Observed can be *less* than fired:
    /// an injection landing in a help run of an operation whose owner
    /// already completed and returned is swallowed by the helper's recovery
    /// (the panic aborted only a redundant replay), so it surfaces nowhere.
    /// The workload alternates insert/remove so presence toggles and every
    /// thread keeps crossing the lock (an insert of an already-present key
    /// returns through the outside-the-lock check and never reaches a seam).
    #[test]
    fn panic_storm_at_most_once_reporting() {
        exclusive(|| {
            fn expected_storm_panic(payload: &(dyn std::any::Any + Send)) -> bool {
                let msg = if let Some(s) = payload.downcast_ref::<String>() {
                    s.as_str()
                } else if let Some(s) = payload.downcast_ref::<&str>() {
                    s
                } else {
                    return false;
                };
                msg.contains(INJECTED_PANIC)
                    || msg.contains("critical section panicked during helped execution")
            }
            let inject = PanicPolicy::new(Seam::InThunk, 5);
            set_chaos_policy(Arc::clone(&inject) as Arc<dyn ChaosPolicy>);
            let map: flock_ds::hashtable::HashTable<u64, u64> =
                flock_ds::hashtable::HashTable::with_capacity(1024);
            let observed = AtomicU64::new(0);
            let unexpected = AtomicU64::new(0);
            let stop = AtomicBool::new(false);
            std::thread::scope(|s| {
                {
                    let (map, inject, observed, unexpected, stop) =
                        (&map, &inject, &observed, &unexpected, &stop);
                    s.spawn(move || {
                        inject.arm_current();
                        let mut i = 0u64;
                        while !stop.load(Ordering::Acquire) {
                            i += 1;
                            let key = [3u64, 11][(i % 2) as usize];
                            let op = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                if i.is_multiple_of(2) {
                                    map.insert(key, i);
                                } else {
                                    map.remove(key);
                                }
                            }));
                            if let Err(payload) = op {
                                if expected_storm_panic(payload.as_ref()) {
                                    observed.fetch_add(1, Ordering::Relaxed);
                                } else {
                                    unexpected.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    });
                }
                for w in 0..2u64 {
                    let (map, observed, unexpected, stop) = (&map, &observed, &unexpected, &stop);
                    s.spawn(move || {
                        let mut i = w;
                        while !stop.load(Ordering::Acquire) {
                            i += 1;
                            let key = [3u64, 11][(i % 2) as usize];
                            let op = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                if i.is_multiple_of(3) {
                                    map.remove(key);
                                } else {
                                    map.insert(key, i);
                                }
                            }));
                            if let Err(payload) = op {
                                if expected_storm_panic(payload.as_ref()) {
                                    observed.fetch_add(1, Ordering::Relaxed);
                                } else {
                                    unexpected.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    });
                }
                let t0 = Instant::now();
                while inject.remaining() > 0 && t0.elapsed() < Duration::from_secs(20) {
                    std::thread::yield_now();
                }
                stop.store(true, Ordering::Release);
            });
            clear_chaos_policy();
            assert_eq!(inject.remaining(), 0, "storm never fired all injections");
            assert_eq!(
                unexpected.load(Ordering::Relaxed),
                0,
                "a panic with an unrecognized payload escaped the storm"
            );
            let n = observed.load(Ordering::Relaxed);
            assert!(n <= 5, "more panics observed ({n}) than injected (5)");
            assert!(n >= 1, "no injected panic was ever observed");
            assert!(map.insert(99, 1), "map unusable after the storm");
            assert_eq!(map.get(99), Some(1));
            flock_epoch::flush_all();
        });
    }
}
