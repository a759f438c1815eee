//! Fault injection against whole structures: progress under stalled lock
//! holders, panic-storm survival, epoch degradation under a forever-pinned
//! thread, and oversubscription churn. Each test is a hard assertion,
//! seeded with [`SEED`], and runs under flock-conformance's `exclusive`
//! lock (a chaos policy and the lock mode are process-global).
//!
//! The protocol crates are built here with the `chaos` feature, which swaps
//! the seam probes from no-ops to policy dispatch; flock-chaos is the only
//! crate that turns it on, so this build is never shared with anything
//! that measures performance.

use std::sync::Arc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use flock_api::Map;
use flock_bench::{FLOCK_STRUCTURES, SplitMix64, make_map};
use flock_chaos::{PanicPolicy, Seam, StallPolicy, churn, clear_chaos_policy, set_chaos_policy};
use flock_conformance::exclusive;
use flock_core::{Lock, LockMode, Mutable};

/// Every generator in this file derives from this seed.
const SEED: u64 = 7;
/// Keys the victims stall while holding; workers hammer exactly these.
const HOT: [u64; 2] = [3, 11];
/// Permanently stalled victims per structure.
const K_VICTIMS: usize = 2;
/// Worker threads competing with the stalled victims.
const WORKERS: usize = 2;
/// Measurement window per structure.
const WINDOW: Duration = Duration::from_millis(400);
/// Lock-free progress floor: completed ops in the window, all on keys a
/// victim holds. Hundreds per second is "alive"; a helped path does tens of
/// thousands — the floor catches livelock, not slowness.
const MIN_LF_OPS: u64 = 100;
/// Blocking stall ceiling: ops the blocking side may sneak in before the
/// victim parks. Must sit far under `MIN_LF_OPS` for the inversion to mean
/// anything.
const MAX_BL_OPS: u64 = 20;
/// Panics injected by the storm.
const INJECTIONS: usize = 25;

/// Is this caught payload one of the two panics the storm can legitimately
/// produce — the injection itself, or the owner-side report of a helped
/// critical section that panicked? Anything else is protocol state leaking
/// out as an unexpected panic.
fn expected_storm_panic(payload: &(dyn std::any::Any + Send)) -> bool {
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied());
    msg.is_some_and(|m| {
        m.contains(flock_chaos::INJECTED_PANIC)
            || m.contains("critical section panicked during helped execution")
    })
}

/// Park victims at `seam` mid-critical-section, run workers against the
/// held keys for [`WINDOW`], return (completed ops, victims seen parked).
fn stalled_window(map: &dyn Map<u64, u64>, seam: Seam) -> (u64, usize) {
    // Pre-insert the hot keys (before any policy is armed) so the victim op
    // below is a native `update` of a *present* key: an update must run its
    // read-modify-write inside the owning lock's critical section, so a
    // victim that parks did so provably at the seam inside a thunk — it
    // cannot have completed through an outside-the-lock read path the way
    // an insert-of-present-key can. (The EXPERIMENTS.md §8 caveat, closed.)
    for &hot in &HOT {
        map.insert(hot, hot);
    }
    let stall = StallPolicy::new(seam);
    set_chaos_policy(stall.clone());
    let completed = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let mut parked_seen = 0;
    std::thread::scope(|s| {
        for hot in HOT.iter().cycle().take(K_VICTIMS) {
            let stall = Arc::clone(&stall);
            s.spawn(move || {
                stall.arm_current();
                // Sentinel fits the 48-bit inline value payload.
                let _ = map.update(*hot, (1 << 47) - 1);
            });
        }
        // In blocking mode the second victim can block on the first's lock
        // before reaching its own critical section (same leaf / bucket), so
        // ≥1 parked is the requirement; lock-free mode reliably parks both
        // (an armed victim stalls even if its first crossing is a help).
        stall.wait_parked(K_VICTIMS, Duration::from_secs(2));
        parked_seen = stall.parked_count();
        for w in 0..WORKERS {
            let (completed, stop) = (&completed, &stop);
            let mut rng = SplitMix64::new(SEED ^ (w as u64 + 1));
            s.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let r = rng.next_u64();
                    let key = HOT[(r as usize) % HOT.len()];
                    // Four-way mix including native `update`: helpers must
                    // complete stalled update thunks too, not just
                    // insert/remove descriptors.
                    match r % 4 {
                        0 => {
                            map.insert(key, r & ((1 << 47) - 1));
                        }
                        1 => {
                            map.get(key);
                        }
                        2 => {
                            let _ = map.update(key, r & ((1 << 47) - 1));
                        }
                        _ => {
                            map.remove(key);
                        }
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        std::thread::sleep(WINDOW);
        stop.store(true, Ordering::Release);
        // Only now do the victims (and any worker wedged behind a blocking
        // victim) get to finish and observe `stop`.
        stall.release_all();
    });
    clear_chaos_policy();
    (completed.load(Ordering::Relaxed), parked_seen)
}

/// The paper's progress claim and its inversion, on every Flock structure.
/// With [`K_VICTIMS`] victims parked inside their critical sections
/// ([`Seam::InThunk`]) and never released during the window, lock-free
/// mode keeps completing operations on the very keys the victims hold
/// (helpers finish the stalled thunks from their committed descriptors).
/// With a victim parked holding the TTAS word
/// ([`Seam::BlockingCritical`]), blocking mode stalls. This is the
/// workspace's one stall check: its `parked` counts show that the victims
/// really sit inside the critical section.
#[test]
fn stall_progress_and_blocking_inversion() {
    exclusive(|| {
        for (mode, seam) in [
            (LockMode::LockFree, Seam::InThunk),
            (LockMode::Blocking, Seam::BlockingCritical),
        ] {
            for structure in FLOCK_STRUCTURES {
                flock_core::set_lock_mode(mode);
                let map = make_map(structure, 1024);
                let (ops, parked) = stalled_window(&*map, seam);
                drop(map);
                flock_epoch::flush_all();
                flock_core::set_lock_mode(LockMode::LockFree);
                if mode == LockMode::LockFree {
                    assert!(
                        parked >= K_VICTIMS,
                        "{structure}: only {parked}/{K_VICTIMS} victims parked"
                    );
                    assert!(
                        ops >= MIN_LF_OPS,
                        "{structure}: lock-free mode must make progress past stalled victims — \
                         {ops} ops < {MIN_LF_OPS}"
                    );
                } else {
                    assert!(
                        parked >= 1,
                        "{structure}-bl: no victim parked in the critical section"
                    );
                    assert!(
                        ops <= MAX_BL_OPS,
                        "{structure}-bl: blocking mode was expected to stall behind the parked \
                         lock holder, but completed {ops} ops"
                    );
                }
            }
        }
    });
}

/// Panic storm: a saboteur's seam crossings inject [`INJECTIONS`] panics
/// mid-thunk while workers race it on the same keys. Every *observed*
/// panic must be an expected kind — the saboteur's own unwind or a racing
/// owner's "critical section panicked during helped execution" report —
/// the workers must make progress, and the structure must stay fully
/// usable. Observed can be *less* than fired: an injection landing in a
/// help run of an operation whose owner already completed and returned is
/// swallowed by the helper's recovery (the panic aborted only a redundant
/// replay), so it surfaces nowhere.
#[test]
fn panic_storm_at_most_once_reporting() {
    exclusive(|| {
        let inject = PanicPolicy::new(Seam::InThunk, INJECTIONS);
        set_chaos_policy(inject.clone());
        let map = make_map("hashtable", 1024);
        let observed = AtomicU64::new(0);
        let unexpected = AtomicU64::new(0);
        let completed = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        let caught = |p: Box<dyn std::any::Any + Send>| {
            observed.fetch_add(1, Ordering::Relaxed);
            if !expected_storm_panic(&*p) {
                unexpected.fetch_add(1, Ordering::Relaxed);
            }
        };
        std::thread::scope(|s| {
            // Saboteur: armed, so its thunk runs — own ops, replays, and
            // help runs alike — eat the injected panics. The op mix
            // alternates insert/remove so key presence toggles: an insert
            // of an already-present key returns through the
            // outside-the-lock check without ever crossing a seam, so an
            // insert-only storm goes quiet the moment its keys are all
            // present.
            {
                let (map, inject, stop, caught) = (&*map, &inject, &stop, &caught);
                let mut rng = SplitMix64::new(SEED ^ 0xDEAD_BEEF);
                s.spawn(move || {
                    inject.arm_current();
                    while !stop.load(Ordering::Acquire) {
                        let r = rng.next_u64();
                        let key = HOT[(r as usize) % HOT.len()];
                        if let Err(p) =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                if r.is_multiple_of(2) {
                                    map.insert(key, r);
                                } else {
                                    map.remove(key);
                                }
                            }))
                        {
                            caught(p);
                        }
                    }
                });
            }
            // Workers: unarmed — but when the saboteur's panic lands in a
            // help run of *their* descriptor, the contract panic surfaces
            // here.
            for w in 0..WORKERS {
                let (map, completed, stop, caught) = (&*map, &completed, &stop, &caught);
                let mut rng = SplitMix64::new(SEED ^ (0xC0FFEE + w as u64));
                s.spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let r = rng.next_u64();
                        let key = HOT[(r as usize) % HOT.len()];
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            if r.is_multiple_of(3) {
                                map.remove(key);
                            } else {
                                map.insert(key, r);
                            }
                        })) {
                            Err(p) => caught(p),
                            Ok(()) => {
                                completed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
            let t0 = Instant::now();
            while inject.remaining() > 0 && t0.elapsed() < Duration::from_secs(30) {
                std::thread::sleep(Duration::from_millis(5));
            }
            // The assertions follow the scope: one failing while the
            // workers still spin would leave its join waiting forever.
            stop.store(true, Ordering::Release);
        });
        clear_chaos_policy();
        assert_eq!(
            inject.remaining(),
            0,
            "only {}/{INJECTIONS} injections fired in 30 s",
            INJECTIONS - inject.remaining()
        );
        let observed = observed.load(Ordering::Relaxed);
        // At most once, never invented: each observed panic is one of the
        // two expected kinds, and there are no more observations than
        // injections (equality does not hold in general, see above).
        assert_eq!(
            unexpected.load(Ordering::Relaxed),
            0,
            "unexpected panic kinds escaped the storm"
        );
        assert!(
            observed as usize <= INJECTIONS,
            "more panics observed ({observed}) than injected ({INJECTIONS})"
        );
        assert!(observed >= 1, "no injected panic was ever observed");
        assert!(
            completed.load(Ordering::Relaxed) > 0,
            "workers made no progress through the storm"
        );
        // The structure (and its locks) came through unpoisoned (the remove
        // first: the storm may have left the key present, and `insert` of a
        // present key reports `false` by contract).
        let _ = map.remove(HOT[0]);
        assert!(map.insert(HOT[0], 1), "map unusable after the panic storm");
        assert_eq!(map.get(HOT[0]), Some(1));
        drop(map);
        flock_epoch::flush_all();
    });
}

/// Epoch degradation: a thread is parked while pinned
/// ([`Seam::EpochPinned`]) and a retire-heavy workload runs against it.
/// `epoch_stats()` must report the stuck reservation and the growing
/// retire bags; growth stays bounded by what was actually retired, and
/// reclaim resumes once the pin is released.
#[test]
fn epoch_degradation_under_a_stuck_pin() {
    exclusive(|| {
        let stall = StallPolicy::new(Seam::EpochPinned);
        set_chaos_policy(stall.clone());
        let map = make_map("hashtable", 4096);
        let mut peak_bag = 0usize;
        let mut max_age = 0u64;
        let mut saw_pinned = false;
        std::thread::scope(|s| {
            {
                let stall = Arc::clone(&stall);
                s.spawn(move || {
                    stall.arm_current();
                    // Parks inside pin_with, its reservation published.
                    drop(flock_epoch::pin());
                });
            }
            let parked = stall.wait_parked(1, Duration::from_secs(5));
            if !parked {
                // Release before asserting so the scope join cannot hang on
                // a late-arriving pinner.
                stall.release_all();
            }
            assert!(parked, "pinner never parked at EpochPinned");
            // Retire-heavy: every insert over an existing key displaces (and
            // epoch-retires) a node; removes retire too. The stuck
            // reservation must not stop any of it from *completing* — only
            // from being freed.
            let mut rng = SplitMix64::new(SEED ^ 0x5EED);
            for i in 0..20_000u64 {
                let key = rng.below(512);
                if i.is_multiple_of(3) {
                    map.remove(key);
                } else {
                    map.insert(key, i);
                }
                if i % 1024 == 0 {
                    let st = flock_epoch::epoch_stats();
                    saw_pinned |= st.pinned_threads >= 1;
                    peak_bag = peak_bag.max(st.retire_bag_bytes);
                    max_age = max_age.max(st.oldest_reservation_age);
                }
            }
            stall.release_all();
        });
        clear_chaos_policy();
        drop(map);
        flock_epoch::flush_all();
        let post = flock_epoch::epoch_stats();
        assert!(saw_pinned, "epoch_stats never reported the stuck pinner");
        assert!(
            peak_bag > 0,
            "retire-heavy load produced no reported bag growth"
        );
        assert!(
            max_age >= 1,
            "oldest_reservation_age never aged under a stuck pin"
        );
        // Bounded: bags hold at most what the workload retired (64 MiB is
        // two orders of magnitude above this workload's worst case).
        assert!(
            peak_bag < 64 << 20,
            "retire bags grew unboundedly: {peak_bag} B"
        );
        assert!(
            post.retire_bag_bytes < peak_bag,
            "reclaim did not resume after the pin was released: {} B after, {peak_bag} B peak",
            post.retire_bag_bytes
        );
    });
}

/// Oversubscription churn: batches of workers, each running a map mix and
/// a run of locked increments, are spawned and joined round after round.
/// A whole batch holds its thread ids at once, every increment lands
/// exactly once, and ids are reclaimed: the high-water mark stays within
/// one batch of where it was, not `ROUNDS * BATCH` above it.
#[test]
fn churn_reclaims_thread_ids() {
    const ROUNDS: usize = 10;
    const BATCH: usize = 8;
    const INCREMENTS: usize = 20;
    exclusive(|| {
        let map = make_map("leaftree", 1024);
        let lock = Lock::new();
        let count = Arc::new(Mutable::new(0u64));
        let before = flock_sync::tid::high_water_mark();
        let churned = churn(ROUNDS, BATCH, |i| {
            let mut rng = SplitMix64::new(SEED ^ (i as u64 + 1));
            for _ in 0..200 {
                let r = rng.next_u64();
                let key = r % 128;
                match r % 3 {
                    0 => {
                        map.insert(key, r);
                    }
                    1 => {
                        map.get(key);
                    }
                    _ => {
                        map.remove(key);
                    }
                }
            }
            for _ in 0..INCREMENTS {
                let count = Arc::clone(&count);
                lock.lock(move || count.store(count.load() + 1));
            }
        });
        drop(map);
        flock_epoch::flush_all();
        assert!(
            churned.peak_live >= BATCH,
            "a batch never held its {BATCH} thread ids at once: {} live at the barrier",
            churned.peak_live
        );
        assert_eq!(count.load(), (ROUNDS * BATCH * INCREMENTS) as u64);
        assert!(
            churned.high_water <= before + BATCH,
            "thread ids not reclaimed across churn: high-water {}, was {before}, batch {BATCH}",
            churned.high_water
        );
    });
}
