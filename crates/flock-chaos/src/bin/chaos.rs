//! `chaos` — the fault-injection runner: CI-checked progress under stalled
//! threads, panic-storm survival, epoch degradation under a forever-pinned
//! thread, and oversubscription churn.
//!
//! Builds with the `chaos` feature on the protocol crates (which swaps the
//! seam probes from no-ops to policy dispatch — flock-chaos is the only
//! crate that turns it on, and this binary must **never** share a build
//! with anything that measures performance):
//!
//! ```sh
//! cargo run --release -p flock-chaos --bin chaos -- --seed 7
//! ```
//!
//! Four arms, every one a hard assertion (nonzero exit on violation; the
//! seed is printed first so any failure is replayable):
//!
//! 1. **Stall/progress** — K=2 victim threads run a native `update` of a
//!    pre-inserted key and are parked *inside their critical sections*
//!    ([`Seam::InThunk`]) — an update of a present key cannot return
//!    through an outside-the-lock read path, so a parked victim provably
//!    crossed the seam mid-thunk — and never released during the
//!    measurement window. Every Flock structure in lock-free mode must keep
//!    completing operations (a four-way insert/get/update/remove mix) on
//!    the very keys the victims hold (helpers finish the stalled thunks
//!    from their committed descriptors). The same
//!    structures in blocking mode, with the victim parked holding the TTAS
//!    word ([`Seam::BlockingCritical`]), must demonstrably stall — the
//!    documented inversion, checked on all eight structures. This arm is
//!    the workspace's one stall check: its `parked` counts show that the
//!    victims really sit inside the critical section. Both sides print
//!    their Mop/s.
//! 2. **Panic storm** — a saboteur thread's seam crossings inject panics
//!    mid-thunk while workers hammer the same structure. Every injected
//!    panic must surface as exactly one observed panic (the saboteur's own
//!    unwind, or the owner's "critical section panicked during helped
//!    execution" report), and the structure must stay fully usable.
//! 3. **Epoch degradation** — a thread is parked while pinned
//!    ([`Seam::EpochPinned`]) and a retire-heavy workload runs against it.
//!    `epoch_stats()` must report the stuck reservation and the growing
//!    retire bags; growth stays bounded by what was actually retired, and
//!    reclaim resumes once the pin is released.
//! 4. **Churn** — repeated spawn/join batches under load must reclaim
//!    thread ids (high-water mark stays one batch wide, not rounds×batch).

use std::sync::Arc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use flock_api::Map;
use flock_bench::make_map;
use flock_chaos::{
    ChaosPolicy, Composite, PanicPolicy, Seam, StallPolicy, churn, clear_chaos_policy,
    set_chaos_policy,
};
use flock_core::LockMode;

/// Every Flock registry structure (the lock-free-capable side of the
/// registry; baselines bring their own locks and never cross a seam).
const FLOCK_STRUCTURES: [&str; 8] = [
    "dlist",
    "lazylist",
    "hashtable",
    "leaftree",
    "leaftree-strict",
    "leaftreap",
    "abtree",
    "arttree",
];

/// Keys the victims stall while holding; workers hammer exactly these.
const HOT: [u64; 2] = [3, 11];
/// Permanently stalled victims per structure (the ISSUE's K).
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
/// Panics injected by the storm arm.
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

struct Xorshift(u64);

impl Xorshift {
    fn new(seed: u64) -> Self {
        Self(seed | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Park victims at `seam` mid-critical-section, run workers against the
/// held keys for `window`, return (completed ops, victims seen parked).
fn stalled_window(
    map: &dyn Map<u64, u64>,
    seam: Seam,
    window: Duration,
    seed: u64,
) -> (u64, usize) {
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
        for k in 0..K_VICTIMS {
            let stall = Arc::clone(&stall);
            let hot = HOT[k % HOT.len()];
            s.spawn(move || {
                stall.arm_current();
                // Sentinel fits the 48-bit inline value payload.
                let _ = map.update(hot, (1 << 47) - 1);
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
            let mut rng = Xorshift::new(seed ^ (w as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            s.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let r = rng.next();
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
        std::thread::sleep(window);
        stop.store(true, Ordering::Release);
        // Only now do the victims (and any worker wedged behind a blocking
        // victim) get to finish and observe `stop`.
        stall.release_all();
    });
    clear_chaos_policy();
    (completed.load(Ordering::Relaxed), parked_seen)
}

/// Arm 1: lock-free progress under K stalled victims; blocking inversion.
fn stall_arm(seed: u64) {
    println!("== stall arm: {K_VICTIMS} victims parked mid-critical-section ==");
    for structure in FLOCK_STRUCTURES {
        flock_core::set_lock_mode(LockMode::LockFree);
        let map = make_map(structure, 1024);
        let (ops, parked) = stalled_window(&*map, Seam::InThunk, WINDOW, seed);
        drop(map);
        flock_epoch::flush_all();
        let mops = ops as f64 / WINDOW.as_secs_f64() / 1e6;
        println!(
            "{structure:<16}-lf  parked={parked}  {ops:>8} ops in {WINDOW:?}  ({mops:.4} Mop/s)"
        );
        assert!(
            parked >= K_VICTIMS,
            "{structure}: only {parked}/{K_VICTIMS} victims parked (seed {seed})"
        );
        assert!(
            ops >= MIN_LF_OPS,
            "{structure}: lock-free mode must make progress past stalled victims — \
             {ops} ops < {MIN_LF_OPS} (seed {seed})"
        );
    }
    // The inversion on every structure: a victim parked in the blocking
    // critical section stops the workers on each of the eight.
    for structure in FLOCK_STRUCTURES {
        flock_core::set_lock_mode(LockMode::Blocking);
        let map = make_map(structure, 1024);
        let (ops, parked) = stalled_window(&*map, Seam::BlockingCritical, WINDOW, seed);
        drop(map);
        flock_epoch::flush_all();
        flock_core::set_lock_mode(LockMode::LockFree);
        let mops = ops as f64 / WINDOW.as_secs_f64() / 1e6;
        println!(
            "{structure:<16}-bl  parked={parked}  {ops:>8} ops in {WINDOW:?}  ({mops:.4} Mop/s)"
        );
        assert!(
            parked >= 1,
            "{structure}-bl: no victim parked in the critical section (seed {seed})"
        );
        assert!(
            ops <= MAX_BL_OPS,
            "{structure}-bl: blocking mode was expected to stall behind the parked \
             lock holder, but completed {ops} ops (seed {seed})"
        );
    }
}

/// Arm 2: panic storm — every injected panic surfaces exactly once, the
/// structure survives.
fn panic_arm(seed: u64) {
    println!("== panic arm: {INJECTIONS} panics injected mid-thunk ==");
    flock_core::set_lock_mode(LockMode::LockFree);
    let inject = PanicPolicy::new(Seam::InThunk, INJECTIONS);
    set_chaos_policy(Arc::new(Composite(vec![
        Arc::clone(&inject) as Arc<dyn ChaosPolicy>
    ])));
    let map = make_map("hashtable", 1024);
    let observed = AtomicU64::new(0);
    let unexpected = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Saboteur: armed, so its thunk runs — own ops, replays, and help
        // runs alike — eat the injected panics. The op mix alternates
        // insert/remove so key presence toggles: an insert of an
        // already-present key returns through the outside-the-lock check
        // without ever crossing a seam, so an insert-only storm goes quiet
        // the moment its keys are all present.
        {
            let (map, inject, observed, unexpected, stop) =
                (&*map, &inject, &observed, &unexpected, &stop);
            let mut rng = Xorshift::new(seed ^ 0xDEAD_BEEF);
            s.spawn(move || {
                inject.arm_current();
                while !stop.load(Ordering::Acquire) {
                    let r = rng.next();
                    let key = HOT[(r as usize) % HOT.len()];
                    if let Err(p) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        if r.is_multiple_of(2) {
                            map.insert(key, r);
                        } else {
                            map.remove(key);
                        }
                    })) {
                        observed.fetch_add(1, Ordering::Relaxed);
                        if !expected_storm_panic(&*p) {
                            unexpected.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        // Workers: unarmed — but when the saboteur's panic lands in a help
        // run of *their* descriptor, the contract panic surfaces here.
        for w in 0..WORKERS {
            let (map, observed, unexpected, completed, stop) =
                (&*map, &observed, &unexpected, &completed, &stop);
            let mut rng = Xorshift::new(seed ^ (0xC0FFEE + w as u64));
            s.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let r = rng.next();
                    let key = HOT[(r as usize) % HOT.len()];
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        if r.is_multiple_of(3) {
                            map.remove(key);
                        } else {
                            map.insert(key, r);
                        }
                    })) {
                        Err(p) => {
                            observed.fetch_add(1, Ordering::Relaxed);
                            if !expected_storm_panic(&*p) {
                                unexpected.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Ok(()) => {
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        let t0 = Instant::now();
        let mut timed_out = false;
        while inject.remaining() > 0 {
            if t0.elapsed() > Duration::from_secs(30) {
                timed_out = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Stop the workers *before* any assertion: a panic while they still
        // spin would leave the scope join waiting forever.
        stop.store(true, Ordering::Release);
        assert!(
            !timed_out,
            "panic arm: only {}/{INJECTIONS} injections fired in 30s (seed {seed})",
            INJECTIONS - inject.remaining()
        );
    });
    clear_chaos_policy();
    let observed = observed.load(Ordering::Relaxed);
    let unexpected = unexpected.load(Ordering::Relaxed);
    let completed = completed.load(Ordering::Relaxed);
    println!(
        "injected {INJECTIONS}, observed {observed} panics ({unexpected} unexpected); \
         {completed} worker ops completed"
    );
    // At-most-once, never invented: each observed panic is one of the two
    // expected kinds, and there are no more observations than injections.
    // Equality does NOT hold in general — an injection landing in a help
    // run of an operation whose owner already completed and returned is
    // swallowed by the helper's recovery (the panic aborted only a
    // redundant replay), so it surfaces nowhere.
    assert_eq!(
        unexpected, 0,
        "unexpected panic kinds escaped (seed {seed})"
    );
    assert!(
        observed as usize <= INJECTIONS,
        "more panics observed ({observed}) than injected ({INJECTIONS}) (seed {seed})"
    );
    assert!(
        observed >= 1,
        "no injected panic was ever observed (seed {seed})"
    );
    assert!(completed > 0, "workers made no progress through the storm");
    // The structure (and its locks) came through unpoisoned (the remove
    // first: the storm may have left the key present, and `insert` of a
    // present key reports `false` by contract).
    let _ = map.remove(HOT[0]);
    assert!(map.insert(HOT[0], 1), "map unusable after the panic storm");
    assert_eq!(map.get(HOT[0]), Some(1));
    drop(map);
    flock_epoch::flush_all();
}

/// Arm 3: epoch degradation under a forever-pinned thread.
fn epoch_arm(seed: u64) {
    println!("== epoch arm: retire-heavy load against a stuck reservation ==");
    flock_core::set_lock_mode(LockMode::LockFree);
    let stall = StallPolicy::new(Seam::EpochPinned);
    set_chaos_policy(Arc::clone(&stall) as Arc<dyn ChaosPolicy>);
    let map = make_map("hashtable", 4096);
    let mut peak_bag = 0usize;
    let mut max_age = 0u64;
    let mut saw_pinned = false;
    std::thread::scope(|s| {
        {
            let stall = Arc::clone(&stall);
            s.spawn(move || {
                stall.arm_current();
                // Parks inside pin_with, reservation published: the
                // forever-pinned thread of the ISSUE.
                drop(flock_epoch::pin());
            });
        }
        let parked = stall.wait_parked(1, Duration::from_secs(5));
        if !parked {
            // Release before asserting so the scope join cannot hang on a
            // late-arriving pinner.
            stall.release_all();
        }
        assert!(parked, "pinner never parked at EpochPinned (seed {seed})");
        // Retire-heavy: every insert over an existing key displaces (and
        // epoch-retires) a node; removes retire too. The stuck reservation
        // must not stop any of it from *completing* — only from being freed.
        let mut rng = Xorshift::new(seed ^ 0x5EED);
        for i in 0..20_000u64 {
            let key = rng.next() % 512;
            if i.is_multiple_of(3) {
                map.remove(key);
            } else {
                map.insert(key, i);
            }
            if i % 1024 == 0 {
                let st = flock_api::epoch_stats();
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
    let post = flock_api::epoch_stats();
    println!(
        "peak retire bags {peak_bag} B, oldest reservation age {max_age} epochs; \
         after release + flush: {} B",
        post.retire_bag_bytes
    );
    assert!(
        saw_pinned,
        "epoch_stats never reported the stuck pinner (seed {seed})"
    );
    assert!(
        peak_bag > 0,
        "retire-heavy load produced no reported bag growth"
    );
    assert!(
        max_age >= 1,
        "oldest_reservation_age never aged under a stuck pin (seed {seed})"
    );
    // Bounded: bags hold at most what the workload retired (64 MiB is two
    // orders of magnitude above this workload's worst case).
    assert!(
        peak_bag < 64 << 20,
        "retire bags grew unboundedly: {peak_bag} B (seed {seed})"
    );
    assert!(
        post.retire_bag_bytes < peak_bag,
        "reclaim did not resume after the pin was released (seed {seed})"
    );
}

/// Arm 4: oversubscription churn reclaims thread ids.
fn churn_arm(seed: u64) {
    println!("== churn arm: spawn/join batches under load ==");
    flock_core::set_lock_mode(LockMode::LockFree);
    let map = make_map("leaftree", 1024);
    const ROUNDS: usize = 10;
    const BATCH: usize = 8;
    let before = flock_sync::tid::high_water_mark();
    let hwm = churn(ROUNDS, BATCH, |i| {
        let mut rng = Xorshift::new(seed ^ (i as u64 + 1));
        for _ in 0..200 {
            let r = rng.next();
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
    });
    drop(map);
    flock_epoch::flush_all();
    println!("tid high-water {hwm} (was {before}) after {ROUNDS} rounds x {BATCH} workers");
    assert!(
        hwm <= before + BATCH,
        "thread ids not reclaimed across churn: high-water {hwm}, was {before}, \
         batch {BATCH} (seed {seed})"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let seed: u64 = value("--seed").map_or(7, |s| s.parse().expect("--seed takes a u64"));
    // Printed before any arm runs: a failing run is replayable from its log.
    println!("chaos runner: seed {seed} (replay with --seed {seed})");

    let t0 = Instant::now();
    stall_arm(seed);
    panic_arm(seed);
    epoch_arm(seed);
    churn_arm(seed);

    println!(
        "chaos runner: all arms passed in {:.1}s (seed {seed})",
        t0.elapsed().as_secs_f64()
    );
}
